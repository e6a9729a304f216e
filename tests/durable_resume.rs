//! Durable-run integration tests: a journaled run torn mid-write resumes
//! bit-identically, a stale journal header is rejected before any request
//! executes, a budget-tripped run resumes under a raised budget to the
//! same result an uninterrupted run at that budget produces, and a run
//! killed at any of its terminal events resumes bit-identically with every
//! request billed exactly once.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use llm_data_preprocessors::core::{
    Durability, ExecutionOptions, KillSwitch, PipelineConfig, Preprocessor, RunResult,
};
use llm_data_preprocessors::datasets::{dataset_by_name, Dataset};
use llm_data_preprocessors::llm::{
    warm_cache_store, CacheLayer, ChatModel, ChatRequest, ChatResponse, EscalationPolicy,
    FaultLayer, FaultScenario, ModelProfile, RetryLayer, RouterLayer, SimulatedLlm, StackSpec,
    Usage,
};
use llm_data_preprocessors::obs::{
    AuditTracer, CollectingTracer, DurableJournal, JournalEntry, MetricsSnapshot, NullTracer,
    TerminalKind, Tracer,
};

const FAULT_RATE: f64 = 0.1;
const FAULT_SEED: u64 = 17;
const RETRIES: u32 = 2;
/// Adult's scale in the kill-point sweep, whose cost grows with its square.
const KILL_SCALE: f64 = 0.03;

fn temp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("dprep-durable-test-{}-{name}", std::process::id()));
    p
}

fn stack(ds: &Dataset, warm: &[JournalEntry]) -> impl ChatModel {
    let model = SimulatedLlm::new(ModelProfile::gpt4(), Arc::new(ds.kb.clone()));
    let faulty = FaultLayer::new(model, FAULT_RATE, FAULT_SEED);
    let retried = RetryLayer::new(faulty, RETRIES);
    let mut cache = CacheLayer::new(retried);
    if !warm.is_empty() {
        cache = cache.with_store(warm_cache_store(warm));
    }
    cache
}

fn run(
    ds: &Dataset,
    workers: usize,
    durability: Durability,
    warm: &[JournalEntry],
    options: Option<ExecutionOptions>,
) -> RunResult {
    let model = stack(ds, warm);
    let mut config = PipelineConfig::best(ds.task);
    config.workers = workers;
    let mut preprocessor = Preprocessor::new(&model, config).with_durability(durability);
    if let Some(options) = options {
        preprocessor = preprocessor.with_exec_options(options);
    }
    preprocessor
        .try_run(&ds.instances, &ds.few_shot)
        .expect("durable run accepted")
}

fn strip_journal_counters(mut metrics: MetricsSnapshot) -> MetricsSnapshot {
    metrics.journal_replayed = 0;
    metrics.journal_written = 0;
    metrics.journal_truncated = 0;
    metrics
}

#[test]
fn torn_journal_resumes_bit_identically_with_a_warning() {
    let ds = dataset_by_name("Restaurant", 0.5, 5).unwrap();
    let reference = run(&ds, 4, Durability::new(), &[], None);

    // Journal an uninterrupted run, then tear the final line mid-write the
    // way a crash during the last append would.
    let path = temp_path("torn");
    let journal = Arc::new(DurableJournal::fresh(&path, "m", "c", 5).unwrap());
    let full = run(
        &ds,
        4,
        Durability::new().with_journal(Arc::clone(&journal)),
        &[],
        None,
    );
    assert_eq!(full.predictions, reference.predictions);
    let written = journal.written();
    assert!(written > 1, "workload journaled only {written} entries");
    drop(journal);
    let bytes = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() - 19]).unwrap();

    // Recovery drops the torn entry, warns, and repairs the file; the
    // resumed run replays the rest and re-executes only the remainder.
    let recovered = DurableJournal::resume(&path).unwrap();
    let warning = recovered.warning.as_deref().expect("torn tail warns");
    assert!(warning.contains("torn final line"), "{warning}");
    assert_eq!(recovered.entries.len(), written - 1);
    let truncated = recovered.journal.truncated();
    // Read-only resume (no --journal): the recovered handle is dropped, so
    // the truncation count rides on the durability.
    let durability = Durability::new()
        .with_replay(&recovered.entries, recovered.require_header().unwrap().plan)
        .with_truncated(truncated);
    let resumed = run(&ds, 4, durability, &recovered.entries, None);

    assert_eq!(resumed.predictions, reference.predictions);
    assert_eq!(resumed.usage, reference.usage);
    assert_eq!(resumed.stats, reference.stats);
    assert_eq!(resumed.metrics.journal_truncated, 1);
    assert!(resumed.metrics.journal_replayed > 0);
    assert_eq!(resumed.metrics.journal_written, 0, "read-only resume");
    assert_eq!(
        strip_journal_counters(resumed.metrics),
        strip_journal_counters(reference.metrics)
    );
    std::fs::remove_file(&path).ok();
}

/// Counts dispatches so a rejected resume can prove nothing executed.
struct CountingModel<M> {
    inner: M,
    calls: AtomicUsize,
}

impl<M: ChatModel> ChatModel for CountingModel<M> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn default_temperature(&self) -> f64 {
        self.inner.default_temperature()
    }
    fn chat(&self, request: &ChatRequest) -> ChatResponse {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.chat(request)
    }
    fn context_window(&self) -> usize {
        self.inner.context_window()
    }
    fn cost_usd(&self, usage: &Usage) -> f64 {
        self.inner.cost_usd(usage)
    }
    fn take_route_pending(
        &self,
        trace_id: u64,
    ) -> Option<llm_data_preprocessors::llm::RoutePending> {
        self.inner.take_route_pending(trace_id)
    }
}

#[test]
fn stale_journal_header_is_rejected_before_any_request_executes() {
    let ds = dataset_by_name("Restaurant", 0.5, 5).unwrap();
    let path = temp_path("stale");
    let journal = Arc::new(DurableJournal::fresh(&path, "m", "c", 5).unwrap());
    run(
        &ds,
        1,
        Durability::new().with_journal(Arc::clone(&journal)),
        &[],
        None,
    );
    drop(journal);

    // The same journal against a different workload: the plan fingerprint
    // in the header no longer matches, and the run must refuse up front.
    let other = dataset_by_name("Restaurant", 0.5, 6).unwrap();
    let recovered = DurableJournal::resume(&path).unwrap();
    let durability =
        Durability::new().with_replay(&recovered.entries, recovered.require_header().unwrap().plan);
    let model = CountingModel {
        inner: stack(&other, &[]),
        calls: AtomicUsize::new(0),
    };
    let mut config = PipelineConfig::best(other.task);
    config.workers = 4;
    let err = Preprocessor::new(&model, config)
        .with_durability(durability)
        .try_run(&other.instances, &other.few_shot)
        .expect_err("stale journal must be rejected");
    assert!(err.contains("refusing to resume"), "{err}");
    assert_eq!(model.calls.load(Ordering::Relaxed), 0, "requests executed");
    std::fs::remove_file(&path).ok();
}

/// A cheap-first cascade over the dataset's knowledge base.
fn cascade(ds: &Dataset, routes: &[&str]) -> RouterLayer {
    let kb = Arc::new(ds.kb.clone());
    let legs = routes
        .iter()
        .map(|name| {
            let profile = ModelProfile::by_name(name).expect("known route model");
            Box::new(SimulatedLlm::new(profile, Arc::clone(&kb))) as Box<dyn ChatModel>
        })
        .collect();
    RouterLayer::new(legs, EscalationPolicy::default())
}

#[test]
fn resume_under_a_different_cascade_is_rejected_up_front() {
    let ds = dataset_by_name("Restaurant", 0.5, 5).unwrap();

    // Journal a routed run: the header records the composite router model
    // name and a descriptor carrying the route set and escalation policy.
    let router = cascade(&ds, &["sim-gpt-3.5", "sim-gpt-4"]);
    let mut config = PipelineConfig::best(ds.task);
    config.routes = vec!["sim-gpt-3.5".into(), "sim-gpt-4".into()];
    let descriptor = config.descriptor();
    let path = temp_path("cascade");
    let journal = Arc::new(DurableJournal::fresh(&path, router.name(), &descriptor, 5).unwrap());
    let reference = Preprocessor::new(&router, config.clone())
        .with_durability(Durability::new().with_journal(Arc::clone(&journal)))
        .try_run(&ds.instances, &ds.few_shot)
        .expect("routed journaled run");
    drop(journal);

    let recovered = DurableJournal::resume(&path).unwrap();
    let header = recovered.require_header().unwrap();
    assert_eq!(header.model, router.name());
    assert_eq!(header.config, descriptor);

    // Same routes, different escalation policy: the composite model name
    // (and with it every request fingerprint, so the plan fingerprint too)
    // is unchanged — only the descriptor in the header can tell the two
    // cascades apart. The up-front header comparison the CLI performs must
    // therefore see different identities.
    let mut other_policy = config.clone();
    other_policy.escalate_on = Some("garbled".into());
    assert_ne!(
        header.config,
        other_policy.descriptor(),
        "a different escalation policy must change the journal identity"
    );

    // A different route set changes the composite model name, which feeds
    // every request fingerprint: the core plan guard refuses the resume
    // before any request executes.
    let other_routes = CountingModel {
        inner: cascade(&ds, &["sim-gpt-3", "sim-gpt-4"]),
        calls: AtomicUsize::new(0),
    };
    let mut other_config = PipelineConfig::best(ds.task);
    other_config.routes = vec!["sim-gpt-3".into(), "sim-gpt-4".into()];
    let durability = Durability::new().with_replay(&recovered.entries, header.plan);
    let err = Preprocessor::new(&other_routes, other_config)
        .with_durability(durability)
        .try_run(&ds.instances, &ds.few_shot)
        .expect_err("a different cascade must be rejected");
    assert!(err.contains("refusing to resume"), "{err}");
    assert_eq!(
        other_routes.calls.load(Ordering::Relaxed),
        0,
        "requests executed"
    );

    // The genuine resume — same cascade, same policy — replays the journal
    // bit-identically with every routed leg billed from its record.
    let durability = Durability::new().with_replay(&recovered.entries, header.plan);
    let resumed = Preprocessor::new(&router, config)
        .with_durability(durability)
        .try_run(&ds.instances, &ds.few_shot)
        .expect("same-cascade resume accepted");
    assert_eq!(resumed.predictions, reference.predictions);
    assert_eq!(resumed.usage, reference.usage);
    assert_eq!(resumed.metrics.routes, reference.metrics.routes);
    assert!(resumed.metrics.journal_replayed > 0);
    std::fs::remove_file(&path).ok();
}

#[test]
fn budget_tripped_run_resumes_under_a_raised_budget() {
    let ds = dataset_by_name("Restaurant", 0.5, 5).unwrap();
    let tight = ExecutionOptions {
        workers: 4,
        token_budget: Some(4_000),
        ..ExecutionOptions::default()
    };
    let roomy = ExecutionOptions {
        workers: 4,
        token_budget: Some(1_000_000),
        ..ExecutionOptions::default()
    };
    let reference = run(&ds, 4, Durability::new(), &[], Some(roomy));

    // Trip the budget: the run completes what fits and journals the rest
    // as cancelled (unbilled).
    let path = temp_path("budget");
    let journal = Arc::new(DurableJournal::fresh(&path, "m", "c", 5).unwrap());
    let tripped = run(
        &ds,
        4,
        Durability::new().with_journal(Arc::clone(&journal)),
        &[],
        Some(tight),
    );
    assert!(
        tripped.failed_count() > 0,
        "budget was not tight enough to trip"
    );
    drop(journal);

    // Resume with a raised budget: completed requests replay and bill the
    // journaled numbers; cancelled ones execute for the first time. The
    // outcome matches an uninterrupted run at the raised budget.
    let recovered = DurableJournal::resume(&path).unwrap();
    assert!(recovered
        .entries
        .iter()
        .any(|e| e.kind == TerminalKind::Cancelled));
    let durability =
        Durability::new().with_replay(&recovered.entries, recovered.require_header().unwrap().plan);
    let resumed = run(&ds, 4, durability, &recovered.entries, Some(roomy));

    assert_eq!(resumed.predictions, reference.predictions);
    assert_eq!(resumed.usage, reference.usage);
    assert_eq!(resumed.stats, reference.stats);
    assert_eq!(
        strip_journal_counters(resumed.metrics),
        strip_journal_counters(reference.metrics)
    );
    std::fs::remove_file(&path).ok();
}

/// One run of the shipped shape under `partial-batch` faults with the
/// ladder on: `sim-gpt-4` behind `StackSpec`'s fault → retry → cache, the
/// cache warmed with `warm`, in shards of `plan_shard` batches (`None`:
/// one shard), stopped by `kill` when it fires.
fn faulted_ladder_run(
    ds: &Dataset,
    plan_shard: Option<usize>,
    workers: usize,
    durability: Durability,
    kill: KillSwitch,
    warm: &[JournalEntry],
    tracer: Arc<dyn Tracer>,
) -> RunResult {
    let stack = StackSpec {
        fault: Some(FaultScenario::partial_batch()),
        retries: RETRIES,
        cache: true,
        warm: warm.to_vec(),
        tracer: Arc::clone(&tracer),
        ..StackSpec::new(vec![ModelProfile::gpt4()], Arc::new(ds.kb.clone()), 0)
    }
    .build();
    let mut config = PipelineConfig::best(ds.task);
    config.workers = workers;
    config.plan_shard_size = plan_shard;
    Preprocessor::new(stack.as_ref(), config)
        .with_exec_options(ExecutionOptions {
            workers,
            degrade: true,
            ..ExecutionOptions::default()
        })
        .with_durability(durability)
        .with_tracer(tracer)
        .with_kill_switch(kill)
        .try_run(&ds.instances, &ds.few_shot)
        .expect("durable run accepted")
}

/// The sorted fingerprints of the completed requests a journal holds.
fn completed_fingerprints(path: &std::path::Path) -> Vec<u64> {
    let mut fingerprints: Vec<u64> = DurableJournal::resume(path)
        .unwrap()
        .entries
        .iter()
        .filter(|e| e.kind == TerminalKind::Completed)
        .map(|e| e.fingerprint)
        .collect();
    fingerprints.sort_unstable();
    fingerprints
}

/// Journals an uninterrupted run, then for every kill point N kills a run
/// right after its Nth journaled terminal (where a crash there would stop
/// it) and resumes it from that journal: predictions, usage, stats and
/// metrics (minus the journal counters) match the uninterrupted run, the
/// audit is clean, and the final journal holds each completed fingerprint
/// once, the same set as the uninterrupted run's. Resumes alternate
/// between one and two workers, with the cache warmed from the recovered
/// journal.
fn assert_every_kill_point_resumes(ds: &Dataset, plan_shard: Option<usize>) {
    let mode = format!("shard size {plan_shard:?}");
    let journal_at = |n: usize| temp_path(&format!("kill-{}-{n}", plan_shard.unwrap_or(0)));
    let fresh_journal =
        |n: usize| Arc::new(DurableJournal::fresh(journal_at(n), "sim-gpt-4", "kill", 0).unwrap());

    let journal = fresh_journal(0);
    let collector = Arc::new(CollectingTracer::new());
    let reference = faulted_ladder_run(
        ds,
        plan_shard,
        2,
        Durability::new().with_journal(Arc::clone(&journal)),
        KillSwitch::unarmed(),
        &[],
        Arc::clone(&collector) as Arc<dyn Tracer>,
    );
    // What makes the sweep mean something: faults were injected, the
    // ladder split a batch, and more than 2 primary requests put a shard
    // boundary inside the sweep in shards of 2 batches.
    let stats = &reference.stats;
    assert!(collector.count("fault_injected") > 0, "{mode}: no fault");
    assert!(stats.splits > 0, "{mode}: the ladder never split");
    assert!(stats.requests - stats.splits > 2, "{mode}: one shard");
    let kill_points = journal.written();
    drop(journal);
    let oracle = completed_fingerprints(&journal_at(0));
    std::fs::remove_file(journal_at(0)).ok();

    for n in 1..=kill_points {
        let label = format!("{mode} kill point {n}");
        let kill = KillSwitch::after(n);
        let durability = Durability::new().with_journal(fresh_journal(n));
        let tracer = Arc::new(NullTracer);
        faulted_ladder_run(ds, plan_shard, 2, durability, kill.clone(), &[], tracer);
        assert!(kill.fired(), "{label}: the switch never fired");

        // Resume keeps journaling into the same file, as a restarted
        // command with --resume and --journal on one file does.
        let recovered = DurableJournal::resume(journal_at(n)).unwrap();
        let durability = Durability::new()
            .with_replay(&recovered.entries, recovered.require_header().unwrap().plan)
            .with_journal(Arc::new(recovered.journal));
        let audit = Arc::new(AuditTracer::new());
        let workers = if n % 2 == 0 { 1 } else { 2 };
        let tracer = Arc::clone(&audit) as Arc<dyn Tracer>;
        let resumed = faulted_ladder_run(
            ds,
            plan_shard,
            workers,
            durability,
            KillSwitch::unarmed(),
            &recovered.entries,
            tracer,
        );
        assert_eq!(resumed.predictions, reference.predictions, "{label}");
        assert_eq!(resumed.usage, reference.usage, "{label}");
        assert_eq!(resumed.stats, reference.stats, "{label}");
        assert_eq!(
            strip_journal_counters(resumed.metrics),
            strip_journal_counters(reference.metrics.clone()),
            "{label}"
        );
        audit.assert_clean();
        let fingerprints = completed_fingerprints(&journal_at(n));
        assert!(
            fingerprints.windows(2).all(|w| w[0] != w[1]),
            "{label}: a fingerprint was billed twice"
        );
        assert_eq!(fingerprints, oracle, "{label}");
        std::fs::remove_file(journal_at(n)).ok();
    }
}

#[test]
fn every_kill_point_resumes_bit_identically_and_bills_once() {
    let ds = dataset_by_name("Adult", KILL_SCALE, 0).unwrap();
    assert_every_kill_point_resumes(&ds, None);
}

#[test]
fn every_kill_point_in_two_batch_shards_resumes_bit_identically_and_bills_once() {
    let ds = dataset_by_name("Adult", KILL_SCALE, 0).unwrap();
    assert_every_kill_point_resumes(&ds, Some(2));
}
