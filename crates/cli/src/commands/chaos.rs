//! `dprep chaos` — sweep the fault-scenario presets over a pinned ED/EM
//! workload and assert the robustness invariants online.
//!
//! For every scenario × workload the sweep runs the pipeline three times
//! with a fresh serving stack each time: a baseline (degradation off), a
//! degraded run at `--workers N`, and the same degraded run serially. It
//! then asserts, failing the command on any violation:
//!
//! 1. **Terminal coverage** — every instance reaches exactly one terminal
//!    prediction (answered or a classified failure).
//! 2. **Ledger soundness** — an [`AuditTracer`] watches every run: billed
//!    tokens reconcile across retries and splits (never double-counted),
//!    cache hits bill zero, every planned request completes or cancels
//!    exactly once.
//! 3. **Monotone degradation** — the degraded run answers at least as many
//!    instances as the baseline.
//! 4. **Determinism** — the degraded run's metrics snapshot is
//!    bit-identical at `--workers N` and `--workers 1`, so the printed
//!    report never depends on the worker count.
//!
//! The sweep stack is cache → retry → fault injection (order-independent
//! layers, so parallel dispatch stays deterministic). The circuit breaker
//! settles in plan order inside the router, so the route-outage drill
//! exercises it at every worker count.

use std::fmt::Write as _;
use std::sync::Arc;

use dprep_core::{
    Durability, ExecutionOptions, KillSwitch, PipelineConfig, Preprocessor, RunResult,
};
use dprep_datasets::{dataset_by_name, Dataset};
use dprep_llm::{
    warm_cache_store, CacheLayer, FaultLayer, FaultScenario, MiddlewareStats, ModelProfile,
    RetryLayer, SimulatedLlm,
};
use dprep_obs::{
    AuditTracer, DurableJournal, JournalEntry, MetricsRecorder, MetricsSnapshot, MultiTracer,
    TerminalKind, Tracer,
};

use crate::args::Flags;

/// Runs the command.
pub fn run(flags: &Flags) -> Result<(), String> {
    let seed = flags.seed()?;
    let workers = flags.usize_or("workers", 2)?;
    if workers == 0 {
        return Err("--workers must be at least 1".into());
    }
    let retries = flags.usize_or("retries", 2)? as u32;
    if flags.bool_or("soak", false)? {
        print!("{}", soak_drill(seed, retries)?);
        return Ok(());
    }
    if flags.bool_or("overload", false)? {
        print!("{}", overload_drill(seed, retries)?);
        return Ok(());
    }
    let scenarios: Vec<FaultScenario> = match flags.get("scenario") {
        // The hard-down route-outage preset is excluded from the default
        // single-model sweep: with no cascade to fail over to it just
        // grinds every batch through the ladder to retries-exhausted. The
        // dedicated route-outage drill below exercises it the way it is
        // meant to be used — killing a cascade's primary. Naming it with
        // --scenario still sweeps it.
        None => FaultScenario::presets()
            .into_iter()
            .filter(|s| s.name != "route-outage")
            .collect(),
        Some(name) => {
            let scenario = FaultScenario::by_name(name).ok_or_else(|| {
                let known: Vec<&str> = FaultScenario::presets().iter().map(|s| s.name).collect();
                format!("unknown scenario {name:?} (have: {})", known.join(", "))
            })?;
            vec![scenario]
        }
    };
    // The pinned workload: one error-detection table, one entity-matching
    // table, both small enough that the full sweep stays fast.
    let workloads = [
        dataset_by_name("Adult", 0.1, seed).expect("pinned dataset exists"),
        dataset_by_name("Restaurant", 2.0, seed).expect("pinned dataset exists"),
    ];

    println!("dprep chaos sweep (seed {seed}, retries {retries})");
    let mut violations: Vec<String> = Vec::new();
    for ds in &workloads {
        println!();
        println!("workload {} ({} instances)", ds.name, ds.len());
        println!(
            "{:<18} {:>9} {:>9} {:>7} {:>7} {:>8} {:>10}",
            "scenario", "answered", "degraded", "splits", "recov", "faults", "tokens"
        );
        for scenario in &scenarios {
            let audit = Arc::new(AuditTracer::new());
            let base = sweep_run(ds, scenario, seed, retries, workers, false, &audit);
            let degraded = sweep_run(ds, scenario, seed, retries, workers, true, &audit);
            let serial = sweep_run(ds, scenario, seed, retries, 1, true, &audit);
            check_invariants(
                &mut violations,
                ds,
                scenario.name,
                &base,
                &degraded,
                &serial,
                &audit,
            );
            let answered = |r: &RunResult| r.predictions.len() - r.failed_count();
            println!(
                "{:<18} {:>9} {:>9} {:>7} {:>7} {:>8} {:>10}{}",
                scenario.name,
                answered(&base.result),
                answered(&degraded.result),
                degraded.result.stats.splits,
                degraded.result.stats.split_recovered,
                degraded.faults_injected,
                degraded.result.usage.total_tokens(),
                failure_suffix(&degraded.result),
            );
        }
    }

    println!();
    print!("{}", route_outage_drill(seed, retries)?);

    println!();
    print!(
        "{}",
        kill_drill(&workloads[0], seed, retries, workers, None)?
    );
    // The same drill in shards of 2 batches: several shard boundaries fall
    // inside the kill sweep, so resume is proven bit-identical when the
    // plan is never rendered whole.
    print!(
        "{}",
        kill_drill(&workloads[0], seed, retries, workers, Some(2))?
    );

    if violations.is_empty() {
        println!();
        println!("all invariants hold: terminal coverage, ledger audit, monotone degradation, worker-count determinism");
        Ok(())
    } else {
        for v in &violations {
            eprintln!("[chaos violation] {v}");
        }
        Err(format!(
            "chaos sweep failed with {} invariant violation(s)",
            violations.len()
        ))
    }
}

/// One sweep run and the middleware fault counts its stack injected.
struct SweepRun {
    result: RunResult,
    /// Total `FaultInjected` events across all attempts, observed by a
    /// recorder on the stack's tracer (the run's own metrics snapshot only
    /// aggregates executor-emitted events).
    faults_injected: usize,
}

/// One sweep run with a fresh cache → retry → fault-injection stack.
fn sweep_run(
    ds: &Dataset,
    scenario: &FaultScenario,
    seed: u64,
    retries: u32,
    workers: usize,
    degrade: bool,
    audit: &Arc<AuditTracer>,
) -> SweepRun {
    let recorder = Arc::new(MetricsRecorder::new());
    let tracer: Arc<dyn Tracer> = Arc::new(
        MultiTracer::new()
            .with(Arc::clone(audit) as Arc<dyn Tracer>)
            .with(Arc::clone(&recorder) as Arc<dyn Tracer>),
    );
    let sim = SimulatedLlm::new(ModelProfile::gpt4(), Arc::new(ds.kb.clone())).with_seed(seed);
    let faulty = FaultLayer::scenario(sim, scenario.clone(), seed).with_tracer(Arc::clone(&tracer));
    let retried = RetryLayer::new(faulty, retries).with_tracer(Arc::clone(&tracer));
    let stack = CacheLayer::new(retried).with_tracer(Arc::clone(&tracer));
    let mut config = PipelineConfig::best(ds.task);
    config.workers = workers;
    let result = Preprocessor::new(&stack, config)
        .with_exec_options(ExecutionOptions {
            workers,
            degrade,
            ..ExecutionOptions::default()
        })
        .with_tracer(tracer)
        .run(&ds.instances, &ds.few_shot);
    let faults_injected = recorder.snapshot().faults_injected.values().sum();
    SweepRun {
        result,
        faults_injected,
    }
}

/// Checks the sweep invariants for one scenario, collecting violations.
fn check_invariants(
    violations: &mut Vec<String>,
    ds: &Dataset,
    scenario: &str,
    base: &SweepRun,
    degraded: &SweepRun,
    serial: &SweepRun,
    audit: &Arc<AuditTracer>,
) {
    let at = format!("{}/{scenario}", ds.name);
    for (label, run) in [("base", base), ("degraded", degraded)] {
        if run.result.predictions.len() != ds.len() {
            violations.push(format!(
                "{at}: {label} run produced {} predictions for {} instances",
                run.result.predictions.len(),
                ds.len()
            ));
        }
    }
    let answered = |r: &RunResult| r.predictions.len() - r.failed_count();
    if answered(&degraded.result) < answered(&base.result) {
        violations.push(format!(
            "{at}: degradation lost answers ({} -> {})",
            answered(&base.result),
            answered(&degraded.result)
        ));
    }
    if degraded.result.metrics != serial.result.metrics {
        violations.push(format!(
            "{at}: degraded metrics differ between worker counts"
        ));
    }
    if degraded.result.predictions != serial.result.predictions {
        violations.push(format!(
            "{at}: degraded predictions differ between worker counts"
        ));
    }
    if degraded.faults_injected != serial.faults_injected {
        violations.push(format!(
            "{at}: injected-fault counts differ between worker counts ({} vs {})",
            degraded.faults_injected, serial.faults_injected
        ));
    }
    for v in audit.violations() {
        violations.push(format!("{at}: audit: {v}"));
    }
}

/// Renders nonzero failure kinds as a compact suffix, or nothing.
fn failure_suffix(result: &RunResult) -> String {
    let mut out = String::new();
    for (kind, n) in result.failure_breakdown() {
        if n > 0 {
            if out.is_empty() {
                out.push_str("  [");
            } else {
                out.push_str(", ");
            }
            let _ = write!(out, "{} {}", n, kind.label());
        }
    }
    if !out.is_empty() {
        out.push(']');
    }
    out
}

/// The kill-point drill's pinned parameters: one workload under the
/// partial-batch scenario with degradation on.
struct Drill<'a> {
    ds: &'a Dataset,
    seed: u64,
    retries: u32,
    /// Streaming-planner shard size; `None` materializes the plan.
    plan_shard: Option<usize>,
}

impl Drill<'_> {
    /// One drill run with a fresh fault → retry → cache stack under the
    /// given durability, kill switch, and warm cache entries.
    fn run(
        &self,
        workers: usize,
        durability: Durability,
        kill: Option<KillSwitch>,
        warm: &[JournalEntry],
        audit: Option<&Arc<AuditTracer>>,
    ) -> Result<RunResult, String> {
        let recorder = Arc::new(MetricsRecorder::new());
        let mut multi = MultiTracer::new().with(Arc::clone(&recorder) as Arc<dyn Tracer>);
        if let Some(audit) = audit {
            multi = multi.with(Arc::clone(audit) as Arc<dyn Tracer>);
        }
        let tracer: Arc<dyn Tracer> = Arc::new(multi);
        let sim = SimulatedLlm::new(ModelProfile::gpt4(), Arc::new(self.ds.kb.clone()))
            .with_seed(self.seed);
        let faulty = FaultLayer::scenario(sim, FaultScenario::partial_batch(), self.seed)
            .with_tracer(Arc::clone(&tracer));
        let retried = RetryLayer::new(faulty, self.retries).with_tracer(Arc::clone(&tracer));
        let mut cache = CacheLayer::new(retried).with_tracer(Arc::clone(&tracer));
        if !warm.is_empty() {
            cache = cache.with_store(warm_cache_store(warm));
        }
        let mut config = PipelineConfig::best(self.ds.task);
        config.workers = workers;
        config.plan_shard_size = self.plan_shard;
        let mut preprocessor = Preprocessor::new(&cache, config)
            .with_exec_options(ExecutionOptions {
                workers,
                degrade: true,
                ..ExecutionOptions::default()
            })
            .with_durability(durability)
            .with_tracer(tracer);
        if let Some(kill) = kill {
            preprocessor = preprocessor.with_kill_switch(kill);
        }
        preprocessor.try_run(&self.ds.instances, &self.ds.few_shot)
    }
}

/// A metrics snapshot with its journal counters zeroed, so a resumed run
/// (which replays instead of writing) compares equal to the uninterrupted
/// reference on everything else.
fn strip_journal_counters(mut metrics: MetricsSnapshot) -> MetricsSnapshot {
    metrics.journal_replayed = 0;
    metrics.journal_written = 0;
    metrics.journal_truncated = 0;
    metrics
}

/// The kill-point drill: journal an uninterrupted reference run, then for
/// every kill point N in the sweep, run with a seeded [`KillSwitch`] that
/// aborts right after the Nth terminal event is journaled, resume from
/// that journal with a fresh stack, and assert the resumed run is
/// **bit-identical** to the reference — predictions, billed usage, stats,
/// and metrics (minus the journal counters) — with every fingerprint
/// billed exactly once across the kill/resume pair. Resumes alternate
/// between serial and `--workers N` to cover worker-count invariance too.
///
/// With `plan_shard` set the whole drill — reference, killed runs, and
/// resumes — runs in shards of that many batches, proving the resume
/// contract holds when the plan is consumed shard by shard instead of as
/// one shard.
fn kill_drill(
    ds: &Dataset,
    seed: u64,
    retries: u32,
    workers: usize,
    plan_shard: Option<usize>,
) -> Result<String, String> {
    let mode = match plan_shard {
        None => "one-shard".to_string(),
        Some(n) => format!("{n}-batch-shard"),
    };
    let temp = |tag: &str| {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "dprep-chaos-kill-{}-{seed}-{}-{tag}.jsonl",
            std::process::id(),
            plan_shard.map_or(0, |n| n),
        ));
        p
    };

    // Uninterrupted reference, journaled: its entry count is the number of
    // kill points, and its fingerprint set is the exactly-once oracle.
    let ref_path = temp("ref");
    let ref_journal = Arc::new(
        DurableJournal::fresh(&ref_path, "sim-gpt-4", "chaos-kill", seed)
            .map_err(|e| format!("cannot create drill journal: {e}"))?,
    );
    let drill = Drill {
        ds,
        seed,
        retries,
        plan_shard,
    };
    let reference = drill.run(
        workers,
        Durability::new().with_journal(Arc::clone(&ref_journal)),
        None,
        &[],
        None,
    )?;
    let kill_points = ref_journal.written();
    let recovered = DurableJournal::resume(&ref_path)?;
    let mut oracle: Vec<u64> = recovered
        .entries
        .iter()
        .filter(|e| e.kind == TerminalKind::Completed)
        .map(|e| e.fingerprint)
        .collect();
    oracle.sort_unstable();
    std::fs::remove_file(&ref_path).ok();

    let mut violations: Vec<String> = Vec::new();
    for n in 1..=kill_points {
        let path = temp(&n.to_string());
        let journal = Arc::new(
            DurableJournal::fresh(&path, "sim-gpt-4", "chaos-kill", seed)
                .map_err(|e| format!("cannot create drill journal: {e}"))?,
        );
        let kill = KillSwitch::after(n);
        let killed = drill.run(
            workers,
            Durability::new().with_journal(journal),
            Some(kill.clone()),
            &[],
            None,
        )?;
        drop(killed); // a crashed process would never have delivered it
        if !kill.fired() {
            violations.push(format!("kill point {n}: switch never fired"));
            std::fs::remove_file(&path).ok();
            continue;
        }
        let recovered = DurableJournal::resume(&path)?;
        // Resume keeps journaling into the same file, like a restarted
        // command with both --resume and --journal pointing at it.
        let durability = Durability::new()
            .with_replay(&recovered.entries, recovered.require_header()?.plan)
            .with_journal(Arc::new(recovered.journal));
        let audit = Arc::new(AuditTracer::new());
        let resume_workers = if n % 2 == 0 { 1 } else { workers };
        let resumed = drill.run(
            resume_workers,
            durability,
            None,
            &recovered.entries,
            Some(&audit),
        )?;
        if resumed.predictions != reference.predictions {
            violations.push(format!("kill point {n}: predictions diverge after resume"));
        }
        if resumed.usage != reference.usage {
            violations.push(format!(
                "kill point {n}: billed usage diverges after resume ({} vs {} tokens)",
                resumed.usage.total_tokens(),
                reference.usage.total_tokens()
            ));
        }
        if resumed.stats != reference.stats {
            violations.push(format!("kill point {n}: exec stats diverge after resume"));
        }
        if strip_journal_counters(resumed.metrics.clone())
            != strip_journal_counters(reference.metrics.clone())
        {
            violations.push(format!("kill point {n}: metrics diverge after resume"));
        }
        for v in audit.violations() {
            violations.push(format!("kill point {n}: audit: {v}"));
        }
        // Exactly-once billing: the final journal holds each completed
        // fingerprint once, and the set matches the reference run's.
        let finished = DurableJournal::resume(&path)?;
        let mut fingerprints: Vec<u64> = finished
            .entries
            .iter()
            .filter(|e| e.kind == TerminalKind::Completed)
            .map(|e| e.fingerprint)
            .collect();
        fingerprints.sort_unstable();
        if fingerprints.windows(2).any(|w| w[0] == w[1]) {
            violations.push(format!("kill point {n}: a fingerprint was billed twice"));
        }
        if fingerprints != oracle {
            violations.push(format!(
                "kill point {n}: journaled fingerprint set diverges from the reference"
            ));
        }
        std::fs::remove_file(&path).ok();
    }

    if violations.is_empty() {
        Ok(format!(
            "kill drill ({}, partial-batch, degrade on, {mode} plan): {kill_points} kill \
             point(s), every resume bit-identical, 0 double-billed fingerprints\n",
            ds.name
        ))
    } else {
        Err(format!(
            "kill drill ({mode} plan) failed: {}",
            violations.join("; ")
        ))
    }
}

/// The route-outage drill: a `sim-gpt-3.5 -> sim-gpt-4` cascade whose
/// primary route is hard-down (every request times out, and keeps timing
/// out past any retry budget) while the escalation route stays calm.
/// Asserts:
///
/// 1. **Zero unserved requests** — no completion carries a fault; every
///    instance that a calm run answers is still answered.
/// 2. **Full failover** — every served leg is the secondary's; the dead
///    primary serves none.
/// 3. **Breaker engagement** — after the failure threshold the primary's
///    legs short (billed zero) instead of paying for doomed dispatches;
///    only periodic probes bill.
/// 4. **Per-route ledger reconciliation** — route-attributed tokens and
///    cost sum exactly to the run's billed totals, and the shorted legs
///    bill nothing.
/// 5. **Worker-count determinism** — predictions and the metrics snapshot
///    (route table included) are bit-identical at `--workers 1`, `2`,
///    and `4`, with the audit clean at each.
fn route_outage_drill(seed: u64, retries: u32) -> Result<String, String> {
    let ds = dataset_by_name("Adult", 0.1, seed).expect("pinned dataset exists");
    let routes = vec!["sim-gpt-3.5".to_string(), "sim-gpt-4".to_string()];
    let run = |workers: usize| -> Result<(RunResult, MetricsSnapshot), String> {
        let audit = Arc::new(AuditTracer::new());
        let recorder = Arc::new(MetricsRecorder::new());
        let tracer: Arc<dyn Tracer> = Arc::new(
            MultiTracer::new()
                .with(Arc::clone(&audit) as Arc<dyn Tracer>)
                .with(Arc::clone(&recorder) as Arc<dyn Tracer>),
        );
        let router = crate::commands::build_router(
            &routes,
            None,
            Arc::new(ds.kb.clone()),
            seed,
            retries,
            &MiddlewareStats::shared(),
            Some((0, FaultScenario::route_outage())),
        )?;
        let mut config = PipelineConfig::best(ds.task);
        config.workers = workers;
        config.routes = routes.clone();
        let result = Preprocessor::new(&router, config)
            .with_exec_options(ExecutionOptions {
                workers,
                ..ExecutionOptions::default()
            })
            .with_tracer(tracer)
            .try_run(&ds.instances, &ds.few_shot)?;
        if !audit.is_clean() {
            return Err(format!(
                "route-outage drill failed the ledger audit at workers {workers}: {}",
                audit.violations().join("; ")
            ));
        }
        Ok((result, recorder.snapshot()))
    };

    let (reference, metrics) = run(1)?;
    let mut violations: Vec<String> = Vec::new();
    if reference.stats.faulted != 0 {
        violations.push(format!(
            "{} completion(s) faulted — the cascade left requests unserved",
            reference.stats.faulted
        ));
    }
    let primary = metrics
        .routes
        .get("sim-gpt-3.5")
        .cloned()
        .unwrap_or_default();
    let secondary = metrics.routes.get("sim-gpt-4").cloned().unwrap_or_default();
    if primary.served != 0 {
        violations.push(format!("dead primary served {} leg(s)", primary.served));
    }
    if secondary.served != metrics.fresh_requests {
        violations.push(format!(
            "secondary served {} of {} fresh request(s)",
            secondary.served, metrics.fresh_requests
        ));
    }
    if primary.shorted == 0 {
        violations.push("breaker never shorted the dead primary".to_string());
    }
    let route_prompt = primary.prompt_tokens + secondary.prompt_tokens;
    let route_completion = primary.completion_tokens + secondary.completion_tokens;
    if route_prompt != metrics.prompt_tokens || route_completion != metrics.completion_tokens {
        violations.push(format!(
            "route-attributed tokens ({route_prompt}p/{route_completion}c) diverge from billed \
             totals ({}p/{}c)",
            metrics.prompt_tokens, metrics.completion_tokens
        ));
    }
    if (primary.cost_usd + secondary.cost_usd - metrics.cost_usd).abs() > 1e-6 {
        violations.push(format!(
            "route-attributed cost ${:.6} diverges from billed ${:.6}",
            primary.cost_usd + secondary.cost_usd,
            metrics.cost_usd
        ));
    }
    for workers in [2usize, 4] {
        let (result, snapshot) = run(workers)?;
        if result.predictions != reference.predictions {
            violations.push(format!("predictions diverge at workers {workers}"));
        }
        if snapshot != metrics {
            violations.push(format!("metrics diverge at workers {workers}"));
        }
    }

    if violations.is_empty() {
        Ok(format!(
            "route-outage drill ({}, {} -> {}): {} request(s) all served by the secondary, \
             {} probe(s) billed on the dead primary, {} shorted, bit-identical at workers 1/2/4\n",
            ds.name,
            routes[0],
            routes[1],
            metrics.fresh_requests,
            primary.escalated,
            primary.shorted,
        ))
    } else {
        Err(format!(
            "route-outage drill failed: {}",
            violations.join("; ")
        ))
    }
}

/// The serving soak drill behind `--soak on`: an ephemeral daemon running
/// the production dataset handler, exercised the way a long-lived
/// deployment would be.
///
/// 1. **Tenant isolation under faults** — three tenants submit
///    concurrently: one under a fault scenario, one clean, one with a
///    token budget small enough to trip mid-run. The tripped tenant must
///    report `budget_tripped` while the other two stay bit-identical to
///    their one-shot reference runs.
/// 2. **Kill + resume, exactly once** — a journaled job is killed after
///    its Nth terminal, then resubmitted with the same `journal_key`: the
///    resumed reply must replay the journal, match the uninterrupted
///    fingerprint, and bill the uninterrupted total exactly once.
/// 3. **Accounting reconciliation** — the `stats` ledger totals must
///    equal the sum of every reply's `tokens_billed`, and the `metrics`
///    Prometheus text must carry per-tenant series.
/// 4. **Clean shutdown** — the `shutdown` op stops the accept loop and
///    the daemon thread exits without error.
fn soak_drill(seed: u64, retries: u32) -> Result<String, String> {
    use std::io::BufReader;
    use std::net::TcpStream;

    use dprep_core::serve::{roundtrip, Daemon, JobScheduler};
    use dprep_core::{ExecutionOptions, TenantLedger};
    use dprep_obs::Json;

    use super::serve::{dataset_handler, HandlerDefaults};

    let journal_dir =
        std::env::temp_dir().join(format!("dprep-chaos-soak-{}-{seed}", std::process::id()));
    std::fs::create_dir_all(&journal_dir)
        .map_err(|e| format!("cannot create soak journal dir: {e}"))?;
    let defaults = HandlerDefaults {
        seed,
        retries,
        plan_shard_size: 2,
        journal_dir: Some(journal_dir.clone()),
        routes: Vec::new(),
        escalate_on: None,
    };
    let handler = dataset_handler(defaults.clone(), None);

    // A `submit` body. `journal_key: None` jobs run unjournaled, so the
    // reference runs below see the exact same workload the daemon runs.
    let body = |tenant: &str, dataset: &str, extra: Vec<(&str, Json)>| -> Json {
        let mut fields = vec![
            ("op".to_string(), Json::Str("submit".to_string())),
            ("tenant".to_string(), Json::Str(tenant.to_string())),
            ("dataset".to_string(), Json::Str(dataset.to_string())),
            ("scale".to_string(), Json::Num(0.5)),
            ("workers".to_string(), Json::Num(2.0)),
            ("plan_shard_size".to_string(), Json::Num(2.0)),
        ];
        fields.extend(extra.into_iter().map(|(k, v)| (k.to_string(), v)));
        Json::Obj(fields)
    };
    let str_field = |reply: &Json, key: &str| -> Result<String, String> {
        reply
            .get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("soak reply has no {key:?}: {}", reply.to_json()))
    };
    let num_field = |reply: &Json, key: &str| -> Result<usize, String> {
        reply
            .get(key)
            .and_then(Json::as_usize)
            .ok_or_else(|| format!("soak reply has no {key:?}: {}", reply.to_json()))
    };

    // One-shot references through the same handler, outside the daemon: an
    // idle scheduler grants every shard turn immediately.
    let reference = |tenant: &str, dataset: &str, extra: Vec<(&str, Json)>| {
        let scheduler = JobScheduler::new(TenantLedger::new());
        let request = body(tenant, dataset, extra);
        let (_, outcome) = scheduler
            .run_job(
                tenant,
                ExecutionOptions {
                    workers: 2,
                    ..ExecutionOptions::default()
                },
                |grant| handler(&request, grant),
            )
            .map_err(|e| e.to_string())?;
        let reply = Json::Obj(outcome.reply.to_vec());
        Ok::<(String, usize), String>((str_field(&reply, "fingerprint")?, outcome.tokens_billed))
    };
    let faulted = vec![("scenario", Json::Str("partial-batch".to_string()))];
    let (alpha_fp, _) = reference("alpha", "Restaurant", faulted.clone())?;
    let (beta_fp, beta_tokens) = reference("beta", "Adult", vec![])?;
    let (delta_fp, delta_tokens) = reference("delta", "Adult", vec![])?;

    // Tenant gamma gets a budget that trips partway through an Adult run.
    let ledger = TenantLedger::new();
    ledger.set_budget("gamma", Some(beta_tokens / 2));
    let daemon = Daemon::bind("127.0.0.1:0", JobScheduler::new(ledger), handler)
        .map_err(|e| format!("cannot bind soak daemon: {e}"))?;
    let addr = daemon.local_addr();

    let mut lines: Vec<String> = Vec::new();
    let outcome: Result<(), String> = std::thread::scope(|scope| {
        let server = scope.spawn(|| daemon.run());
        let submit = |request: &Json| -> Result<Json, String> {
            let mut stream =
                TcpStream::connect(addr).map_err(|e| format!("soak connect failed: {e}"))?;
            let mut reader = BufReader::new(
                stream
                    .try_clone()
                    .map_err(|e| format!("soak clone failed: {e}"))?,
            );
            roundtrip(&mut stream, &mut reader, request)
        };

        // Phase 1+3 setup: three tenants in flight at once.
        let (alpha, beta, gamma) = std::thread::scope(|jobs| {
            let a = jobs.spawn(|| submit(&body("alpha", "Restaurant", faulted.clone())));
            let b = jobs.spawn(|| submit(&body("beta", "Adult", vec![])));
            let g = jobs.spawn(|| submit(&body("gamma", "Adult", vec![])));
            (
                a.join().expect("alpha client"),
                b.join().expect("beta client"),
                g.join().expect("gamma client"),
            )
        });
        let (alpha, beta, gamma) = (alpha?, beta?, gamma?);
        if str_field(&alpha, "fingerprint")? != alpha_fp {
            return Err("soak: faulted tenant alpha diverged from its one-shot run".into());
        }
        if str_field(&beta, "fingerprint")? != beta_fp {
            return Err("soak: tenant beta diverged from its one-shot run".into());
        }
        if gamma.get("budget_tripped") != Some(&Json::Bool(true)) {
            return Err(format!(
                "soak: tenant gamma should have tripped its budget: {}",
                gamma.to_json()
            ));
        }
        lines.push(format!(
            "soak phase 1: 3 concurrent tenants; alpha (partial-batch faults) and beta \
             bit-identical to one-shot runs; gamma tripped its {}-token budget",
            beta_tokens / 2
        ));

        // Phase 2: kill + resume with exactly-once billing.
        let killed = submit(&body(
            "delta",
            "Adult",
            vec![
                ("journal_key", Json::Str("soak".to_string())),
                ("kill_after", Json::Num(3.0)),
            ],
        ))?;
        if killed.get("killed") != Some(&Json::Bool(true)) {
            return Err(format!(
                "soak: kill switch never fired: {}",
                killed.to_json()
            ));
        }
        let resumed = submit(&body(
            "delta",
            "Adult",
            vec![("journal_key", Json::Str("soak".to_string()))],
        ))?;
        if str_field(&resumed, "journal")? != "resumed" {
            return Err(format!(
                "soak: resubmit did not resume its journal: {}",
                resumed.to_json()
            ));
        }
        let replayed = num_field(&resumed, "replayed")?;
        if replayed == 0 {
            return Err("soak: resumed job replayed nothing".into());
        }
        if str_field(&resumed, "fingerprint")? != delta_fp {
            return Err("soak: resumed job diverged from the uninterrupted run".into());
        }
        if num_field(&resumed, "tokens_billed")? != delta_tokens {
            return Err(format!(
                "soak: resumed job billed {} tokens, uninterrupted run billed {delta_tokens}",
                num_field(&resumed, "tokens_billed")?
            ));
        }
        lines.push(format!(
            "soak phase 2: killed after 3 terminals, resumed from its journal \
             ({replayed} replayed), bit-identical and billed exactly once"
        ));

        // Phase 3: the ledger and the replies agree to the token.
        let expected: usize = [&alpha, &beta, &gamma, &killed, &resumed]
            .into_iter()
            .map(|r| num_field(r, "tokens_billed"))
            .sum::<Result<usize, String>>()?;
        let stats = submit(&Json::Obj(vec![(
            "op".to_string(),
            Json::Str("stats".to_string()),
        )]))?;
        let ledger_total: usize = match stats.get("tenants") {
            Some(Json::Arr(rows)) => rows
                .iter()
                .filter_map(|r| r.get("tokens_billed").and_then(Json::as_usize))
                .sum(),
            _ => return Err(format!("soak: stats has no tenants: {}", stats.to_json())),
        };
        if ledger_total != expected {
            return Err(format!(
                "soak: ledger bills {ledger_total} tokens, replies bill {expected}"
            ));
        }
        let metrics = submit(&Json::Obj(vec![(
            "op".to_string(),
            Json::Str("metrics".to_string()),
        )]))?;
        let prom = str_field(&metrics, "prom")?;
        for tenant in ["alpha", "beta", "gamma", "delta"] {
            let needle = format!("{{tenant=\"{tenant}\"}}");
            if !prom.contains(&needle) {
                return Err(format!("soak: prom exposition has no series for {tenant}"));
            }
        }
        lines.push(format!(
            "soak phase 3: ledger, replies, and prom series reconcile at {ledger_total} tokens"
        ));

        // Phase 4: clean shutdown.
        submit(&Json::Obj(vec![(
            "op".to_string(),
            Json::Str("shutdown".to_string()),
        )]))?;
        server
            .join()
            .expect("soak daemon thread")
            .map_err(|e| format!("soak daemon exited uncleanly: {e}"))?;
        lines.push("soak phase 4: shutdown acknowledged, daemon thread exited cleanly".to_string());
        Ok(())
    });
    std::fs::remove_dir_all(&journal_dir).ok();
    outcome?;
    Ok(format!(
        "dprep chaos soak (seed {seed})\n{}\n",
        lines.join("\n")
    ))
}

/// The overload drill behind `--overload on`: a storm at 4× the admission
/// capacity against a policy-bounded daemon, then deadline propagation,
/// then a mid-flight drain with checkpoint/resume. Asserts:
///
/// 1. **Bounded admission under storm** — with `max_inflight 2, max_queued
///    2, tenant_inflight 1`, 16 concurrent submits either complete
///    bit-identically to the one-shot reference or shed with
///    `rejected: "overloaded"` and a positive `retry_after`; admitted +
///    shed account for every submit, and the admitted wall-clock p95 stays
///    bounded (the queue is bounded, so no job waits behind 12 others).
/// 2. **Shed jobs bill zero** — the ledger's token total equals the sum of
///    the admitted replies' `tokens_billed` exactly; per-tenant
///    `jobs_shed` counters account for every shed; an [`AuditTracer`] on
///    the scheduler proves no shed job id ever completes or bills.
/// 3. **Deadline propagation** — a `deadline_ms` submit trips its budget
///    mid-run and returns the same deterministic-partial fingerprint as a
///    one-shot run under the same deadline; a dead-on-arrival deadline
///    sheds with `rejected: "deadline"` before any model work.
/// 4. **Drain checkpoints and resumes exactly once** — two journaled jobs
///    are drained mid-flight: both checkpoint (`killed: true`), a submit
///    during the drain sheds with `rejected: "draining"`, and the daemon
///    exits on its own once quiesced. A fresh daemon then resumes both
///    journals at workers 1, 2, and 4 — every resume bit-identical to the
///    uninterrupted run, billed the uninterrupted total, with no journal
///    fingerprint recorded twice.
fn overload_drill(seed: u64, retries: u32) -> Result<String, String> {
    use std::io::BufReader;
    use std::net::TcpStream;
    use std::time::Instant;

    use dprep_core::serve::{roundtrip, Daemon, JobScheduler};
    use dprep_core::{OverloadPolicy, TenantLedger};
    use dprep_obs::Json;

    use super::serve::{dataset_handler, HandlerDefaults};

    let journal_dir = std::env::temp_dir().join(format!(
        "dprep-chaos-overload-{}-{seed}",
        std::process::id()
    ));
    std::fs::create_dir_all(&journal_dir)
        .map_err(|e| format!("cannot create overload journal dir: {e}"))?;
    let defaults = HandlerDefaults {
        seed,
        retries,
        plan_shard_size: 2,
        journal_dir: Some(journal_dir.clone()),
        routes: Vec::new(),
        escalate_on: None,
    };
    let handler = dataset_handler(defaults.clone(), None);

    let body = |tenant: &str, dataset: &str, extra: Vec<(&str, Json)>| -> Json {
        let mut fields = vec![
            ("op".to_string(), Json::Str("submit".to_string())),
            ("tenant".to_string(), Json::Str(tenant.to_string())),
            ("dataset".to_string(), Json::Str(dataset.to_string())),
            ("scale".to_string(), Json::Num(0.5)),
            ("workers".to_string(), Json::Num(2.0)),
            ("plan_shard_size".to_string(), Json::Num(2.0)),
        ];
        fields.extend(extra.into_iter().map(|(k, v)| (k.to_string(), v)));
        Json::Obj(fields)
    };
    let str_field = |reply: &Json, key: &str| -> Result<String, String> {
        reply
            .get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("overload reply has no {key:?}: {}", reply.to_json()))
    };
    let num_field = |reply: &Json, key: &str| -> Result<usize, String> {
        reply
            .get(key)
            .and_then(Json::as_usize)
            .ok_or_else(|| format!("overload reply has no {key:?}: {}", reply.to_json()))
    };

    // One-shot references through the same handler, outside any daemon.
    let reference = |tenant: &str,
                     dataset: &str,
                     deadline: Option<f64>|
     -> Result<(String, usize, bool), String> {
        let scheduler = JobScheduler::new(TenantLedger::new());
        let request = body(tenant, dataset, vec![]);
        let (_, outcome) = scheduler
            .run_job(
                tenant,
                ExecutionOptions {
                    workers: 2,
                    deadline_secs: deadline,
                    ..ExecutionOptions::default()
                },
                |grant| handler(&request, grant),
            )
            .map_err(|e| e.to_string())?;
        let reply = Json::Obj(outcome.reply.to_vec());
        Ok((
            str_field(&reply, "fingerprint")?,
            outcome.tokens_billed,
            outcome.budget_tripped,
        ))
    };
    let (storm_fp, storm_tokens, _) = reference("storm", "Restaurant", None)?;
    let deadline_secs = 1.0;
    let (deadline_fp, deadline_tokens, deadline_tripped) =
        reference("tight", "Restaurant", Some(deadline_secs))?;
    if !deadline_tripped {
        return Err(format!(
            "overload drill: the {deadline_secs}s reference deadline never tripped — \
             the deadline phase would be vacuous"
        ));
    }
    let (adult_fp, adult_tokens, _) = reference("resume", "Adult", None)?;

    let submit_to = |addr: std::net::SocketAddr, request: &Json| -> Result<Json, String> {
        let mut stream =
            TcpStream::connect(addr).map_err(|e| format!("overload connect failed: {e}"))?;
        let mut reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| format!("overload clone failed: {e}"))?,
        );
        roundtrip(&mut stream, &mut reader, request)
    };

    let mut lines: Vec<String> = Vec::new();

    // ---- Phases 1–3: the storm daemon (bounded admission + deadlines).
    let audit = Arc::new(AuditTracer::new());
    let policy = OverloadPolicy {
        max_inflight: Some(2),
        max_queued: Some(2),
        tenant_inflight: Some(1),
        default_deadline_secs: None,
    };
    let capacity = 4; // 2 in flight + 2 queued
    let storm = 4 * capacity;
    let daemon = Daemon::bind(
        "127.0.0.1:0",
        JobScheduler::new(TenantLedger::new())
            .with_policy(policy)
            .with_tracer(Arc::clone(&audit) as Arc<dyn Tracer>),
        Arc::clone(&handler),
    )
    .map_err(|e| format!("cannot bind overload daemon: {e}"))?;
    let addr = daemon.local_addr();

    let outcome: Result<(), String> = std::thread::scope(|scope| {
        let server = scope.spawn(|| daemon.run());

        // Phase 1: the storm. 16 concurrent submits, 4 tenants × 4 jobs,
        // against a capacity of 4.
        let replies: Vec<(Result<Json, String>, f64)> = std::thread::scope(|jobs| {
            let handles: Vec<_> = (0..storm)
                .map(|i| {
                    let tenant = format!("storm-{}", i % 4);
                    jobs.spawn(move || {
                        let started = Instant::now();
                        let reply = submit_to(addr, &body(&tenant, "Restaurant", vec![]));
                        (reply, started.elapsed().as_secs_f64())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("storm client"))
                .collect()
        });
        let mut admitted_walls: Vec<f64> = Vec::new();
        let mut admitted_count = 0usize;
        let mut shed_count = 0usize;
        let mut billed_by_replies = 0usize;
        for (reply, wall) in replies {
            let reply = reply?;
            if reply.get("ok") == Some(&Json::Bool(true)) {
                if str_field(&reply, "fingerprint")? != storm_fp {
                    return Err("overload: an admitted storm job diverged from its \
                                one-shot run"
                        .into());
                }
                if num_field(&reply, "tokens_billed")? != storm_tokens {
                    return Err("overload: an admitted storm job billed a different \
                                total than its one-shot run"
                        .into());
                }
                billed_by_replies += storm_tokens;
                admitted_walls.push(wall);
                admitted_count += 1;
            } else {
                if str_field(&reply, "rejected")? != "overloaded" {
                    return Err(format!(
                        "overload: a storm shed was not \"overloaded\": {}",
                        reply.to_json()
                    ));
                }
                let retry_after = reply
                    .get("retry_after")
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0);
                if retry_after <= 0.0 {
                    return Err(format!(
                        "overload: a shed carried no positive retry_after: {}",
                        reply.to_json()
                    ));
                }
                shed_count += 1;
            }
        }
        if admitted_count + shed_count != storm {
            return Err(format!(
                "overload: {admitted_count} admitted + {shed_count} shed != {storm} submitted"
            ));
        }
        if admitted_count < 2 || shed_count == 0 {
            return Err(format!(
                "overload: the storm did not exercise the gate \
                 ({admitted_count} admitted, {shed_count} shed)"
            ));
        }
        admitted_walls.sort_by(|a, b| a.partial_cmp(b).expect("finite walls"));
        let p95 = admitted_walls
            [((admitted_walls.len() as f64 * 0.95).ceil() as usize).saturating_sub(1)];
        if p95 > 120.0 {
            return Err(format!(
                "overload: admitted p95 wall latency unbounded at {p95:.1}s"
            ));
        }
        lines.push(format!(
            "overload phase 1: {storm} submits at 4x capacity -> {admitted_count} admitted \
             (bit-identical, p95 {p95:.2}s), {shed_count} shed with retry_after hints"
        ));

        // Phase 2: shed jobs billed exactly zero — the ledger total is the
        // admitted replies' total, and every shed shows up per-tenant.
        let stats = submit_to(
            addr,
            &Json::Obj(vec![("op".to_string(), Json::Str("stats".to_string()))]),
        )?;
        let rows = match stats.get("tenants") {
            Some(Json::Arr(rows)) => rows.as_slice(),
            _ => {
                return Err(format!(
                    "overload: stats has no tenants: {}",
                    stats.to_json()
                ))
            }
        };
        let ledger_total: usize = rows
            .iter()
            .filter_map(|r| r.get("tokens_billed").and_then(Json::as_usize))
            .sum();
        if ledger_total != billed_by_replies {
            return Err(format!(
                "overload: ledger bills {ledger_total} tokens but admitted replies bill \
                 {billed_by_replies} — shed jobs were not free"
            ));
        }
        let shed_by_ledger: usize = rows
            .iter()
            .filter_map(|r| r.get("jobs_shed").and_then(Json::as_usize))
            .sum();
        if shed_by_ledger != shed_count {
            return Err(format!(
                "overload: ledger counts {shed_by_ledger} shed job(s), clients saw {shed_count}"
            ));
        }
        lines.push(format!(
            "overload phase 2: {shed_count} shed jobs billed exactly 0 tokens \
             (ledger reconciles at {ledger_total})"
        ));

        // Phase 3: deadlines. A tight deadline trips deterministically; a
        // dead-on-arrival one sheds before any model work.
        let tight = submit_to(
            addr,
            &body(
                "tight",
                "Restaurant",
                vec![("deadline_ms", Json::Num(deadline_secs * 1000.0))],
            ),
        )?;
        if tight.get("budget_tripped") != Some(&Json::Bool(true)) {
            return Err(format!(
                "overload: the {deadline_secs}s deadline never tripped: {}",
                tight.to_json()
            ));
        }
        if str_field(&tight, "fingerprint")? != deadline_fp
            || num_field(&tight, "tokens_billed")? != deadline_tokens
        {
            return Err("overload: deadline partials diverge from the one-shot \
                        run under the same deadline"
                .into());
        }
        let dead = submit_to(
            addr,
            &body("tight", "Restaurant", vec![("deadline_ms", Json::Num(0.0))]),
        )?;
        if str_field(&dead, "rejected")? != "deadline" {
            return Err(format!(
                "overload: a dead-on-arrival deadline was not shed: {}",
                dead.to_json()
            ));
        }
        lines.push(format!(
            "overload phase 3: {deadline_secs}s deadline tripped with deterministic \
             partials; 0s deadline shed at admission"
        ));

        submit_to(
            addr,
            &Json::Obj(vec![("op".to_string(), Json::Str("shutdown".to_string()))]),
        )?;
        server
            .join()
            .expect("overload daemon thread")
            .map_err(|e| format!("overload daemon exited uncleanly: {e}"))?;
        Ok(())
    });
    outcome?;
    if !audit.is_clean() {
        std::fs::remove_dir_all(&journal_dir).ok();
        return Err(format!(
            "overload drill failed the scheduler audit: {}",
            audit.violations().join("; ")
        ));
    }

    // ---- Phase 4: mid-flight drain with checkpoint, then resume.
    let drain_audit = Arc::new(AuditTracer::new());
    let daemon = Daemon::bind(
        "127.0.0.1:0",
        JobScheduler::new(TenantLedger::new())
            .with_tracer(Arc::clone(&drain_audit) as Arc<dyn Tracer>),
        Arc::clone(&handler),
    )
    .map_err(|e| format!("cannot bind drain daemon: {e}"))?;
    let addr = daemon.local_addr();
    let outcome: Result<(usize, usize), String> = std::thread::scope(|scope| {
        let server = scope.spawn(|| daemon.run());
        let jobs: Vec<_> = [("ja", "drain-a"), ("jb", "drain-b")]
            .into_iter()
            .map(|(tenant, key)| {
                scope.spawn(move || {
                    submit_to(
                        addr,
                        &body(
                            tenant,
                            "Adult",
                            vec![("journal_key", Json::Str(key.to_string()))],
                        ),
                    )
                })
            })
            .collect();
        // Wait until both jobs hold slots, then drain mid-flight. The
        // drain and the during-drain shed share one connection so the
        // shed lands before the daemon can quiesce and close.
        let deadline = Instant::now() + std::time::Duration::from_secs(30);
        loop {
            let ping = submit_to(
                addr,
                &Json::Obj(vec![("op".to_string(), Json::Str("ping".to_string()))]),
            )?;
            if ping.get("active_jobs") == Some(&Json::Num(2.0)) {
                break;
            }
            if Instant::now() > deadline {
                return Err("overload: journaled jobs never reached in-flight".into());
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let mut stream =
            TcpStream::connect(addr).map_err(|e| format!("overload connect failed: {e}"))?;
        let mut reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| format!("overload clone failed: {e}"))?,
        );
        let drained = roundtrip(
            &mut stream,
            &mut reader,
            &Json::Obj(vec![("op".to_string(), Json::Str("drain".to_string()))]),
        )?;
        if drained.get("state") != Some(&Json::Str("draining".to_string())) {
            return Err(format!(
                "overload: drain op did not enter draining: {}",
                drained.to_json()
            ));
        }
        let refused = roundtrip(
            &mut stream,
            &mut reader,
            &body("late", "Restaurant", vec![]),
        )?;
        if str_field(&refused, "rejected")? != "draining" {
            return Err(format!(
                "overload: a submit during the drain was not shed as draining: {}",
                refused.to_json()
            ));
        }
        drop(reader);
        drop(stream);
        let mut checkpointed = 0usize;
        let mut partial_tokens = 0usize;
        for job in jobs {
            let reply = job.join().expect("drained client")?;
            if reply.get("ok") != Some(&Json::Bool(true)) {
                return Err(format!(
                    "overload: a drained job failed outright: {}",
                    reply.to_json()
                ));
            }
            if reply.get("killed") == Some(&Json::Bool(true)) {
                checkpointed += 1;
            }
            partial_tokens += num_field(&reply, "tokens_billed")?;
        }
        if checkpointed == 0 {
            return Err("overload: the drain checkpointed neither in-flight job".into());
        }
        // No shutdown op: a quiesced drain closes the daemon on its own.
        server
            .join()
            .expect("drain daemon thread")
            .map_err(|e| format!("drain daemon exited uncleanly: {e}"))?;
        Ok((checkpointed, partial_tokens))
    });
    let (checkpointed, partial_tokens) = match outcome {
        Ok(pair) => pair,
        Err(e) => {
            std::fs::remove_dir_all(&journal_dir).ok();
            return Err(e);
        }
    };
    if !drain_audit.is_clean() {
        std::fs::remove_dir_all(&journal_dir).ok();
        return Err(format!(
            "overload drill failed the drain audit: {}",
            drain_audit.violations().join("; ")
        ));
    }
    lines.push(format!(
        "overload phase 4: drain mid-flight checkpointed {checkpointed}/2 journaled job(s) \
         ({partial_tokens} partial tokens billed), shed a late submit as draining, \
         daemon closed itself once quiesced"
    ));

    // ---- Phase 5: resume the checkpointed journals at workers 1/2/4,
    // bit-identical and billed exactly once.
    let resume_audit = Arc::new(AuditTracer::new());
    let daemon = Daemon::bind(
        "127.0.0.1:0",
        JobScheduler::new(TenantLedger::new())
            .with_tracer(Arc::clone(&resume_audit) as Arc<dyn Tracer>),
        Arc::clone(&handler),
    )
    .map_err(|e| format!("cannot bind resume daemon: {e}"))?;
    let addr = daemon.local_addr();
    let outcome: Result<usize, String> = std::thread::scope(|scope| {
        let server = scope.spawn(|| daemon.run());
        let mut resumes = 0usize;
        for (tenant, key) in [("ja", "drain-a"), ("jb", "drain-b")] {
            for workers in [1usize, 2, 4] {
                let resumed = submit_to(
                    addr,
                    &body(
                        tenant,
                        "Adult",
                        vec![
                            ("journal_key", Json::Str(key.to_string())),
                            ("workers", Json::Num(workers as f64)),
                        ],
                    ),
                )?;
                if str_field(&resumed, "journal")? != "resumed" {
                    return Err(format!(
                        "overload: {tenant}/{key} did not resume its journal at \
                         workers {workers}: {}",
                        resumed.to_json()
                    ));
                }
                if str_field(&resumed, "fingerprint")? != adult_fp {
                    return Err(format!(
                        "overload: {tenant}/{key} resumed at workers {workers} diverges \
                         from the uninterrupted run"
                    ));
                }
                if num_field(&resumed, "tokens_billed")? != adult_tokens {
                    return Err(format!(
                        "overload: {tenant}/{key} resumed at workers {workers} billed {} \
                         tokens, uninterrupted run billed {adult_tokens}",
                        num_field(&resumed, "tokens_billed")?
                    ));
                }
                resumes += 1;
            }
        }
        submit_to(
            addr,
            &Json::Obj(vec![("op".to_string(), Json::Str("shutdown".to_string()))]),
        )?;
        server
            .join()
            .expect("resume daemon thread")
            .map_err(|e| format!("resume daemon exited uncleanly: {e}"))?;
        Ok(resumes)
    });
    let resumes = match outcome {
        Ok(n) => n,
        Err(e) => {
            std::fs::remove_dir_all(&journal_dir).ok();
            return Err(e);
        }
    };
    if !resume_audit.is_clean() {
        std::fs::remove_dir_all(&journal_dir).ok();
        return Err(format!(
            "overload drill failed the resume audit: {}",
            resume_audit.violations().join("; ")
        ));
    }
    // Exactly-once at the journal level: no completed fingerprint appears
    // twice in either job's final journal.
    for (tenant, key) in [("ja", "drain-a"), ("jb", "drain-b")] {
        let path = journal_dir.join(format!("{tenant}-{key}.jsonl"));
        let finished = DurableJournal::resume(&path)
            .map_err(|e| format!("overload: cannot inspect {}: {e}", path.display()))?;
        let mut fingerprints: Vec<u64> = finished
            .entries
            .iter()
            .filter(|e| e.kind == TerminalKind::Completed)
            .map(|e| e.fingerprint)
            .collect();
        fingerprints.sort_unstable();
        if fingerprints.windows(2).any(|w| w[0] == w[1]) {
            std::fs::remove_dir_all(&journal_dir).ok();
            return Err(format!(
                "overload: {tenant}/{key} journaled a fingerprint twice"
            ));
        }
    }
    lines.push(format!(
        "overload phase 5: {resumes} resume(s) across workers 1/2/4 bit-identical to the \
         uninterrupted run, every journal fingerprint billed exactly once"
    ));
    std::fs::remove_dir_all(&journal_dir).ok();
    Ok(format!(
        "dprep chaos overload (seed {seed})\n{}\n",
        lines.join("\n")
    ))
}
