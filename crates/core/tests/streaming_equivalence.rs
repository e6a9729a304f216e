//! Streaming-planner determinism: a run through `PlanStream` +
//! `Executor::try_run_stream` must be bit-identical to the materialized
//! `ExecutionPlan` + `Executor::try_run` path at every shard size and worker
//! count — same predictions, usage totals, serving counters, metrics
//! snapshot and journal bytes, with the degradation ladder on and under a
//! budget that trips mid-ladder. Kill-point drills prove that a streaming
//! run resumed from a partial journal, at another shard size, reproduces
//! the uninterrupted run exactly.

use std::sync::Arc;

use dprep_core::exec::{ExecutionOptions, ExecutionPlan};
use dprep_core::{
    Durability, Executor, KillSwitch, PipelineConfig, PlanStream, Prediction, Preprocessor,
    RunResult,
};
use dprep_llm::{ChatModel, ChatRequest, ChatResponse, Usage};
use dprep_obs::{AuditTracer, CollectingTracer, DurableJournal, Tracer};
use dprep_prompt::{Task, TaskInstance};
use dprep_tabular::{Record, Schema, Value};

/// Answers every question except one per multi-question batch (steering some
/// batches into the degradation ladder when it is enabled), billing fixed
/// per-attempt usage so budget arithmetic is exact.
struct FlakyModel {
    /// 1-based question number skipped in multi-question prompts.
    skip: usize,
}

impl ChatModel for FlakyModel {
    fn name(&self) -> &str {
        "flaky"
    }
    fn context_window(&self) -> usize {
        100_000
    }
    fn cost_usd(&self, usage: &Usage) -> f64 {
        usage.total_tokens() as f64 * 1e-6
    }
    fn chat(&self, request: &ChatRequest) -> ChatResponse {
        let body = &request.messages.last().unwrap().content;
        let count = body
            .lines()
            .filter(|l| l.trim_start().starts_with("Question "))
            .count()
            .max(1);
        let mut text = String::new();
        for i in 1..=count {
            if count == 1 || i != self.skip {
                text.push_str(&format!("Answer {i}: yes\n"));
            }
        }
        ChatResponse::new(
            text,
            Usage {
                prompt_tokens: 100,
                completion_tokens: 10 * count,
            },
            2.0,
        )
    }
}

/// `n` EM instances; every `dup_every`-th repeats a fixed pair so plans
/// contain cross-batch duplicate requests (dedup + response retention across
/// shards).
fn em_instances(n: usize, dup_every: usize) -> Vec<TaskInstance> {
    let schema = Schema::all_text(&["title"]).unwrap().shared();
    (0..n)
        .map(|i| {
            let label = if dup_every > 0 && i % dup_every == 0 {
                "duplicate product".to_string()
            } else {
                format!("product {i}")
            };
            let rec = Record::new(schema.clone(), vec![Value::text(label)]).unwrap();
            TaskInstance::EntityMatching {
                a: rec.clone(),
                b: rec,
            }
        })
        .collect()
}

fn config(batch_size: usize) -> PipelineConfig {
    let mut config = PipelineConfig::best(Task::EntityMatching);
    config.components.few_shot = false;
    config.components.reasoning = false;
    config.batch_size = batch_size;
    config.fit_context = false;
    config
}

fn assert_identical(result: &RunResult, reference: &RunResult, label: &str) {
    assert_eq!(result.predictions, reference.predictions, "{label}");
    assert_eq!(result.stats, reference.stats, "{label}");
    assert_eq!(result.usage, reference.usage, "{label}");
    assert_eq!(result.metrics, reference.metrics, "{label}");
}

/// The tentpole equivalence: dedup + parse misses + the degradation ladder,
/// across shard sizes bracketing the batch count and across worker counts.
#[test]
fn streaming_matches_materialized_at_every_shard_size_and_worker_count() {
    let model = FlakyModel { skip: 2 };
    let instances = em_instances(23, 5);
    let mut one_worker: Option<RunResult> = None;
    for workers in [1usize, 4] {
        let options = ExecutionOptions {
            workers,
            degrade: true,
            ..ExecutionOptions::default()
        };
        // The survey renders on the executor's worker count, as
        // `Preprocessor::try_run` sets it up.
        let config = PipelineConfig {
            workers,
            ..config(3)
        };
        let plan = ExecutionPlan::build(&model, &config, &instances, &[]);
        let reference = Executor::new(options).run(&model, &plan);
        assert!(
            reference.stats.splits > 0,
            "workload must exercise the ladder"
        );
        let one_worker = one_worker.get_or_insert_with(|| reference.clone());
        assert_identical(&reference, one_worker, &format!("workers={workers}"));
        for shard_size in [1usize, 2, 3, 7, 1000] {
            let audit = Arc::new(AuditTracer::new());
            let mut stream = PlanStream::new(&model, &config, &instances, &[], shard_size);
            assert_eq!(stream.fingerprint(), plan.fingerprint());
            let result = Executor::new(options)
                .with_tracer(audit.clone() as Arc<dyn Tracer>)
                .try_run_stream(&model, &mut stream)
                .unwrap();
            audit.assert_clean();
            assert_identical(
                &result,
                &reference,
                &format!("shard_size={shard_size} workers={workers}"),
            );
        }
    }
}

/// Cross-shard dedup and response retention: with batching off, duplicate
/// instances in later shards are served by a request dispatched shards
/// earlier — the executor must keep that response alive until its last
/// referencing batch parses, and drop it afterwards.
#[test]
fn deduped_responses_are_retained_across_shards() {
    let model = FlakyModel { skip: 999 };
    // Every even instance is the same pair: 6 duplicate batches collapsing
    // into one request first seen in shard 0 and last used in the final
    // shard, interleaved with 5 unique batches.
    let instances = em_instances(11, 2);
    let mut config = config(1);
    config.components.batching = false;
    let plan = ExecutionPlan::build(&model, &config, &instances, &[]);
    let reference = Executor::serial().run(&model, &plan);
    assert_eq!(reference.stats.deduped, 5, "workload must exercise dedup");
    for shard_size in [1usize, 2, 3] {
        let mut stream = PlanStream::new(&model, &config, &instances, &[], shard_size);
        let result = Executor::serial()
            .try_run_stream(&model, &mut stream)
            .unwrap();
        assert_identical(&result, &reference, &format!("shard_size={shard_size}"));
    }
}

/// The `Preprocessor` facade routes through the streaming path when
/// `plan_shard_size` is set, with identical output.
#[test]
fn preprocessor_shard_size_knob_is_result_invariant() {
    let instances = em_instances(14, 4);
    let model = FlakyModel { skip: 1 };
    let mut reference: Option<RunResult> = None;
    for plan_shard_size in [None, Some(1), Some(2), Some(6)] {
        let mut config = config(3);
        config.plan_shard_size = plan_shard_size;
        let result = Preprocessor::new(&model, config)
            .with_exec_options(ExecutionOptions {
                degrade: true,
                ..ExecutionOptions::default()
            })
            .run(&instances, &[]);
        if let Some(reference) = &reference {
            assert_identical(&result, reference, &format!("{plan_shard_size:?}"));
        } else {
            reference = Some(result);
        }
    }
}

fn journal_path(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "dprep-stream-test-{}-{name}.jsonl",
        std::process::id()
    ));
    p
}

/// Runs `instances` journaled, materialized when `shard_size` is `None` and
/// streamed in shards of `shard_size` batches otherwise; returns the result
/// and the journal's bytes.
fn journaled_run(
    model: &FlakyModel,
    config: &PipelineConfig,
    instances: &[TaskInstance],
    options: ExecutionOptions,
    shard_size: Option<usize>,
    name: &str,
) -> (RunResult, Vec<u8>) {
    let path = journal_path(name);
    let journal = Arc::new(DurableJournal::fresh(&path, "flaky", "cfg", 0).unwrap());
    let executor = Executor::new(options).with_durability(Durability::new().with_journal(journal));
    let result = match shard_size {
        None => executor.run(model, &ExecutionPlan::build(model, config, instances, &[])),
        Some(shard_size) => {
            let mut stream = PlanStream::new(model, config, instances, &[], shard_size);
            executor.try_run_stream(model, &mut stream).unwrap()
        }
    };
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    (result, bytes)
}

/// Runs `instances` journaled at one shard and at shard sizes 1, 2, 3 and
/// 7, at one and four workers, and asserts every run matches the one-shard
/// one-worker run: results and journal bytes. Returns that reference.
fn assert_shard_size_never_shows(
    model: &FlakyModel,
    instances: &[TaskInstance],
    batch_size: usize,
    options: ExecutionOptions,
    name: &str,
) -> RunResult {
    let mut reference: Option<(RunResult, Vec<u8>)> = None;
    for workers in [1usize, 4] {
        let config = PipelineConfig {
            workers,
            ..config(batch_size)
        };
        let options = ExecutionOptions { workers, ..options };
        for shard_size in [None, Some(1), Some(2), Some(3), Some(7)] {
            let label = format!("{name} shard_size={shard_size:?} workers={workers}");
            let file = format!("{name}-{workers}-{}", shard_size.unwrap_or(0));
            let (result, bytes) =
                journaled_run(model, &config, instances, options, shard_size, &file);
            match &reference {
                None => reference = Some((result, bytes)),
                Some((reference, reference_bytes)) => {
                    assert_identical(&result, reference, &label);
                    assert!(bytes == *reference_bytes, "{label}: journal bytes differ");
                }
            }
        }
    }
    let (reference, bytes) = reference.expect("a reference run");
    assert!(!bytes.is_empty());
    reference
}

/// With the degradation ladder on, the streaming journal is not just the
/// same entry set — it is the byte-identical file at every shard size.
#[test]
fn streaming_journal_is_byte_identical_with_the_ladder() {
    let model = FlakyModel { skip: 2 };
    let options = ExecutionOptions {
        degrade: true,
        ..ExecutionOptions::default()
    };
    let reference =
        assert_shard_size_never_shows(&model, &em_instances(12, 4), 2, options, "ladder");
    assert!(
        reference.stats.splits > 0,
        "workload must exercise the ladder"
    );
}

/// Stage events aggregate across shards: exactly four, once, with the other
/// lifecycle counts matching the materialized run's.
#[test]
fn streaming_emits_aggregated_stage_events_once() {
    let model = FlakyModel { skip: 999 };
    let instances = em_instances(10, 0);
    let config = config(2);
    let tracer = Arc::new(CollectingTracer::new());
    let mut stream = PlanStream::new(&model, &config, &instances, &[], 2);
    let n_requests = stream.n_requests();
    let result = Executor::serial()
        .with_tracer(tracer.clone() as Arc<dyn Tracer>)
        .try_run_stream(&model, &mut stream)
        .unwrap();
    assert_eq!(tracer.count("run_started"), 1);
    assert_eq!(tracer.count("planned"), n_requests);
    assert_eq!(tracer.count("dispatched"), n_requests);
    assert_eq!(tracer.count("completed"), n_requests);
    assert_eq!(tracer.count("prompt_components"), n_requests);
    assert_eq!(
        tracer.count("stage"),
        4,
        "plan, prompt-build, dispatch, parse — once each, aggregated"
    );
    assert_eq!(tracer.count("parsed"), 10);
    assert_eq!(tracer.count("run_finished"), 1);
    assert_eq!(result.metrics.answered, 10);
}

/// A token budget that trips mid-ladder fails the same ladder groups and
/// cancels the same requests at every shard size: every primary request is
/// billed before any ladder request, whatever the shard size.
#[test]
fn a_budget_tripping_mid_ladder_is_the_same_at_every_shard_size() {
    let model = FlakyModel { skip: 2 };
    // Each three-question request bills 130 tokens and each one-question
    // ladder retry 110: the eight primaries bill 1,040, and 1,700 trips on
    // the sixth retry.
    let options = ExecutionOptions {
        degrade: true,
        token_budget: Some(1_700),
        ..ExecutionOptions::default()
    };
    let reference =
        assert_shard_size_never_shows(&model, &em_instances(24, 0), 3, options, "budget");
    assert!(reference.stats.splits > 0, "the ladder ran");
    assert!(
        reference
            .predictions
            .iter()
            .any(|p| p.failure() == Some(dprep_core::FailureKind::BudgetExhausted)),
        "the budget tripped mid-ladder"
    );
}

/// The kill-point drill on the streaming path, ladder on: kill after every
/// terminal, resume from the partial journal at another shard size, and
/// land bit-identical to the uninterrupted run — the journal contract
/// survives sharding, and a journal does not depend on the shard size.
#[test]
fn killed_and_resumed_streaming_runs_are_bit_identical() {
    let model = FlakyModel { skip: 2 };
    let instances = em_instances(8, 0);
    let config = config(2);
    let options = ExecutionOptions {
        degrade: true,
        ..ExecutionOptions::default()
    };
    let run_streaming = |shard_size: usize,
                         durability: Durability,
                         kill: Option<KillSwitch>,
                         tracer: Option<Arc<dyn Tracer>>|
     -> RunResult {
        let mut executor = Executor::new(options).with_durability(durability);
        if let Some(kill) = kill {
            executor = executor.with_kill_switch(kill);
        }
        if let Some(tracer) = tracer {
            executor = executor.with_tracer(tracer);
        }
        let mut stream = PlanStream::new(&model, &config, &instances, &[], shard_size);
        executor.try_run_stream(&model, &mut stream).unwrap()
    };
    let reference = run_streaming(2, Durability::new(), None, None);
    let n_requests = reference.stats.requests;
    assert_eq!(n_requests, 8, "four batches and a ladder retry each");

    for kill_at in 1..=n_requests {
        let path = journal_path(&format!("kill-{kill_at}"));
        let journal = Arc::new(DurableJournal::fresh(&path, "flaky", "cfg", 0).unwrap());
        let kill = KillSwitch::after(kill_at);
        let killed = run_streaming(
            2,
            Durability::new().with_journal(journal),
            Some(kill.clone()),
            None,
        );
        assert!(kill.fired(), "kill_at={kill_at}");
        assert!(killed.usage.requests <= kill_at);
        // The partial result really is partial: later instances never got a
        // prediction beyond the placeholder.
        if kill_at < n_requests {
            assert!(killed
                .predictions
                .iter()
                .any(|p| matches!(p, Prediction::Failed(_))));
        }

        let recovered = DurableJournal::resume(&path).unwrap();
        assert!(recovered.warning.is_none());
        assert_eq!(recovered.entries.len(), kill_at);
        let audit = Arc::new(AuditTracer::new());
        let plan = recovered.require_header().unwrap().plan;
        let resumed = run_streaming(
            3,
            Durability::new()
                .with_journal(Arc::new(recovered.journal))
                .with_replay(&recovered.entries, plan),
            None,
            Some(audit.clone() as Arc<dyn Tracer>),
        );
        audit.assert_clean();
        assert_eq!(
            resumed.predictions, reference.predictions,
            "kill_at={kill_at}"
        );
        assert_eq!(resumed.stats, reference.stats, "kill_at={kill_at}");
        assert_eq!(resumed.usage, reference.usage, "kill_at={kill_at}");
        let mut metrics = resumed.metrics.clone();
        assert_eq!(metrics.journal_replayed, kill_at);
        assert_eq!(metrics.journal_written, n_requests - kill_at);
        metrics.journal_replayed = 0;
        metrics.journal_written = 0;
        metrics.journal_truncated = 0;
        assert_eq!(metrics, reference.metrics, "kill_at={kill_at}");
        std::fs::remove_file(&path).ok();
    }
}

/// A streaming resume refuses a journal recorded for a different plan, just
/// like the materialized path — and the check fires before any dispatch.
#[test]
fn streaming_resume_rejects_a_mismatched_plan() {
    let model = FlakyModel { skip: 999 };
    let config = config(2);
    let instances = em_instances(4, 0);
    let path = journal_path("mismatch");
    let journal = Arc::new(DurableJournal::fresh(&path, "flaky", "cfg", 0).unwrap());
    let mut stream = PlanStream::new(&model, &config, &instances, &[], 2);
    Executor::serial()
        .with_durability(Durability::new().with_journal(journal))
        .try_run_stream(&model, &mut stream)
        .unwrap();
    let recovered = DurableJournal::resume(&path).unwrap();
    let other = em_instances(6, 0);
    let mut other_stream = PlanStream::new(&model, &config, &other, &[], 2);
    let err = Executor::serial()
        .with_durability(
            Durability::new()
                .with_replay(&recovered.entries, recovered.require_header().unwrap().plan),
        )
        .try_run_stream(&model, &mut other_stream)
        .unwrap_err();
    assert!(err.contains("refusing to resume"), "{err}");
    std::fs::remove_file(&path).ok();
}

/// Satellite of the serving tentpole: two tenants running the same
/// streaming workload concurrently through the [`JobScheduler`] — their
/// shards interleaved or overlapped by the shared turnstile — each produce a
/// result byte-identical to a serial one-shot run. Fair-share gating is
/// pure scheduling; it must never leak into results.
#[test]
fn concurrent_tenants_through_the_scheduler_stay_bit_identical() {
    use dprep_core::{JobOutcome, JobScheduler, TenantLedger};
    use std::sync::Mutex;

    let instances = em_instances(16, 5);
    let run_config = || {
        let mut c = config(3);
        c.plan_shard_size = Some(2);
        c
    };
    let options = ExecutionOptions {
        workers: 2,
        degrade: true,
        ..ExecutionOptions::default()
    };

    // Serial one-shot reference, no gate: what either tenant would get
    // running alone.
    let model = FlakyModel { skip: 1 };
    let reference = Preprocessor::new(&model, run_config())
        .with_exec_options(options)
        .run(&instances, &[]);

    let scheduler = JobScheduler::new(TenantLedger::new());
    let results: Vec<Mutex<Option<RunResult>>> = vec![Mutex::new(None), Mutex::new(None)];
    std::thread::scope(|scope| {
        for (tenant, slot) in ["acme", "bmce"].into_iter().zip(&results) {
            let scheduler = &scheduler;
            let instances = &instances;
            scope.spawn(move || {
                scheduler
                    .run_job(tenant, options, |grant| {
                        let model = FlakyModel { skip: 1 };
                        let result = Preprocessor::new(&model, run_config())
                            .with_exec_options(grant.options)
                            .with_shard_gate(Arc::clone(&grant.gate))
                            .try_run(instances, &[])?;
                        *slot.lock().unwrap() = Some(result);
                        Ok(JobOutcome::default())
                    })
                    .expect("job admitted and completed");
            });
        }
    });

    for (i, slot) in results.iter().enumerate() {
        let result = slot
            .lock()
            .unwrap()
            .take()
            .expect("tenant produced a result");
        assert_identical(&result, &reference, &format!("concurrent tenant {i}"));
    }
}
