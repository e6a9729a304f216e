//! End-to-end serving-ledger audit: a faulty, retried, cached stack run
//! through the parallel executor under the online audit tracer, with the
//! JSONL trace reconciled against the billed usage totals.

use std::sync::Arc;

use llm_data_preprocessors::core::{PipelineConfig, Preprocessor, RunResult};
use llm_data_preprocessors::llm::{
    CacheLayer, CacheStore, ChatModel, FaultLayer, ModelProfile, RetryLayer, SimulatedLlm,
};
use llm_data_preprocessors::obs::{AuditTracer, Json, JsonlTracer, MultiTracer, Tracer};

const FAULT_RATE: f64 = 0.1;
const FAULT_SEED: u64 = 17;
const RETRIES: u32 = 2;

/// The serving stack under test: shared cache over retry over fault
/// injection, every layer streaming into `tracer`.
fn stack(
    ds: &llm_data_preprocessors::datasets::Dataset,
    store: CacheStore,
    tracer: Arc<dyn Tracer>,
) -> impl ChatModel {
    let model = SimulatedLlm::new(ModelProfile::gpt4(), Arc::new(ds.kb.clone()));
    let faulty = FaultLayer::new(model, FAULT_RATE, FAULT_SEED).with_tracer(Arc::clone(&tracer));
    let retried = RetryLayer::new(faulty, RETRIES).with_tracer(Arc::clone(&tracer));
    CacheLayer::new(retried)
        .with_store(store)
        .with_tracer(tracer)
}

fn run(
    ds: &llm_data_preprocessors::datasets::Dataset,
    model: &dyn ChatModel,
    workers: usize,
    tracer: Arc<dyn Tracer>,
) -> RunResult {
    let mut config = PipelineConfig::best(ds.task);
    config.workers = workers;
    Preprocessor::new(model, config)
        .with_tracer(tracer)
        .run(&ds.instances, &ds.few_shot)
}

#[test]
fn faulty_retried_cached_run_is_audited_clean_and_reconciles() {
    let ds = llm_data_preprocessors::datasets::dataset_by_name("Restaurant", 0.5, 5).unwrap();
    let audit = Arc::new(AuditTracer::new());

    // Reference: serial run with its own cold cache.
    let serial_tracer: Arc<dyn Tracer> =
        Arc::new(MultiTracer::new().with(Arc::clone(&audit) as Arc<dyn Tracer>));
    let serial_stack = stack(&ds, CacheStore::default(), Arc::clone(&serial_tracer));
    let serial = run(&ds, &serial_stack, 1, serial_tracer);

    // Under test: 8 workers, cold cache, full observability stack.
    let jsonl = Arc::new(JsonlTracer::new());
    let tracer: Arc<dyn Tracer> = Arc::new(
        MultiTracer::new()
            .with(Arc::clone(&jsonl) as Arc<dyn Tracer>)
            .with(Arc::clone(&audit) as Arc<dyn Tracer>),
    );
    let store = CacheStore::default();
    let parallel_stack = stack(&ds, store.clone(), Arc::clone(&tracer));
    let parallel = run(&ds, &parallel_stack, 8, Arc::clone(&tracer));

    // The run actually exercised faults and retries.
    assert!(parallel.stats.retries > 0, "fault rate produced no retries");
    assert!(parallel.usage.requests > 0);

    // Bit-identical results at any worker count, faults and all.
    assert_eq!(parallel.predictions, serial.predictions);
    assert_eq!(parallel.usage, serial.usage);
    assert_eq!(parallel.metrics, serial.metrics);

    // The JSONL trace reconciles exactly with the billed totals: fresh
    // completed events sum to the ledger, cache hits bill zero.
    let mut requests = 0usize;
    let mut prompt = 0usize;
    let mut completion = 0usize;
    let mut cost = 0.0f64;
    let mut latency = 0.0f64;
    let mut finished = None;
    for line in jsonl.lines() {
        let event = Json::parse(&line).expect("valid JSON line");
        match event.get("event").and_then(Json::as_str) {
            Some("completed") => {
                let cached = event.get("cache_hit") == Some(&Json::Bool(true));
                let prompt_tokens = event.get("prompt_tokens").and_then(Json::as_usize).unwrap();
                let cost_usd = event.get("cost_usd").and_then(Json::as_f64).unwrap();
                if cached {
                    assert_eq!(cost_usd, 0.0, "cache hit billed cost");
                    assert_eq!(
                        event.get("latency_secs").and_then(Json::as_f64),
                        Some(0.0),
                        "cache hit billed latency"
                    );
                } else {
                    requests += 1;
                    prompt += prompt_tokens;
                    completion += event
                        .get("completion_tokens")
                        .and_then(Json::as_usize)
                        .unwrap();
                    cost += cost_usd;
                    latency += event.get("latency_secs").and_then(Json::as_f64).unwrap();
                }
            }
            Some("run_finished") => finished = Some(event),
            _ => {}
        }
    }
    assert_eq!(requests, parallel.usage.requests);
    assert_eq!(prompt, parallel.usage.prompt_tokens);
    assert_eq!(completion, parallel.usage.completion_tokens);
    assert!((cost - parallel.usage.cost_usd).abs() < 1e-9, "{cost}");
    assert!((latency - parallel.usage.latency_secs).abs() < 1e-9);
    let finished = finished.expect("run_finished event present");
    assert_eq!(
        finished.get("prompt_tokens").and_then(Json::as_usize),
        Some(parallel.usage.prompt_tokens)
    );
    assert_eq!(
        finished.get("answered").and_then(Json::as_usize),
        Some(parallel.predictions.len() - parallel.failed_count())
    );

    // Warm-cache replay: same stack again, everything from cache, no bill.
    let replay = run(&ds, &parallel_stack, 8, tracer);
    assert_eq!(replay.predictions, parallel.predictions);
    assert_eq!(replay.usage.requests, 0, "replay billed fresh requests");
    assert_eq!(replay.usage.prompt_tokens, 0);
    assert_eq!(replay.usage.cost_usd, 0.0);
    assert!(replay.stats.cache_hits > 0);

    // The online audit saw all three runs and found the ledger sound.
    assert_eq!(audit.runs_audited(), 3);
    audit.assert_clean();
}
