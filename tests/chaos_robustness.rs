//! End-to-end chaos robustness: a token budget tripping mid-run leaves a
//! partial, bit-identical, audited result; routed runs stay bit-identical
//! under every fault preset and bill exactly once across a resume; and a
//! one-route cascade's plan-order circuit breaker shorts a hard-down
//! model's requests unbilled at any worker count.

use std::sync::Arc;

use llm_data_preprocessors::core::{
    Durability, ExecutionOptions, FailureKind, PipelineConfig, Preprocessor, RunResult,
};
use llm_data_preprocessors::datasets::{dataset_by_name, Dataset};
use llm_data_preprocessors::llm::{
    BreakerConfig, ChatModel, EscalationPolicy, FaultLayer, FaultScenario, ModelProfile,
    RetryLayer, RouterLayer, SimulatedLlm,
};
use llm_data_preprocessors::obs::{
    AuditTracer, CollectingTracer, DurableJournal, MultiTracer, TraceEvent, Tracer,
};

/// Runs a dataset through the pipeline with explicit execution options.
fn run_with_options(
    ds: &Dataset,
    model: &dyn ChatModel,
    options: ExecutionOptions,
    tracer: Arc<dyn Tracer>,
) -> RunResult {
    let mut config = PipelineConfig::best(ds.task);
    config.workers = options.workers;
    Preprocessor::new(model, config)
        .with_exec_options(options)
        .with_tracer(tracer)
        .run(&ds.instances, &ds.few_shot)
}

#[test]
fn token_budget_trips_mid_run_with_partial_results() {
    let ds = dataset_by_name("Restaurant", 2.0, 0).unwrap();
    let model = SimulatedLlm::new(ModelProfile::gpt4(), Arc::new(ds.kb.clone())).with_seed(0);

    // Reference: unbudgeted run establishes the full cost of the workload.
    let full = run_with_options(
        &ds,
        &model,
        ExecutionOptions::default(),
        Arc::new(MultiTracer::new()),
    );
    let full_tokens = full.usage.total_tokens();
    let full_answered = full.predictions.len() - full.failed_count();
    assert!(
        full_answered > ds.len() / 2,
        "unbudgeted run answers most instances"
    );

    // Under test: a budget of roughly half the workload, serial and
    // parallel, both under the online ledger audit.
    let budget = full_tokens / 2;
    let mut runs = Vec::new();
    for workers in [1usize, 4] {
        let audit = Arc::new(AuditTracer::new());
        let collector = Arc::new(CollectingTracer::new());
        let tracer: Arc<dyn Tracer> = Arc::new(
            MultiTracer::new()
                .with(Arc::clone(&audit) as Arc<dyn Tracer>)
                .with(Arc::clone(&collector) as Arc<dyn Tracer>),
        );
        let result = run_with_options(
            &ds,
            &model,
            ExecutionOptions {
                workers,
                token_budget: Some(budget),
                ..ExecutionOptions::default()
            },
            tracer,
        );

        // Partial completion: some instances answered, the rest classified
        // as budget-exhausted — never silently dropped.
        assert_eq!(result.predictions.len(), ds.len());
        let answered = result.predictions.len() - result.failed_count();
        assert!(answered > 0, "budgeted run answered nothing");
        let exhausted = result
            .predictions
            .iter()
            .filter(|p| p.failure() == Some(FailureKind::BudgetExhausted))
            .count();
        assert!(exhausted > 0, "budget never tripped");
        assert!(
            answered < full_answered,
            "budgeted run answered as much as the unbudgeted one"
        );
        assert!(result.stats.cancelled > 0);

        // The bill honors the budget up to the crossing request: strictly
        // less than the full workload, and nothing billed after the trip.
        assert!(result.usage.total_tokens() < full_tokens);

        // The trip is visible in the trace, once, with the right reason.
        let events = collector.events();
        let trips: Vec<&TraceEvent> = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::BudgetTripped { .. }))
            .collect();
        assert_eq!(trips.len(), 1, "exactly one budget-tripped event");
        if let TraceEvent::BudgetTripped {
            reason, cancelled, ..
        } = trips[0]
        {
            assert_eq!(*reason, "token-budget");
            assert_eq!(*cancelled, result.stats.cancelled);
        }

        audit.assert_clean();
        runs.push(result);
    }

    // Bit-identical partial results at any worker count.
    assert_eq!(runs[0].predictions, runs[1].predictions);
    assert_eq!(runs[0].usage, runs[1].usage);
    assert_eq!(runs[0].metrics, runs[1].metrics);
    assert_eq!(runs[0].stats.cancelled, runs[1].stats.cancelled);
}

/// A cheap-first cascade with `scenario` injected on the primary route.
/// Route stacks carry no tracer: the ledger audit reconciles routed
/// completions against their `route_leg` events, not retry attempts.
fn faulted_cascade(ds: &Dataset, scenario: &FaultScenario, seed: u64) -> RouterLayer {
    let kb = Arc::new(ds.kb.clone());
    let primary = SimulatedLlm::new(ModelProfile::gpt35(), Arc::clone(&kb)).with_seed(seed);
    let primary = RetryLayer::new(FaultLayer::scenario(primary, scenario.clone(), seed), 2);
    let secondary = SimulatedLlm::new(ModelProfile::gpt4(), Arc::clone(&kb)).with_seed(seed);
    let secondary = RetryLayer::new(secondary, 2);
    RouterLayer::new(
        vec![Box::new(primary), Box::new(secondary)],
        EscalationPolicy::default(),
    )
}

#[test]
fn routed_runs_are_bit_identical_under_every_fault_preset() {
    // Every seeded fault preset on the primary route, at 1/2/4 workers:
    // routing settles in plan order, so predictions, billed usage, and the
    // whole metrics snapshot (per-route ledger included) must not depend
    // on the worker count — and the ledger must audit clean throughout.
    let ds = dataset_by_name("Adult", 0.05, 0).unwrap();
    for scenario in FaultScenario::presets() {
        let mut reference: Option<RunResult> = None;
        for workers in [1usize, 2, 4] {
            let audit = Arc::new(AuditTracer::new());
            let router = faulted_cascade(&ds, &scenario, 7);
            let result = run_with_options(
                &ds,
                &router,
                ExecutionOptions {
                    workers,
                    ..ExecutionOptions::default()
                },
                Arc::clone(&audit) as Arc<dyn Tracer>,
            );
            audit.assert_clean();
            assert_eq!(result.predictions.len(), ds.len(), "{}", scenario.name);
            match &reference {
                None => reference = Some(result),
                Some(reference) => {
                    assert_eq!(
                        result.predictions, reference.predictions,
                        "{} at workers={workers}",
                        scenario.name
                    );
                    assert_eq!(
                        result.usage, reference.usage,
                        "{} at workers={workers}",
                        scenario.name
                    );
                    assert_eq!(
                        result.metrics, reference.metrics,
                        "{} at workers={workers}",
                        scenario.name
                    );
                }
            }
        }
    }
}

#[test]
fn escalations_bill_exactly_once_across_a_mid_run_resume() {
    // A routed run under a burst outage escalates some requests to the
    // secondary. Cut the journal mid-run and resume: replayed completions
    // re-bill their journaled per-leg numbers (never re-dispatch), the
    // remainder executes fresh, and the totals — including the per-route
    // ledger — match the uninterrupted run exactly.
    let ds = dataset_by_name("Adult", 0.1, 0).unwrap();
    let scenario = FaultScenario::burst_outage();
    let reference = run_with_options(
        &ds,
        &faulted_cascade(&ds, &scenario, 7),
        ExecutionOptions::default(),
        Arc::new(MultiTracer::new()),
    );
    let escalated: usize = reference.metrics.routes.values().map(|r| r.escalated).sum();
    assert!(escalated > 0, "outage never escalated to the secondary");

    let mut path = std::env::temp_dir();
    path.push(format!("dprep-chaos-test-resume-{}", std::process::id()));
    let journal = Arc::new(DurableJournal::fresh(&path, "router", "c", 7).unwrap());
    let router = faulted_cascade(&ds, &scenario, 7);
    let mut config = PipelineConfig::best(ds.task);
    config.workers = 2;
    let journaled = Preprocessor::new(&router, config.clone())
        .with_durability(Durability::new().with_journal(Arc::clone(&journal)))
        .try_run(&ds.instances, &ds.few_shot)
        .expect("journaled routed run");
    assert_eq!(journaled.predictions, reference.predictions);
    let written = journal.written();
    drop(journal);

    // Resume from a prefix cut inside the run, so escalated completions
    // sit on both sides of the cut.
    let recovered = DurableJournal::resume(&path).unwrap();
    assert_eq!(recovered.entries.len(), written);
    let cut = written / 2;
    let header = recovered.require_header().unwrap();
    let durability = Durability::new().with_replay(&recovered.entries[..cut], header.plan);
    let resumed = Preprocessor::new(&router, config)
        .with_durability(durability)
        .try_run(&ds.instances, &ds.few_shot)
        .expect("mid-run resume accepted");

    assert_eq!(resumed.predictions, reference.predictions);
    assert_eq!(resumed.usage, reference.usage, "exactly-once billing");
    assert_eq!(resumed.metrics.routes, reference.metrics.routes);
    assert_eq!(resumed.metrics.journal_replayed, cut);
    std::fs::remove_file(&path).ok();
}

#[test]
fn one_route_cascade_breaker_shorts_an_outage_at_every_worker_count() {
    // A single model behind a one-route cascade gets the router's
    // plan-order breaker: with the model hard-down, every leg fails after
    // retries, so the breaker trips, shorts its cooldown legs unbilled,
    // bills one probe, and re-opens, over and over — identically at every
    // worker count, because settlement folds in plan order.
    let ds = dataset_by_name("Adult", 0.1, 0).unwrap();
    let config = BreakerConfig::default();
    let mut reference: Option<(RunResult, Vec<String>)> = None;
    for workers in [1usize, 2, 4] {
        let sim = SimulatedLlm::new(ModelProfile::gpt4(), Arc::new(ds.kb.clone())).with_seed(0);
        let down = RetryLayer::new(
            FaultLayer::scenario(sim, FaultScenario::route_outage(), 0),
            2,
        );
        let router = RouterLayer::new(vec![Box::new(down)], EscalationPolicy::default());
        let audit = Arc::new(AuditTracer::new());
        let collector = Arc::new(CollectingTracer::new());
        let tracer: Arc<dyn Tracer> = Arc::new(
            MultiTracer::new()
                .with(Arc::clone(&audit) as Arc<dyn Tracer>)
                .with(Arc::clone(&collector) as Arc<dyn Tracer>),
        );
        let result = run_with_options(
            &ds,
            &router,
            ExecutionOptions {
                workers,
                ..ExecutionOptions::default()
            },
            tracer,
        );
        audit.assert_clean();

        // One leg per request, settled in plan order: `failure_threshold`
        // billed legs trip the breaker, then every cycle shorts
        // `cooldown_requests` legs and bills one probe that re-opens it.
        let mut outcomes = Vec::new();
        for event in collector.events() {
            if let TraceEvent::RouteLeg {
                outcome,
                prompt_tokens,
                completion_tokens,
                cost_usd,
                latency_secs,
                ..
            } = event
            {
                if outcome == "shorted" {
                    assert_eq!(
                        prompt_tokens + completion_tokens,
                        0,
                        "shorted legs bill nothing"
                    );
                    assert_eq!((cost_usd, latency_secs), (0.0, 0.0));
                }
                outcomes.push(outcome.to_string());
            }
        }
        assert_eq!(outcomes.len(), result.stats.requests);
        let trip = config.failure_threshold as usize;
        let cycle = config.cooldown_requests as usize + 1;
        for (i, outcome) in outcomes.iter().enumerate() {
            let shorted = i >= trip && (i - trip) % cycle != cycle - 1;
            assert_eq!(outcome == "shorted", shorted, "leg {i}: {outcome}");
        }
        let route = &result.metrics.routes["sim-gpt-4"];
        assert_eq!(route.legs, outcomes.len());
        assert!(route.shorted > route.legs / 2, "{route:?}");

        // Shorted requests fail as circuit-open, billed probes as retries
        // exhausted; nothing is answered while the model is down.
        for p in &result.predictions {
            assert!(
                matches!(
                    p.failure(),
                    Some(FailureKind::CircuitOpen | FailureKind::RetriesExhausted)
                ),
                "unexpected outcome under a hard-down model: {p:?}"
            );
        }
        assert!(result
            .predictions
            .iter()
            .any(|p| p.failure() == Some(FailureKind::CircuitOpen)));

        match &reference {
            None => reference = Some((result, outcomes)),
            Some((reference, reference_outcomes)) => {
                assert_eq!(&outcomes, reference_outcomes, "workers={workers}");
                assert_eq!(
                    result.predictions, reference.predictions,
                    "workers={workers}"
                );
                assert_eq!(result.usage, reference.usage, "workers={workers}");
                assert_eq!(result.metrics, reference.metrics, "workers={workers}");
            }
        }
    }
}
