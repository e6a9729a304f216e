//! The traced run: every per-layer metric.
//!
//! The CLI crate is a binary, so this module re-creates in-process what
//! `dprep detect` (`cli/src/commands/detect.rs` and the serving set-up in
//! `cli/src/commands/mod.rs`) and the daemon's job handler
//! (`cli/src/commands/serve.rs::dataset_handler`) do, from the library
//! crates' public API, at one worker so layer self-times add up. Timing
//! shims sit at every layer boundary: a `ChatModel` wrapper between
//! middleware layers, a `ShardGate` around the job's turnstile gate, a
//! `Tracer` in front of the ops plane's, and spans around the table read,
//! the planner, the executor and the journal. No tracing runs inside the
//! program. Every traced pass must bill the tokens and print (or reply)
//! exactly what the binary does on the same inputs, or the run fails.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use dprep_core::{
    result_fingerprint, Daemon, Durability, ExecutionOptions, ExecutionPlan, Executor, FailureKind,
    JobGrant, JobHandler, JobOutcome, JobScheduler, KillSwitch, OpsPlane, OverloadPolicy,
    PipelineConfig, PlanStream, RunResult, ShardGate, TenantLedger, WireLimits,
};
use dprep_datasets::dataset_by_name;
use dprep_llm::{
    warm_cache_store, CacheLayer, ChatModel, ChatRequest, ChatResponse, EscalationPolicy, Fact,
    FaultLayer, FaultScenario, KnowledgeBase, MiddlewareStats, ModelProfile, RetryLayer,
    RoutePending, RouterLayer, SimulatedLlm, Usage,
};
use dprep_obs::{DurableJournal, JournalEntry, Json, NullTracer, TraceEvent, Tracer, WindowConfig};
use dprep_prompt::{FewShotExample, Task, TaskInstance};

use crate::defs::{Workload, PER_LAYER};
use crate::drive::{
    self, check_repeats, daemon_args, detect_command, detect_files, detect_once, start_daemon, Ctx,
    DetectFiles, Outcome, Reply, Traffic, DURABLE_ROUTE,
};
use crate::gen::{self, Job, TENANTS};
use crate::proc::Conn;
use crate::stats::{median, percentile};

// Span names, one per layer boundary.
const READ: &str = "tabular.read";
const CLI_SETUP: &str = "cli.setup";
const CLI_COLLECT: &str = "cli.collect";
const CLI_OUTPUT: &str = "cli.output";
const PLAN_BUILD: &str = "plan.build";
const EXEC: &str = "exec";
const SIM: &str = "llm.sim";
const FAULT: &str = "llm.fault";
const RETRY: &str = "llm.retry";
const CACHE: &str = "llm.cache";
const ROUTER: &str = "llm.router";
const ROUTES: [&str; 4] = ["llm.route.0", "llm.route.1", "llm.route.2", "llm.route.3"];
const RECOVER: &str = "journal.recover";
const GEN: &str = "datasets.gen";
const HANDLER: &str = "serve.handler_setup";
const TURNSTILE: &str = "serve.turnstile";
const OPS: &str = "obs.ops";
/// Ops-plane records of the executor's parse phase, which its `parse`
/// stage wall already contains.
const OPS_PARSE: &str = "obs.ops.parse";

/// `dprep detect`'s default `--seed` and `--retries`.
const CLI_SEED: u64 = 0;
const RETRIES: u32 = 2;
/// `dprep serve`'s handler defaults (`HandlerDefaults::default`).
const SERVE_SEED: u64 = 7;
const SERVE_SHARD: usize = 4;
/// Pings per probe of the daemon wire.
const PINGS: usize = 15;

#[derive(Debug, Default, Clone, Copy)]
struct SpanTotals {
    calls: u64,
    incl_s: f64,
    self_s: f64,
}

/// One traced daemon job, as its handler saw it.
#[derive(Debug, Clone, Copy)]
struct JobTrace {
    job: u64,
    handler_s: f64,
    wait_s: f64,
    turns: u64,
}

/// Span and counter totals of one traced pass.
#[derive(Default)]
pub struct Probe {
    spans: Mutex<BTreeMap<&'static str, SpanTotals>>,
    counts: Mutex<BTreeMap<&'static str, f64>>,
    jobs: Mutex<Vec<JobTrace>>,
}

thread_local! {
    /// Per open span on this thread: the time its child spans took so far.
    static OPEN: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

impl Probe {
    /// Runs `f` as span `name`: its inclusive time, and its self time
    /// (inclusive minus the spans nested in it on this thread).
    fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        OPEN.with(|open| open.borrow_mut().push(0.0));
        let started = Instant::now();
        let out = f();
        let took = started.elapsed().as_secs_f64();
        let children = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let children = open.pop().unwrap_or(0.0);
            if let Some(parent) = open.last_mut() {
                *parent += took;
            }
            children
        });
        let mut spans = self.spans.lock().expect("probe spans");
        let totals = spans.entry(name).or_default();
        totals.calls += 1;
        totals.incl_s += took;
        totals.self_s += took - children;
        out
    }

    fn add(&self, name: &'static str, value: f64) {
        *self
            .counts
            .lock()
            .expect("probe counts")
            .entry(name)
            .or_default() += value;
    }

    fn count(&self, name: &str) -> f64 {
        self.counts
            .lock()
            .expect("probe counts")
            .get(name)
            .copied()
            .unwrap_or(0.0)
    }

    fn totals(&self, name: &str) -> SpanTotals {
        self.spans
            .lock()
            .expect("probe spans")
            .get(name)
            .copied()
            .unwrap_or_default()
    }

    /// Self time summed over every span: the traced wall the layers explain.
    fn covered_s(&self) -> f64 {
        self.spans
            .lock()
            .expect("probe spans")
            .values()
            .map(|t| t.self_s)
            .sum()
    }

    /// Folds a middleware stack's counters in.
    fn add_stats(&self, stats: &MiddlewareStats) {
        let s = stats.snapshot();
        self.add("llm.retry.attempts", s.retries as f64);
        self.add("cache.hits", s.cache_hits as f64);
        self.add("cache.misses", s.cache_misses as f64);
        self.add("llm.fault.injected", s.faults_injected as f64);
    }
}

fn span<R>(probe: Option<&Arc<Probe>>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match probe {
        Some(p) => p.span(name, f),
        None => f(),
    }
}

/// A `ChatModel` timing shim: spans every `chat` call of the layer below.
struct Timed {
    name: &'static str,
    inner: Box<dyn ChatModel>,
    probe: Arc<Probe>,
}

impl ChatModel for Timed {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn default_temperature(&self) -> f64 {
        self.inner.default_temperature()
    }
    fn chat(&self, request: &ChatRequest) -> ChatResponse {
        self.probe.span(self.name, || self.inner.chat(request))
    }
    fn context_window(&self) -> usize {
        self.inner.context_window()
    }
    fn cost_usd(&self, usage: &Usage) -> f64 {
        self.inner.cost_usd(usage)
    }
    fn take_route_pending(&self, trace_id: u64) -> Option<RoutePending> {
        self.inner.take_route_pending(trace_id)
    }
}

/// `model` behind a timing shim when tracing, as is otherwise.
fn shim(
    probe: Option<&Arc<Probe>>,
    name: &'static str,
    model: Box<dyn ChatModel>,
) -> Box<dyn ChatModel> {
    match probe {
        Some(p) => Box::new(Timed {
            name,
            inner: model,
            probe: Arc::clone(p),
        }),
        None => model,
    }
}

/// Reads the executor's `stage` events (plan, prompt-build, dispatch,
/// parse wall totals), passing every event on.
struct StageTap {
    walls: Mutex<[f64; 4]>,
    next: Arc<dyn Tracer>,
}

impl Tracer for StageTap {
    fn record(&self, event: &TraceEvent) {
        if let TraceEvent::Stage {
            stage, wall_secs, ..
        } = event
        {
            let slot = match *stage {
                "plan" => Some(0),
                "prompt-build" => Some(1),
                "dispatch" => Some(2),
                "parse" => Some(3),
                _ => None,
            };
            if let Some(i) = slot {
                self.walls.lock().expect("stage walls")[i] += wall_secs;
            }
        }
        self.next.record(event);
    }
}

/// A timing shim in front of the ops plane's tracer.
struct TimedTracer {
    inner: Arc<dyn Tracer>,
    probe: Arc<Probe>,
}

impl Tracer for TimedTracer {
    fn record(&self, event: &TraceEvent) {
        let name = match event {
            TraceEvent::Parsed { .. } | TraceEvent::Failed { .. } => OPS_PARSE,
            _ => OPS,
        };
        self.probe.span(name, || self.inner.record(event));
    }
}

/// A timing shim around a job's turnstile gate: waits and turns.
struct TimedGate {
    inner: Arc<dyn ShardGate>,
    probe: Arc<Probe>,
    waited: Mutex<(f64, u64)>,
}

impl ShardGate for TimedGate {
    fn acquire(&self) {
        let started = Instant::now();
        self.probe.span(TURNSTILE, || self.inner.acquire());
        let mut waited = self.waited.lock().expect("gate waits");
        waited.0 += started.elapsed().as_secs_f64();
        waited.1 += 1;
    }
    fn release(&self) {
        self.inner.release();
    }
}

/// One pipeline run, as `Preprocessor::try_run` sets it up.
struct Run<'a> {
    model: &'a dyn ChatModel,
    config: &'a PipelineConfig,
    options: ExecutionOptions,
    instances: &'a [TaskInstance],
    examples: &'a [FewShotExample],
    durability: Durability,
    gate: Option<Arc<dyn ShardGate>>,
    kill: Option<KillSwitch>,
    tracer: Arc<dyn Tracer>,
}

/// `Preprocessor::try_run`, with the planner and the executor spanned.
fn execute(run: Run<'_>, probe: Option<&Arc<Probe>>) -> Result<RunResult, String> {
    let tap = probe.map(|_| {
        Arc::new(StageTap {
            walls: Mutex::new([0.0; 4]),
            next: Arc::clone(&run.tracer),
        })
    });
    let tracer: Arc<dyn Tracer> = match &tap {
        Some(tap) => Arc::clone(tap) as Arc<dyn Tracer>,
        None => run.tracer,
    };
    let mut executor = Executor::new(run.options)
        .with_tracer(tracer)
        .with_durability(run.durability);
    if let Some(kill) = run.kill {
        executor = executor.with_kill_switch(kill);
    }
    if let Some(gate) = run.gate {
        executor = executor.with_shard_gate(gate);
    }
    // Planning and rendering the stream does inside its constructor; the
    // materialized plan does all of it in `build`.
    let (result, in_build) = match run.config.plan_shard_size {
        Some(shard) => {
            let mut stream = span(probe, PLAN_BUILD, || {
                PlanStream::new(run.model, run.config, run.instances, run.examples, shard)
            });
            let in_build = (stream.plan_wall_secs(), stream.prompt_build_wall_secs());
            let result = span(probe, EXEC, || {
                executor.try_run_stream(run.model, &mut stream)
            })?;
            (result, Some(in_build))
        }
        None => {
            let plan = span(probe, PLAN_BUILD, || {
                ExecutionPlan::build(run.model, run.config, run.instances, run.examples)
            });
            (
                span(probe, EXEC, || executor.try_run(run.model, &plan))?,
                None,
            )
        }
    };
    if let (Some(p), Some(tap)) = (probe, tap) {
        let [plan, render, _dispatch, parse] = *tap.walls.lock().expect("stage walls");
        let (plan_built, render_built) = in_build.unwrap_or((plan, render));
        p.add("stage.render", render);
        p.add("stage.render_build", render_built);
        p.add("stage.plan_exec", plan - plan_built);
        p.add("stage.render_exec", render - render_built);
        p.add("stage.parse", parse);
        p.add("plan.requests", result.stats.requests as f64);
        p.add("plan.deduped", result.stats.deduped as f64);
    }
    Ok(result)
}

/// The CLI's `build_router` with the default escalation policy and retry
/// budget: one retry(fault?(sim)) stack per route behind a `RouterLayer`,
/// shimmed at every layer (`llm.route.N` counts each route's legs).
fn router(
    routes: &[String],
    kb: Arc<KnowledgeBase>,
    seed: u64,
    stats: &Arc<MiddlewareStats>,
    fault: Option<(usize, FaultScenario)>,
    probe: Option<&Arc<Probe>>,
) -> Result<Box<dyn ChatModel>, String> {
    let mut legs: Vec<Box<dyn ChatModel>> = Vec::new();
    for (i, name) in routes.iter().enumerate() {
        let profile =
            ModelProfile::by_name(name).ok_or_else(|| format!("unknown route model {name:?}"))?;
        let route = ROUTES
            .get(i)
            .ok_or("the mirror shims at most four routes")?;
        let sim: Box<dyn ChatModel> = shim(
            probe,
            SIM,
            Box::new(SimulatedLlm::new(profile, Arc::clone(&kb)).with_seed(seed)),
        );
        let stack = match &fault {
            Some((target, scenario)) if *target == i => shim(
                probe,
                FAULT,
                Box::new(
                    FaultLayer::scenario(sim, scenario.clone(), seed).with_stats(Arc::clone(stats)),
                ),
            ),
            _ => sim,
        };
        let retry = RetryLayer::new(stack, RETRIES).with_stats(Arc::clone(stats));
        legs.push(shim(probe, route, shim(probe, RETRY, Box::new(retry))));
    }
    let cascade = RouterLayer::new(legs, EscalationPolicy::default());
    Ok(shim(probe, ROUTER, Box::new(cascade)))
}

/// The CLI's facts parser, for the fact kinds the benchmark generates.
fn parse_facts(text: &str) -> Result<KnowledgeBase, String> {
    let mut kb = KnowledgeBase::new();
    for line in text.lines().map(str::trim) {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split('\t').collect();
        kb.add(match fields.as_slice() {
            ["lexicon", domain, value] => Fact::LexiconMember {
                domain: domain.to_string(),
                value: value.to_lowercase(),
            },
            ["range", attribute, min, max] => Fact::NumericRange {
                attribute: attribute.to_string(),
                min: min.parse().map_err(|_| format!("bad min: {line:?}"))?,
                max: max.parse().map_err(|_| format!("bad max: {line:?}"))?,
            },
            _ => {
                return Err(format!(
                    "the mirror reads lexicon and range facts only: {line:?}"
                ))
            }
        });
    }
    Ok(kb)
}

/// The CLI's `--journal J [--resume J]` durability: a fresh journal, or the
/// recovered one replayed and appended to.
fn cli_durability(
    journal: Option<&Path>,
    resume: bool,
    model: &str,
    config: &str,
    probe: Option<&Arc<Probe>>,
) -> Result<(Durability, Vec<JournalEntry>), String> {
    let Some(path) = journal else {
        return Ok((Durability::new(), Vec::new()));
    };
    if !resume {
        let fresh = DurableJournal::fresh(path, model, config, CLI_SEED)
            .map_err(|e| format!("cannot create journal {}: {e}", path.display()))?;
        return Ok((Durability::new().with_journal(Arc::new(fresh)), Vec::new()));
    }
    let recovered = span(probe, RECOVER, || DurableJournal::resume(path))?;
    let header = recovered
        .header
        .clone()
        .ok_or("the mirror journal is empty")?;
    if header.model != model || header.config != config || header.seed != CLI_SEED {
        return Err("the mirror journal was recorded for another run".into());
    }
    let durability = Durability::new()
        .with_replay(&recovered.entries, header.plan)
        .with_journal(Arc::new(recovered.journal));
    Ok((durability, recovered.entries))
}

/// What one mirrored detect invocation printed and billed.
struct Mirrored {
    stdout: Vec<u8>,
    tokens: usize,
}

/// One mirrored `dprep detect --workers 1` invocation (the durable flags
/// when `journal` is set).
fn detect_pass(
    files: &DetectFiles,
    journal: Option<&Path>,
    resume: bool,
    probe: Option<&Arc<Probe>>,
) -> Result<Mirrored, String> {
    let table = span(probe, READ, || {
        let text =
            std::fs::read_to_string(&files.csv).map_err(|e| format!("cannot read csv: {e}"))?;
        dprep_tabular::csv::read_csv_typed(&text).map_err(|e| e.to_string())
    })?;
    let attrs: Vec<String> = table
        .schema()
        .names()
        .iter()
        .map(|s| s.to_string())
        .collect();
    let stats = MiddlewareStats::shared();
    let mut config = PipelineConfig::best(Task::ErrorDetection);
    let (model, durability) = span(probe, CLI_SETUP, || -> Result<_, String> {
        let facts =
            std::fs::read_to_string(&files.facts).map_err(|e| format!("cannot read facts: {e}"))?;
        let kb = parse_facts(&facts)?;
        config.workers = 1;
        config.plan_shard_size = None;
        if journal.is_some() {
            config.routes = DURABLE_ROUTE.split(',').map(str::to_string).collect();
        }
        let descriptor = config.descriptor();
        if config.routes.is_empty() {
            let profile = ModelProfile::by_name("sim-gpt-4").ok_or("no sim-gpt-4 profile")?;
            let (durability, _) =
                cli_durability(journal, resume, &profile.name, &descriptor, probe)?;
            let sim = shim(
                probe,
                SIM,
                Box::new(SimulatedLlm::new(profile, Arc::new(kb)).with_seed(CLI_SEED)),
            );
            let retry = RetryLayer::new(sim, RETRIES).with_stats(Arc::clone(&stats));
            Ok((shim(probe, RETRY, Box::new(retry)), durability))
        } else {
            let routed = router(&config.routes, Arc::new(kb), CLI_SEED, &stats, None, probe)?;
            let name = routed.name().to_string();
            let (durability, warm) = cli_durability(journal, resume, &name, &descriptor, probe)?;
            let mut cache = CacheLayer::new(routed).with_stats(Arc::clone(&stats));
            if !warm.is_empty() {
                cache = cache.with_store(warm_cache_store(&warm));
            }
            Ok((shim(probe, CACHE, Box::new(cache)), durability))
        }
    })?;
    let (instances, cells) = span(probe, CLI_COLLECT, || {
        let mut instances = Vec::new();
        let mut cells = Vec::new();
        for (row_idx, row) in table.rows().iter().enumerate() {
            for attr in &attrs {
                if row
                    .get_by_name(attr)
                    .map(|v| v.is_missing())
                    .unwrap_or(true)
                {
                    continue;
                }
                instances.push(TaskInstance::ErrorDetection {
                    record: row.clone(),
                    attribute: attr.clone(),
                });
                cells.push((row_idx, attr.clone()));
            }
        }
        (instances, cells)
    });
    let result = execute(
        Run {
            model: &*model,
            config: &config,
            options: ExecutionOptions::default(),
            instances: &instances,
            examples: &[],
            durability: durability.clone(),
            gate: None,
            kill: None,
            tracer: Arc::new(NullTracer),
        },
        probe,
    )?;
    let stdout = span(probe, CLI_OUTPUT, || {
        use std::fmt::Write;
        let mut out = String::from("row\tattribute\tvalue\tverdict\treason\n");
        for ((row_idx, attr), prediction) in cells.iter().zip(&result.predictions) {
            if prediction.as_yes_no() != Some(true) {
                continue;
            }
            let value = table
                .row(*row_idx)
                .and_then(|r| r.get_by_name(attr))
                .map(|v| v.to_string())
                .unwrap_or_default();
            let reason = prediction
                .answer()
                .and_then(|a| a.reason.clone())
                .unwrap_or_default();
            let _ = writeln!(out, "{row_idx}\t{attr}\t{value}\terror\t{reason}");
        }
        out.into_bytes()
    });
    if let Some(p) = probe {
        p.add_stats(&stats);
        p.add(
            "journal.appends",
            durability.journal().map_or(0, |j| j.written()) as f64,
        );
    }
    Ok(Mirrored {
        stdout,
        tokens: result.usage.total_tokens(),
    })
}

/// p50 microseconds of appending a recorded journal's entries, one by one,
/// to a fresh journal under `scratch`.
fn reappend(recorded: &Path, scratch: &Path) -> Result<f64, String> {
    let recovered = DurableJournal::resume(recorded)?;
    let plan = recovered.require_header()?.plan;
    let journal = DurableJournal::fresh(scratch.join("append-probe.journal"), "bench", "", 0)
        .and_then(|j| j.ensure_header(plan).map(|()| j))
        .map_err(|e| format!("append probe journal: {e}"))?;
    let mut times = Vec::with_capacity(recovered.entries.len());
    for entry in &recovered.entries {
        let started = Instant::now();
        journal
            .append(entry)
            .map_err(|e| format!("append probe: {e}"))?;
        times.push(started.elapsed().as_secs_f64() * 1e6);
    }
    Ok(median(&times).unwrap_or(0.0))
}

/// Per-layer values of one traced pass. `wall` is the traced wall the
/// layers should explain; `replies` are a daemon pass's jobs as their
/// clients saw them (none for the CLI). A job's time outside its handler
/// is the daemon's own (wire, admission, settlement).
fn layer_values(probe: &Probe, wall: f64, replies: &[Reply]) -> BTreeMap<&'static str, f64> {
    let t = |name| probe.totals(name);
    let c = |name| probe.count(name);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let jobs: BTreeMap<u64, JobTrace> = probe
        .jobs
        .lock()
        .expect("probe jobs")
        .iter()
        .map(|j| (j.job, *j))
        .collect();
    let per_job_ms = |s: f64| ratio(s * 1e3, jobs.len() as f64);
    // (reply, its handler's trace), small jobs first-class: they carry the
    // latency metrics, heavy jobs only their share of the coverage.
    let traced: Vec<(&Reply, &JobTrace)> = replies
        .iter()
        .filter_map(|r| jobs.get(&r.job).map(|j| (r, j)))
        .collect();
    let small: Vec<&(&Reply, &JobTrace)> = traced.iter().filter(|(r, _)| !r.heavy).collect();
    let outside_ms: Vec<f64> = small
        .iter()
        .map(|(r, j)| (r.latency_s - j.handler_s) * 1e3)
        .collect();
    let waits: Vec<f64> = small.iter().map(|(_, j)| j.wait_s * 1e3).collect();
    let parse = c("stage.parse") - t(OPS_PARSE).incl_s;
    let ops_calls = (t(OPS).calls + t(OPS_PARSE).calls) as f64;
    let covered = probe.covered_s()
        + traced
            .iter()
            .map(|(r, j)| r.latency_s - j.handler_s)
            .sum::<f64>();
    let mut v = BTreeMap::new();
    v.insert("tabular.read_s", t(READ).self_s);
    v.insert("cli.setup_s", t(CLI_SETUP).self_s);
    v.insert("cli.collect_s", t(CLI_COLLECT).self_s);
    v.insert("cli.output_s", t(CLI_OUTPUT).self_s);
    v.insert(
        "plan.build_s",
        t(PLAN_BUILD).self_s - c("stage.render_build") + c("stage.plan_exec"),
    );
    v.insert("plan.requests", c("plan.requests"));
    v.insert("plan.deduped", c("plan.deduped"));
    v.insert("prompt.render_s", c("stage.render"));
    v.insert("prompt.parse_s", parse);
    v.insert(
        "exec.self_s",
        t(EXEC).self_s - c("stage.plan_exec") - c("stage.render_exec") - parse,
    );
    v.insert("llm.sim.calls", t(SIM).calls as f64);
    v.insert("llm.sim.busy_s", t(SIM).incl_s);
    v.insert("llm.retry.self_s", t(RETRY).self_s);
    v.insert("llm.retry.attempts", c("llm.retry.attempts"));
    v.insert("llm.cache.self_s", t(CACHE).self_s);
    v.insert(
        "llm.cache.hit_ratio",
        ratio(c("cache.hits"), c("cache.hits") + c("cache.misses")),
    );
    v.insert("llm.fault.injected", c("llm.fault.injected"));
    v.insert(
        "llm.router.self_s",
        t(ROUTER).self_s + ROUTES.iter().map(|r| t(r).self_s).sum::<f64>(),
    );
    v.insert(
        "llm.router.escalation_ratio",
        ratio(t(ROUTES[1]).calls as f64, t(ROUTES[0]).calls as f64),
    );
    v.insert("journal.appends", c("journal.appends"));
    v.insert("journal.recover_s", t(RECOVER).self_s);
    v.insert(
        "serve.outside_handler_ms",
        percentile(&outside_ms, 50.0).unwrap_or(0.0),
    );
    v.insert(
        "serve.turnstile_wait_p50_ms",
        percentile(&waits, 50.0).unwrap_or(0.0),
    );
    v.insert(
        "serve.turnstile_wait_p95_ms",
        percentile(&waits, 95.0).unwrap_or(0.0),
    );
    v.insert(
        "serve.turns",
        ratio(
            small.iter().map(|(_, j)| j.turns as f64).sum(),
            small.len() as f64,
        ),
    );
    v.insert("datasets.gen_ms", per_job_ms(t(GEN).self_s));
    v.insert("serve.handler_setup_ms", per_job_ms(t(HANDLER).self_s));
    v.insert(
        "obs.ops_record_us",
        ratio((t(OPS).incl_s + t(OPS_PARSE).incl_s) * 1e6, ops_calls),
    );
    v.insert("coverage_frac", ratio(covered, wall));
    v
}

/// Medians over the traced passes, in `PER_LAYER` order, plus the values
/// measured once per run.
fn finish(
    out: &mut Outcome,
    passes: &[BTreeMap<&'static str, f64>],
    once: &BTreeMap<&'static str, f64>,
    plain_walls: &[f64],
    traced_walls: &[f64],
) {
    let overhead = match (median(traced_walls), median(plain_walls)) {
        (Some(traced), Some(plain)) if plain > 0.0 => traced / plain - 1.0,
        _ => f64::NAN,
    };
    for m in PER_LAYER {
        let value = if m.name == "trace_overhead_frac" {
            overhead
        } else if let Some(v) = once.get(m.name) {
            *v
        } else {
            let values: Vec<f64> = passes
                .iter()
                .filter_map(|p| p.get(m.name).copied())
                .collect();
            median(&values).unwrap_or(0.0)
        };
        out.metrics.push((m.name, value, passes.len()));
    }
    out.extras.push((
        "plain_pass_s",
        median(plain_walls).unwrap_or(f64::NAN),
        "s",
        plain_walls.len(),
    ));
    out.extras.push((
        "traced_pass_s",
        median(traced_walls).unwrap_or(f64::NAN),
        "s",
        traced_walls.len(),
    ));
    let coverage = out
        .metrics
        .iter()
        .find(|m| m.0 == "coverage_frac")
        .map_or(0.0, |m| m.1);
    if coverage < 0.9 {
        out.problems.push(format!(
            "layer self-times explain only {coverage:.3} of the traced wall"
        ));
    }
}

pub fn run(workload: Workload, ctx: &Ctx) -> Result<Outcome, String> {
    match workload {
        Workload::DetectBulk => trace_detect(ctx, false),
        Workload::DetectDurable => trace_detect(ctx, true),
        Workload::ServeSmall => trace_serve(ctx, false),
        Workload::ServeMixed => trace_serve(ctx, true),
    }
}

fn trace_detect(ctx: &Ctx, durable: bool) -> Result<Outcome, String> {
    let files = detect_files(ctx, durable)?;
    let cells = files.inputs.cells;
    let mut out = Outcome::default();

    // What the binary prints and bills on the same inputs.
    let binary_journal = durable.then(|| ctx.path("binary.journal"));
    out.attempted += 1;
    let binary = detect_once(
        ctx,
        detect_command(
            ctx,
            &files.csv,
            &files.facts,
            binary_journal.as_deref(),
            false,
        ),
        cells,
    )?;
    let expected = (binary.exit.stdout, binary.footer.tokens);

    let journal = durable.then(|| ctx.path("mirror.journal"));
    let mirrored = |probe: Option<&Arc<Probe>>| -> Result<Vec<Mirrored>, String> {
        let mut passes = vec![detect_pass(&files, journal.as_deref(), false, probe)?];
        if durable {
            passes.push(detect_pass(&files, journal.as_deref(), true, probe)?);
        }
        Ok(passes)
    };
    let (mut plain_walls, mut traced_walls, mut passes) = (Vec::new(), Vec::new(), Vec::new());
    mirrored(None)?;
    let started = Instant::now();
    for round in 0.. {
        if !passes.is_empty() && started.elapsed().as_secs_f64() >= ctx.seconds {
            break;
        }
        // Untraced and traced passes alternate which goes first.
        if round % 2 == 0 {
            let t = Instant::now();
            mirrored(None)?;
            plain_walls.push(t.elapsed().as_secs_f64());
        }
        let probe = Arc::new(Probe::default());
        let t = Instant::now();
        let detected = mirrored(Some(&probe))?;
        let wall = t.elapsed().as_secs_f64();
        traced_walls.push(wall);
        out.attempted += detected.len();
        for d in &detected {
            if d.stdout != expected.0 || d.tokens != expected.1 {
                out.fail(format!(
                    "the mirror billed {} tokens and printed {} bytes; the binary {} and {}",
                    d.tokens,
                    d.stdout.len(),
                    expected.1,
                    expected.0.len()
                ));
            }
        }
        let mut values = layer_values(&probe, wall, &[]);
        if let Some(journal) = &journal {
            values.insert("journal.append_us", reappend(journal, &ctx.scratch)?);
        }
        passes.push(values);
        if round % 2 == 1 {
            let t = Instant::now();
            mirrored(None)?;
            plain_walls.push(t.elapsed().as_secs_f64());
        }
    }
    finish(
        &mut out,
        &passes,
        &BTreeMap::new(),
        &plain_walls,
        &traced_walls,
    );
    Ok(out)
}

/// The daemon's job handler, mirrored (see the module docs).
struct ServeMirror {
    probe: Option<Arc<Probe>>,
    ops: Arc<OpsPlane>,
    journal_dir: Option<PathBuf>,
}

impl ServeMirror {
    fn handler(self: &Arc<Self>) -> Arc<JobHandler> {
        let mirror = Arc::clone(self);
        Arc::new(move |body: &Json, grant: &JobGrant| {
            let started = Instant::now();
            let gate = mirror.probe.as_ref().map(|p| {
                Arc::new(TimedGate {
                    inner: Arc::clone(&grant.gate),
                    probe: Arc::clone(p),
                    waited: Mutex::new((0.0, 0)),
                })
            });
            let outcome = mirror.handle(body, grant, gate.clone());
            if let (Some(p), Some(gate)) = (&mirror.probe, gate) {
                let (wait_s, turns) = *gate.waited.lock().expect("gate waits");
                p.jobs.lock().expect("probe jobs").push(JobTrace {
                    job: grant.job,
                    handler_s: started.elapsed().as_secs_f64(),
                    wait_s,
                    turns,
                });
            }
            outcome
        })
    }

    fn handle(
        &self,
        body: &Json,
        grant: &JobGrant,
        gate: Option<Arc<TimedGate>>,
    ) -> Result<JobOutcome, String> {
        let probe = self.probe.as_ref();
        let name = body
            .get("dataset")
            .and_then(Json::as_str)
            .ok_or("submit has no \"dataset\" field")?;
        let scale = body.get("scale").and_then(Json::as_f64).unwrap_or(0.5);
        let seed = body
            .get("seed")
            .and_then(Json::as_usize)
            .map_or(SERVE_SEED, |s| s as u64);
        let ds = span(probe, GEN, || dataset_by_name(name, scale, seed))
            .ok_or_else(|| format!("unknown dataset {name:?}"))?;
        let tenant = body
            .get("tenant")
            .and_then(Json::as_str)
            .unwrap_or("default");
        let stats = MiddlewareStats::shared();
        let (model, config, durability, journal_state) =
            span(probe, HANDLER, || -> Result<_, String> {
                let routes: Vec<String> = body
                    .get("route")
                    .and_then(Json::as_str)
                    .map(|spec| {
                        spec.split(',')
                            .map(str::trim)
                            .filter(|s| !s.is_empty())
                            .map(str::to_string)
                            .collect()
                    })
                    .unwrap_or_default();
                let scenario = match body.get("scenario").and_then(Json::as_str) {
                    Some(scenario) => Some(
                        FaultScenario::by_name(scenario)
                            .ok_or_else(|| format!("unknown fault scenario {scenario:?}"))?,
                    ),
                    None => None,
                };
                let mut config = PipelineConfig::best(ds.task);
                config.plan_shard_size = Some(SERVE_SHARD);
                config.routes = routes.clone();
                let kb = Arc::new(ds.kb.clone());
                let (model_name, core) = if routes.is_empty() {
                    let sim = shim(
                        probe,
                        SIM,
                        Box::new(SimulatedLlm::new(ModelProfile::gpt4(), kb).with_seed(seed)),
                    );
                    let faulty = match scenario {
                        Some(scenario) => FaultLayer::scenario(sim, scenario, seed),
                        None => FaultLayer::new(sim, 0.0, seed),
                    }
                    .with_stats(Arc::clone(&stats));
                    let faulty = shim(probe, FAULT, Box::new(faulty));
                    let retry = RetryLayer::new(faulty, RETRIES).with_stats(Arc::clone(&stats));
                    ("sim-gpt-4".to_string(), shim(probe, RETRY, Box::new(retry)))
                } else {
                    let routed =
                        router(&routes, kb, seed, &stats, scenario.map(|s| (0, s)), probe)?;
                    (routed.name().to_string(), routed)
                };
                let mut durability = Durability::new();
                let mut journal_state = "off";
                if let (Some(dir), Some(key)) = (
                    &self.journal_dir,
                    body.get("journal_key").and_then(Json::as_str),
                ) {
                    let path = dir.join(format!("{tenant}-{key}.jsonl"));
                    if path.exists() {
                        return Err(format!(
                            "the mirror journals fresh keys only: {}",
                            path.display()
                        ));
                    }
                    let journal =
                        DurableJournal::fresh(&path, &model_name, &config.descriptor(), seed)
                            .map_err(|e| format!("cannot journal to {}: {e}", path.display()))?;
                    durability = durability.with_journal(Arc::new(journal));
                    journal_state = "fresh";
                }
                let cache = CacheLayer::new(core).with_stats(Arc::clone(&stats));
                Ok((
                    shim(probe, CACHE, Box::new(cache)),
                    config,
                    durability,
                    journal_state,
                ))
            })?;
        let mut tracer = self.ops.tracer_for(tenant);
        if let Some(p) = probe {
            tracer = Arc::new(TimedTracer {
                inner: tracer,
                probe: Arc::clone(p),
            });
        }
        let gate: Arc<dyn ShardGate> = match gate {
            Some(gate) => gate,
            None => Arc::clone(&grant.gate),
        };
        let result = execute(
            Run {
                model: &*model,
                config: &config,
                options: grant.options,
                instances: &ds.instances,
                examples: &ds.few_shot,
                durability: durability.clone(),
                gate: Some(gate),
                kill: Some(grant.halt.clone()),
                tracer,
            },
            probe,
        )?;
        if let Some(p) = probe {
            p.add_stats(&stats);
            p.add(
                "journal.appends",
                durability.journal().map_or(0, |j| j.written()) as f64,
            );
        }
        Ok(span(probe, HANDLER, || {
            let killed = grant.halt.fired();
            let budget_tripped = result.metrics.cancelled > 0
                || result
                    .predictions
                    .iter()
                    .any(|p| p.failure() == Some(FailureKind::BudgetExhausted));
            JobOutcome {
                reply: vec![
                    (
                        "fingerprint".to_string(),
                        Json::Str(format!("{:016x}", result_fingerprint(&result))),
                    ),
                    (
                        "answered".to_string(),
                        Json::Num((result.predictions.len() - result.failed_count()) as f64),
                    ),
                    (
                        "failed".to_string(),
                        Json::Num(result.failed_count() as f64),
                    ),
                    ("killed".to_string(), Json::Bool(killed)),
                    ("journal".to_string(), Json::Str(journal_state.to_string())),
                    (
                        "replayed".to_string(),
                        Json::Num(result.metrics.journal_replayed as f64),
                    ),
                ],
                tokens_billed: result.usage.total_tokens(),
                cost_usd: result.usage.cost_usd,
                budget_tripped,
                metrics: result.metrics.clone(),
            }
        }))
    }
}

/// One pass of daemon traffic against an in-process daemon running the
/// mirrored handler. Returns the pass wall and the replies.
fn serve_pass(
    ctx: &Ctx,
    small: &[Job],
    heavy: Option<&Job>,
    probe: Option<Arc<Probe>>,
    journal_prefix: &str,
) -> Result<(f64, Vec<Reply>, Vec<String>), String> {
    let ops = Arc::new(OpsPlane::new(Vec::new(), WindowConfig::default()));
    let journal_dir = heavy.map(|_| ctx.path("mirror-journals"));
    if let Some(dir) = &journal_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    let mirror = Arc::new(ServeMirror {
        probe,
        ops: Arc::clone(&ops),
        journal_dir,
    });
    let daemon = Daemon::bind(
        "127.0.0.1:0",
        JobScheduler::new(TenantLedger::new()).with_policy(OverloadPolicy::default()),
        mirror.handler(),
    )
    .map_err(|e| format!("cannot bind the in-process daemon: {e}"))?
    .with_wire_limits(WireLimits::default())
    .with_ops(ops);
    let addr = daemon.local_addr().to_string();
    std::thread::scope(|scope| {
        let server = scope.spawn(|| daemon.run());
        let traffic = || -> Result<_, String> {
            let mut conns = [Conn::open(&addr)?, Conn::open(&addr)?];
            let started = Instant::now();
            let traffic = Traffic {
                small,
                heavy,
                deadline: started,
                // A fixed pass: two rounds of the small jobs, or two heavy
                // jobs with small jobs beside them.
                small_limit: heavy.is_none().then_some(2 * small.len()),
                heavy_limit: Some(2),
                journal_prefix,
            };
            let (replies, failures, ended) = traffic.run(&mut conns);
            Ok(((ended - started).as_secs_f64(), replies, failures))
        };
        let result = traffic();
        // Stops the daemon however the traffic ended; its connection
        // threads see the flag at their next read poll.
        daemon.request_shutdown();
        server
            .join()
            .map_err(|_| "the in-process daemon panicked".to_string())?
            .map_err(|e| format!("the in-process daemon failed: {e}"))?;
        result
    })
}

fn trace_serve(ctx: &Ctx, mixed: bool) -> Result<Outcome, String> {
    let small = gen::small_jobs(ctx.seed);
    let heavy = mixed.then(gen::heavy_job);
    let mut out = Outcome::default();

    // What the binary replies for every distinct job, and its wire's ping.
    let binary_dir = ctx.path("binary-journals");
    std::fs::create_dir_all(&binary_dir)
        .map_err(|e| format!("cannot create {}: {e}", binary_dir.display()))?;
    let (daemon, _) = start_daemon(ctx, &daemon_args(mixed.then_some(binary_dir.as_path())))?;
    let mut conn = Conn::open(&daemon.addr)?;
    let mut expected = Vec::new();
    for (i, job) in small.iter().enumerate() {
        expected.push(drive::submit(
            &mut conn,
            job,
            TENANTS[i % TENANTS.len()],
            None,
        )?);
    }
    if let Some(job) = &heavy {
        expected.push(drive::submit(&mut conn, job, "bulk", Some("binary-0"))?);
    }
    out.attempted += expected.len();
    let mut keepalive = Vec::new();
    let mut fresh = Vec::new();
    for _ in 0..PINGS {
        let t = Instant::now();
        conn.call(r#"{"op":"ping"}"#)?;
        keepalive.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        Conn::open(&daemon.addr)?.call(r#"{"op":"ping"}"#)?;
        fresh.push(t.elapsed().as_secs_f64() * 1e3);
    }
    drop(conn);
    daemon.shutdown()?;
    let once = BTreeMap::from([
        ("serve.ping_keepalive_ms", median(&keepalive).unwrap_or(0.0)),
        ("serve.ping_fresh_ms", median(&fresh).unwrap_or(0.0)),
    ]);

    let (mut plain_walls, mut traced_walls, mut passes) = (Vec::new(), Vec::new(), Vec::new());
    let mut pass = 0;
    let mut plain = |out: &mut Outcome, walls: Option<&mut Vec<f64>>| -> Result<(), String> {
        pass += 1;
        let (wall, replies, failures) =
            serve_pass(ctx, &small, heavy.as_ref(), None, &format!("plain{pass}"))?;
        out.attempted += replies.len() + failures.len();
        for f in failures {
            out.fail(f);
        }
        if let Some(walls) = walls {
            walls.push(wall);
        }
        Ok(())
    };
    plain(&mut out, None)?;
    let started = Instant::now();
    for round in 0.. {
        if !passes.is_empty() && started.elapsed().as_secs_f64() >= ctx.seconds {
            break;
        }
        // Untraced and traced passes alternate which goes first.
        if round % 2 == 0 {
            plain(&mut out, Some(&mut plain_walls))?;
        }
        let probe = Arc::new(Probe::default());
        let prefix = format!("traced{round}");
        let (wall, replies, failures) = serve_pass(
            ctx,
            &small,
            heavy.as_ref(),
            Some(Arc::clone(&probe)),
            &prefix,
        )?;
        traced_walls.push(wall);
        out.attempted += replies.len() + failures.len();
        for f in failures {
            out.fail(f);
        }
        let mut all = expected.clone();
        all.extend(replies.iter().cloned());
        for m in check_repeats(&all).0 {
            out.fail(format!("mirror against binary: {m}"));
        }

        // The jobs of two connections overlap in time, so the wall the
        // layers must explain is the jobs' summed client latency.
        let client_s: f64 = replies.iter().map(|r| r.latency_s).sum();
        let mut values = layer_values(&probe, client_s, &replies);
        if mixed {
            let recorded = ctx
                .path("mirror-journals")
                .join(format!("bulk-{prefix}-0.jsonl"));
            values.insert("journal.append_us", reappend(&recorded, &ctx.scratch)?);
        }
        passes.push(values);
        if round % 2 == 1 {
            plain(&mut out, Some(&mut plain_walls))?;
        }
    }
    finish(&mut out, &passes, &once, &plain_walls, &traced_walls);
    Ok(out)
}
