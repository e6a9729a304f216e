//! `dprep serve` — the multi-tenant preprocessing daemon.
//!
//! Binds a TCP socket and serves newline-delimited JSON jobs against the
//! pinned benchmark datasets: each `submit` names a dataset workload, a
//! tenant, and optional budgets, and runs through the shared
//! [`JobScheduler`] so concurrent jobs interleave fairly at plan-shard
//! granularity and bill against per-tenant token allowances. Per-job
//! journals (under `--journal-dir`) make submitted jobs crash-safe: a
//! resubmitted job with the same `journal_key` replays its journal and
//! executes only the remainder, bit-identical to an uninterrupted run.
//!
//! `--check on` runs the serving smoke drill instead of listening
//! publicly: an ephemeral daemon, two tenants submitting concurrently,
//! results checked bit-identical against one-shot runs, the Prometheus
//! tenant series and the ledger reconciled against the replies, then a
//! clean shutdown. CI gates on it.

use std::io::BufReader;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;

use dprep_core::serve::{roundtrip, Daemon, JobGrant, JobHandler, JobOutcome, JobScheduler};
use dprep_core::{
    result_fingerprint, Durability, FailureKind, OpsPlane, OverloadPolicy, PipelineConfig,
    Preprocessor, TenantLedger, WireLimits,
};
use dprep_datasets::{check_scale, dataset_by_name};
use dprep_llm::{
    warm_cache_store, CacheLayer, FaultLayer, FaultScenario, ModelProfile, RetryLayer, SimulatedLlm,
};
use dprep_obs::{DurableJournal, FlightRecorder, Json, SloSpec, WindowConfig};

use crate::args::Flags;

/// Daemon-level defaults a `submit` body can override per job.
#[derive(Debug, Clone)]
pub struct HandlerDefaults {
    /// Seed for dataset generation and the simulator.
    pub seed: u64,
    /// Retry budget for the per-job middleware stack.
    pub retries: u32,
    /// Streaming shard size; small shards = fine-grained fair-share turns.
    pub plan_shard_size: usize,
    /// Per-job journal directory (`None` = jobs are not journaled).
    pub journal_dir: Option<PathBuf>,
    /// Default cascade routes (`--route a,b`, cheapest first); empty serves
    /// every job single-model on sim-gpt-4.
    pub routes: Vec<String>,
    /// Default escalation-policy spec (canonical form).
    pub escalate_on: Option<String>,
}

impl Default for HandlerDefaults {
    fn default() -> Self {
        HandlerDefaults {
            seed: 7,
            retries: 2,
            plan_shard_size: 4,
            journal_dir: None,
            routes: Vec::new(),
            escalate_on: None,
        }
    }
}

/// Keeps journal filenames shell- and filesystem-safe whatever the wire
/// sends as tenant or key.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// The production job handler: runs one dataset workload under the
/// grant's clamped options with the grant's shard gate wired in.
///
/// `submit` body fields (beyond `tenant` / `workers` / `token_budget` /
/// `deadline_secs`, which the daemon consumes):
///
/// * `dataset` (required), `scale` (in `(0, MAX_SCALE]`, checked before
///   the dataset is built), `seed` — the workload,
/// * `plan_shard_size`, `retries` — serving knobs,
/// * `scenario` — a chaos fault-scenario name for the job's middleware,
/// * `journal_key` — with `--journal-dir`, journal this job at
///   `DIR/<tenant>-<key>.jsonl` and resume it when the file exists,
/// * `kill_after` — drill hook: abort after the Nth journaled terminal.
///
/// With an ops plane attached, every job's trace stream feeds the tenant's
/// sliding window and SLO engine through [`OpsPlane::tracer_for`].
pub fn dataset_handler(defaults: HandlerDefaults, ops: Option<Arc<OpsPlane>>) -> Arc<JobHandler> {
    Arc::new(move |body: &Json, grant: &JobGrant| {
        let name = body
            .get("dataset")
            .and_then(Json::as_str)
            .ok_or("submit has no \"dataset\" field")?;
        let scale = check_scale(body.get("scale").and_then(Json::as_f64).unwrap_or(0.5))?;
        let seed = body
            .get("seed")
            .and_then(Json::as_usize)
            .map_or(defaults.seed, |s| s as u64);
        let retries = body
            .get("retries")
            .and_then(Json::as_usize)
            .map_or(defaults.retries, |r| r as u32);
        let shard_size = body
            .get("plan_shard_size")
            .and_then(Json::as_usize)
            .unwrap_or(defaults.plan_shard_size);
        let ds = dataset_by_name(name, scale, seed)
            .ok_or_else(|| format!("unknown dataset {name:?}"))?;
        let routes: Vec<String> = match body.get("route").and_then(Json::as_str) {
            Some(spec) => spec
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(str::to_string)
                .collect(),
            None => defaults.routes.clone(),
        };
        if routes.len() == 1 {
            return Err("\"route\" needs at least two models, cheapest first".into());
        }
        let escalate_on = match body
            .get("escalate_on")
            .and_then(Json::as_str)
            .map(str::to_string)
            .or_else(|| defaults.escalate_on.clone())
        {
            Some(spec) => Some(
                dprep_llm::EscalationPolicy::parse(&spec)
                    .map_err(|e| format!("escalate_on: {e}"))?
                    .canonical(),
            ),
            None => None,
        };
        let scenario = match body.get("scenario").and_then(Json::as_str) {
            Some(scenario_name) => Some(
                FaultScenario::by_name(scenario_name)
                    .ok_or_else(|| format!("unknown fault scenario {scenario_name:?}"))?,
            ),
            None => None,
        };

        let mut config = PipelineConfig::best(ds.task);
        config.plan_shard_size = Some(shard_size.max(1));
        config.routes = routes.clone();
        config.escalate_on = escalate_on.clone();

        // The middleware core (everything below the per-job cache):
        // single-model jobs fault/retry one sim; routed jobs cascade, the
        // scenario faulting the primary route only. Its name is the
        // journal's model identity, so a single-model job journal never
        // resumes a routed one or vice versa.
        let kb = Arc::new(ds.kb.clone());
        let (model_name, core): (String, Box<dyn dprep_llm::ChatModel>) = if routes.is_empty() {
            let sim = SimulatedLlm::new(ModelProfile::gpt4(), kb).with_seed(seed);
            let faulty = match scenario {
                Some(scenario) => FaultLayer::scenario(sim, scenario, seed),
                None => FaultLayer::new(sim, 0.0, seed),
            };
            (
                "sim-gpt-4".to_string(),
                Box::new(RetryLayer::new(faulty, retries)),
            )
        } else {
            let stats = dprep_llm::MiddlewareStats::shared();
            let router = crate::commands::build_router(
                &routes,
                escalate_on.as_deref(),
                kb,
                seed,
                retries,
                &stats,
                scenario.map(|s| (0, s)),
            )?;
            (
                dprep_llm::ChatModel::name(&router).to_string(),
                Box::new(router),
            )
        };

        // Per-job durability: fresh journal, or resume when a previous
        // incarnation of the same (tenant, journal_key) left one behind.
        let mut durability = Durability::new();
        let mut warm = Vec::new();
        let mut journal_state = "off";
        if let (Some(dir), Some(key)) = (
            defaults.journal_dir.as_ref(),
            body.get("journal_key").and_then(Json::as_str),
        ) {
            let tenant = body
                .get("tenant")
                .and_then(Json::as_str)
                .unwrap_or("default");
            let path = dir.join(format!("{}-{}.jsonl", sanitize(tenant), sanitize(key)));
            let descriptor = config.descriptor();
            let existing = std::fs::metadata(&path)
                .map(|m| m.len() > 0)
                .unwrap_or(false);
            if existing {
                let recovered = DurableJournal::resume(&path)
                    .map_err(|e| format!("cannot resume job journal {}: {e}", path.display()))?;
                match recovered.header.clone() {
                    Some(header) => {
                        if header.model != model_name
                            || header.config != descriptor
                            || header.seed != seed
                        {
                            return Err(format!(
                                "job journal {} was recorded for a different workload; \
                                 refusing to resume",
                                path.display()
                            ));
                        }
                        warm = recovered.entries.clone();
                        durability = durability
                            .with_replay(&recovered.entries, header.plan)
                            .with_journal(Arc::new(recovered.journal));
                        journal_state = "resumed";
                    }
                    None => {
                        // Crashed before the header landed: start over.
                        let journal = DurableJournal::fresh(&path, &model_name, &descriptor, seed)
                            .map_err(|e| format!("cannot journal to {}: {e}", path.display()))?;
                        durability = durability.with_journal(Arc::new(journal));
                        journal_state = "fresh";
                    }
                }
            } else {
                let journal = DurableJournal::fresh(&path, &model_name, &descriptor, seed)
                    .map_err(|e| format!("cannot journal to {}: {e}", path.display()))?;
                durability = durability.with_journal(Arc::new(journal));
                journal_state = "fresh";
            }
        }

        let mut model = CacheLayer::new(core);
        if !warm.is_empty() {
            model = model.with_store(warm_cache_store(&warm));
        }

        // The grant's halt doubles as the drill hook: a drain triggers it,
        // `kill_after` arms its countdown. Wiring it into the executor is
        // what makes a drain checkpoint journaled jobs (and stop
        // unjournaled ones) at their next shard boundary.
        if let Some(n) = body.get("kill_after").and_then(Json::as_usize) {
            if n == 0 {
                return Err("\"kill_after\" must be at least 1".into());
            }
            grant.halt.arm_after(n);
        }
        let mut preprocessor = Preprocessor::new(&model, config)
            .with_exec_options(grant.options)
            .with_durability(durability)
            .with_shard_gate(Arc::clone(&grant.gate))
            .with_kill_switch(grant.halt.clone());
        if let Some(ops) = &ops {
            let tenant = body
                .get("tenant")
                .and_then(Json::as_str)
                .unwrap_or("default");
            preprocessor = preprocessor.with_tracer(ops.tracer_for(tenant));
        }
        let result = preprocessor.try_run(&ds.instances, &ds.few_shot)?;

        let killed = grant.halt.fired();
        let budget_tripped = result.metrics.cancelled > 0
            || result
                .predictions
                .iter()
                .any(|p| p.failure() == Some(FailureKind::BudgetExhausted));
        Ok(JobOutcome {
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
            metrics: result.metrics,
        })
    })
}

/// Parses `--tenant-budgets a=1000,b=2000` into a configured ledger.
fn ledger_from_flags(flags: &Flags) -> Result<TenantLedger, String> {
    let default_budget =
        match flags.get("default-tenant-budget") {
            None => None,
            Some(raw) => Some(raw.parse::<usize>().map_err(|_| {
                format!("--default-tenant-budget expects a token count, got {raw:?}")
            })?),
        };
    let ledger = TenantLedger::new().with_default_budget(default_budget);
    if let Some(spec) = flags.get("tenant-budgets") {
        for pair in spec.split(',').filter(|p| !p.is_empty()) {
            let (tenant, tokens) = pair.split_once('=').ok_or_else(|| {
                format!("--tenant-budgets expects NAME=TOKENS pairs, got {pair:?}")
            })?;
            let tokens = tokens.parse::<usize>().map_err(|_| {
                format!("--tenant-budgets: {tokens:?} is not a token count (in {pair:?})")
            })?;
            ledger.set_budget(tenant, Some(tokens));
        }
    }
    Ok(ledger)
}

/// Parses the overload-protection flags into a policy. Every cap is off
/// by default (the unprotected daemon): `--max-inflight N` bounds
/// concurrent jobs, `--max-queued N` adds a bounded wait queue on top
/// (without it, excess jobs shed immediately), `--tenant-inflight N` caps
/// one tenant's concurrency, `--default-deadline SECS` applies a deadline
/// to jobs that did not request one.
fn policy_from_flags(flags: &Flags) -> Result<OverloadPolicy, String> {
    let cap = |name: &str, floor: usize| -> Result<Option<usize>, String> {
        match flags.get(name) {
            None => Ok(None),
            Some(_) => {
                let n = flags.usize_or(name, 0)?;
                if n < floor {
                    return Err(format!("--{name} must be at least {floor}"));
                }
                Ok(Some(n))
            }
        }
    };
    let default_deadline_secs = match flags.get("default-deadline") {
        None => None,
        Some(_) => {
            let secs = flags.f64_or("default-deadline", 0.0)?;
            if secs <= 0.0 {
                return Err("--default-deadline must be positive seconds".into());
            }
            Some(secs)
        }
    };
    Ok(OverloadPolicy {
        max_inflight: cap("max-inflight", 1)?,
        max_queued: cap("max-queued", 0)?,
        tenant_inflight: cap("tenant-inflight", 1)?,
        default_deadline_secs,
    })
}

/// Parses the wire-hardening flags, defaulting to [`WireLimits::default`]:
/// `--max-frame-bytes`, `--frame-timeout SECS`, `--idle-timeout SECS`,
/// `--write-timeout SECS`.
fn wire_from_flags(flags: &Flags) -> Result<WireLimits, String> {
    let defaults = WireLimits::default();
    let limits = WireLimits {
        max_frame_bytes: flags.usize_or("max-frame-bytes", defaults.max_frame_bytes)?,
        frame_secs: flags.f64_or("frame-timeout", defaults.frame_secs)?,
        idle_secs: flags.f64_or("idle-timeout", defaults.idle_secs)?,
        write_secs: flags.f64_or("write-timeout", defaults.write_secs)?,
    };
    if limits.max_frame_bytes == 0 {
        return Err("--max-frame-bytes must be at least 1".into());
    }
    for (name, secs) in [
        ("frame-timeout", limits.frame_secs),
        ("idle-timeout", limits.idle_secs),
        ("write-timeout", limits.write_secs),
    ] {
        if secs <= 0.0 {
            return Err(format!("--{name} must be positive seconds"));
        }
    }
    Ok(limits)
}

/// Builds the daemon's live ops plane from `--slo` (objective spec list,
/// e.g. `latency-p95=30,failure-rate=0.1,budget-headroom=0.25`) and
/// `--recorder DIR` (flight-recorder postmortem directory). The plane is
/// always on — with no `--slo` it still aggregates per-tenant windows for
/// `dprep top`, just without alerting.
fn ops_from_flags(flags: &Flags) -> Result<Arc<OpsPlane>, String> {
    let specs = match flags.get("slo") {
        Some(spec) => SloSpec::parse_list(spec).map_err(|e| format!("--slo: {e}"))?,
        None => Vec::new(),
    };
    let mut plane = OpsPlane::new(specs, WindowConfig::default());
    if let Some(dir) = flags.get("recorder") {
        let dir = PathBuf::from(dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create --recorder {}: {e}", dir.display()))?;
        plane = plane.with_recorder(Arc::new(FlightRecorder::new(&dir, 256)));
    }
    Ok(Arc::new(plane))
}

/// Runs the command.
pub fn run(flags: &Flags) -> Result<(), String> {
    let (routes, escalate_on) = crate::args::route_spec(flags)?;
    let defaults = HandlerDefaults {
        seed: flags.seed()?,
        retries: flags.usize_or("retries", 2)? as u32,
        plan_shard_size: {
            let n = flags.usize_or("plan-shard-size", 4)?;
            if n == 0 {
                return Err("--plan-shard-size must be at least 1".into());
            }
            n
        },
        journal_dir: flags.get("journal-dir").map(PathBuf::from),
        routes,
        escalate_on,
    };
    if let Some(dir) = &defaults.journal_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create --journal-dir {}: {e}", dir.display()))?;
    }
    if flags.bool_or("check", false)? {
        return self_check(&defaults);
    }
    let host = flags.get("host").unwrap_or("127.0.0.1");
    let port = flags.usize_or("port", 7077)? as u16;
    let ledger = ledger_from_flags(flags)?;
    let policy = policy_from_flags(flags)?;
    let wire = wire_from_flags(flags)?;
    let ops = ops_from_flags(flags)?;
    let daemon = Daemon::bind(
        (host, port),
        JobScheduler::new(ledger).with_policy(policy),
        dataset_handler(defaults, Some(Arc::clone(&ops))),
    )
    .map_err(|e| format!("cannot bind {host}:{port}: {e}"))?
    .with_wire_limits(wire)
    .with_ops(ops);
    println!("dprep serve listening on {}", daemon.local_addr());
    println!(
        "ops: ping | submit | stats | metrics | health | drain | shutdown \
         (one JSON object per line)"
    );
    daemon.run().map_err(|e| format!("serve failed: {e}"))
}

/// A `submit` body for the self-check drill.
fn submit_body(tenant: &str, dataset: &str, workers: usize, budget: Option<usize>) -> Json {
    let mut fields = vec![
        ("op".to_string(), Json::Str("submit".to_string())),
        ("tenant".to_string(), Json::Str(tenant.to_string())),
        ("dataset".to_string(), Json::Str(dataset.to_string())),
        ("scale".to_string(), Json::Num(0.5)),
        ("workers".to_string(), Json::Num(workers as f64)),
        ("plan_shard_size".to_string(), Json::Num(2.0)),
    ];
    if let Some(b) = budget {
        fields.push(("token_budget".to_string(), Json::Num(b as f64)));
    }
    Json::Obj(fields)
}

/// The serving smoke drill behind `--check on` (CI gates on it): an
/// ephemeral daemon, two tenants submitting concurrently, bit-identity
/// against one-shot runs, metrics/ledger reconciliation, clean shutdown.
fn self_check(defaults: &HandlerDefaults) -> Result<(), String> {
    let handler = dataset_handler(defaults.clone(), None);

    // One-shot references, computed through the same handler but outside
    // the daemon: an idle scheduler grants every turn immediately.
    let reference = |tenant: &str, dataset: &str| -> Result<(String, usize), String> {
        let scheduler = JobScheduler::new(TenantLedger::new());
        let body = submit_body(tenant, dataset, 2, None);
        let (_, outcome) = scheduler
            .run_job(tenant, exec_options(2), |grant| handler(&body, grant))
            .map_err(|e| e.to_string())?;
        let fp = outcome
            .reply
            .iter()
            .find(|(k, _)| k == "fingerprint")
            .and_then(|(_, v)| v.as_str().map(str::to_string))
            .ok_or("reference reply has no fingerprint")?;
        Ok((fp, outcome.tokens_billed))
    };
    let (alpha_fp, alpha_tokens) = reference("alpha", "Restaurant")?;
    let (beta_fp, beta_tokens) = reference("beta", "Adult")?;

    let daemon = Daemon::bind(
        "127.0.0.1:0",
        JobScheduler::new(TenantLedger::new()),
        dataset_handler(defaults.clone(), None),
    )
    .map_err(|e| format!("cannot bind self-check daemon: {e}"))?;
    let addr = daemon.local_addr();

    let outcome: Result<(), String> = std::thread::scope(|scope| {
        let server = scope.spawn(|| daemon.run());
        let submit = |tenant: &str, dataset: &str| -> Result<Json, String> {
            let mut stream =
                TcpStream::connect(addr).map_err(|e| format!("connect failed: {e}"))?;
            let mut reader = BufReader::new(
                stream
                    .try_clone()
                    .map_err(|e| format!("clone failed: {e}"))?,
            );
            roundtrip(
                &mut stream,
                &mut reader,
                &submit_body(tenant, dataset, 2, None),
            )
        };
        // Two tenants in flight at once: their shards interleave through
        // the turnstile, their results must not.
        let (alpha, beta) = std::thread::scope(|jobs| {
            let a = jobs.spawn(|| submit("alpha", "Restaurant"));
            let b = jobs.spawn(|| submit("beta", "Adult"));
            (
                a.join().expect("alpha client"),
                b.join().expect("beta client"),
            )
        });
        let alpha = alpha?;
        let beta = beta?;
        let field = |reply: &Json, key: &str| -> Result<String, String> {
            reply
                .get(key)
                .map(|v| v.as_str().map_or_else(|| v.to_json(), str::to_string))
                .ok_or_else(|| format!("reply has no {key:?}: {}", reply.to_json()))
        };
        if field(&alpha, "fingerprint")? != alpha_fp {
            return Err("tenant alpha: concurrent result differs from one-shot run".into());
        }
        if field(&beta, "fingerprint")? != beta_fp {
            return Err("tenant beta: concurrent result differs from one-shot run".into());
        }
        let billed: usize = alpha
            .get("tokens_billed")
            .and_then(Json::as_usize)
            .unwrap_or(0)
            + beta
                .get("tokens_billed")
                .and_then(Json::as_usize)
                .unwrap_or(0);
        if billed != alpha_tokens + beta_tokens {
            return Err(format!(
                "billed tokens diverge from one-shot runs: {billed} vs {}",
                alpha_tokens + beta_tokens
            ));
        }

        let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect failed: {e}"))?;
        let mut reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| format!("clone failed: {e}"))?,
        );
        let stats = roundtrip(
            &mut stream,
            &mut reader,
            &Json::Obj(vec![("op".to_string(), Json::Str("stats".to_string()))]),
        )?;
        let ledger_total: usize = match stats.get("tenants") {
            Some(Json::Arr(rows)) => rows
                .iter()
                .filter_map(|r| r.get("tokens_billed").and_then(Json::as_usize))
                .sum(),
            _ => return Err(format!("stats has no tenants array: {}", stats.to_json())),
        };
        if ledger_total != billed {
            return Err(format!(
                "ledger reconciliation failed: ledger bills {ledger_total}, replies bill {billed}"
            ));
        }
        let metrics = roundtrip(
            &mut stream,
            &mut reader,
            &Json::Obj(vec![("op".to_string(), Json::Str("metrics".to_string()))]),
        )?;
        let prom = metrics
            .get("prom")
            .and_then(Json::as_str)
            .ok_or("metrics reply has no prom text")?;
        for needle in [
            "dprep_tenant_prompt_tokens_total{tenant=\"alpha\"}",
            "dprep_tenant_requests_total{tenant=\"beta\"}",
        ] {
            if !prom.contains(needle) {
                return Err(format!("prom exposition is missing {needle}"));
            }
        }

        roundtrip(
            &mut stream,
            &mut reader,
            &Json::Obj(vec![("op".to_string(), Json::Str("shutdown".to_string()))]),
        )?;
        server
            .join()
            .expect("daemon thread")
            .map_err(|e| format!("daemon exited uncleanly: {e}"))?;
        Ok(())
    });
    outcome?;
    println!(
        "serve self-check passed: 2 concurrent tenants bit-identical to one-shot runs, \
         ledger and prom series reconcile, clean shutdown"
    );
    Ok(())
}

/// Execution options for a self-check reference run.
fn exec_options(workers: usize) -> dprep_core::ExecutionOptions {
    dprep_core::ExecutionOptions {
        workers,
        ..dprep_core::ExecutionOptions::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absurd_scales_fail_the_job_before_any_dataset_is_built() {
        let handler = dataset_handler(HandlerDefaults::default(), None);
        let scheduler = JobScheduler::new(TenantLedger::new());
        for scale in [1e12, 1e300, 0.0, -1.0] {
            let mut body = submit_body("t", "Adult", 1, None);
            if let Json::Obj(fields) = &mut body {
                fields.retain(|(k, _)| k != "scale");
                fields.push(("scale".to_string(), Json::Num(scale)));
            }
            let err = scheduler
                .run_job("t", exec_options(1), |grant| handler(&body, grant))
                .map(|_| ())
                .unwrap_err();
            assert!(err.message().contains("(0, 10]"), "scale {scale}: {err:?}");
        }
    }
}
