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

use std::path::PathBuf;
use std::sync::Arc;

use dprep_core::serve::{
    whole_field, Daemon, JobGrant, JobHandler, JobOutcome, JobScheduler, MAX_WIRE_SECS,
};
use dprep_core::{
    result_fingerprint, Durability, FailureKind, OpsPlane, OverloadPolicy, PipelineConfig,
    Preprocessor, TenantLedger, WireLimits,
};
use dprep_datasets::{check_scale, dataset_by_name};
use dprep_llm::{check_retries, FaultScenario, ModelProfile, StackSpec};
use dprep_obs::{FlightRecorder, Json, SloSpec, WindowConfig};

use crate::args::{route_spec, Flags};
use crate::commands::stack_spec;

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

/// The journal file of a `(tenant, journal_key)` pair:
/// `<tenant>-<key>.jsonl`, each part percent-escaped so that whatever the
/// wire sends stays filesystem-safe and no two pairs share a file. A
/// tenant keeps `[A-Za-z0-9._]` and a key `[A-Za-z0-9._-]` as they are;
/// every other byte, and a tenant's `-` (the separator), is written `%XX`.
/// A name past the file system's length limit fails the submit when its
/// journal is created: shortening it by a non-cryptographic hash would let
/// a crafted tenant name reach another tenant's journal.
fn journal_file_name(tenant: &str, key: &str) -> String {
    let escape = |part: &str, keep: &[u8]| -> String {
        part.bytes()
            .map(|byte| {
                if byte.is_ascii_alphanumeric() || keep.contains(&byte) {
                    char::from(byte).to_string()
                } else {
                    format!("%{byte:02X}")
                }
            })
            .collect()
    };
    format!("{}-{}.jsonl", escape(tenant, b"._"), escape(key, b"._-"))
}

/// The production job handler: runs one dataset workload under the
/// grant's clamped options with the grant's shard gate wired in.
///
/// `submit` body fields (beyond `tenant` / `workers` / `token_budget` /
/// `deadline_secs`, which the daemon consumes):
///
/// * `dataset` (required), `scale` (in `(0, MAX_SCALE]`, checked before
///   the dataset is built), `seed` — the workload,
/// * `plan_shard_size`, `retries` (at most `MAX_RETRIES`) — serving knobs,
/// * `route`, `escalate_on` — a cascade, parsed as `--route` and
///   `--escalate-on` are ([`route_spec`]), overriding the daemon's own,
/// * `scenario` — a fault-preset name ([`FaultScenario::by_name`]) for
///   the job's single model, or for its cascade's first route,
/// * `journal_key` — with `--journal-dir`, journal this job at
///   `DIR/<tenant>-<key>.jsonl` and resume it when the file exists. Both
///   parts are percent-escaped (a tenant's `-` too), so each
///   `(tenant, journal_key)` pair has a journal of its own; plain tenants
///   (`[A-Za-z0-9._]`) and keys (`[A-Za-z0-9._-]`) are kept as they are.
///
/// With an ops plane attached, every job's trace stream feeds the tenant's
/// sliding window and SLO engine through [`OpsPlane::tracer_for`].
pub fn dataset_handler(defaults: HandlerDefaults, ops: Option<Arc<OpsPlane>>) -> Arc<JobHandler> {
    let default_route = defaults.routes.join(",");
    Arc::new(move |body: &Json, grant: &JobGrant| {
        let text = |key: &str| body.get(key).and_then(Json::as_str);
        let name = text("dataset").ok_or("submit has no \"dataset\" field")?;
        let scale = check_scale(body.get("scale").and_then(Json::as_f64).unwrap_or(0.5))?;
        let seed = whole_field(body, "seed")?.map_or(defaults.seed, |s| s as u64);
        // A whole number past the exact range is past any retry bound.
        let retries = match body.get("retries") {
            Some(retries) if retries.is_whole() => {
                check_retries(retries.as_usize().unwrap_or(usize::MAX))?
            }
            _ => defaults.retries,
        };
        let shard_size = whole_field(body, "plan_shard_size")?.unwrap_or(defaults.plan_shard_size);
        let (routes, escalate_on) = route_spec(
            text("route").or((!default_route.is_empty()).then_some(default_route.as_str())),
            text("escalate_on").or(defaults.escalate_on.as_deref()),
        )?;
        let fault = match text("scenario") {
            Some(scenario) => Some(
                FaultScenario::by_name(scenario)
                    .ok_or_else(|| format!("unknown fault scenario {scenario:?}"))?,
            ),
            None => None,
        };
        let ds = dataset_by_name(name, scale, seed)
            .ok_or_else(|| format!("unknown dataset {name:?}"))?;

        // Single-model jobs serve on sim-gpt-4; every job caches.
        let mut stack = StackSpec {
            fault,
            retries,
            cache: true,
            ..stack_spec(
                ModelProfile::gpt4(),
                &routes,
                escalate_on.as_deref(),
                Arc::new(ds.kb.clone()),
                seed,
            )?
        };
        let mut config = PipelineConfig::best(ds.task);
        config.plan_shard_size = Some(shard_size.max(1));
        config.routes = routes;
        config.escalate_on = escalate_on;

        // Per-job durability: a fresh journal, or a resumed one when a
        // previous incarnation of the same (tenant, journal_key) left one
        // behind.
        let tenant = text("tenant").unwrap_or("default");
        let mut durability = Durability::new();
        let mut journal_state = "off";
        if let (Some(dir), Some(key)) = (&defaults.journal_dir, text("journal_key")) {
            let path = dir.join(journal_file_name(tenant, key));
            let existing = std::fs::metadata(&path).is_ok_and(|m| m.len() > 0);
            let opened = Durability::open(
                Some(&path),
                existing.then_some(path.as_path()),
                &stack.name(),
                &config.descriptor(),
                seed,
            )?;
            journal_state = if opened.durability.resumes() {
                "resumed"
            } else {
                "fresh"
            };
            durability = opened.durability;
            stack.warm = opened.warm;
        }
        let model = stack.build();

        // Wiring the grant's halt into the executor is what makes a drain
        // checkpoint journaled jobs (and stop unjournaled ones) at their
        // next shard boundary.
        let mut preprocessor = Preprocessor::new(&model, config)
            .with_exec_options(grant.options)
            .with_durability(durability)
            .with_shard_gate(Arc::clone(&grant.gate))
            .with_kill_switch(grant.halt.clone());
        if let Some(ops) = &ops {
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
        if secs > MAX_WIRE_SECS {
            return Err(format!(
                "--{name} must be at most {MAX_WIRE_SECS} seconds (365 days), got {secs}"
            ));
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
    // Without this, a caller still passing the retired flag would get a
    // daemon listening forever instead of a drill.
    if flags.get("check").is_some() {
        return Err(
            "serve --check is retired: the serving drill is the serve_e2e test \
                    suite (cargo test --test serve_e2e)"
                .into(),
        );
    }
    let (routes, escalate_on) = route_spec(flags.get("route"), flags.get("escalate-on"))?;
    let defaults = HandlerDefaults {
        seed: flags.seed()?,
        retries: flags.retries()?,
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
    let host = flags.get("host").unwrap_or("127.0.0.1");
    let port = flags.port_or(7077)?;
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

#[cfg(test)]
mod tests {
    use super::*;
    use dprep_core::ExecutionOptions;

    /// A one-worker Adult `submit` body at `scale`.
    fn submit_body(scale: f64) -> Json {
        Json::Obj(vec![
            ("op".to_string(), Json::Str("submit".to_string())),
            ("tenant".to_string(), Json::Str("t".to_string())),
            ("dataset".to_string(), Json::Str("Adult".to_string())),
            ("scale".to_string(), Json::Num(scale)),
            ("workers".to_string(), Json::Num(1.0)),
            ("plan_shard_size".to_string(), Json::Num(2.0)),
        ])
    }

    #[test]
    fn journal_names_keep_plain_pairs_and_never_collide() {
        assert_eq!(journal_file_name("t", "job"), "t-job.jsonl");
        assert_eq!(
            journal_file_name("acme_2.x", "run-1.b"),
            "acme_2.x-run-1.b.jsonl"
        );
        let pairs = [
            ("a", "b-c"),
            ("a-b", "c"),
            ("x/y", "k"),
            ("x_y", "k"),
            ("x%2Fy", "k"),
            ("", "-"),
            ("-", ""),
            ("é", "../k"),
        ];
        let names: std::collections::HashSet<String> = pairs
            .iter()
            .map(|(tenant, key)| journal_file_name(tenant, key))
            .collect();
        assert_eq!(names.len(), pairs.len(), "{names:?}");
        assert!(names.iter().all(|name| !name.contains('/')), "{names:?}");
    }

    #[test]
    fn the_retired_check_flag_errors_instead_of_serving() {
        let mut flags = Flags::default();
        flags.set("check", "on");
        assert!(run(&flags).unwrap_err().contains("serve_e2e"));
    }

    #[test]
    fn absurd_scales_fail_the_job_before_any_dataset_is_built() {
        let handler = dataset_handler(HandlerDefaults::default(), None);
        let scheduler = JobScheduler::new(TenantLedger::new());
        let options = ExecutionOptions {
            workers: 1,
            ..ExecutionOptions::default()
        };
        for scale in [1e12, 1e300, 0.0, -1.0] {
            let body = submit_body(scale);
            let err = scheduler
                .run_job("t", options, |grant| handler(&body, grant))
                .map(|_| ())
                .unwrap_err();
            assert!(err.message().contains("(0, 10]"), "scale {scale}: {err:?}");
        }
    }
}
