//! CLI subcommands.

pub mod clean;
pub mod datasets;
pub mod detect;
pub mod impute;
pub mod match_cmd;
pub mod report;
pub mod serve;
pub mod top;

use std::io::{BufWriter, StdoutLock, Write};
use std::path::Path;
use std::sync::Arc;

use dprep_core::{Durability, ExecStats, PipelineConfig};
use dprep_llm::{ChatModel, EscalationPolicy, KnowledgeBase, ModelProfile, StackSpec};
use dprep_obs::{AuditTracer, JsonlTracer, MultiTracer, Tracer};
use dprep_tabular::Table;

use crate::args::{model_profile, route_spec, Flags};
use crate::facts;

/// Loads a CSV file into a typed table.
pub fn load_table(path: &str) -> Result<Table, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
    dprep_tabular::csv::read_csv_typed(&text).map_err(|e| format!("{path}: {e}"))
}

/// Writes a command's results to stdout through one locked, buffered
/// writer, flushed before it returns. A closed or failing stdout is the
/// error `cannot write the results: …`, not a panic.
pub fn write_stdout(
    write: impl FnOnce(&mut BufWriter<StdoutLock<'static>>) -> std::io::Result<()>,
) -> Result<(), String> {
    let mut out = BufWriter::new(std::io::stdout().lock());
    write(&mut out)
        .and_then(|()| out.flush())
        .map_err(|e| format!("cannot write the results: {e}"))
}

/// Serving options shared by every model-running command: `--workers N`,
/// `--retries N`, `--cache on|off`, plus the observability flags
/// `--trace FILE`, `--metrics on|off|FILE`, `--audit on|off`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Serving {
    /// Executor worker threads.
    pub workers: usize,
    /// Retry budget per request.
    pub retries: u32,
    /// Response caching enabled.
    pub cache: bool,
    /// JSONL trace output path (`--trace FILE`).
    pub trace: Option<String>,
    /// Print the serving-metrics summary after the run.
    pub metrics: bool,
    /// Write the metrics snapshot as JSON to this path (`--metrics FILE`).
    pub metrics_out: Option<String>,
    /// Audit ledger invariants online; violations fail the command.
    pub audit: bool,
    /// Crash-safe run journal output path (`--journal FILE`).
    pub journal: Option<String>,
    /// Journal to resume from (`--resume FILE`): completed requests replay
    /// instead of re-dispatching.
    pub resume: Option<String>,
    /// Streaming-planner shard size (`--plan-shard-size N`): plan and
    /// execute N batches at a time under bounded memory instead of
    /// materializing the whole plan. `None` plans materialized.
    pub plan_shard: Option<usize>,
    /// Cascade routes (`--route a,b`), cheapest first; empty means a
    /// single-model run served directly by `--model`.
    pub routes: Vec<String>,
    /// Canonical escalation-policy spec (`--escalate-on CLASSES`); `None`
    /// uses the default policy.
    pub escalate_on: Option<String>,
}

/// Parses the serving flags (defaults: 1 worker, 2 retries, cache off,
/// no trace, metrics off, audit off). `--metrics` accepts `on`/`off` (print
/// the summary to stderr) or a file path (write the snapshot JSON there).
pub fn serving_from_flags(flags: &Flags) -> Result<Serving, String> {
    let workers = flags.usize_or("workers", 1)?;
    if workers == 0 {
        return Err("--workers must be at least 1".into());
    }
    let plan_shard = match flags.get("plan-shard-size") {
        None => None,
        Some(raw) => {
            let n: usize = raw.parse().map_err(|_| {
                format!("--plan-shard-size expects a positive integer, got {raw:?}")
            })?;
            if n == 0 {
                return Err("--plan-shard-size must be at least 1".into());
            }
            Some(n)
        }
    };
    let (metrics, metrics_out) = match flags.get("metrics") {
        None => (false, None),
        Some("on" | "true" | "1") => (true, None),
        Some("off" | "false" | "0") => (false, None),
        Some(path) => (false, Some(path.to_string())),
    };
    let (routes, escalate_on) = route_spec(flags.get("route"), flags.get("escalate-on"))?;
    if !routes.is_empty() && flags.get("model").is_some() {
        return Err(
            "--model conflicts with --route (the cascade names its own models, cheapest first)"
                .into(),
        );
    }
    Ok(Serving {
        workers,
        retries: flags.retries()?,
        cache: flags.bool_or("cache", false)?,
        trace: flags.get("trace").map(str::to_string),
        metrics,
        metrics_out,
        audit: flags.bool_or("audit", false)?,
        journal: flags.get("journal").map(str::to_string),
        resume: flags.get("resume").map(str::to_string),
        plan_shard,
        routes,
        escalate_on,
    })
}

/// Everything a model-running command needs standing before it builds its
/// task instances: the parsed serving flags, the observability sinks, the
/// run's durability (journal/resume), and the middleware-wrapped model.
/// Built once by [`serving_setup`]; consume the fields by value.
pub struct ServingSetup {
    /// Parsed serving flags (workers, retries, cache, metrics, ...).
    pub serving: Serving,
    /// Trace/audit sinks; call [`Observability::finish`] after the run.
    pub obs: Observability,
    /// Journal/resume wiring for the executor.
    pub durability: Durability,
    /// The simulated model wrapped in the requested middleware stack.
    pub model: Box<dyn ChatModel>,
}

/// The startup sequence shared by `detect`, `impute`, `clean`, and
/// `match`: resolve the model profile and facts file, parse the serving
/// flags, build the observability sinks, apply the `--workers` and
/// `--plan-shard-size` knobs to every pass config, open or recover the run
/// journal under the joint config descriptor, and build the serving stack
/// (cache warm-started from a resumed journal).
///
/// Multi-pass commands hand in one config per pass; the journal's config
/// identity is the pass descriptors joined with ` ++ `, so a journal
/// recorded by one command is never resumed by another with different
/// pass settings.
pub fn serving_setup(
    flags: &Flags,
    configs: &mut [&mut PipelineConfig],
) -> Result<ServingSetup, String> {
    let kb = facts::load(flags)?;
    let serving = serving_from_flags(flags)?;
    let obs = Observability::from_serving(&serving)?;
    let seed = flags.seed()?;
    for config in configs.iter_mut() {
        config.workers = serving.workers;
        config.plan_shard_size = serving.plan_shard;
        config.routes = serving.routes.clone();
        config.escalate_on = serving.escalate_on.clone();
    }
    let descriptor = configs
        .iter()
        .map(|c| c.descriptor())
        .collect::<Vec<_>>()
        .join(" ++ ");
    let mut stack = StackSpec {
        retries: serving.retries,
        cache: serving.cache,
        tracer: obs.tracer(),
        ..stack_spec(
            model_profile(flags)?,
            &serving.routes,
            serving.escalate_on.as_deref(),
            Arc::new(kb),
            seed,
        )?
    };
    let opened = Durability::open(
        serving.journal.as_deref().map(Path::new),
        serving.resume.as_deref().map(Path::new),
        &stack.name(),
        &descriptor,
        seed,
    )?;
    if let Some(warning) = &opened.warning {
        eprintln!("[journal warning] {warning}");
    }
    stack.warm = opened.warm;
    Ok(ServingSetup {
        serving,
        obs,
        durability: opened.durability,
        model: stack.build(),
    })
}

/// The serving stack of one `model`, or of the cascade `routes` (cheapest
/// first) under the canonical `escalate_on` policy when `routes` is not
/// empty; see [`route_spec`]. Its name is the journal's model identity, so
/// a single-model journal never resumes a cascade (`router(a->b)`) or vice
/// versa.
pub(crate) fn stack_spec(
    model: ModelProfile,
    routes: &[String],
    escalate_on: Option<&str>,
    kb: Arc<KnowledgeBase>,
    seed: u64,
) -> Result<StackSpec, String> {
    let models = if routes.is_empty() {
        vec![model]
    } else {
        routes
            .iter()
            .map(|name| {
                ModelProfile::by_name(name)
                    .ok_or_else(|| format!("unknown route model {name:?} (see dprep help)"))
            })
            .collect::<Result<_, _>>()?
    };
    let policy = match escalate_on {
        Some(spec) => EscalationPolicy::parse(spec)?,
        None => EscalationPolicy::default(),
    };
    Ok(StackSpec {
        policy,
        ..StackSpec::new(models, kb, seed)
    })
}

/// Probes an output path for writability without truncating existing
/// content, so a typo'd directory or read-only target fails the command
/// before any (potentially expensive) model work runs.
fn probe_writable(path: &str, what: &str) -> Result<(), String> {
    std::fs::OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(false)
        .open(path)
        .map(|_| ())
        .map_err(|e| format!("cannot write {what} {path:?}: {e}"))
}

/// The observability sinks a command wires into its middleware stack and
/// executor, built from the serving flags. Call [`Observability::finish`]
/// after the run to flush the trace file and surface audit violations.
pub struct Observability {
    tracer: Arc<dyn Tracer>,
    jsonl: Option<(Arc<JsonlTracer>, String)>,
    audit: Option<Arc<AuditTracer>>,
}

impl Observability {
    /// Builds the sinks requested by `serving`. With neither `--trace`
    /// nor `--audit` the composite tracer is an empty no-op fan-out.
    ///
    /// A `--trace FILE` path is probed for writability **up front**, so a
    /// typo'd directory or a read-only target fails the command before any
    /// (potentially expensive) model work runs, not after.
    pub fn from_serving(serving: &Serving) -> Result<Self, String> {
        let mut multi = MultiTracer::new();
        let jsonl = match serving.trace.as_ref() {
            None => None,
            Some(path) => {
                // Probed up front, without truncating: an existing trace
                // survives until the run actually finishes and overwrites it.
                probe_writable(path, "trace")?;
                let sink = Arc::new(JsonlTracer::new());
                multi.push(Arc::clone(&sink) as Arc<dyn Tracer>);
                Some((sink, path.clone()))
            }
        };
        // The metrics snapshot path gets the same up-front probe as the
        // trace path: fail before the run, not after it.
        if let Some(path) = serving.metrics_out.as_ref() {
            probe_writable(path, "metrics")?;
        }
        let audit = serving.audit.then(|| {
            let sink = Arc::new(AuditTracer::new());
            multi.push(Arc::clone(&sink) as Arc<dyn Tracer>);
            sink
        });
        Ok(Observability {
            tracer: Arc::new(multi),
            jsonl,
            audit,
        })
    }

    /// The composite tracer to hand to middleware layers and executors.
    pub fn tracer(&self) -> Arc<dyn Tracer> {
        Arc::clone(&self.tracer)
    }

    /// Writes the JSONL trace (if `--trace` was given) and reports audit
    /// violations (if `--audit` was on) as a hard error.
    pub fn finish(self) -> Result<(), String> {
        if let Some((sink, path)) = &self.jsonl {
            sink.write_to(std::path::Path::new(path))
                .map_err(|e| format!("cannot write trace {path:?}: {e}"))?;
            eprintln!("[trace: {} event(s) -> {path}]", sink.len());
        }
        if let Some(audit) = &self.audit {
            let violations = audit.violations();
            if violations.is_empty() {
                eprintln!(
                    "[audit: {} run(s), ledger invariants hold]",
                    audit.runs_audited()
                );
            } else {
                for v in &violations {
                    eprintln!("[audit violation] {v}");
                }
                return Err(format!(
                    "serving-ledger audit failed with {} violation(s)",
                    violations.len()
                ));
            }
        }
        Ok(())
    }
}

/// Prints the multi-line serving-metrics summary when `--metrics on`, and
/// writes the snapshot JSON when `--metrics FILE` was given.
pub fn print_metrics(
    serving: &Serving,
    metrics: &dprep_obs::MetricsSnapshot,
) -> Result<(), String> {
    if serving.metrics {
        eprint!("{}", metrics.summary());
    }
    if let Some(path) = &serving.metrics_out {
        let mut json = metrics.to_json().to_json();
        json.push('\n');
        std::fs::write(path, json).map_err(|e| format!("cannot write metrics {path:?}: {e}"))?;
        eprintln!("[metrics snapshot -> {path}]");
    }
    Ok(())
}

/// Prints the run's usage footer, including serving counters when any are
/// nonzero.
pub fn print_usage_footer(usage: &dprep_llm::UsageTotals, stats: Option<&ExecStats>) {
    eprintln!(
        "[{} request(s), {} tokens, ${:.4} virtual cost, {:.1}s virtual latency]",
        usage.requests,
        usage.total_tokens(),
        usage.cost_usd,
        usage.latency_secs
    );
    if let Some(stats) = stats {
        if stats.deduped + stats.retries + stats.cache_hits + stats.faulted > 0 {
            eprintln!(
                "[{} deduped, {} retried, {} cache hit(s), {} faulted]",
                stats.deduped, stats.retries, stats.cache_hits, stats.faulted
            );
        }
    }
}

/// Resolves the attribute list for `--attrs` (default: every attribute).
/// Refuses a name the table lacks, and a name given twice, which would
/// check, bill and print each of its cells twice.
pub fn attrs_for(flags: &Flags, table: &Table) -> Result<Vec<String>, String> {
    match flags.get("attrs") {
        None => Ok(table
            .schema()
            .names()
            .iter()
            .map(|s| s.to_string())
            .collect()),
        Some(spec) => {
            let mut out = Vec::new();
            for name in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
                if table.schema().index_of(name).is_none() {
                    return Err(format!(
                        "attribute {name:?} not in the table (has: {})",
                        table.schema().names().join(", ")
                    ));
                }
                if out.iter().any(|seen| seen == name) {
                    return Err(format!("--attrs names {name:?} twice"));
                }
                out.push(name.to_string());
            }
            if out.is_empty() {
                return Err("--attrs selected no attributes".into());
            }
            Ok(out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Flags;

    #[test]
    fn zero_plan_shard_size_is_rejected_at_flag_parse() {
        let mut flags = Flags::default();
        flags.set("plan-shard-size", "0");
        let err = serving_from_flags(&flags).unwrap_err();
        assert!(err.contains("--plan-shard-size"), "{err}");
        assert!(err.contains("at least 1"), "{err}");
        flags.set("plan-shard-size", "64");
        assert_eq!(serving_from_flags(&flags).unwrap().plan_shard, Some(64));
    }

    #[test]
    fn attrs_refuses_a_name_given_twice() {
        let table = dprep_tabular::csv::read_csv_typed("name,city\nann,boston\n").unwrap();
        let mut flags = Flags::default();
        flags.set("attrs", "city,name, city");
        let err = attrs_for(&flags, &table).unwrap_err();
        assert_eq!(err, "--attrs names \"city\" twice");
        flags.set("attrs", "city,name");
        assert_eq!(attrs_for(&flags, &table).unwrap(), ["city", "name"]);
    }

    #[test]
    fn retry_budgets_past_the_bound_are_rejected_at_flag_parse() {
        let mut flags = Flags::default();
        flags.set("retries", "11");
        let err = serving_from_flags(&flags).unwrap_err();
        assert!(err.contains("--retries must be at most 10"), "{err}");
        flags.set("retries", "10");
        assert_eq!(serving_from_flags(&flags).unwrap().retries, 10);
    }
}
