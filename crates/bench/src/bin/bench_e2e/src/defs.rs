//! What the benchmark measures: its workloads and its metrics, with the
//! direction, unit and regression bound of each. `BENCHMARK.json` at the
//! repository root mirrors these tables (a unit test keeps them equal).

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the CLI or the daemon sees.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the base median by which the metric may worsen before a
    /// change counts as a regression.
    pub bound: f64,
}

/// A per-layer metric and the end-to-end metric it should move, on the
/// workload where its layer does most of the work.
#[derive(Debug, Clone, Copy)]
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub moves: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

/// Every workload reports every one of these (the untraced run).
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("inst_per_s", "inst/s", Higher, 0.25),
    e2e("jobs_per_s", "jobs/s", Higher, 0.25),
    e2e("job_p50_ms", "ms", Lower, 0.25),
    e2e("job_tail_ms", "ms", Lower, 0.25),
    e2e("cpu_ms_per_kinst", "ms", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.1),
    e2e("tokens_per_inst", "tok", Lower, 0.1),
    e2e("usd_per_kinst", "USD", Lower, 0.2),
];

/// Every workload reports every one of these (the traced run). A layer a
/// workload bypasses reads zero there.
pub const PER_LAYER: &[LayerMetric] = &[
    layer("tabular.read_s", "s", Lower, "inst_per_s @ detect-bulk"),
    layer("cli.setup_s", "s", Lower, "setup_s @ detect-durable"),
    layer("cli.collect_s", "s", Lower, "inst_per_s @ detect-bulk"),
    layer("cli.output_s", "s", Lower, "inst_per_s @ detect-bulk"),
    layer(
        "plan.build_s",
        "s",
        Lower,
        "inst_per_s, peak_rss_mb @ detect-bulk",
    ),
    layer("plan.requests", "count", Lower, "inst_per_s @ detect-bulk"),
    layer("plan.deduped", "count", Higher, "inst_per_s @ detect-bulk"),
    layer("prompt.render_s", "s", Lower, "inst_per_s @ detect-bulk"),
    layer("prompt.parse_s", "s", Lower, "inst_per_s @ detect-bulk"),
    layer("exec.self_s", "s", Lower, "inst_per_s @ detect-bulk"),
    layer("llm.sim.calls", "count", Lower, "inst_per_s @ detect-bulk"),
    layer("llm.sim.busy_s", "s", Lower, "inst_per_s @ detect-bulk"),
    layer(
        "llm.retry.self_s",
        "s",
        Lower,
        "inst_per_s @ detect-durable",
    ),
    layer(
        "llm.retry.attempts",
        "count",
        Lower,
        "job_tail_ms @ serve-mixed",
    ),
    layer(
        "llm.cache.self_s",
        "s",
        Lower,
        "inst_per_s @ detect-durable",
    ),
    layer(
        "llm.cache.hit_ratio",
        "ratio",
        Higher,
        "inst_per_s @ detect-durable",
    ),
    layer(
        "llm.fault.injected",
        "count",
        Lower,
        "job_tail_ms @ serve-mixed",
    ),
    layer(
        "llm.router.self_s",
        "s",
        Lower,
        "inst_per_s @ detect-durable",
    ),
    layer(
        "llm.router.escalation_ratio",
        "ratio",
        Lower,
        "usd_per_kinst @ detect-durable",
    ),
    layer(
        "journal.appends",
        "count",
        Lower,
        "inst_per_s @ detect-durable",
    ),
    layer(
        "journal.append_us",
        "us",
        Lower,
        "inst_per_s @ detect-durable",
    ),
    layer(
        "journal.recover_s",
        "s",
        Lower,
        "inst_per_s @ detect-durable",
    ),
    layer(
        "serve.ping_keepalive_ms",
        "ms",
        Lower,
        "job_p50_ms @ serve-small",
    ),
    layer("serve.ping_fresh_ms", "ms", Lower, "setup_s @ serve-small"),
    layer(
        "serve.outside_handler_ms",
        "ms",
        Lower,
        "job_p50_ms, jobs_per_s @ serve-small",
    ),
    layer(
        "serve.turnstile_wait_p50_ms",
        "ms",
        Lower,
        "job_p50_ms @ serve-mixed",
    ),
    layer(
        "serve.turnstile_wait_p95_ms",
        "ms",
        Lower,
        "job_tail_ms @ serve-mixed",
    ),
    layer("serve.turns", "count", Lower, "job_tail_ms @ serve-mixed"),
    layer("datasets.gen_ms", "ms", Lower, "job_p50_ms @ serve-small"),
    layer(
        "serve.handler_setup_ms",
        "ms",
        Lower,
        "job_p50_ms @ serve-small",
    ),
    layer("obs.ops_record_us", "us", Lower, "job_p50_ms @ serve-small"),
    layer(
        "trace_overhead_frac",
        "frac",
        Lower,
        "(tracing cost, not a program layer)",
    ),
    layer(
        "coverage_frac",
        "frac",
        Higher,
        "(share of traced wall the layers explain)",
    ),
];

/// The traffic mixes the benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    DetectBulk,
    DetectDurable,
    ServeSmall,
    ServeMixed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::DetectBulk,
        Workload::DetectDurable,
        Workload::ServeSmall,
        Workload::ServeMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DetectBulk => "detect-bulk",
            Workload::DetectDurable => "detect-durable",
            Workload::ServeSmall => "serve-small",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    /// Why the workload exists: the layers it stresses and the ones it
    /// bypasses.
    pub fn why(self) -> &'static str {
        match self {
            Workload::DetectBulk => {
                "offline bulk detect on a unique-row CSV: planner, render, simulator and parse \
                 do the work; cache, journal, router and daemon do none"
            }
            Workload::DetectDurable => {
                "detect with cascade, cache and journal, then --resume: journal writes and \
                 replay, router and cache, which detect-bulk bypasses"
            }
            Workload::ServeSmall => {
                "two kept-alive clients submit small jobs to the daemon: per-job overhead of \
                 wire, admission, ledger, turnstile and dataset build dominates"
            }
            Workload::ServeMixed => {
                "heavy journaled cascade jobs under a fault storm beside a small-job client: \
                 turnstile fairness shows as the small jobs' tail latency"
            }
        }
    }

    /// The percentile `job_tail_ms` reports: the highest that keeps ten
    /// samples beyond it at this workload's job count per run (tens of
    /// whole CLI runs, hundreds of daemon jobs).
    pub fn tail_percentile(self) -> f64 {
        match self {
            Workload::DetectBulk | Workload::DetectDurable => 75.0,
            Workload::ServeSmall | Workload::ServeMixed => 95.0,
        }
    }

    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dprep_obs::Json;

    /// `BENCHMARK.json` names exactly these workloads and metrics, with the
    /// same units, directions and bounds.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| json.get(key).and_then(Json::as_arr).expect(key).to_vec();
        let field =
            |entry: &Json, key: &str| entry.get(key).and_then(Json::as_str).map(str::to_string);

        let workloads: Vec<(String, String)> = list("workloads")
            .iter()
            .map(|w| (field(w, "name").unwrap(), field(w, "why").unwrap()))
            .collect();
        let expected: Vec<(String, String)> = Workload::ALL
            .iter()
            .map(|w| (w.name().to_string(), w.why().to_string()))
            .collect();
        assert_eq!(workloads, expected);

        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (entry, m) in e2e.iter().zip(END_TO_END) {
            assert_eq!(field(entry, "name").as_deref(), Some(m.name));
            assert_eq!(field(entry, "unit").as_deref(), Some(m.unit), "{}", m.name);
            assert_eq!(
                field(entry, "better").as_deref(),
                Some(m.better.label()),
                "{}",
                m.name
            );
            assert_eq!(
                entry.get("bound").and_then(Json::as_f64),
                Some(m.bound),
                "{}",
                m.name
            );
        }

        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (entry, m) in layers.iter().zip(PER_LAYER) {
            assert_eq!(field(entry, "name").as_deref(), Some(m.name));
            assert_eq!(field(entry, "unit").as_deref(), Some(m.unit), "{}", m.name);
            assert_eq!(
                field(entry, "better").as_deref(),
                Some(m.better.label()),
                "{}",
                m.name
            );
        }
    }
}
