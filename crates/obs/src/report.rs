//! Run reports: render a trace or metrics snapshot as text, JSON, or
//! Prometheus text exposition, and diff two runs deterministically.
//!
//! This is the library behind the `dprep report` subcommand. Input is
//! either a JSONL trace (rebuilt into a [`MetricsSnapshot`] and a
//! [`SpanProfile`] by replaying the events — the exact fold a live run
//! performs) or a snapshot JSON file written by
//! [`MetricsSnapshot::to_json`]. All renderers are pure functions of
//! their inputs, so two reports over the same files are byte-identical.

use std::fmt::Write as _;

use crate::export::parse_trace;
use crate::json::Json;
use crate::metrics::MetricsSnapshot;
use crate::span::SpanProfile;

/// Output format for a rendered report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportFormat {
    /// Human-readable text (default).
    Text,
    /// One JSON object (metrics + span profile).
    Json,
    /// Prometheus text exposition format.
    Prom,
}

impl ReportFormat {
    /// Parses a `--format` flag value.
    pub fn parse(name: &str) -> Result<ReportFormat, String> {
        match name {
            "text" => Ok(ReportFormat::Text),
            "json" => Ok(ReportFormat::Json),
            "prom" => Ok(ReportFormat::Prom),
            other => Err(format!(
                "unknown format {other:?} (expected text, json, or prom)"
            )),
        }
    }
}

/// One SLO alert transition lifted from a trace, in trace order.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertRow {
    /// The tenant whose objective transitioned.
    pub tenant: String,
    /// The objective label (`latency-p95` / `failure-rate` /
    /// `budget-headroom`).
    pub slo: &'static str,
    /// Alert state departed.
    pub from: &'static str,
    /// Alert state entered.
    pub to: &'static str,
    /// Long-window burn rate at the transition.
    pub burn_long: f64,
    /// Short-window burn rate at the transition.
    pub burn_short: f64,
    /// Virtual instant of the transition.
    pub vt_secs: f64,
}

/// One run's aggregate, loaded from a trace or a snapshot file.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// The metrics aggregate.
    pub metrics: MetricsSnapshot,
    /// The span-tree profile; empty when loaded from a snapshot file
    /// (snapshots carry no span data).
    pub profile: SpanProfile,
    /// The SLO alert timeline, in trace order; empty when loaded from a
    /// snapshot file or when the trace carries no `slo_transition` events.
    pub alerts: Vec<AlertRow>,
}

impl RunReport {
    /// Builds a report from file contents, auto-detecting the format:
    /// a JSONL trace (lines tagged `"event"`) or a metrics snapshot
    /// (one object tagged `"metrics_snapshot"`).
    pub fn from_contents(contents: &str) -> Result<RunReport, String> {
        let first = contents
            .lines()
            .find(|l| !l.trim().is_empty())
            .ok_or_else(|| "input is empty".to_string())?;
        let probe = Json::parse(first).map_err(|e| format!("input is not JSON: {e}"))?;
        if probe.get("metrics_snapshot").is_some() {
            let metrics = MetricsSnapshot::from_json(&probe)
                .ok_or_else(|| "malformed metrics snapshot".to_string())?;
            return Ok(RunReport {
                metrics,
                profile: SpanProfile::new(),
                alerts: Vec::new(),
            });
        }
        if probe.get("event").is_some() {
            let events = parse_trace(contents)?;
            let alerts = events
                .iter()
                .filter_map(|event| match event {
                    crate::event::TraceEvent::SloTransition {
                        tenant,
                        slo,
                        from,
                        to,
                        burn_long,
                        burn_short,
                        vt_secs,
                    } => Some(AlertRow {
                        tenant: tenant.clone(),
                        slo,
                        from,
                        to,
                        burn_long: *burn_long,
                        burn_short: *burn_short,
                        vt_secs: *vt_secs,
                    }),
                    _ => None,
                })
                .collect();
            return Ok(RunReport {
                metrics: MetricsSnapshot::from_events(&events),
                profile: SpanProfile::from_events(&events),
                alerts,
            });
        }
        Err(
            "input is neither a JSONL trace (\"event\" tag) nor a metrics \
             snapshot (\"metrics_snapshot\" tag)"
                .to_string(),
        )
    }

    /// Renders the report in `format`.
    pub fn render(&self, format: ReportFormat) -> String {
        match format {
            ReportFormat::Text => self.render_text(),
            ReportFormat::Json => self.render_json(),
            ReportFormat::Prom => self.render_prom(),
        }
    }

    /// The human-readable report: quality, cost breakdown, latency
    /// percentiles, failure taxonomy, and the span profile when present.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str("dprep run report\n\n");
        let m = &self.metrics;
        let instances = m.answered.saturating_add(m.failed());
        let answer_rate = if instances > 0 {
            100.0 * m.answered as f64 / instances as f64
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "quality: {} / {} instances answered ({answer_rate:.1}%)",
            m.answered, instances
        );
        out.push('\n');
        out.push_str(&m.summary());
        if !self.alerts.is_empty() {
            out.push('\n');
            out.push_str("alert timeline (virtual time)\n");
            for alert in &self.alerts {
                let _ = writeln!(
                    out,
                    "  vt {:>9.2}s  {:<12} {:<15} {} -> {}  (burn {:.2}/{:.2})",
                    alert.vt_secs,
                    alert.tenant,
                    alert.slo,
                    alert.from,
                    alert.to,
                    alert.burn_long,
                    alert.burn_short,
                );
            }
        }
        if !self.profile.is_empty() {
            out.push('\n');
            out.push_str("span profile\n");
            out.push_str(&self.profile.render());
        }
        out
    }

    /// The report as one JSON object (`metrics` + `span_profile` +
    /// `alerts`).
    pub fn render_json(&self) -> String {
        let alerts: Vec<Json> = self
            .alerts
            .iter()
            .map(|a| {
                Json::Obj(vec![
                    ("tenant".into(), Json::Str(a.tenant.clone())),
                    ("slo".into(), Json::Str(a.slo.to_string())),
                    ("from".into(), Json::Str(a.from.to_string())),
                    ("to".into(), Json::Str(a.to.to_string())),
                    ("burn_long".into(), Json::Num(a.burn_long)),
                    ("burn_short".into(), Json::Num(a.burn_short)),
                    ("vt_secs".into(), Json::Num(a.vt_secs)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("metrics".into(), self.metrics.to_json()),
            ("span_profile".into(), self.profile.to_json()),
            ("alerts".into(), Json::Arr(alerts)),
        ])
        .to_json()
    }

    /// Prometheus text exposition of the report's counters, gauges, and
    /// latency quantiles.
    pub fn render_prom(&self) -> String {
        let m = &self.metrics;
        let mut out = String::new();
        let mut counter = |name: &str, help: &str, value: f64| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {}", Json::Num(value).to_json());
        };
        counter(
            "dprep_requests_total",
            "Unique requests completed (fresh + cache hits).",
            m.requests as f64,
        );
        counter(
            "dprep_fresh_requests_total",
            "Requests billed past the cache.",
            m.fresh_requests as f64,
        );
        counter(
            "dprep_cache_hits_total",
            "Requests served from cache.",
            m.cache_hits as f64,
        );
        counter(
            "dprep_deduped_batches_total",
            "Batches folded into earlier identical requests.",
            m.deduped as f64,
        );
        counter(
            "dprep_retries_total",
            "Retry attempts across all fresh requests.",
            m.retries as f64,
        );
        counter(
            "dprep_answered_total",
            "Instances with a parsed answer.",
            m.answered as f64,
        );
        counter(
            "dprep_cancelled_requests_total",
            "Requests cancelled by a tripped deadline or token budget.",
            m.cancelled as f64,
        );
        counter(
            "dprep_batch_splits_total",
            "Degradation batch splits (halving a failing batch).",
            m.batch_splits as f64,
        );
        counter(
            "dprep_prompt_tokens_total",
            "Billed prompt tokens.",
            m.prompt_tokens as f64,
        );
        counter(
            "dprep_completion_tokens_total",
            "Billed completion tokens.",
            m.completion_tokens as f64,
        );
        counter("dprep_cost_usd_total", "Billed dollar cost.", m.cost_usd);
        counter(
            "dprep_journal_replayed_total",
            "Requests rehydrated from a run journal on resume.",
            m.journal_replayed as f64,
        );
        counter(
            "dprep_journal_written_total",
            "Terminal entries appended to the run journal.",
            m.journal_written as f64,
        );
        counter(
            "dprep_journal_torn_lines_total",
            "Torn journal tail lines truncated during recovery.",
            m.journal_truncated as f64,
        );
        let _ = writeln!(out, "# HELP dprep_failures_total Failed instances by kind.");
        let _ = writeln!(out, "# TYPE dprep_failures_total counter");
        for (kind, n) in &m.failures {
            let _ = writeln!(out, "dprep_failures_total{{kind=\"{kind}\"}} {n}");
        }
        let _ = writeln!(
            out,
            "# HELP dprep_faults_injected_total Injected serving faults by kind."
        );
        let _ = writeln!(out, "# TYPE dprep_faults_injected_total counter");
        for (kind, n) in &m.faults_injected {
            let _ = writeln!(out, "dprep_faults_injected_total{{kind=\"{kind}\"}} {n}");
        }
        let _ = writeln!(
            out,
            "# HELP dprep_component_prompt_tokens_total Billed prompt tokens by \
             prompt component."
        );
        let _ = writeln!(out, "# TYPE dprep_component_prompt_tokens_total counter");
        for (component, n) in &m.component_tokens {
            let _ = writeln!(
                out,
                "dprep_component_prompt_tokens_total{{component=\"{component}\"}} {n}"
            );
        }
        if !m.routes.is_empty() {
            let _ = writeln!(
                out,
                "# HELP dprep_route_legs_total Cascade legs by route and outcome."
            );
            let _ = writeln!(out, "# TYPE dprep_route_legs_total counter");
            for (route, stats) in &m.routes {
                for (outcome, n) in [
                    ("served", stats.served),
                    ("escalated", stats.escalated),
                    ("shorted", stats.shorted),
                ] {
                    let _ = writeln!(
                        out,
                        "dprep_route_legs_total{{route=\"{}\",outcome=\"{outcome}\"}} {n}",
                        escape_label(route)
                    );
                }
            }
            type RouteSeries = (
                &'static str,
                &'static str,
                fn(&crate::metrics::RouteStats) -> f64,
            );
            let series: [RouteSeries; 4] = [
                (
                    "dprep_route_prompt_tokens_total",
                    "Billed prompt tokens by route.",
                    |r| r.prompt_tokens as f64,
                ),
                (
                    "dprep_route_completion_tokens_total",
                    "Billed completion tokens by route.",
                    |r| r.completion_tokens as f64,
                ),
                (
                    "dprep_route_cost_usd_total",
                    "Billed dollar cost by route.",
                    |r| r.cost_usd,
                ),
                (
                    "dprep_route_retries_total",
                    "Retry attempts inside each route's stack.",
                    |r| r.retries as f64,
                ),
            ];
            for (name, help, value) in series {
                let _ = writeln!(out, "# HELP {name} {help}");
                let _ = writeln!(out, "# TYPE {name} counter");
                for (route, stats) in &m.routes {
                    let _ = writeln!(
                        out,
                        "{name}{{route=\"{}\"}} {}",
                        escape_label(route),
                        Json::Num(value(stats)).to_json()
                    );
                }
            }
        }
        let _ = writeln!(
            out,
            "# HELP dprep_request_latency_seconds Per-request virtual latency."
        );
        let _ = writeln!(out, "# TYPE dprep_request_latency_seconds summary");
        for (q, label) in [(0.5, "0.5"), (0.9, "0.9"), (0.95, "0.95"), (0.99, "0.99")] {
            let _ = writeln!(
                out,
                "dprep_request_latency_seconds{{quantile=\"{label}\"}} {}",
                Json::Num(m.latency_us.quantile_midpoint(q) as f64 / 1e6).to_json()
            );
        }
        let _ = writeln!(
            out,
            "dprep_request_latency_seconds_sum {}",
            Json::Num(m.latency_us.sum() as f64 / 1e6).to_json()
        );
        let _ = writeln!(
            out,
            "dprep_request_latency_seconds_count {}",
            m.latency_us.count()
        );
        if !self.alerts.is_empty() {
            let _ = writeln!(
                out,
                "# HELP dprep_slo_transitions_total SLO alert transitions by tenant, \
                 objective, and state entered."
            );
            let _ = writeln!(out, "# TYPE dprep_slo_transitions_total counter");
            let mut by_key: std::collections::BTreeMap<(String, &str, &str), usize> =
                std::collections::BTreeMap::new();
            for alert in &self.alerts {
                *by_key
                    .entry((alert.tenant.clone(), alert.slo, alert.to))
                    .or_insert(0) += 1;
            }
            for ((tenant, slo, to), n) in by_key {
                let _ = writeln!(
                    out,
                    "dprep_slo_transitions_total{{tenant=\"{}\",slo=\"{slo}\",to=\"{to}\"}} {n}",
                    escape_label(&tenant)
                );
            }
        }
        out
    }

    /// Renders a deterministic A-vs-B comparison of two reports.
    ///
    /// Scalar rows show `A`, `B`, and the delta; map rows (failures,
    /// components) union both key sets in sorted order, so swapping the
    /// inputs only swaps the columns.
    pub fn render_diff(&self, other: &RunReport) -> String {
        let a = &self.metrics;
        let b = &other.metrics;
        let mut out = String::new();
        out.push_str("dprep run diff (A -> B)\n\n");
        let _ = writeln!(
            out,
            "{:<28} {:>14} {:>14} {:>14}",
            "metric", "A", "B", "delta"
        );
        let mut row = |name: &str, va: f64, vb: f64| {
            let _ = writeln!(
                out,
                "{:<28} {:>14} {:>14} {:>+14}",
                name,
                trim_num(va),
                trim_num(vb),
                DiffNum(vb - va)
            );
        };
        row("requests", a.requests as f64, b.requests as f64);
        row(
            "fresh requests",
            a.fresh_requests as f64,
            b.fresh_requests as f64,
        );
        row("cache hits", a.cache_hits as f64, b.cache_hits as f64);
        row("deduped batches", a.deduped as f64, b.deduped as f64);
        row("retries", a.retries as f64, b.retries as f64);
        row("faulted", a.faulted as f64, b.faulted as f64);
        row("cancelled", a.cancelled as f64, b.cancelled as f64);
        row("batch splits", a.batch_splits as f64, b.batch_splits as f64);
        row("answered", a.answered as f64, b.answered as f64);
        row("failed", a.failed() as f64, b.failed() as f64);
        row(
            "prompt tokens",
            a.prompt_tokens as f64,
            b.prompt_tokens as f64,
        );
        row(
            "completion tokens",
            a.completion_tokens as f64,
            b.completion_tokens as f64,
        );
        row("cost ($)", a.cost_usd, b.cost_usd);
        row(
            "journal replayed",
            a.journal_replayed as f64,
            b.journal_replayed as f64,
        );
        row(
            "journal written",
            a.journal_written as f64,
            b.journal_written as f64,
        );
        row(
            "journal torn lines",
            a.journal_truncated as f64,
            b.journal_truncated as f64,
        );
        for (label, q) in [("p50", 0.50), ("p90", 0.90), ("p99", 0.99)] {
            row(
                &format!("latency {label} (s)"),
                a.latency_us.quantile_midpoint(q) as f64 / 1e6,
                b.latency_us.quantile_midpoint(q) as f64 / 1e6,
            );
        }
        let maps: [(&str, &std::collections::BTreeMap<&'static str, usize>, _); 3] = [
            ("failure", &a.failures, &b.failures),
            ("fault-injected", &a.faults_injected, &b.faults_injected),
            ("component", &a.component_tokens, &b.component_tokens),
        ];
        for (prefix, ma, mb) in maps {
            let keys: std::collections::BTreeSet<&&str> = ma.keys().chain(mb.keys()).collect();
            for key in keys {
                let va = *ma.get(*key).unwrap_or(&0) as f64;
                let vb = *mb.get(*key).unwrap_or(&0) as f64;
                row(&format!("{prefix} {key}"), va, vb);
            }
        }
        let routes: std::collections::BTreeSet<&String> =
            a.routes.keys().chain(b.routes.keys()).collect();
        let empty = crate::metrics::RouteStats::default();
        for route in routes {
            let ra = a.routes.get(route).unwrap_or(&empty);
            let rb = b.routes.get(route).unwrap_or(&empty);
            row(
                &format!("route {route} served"),
                ra.served as f64,
                rb.served as f64,
            );
            row(
                &format!("route {route} escalated"),
                ra.escalated as f64,
                rb.escalated as f64,
            );
            row(&format!("route {route} cost ($)"), ra.cost_usd, rb.cost_usd);
        }
        out
    }
}

/// Prometheus exposition of a per-tenant metrics registry: every series
/// carries a `tenant` label, so one daemon scrape separates each tenant's
/// spend, quality, and failure mix. Tenants render in `BTreeMap` order and
/// each tenant's series fold from plan-ordered events, so the output is
/// deterministic for a given set of completed jobs.
pub fn render_prom_tenants(
    tenants: &std::collections::BTreeMap<String, MetricsSnapshot>,
) -> String {
    /// One counter series: name, help text, and the snapshot field it reads.
    type Series = (&'static str, &'static str, fn(&MetricsSnapshot) -> f64);
    let mut out = String::new();
    let series: [Series; 7] = [
        (
            "dprep_tenant_requests_total",
            "Unique requests completed for the tenant (fresh + cache hits).",
            |m| m.requests as f64,
        ),
        (
            "dprep_tenant_answered_total",
            "Instances answered for the tenant.",
            |m| m.answered as f64,
        ),
        (
            "dprep_tenant_cancelled_requests_total",
            "Tenant requests cancelled by a tripped deadline or token budget.",
            |m| m.cancelled as f64,
        ),
        (
            "dprep_tenant_prompt_tokens_total",
            "Prompt tokens billed to the tenant.",
            |m| m.prompt_tokens as f64,
        ),
        (
            "dprep_tenant_completion_tokens_total",
            "Completion tokens billed to the tenant.",
            |m| m.completion_tokens as f64,
        ),
        (
            "dprep_tenant_cost_usd_total",
            "Dollar cost billed to the tenant.",
            |m| m.cost_usd,
        ),
        (
            "dprep_tenant_journal_replayed_total",
            "Tenant requests rehydrated from per-job journals on resume.",
            |m| m.journal_replayed as f64,
        ),
    ];
    for (name, help, value) in series {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} counter");
        for (tenant, m) in tenants {
            let _ = writeln!(
                out,
                "{name}{{tenant=\"{}\"}} {}",
                escape_label(tenant),
                Json::Num(value(m)).to_json()
            );
        }
    }
    let _ = writeln!(
        out,
        "# HELP dprep_tenant_failures_total Tenant instances failed, by kind."
    );
    let _ = writeln!(out, "# TYPE dprep_tenant_failures_total counter");
    for (tenant, m) in tenants {
        for (kind, n) in &m.failures {
            let _ = writeln!(
                out,
                "dprep_tenant_failures_total{{tenant=\"{}\",kind=\"{}\"}} {n}",
                escape_label(tenant),
                escape_label(kind),
            );
        }
    }
    out
}

/// Prometheus exposition of daemon-level overload gauges and counters:
/// admission-queue depth, in-flight slots, lifetime admitted/shed totals,
/// and the drain state. Rows are `(series, type, help, value)` in the
/// order the caller wants them rendered; the caller (the serve daemon)
/// owns the vocabulary so the obs crate stays schema-free.
pub fn render_prom_daemon(rows: &[(&str, &str, &str, f64)]) -> String {
    let mut out = String::new();
    for (name, kind, help, value) in rows {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} {kind}");
        let _ = writeln!(out, "{name} {}", Json::Num(*value).to_json());
    }
    out
}

/// Escapes a Prometheus label *value* per the text exposition format:
/// backslash, double quote, and line feed become `\\`, `\"`, and `\n`.
/// Without this, a hostile tenant name like `x",evil="1` would inject
/// extra labels — or whole extra series via an embedded newline — into
/// the scrape body.
fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Formats a float with no trailing zeros (integers render bare).
fn trim_num(v: f64) -> String {
    Json::Num(v).to_json()
}

/// A signed delta that renders integers bare and floats trimmed.
struct DiffNum(f64);

impl std::fmt::Display for DiffNum {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let text = if self.0 >= 0.0 {
            format!("+{}", trim_num(self.0))
        } else {
            trim_num(self.0)
        };
        f.pad(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;
    use crate::export::event_to_json;

    fn sample_trace() -> String {
        let events = [
            TraceEvent::RunStarted {
                run: 1,
                instances: 2,
                batches: 1,
                requests: 1,
            },
            TraceEvent::Planned {
                request: 1,
                batches: 1,
                instances: 2,
            },
            TraceEvent::Completed {
                request: 1,
                worker: 0,
                cache_hit: false,
                retries: 0,
                fault: None,
                prompt_tokens: 100,
                completion_tokens: 10,
                attempt_prompt_tokens: 100,
                attempt_completion_tokens: 10,
                cost_usd: 0.25,
                latency_secs: 2.0,
                vt_start_secs: 0.0,
                vt_end_secs: 2.0,
            },
            TraceEvent::PromptComponents {
                request: 1,
                cache_hit: false,
                task_spec: 40,
                answer_format: 20,
                cot: 0,
                few_shot: 0,
                instances: 30,
                framing: 10,
            },
            TraceEvent::Parsed {
                request: 1,
                instance: 0,
            },
            TraceEvent::Failed {
                request: 1,
                instance: 1,
                kind: "skipped-answer",
            },
            TraceEvent::RunFinished {
                run: 1,
                instances: 2,
                answered: 1,
                failed: 1,
                requests: 1,
                fresh_requests: 1,
                cache_hits: 0,
                prompt_tokens: 100,
                completion_tokens: 10,
                cost_usd: 0.25,
                latency_secs: 2.0,
            },
        ];
        events.iter().map(|e| event_to_json(e) + "\n").collect()
    }

    #[test]
    fn detects_trace_and_snapshot_inputs() {
        let trace = sample_trace();
        let from_trace = RunReport::from_contents(&trace).unwrap();
        assert_eq!(from_trace.metrics.prompt_tokens, 100);
        assert!(!from_trace.profile.is_empty());
        // A snapshot file yields the same metrics but no profile.
        let snapshot = from_trace.metrics.to_json().to_json();
        let from_snapshot = RunReport::from_contents(&snapshot).unwrap();
        assert_eq!(from_snapshot.metrics, from_trace.metrics);
        assert!(from_snapshot.profile.is_empty());
        // Garbage is rejected with a clear message.
        assert!(RunReport::from_contents("").is_err());
        assert!(RunReport::from_contents("{\"x\":1}")
            .unwrap_err()
            .contains("neither"));
    }

    #[test]
    fn renders_are_deterministic_and_cover_the_components() {
        let report = RunReport::from_contents(&sample_trace()).unwrap();
        let text = report.render(ReportFormat::Text);
        assert_eq!(text, report.render(ReportFormat::Text));
        assert!(text.contains("1 / 2 instances answered (50.0%)"), "{text}");
        assert!(text.contains("component task-spec"), "{text}");
        assert!(text.contains("span profile"), "{text}");
        let json = report.render(ReportFormat::Json);
        let parsed = Json::parse(&json).unwrap();
        assert!(parsed.get("metrics").is_some());
        assert!(parsed.get("span_profile").is_some());
        let prom = report.render(ReportFormat::Prom);
        assert!(prom.contains("dprep_prompt_tokens_total 100"), "{prom}");
        assert!(
            prom.contains("dprep_component_prompt_tokens_total{component=\"task-spec\"} 40"),
            "{prom}"
        );
        assert!(prom.contains("dprep_failures_total{kind=\"skipped-answer\"} 1"));
        assert!(prom.contains("quantile=\"0.99\""));
        assert!(ReportFormat::parse("yaml").is_err());
    }

    #[test]
    fn tenant_prom_series_carry_the_tenant_label() {
        let report = RunReport::from_contents(&sample_trace()).unwrap();
        let mut tenants = std::collections::BTreeMap::new();
        tenants.insert("acme".to_string(), report.metrics.clone());
        tenants.insert("bmce".to_string(), MetricsSnapshot::default());
        let prom = render_prom_tenants(&tenants);
        assert_eq!(prom, render_prom_tenants(&tenants), "nondeterministic");
        assert!(
            prom.contains("dprep_tenant_prompt_tokens_total{tenant=\"acme\"} 100"),
            "{prom}"
        );
        assert!(
            prom.contains("dprep_tenant_requests_total{tenant=\"bmce\"} 0"),
            "{prom}"
        );
        assert!(
            prom.contains("dprep_tenant_failures_total{tenant=\"acme\",kind=\"skipped-answer\"} 1"),
            "{prom}"
        );
    }

    #[test]
    fn prom_daemon_rows_render_in_order_with_help_and_type() {
        let prom = render_prom_daemon(&[
            (
                "dprep_daemon_queue_depth",
                "gauge",
                "Jobs waiting in the admission queue.",
                3.0,
            ),
            (
                "dprep_daemon_shed_jobs_total",
                "counter",
                "Jobs shed by the overload policy.",
                12.0,
            ),
        ]);
        let expected = "# HELP dprep_daemon_queue_depth Jobs waiting in the admission queue.\n\
                        # TYPE dprep_daemon_queue_depth gauge\n\
                        dprep_daemon_queue_depth 3\n\
                        # HELP dprep_daemon_shed_jobs_total Jobs shed by the overload policy.\n\
                        # TYPE dprep_daemon_shed_jobs_total counter\n\
                        dprep_daemon_shed_jobs_total 12\n";
        assert_eq!(prom, expected);
    }

    #[test]
    fn prom_label_values_escape_injection_attempts() {
        let mut tenants = std::collections::BTreeMap::new();
        // A tenant name that would inject an extra label and an extra
        // series if interpolated raw.
        let hostile = "acme\",evil=\"1\"} 999\ninjected_total{x=\"y".to_string();
        tenants.insert(hostile.clone(), MetricsSnapshot::default());
        tenants.insert("back\\slash".to_string(), MetricsSnapshot::default());
        let prom = render_prom_tenants(&tenants);
        // Every non-comment line is exactly `name{labels} value` — the
        // newline smuggled in the tenant name must not mint a new line.
        for line in prom.lines().filter(|l| !l.starts_with('#')) {
            assert!(
                line.starts_with("dprep_tenant_"),
                "injected series leaked: {line}"
            );
        }
        assert!(
            prom.contains("tenant=\"acme\\\",evil=\\\"1\\\"} 999\\ninjected_total{x=\\\"y\""),
            "{prom}"
        );
        assert!(prom.contains("tenant=\"back\\\\slash\""), "{prom}");
        assert_eq!(escape_label("plain-name"), "plain-name");
    }

    #[test]
    fn alert_timeline_renders_in_all_formats() {
        let mut trace = sample_trace();
        trace.push_str(&event_to_json(&TraceEvent::SloTransition {
            tenant: "acme".to_string(),
            slo: "latency-p95",
            from: "ok",
            to: "warning",
            burn_long: 1.5,
            burn_short: 2.0,
            vt_secs: 2.0,
        }));
        trace.push('\n');
        trace.push_str(&event_to_json(&TraceEvent::SloTransition {
            tenant: "acme".to_string(),
            slo: "latency-p95",
            from: "warning",
            to: "paging",
            burn_long: 3.0,
            burn_short: 4.0,
            vt_secs: 5.0,
        }));
        trace.push('\n');
        let report = RunReport::from_contents(&trace).unwrap();
        assert_eq!(report.alerts.len(), 2);
        assert_eq!(report.alerts[1].to, "paging");
        let text = report.render(ReportFormat::Text);
        assert!(text.contains("alert timeline"), "{text}");
        assert!(text.contains("warning -> paging"), "{text}");
        let json = Json::parse(&report.render(ReportFormat::Json)).unwrap();
        let alerts = json.get("alerts").and_then(Json::as_arr).unwrap();
        assert_eq!(alerts.len(), 2);
        assert_eq!(alerts[0].get("to").and_then(Json::as_str), Some("warning"));
        let prom = report.render(ReportFormat::Prom);
        assert!(
            prom.contains(
                "dprep_slo_transitions_total{tenant=\"acme\",slo=\"latency-p95\",to=\"paging\"} 1"
            ),
            "{prom}"
        );
        // A trace without transitions renders no alert section.
        let quiet = RunReport::from_contents(&sample_trace()).unwrap();
        assert!(quiet.alerts.is_empty());
        assert!(!quiet.render(ReportFormat::Text).contains("alert timeline"));
        assert!(!quiet.render(ReportFormat::Prom).contains("slo_transitions"));
    }

    #[test]
    fn routed_traces_render_route_rows_in_every_format() {
        let mut trace = sample_trace();
        for (route, index, outcome, tokens, cost) in [
            ("sim-gpt-3.5", 0u32, "escalated", 60usize, 0.05),
            ("sim-gpt-4", 1, "served", 40, 0.2),
        ] {
            trace.push_str(&event_to_json(&TraceEvent::RouteLeg {
                request: 1,
                route: route.to_string(),
                index,
                outcome,
                fault: None,
                retries: 0,
                prompt_tokens: tokens,
                completion_tokens: tokens / 10,
                cost_usd: cost,
                latency_secs: 1.0,
            }));
            trace.push('\n');
        }
        let report = RunReport::from_contents(&trace).unwrap();
        assert_eq!(report.metrics.routes.len(), 2);
        assert_eq!(report.metrics.route_escalated(), 1);
        let text = report.render(ReportFormat::Text);
        assert!(text.contains("route sim-gpt-3.5"), "{text}");
        assert!(text.contains("1 escalations (100.0% rate)"), "{text}");
        let prom = report.render(ReportFormat::Prom);
        assert!(
            prom.contains("dprep_route_legs_total{route=\"sim-gpt-3.5\",outcome=\"escalated\"} 1"),
            "{prom}"
        );
        assert!(
            prom.contains("dprep_route_cost_usd_total{route=\"sim-gpt-4\"} 0.2"),
            "{prom}"
        );
        // Snapshot round trip carries the route map into a new report.
        let snapshot = report.metrics.to_json().to_json();
        let from_snapshot = RunReport::from_contents(&snapshot).unwrap();
        assert_eq!(from_snapshot.metrics.routes, report.metrics.routes);
        // The diff unions route keys against an un-routed run.
        let plain = RunReport::from_contents(&sample_trace()).unwrap();
        let diff = plain.render_diff(&report);
        assert!(diff.contains("route sim-gpt-4 served"), "{diff}");
        assert!(diff.contains("route sim-gpt-3.5 escalated"), "{diff}");
        // An un-routed report emits no route series at all.
        assert!(!plain.render(ReportFormat::Prom).contains("dprep_route_"));
    }

    #[test]
    fn diff_lists_scalars_and_unioned_map_keys() {
        let a = RunReport::from_contents(&sample_trace()).unwrap();
        let mut b = a.clone();
        b.metrics.prompt_tokens += 50;
        *b.metrics
            .component_tokens
            .entry(crate::component::FEW_SHOT)
            .or_insert(0) += 50;
        let diff = a.render_diff(&b);
        assert!(diff.contains("prompt tokens"), "{diff}");
        assert!(diff.contains("+50"), "{diff}");
        // few-shot only exists in B; the union still lists it.
        assert!(diff.contains("component few-shot"), "{diff}");
        // Deterministic output.
        assert_eq!(diff, a.render_diff(&b));
    }
}
