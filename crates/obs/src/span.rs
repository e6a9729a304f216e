//! The span-tree profiler: a deterministic flame-style fold of a trace.
//!
//! A run's events describe a span tree — `run` → stage (`plan`,
//! `prompt-build`, `dispatch`, `parse`) → per-request spans (`request`,
//! with `cache-hit` / `retry` / `fault` children) — plus top-level
//! pipeline phases outside any run (`repair`). [`SpanProfile`] folds a
//! trace into one [`SpanStat`] per tree path, keyed by a slash-joined
//! path string (`"run/dispatch/request/retry"`).
//!
//! **Determinism contract.** The fold consumes only events the executor
//! emits in plan order (`Completed`, `Stage`, `RunFinished`) plus
//! per-request middleware events (`RetryAttempt`, `FaultInjected`,
//! `CacheHit`), which arrive in causal order *within* a request and are
//! buffered per request until that request's plan-ordered `Completed`
//! folds them. Durations accumulate as integer microseconds, so merging
//! shard profiles is associative and bit-identical at any `--workers`
//! count. Wall-clock time is the one non-reproducible input; comparisons
//! should go through [`SpanProfile::without_wall`].

use std::collections::BTreeMap;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Mutex;

use crate::event::TraceEvent;
use crate::json::Json;
use crate::tracer::Tracer;

/// Converts a duration in (virtual or wall) seconds to integer
/// microseconds, the profile's accumulation unit.
fn to_us(secs: f64) -> u64 {
    if secs.is_finite() && secs > 0.0 {
        (secs * 1e6).round() as u64
    } else {
        0
    }
}

/// Aggregate statistics for one span-tree path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Number of spans folded into this node.
    pub calls: u64,
    /// Total virtual time, in integer microseconds.
    pub vt_us: u64,
    /// Total wall-clock time, in integer microseconds (zero for spans
    /// with no wall measurement; excluded from the determinism contract).
    pub wall_us: u64,
}

impl SpanStat {
    fn add(&mut self, calls: u64, vt_us: u64, wall_us: u64) {
        self.calls += calls;
        self.vt_us += vt_us;
        self.wall_us += wall_us;
    }

    /// Virtual time in seconds.
    pub fn vt_secs(&self) -> f64 {
        self.vt_us as f64 / 1e6
    }

    /// Wall time in seconds.
    pub fn wall_secs(&self) -> f64 {
        self.wall_us as f64 / 1e6
    }
}

/// A folded span-tree profile: one [`SpanStat`] per slash-joined path.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanProfile {
    nodes: BTreeMap<String, SpanStat>,
}

impl SpanProfile {
    /// An empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds a finished trace into a profile in one pass.
    pub fn from_events<'a>(events: impl IntoIterator<Item = &'a TraceEvent>) -> Self {
        let builder = SpanProfileBuilder::new();
        for event in events {
            builder.record(event);
        }
        builder.profile()
    }

    /// The stat under `path`, when any span folded there.
    pub fn get(&self, path: &str) -> Option<&SpanStat> {
        self.nodes.get(path)
    }

    /// All `(path, stat)` pairs in deterministic (lexicographic) order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &SpanStat)> {
        self.nodes.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// True when nothing has been folded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Sums another profile into this one. Addition of integer
    /// microsecond counters, so merge order never changes the result.
    pub fn merge(&mut self, other: &SpanProfile) {
        for (path, stat) in &other.nodes {
            self.nodes
                .entry(path.clone())
                .or_default()
                .add(stat.calls, stat.vt_us, stat.wall_us);
        }
    }

    /// A copy with every wall-clock counter zeroed — the deterministic
    /// view, equal across reruns and worker counts.
    pub fn without_wall(&self) -> SpanProfile {
        let nodes = self
            .nodes
            .iter()
            .map(|(path, stat)| {
                (
                    path.clone(),
                    SpanStat {
                        calls: stat.calls,
                        vt_us: stat.vt_us,
                        wall_us: 0,
                    },
                )
            })
            .collect();
        SpanProfile { nodes }
    }

    /// Renders the profile as an indented flame-style table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<40} {:>8} {:>12} {:>12}",
            "span", "calls", "vt(s)", "wall(s)"
        );
        for (path, stat) in &self.nodes {
            let depth = path.matches('/').count();
            let name = path.rsplit('/').next().unwrap_or(path);
            let label = format!("{}{}", "  ".repeat(depth), name);
            let _ = writeln!(
                out,
                "{:<40} {:>8} {:>12.3} {:>12.3}",
                label,
                stat.calls,
                stat.vt_secs(),
                stat.wall_secs()
            );
        }
        out
    }

    /// The profile as a JSON object: `path -> {calls, vt_us, wall_us}`.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.nodes
                .iter()
                .map(|(path, stat)| {
                    (
                        path.clone(),
                        Json::Obj(vec![
                            ("calls".into(), Json::Num(stat.calls as f64)),
                            ("vt_us".into(), Json::Num(stat.vt_us as f64)),
                            ("wall_us".into(), Json::Num(stat.wall_us as f64)),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// Per-request middleware events buffered until the request's
/// plan-ordered `Completed` folds them.
#[derive(Debug, Default)]
struct Pending {
    retries: u64,
    backoff_us: u64,
    faults: u64,
    cache_hits: u64,
}

/// A [`Tracer`] that folds events into a [`SpanProfile`] online.
#[derive(Debug, Default)]
pub struct SpanProfileBuilder {
    inner: Mutex<BuilderState>,
}

#[derive(Debug, Default)]
struct BuilderState {
    profile: SpanProfile,
    pending: HashMap<u64, Pending>,
}

impl SpanProfileBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// A snapshot of the profile folded so far.
    pub fn profile(&self) -> SpanProfile {
        self.inner.lock().expect("span lock").profile.clone()
    }
}

impl BuilderState {
    fn bump(&mut self, path: &str, calls: u64, vt_us: u64, wall_us: u64) {
        if let Some(stat) = self.profile.nodes.get_mut(path) {
            stat.add(calls, vt_us, wall_us);
        } else {
            self.profile.nodes.insert(
                path.to_string(),
                SpanStat {
                    calls,
                    vt_us,
                    wall_us,
                },
            );
        }
    }
}

impl Tracer for SpanProfileBuilder {
    fn record(&self, event: &TraceEvent) {
        let mut state = self.inner.lock().expect("span lock");
        match event {
            TraceEvent::CacheHit { request } => {
                state.pending.entry(*request).or_default().cache_hits += 1;
            }
            TraceEvent::RetryAttempt {
                request,
                backoff_secs,
                ..
            } => {
                let pending = state.pending.entry(*request).or_default();
                pending.retries += 1;
                pending.backoff_us += to_us(*backoff_secs);
            }
            TraceEvent::FaultInjected { request, .. } => {
                state.pending.entry(*request).or_default().faults += 1;
            }
            // Settled cascade legs arrive in plan order right before their
            // request's `Completed`; the billed leg latency is a subset of
            // the completion's span, exactly like retry backoff.
            TraceEvent::RouteLeg {
                route,
                outcome,
                latency_secs,
                ..
            } => {
                let path = format!("run/dispatch/request/route/{route}/{outcome}");
                state.bump(&path, 1, to_us(*latency_secs), 0);
            }
            TraceEvent::Completed {
                request,
                latency_secs,
                ..
            } => {
                let pending = state.pending.remove(request).unwrap_or_default();
                state.bump("run/dispatch/request", 1, to_us(*latency_secs), 0);
                if pending.cache_hits > 0 {
                    state.bump("run/dispatch/request/cache-hit", pending.cache_hits, 0, 0);
                }
                if pending.retries > 0 {
                    state.bump(
                        "run/dispatch/request/retry",
                        pending.retries,
                        pending.backoff_us,
                        0,
                    );
                }
                if pending.faults > 0 {
                    state.bump("run/dispatch/request/fault", pending.faults, 0, 0);
                }
            }
            TraceEvent::Stage {
                run,
                stage,
                wall_secs,
                vt_secs,
            } => {
                let path = if *run == 0 {
                    stage.to_string()
                } else {
                    format!("run/{stage}")
                };
                state.bump(&path, 1, to_us(*vt_secs), to_us(*wall_secs));
            }
            TraceEvent::RunFinished { latency_secs, .. } => {
                state.bump("run", 1, to_us(*latency_secs), 0);
            }
            // Plan-shape and per-instance events carry no duration; the
            // nondeterministically interleaved `Dispatched` is deliberately
            // ignored (its information reappears in plan order on
            // `Completed`). A replayed completion folds like any other —
            // its journaled latency is the span, so a resumed run's profile
            // reconciles with the uninterrupted one.
            TraceEvent::RunStarted { .. }
            | TraceEvent::Planned { .. }
            | TraceEvent::Deduped { .. }
            | TraceEvent::Dispatched { .. }
            | TraceEvent::PromptComponents { .. }
            | TraceEvent::Parsed { .. }
            | TraceEvent::Failed { .. }
            | TraceEvent::Cancelled { .. }
            | TraceEvent::BudgetTripped { .. }
            | TraceEvent::BatchSplit { .. }
            | TraceEvent::Replayed { .. }
            | TraceEvent::JournalState { .. }
            | TraceEvent::JobAccepted { .. }
            | TraceEvent::JobCompleted { .. }
            | TraceEvent::JobRejected { .. }
            | TraceEvent::JobShed { .. }
            | TraceEvent::QueueDepth { .. }
            | TraceEvent::DrainTransition { .. }
            | TraceEvent::SloTransition { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn completed(request: u64, latency_secs: f64) -> TraceEvent {
        TraceEvent::Completed {
            request,
            worker: 0,
            cache_hit: false,
            retries: 0,
            fault: None,
            prompt_tokens: 10,
            completion_tokens: 1,
            attempt_prompt_tokens: 10,
            attempt_completion_tokens: 1,
            cost_usd: 0.0,
            latency_secs,
            vt_start_secs: 0.0,
            vt_end_secs: latency_secs,
        }
    }

    #[test]
    fn folds_retries_at_the_plan_ordered_completion() {
        let events = vec![
            TraceEvent::RetryAttempt {
                request: 2,
                attempt: 1,
                prompt_tokens: 10,
                completion_tokens: 0,
                backoff_secs: 1.0,
            },
            TraceEvent::FaultInjected {
                request: 2,
                kind: "timeout",
            },
            completed(1, 2.0),
            completed(2, 5.0),
            TraceEvent::Stage {
                run: 9,
                stage: "dispatch",
                wall_secs: 0.25,
                vt_secs: 7.0,
            },
            TraceEvent::RunFinished {
                run: 9,
                instances: 2,
                answered: 2,
                failed: 0,
                requests: 2,
                fresh_requests: 2,
                cache_hits: 0,
                prompt_tokens: 20,
                completion_tokens: 2,
                cost_usd: 0.0,
                latency_secs: 7.0,
            },
        ];
        let profile = SpanProfile::from_events(&events);
        let request = profile.get("run/dispatch/request").unwrap();
        assert_eq!(request.calls, 2);
        assert_eq!(request.vt_us, 7_000_000);
        let retry = profile.get("run/dispatch/request/retry").unwrap();
        assert_eq!((retry.calls, retry.vt_us), (1, 1_000_000));
        assert_eq!(profile.get("run/dispatch/request/fault").unwrap().calls, 1);
        let dispatch = profile.get("run/dispatch").unwrap();
        assert_eq!(dispatch.wall_us, 250_000);
        assert_eq!(profile.get("run").unwrap().vt_us, 7_000_000);
    }

    #[test]
    fn merge_is_order_independent_and_without_wall_zeroes_wall() {
        let a = SpanProfile::from_events(&[completed(1, 1.5)]);
        let b = SpanProfile::from_events(&[
            completed(2, 2.5),
            TraceEvent::Stage {
                run: 0,
                stage: "repair",
                wall_secs: 0.5,
                vt_secs: 3.0,
            },
        ]);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.get("run/dispatch/request").unwrap().vt_us, 4_000_000);
        // run==0 stages fold as top-level pipeline phases.
        assert_eq!(ab.get("repair").unwrap().vt_us, 3_000_000);
        assert!(ab.get("repair").unwrap().wall_us > 0);
        assert_eq!(ab.without_wall().get("repair").unwrap().wall_us, 0);
    }

    #[test]
    fn render_indents_by_depth() {
        let profile =
            SpanProfile::from_events(&[TraceEvent::CacheHit { request: 1 }, completed(1, 0.0)]);
        let text = profile.render();
        assert!(
            text.contains("\nrun/") || text.contains("  request"),
            "{text}"
        );
        assert!(text.contains("      cache-hit"), "{text}");
    }
}
