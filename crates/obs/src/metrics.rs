//! Metrics aggregation: histograms, counters, and run summaries.
//!
//! [`MetricsRecorder`] is a [`Tracer`] that folds the event stream into a
//! [`MetricsSnapshot`]. Aggregation is commutative (counters and
//! log2-bucketed histograms), so the snapshot is identical no matter how
//! worker threads interleave their events — the same determinism contract
//! the executor gives for predictions and usage.

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::event::TraceEvent;
use crate::json::Json;
use crate::tracer::Tracer;

/// Number of log2 buckets: values up to `2^63` land in a bucket.
const BUCKETS: usize = 64;

/// A log2-bucketed histogram of `u64` samples.
///
/// Bucket `i` holds values `v` with `bit_length(v) == i`, i.e. bucket 0 is
/// exactly `{0}`, bucket 1 is `{1}`, bucket 2 is `{2, 3}`, bucket 3 is
/// `{4..=7}`, and so on. Merging histograms is element-wise addition, so
/// aggregation order never matters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket_index(value: u64) -> usize {
        // Bit-length 64 values (>= 2^63) share the top bucket with
        // bit-length 63; without the clamp they would index past the array.
        ((64 - value.leading_zeros()) as usize).min(BUCKETS - 1)
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded samples, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile (`q` in `0.0..=1.0`): **upper bound** of the
    /// bucket holding the `q`-th sample. Exact for small values, within 2x
    /// above.
    ///
    /// **Bias**: because the estimate is the bucket's upper bound, low
    /// quantiles on skewed data are systematically *overstated* — a p50
    /// sitting anywhere in bucket `{4..=7}` reports 7. Report paths should
    /// prefer [`quantile_midpoint`](Self::quantile_midpoint), which halves
    /// the worst-case error by answering from the bucket's middle.
    pub fn quantile(&self, q: f64) -> u64 {
        let (_, hi) = self.quantile_bucket(q);
        hi.min(self.max)
    }

    /// Approximate quantile answered from the **midpoint** of the bucket
    /// holding the `q`-th sample, clamped to the observed min/max. Less
    /// biased than [`quantile`](Self::quantile) (which always answers the
    /// bucket's upper bound); this is the estimator the report path uses.
    pub fn quantile_midpoint(&self, q: f64) -> u64 {
        let (lo, hi) = self.quantile_bucket(q);
        // `lo + (hi - lo) / 2`, never `(lo + hi) / 2`: the top bucket's
        // upper bound is `u64::MAX`, so the naive sum wraps.
        (lo + (hi - lo) / 2).clamp(self.min(), self.max)
    }

    /// `(lower, upper)` bounds of the bucket holding the `q`-th sample
    /// (`(0, 0)` when empty).
    fn quantile_bucket(&self, q: f64) -> (u64, u64) {
        if self.count == 0 {
            return (0, 0);
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(n);
            if seen >= rank {
                // Bucket i holds values with bit_length i; the top bucket
                // also absorbs bit-length 64, so it runs to u64::MAX.
                return if i == 0 {
                    (0, 0)
                } else if i == BUCKETS - 1 {
                    (1u64 << (BUCKETS - 2), u64::MAX)
                } else {
                    (1u64 << (i - 1), (1u64 << i) - 1)
                };
            }
        }
        (self.max, self.max)
    }

    /// Adds every sample of `other` into `self` (element-wise).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a = a.saturating_add(*b);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// Serializes the histogram as a JSON object (sparse `[index, count]`
    /// bucket pairs). Counts above 2^53 would lose precision through the
    /// JSON number type; serving histograms never get near that.
    pub fn to_json(&self) -> Json {
        let buckets: Vec<Json> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| Json::Arr(vec![Json::Num(i as f64), Json::Num(n as f64)]))
            .collect();
        Json::Obj(vec![
            ("count".into(), Json::Num(self.count as f64)),
            ("sum".into(), Json::Num(self.sum as f64)),
            ("min".into(), Json::Num(self.min() as f64)),
            ("max".into(), Json::Num(self.max as f64)),
            ("buckets".into(), Json::Arr(buckets)),
        ])
    }

    /// Parses a histogram serialized by [`to_json`](Self::to_json).
    pub fn from_json(value: &Json) -> Option<Histogram> {
        let count = total(value.get("count")?)? as u64;
        let mut h = Histogram {
            count,
            sum: total(value.get("sum")?)? as u64,
            min: if count == 0 {
                u64::MAX
            } else {
                total(value.get("min")?)? as u64
            },
            max: total(value.get("max")?)? as u64,
            ..Histogram::default()
        };
        for pair in value.get("buckets")?.as_arr()? {
            let pair = pair.as_arr()?;
            let index = total(pair.first()?)?;
            if index >= BUCKETS {
                return None;
            }
            h.buckets[index] = total(pair.get(1)?)? as u64;
        }
        Some(h)
    }
}

/// Reads a count a snapshot carries: any non-negative whole number,
/// saturating at `usize::MAX`. A snapshot's totals saturate at that bound
/// when folded (a histogram's at `u64::MAX`), and JSON writes either as
/// 2^64, past the exact range of [`Json::as_usize`]; read back
/// saturating, a saturated total is the value that was written.
fn total(value: &Json) -> Option<usize> {
    match value {
        Json::Num(n) if value.is_whole() => Some(*n as usize),
        _ => None,
    }
}

/// Adds a count that a trace or snapshot supplied. Those bytes are
/// untrusted, so the sum saturates at `usize::MAX` instead of overflowing.
fn add(total: &mut usize, n: usize) {
    *total = total.saturating_add(n);
}

/// Converts virtual seconds to the microsecond ticks histograms store.
pub(crate) fn micros(secs: f64) -> u64 {
    (secs * 1e6).round().max(0.0) as u64
}

/// Per-route billing and outcome totals, folded from `route_leg` events.
///
/// Keys are route (model) names, so the map is `String`-keyed unlike the
/// interned-label maps: cascades name arbitrary model profiles.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RouteStats {
    /// Legs dispatched (or shorted) on this route.
    pub legs: usize,
    /// Legs that served their request's final answer.
    pub served: usize,
    /// Legs whose response triggered escalation to the next route.
    pub escalated: usize,
    /// Legs shorted by the route's open breaker (billed zero).
    pub shorted: usize,
    /// Retry attempts inside this route's stack.
    pub retries: usize,
    /// Billed prompt tokens attributed to this route.
    pub prompt_tokens: usize,
    /// Billed completion tokens attributed to this route.
    pub completion_tokens: usize,
    /// Billed dollar cost attributed to this route.
    pub cost_usd: f64,
}

impl RouteStats {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("legs".into(), Json::Num(self.legs as f64)),
            ("served".into(), Json::Num(self.served as f64)),
            ("escalated".into(), Json::Num(self.escalated as f64)),
            ("shorted".into(), Json::Num(self.shorted as f64)),
            ("retries".into(), Json::Num(self.retries as f64)),
            ("prompt_tokens".into(), Json::Num(self.prompt_tokens as f64)),
            (
                "completion_tokens".into(),
                Json::Num(self.completion_tokens as f64),
            ),
            ("cost_usd".into(), Json::Num(self.cost_usd)),
        ])
    }

    fn from_json(value: &Json) -> Option<RouteStats> {
        Some(RouteStats {
            legs: total(value.get("legs")?)?,
            served: total(value.get("served")?)?,
            escalated: total(value.get("escalated")?)?,
            shorted: total(value.get("shorted")?)?,
            retries: total(value.get("retries")?)?,
            prompt_tokens: total(value.get("prompt_tokens")?)?,
            completion_tokens: total(value.get("completion_tokens")?)?,
            cost_usd: value.get("cost_usd")?.as_f64()?,
        })
    }

    fn merge(&mut self, other: &RouteStats) {
        add(&mut self.legs, other.legs);
        add(&mut self.served, other.served);
        add(&mut self.escalated, other.escalated);
        add(&mut self.shorted, other.shorted);
        add(&mut self.retries, other.retries);
        add(&mut self.prompt_tokens, other.prompt_tokens);
        add(&mut self.completion_tokens, other.completion_tokens);
        self.cost_usd += other.cost_usd;
    }
}

/// Immutable aggregate of one or more runs' serving behaviour.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Unique requests completed (fresh + cache hits).
    pub requests: usize,
    /// Requests served past the cache (billed).
    pub fresh_requests: usize,
    /// Requests served from cache (billed zero fresh tokens).
    pub cache_hits: usize,
    /// Batches folded into earlier identical requests at plan time.
    pub deduped: usize,
    /// Retry attempts across all fresh requests.
    pub retries: usize,
    /// Fresh requests whose final response still carried a fault.
    pub faulted: usize,
    /// Planned requests cancelled un-dispatched by a tripped run budget.
    pub cancelled: usize,
    /// Degraded batches split in half for re-dispatch.
    pub batch_splits: usize,
    /// Instances with a parsed answer.
    pub answered: usize,
    /// Instances classified as failed, per failure-kind label.
    pub failures: BTreeMap<&'static str, usize>,
    /// Faults injected by the fault middleware, per kind label.
    pub faults_injected: BTreeMap<&'static str, usize>,
    /// Billed prompt tokens (fresh attempts only).
    pub prompt_tokens: usize,
    /// Billed completion tokens (fresh attempts only).
    pub completion_tokens: usize,
    /// Billed prompt tokens attributed per prompt component (from
    /// `prompt_components` events; empty when the producer does not
    /// attribute). Values sum to `prompt_tokens` when every fresh
    /// completion was attributed.
    pub component_tokens: BTreeMap<&'static str, usize>,
    /// Billed dollar cost.
    pub cost_usd: f64,
    /// Planned requests rehydrated from a run journal instead of
    /// dispatched (their original billed usage re-enters the totals).
    pub journal_replayed: usize,
    /// Terminal entries appended to the run journal.
    pub journal_written: usize,
    /// Torn journal tail lines truncated at recovery.
    pub journal_truncated: usize,
    /// Per-route billing/outcome totals for cascade runs (empty when no
    /// router is configured).
    pub routes: BTreeMap<String, RouteStats>,
    /// Per-request virtual latency, in microseconds (fresh requests only).
    pub latency_us: Histogram,
    /// Per-request prompt tokens (fresh requests only).
    pub prompt_hist: Histogram,
    /// Per-request completion tokens (fresh requests only).
    pub completion_hist: Histogram,
}

impl MetricsSnapshot {
    /// Total failed instances across all kinds.
    pub fn failed(&self) -> usize {
        self.failures.values().fold(0, |n, &k| n.saturating_add(k))
    }

    /// Requests served by some route (each routed request that completed
    /// past its cascade contributes exactly one served leg).
    pub fn route_served(&self) -> usize {
        self.routes
            .values()
            .fold(0, |n, r| n.saturating_add(r.served))
    }

    /// Escalation legs across all routes: how often a cheaper route's
    /// answer was rejected and the request moved up the cascade.
    pub fn route_escalated(&self) -> usize {
        self.routes
            .values()
            .fold(0, |n, r| n.saturating_add(r.escalated))
    }

    /// Escalations per served routed request (`0.0` when nothing routed).
    pub fn escalation_rate(&self) -> f64 {
        let served = self.route_served();
        if served == 0 {
            0.0
        } else {
            self.route_escalated() as f64 / served as f64
        }
    }

    /// Rebuilds a snapshot by replaying `events` through a
    /// [`MetricsRecorder`] — the exact fold a live run performs, so a
    /// trace parsed back from JSONL reproduces the live snapshot
    /// bit-identically.
    pub fn from_events<'a>(events: impl IntoIterator<Item = &'a TraceEvent>) -> MetricsSnapshot {
        let recorder = MetricsRecorder::new();
        for event in events {
            recorder.record(event);
        }
        recorder.snapshot()
    }

    /// Serializes the snapshot as a tagged JSON object (histograms
    /// included), so a snapshot file can feed `dprep report` or a bench
    /// baseline and round-trip through [`from_json`](Self::from_json).
    pub fn to_json(&self) -> Json {
        let map = |m: &BTreeMap<&'static str, usize>| {
            Json::Obj(
                m.iter()
                    .map(|(k, v)| ((*k).to_string(), Json::Num(*v as f64)))
                    .collect(),
            )
        };
        Json::Obj(vec![
            ("metrics_snapshot".into(), Json::Num(1.0)),
            ("requests".into(), Json::Num(self.requests as f64)),
            (
                "fresh_requests".into(),
                Json::Num(self.fresh_requests as f64),
            ),
            ("cache_hits".into(), Json::Num(self.cache_hits as f64)),
            ("deduped".into(), Json::Num(self.deduped as f64)),
            ("retries".into(), Json::Num(self.retries as f64)),
            ("faulted".into(), Json::Num(self.faulted as f64)),
            ("cancelled".into(), Json::Num(self.cancelled as f64)),
            ("batch_splits".into(), Json::Num(self.batch_splits as f64)),
            ("answered".into(), Json::Num(self.answered as f64)),
            ("failures".into(), map(&self.failures)),
            ("faults_injected".into(), map(&self.faults_injected)),
            ("prompt_tokens".into(), Json::Num(self.prompt_tokens as f64)),
            (
                "completion_tokens".into(),
                Json::Num(self.completion_tokens as f64),
            ),
            ("component_tokens".into(), map(&self.component_tokens)),
            (
                "routes".into(),
                Json::Obj(
                    self.routes
                        .iter()
                        .map(|(name, stats)| (name.clone(), stats.to_json()))
                        .collect(),
                ),
            ),
            ("cost_usd".into(), Json::Num(self.cost_usd)),
            (
                "journal_replayed".into(),
                Json::Num(self.journal_replayed as f64),
            ),
            (
                "journal_written".into(),
                Json::Num(self.journal_written as f64),
            ),
            (
                "journal_truncated".into(),
                Json::Num(self.journal_truncated as f64),
            ),
            ("latency_us".into(), self.latency_us.to_json()),
            ("prompt_hist".into(), self.prompt_hist.to_json()),
            ("completion_hist".into(), self.completion_hist.to_json()),
        ])
    }

    /// Parses a snapshot serialized by [`to_json`](Self::to_json).
    /// Returns `None` when `value` is not a tagged snapshot object.
    /// String keys are interned through [`crate::component::intern_label`].
    pub fn from_json(value: &Json) -> Option<MetricsSnapshot> {
        value.get("metrics_snapshot")?;
        let map = |key: &str| -> Option<BTreeMap<&'static str, usize>> {
            let Json::Obj(fields) = value.get(key)? else {
                return None;
            };
            let mut out = BTreeMap::new();
            for (k, v) in fields {
                add(
                    out.entry(crate::component::intern_label(k)).or_insert(0),
                    total(v)?,
                );
            }
            Some(out)
        };
        Some(MetricsSnapshot {
            requests: total(value.get("requests")?)?,
            fresh_requests: total(value.get("fresh_requests")?)?,
            cache_hits: total(value.get("cache_hits")?)?,
            deduped: total(value.get("deduped")?)?,
            retries: total(value.get("retries")?)?,
            faulted: total(value.get("faulted")?)?,
            // Absent in snapshots written before the chaos harness: treat
            // as zero so old baselines keep parsing.
            cancelled: value.get("cancelled").and_then(total).unwrap_or(0),
            batch_splits: value.get("batch_splits").and_then(total).unwrap_or(0),
            answered: total(value.get("answered")?)?,
            failures: map("failures")?,
            faults_injected: map("faults_injected")?,
            prompt_tokens: total(value.get("prompt_tokens")?)?,
            completion_tokens: total(value.get("completion_tokens")?)?,
            component_tokens: map("component_tokens")?,
            // Absent in snapshots written before the cascade router: an
            // un-routed run has no per-route rows.
            routes: match value.get("routes") {
                None | Some(Json::Null) => BTreeMap::new(),
                Some(Json::Obj(fields)) => {
                    let mut out = BTreeMap::new();
                    for (name, stats) in fields {
                        out.insert(name.clone(), RouteStats::from_json(stats)?);
                    }
                    out
                }
                Some(_) => return None,
            },
            cost_usd: value.get("cost_usd")?.as_f64()?,
            // Absent in snapshots written before durable runs: zero.
            journal_replayed: value.get("journal_replayed").and_then(total).unwrap_or(0),
            journal_written: value.get("journal_written").and_then(total).unwrap_or(0),
            journal_truncated: value.get("journal_truncated").and_then(total).unwrap_or(0),
            latency_us: Histogram::from_json(value.get("latency_us")?)?,
            prompt_hist: Histogram::from_json(value.get("prompt_hist")?)?,
            completion_hist: Histogram::from_json(value.get("completion_hist")?)?,
        })
    }

    /// Adds every count and sample of `other` into `self`.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        add(&mut self.requests, other.requests);
        add(&mut self.fresh_requests, other.fresh_requests);
        add(&mut self.cache_hits, other.cache_hits);
        add(&mut self.deduped, other.deduped);
        add(&mut self.retries, other.retries);
        add(&mut self.faulted, other.faulted);
        add(&mut self.cancelled, other.cancelled);
        add(&mut self.batch_splits, other.batch_splits);
        add(&mut self.answered, other.answered);
        for (kind, &n) in &other.failures {
            add(self.failures.entry(kind).or_insert(0), n);
        }
        for (kind, &n) in &other.faults_injected {
            add(self.faults_injected.entry(kind).or_insert(0), n);
        }
        add(&mut self.prompt_tokens, other.prompt_tokens);
        add(&mut self.completion_tokens, other.completion_tokens);
        for (component, &n) in &other.component_tokens {
            add(self.component_tokens.entry(component).or_insert(0), n);
        }
        for (route, stats) in &other.routes {
            self.routes.entry(route.clone()).or_default().merge(stats);
        }
        self.cost_usd += other.cost_usd;
        add(&mut self.journal_replayed, other.journal_replayed);
        add(&mut self.journal_written, other.journal_written);
        add(&mut self.journal_truncated, other.journal_truncated);
        self.latency_us.merge(&other.latency_us);
        self.prompt_hist.merge(&other.prompt_hist);
        self.completion_hist.merge(&other.completion_hist);
    }

    /// One-line digest, for report tables. Quantiles use the midpoint
    /// estimator ([`Histogram::quantile_midpoint`]).
    pub fn brief(&self) -> String {
        format!(
            "req {} (fresh {}, cached {}, deduped {}), retries {}, faulted {}, \
             tokens {}+{}, p50/p90/p99 latency {:.1}/{:.1}/{:.1}s",
            self.requests,
            self.fresh_requests,
            self.cache_hits,
            self.deduped,
            self.retries,
            self.faulted,
            self.prompt_tokens,
            self.completion_tokens,
            self.latency_us.quantile_midpoint(0.50) as f64 / 1e6,
            self.latency_us.quantile_midpoint(0.90) as f64 / 1e6,
            self.latency_us.quantile_midpoint(0.99) as f64 / 1e6,
        )
    }

    /// Multi-line human-readable run summary.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str("serving metrics\n");
        out.push_str(&format!(
            "  requests        {} ({} fresh, {} cache hits, {} batches deduped)\n",
            self.requests, self.fresh_requests, self.cache_hits, self.deduped
        ));
        out.push_str(&format!(
            "  retries         {} attempts, {} requests still faulted\n",
            self.retries, self.faulted
        ));
        if self.cancelled > 0 || self.batch_splits > 0 {
            out.push_str(&format!(
                "  degradation     {} requests cancelled by budget, {} batch splits\n",
                self.cancelled, self.batch_splits
            ));
        }
        out.push_str(&format!(
            "  instances       {} answered, {} failed\n",
            self.answered,
            self.failed()
        ));
        for (kind, n) in &self.failures {
            out.push_str(&format!("    failure {kind:<20} {n}\n"));
        }
        for (kind, n) in &self.faults_injected {
            out.push_str(&format!("    fault-injected {kind:<13} {n}\n"));
        }
        if self.journal_replayed > 0 || self.journal_written > 0 || self.journal_truncated > 0 {
            out.push_str(&format!(
                "  journal         {} replayed, {} written, {} torn line(s) truncated\n",
                self.journal_replayed, self.journal_written, self.journal_truncated
            ));
        }
        out.push_str(&format!(
            "  tokens billed   {} prompt + {} completion, ${:.4}\n",
            self.prompt_tokens, self.completion_tokens, self.cost_usd
        ));
        for (component, n) in &self.component_tokens {
            let share = if self.prompt_tokens > 0 {
                100.0 * *n as f64 / self.prompt_tokens as f64
            } else {
                0.0
            };
            out.push_str(&format!(
                "    component {component:<17} {n:>8} ({share:.1}%)\n"
            ));
        }
        if !self.routes.is_empty() {
            out.push_str(&format!(
                "  cascade         {} served, {} escalations ({:.1}% rate)\n",
                self.route_served(),
                self.route_escalated(),
                100.0 * self.escalation_rate()
            ));
            for (route, stats) in &self.routes {
                out.push_str(&format!(
                    "    route {route:<21} {} legs ({} served, {} escalated, \
                     {} shorted), tokens {}+{}, ${:.4}\n",
                    stats.legs,
                    stats.served,
                    stats.escalated,
                    stats.shorted,
                    stats.prompt_tokens,
                    stats.completion_tokens,
                    stats.cost_usd
                ));
            }
        }
        if self.latency_us.count() > 0 {
            out.push_str(&format!(
                "  latency (virt.) mean {:.2}s  p50 {:.2}s  p90 {:.2}s  p95 {:.2}s  \
                 p99 {:.2}s  max {:.2}s\n",
                self.latency_us.mean() / 1e6,
                self.latency_us.quantile_midpoint(0.50) as f64 / 1e6,
                self.latency_us.quantile_midpoint(0.90) as f64 / 1e6,
                self.latency_us.quantile_midpoint(0.95) as f64 / 1e6,
                self.latency_us.quantile_midpoint(0.99) as f64 / 1e6,
                self.latency_us.max() as f64 / 1e6,
            ));
        }
        if self.prompt_hist.count() > 0 {
            out.push_str(&format!(
                "  prompt/request  mean {:.0}  max {}\n",
                self.prompt_hist.mean(),
                self.prompt_hist.max()
            ));
        }
        out
    }
}

/// A [`Tracer`] that folds events into a [`MetricsSnapshot`].
#[derive(Debug, Default)]
pub struct MetricsRecorder {
    snapshot: Mutex<MetricsSnapshot>,
}

impl MetricsRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// A clone of the aggregate so far.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.snapshot.lock().expect("metrics lock").clone()
    }
}

impl Tracer for MetricsRecorder {
    fn record(&self, event: &TraceEvent) {
        let mut m = self.snapshot.lock().expect("metrics lock");
        match event {
            TraceEvent::Deduped { .. } => m.deduped += 1,
            TraceEvent::FaultInjected { kind, .. } => {
                *m.faults_injected.entry(kind).or_insert(0) += 1;
            }
            TraceEvent::Completed {
                cache_hit,
                retries,
                fault,
                prompt_tokens,
                completion_tokens,
                cost_usd,
                latency_secs,
                ..
            } => {
                m.requests += 1;
                if *cache_hit {
                    m.cache_hits += 1;
                } else {
                    m.fresh_requests += 1;
                    add(&mut m.retries, *retries as usize);
                    m.faulted += usize::from(fault.is_some());
                    add(&mut m.prompt_tokens, *prompt_tokens);
                    add(&mut m.completion_tokens, *completion_tokens);
                    m.cost_usd += cost_usd;
                    m.latency_us.record(micros(*latency_secs));
                    m.prompt_hist.record(*prompt_tokens as u64);
                    m.completion_hist.record(*completion_tokens as u64);
                }
            }
            TraceEvent::PromptComponents {
                task_spec,
                answer_format,
                cot,
                few_shot,
                instances,
                framing,
                ..
            } => {
                // Cache hits attribute zero everywhere, so folding their
                // all-zero events is a no-op by construction.
                for (component, n) in [
                    (crate::component::TASK_SPEC, task_spec),
                    (crate::component::ANSWER_FORMAT, answer_format),
                    (crate::component::COT, cot),
                    (crate::component::FEW_SHOT, few_shot),
                    (crate::component::INSTANCES, instances),
                    (crate::component::FRAMING, framing),
                ] {
                    if *n > 0 {
                        add(m.component_tokens.entry(component).or_insert(0), *n);
                    }
                }
            }
            TraceEvent::RouteLeg {
                route,
                outcome,
                retries,
                prompt_tokens,
                completion_tokens,
                cost_usd,
                ..
            } => {
                let stats = m.routes.entry(route.clone()).or_default();
                stats.legs += 1;
                match *outcome {
                    "served" => stats.served += 1,
                    "escalated" => stats.escalated += 1,
                    "shorted" => stats.shorted += 1,
                    _ => {}
                }
                add(&mut stats.retries, *retries as usize);
                add(&mut stats.prompt_tokens, *prompt_tokens);
                add(&mut stats.completion_tokens, *completion_tokens);
                stats.cost_usd += cost_usd;
            }
            TraceEvent::Parsed { .. } => m.answered += 1,
            TraceEvent::Failed { kind, .. } => {
                *m.failures.entry(kind).or_insert(0) += 1;
            }
            TraceEvent::Cancelled { .. } => m.cancelled += 1,
            TraceEvent::BatchSplit { .. } => m.batch_splits += 1,
            TraceEvent::Replayed { .. } => m.journal_replayed += 1,
            TraceEvent::JournalState {
                written, truncated, ..
            } => {
                // `replayed` folds from the per-request `Replayed` events;
                // this event contributes the journal-file-level counters.
                add(&mut m.journal_written, *written);
                add(&mut m.journal_truncated, *truncated);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 2, 3, 4, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.sum(), 1110);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.quantile(0.0), 0);
        assert!(h.quantile(1.0) >= 100);
        assert!(h.quantile(1.0) <= 1023);
    }

    #[test]
    fn histogram_merge_matches_combined_recording() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut both = Histogram::new();
        for v in [5u64, 17, 256] {
            a.record(v);
            both.record(v);
        }
        for v in [1u64, 9999] {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
    }

    #[test]
    fn recorder_bills_fresh_requests_only() {
        let rec = MetricsRecorder::new();
        let fresh = TraceEvent::Completed {
            request: 1,
            worker: 0,
            cache_hit: false,
            retries: 2,
            fault: None,
            prompt_tokens: 300,
            completion_tokens: 30,
            attempt_prompt_tokens: 100,
            attempt_completion_tokens: 10,
            cost_usd: 0.5,
            latency_secs: 6.0,
            vt_start_secs: 0.0,
            vt_end_secs: 6.0,
        };
        let cached = TraceEvent::Completed {
            request: 2,
            worker: 0,
            cache_hit: true,
            retries: 2,
            fault: None,
            prompt_tokens: 300,
            completion_tokens: 30,
            attempt_prompt_tokens: 100,
            attempt_completion_tokens: 10,
            cost_usd: 0.0,
            latency_secs: 0.0,
            vt_start_secs: 6.0,
            vt_end_secs: 6.0,
        };
        rec.record(&fresh);
        rec.record(&cached);
        rec.record(&TraceEvent::Parsed {
            request: 1,
            instance: 0,
        });
        rec.record(&TraceEvent::Failed {
            request: 1,
            instance: 1,
            kind: "skipped-answer",
        });
        let m = rec.snapshot();
        assert_eq!(m.requests, 2);
        assert_eq!(m.fresh_requests, 1);
        assert_eq!(m.cache_hits, 1);
        assert_eq!(m.retries, 2, "cache replay must not re-count retries");
        assert_eq!(m.prompt_tokens, 300, "cache hit billed fresh tokens");
        assert_eq!(m.answered, 1);
        assert_eq!(m.failed(), 1);
        assert_eq!(m.failures.get("skipped-answer"), Some(&1));
        assert!(!m.summary().is_empty());
        assert!(m.brief().contains("cached 1"));
    }

    #[test]
    fn snapshot_merge_is_commutative() {
        let rec = MetricsRecorder::new();
        rec.record(&TraceEvent::Deduped {
            request: 1,
            batch: 2,
        });
        let a = rec.snapshot();
        let rec2 = MetricsRecorder::new();
        rec2.record(&TraceEvent::Parsed {
            request: 4,
            instance: 0,
        });
        let b = rec2.snapshot();
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.deduped, 1);
        assert_eq!(ab.answered, 1);
    }

    #[test]
    fn midpoint_quantile_sits_at_or_below_the_upper_bound() {
        let mut h = Histogram::new();
        // Heavily skewed: most mass in bucket {4..=7}.
        for v in [4u64, 4, 5, 5, 6, 7, 900] {
            h.record(v);
        }
        let p50_upper = h.quantile(0.50);
        let p50_mid = h.quantile_midpoint(0.50);
        assert_eq!(p50_upper, 7, "upper-bound estimator answers bucket hi");
        assert_eq!(p50_mid, 5, "midpoint halves the bias");
        assert!(p50_mid <= p50_upper);
        // Quantiles clamp to the observed range.
        assert!(h.quantile_midpoint(1.0) <= h.max());
        assert!(h.quantile_midpoint(0.0) >= h.min());
        assert_eq!(Histogram::new().quantile_midpoint(0.5), 0);
    }

    #[test]
    fn max_bucket_samples_do_not_panic_or_wrap_the_midpoint() {
        let mut h = Histogram::new();
        h.record(u64::MAX); // bit-length 64: must clamp into the top bucket
        h.record(1u64 << 63);
        h.record(5);
        assert_eq!(h.count(), 3);
        assert_eq!(h.min(), 5);
        assert_eq!(h.max(), u64::MAX);
        // The p99 sample sits in the top bucket; the midpoint must stay
        // inside it instead of wrapping to a tiny value.
        let mid = h.quantile_midpoint(0.99);
        assert!(mid >= 1u64 << 62, "midpoint wrapped: {mid}");
        assert!(mid <= h.max());
        assert!(h.quantile(0.99) >= 1u64 << 62);
        // Merge and JSON round-trip keep the top bucket intact.
        let mut other = Histogram::new();
        other.merge(&h);
        assert_eq!(other, h);
        let rebuilt = Histogram::from_json(&h.to_json()).unwrap();
        assert_eq!(rebuilt.count(), 3);
    }

    #[test]
    fn cancellations_and_splits_fold_and_old_snapshots_still_parse() {
        let rec = MetricsRecorder::new();
        rec.record(&TraceEvent::Cancelled {
            request: 3,
            reason: "token-budget",
        });
        rec.record(&TraceEvent::BatchSplit {
            request: 9,
            instances: 4,
        });
        rec.record(&TraceEvent::BudgetTripped {
            run: 1,
            reason: "token-budget",
            cancelled: 1,
        });
        let m = rec.snapshot();
        assert_eq!(m.cancelled, 1);
        assert_eq!(m.batch_splits, 1);
        assert!(m.summary().contains("degradation"));
        // Round trip keeps the new counters.
        let text = m.to_json().to_json();
        let rebuilt =
            MetricsSnapshot::from_json(&crate::json::Json::parse(&text).unwrap()).unwrap();
        assert_eq!(rebuilt, m);
        // A pre-chaos snapshot (no cancelled/batch_splits keys) still
        // parses, defaulting the new counters to zero.
        let legacy = text
            .replace("\"cancelled\":1,", "")
            .replace("\"batch_splits\":1,", "");
        assert_ne!(legacy, text, "fields were present to strip");
        let parsed =
            MetricsSnapshot::from_json(&crate::json::Json::parse(&legacy).unwrap()).unwrap();
        assert_eq!(parsed.cancelled, 0);
        assert_eq!(parsed.batch_splits, 0);
    }

    #[test]
    fn journal_counters_fold_and_round_trip() {
        let rec = MetricsRecorder::new();
        rec.record(&TraceEvent::Replayed { request: 4 });
        rec.record(&TraceEvent::Replayed { request: 5 });
        rec.record(&TraceEvent::JournalState {
            run: 1,
            replayed: 2,
            written: 3,
            truncated: 1,
        });
        let m = rec.snapshot();
        assert_eq!(m.journal_replayed, 2);
        assert_eq!(m.journal_written, 3);
        assert_eq!(m.journal_truncated, 1);
        assert!(m.summary().contains("journal"), "{}", m.summary());
        let text = m.to_json().to_json();
        let rebuilt =
            MetricsSnapshot::from_json(&crate::json::Json::parse(&text).unwrap()).unwrap();
        assert_eq!(rebuilt, m);
        // Pre-durability snapshots (no journal keys) still parse as zero.
        let legacy = text
            .replace("\"journal_replayed\":2,", "")
            .replace("\"journal_written\":3,", "")
            .replace("\"journal_truncated\":1,", "");
        assert_ne!(legacy, text);
        let parsed =
            MetricsSnapshot::from_json(&crate::json::Json::parse(&legacy).unwrap()).unwrap();
        assert_eq!(parsed.journal_replayed, 0);
        assert_eq!(parsed.journal_written, 0);
        assert_eq!(parsed.journal_truncated, 0);
    }

    #[test]
    fn full_snapshot_round_trips_end_to_end() {
        // Every counter populated at once — including the failures map
        // with several kinds and all three journal counters — written to
        // JSON text, reparsed, and compared field-for-field. This is the
        // path `dprep serve` uses to ship per-tenant snapshots over TCP.
        let rec = MetricsRecorder::new();
        for (request, fault) in [(1u64, None), (2, Some("timeout")), (3, Some("garbled"))] {
            rec.record(&TraceEvent::Completed {
                request,
                worker: 0,
                cache_hit: false,
                retries: u32::from(fault.is_some()),
                fault,
                prompt_tokens: 150,
                completion_tokens: 15,
                attempt_prompt_tokens: 150,
                attempt_completion_tokens: 15,
                cost_usd: 0.25,
                latency_secs: 2.0,
                vt_start_secs: 0.0,
                vt_end_secs: 2.0,
            });
        }
        rec.record(&TraceEvent::Deduped {
            request: 1,
            batch: 7,
        });
        rec.record(&TraceEvent::FaultInjected {
            request: 2,
            kind: "timeout",
        });
        rec.record(&TraceEvent::Parsed {
            request: 1,
            instance: 0,
        });
        for (instance, kind) in [
            (1, "skipped-answer"),
            (2, "format-violation"),
            (3, "context-overflow"),
            (4, "skipped-answer"),
        ] {
            rec.record(&TraceEvent::Failed {
                request: 1,
                instance,
                kind,
            });
        }
        rec.record(&TraceEvent::Cancelled {
            request: 9,
            reason: "deadline",
        });
        rec.record(&TraceEvent::BatchSplit {
            request: 8,
            instances: 6,
        });
        rec.record(&TraceEvent::Replayed { request: 4 });
        rec.record(&TraceEvent::JournalState {
            run: 1,
            replayed: 1,
            written: 5,
            truncated: 2,
        });
        let live = rec.snapshot();
        assert_eq!(live.failures.len(), 3, "three distinct failure kinds");
        assert_eq!(live.failures.get("skipped-answer"), Some(&2));
        assert_eq!(live.failed(), 4);
        assert_eq!(live.journal_replayed, 1);
        assert_eq!(live.journal_written, 5);
        assert_eq!(live.journal_truncated, 2);

        let text = live.to_json().to_json();
        let rebuilt =
            MetricsSnapshot::from_json(&crate::json::Json::parse(&text).unwrap()).unwrap();
        assert_eq!(rebuilt, live, "text round trip must be lossless");
        assert_eq!(rebuilt.failures, live.failures);
        assert_eq!(rebuilt.faults_injected.get("timeout"), Some(&1));
        assert_eq!(rebuilt.journal_replayed, live.journal_replayed);
        assert_eq!(rebuilt.journal_written, live.journal_written);
        assert_eq!(rebuilt.journal_truncated, live.journal_truncated);
        // Serializing the rebuilt snapshot reproduces the exact bytes.
        assert_eq!(rebuilt.to_json().to_json(), text);
        // A failure kind outside the vocabulary interns to "other"
        // instead of leaking arbitrary strings into the static map.
        let hostile = text.replace("skipped-answer", "totally-novel-kind");
        let parsed =
            MetricsSnapshot::from_json(&crate::json::Json::parse(&hostile).unwrap()).unwrap();
        assert_eq!(parsed.failures.get("other"), Some(&2));
        assert_eq!(parsed.failed(), live.failed());
    }

    #[test]
    fn route_legs_fold_round_trip_and_merge() {
        let rec = MetricsRecorder::new();
        let leg =
            |route: &str, outcome: &'static str, tokens: usize, cost: f64| TraceEvent::RouteLeg {
                request: 1,
                route: route.to_string(),
                index: 0,
                outcome,
                fault: None,
                retries: usize::from(outcome == "escalated") as u32,
                prompt_tokens: tokens,
                completion_tokens: tokens / 10,
                cost_usd: cost,
                latency_secs: 1.0,
            };
        rec.record(&leg("sim-gpt-3.5", "escalated", 200, 0.1));
        rec.record(&leg("sim-gpt-4", "served", 100, 0.15));
        rec.record(&leg("sim-gpt-3.5", "shorted", 0, 0.0));
        rec.record(&leg("sim-gpt-4", "served", 120, 0.2));
        let m = rec.snapshot();
        assert_eq!(m.routes.len(), 2);
        let cheap = &m.routes["sim-gpt-3.5"];
        assert_eq!((cheap.legs, cheap.escalated, cheap.shorted), (2, 1, 1));
        assert_eq!(cheap.prompt_tokens, 200);
        assert_eq!(cheap.retries, 1);
        let big = &m.routes["sim-gpt-4"];
        assert_eq!((big.legs, big.served), (2, 2));
        assert_eq!(m.route_served(), 2);
        assert_eq!(m.route_escalated(), 1);
        assert!((m.escalation_rate() - 0.5).abs() < 1e-12);
        assert!(m.summary().contains("route sim-gpt-3.5"), "{}", m.summary());
        // JSON round trip keeps the map; serialization is byte-stable.
        let text = m.to_json().to_json();
        let rebuilt =
            MetricsSnapshot::from_json(&crate::json::Json::parse(&text).unwrap()).unwrap();
        assert_eq!(rebuilt, m);
        assert_eq!(rebuilt.to_json().to_json(), text);
        // A pre-router snapshot (no routes key) still parses as un-routed.
        let legacy = text.replace(
            &format!(
                "\"routes\":{},",
                m.to_json().get("routes").unwrap().to_json()
            ),
            "",
        );
        assert_ne!(legacy, text);
        let parsed =
            MetricsSnapshot::from_json(&crate::json::Json::parse(&legacy).unwrap()).unwrap();
        assert!(parsed.routes.is_empty());
        // Merge adds per-route, and is commutative.
        let mut ab = m.clone();
        ab.merge(&parsed);
        let mut ba = parsed.clone();
        ba.merge(&m);
        assert_eq!(ab.routes, ba.routes);
        let mut doubled = m.clone();
        doubled.merge(&m);
        assert_eq!(doubled.routes["sim-gpt-4"].served, 4);
        assert_eq!(doubled.routes["sim-gpt-3.5"].prompt_tokens, 400);
    }

    #[test]
    fn histogram_and_snapshot_round_trip_through_json() {
        let rec = MetricsRecorder::new();
        rec.record(&TraceEvent::Completed {
            request: 1,
            worker: 0,
            cache_hit: false,
            retries: 1,
            fault: Some("timeout"),
            prompt_tokens: 200,
            completion_tokens: 20,
            attempt_prompt_tokens: 100,
            attempt_completion_tokens: 10,
            cost_usd: 0.125,
            latency_secs: 3.5,
            vt_start_secs: 0.0,
            vt_end_secs: 3.5,
        });
        rec.record(&TraceEvent::PromptComponents {
            request: 1,
            cache_hit: false,
            task_spec: 80,
            answer_format: 40,
            cot: 30,
            few_shot: 0,
            instances: 44,
            framing: 6,
        });
        rec.record(&TraceEvent::Failed {
            request: 1,
            instance: 0,
            kind: "skipped-answer",
        });
        let live = rec.snapshot();
        assert_eq!(live.component_tokens.values().sum::<usize>(), 200);
        let text = live.to_json().to_json();
        let parsed = crate::json::Json::parse(&text).expect("valid JSON");
        let rebuilt = MetricsSnapshot::from_json(&parsed).expect("tagged snapshot");
        assert_eq!(rebuilt, live);
        // A non-snapshot object is rejected, not misparsed.
        assert_eq!(
            MetricsSnapshot::from_json(&crate::json::Json::Obj(vec![])),
            None
        );
    }
}
