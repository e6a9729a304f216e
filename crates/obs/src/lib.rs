//! # dprep-obs
//!
//! The observability substrate for the serving stack: structured
//! request-lifecycle tracing, metrics aggregation, JSONL trace export, and
//! an online auditor that proves the token/cost/failure ledger correct.
//!
//! The paper's central claim is a cost/quality trade-off, so the
//! reproduction's accounting must be exactly right. This crate makes the
//! ledger *observable* and *checkable*:
//!
//! * [`event`] — [`TraceEvent`], the request-lifecycle vocabulary: planned,
//!   deduped, dispatched-on-worker, cache-hit, retry-attempt,
//!   fault-injected, parsed, failed-with-kind, bracketed by run start/finish
//!   events carrying the run's totals, plus the daemon's job and SLO
//!   events. Events use **virtual time** (the simulator's latency model),
//!   so traces are reproducible; the one wall-clock field is `stage`'s
//!   `wall_secs`. Each event is declared once, in a table that generates
//!   its name and its JSONL writer and reader.
//! * [`tracer`] — the [`Tracer`] sink trait plus combinators:
//!   [`NullTracer`] (default, near-zero overhead), [`MultiTracer`]
//!   (fan-out), [`CollectingTracer`] (in-memory, for tests).
//! * [`metrics`] — [`MetricsRecorder`], a [`Tracer`] that aggregates
//!   latency/token histograms and per-failure-kind counters into a
//!   [`MetricsSnapshot`] with human-readable summaries.
//! * [`export`] — [`JsonlTracer`], serializing every event as one JSON line
//!   (dependency-free writer; each line is a flat object tagged `"event"`),
//!   plus the inverse: [`export::parse_trace`] reads a JSONL trace back
//!   into events.
//! * [`span`] — [`SpanProfile`], a deterministic flame-style fold of a
//!   trace into a span tree (run → stage → request → retry/fault) that
//!   merges bit-identically at any worker count.
//! * [`component`] — the prompt-component vocabulary for per-token cost
//!   attribution (task-spec, answer-format, cot, few-shot, instances,
//!   framing).
//! * [`report`] — [`RunReport`]: renders a trace or snapshot as text,
//!   JSON, or Prometheus exposition, and diffs two runs deterministically.
//! * [`json`] — the workspace's dependency-free JSON reader/writer.
//! * [`journal`] — [`DurableJournal`], the crash-safe append-only run
//!   journal (one JSONL line per terminal request outcome, fsync-free but
//!   flushed per entry) that checkpoint/resume rehydrates completed
//!   requests from after a crash, tolerating a torn final line.
//! * [`audit`] — [`AuditTracer`], which replays the ledger invariants
//!   online: every instance is answered or failed, billed tokens equal the
//!   sum of fresh attempts, cache hits bill zero fresh tokens, and prompt
//!   component attributions sum to exactly the billed prompt tokens. A
//!   violation is a bug in the serving stack, never in the data.
//! * [`window`] — [`WindowAggregator`], a sliding window (ring of
//!   fixed-width buckets over the sequential-account virtual clock)
//!   producing current rates, error rate, and latency quantiles that are
//!   bit-identical across worker counts and repeat runs.
//! * [`slo`] — [`SloEngine`], declarative objectives (latency p95,
//!   failure rate, budget headroom) evaluated with multi-window burn-rate
//!   rules; alert transitions are first-class
//!   [`TraceEvent::SloTransition`] events.
//! * [`recorder`] — [`FlightRecorder`], a bounded ring of recent events
//!   dumped atomically to a postmortem JSONL file when an alert pages.
//!
//! The crate is dependency-free (std only) and sits below `dprep-llm` and
//! `dprep-core` in the workspace DAG: the middleware layers and the
//! executor emit events, everything above consumes snapshots.
//!
//! ## Identity
//!
//! Events correlate through `request` ids drawn from a process-wide counter
//! ([`reserve_request_ids`]) so that several sequential runs (multi-pass
//! pipelines, shared caches) can share one tracer without collisions. Id 0
//! means "untraced" (a request issued outside any executor).

pub mod audit;
pub mod component;
pub mod event;
pub mod export;
pub mod journal;
pub mod json;
pub mod metrics;
pub mod recorder;
pub mod report;
pub mod slo;
pub mod span;
pub mod tracer;
pub mod window;

pub use audit::AuditTracer;
pub use event::TraceEvent;
pub use export::{parse_trace, JsonlTracer};
pub use journal::{
    DurableJournal, JournalEntry, JournalHeader, ResumedJournal, RouteLegRecord, TerminalKind,
};
pub use json::{Json, JsonError};
pub use metrics::{Histogram, MetricsRecorder, MetricsSnapshot};
pub use recorder::FlightRecorder;
pub use report::{render_prom_daemon, render_prom_tenants, ReportFormat, RunReport};
pub use slo::{SloEngine, SloKind, SloSpec, PAGE_FACTOR};
pub use span::{SpanProfile, SpanProfileBuilder, SpanStat};
pub use tracer::{CollectingTracer, MultiTracer, NullTracer, Tracer};
pub use window::{WindowAggregator, WindowConfig, WindowCounts, WindowSnapshot};

use std::sync::atomic::{AtomicU64, Ordering};

static NEXT_RUN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_REQUEST_ID: AtomicU64 = AtomicU64::new(1);

/// A fresh run id (process-wide, starts at 1).
pub fn next_run_id() -> u64 {
    NEXT_RUN_ID.fetch_add(1, Ordering::Relaxed)
}

/// Reserves `count` consecutive request ids and returns the first (ids are
/// `first .. first + count`). Request id 0 is reserved for "untraced".
pub fn reserve_request_ids(count: usize) -> u64 {
    NEXT_REQUEST_ID.fetch_add(count as u64, Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_nonzero() {
        let a = next_run_id();
        let b = next_run_id();
        assert!(a > 0 && b > a);
        let first = reserve_request_ids(3);
        let next = reserve_request_ids(1);
        assert!(first > 0);
        assert!(next >= first + 3);
    }
}
