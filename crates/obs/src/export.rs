//! JSON-lines trace export.
//!
//! [`JsonlTracer`] serializes every event as one flat JSON object per line,
//! tagged with an `"event"` field holding [`TraceEvent::name`]. The writer
//! is dependency-free; numbers are emitted as JSON numbers (floats via
//! `{:?}`, which round-trips f64 exactly).

use std::sync::Mutex;

use crate::event::TraceEvent;
use crate::json::Json;
use crate::tracer::Tracer;

/// A minimal single-line JSON object writer.
struct Line {
    buf: String,
}

impl Line {
    fn new(event: &'static str) -> Self {
        let mut buf = String::with_capacity(128);
        buf.push_str("{\"event\":\"");
        buf.push_str(event);
        buf.push('"');
        Line { buf }
    }

    fn key(&mut self, key: &str) {
        self.buf.push(',');
        self.buf.push('"');
        self.buf.push_str(key);
        self.buf.push_str("\":");
    }

    fn u64(&mut self, key: &str, value: u64) -> &mut Self {
        self.key(key);
        self.buf.push_str(&value.to_string());
        self
    }

    fn usize(&mut self, key: &str, value: usize) -> &mut Self {
        self.u64(key, value as u64)
    }

    fn f64(&mut self, key: &str, value: f64) -> &mut Self {
        self.key(key);
        if value.is_finite() {
            // `{:?}` prints the shortest representation that round-trips.
            self.buf.push_str(&format!("{value:?}"));
        } else {
            self.buf.push_str("null");
        }
        self
    }

    fn bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.key(key);
        self.buf.push_str(if value { "true" } else { "false" });
        self
    }

    fn str(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key);
        self.buf.push('"');
        for ch in value.chars() {
            match ch {
                '"' => self.buf.push_str("\\\""),
                '\\' => self.buf.push_str("\\\\"),
                '\n' => self.buf.push_str("\\n"),
                '\r' => self.buf.push_str("\\r"),
                '\t' => self.buf.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    self.buf.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => self.buf.push(c),
            }
        }
        self.buf.push('"');
        self
    }

    fn opt_str(&mut self, key: &str, value: Option<&str>) -> &mut Self {
        match value {
            Some(v) => self.str(key, v),
            None => {
                self.key(key);
                self.buf.push_str("null");
                self
            }
        }
    }

    fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// Serializes one event to its JSON line (no trailing newline).
pub fn event_to_json(event: &TraceEvent) -> String {
    let mut line = Line::new(event.name());
    match event {
        TraceEvent::RunStarted {
            run,
            instances,
            batches,
            requests,
        } => {
            line.u64("run", *run)
                .usize("instances", *instances)
                .usize("batches", *batches)
                .usize("requests", *requests);
        }
        TraceEvent::Planned {
            request,
            batches,
            instances,
        } => {
            line.u64("request", *request)
                .usize("batches", *batches)
                .usize("instances", *instances);
        }
        TraceEvent::Deduped { request, batch } => {
            line.u64("request", *request).usize("batch", *batch);
        }
        TraceEvent::Dispatched {
            request,
            worker,
            vt_start_secs,
        } => {
            line.u64("request", *request)
                .usize("worker", *worker)
                .f64("vt_start_secs", *vt_start_secs);
        }
        TraceEvent::CacheHit { request } => {
            line.u64("request", *request);
        }
        TraceEvent::RetryAttempt {
            request,
            attempt,
            prompt_tokens,
            completion_tokens,
            backoff_secs,
        } => {
            line.u64("request", *request)
                .u64("attempt", u64::from(*attempt))
                .usize("prompt_tokens", *prompt_tokens)
                .usize("completion_tokens", *completion_tokens)
                .f64("backoff_secs", *backoff_secs);
        }
        TraceEvent::FaultInjected { request, kind } => {
            line.u64("request", *request).str("kind", kind);
        }
        TraceEvent::RouteLeg {
            request,
            route,
            index,
            outcome,
            fault,
            retries,
            prompt_tokens,
            completion_tokens,
            cost_usd,
            latency_secs,
        } => {
            line.u64("request", *request)
                .str("route", route)
                .u64("index", u64::from(*index))
                .str("outcome", outcome)
                .opt_str("fault", *fault)
                .u64("retries", u64::from(*retries))
                .usize("prompt_tokens", *prompt_tokens)
                .usize("completion_tokens", *completion_tokens)
                .f64("cost_usd", *cost_usd)
                .f64("latency_secs", *latency_secs);
        }
        TraceEvent::Completed {
            request,
            worker,
            cache_hit,
            retries,
            fault,
            prompt_tokens,
            completion_tokens,
            attempt_prompt_tokens,
            attempt_completion_tokens,
            cost_usd,
            latency_secs,
            vt_start_secs,
            vt_end_secs,
        } => {
            line.u64("request", *request)
                .usize("worker", *worker)
                .bool("cache_hit", *cache_hit)
                .u64("retries", u64::from(*retries))
                .opt_str("fault", *fault)
                .usize("prompt_tokens", *prompt_tokens)
                .usize("completion_tokens", *completion_tokens)
                .usize("attempt_prompt_tokens", *attempt_prompt_tokens)
                .usize("attempt_completion_tokens", *attempt_completion_tokens)
                .f64("cost_usd", *cost_usd)
                .f64("latency_secs", *latency_secs)
                .f64("vt_start_secs", *vt_start_secs)
                .f64("vt_end_secs", *vt_end_secs);
        }
        TraceEvent::PromptComponents {
            request,
            cache_hit,
            task_spec,
            answer_format,
            cot,
            few_shot,
            instances,
            framing,
        } => {
            line.u64("request", *request)
                .bool("cache_hit", *cache_hit)
                .usize("task_spec", *task_spec)
                .usize("answer_format", *answer_format)
                .usize("cot", *cot)
                .usize("few_shot", *few_shot)
                .usize("instances", *instances)
                .usize("framing", *framing);
        }
        TraceEvent::Stage {
            run,
            stage,
            wall_secs,
            vt_secs,
        } => {
            line.u64("run", *run)
                .str("stage", stage)
                .f64("wall_secs", *wall_secs)
                .f64("vt_secs", *vt_secs);
        }
        TraceEvent::Parsed { request, instance } => {
            line.u64("request", *request).usize("instance", *instance);
        }
        TraceEvent::Failed {
            request,
            instance,
            kind,
        } => {
            line.u64("request", *request)
                .usize("instance", *instance)
                .str("kind", kind);
        }
        TraceEvent::Cancelled { request, reason } => {
            line.u64("request", *request).str("reason", reason);
        }
        TraceEvent::BudgetTripped {
            run,
            reason,
            cancelled,
        } => {
            line.u64("run", *run)
                .str("reason", reason)
                .usize("cancelled", *cancelled);
        }
        TraceEvent::BatchSplit { request, instances } => {
            line.u64("request", *request).usize("instances", *instances);
        }
        TraceEvent::Replayed { request } => {
            line.u64("request", *request);
        }
        TraceEvent::JournalState {
            run,
            replayed,
            written,
            truncated,
        } => {
            line.u64("run", *run)
                .usize("replayed", *replayed)
                .usize("written", *written)
                .usize("truncated", *truncated);
        }
        TraceEvent::JobAccepted { job, tenant } => {
            line.u64("job", *job).str("tenant", tenant);
        }
        TraceEvent::JobCompleted {
            job,
            tenant,
            tokens,
            cost_usd,
            budget_tripped,
        } => {
            line.u64("job", *job)
                .str("tenant", tenant)
                .usize("tokens", *tokens)
                .f64("cost_usd", *cost_usd)
                .bool("budget_tripped", *budget_tripped);
        }
        TraceEvent::JobRejected { tenant, reason } => {
            line.str("tenant", tenant).str("reason", reason);
        }
        TraceEvent::JobShed {
            job,
            tenant,
            reason,
            retry_after_secs,
            queued,
            inflight,
        } => {
            line.u64("job", *job)
                .str("tenant", tenant)
                .str("reason", reason)
                .f64("retry_after_secs", *retry_after_secs)
                .usize("queued", *queued)
                .usize("inflight", *inflight);
        }
        TraceEvent::QueueDepth { queued, inflight } => {
            line.usize("queued", *queued).usize("inflight", *inflight);
        }
        TraceEvent::DrainTransition { from, to, inflight } => {
            line.str("from", from)
                .str("to", to)
                .usize("inflight", *inflight);
        }
        TraceEvent::SloTransition {
            tenant,
            slo,
            from,
            to,
            burn_long,
            burn_short,
            vt_secs,
        } => {
            line.str("tenant", tenant)
                .str("slo", slo)
                .str("from", from)
                .str("to", to)
                .f64("burn_long", *burn_long)
                .f64("burn_short", *burn_short)
                .f64("vt_secs", *vt_secs);
        }
        TraceEvent::RunFinished {
            run,
            instances,
            answered,
            failed,
            requests,
            fresh_requests,
            cache_hits,
            prompt_tokens,
            completion_tokens,
            cost_usd,
            latency_secs,
        } => {
            line.u64("run", *run)
                .usize("instances", *instances)
                .usize("answered", *answered)
                .usize("failed", *failed)
                .usize("requests", *requests)
                .usize("fresh_requests", *fresh_requests)
                .usize("cache_hits", *cache_hits)
                .usize("prompt_tokens", *prompt_tokens)
                .usize("completion_tokens", *completion_tokens)
                .f64("cost_usd", *cost_usd)
                .f64("latency_secs", *latency_secs);
        }
    }
    line.finish()
}

/// Parses one JSONL trace line (or an already-parsed [`Json`] object)
/// back into the [`TraceEvent`] it serializes. The inverse of
/// [`event_to_json`]: `event_from_json(&Json::parse(&event_to_json(e))?)`
/// reproduces `e` exactly (string kinds are interned through
/// [`crate::component::intern_label`]).
pub fn event_from_json(value: &Json) -> Result<TraceEvent, String> {
    let kind = value
        .get("event")
        .and_then(Json::as_str)
        .ok_or_else(|| "object has no \"event\" tag".to_string())?;
    let u = |key: &str| -> Result<u64, String> {
        value
            .get(key)
            .and_then(Json::as_usize)
            .map(|v| v as u64)
            .ok_or_else(|| format!("{kind}: missing integer field {key:?}"))
    };
    let us = |key: &str| -> Result<usize, String> { u(key).map(|v| v as usize) };
    let f = |key: &str| -> Result<f64, String> {
        value
            .get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{kind}: missing number field {key:?}"))
    };
    let s = |key: &str| -> Result<&'static str, String> {
        value
            .get(key)
            .and_then(Json::as_str)
            .map(crate::component::intern_label)
            .ok_or_else(|| format!("{kind}: missing string field {key:?}"))
    };
    // Owned-string fields (tenant names, rejection reasons) are unbounded
    // vocabularies, so they are not interned like the `&'static str` kinds.
    let so = |key: &str| -> Result<String, String> {
        value
            .get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("{kind}: missing string field {key:?}"))
    };
    let b = |key: &str| -> Result<bool, String> {
        match value.get(key) {
            Some(Json::Bool(v)) => Ok(*v),
            _ => Err(format!("{kind}: missing bool field {key:?}")),
        }
    };
    match kind {
        "run_started" => Ok(TraceEvent::RunStarted {
            run: u("run")?,
            instances: us("instances")?,
            batches: us("batches")?,
            requests: us("requests")?,
        }),
        "planned" => Ok(TraceEvent::Planned {
            request: u("request")?,
            batches: us("batches")?,
            instances: us("instances")?,
        }),
        "deduped" => Ok(TraceEvent::Deduped {
            request: u("request")?,
            batch: us("batch")?,
        }),
        "dispatched" => Ok(TraceEvent::Dispatched {
            request: u("request")?,
            worker: us("worker")?,
            vt_start_secs: f("vt_start_secs")?,
        }),
        "cache_hit" => Ok(TraceEvent::CacheHit {
            request: u("request")?,
        }),
        "retry_attempt" => Ok(TraceEvent::RetryAttempt {
            request: u("request")?,
            attempt: u("attempt")? as u32,
            prompt_tokens: us("prompt_tokens")?,
            completion_tokens: us("completion_tokens")?,
            backoff_secs: f("backoff_secs")?,
        }),
        "fault_injected" => Ok(TraceEvent::FaultInjected {
            request: u("request")?,
            kind: s("kind")?,
        }),
        "route_leg" => Ok(TraceEvent::RouteLeg {
            request: u("request")?,
            route: so("route")?,
            index: u("index")? as u32,
            outcome: s("outcome")?,
            fault: match value.get("fault") {
                Some(Json::Null) | None => None,
                Some(v) => Some(crate::component::intern_label(
                    v.as_str().ok_or("route_leg: fault is not a string")?,
                )),
            },
            retries: u("retries")? as u32,
            prompt_tokens: us("prompt_tokens")?,
            completion_tokens: us("completion_tokens")?,
            cost_usd: f("cost_usd")?,
            latency_secs: f("latency_secs")?,
        }),
        "completed" => Ok(TraceEvent::Completed {
            request: u("request")?,
            worker: us("worker")?,
            cache_hit: b("cache_hit")?,
            retries: u("retries")? as u32,
            fault: match value.get("fault") {
                Some(Json::Null) | None => None,
                Some(v) => Some(crate::component::intern_label(
                    v.as_str().ok_or("completed: fault is not a string")?,
                )),
            },
            prompt_tokens: us("prompt_tokens")?,
            completion_tokens: us("completion_tokens")?,
            attempt_prompt_tokens: us("attempt_prompt_tokens")?,
            attempt_completion_tokens: us("attempt_completion_tokens")?,
            cost_usd: f("cost_usd")?,
            latency_secs: f("latency_secs")?,
            vt_start_secs: f("vt_start_secs")?,
            vt_end_secs: f("vt_end_secs")?,
        }),
        "prompt_components" => Ok(TraceEvent::PromptComponents {
            request: u("request")?,
            cache_hit: b("cache_hit")?,
            task_spec: us("task_spec")?,
            answer_format: us("answer_format")?,
            cot: us("cot")?,
            few_shot: us("few_shot")?,
            instances: us("instances")?,
            framing: us("framing")?,
        }),
        "stage" => Ok(TraceEvent::Stage {
            run: u("run")?,
            stage: s("stage")?,
            wall_secs: f("wall_secs")?,
            vt_secs: f("vt_secs")?,
        }),
        "parsed" => Ok(TraceEvent::Parsed {
            request: u("request")?,
            instance: us("instance")?,
        }),
        "failed" => Ok(TraceEvent::Failed {
            request: u("request")?,
            instance: us("instance")?,
            kind: s("kind")?,
        }),
        "cancelled" => Ok(TraceEvent::Cancelled {
            request: u("request")?,
            reason: s("reason")?,
        }),
        "budget_tripped" => Ok(TraceEvent::BudgetTripped {
            run: u("run")?,
            reason: s("reason")?,
            cancelled: us("cancelled")?,
        }),
        "batch_split" => Ok(TraceEvent::BatchSplit {
            request: u("request")?,
            instances: us("instances")?,
        }),
        "replayed" => Ok(TraceEvent::Replayed {
            request: u("request")?,
        }),
        "journal_state" => Ok(TraceEvent::JournalState {
            run: u("run")?,
            replayed: us("replayed")?,
            written: us("written")?,
            truncated: us("truncated")?,
        }),
        "job_accepted" => Ok(TraceEvent::JobAccepted {
            job: u("job")?,
            tenant: so("tenant")?,
        }),
        "job_completed" => Ok(TraceEvent::JobCompleted {
            job: u("job")?,
            tenant: so("tenant")?,
            tokens: us("tokens")?,
            cost_usd: f("cost_usd")?,
            budget_tripped: b("budget_tripped")?,
        }),
        "job_rejected" => Ok(TraceEvent::JobRejected {
            tenant: so("tenant")?,
            reason: so("reason")?,
        }),
        "job_shed" => Ok(TraceEvent::JobShed {
            job: u("job")?,
            tenant: so("tenant")?,
            reason: so("reason")?,
            retry_after_secs: f("retry_after_secs")?,
            queued: us("queued")?,
            inflight: us("inflight")?,
        }),
        "queue_depth" => Ok(TraceEvent::QueueDepth {
            queued: us("queued")?,
            inflight: us("inflight")?,
        }),
        "drain_transition" => Ok(TraceEvent::DrainTransition {
            from: s("from")?,
            to: s("to")?,
            inflight: us("inflight")?,
        }),
        "slo_transition" => Ok(TraceEvent::SloTransition {
            tenant: so("tenant")?,
            slo: s("slo")?,
            from: s("from")?,
            to: s("to")?,
            burn_long: f("burn_long")?,
            burn_short: f("burn_short")?,
            vt_secs: f("vt_secs")?,
        }),
        "run_finished" => Ok(TraceEvent::RunFinished {
            run: u("run")?,
            instances: us("instances")?,
            answered: us("answered")?,
            failed: us("failed")?,
            requests: us("requests")?,
            fresh_requests: us("fresh_requests")?,
            cache_hits: us("cache_hits")?,
            prompt_tokens: us("prompt_tokens")?,
            completion_tokens: us("completion_tokens")?,
            cost_usd: f("cost_usd")?,
            latency_secs: f("latency_secs")?,
        }),
        other => Err(format!("unknown event kind {other:?}")),
    }
}

/// Parses a whole JSONL trace (one event object per non-empty line) back
/// into events, reporting the first malformed line with its 1-based line
/// number.
pub fn parse_trace(contents: &str) -> Result<Vec<TraceEvent>, String> {
    let mut events = Vec::new();
    for (idx, line) in contents.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let value = Json::parse(line).map_err(|e| format!("line {}: {e}", idx + 1))?;
        events.push(event_from_json(&value).map_err(|e| format!("line {}: {e}", idx + 1))?);
    }
    Ok(events)
}

/// A [`Tracer`] that buffers one JSON line per event.
///
/// Lines are buffered in memory (traces are small: a few hundred bytes per
/// request) and flushed to disk with [`write_to`](Self::write_to), or read
/// back with [`lines`](Self::lines) / [`contents`](Self::contents).
#[derive(Debug, Default)]
pub struct JsonlTracer {
    lines: Mutex<Vec<String>>,
}

impl JsonlTracer {
    /// An empty exporter.
    pub fn new() -> Self {
        Self::default()
    }

    /// A clone of every serialized line, in arrival order.
    pub fn lines(&self) -> Vec<String> {
        self.lines.lock().expect("jsonl lock").clone()
    }

    /// Number of buffered lines.
    pub fn len(&self) -> usize {
        self.lines.lock().expect("jsonl lock").len()
    }

    /// True when no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The whole trace as one newline-terminated string.
    pub fn contents(&self) -> String {
        let lines = self.lines.lock().expect("jsonl lock");
        let mut out = String::with_capacity(lines.iter().map(|l| l.len() + 1).sum());
        for line in lines.iter() {
            out.push_str(line);
            out.push('\n');
        }
        out
    }

    /// Writes the trace to `path`, replacing any existing file.
    pub fn write_to(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.contents())
    }
}

impl Tracer for JsonlTracer {
    fn record(&self, event: &TraceEvent) {
        let line = event_to_json(event);
        self.lines.lock().expect("jsonl lock").push(line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serializes_flat_tagged_objects() {
        let line = event_to_json(&TraceEvent::Failed {
            request: 9,
            instance: 4,
            kind: "context-overflow",
        });
        assert_eq!(
            line,
            "{\"event\":\"failed\",\"request\":9,\"instance\":4,\"kind\":\"context-overflow\"}"
        );
    }

    #[test]
    fn floats_round_trip_and_null_fault_serializes() {
        let line = event_to_json(&TraceEvent::Completed {
            request: 1,
            worker: 0,
            cache_hit: false,
            retries: 0,
            fault: None,
            prompt_tokens: 100,
            completion_tokens: 10,
            attempt_prompt_tokens: 100,
            attempt_completion_tokens: 10,
            cost_usd: 0.125,
            latency_secs: 2.5,
            vt_start_secs: 0.0,
            vt_end_secs: 2.5,
        });
        assert!(line.contains("\"fault\":null"));
        assert!(line.contains("\"cost_usd\":0.125"));
        assert!(line.contains("\"cache_hit\":false"));
    }

    #[test]
    fn tracer_buffers_lines_and_renders_contents() {
        let t = JsonlTracer::new();
        t.record(&TraceEvent::CacheHit { request: 2 });
        t.record(&TraceEvent::Parsed {
            request: 2,
            instance: 0,
        });
        assert_eq!(t.len(), 2);
        let contents = t.contents();
        assert_eq!(contents.lines().count(), 2);
        assert!(contents.ends_with('\n'));
        assert!(t.lines()[0].starts_with("{\"event\":\"cache_hit\""));
    }

    #[test]
    fn escapes_control_characters() {
        let mut line = Line::new("x");
        line.str("v", "a\"b\\c\nd\u{1}");
        let out = line.finish();
        assert_eq!(out, "{\"event\":\"x\",\"v\":\"a\\\"b\\\\c\\nd\\u0001\"}");
    }

    #[test]
    fn every_variant_round_trips_through_jsonl() {
        let events = vec![
            TraceEvent::RunStarted {
                run: 7,
                instances: 12,
                batches: 3,
                requests: 2,
            },
            TraceEvent::Planned {
                request: 701,
                batches: 2,
                instances: 8,
            },
            TraceEvent::Deduped {
                request: 701,
                batch: 1,
            },
            TraceEvent::Stage {
                run: 7,
                stage: "plan",
                wall_secs: 0.001,
                vt_secs: 0.0,
            },
            TraceEvent::Dispatched {
                request: 701,
                worker: 3,
                vt_start_secs: 0.5,
            },
            TraceEvent::CacheHit { request: 701 },
            TraceEvent::RetryAttempt {
                request: 702,
                attempt: 1,
                prompt_tokens: 40,
                completion_tokens: 4,
                backoff_secs: 1.0,
            },
            TraceEvent::FaultInjected {
                request: 702,
                kind: "timeout",
            },
            TraceEvent::RouteLeg {
                request: 702,
                route: "sim-gpt-3.5".to_string(),
                index: 0,
                outcome: "shorted",
                fault: Some("timeout"),
                retries: 0,
                prompt_tokens: 0,
                completion_tokens: 0,
                cost_usd: 0.0,
                latency_secs: 0.0,
            },
            TraceEvent::RouteLeg {
                request: 702,
                route: "sim-gpt-4".to_string(),
                index: 1,
                outcome: "served",
                fault: None,
                retries: 1,
                prompt_tokens: 80,
                completion_tokens: 8,
                cost_usd: 0.003,
                latency_secs: 4.5,
            },
            TraceEvent::Completed {
                request: 702,
                worker: 0,
                cache_hit: false,
                retries: 1,
                fault: Some("timeout"),
                prompt_tokens: 80,
                completion_tokens: 8,
                attempt_prompt_tokens: 40,
                attempt_completion_tokens: 4,
                cost_usd: 0.003,
                latency_secs: 4.5,
                vt_start_secs: 0.5,
                vt_end_secs: 5.0,
            },
            TraceEvent::PromptComponents {
                request: 702,
                cache_hit: false,
                task_spec: 20,
                answer_format: 14,
                cot: 0,
                few_shot: 16,
                instances: 22,
                framing: 8,
            },
            TraceEvent::Parsed {
                request: 702,
                instance: 0,
            },
            TraceEvent::Failed {
                request: 702,
                instance: 1,
                kind: "skipped-answer",
            },
            TraceEvent::Cancelled {
                request: 703,
                reason: "token-budget",
            },
            TraceEvent::BudgetTripped {
                run: 7,
                reason: "token-budget",
                cancelled: 1,
            },
            TraceEvent::BatchSplit {
                request: 704,
                instances: 4,
            },
            TraceEvent::Replayed { request: 702 },
            TraceEvent::JournalState {
                run: 7,
                replayed: 1,
                written: 1,
                truncated: 1,
            },
            TraceEvent::JobAccepted {
                job: 11,
                tenant: "acme".to_string(),
            },
            TraceEvent::JobCompleted {
                job: 11,
                tenant: "acme".to_string(),
                tokens: 88,
                cost_usd: 0.004,
                budget_tripped: true,
            },
            TraceEvent::JobRejected {
                tenant: "bmce".to_string(),
                reason: "tenant \"bmce\" token budget exhausted".to_string(),
            },
            TraceEvent::JobShed {
                job: 12,
                tenant: "bmce".to_string(),
                reason: "overloaded".to_string(),
                retry_after_secs: 1.5,
                queued: 4,
                inflight: 2,
            },
            TraceEvent::QueueDepth {
                queued: 3,
                inflight: 2,
            },
            TraceEvent::DrainTransition {
                from: "serving",
                to: "draining",
                inflight: 2,
            },
            TraceEvent::SloTransition {
                tenant: "acme".to_string(),
                slo: "latency-p95",
                from: "ok",
                to: "warning",
                burn_long: 1.25,
                burn_short: 2.5,
                vt_secs: 42.5,
            },
            TraceEvent::RunFinished {
                run: 7,
                instances: 12,
                answered: 11,
                failed: 1,
                requests: 2,
                fresh_requests: 1,
                cache_hits: 1,
                prompt_tokens: 80,
                completion_tokens: 8,
                cost_usd: 0.003,
                latency_secs: 4.5,
            },
        ];
        let trace: String = events
            .iter()
            .map(|e| event_to_json(e) + "\n")
            .collect::<String>()
            + "\n"; // blank lines are tolerated
        let parsed = parse_trace(&trace).unwrap();
        assert_eq!(parsed, events);
    }

    #[test]
    fn parser_reports_line_numbers() {
        let err = parse_trace("{\"event\":\"cache_hit\",\"request\":1}\nnot json\n").unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        let err = parse_trace("{\"event\":\"mystery\"}\n").unwrap_err();
        assert!(err.contains("unknown event kind"), "{err}");
        let err = parse_trace("{\"event\":\"cache_hit\"}\n").unwrap_err();
        assert!(err.contains("missing integer field"), "{err}");
    }
}
