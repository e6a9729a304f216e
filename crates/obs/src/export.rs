//! JSON-lines trace export.
//!
//! [`JsonlTracer`] serializes every event as one flat JSON object per line,
//! tagged with an `"event"` field holding [`TraceEvent::name`] and followed
//! by the event's fields in the order its table entry declares them. The
//! writer is dependency-free, and each field type's wire form is decided
//! once, by its codec: integers and booleans as JSON literals, floats via
//! `{:?}` (which round-trips f64 exactly; non-finite floats as `null`),
//! strings escaped as [`crate::json`] escapes them, and an absent label as
//! `null`.

use std::fmt::Write as _;
use std::sync::Mutex;

use crate::component::intern_label;
use crate::event::TraceEvent;
use crate::json::{write_string, Json};
use crate::tracer::Tracer;

/// How one event-field type is written to and read from a JSONL line.
pub(crate) trait WireField: Sized {
    /// Appends the value's JSON form to `out`.
    fn write(&self, out: &mut String);

    /// Reads field `key` of a `kind` event from its JSON value, `None`
    /// when the line has no such key.
    fn read(value: Option<&Json>, kind: &str, key: &str) -> Result<Self, String>;
}

fn missing(kind: &str, what: &str, key: &str) -> String {
    format!("{kind}: missing {what} field {key:?}")
}

fn string<'a>(value: Option<&'a Json>, kind: &str, key: &str) -> Result<&'a str, String> {
    value
        .and_then(Json::as_str)
        .ok_or_else(|| missing(kind, "string", key))
}

/// Unsigned integers, rejected (not wrapped, rounded or saturated) when a
/// line's value does not fit the field's type or is not exact as a JSON
/// number (2^53 and past, see [`Json::as_usize`]).
macro_rules! integer_fields {
    ($($ty:ty),*) => {$(
        impl WireField for $ty {
            fn write(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }

            fn read(value: Option<&Json>, kind: &str, key: &str) -> Result<Self, String> {
                let out_of_range = |n: &dyn std::fmt::Display| {
                    format!("{kind}: integer field {key:?} is out of range: {n}")
                };
                let n = value.and_then(Json::as_usize).ok_or_else(|| match value {
                    Some(whole @ Json::Num(n)) if whole.is_whole() => out_of_range(n),
                    _ => missing(kind, "integer", key),
                })?;
                <$ty>::try_from(n).map_err(|_| out_of_range(&n))
            }
        }
    )*};
}

integer_fields!(u64, usize, u32);

impl WireField for f64 {
    fn write(&self, out: &mut String) {
        if self.is_finite() {
            // `{:?}` prints the shortest representation that round-trips.
            let _ = write!(out, "{self:?}");
        } else {
            out.push_str("null");
        }
    }

    fn read(value: Option<&Json>, kind: &str, key: &str) -> Result<Self, String> {
        value
            .and_then(Json::as_f64)
            .ok_or_else(|| missing(kind, "number", key))
    }
}

impl WireField for bool {
    fn write(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }

    fn read(value: Option<&Json>, kind: &str, key: &str) -> Result<Self, String> {
        match value {
            Some(Json::Bool(v)) => Ok(*v),
            _ => Err(missing(kind, "bool", key)),
        }
    }
}

/// Labels from a closed vocabulary (kinds, stages, reasons), read back
/// through [`intern_label`] to their static spelling.
impl WireField for &'static str {
    fn write(&self, out: &mut String) {
        write_string(self, out);
    }

    fn read(value: Option<&Json>, kind: &str, key: &str) -> Result<Self, String> {
        string(value, kind, key).map(intern_label)
    }
}

/// Unbounded vocabularies (tenant names, route names, rejection reasons),
/// which are not interned.
impl WireField for String {
    fn write(&self, out: &mut String) {
        write_string(self, out);
    }

    fn read(value: Option<&Json>, kind: &str, key: &str) -> Result<Self, String> {
        string(value, kind, key).map(str::to_string)
    }
}

/// An optional label: `null` when absent; a `null` or missing key reads
/// back as `None`.
impl WireField for Option<&'static str> {
    fn write(&self, out: &mut String) {
        match self {
            Some(label) => label.write(out),
            None => out.push_str("null"),
        }
    }

    fn read(value: Option<&Json>, kind: &str, key: &str) -> Result<Self, String> {
        match value {
            Some(Json::Null) | None => Ok(None),
            Some(v) => v
                .as_str()
                .map(|label| Some(intern_label(label)))
                .ok_or_else(|| format!("{kind}: {key} is not a string")),
        }
    }
}

/// A minimal single-line JSON object writer.
pub(crate) struct Line {
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

    /// Appends `"key":value`.
    pub(crate) fn field<T: WireField>(&mut self, key: &str, value: &T) {
        self.buf.push_str(",\"");
        self.buf.push_str(key);
        self.buf.push_str("\":");
        value.write(&mut self.buf);
    }

    fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// Serializes one event to its JSON line (no trailing newline).
pub fn event_to_json(event: &TraceEvent) -> String {
    let mut line = Line::new(event.name());
    event.write_fields(&mut line);
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
    TraceEvent::read_fields(kind, value)
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
        line.field("v", &"a\"b\\c\nd\u{1}");
        let out = line.finish();
        assert_eq!(out, "{\"event\":\"x\",\"v\":\"a\\\"b\\\\c\\nd\\u0001\"}");
    }

    /// One event of every kind, two `route_leg`s (a shorted leg with a
    /// fault, a served one without).
    fn every_variant() -> Vec<TraceEvent> {
        vec![
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
        ]
    }

    /// The exact lines [`every_variant`] serializes to: key order, `{:?}`
    /// floats, `null` faults and string escapes.
    const GOLDEN: &str = r#"{"event":"run_started","run":7,"instances":12,"batches":3,"requests":2}
{"event":"planned","request":701,"batches":2,"instances":8}
{"event":"deduped","request":701,"batch":1}
{"event":"stage","run":7,"stage":"plan","wall_secs":0.001,"vt_secs":0.0}
{"event":"dispatched","request":701,"worker":3,"vt_start_secs":0.5}
{"event":"cache_hit","request":701}
{"event":"retry_attempt","request":702,"attempt":1,"prompt_tokens":40,"completion_tokens":4,"backoff_secs":1.0}
{"event":"fault_injected","request":702,"kind":"timeout"}
{"event":"route_leg","request":702,"route":"sim-gpt-3.5","index":0,"outcome":"shorted","fault":"timeout","retries":0,"prompt_tokens":0,"completion_tokens":0,"cost_usd":0.0,"latency_secs":0.0}
{"event":"route_leg","request":702,"route":"sim-gpt-4","index":1,"outcome":"served","fault":null,"retries":1,"prompt_tokens":80,"completion_tokens":8,"cost_usd":0.003,"latency_secs":4.5}
{"event":"completed","request":702,"worker":0,"cache_hit":false,"retries":1,"fault":"timeout","prompt_tokens":80,"completion_tokens":8,"attempt_prompt_tokens":40,"attempt_completion_tokens":4,"cost_usd":0.003,"latency_secs":4.5,"vt_start_secs":0.5,"vt_end_secs":5.0}
{"event":"prompt_components","request":702,"cache_hit":false,"task_spec":20,"answer_format":14,"cot":0,"few_shot":16,"instances":22,"framing":8}
{"event":"parsed","request":702,"instance":0}
{"event":"failed","request":702,"instance":1,"kind":"skipped-answer"}
{"event":"cancelled","request":703,"reason":"token-budget"}
{"event":"budget_tripped","run":7,"reason":"token-budget","cancelled":1}
{"event":"batch_split","request":704,"instances":4}
{"event":"replayed","request":702}
{"event":"journal_state","run":7,"replayed":1,"written":1,"truncated":1}
{"event":"job_accepted","job":11,"tenant":"acme"}
{"event":"job_completed","job":11,"tenant":"acme","tokens":88,"cost_usd":0.004,"budget_tripped":true}
{"event":"job_rejected","tenant":"bmce","reason":"tenant \"bmce\" token budget exhausted"}
{"event":"job_shed","job":12,"tenant":"bmce","reason":"overloaded","retry_after_secs":1.5,"queued":4,"inflight":2}
{"event":"queue_depth","queued":3,"inflight":2}
{"event":"drain_transition","from":"serving","to":"draining","inflight":2}
{"event":"slo_transition","tenant":"acme","slo":"latency-p95","from":"ok","to":"warning","burn_long":1.25,"burn_short":2.5,"vt_secs":42.5}
{"event":"run_finished","run":7,"instances":12,"answered":11,"failed":1,"requests":2,"fresh_requests":1,"cache_hits":1,"prompt_tokens":80,"completion_tokens":8,"cost_usd":0.003,"latency_secs":4.5}
"#;

    #[test]
    fn every_variant_round_trips_through_jsonl() {
        let events = every_variant();
        let mut tags: Vec<&str> = events.iter().map(TraceEvent::name).collect();
        tags.sort_unstable();
        tags.dedup();
        let mut declared = TraceEvent::TAGS.to_vec();
        declared.sort_unstable();
        assert_eq!(tags, declared, "every table entry needs an event here");
        let trace: String = events
            .iter()
            .map(|e| event_to_json(e) + "\n")
            .collect::<String>()
            + "\n"; // blank lines are tolerated
        let parsed = parse_trace(&trace).unwrap();
        assert_eq!(parsed, events);
        for (event, line) in events.iter().zip(trace.lines()) {
            let request = Json::parse(line)
                .unwrap()
                .get("request")
                .map(|r| r.as_usize().unwrap() as u64);
            assert_eq!(event.request(), request, "{line}");
        }
    }

    #[test]
    fn every_variant_writes_its_golden_line() {
        let written: String = every_variant()
            .iter()
            .map(|e| event_to_json(e) + "\n")
            .collect();
        assert_eq!(written, GOLDEN);
        let stage = event_to_json(&TraceEvent::Stage {
            run: 1,
            stage: "plan",
            wall_secs: f64::NAN,
            vt_secs: f64::INFINITY,
        });
        assert_eq!(
            stage,
            "{\"event\":\"stage\",\"run\":1,\"stage\":\"plan\",\"wall_secs\":null,\"vt_secs\":null}"
        );
    }

    #[test]
    fn u32_fields_past_their_range_are_rejected_not_wrapped() {
        for (kind, key) in [
            ("retry_attempt", "attempt"),
            ("route_leg", "index"),
            ("route_leg", "retries"),
            ("completed", "retries"),
        ] {
            let line = GOLDEN
                .lines()
                .find(|l| l.starts_with(&format!("{{\"event\":\"{kind}\"")))
                .unwrap();
            let with = |n: f64| {
                let mut value = Json::parse(line).unwrap();
                if let Json::Obj(fields) = &mut value {
                    fields.iter_mut().find(|(k, _)| k == key).unwrap().1 = Json::Num(n);
                }
                event_from_json(&value)
            };
            assert!(
                with(f64::from(u32::MAX)).is_ok(),
                "{kind}.{key} at u32::MAX"
            );
            for n in [4_294_967_296.0, 4_294_967_297.0] {
                let err = with(n).unwrap_err();
                assert!(
                    err.contains(kind) && err.contains(key) && err.contains("out of range"),
                    "{kind}.{key} = {n}: {err}"
                );
            }
        }
    }

    /// A `u64` field past 2^53 would read back as a rounded neighbour, and
    /// `1e30` as a saturated `u64::MAX`: both are refused as out of range,
    /// naming the field, while 2^53 - 1 still round-trips.
    #[test]
    fn integers_past_two_to_the_53_are_rejected_not_rounded() {
        let read = |line: &str| event_from_json(&Json::parse(line).unwrap());
        let largest = TraceEvent::CacheHit {
            request: 9_007_199_254_740_991,
        };
        assert_eq!(read(&event_to_json(&largest)), Ok(largest));
        let rounded = event_to_json(&TraceEvent::CacheHit {
            request: 9_007_199_254_740_993,
        });
        for line in [
            rounded.as_str(),
            "{\"event\":\"cache_hit\",\"request\":1e30}",
        ] {
            let err = read(line).unwrap_err();
            assert!(
                err.contains("cache_hit")
                    && err.contains("\"request\"")
                    && err.contains("out of range"),
                "{line}: {err}"
            );
        }
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
