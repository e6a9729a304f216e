//! The crash-safe run journal: append-only JSONL durability for runs.
//!
//! A journal records every request that reached a **terminal state**
//! (completed or cancelled) as one JSON line, flushed to disk before the
//! run moves on. If the process dies, a restarted run replays the journal,
//! rehydrates the completed requests by their `request_fingerprint`, and
//! executes only the remainder — reproducing the uninterrupted run's
//! predictions, billed tokens, and ledger bit-identically.
//!
//! ## File format
//!
//! Line 1 is a header object tagged `"journal":"header"` carrying the plan
//! fingerprint, model name, config descriptor, and seed. Every following
//! line is one terminal entry tagged `"journal":"entry"`. Fingerprints and
//! seeds are hex **strings** (they are full-range `u64`s; JSON numbers are
//! doubles and would lose precision past 2^53).
//!
//! ## Crash model
//!
//! Appends are a single `write` of one newline-terminated line followed by
//! a flush, so a crash can tear at most the final line. Recovery
//! ([`DurableJournal::resume`]) parses line by line: a malformed **final**
//! line is a torn tail — it is truncated from the file, counted, and
//! surfaced as a warning; a malformed line anywhere else means real
//! corruption and is a hard error. Duplicate appends for an
//! already-journaled fingerprint are suppressed, so a resumed run that
//! keeps journaling to the same file never double-records a request.

use std::collections::HashSet;
use std::fs::{File, OpenOptions};
use std::io::{Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use crate::json::Json;

/// Journal format version, bumped on incompatible changes.
pub const JOURNAL_VERSION: u64 = 1;

/// The identity a journal was recorded under. A resumed run must match
/// every field before any request executes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalHeader {
    /// Fingerprint of the execution plan (a stable hash over the plan's
    /// request fingerprints in plan order).
    pub plan: u64,
    /// Model name the run was billed against.
    pub model: String,
    /// Pipeline-config descriptor (task, components, batching — everything
    /// that shapes prompts; worker count excluded, results are
    /// worker-invariant).
    pub config: String,
    /// The run seed.
    pub seed: u64,
}

/// The terminal state a journaled request reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TerminalKind {
    /// The request completed with a response (billed).
    Completed,
    /// The request was cancelled unbilled by a tripped run budget. A
    /// resumed run re-executes it.
    Cancelled,
}

impl TerminalKind {
    /// Stable label used in the JSONL encoding.
    pub fn label(self) -> &'static str {
        match self {
            TerminalKind::Completed => "completed",
            TerminalKind::Cancelled => "cancelled",
        }
    }

    /// Parses a label written by [`label`](Self::label).
    pub fn from_label(label: &str) -> Option<TerminalKind> {
        match label {
            "completed" => Some(TerminalKind::Completed),
            "cancelled" => Some(TerminalKind::Cancelled),
            _ => None,
        }
    }
}

/// One terminal request, as recorded in (and rehydrated from) a journal.
///
/// Carries everything needed to reproduce the request's completion without
/// re-dispatching: the response text (predictions re-parse from it), the
/// billed and final-attempt usage, the retry count, the final fault label,
/// and the billed cost/latency. Cancelled entries record only the
/// fingerprint — they bill nothing and re-execute on resume.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalEntry {
    /// The `request_fingerprint` identity (model, temperature, salt, text).
    pub fingerprint: u64,
    /// Terminal state.
    pub kind: TerminalKind,
    /// Final response text.
    pub text: String,
    /// Prompt tokens accumulated over every attempt (billed).
    pub prompt_tokens: usize,
    /// Completion tokens accumulated over every attempt (billed).
    pub completion_tokens: usize,
    /// Prompt tokens of the final attempt alone.
    pub attempt_prompt_tokens: usize,
    /// Completion tokens of the final attempt alone.
    pub attempt_completion_tokens: usize,
    /// Retry attempts folded into the response.
    pub retries: u32,
    /// Fault label carried by the final response, if any.
    pub fault: Option<String>,
    /// Whether the response was served from cache (billed zero).
    pub cache_hit: bool,
    /// Whether the response fully served its request (fault-free, every
    /// question answered) — exactly the condition under which the cache
    /// layer memoized it, so a journal-warmed cache seeds only entries the
    /// uninterrupted run's store would hold.
    pub complete: bool,
    /// Billed dollar cost.
    pub cost_usd: f64,
    /// Billed virtual latency, including retries and backoff.
    pub latency_secs: f64,
    /// Settled cascade legs, for requests served by a model router. Empty
    /// for single-model runs (and omitted from the encoding, so non-routed
    /// journals are byte-identical to the pre-router format and legacy
    /// journals parse with no legs). On resume the legs re-advance the
    /// executor's route fold so later settlements see exactly the breaker
    /// state the uninterrupted run reached.
    pub legs: Vec<RouteLegRecord>,
}

/// One settled cascade leg as journaled: the billed view (a `shorted` leg
/// keeps its fault label but zeroed billing).
#[derive(Debug, Clone, PartialEq)]
pub struct RouteLegRecord {
    /// Route model name.
    pub route: String,
    /// Outcome label: `served` / `escalated` / `shorted`.
    pub outcome: String,
    /// Fault label the leg's final response carried, if any.
    pub fault: Option<String>,
    /// Billed retries.
    pub retries: u32,
    /// Billed prompt tokens.
    pub prompt_tokens: usize,
    /// Billed completion tokens.
    pub completion_tokens: usize,
    /// Billed dollar cost at the route's own pricing.
    pub cost_usd: f64,
    /// Billed virtual latency.
    pub latency_secs: f64,
}

impl JournalEntry {
    /// A cancelled-terminal entry: fingerprint only, nothing billed.
    pub fn cancelled(fingerprint: u64) -> JournalEntry {
        JournalEntry {
            fingerprint,
            kind: TerminalKind::Cancelled,
            text: String::new(),
            prompt_tokens: 0,
            completion_tokens: 0,
            attempt_prompt_tokens: 0,
            attempt_completion_tokens: 0,
            retries: 0,
            fault: None,
            cache_hit: false,
            complete: false,
            cost_usd: 0.0,
            latency_secs: 0.0,
            legs: Vec::new(),
        }
    }
}

fn hex(v: u64) -> Json {
    Json::Str(format!("{v:016x}"))
}

fn parse_hex(value: Option<&Json>, what: &str) -> Result<u64, String> {
    let s = value
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing hex field {what:?}"))?;
    u64::from_str_radix(s, 16).map_err(|_| format!("field {what:?} is not a hex u64: {s:?}"))
}

fn header_to_line(header: &JournalHeader) -> String {
    Json::Obj(vec![
        ("journal".into(), Json::Str("header".into())),
        ("version".into(), Json::Num(JOURNAL_VERSION as f64)),
        ("plan".into(), hex(header.plan)),
        ("model".into(), Json::Str(header.model.clone())),
        ("config".into(), Json::Str(header.config.clone())),
        ("seed".into(), hex(header.seed)),
    ])
    .to_json()
}

fn header_from_json(value: &Json) -> Result<JournalHeader, String> {
    let version_field = value.get("version").ok_or("header has no version")?;
    let version = version_field.as_usize().ok_or_else(|| {
        format!(
            "header version is not an integer: {}",
            version_field.to_json()
        )
    })? as u64;
    if version != JOURNAL_VERSION {
        return Err(format!(
            "journal version {version} is not the supported version {JOURNAL_VERSION}"
        ));
    }
    Ok(JournalHeader {
        plan: parse_hex(value.get("plan"), "plan")?,
        model: value
            .get("model")
            .and_then(Json::as_str)
            .ok_or("header has no model")?
            .to_string(),
        config: value
            .get("config")
            .and_then(Json::as_str)
            .ok_or("header has no config")?
            .to_string(),
        seed: parse_hex(value.get("seed"), "seed")?,
    })
}

fn leg_to_json(leg: &RouteLegRecord) -> Json {
    Json::Obj(vec![
        ("route".into(), Json::Str(leg.route.clone())),
        ("outcome".into(), Json::Str(leg.outcome.clone())),
        (
            "fault".into(),
            match &leg.fault {
                Some(label) => Json::Str(label.clone()),
                None => Json::Null,
            },
        ),
        ("retries".into(), Json::Num(f64::from(leg.retries))),
        ("prompt_tokens".into(), Json::Num(leg.prompt_tokens as f64)),
        (
            "completion_tokens".into(),
            Json::Num(leg.completion_tokens as f64),
        ),
        ("cost_usd".into(), Json::Num(leg.cost_usd)),
        ("latency_secs".into(), Json::Num(leg.latency_secs)),
    ])
}

fn leg_from_json(value: &Json) -> Result<RouteLegRecord, String> {
    let us = |key: &str| -> Result<usize, String> {
        value
            .get(key)
            .and_then(Json::as_usize)
            .ok_or_else(|| format!("route leg missing integer field {key:?}"))
    };
    let f = |key: &str| -> Result<f64, String> {
        value
            .get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("route leg missing number field {key:?}"))
    };
    let s = |key: &str| -> Result<String, String> {
        value
            .get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("route leg missing string field {key:?}"))
    };
    Ok(RouteLegRecord {
        route: s("route")?,
        outcome: s("outcome")?,
        fault: match value.get("fault") {
            Some(Json::Null) | None => None,
            Some(v) => Some(
                v.as_str()
                    .ok_or("route leg fault is not a string")?
                    .to_string(),
            ),
        },
        retries: us("retries")? as u32,
        prompt_tokens: us("prompt_tokens")?,
        completion_tokens: us("completion_tokens")?,
        cost_usd: f("cost_usd")?,
        latency_secs: f("latency_secs")?,
    })
}

fn entry_to_line(entry: &JournalEntry) -> String {
    let mut fields = vec![
        ("journal".into(), Json::Str("entry".into())),
        ("fingerprint".into(), hex(entry.fingerprint)),
        ("kind".into(), Json::Str(entry.kind.label().into())),
        ("retries".into(), Json::Num(f64::from(entry.retries))),
        (
            "prompt_tokens".into(),
            Json::Num(entry.prompt_tokens as f64),
        ),
        (
            "completion_tokens".into(),
            Json::Num(entry.completion_tokens as f64),
        ),
        (
            "attempt_prompt_tokens".into(),
            Json::Num(entry.attempt_prompt_tokens as f64),
        ),
        (
            "attempt_completion_tokens".into(),
            Json::Num(entry.attempt_completion_tokens as f64),
        ),
        (
            "fault".into(),
            match &entry.fault {
                Some(label) => Json::Str(label.clone()),
                None => Json::Null,
            },
        ),
        ("cache_hit".into(), Json::Bool(entry.cache_hit)),
        ("complete".into(), Json::Bool(entry.complete)),
        ("cost_usd".into(), Json::Num(entry.cost_usd)),
        ("latency_secs".into(), Json::Num(entry.latency_secs)),
    ];
    // Routed entries only: omitting the key keeps single-model journals
    // byte-identical to the pre-router format.
    if !entry.legs.is_empty() {
        fields.push((
            "legs".into(),
            Json::Arr(entry.legs.iter().map(leg_to_json).collect()),
        ));
    }
    fields.push(("text".into(), Json::Str(entry.text.clone())));
    Json::Obj(fields).to_json()
}

fn entry_from_json(value: &Json) -> Result<JournalEntry, String> {
    let us = |key: &str| -> Result<usize, String> {
        value
            .get(key)
            .and_then(Json::as_usize)
            .ok_or_else(|| format!("entry missing integer field {key:?}"))
    };
    let f = |key: &str| -> Result<f64, String> {
        value
            .get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("entry missing number field {key:?}"))
    };
    let kind_label = value
        .get("kind")
        .and_then(Json::as_str)
        .ok_or("entry missing kind")?;
    Ok(JournalEntry {
        fingerprint: parse_hex(value.get("fingerprint"), "fingerprint")?,
        kind: TerminalKind::from_label(kind_label)
            .ok_or_else(|| format!("unknown terminal kind {kind_label:?}"))?,
        text: value
            .get("text")
            .and_then(Json::as_str)
            .ok_or("entry missing text")?
            .to_string(),
        prompt_tokens: us("prompt_tokens")?,
        completion_tokens: us("completion_tokens")?,
        attempt_prompt_tokens: us("attempt_prompt_tokens")?,
        attempt_completion_tokens: us("attempt_completion_tokens")?,
        retries: us("retries")? as u32,
        fault: match value.get("fault") {
            Some(Json::Null) | None => None,
            Some(v) => Some(v.as_str().ok_or("entry fault is not a string")?.to_string()),
        },
        cache_hit: match value.get("cache_hit") {
            Some(Json::Bool(v)) => *v,
            _ => return Err("entry missing bool field \"cache_hit\"".into()),
        },
        complete: match value.get("complete") {
            Some(Json::Bool(v)) => *v,
            _ => return Err("entry missing bool field \"complete\"".into()),
        },
        cost_usd: f("cost_usd")?,
        latency_secs: f("latency_secs")?,
        legs: match value.get("legs") {
            // Absent (single-model or pre-router journal): no legs.
            None | Some(Json::Null) => Vec::new(),
            Some(Json::Arr(items)) => items
                .iter()
                .map(leg_from_json)
                .collect::<Result<Vec<_>, _>>()?,
            Some(other) => return Err(format!("entry legs is not an array: {}", other.to_json())),
        },
    })
}

#[derive(Debug)]
enum HeaderState {
    /// Fresh journal: base fields known, plan fingerprint not yet — the
    /// header line is written by the first run's `ensure_header`.
    Pending {
        model: String,
        config: String,
        seed: u64,
    },
    /// Header line is on disk.
    Written(JournalHeader),
}

#[derive(Debug)]
struct Inner {
    file: File,
    header: HeaderState,
    /// `(fingerprint, kind)` pairs already on disk; duplicate appends are
    /// suppressed so a resume never double-records.
    seen: HashSet<(u64, bool)>,
    written: usize,
    truncated: usize,
}

/// An open, append-only journal. Thread-safe; appends are serialized and
/// flushed line-atomically.
#[derive(Debug)]
pub struct DurableJournal {
    path: PathBuf,
    inner: Mutex<Inner>,
}

/// The result of recovering a journal from disk.
#[derive(Debug)]
pub struct ResumedJournal {
    /// The journal, reopened for further appends. When [`header`] is
    /// `None` the file was empty — nothing was recovered, and callers
    /// should recreate the journal via [`DurableJournal::fresh`] so the
    /// real run identity is stamped (truncating an empty file is
    /// harmless).
    ///
    /// [`header`]: Self::header
    pub journal: DurableJournal,
    /// The header the journal was recorded under. `None` for a
    /// zero-length file — a crash between journal creation and the first
    /// header write leaves one behind, and it recovers as an empty
    /// journal rather than an error.
    pub header: Option<JournalHeader>,
    /// Every intact terminal entry, in append order.
    pub entries: Vec<JournalEntry>,
    /// Human-readable recovery note: torn-tail truncation, or an empty
    /// file recovered with nothing to replay.
    pub warning: Option<String>,
}

impl ResumedJournal {
    /// The recovered header, or a clear error naming the file when the
    /// journal was empty. Resume paths that cannot proceed without a
    /// recorded identity (plan fingerprint, model, config, seed) go
    /// through this.
    pub fn require_header(&self) -> Result<&JournalHeader, String> {
        self.header.as_ref().ok_or_else(|| {
            format!(
                "journal {} is empty: no header to resume from",
                self.journal.path().display()
            )
        })
    }
}

impl DurableJournal {
    /// Creates (or truncates) a fresh journal at `path`. The header line is
    /// written by the first [`ensure_header`](Self::ensure_header) call,
    /// once the plan fingerprint is known; creating the file up front
    /// doubles as the startup writability probe.
    pub fn fresh(
        path: impl AsRef<Path>,
        model: &str,
        config: &str,
        seed: u64,
    ) -> std::io::Result<DurableJournal> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        Ok(DurableJournal {
            path,
            inner: Mutex::new(Inner {
                file,
                header: HeaderState::Pending {
                    model: model.to_string(),
                    config: config.to_string(),
                    seed,
                },
                seen: HashSet::new(),
                written: 0,
                truncated: 0,
            }),
        })
    }

    /// Recovers a journal from disk: parses the header and every entry,
    /// truncates a torn final line (recording a warning), writes the
    /// newline a whole final line may have lost, and reopens the file for
    /// appends. A malformed line that is *not* the final line is
    /// corruption and a hard error, as is a missing or malformed header.
    pub fn resume(path: impl AsRef<Path>) -> Result<ResumedJournal, String> {
        let path = path.as_ref().to_path_buf();
        let bytes = std::fs::read(&path)
            .map_err(|e| format!("cannot read journal {}: {e}", path.display()))?;
        let contents = match String::from_utf8(bytes) {
            Ok(contents) => contents,
            // A write torn inside a multi-byte character ends the file with
            // an incomplete one. Its line is torn anyway: drop the partial
            // character and let the torn-line rule below truncate the line.
            Err(e) if e.utf8_error().error_len().is_none() => {
                let valid = e.utf8_error().valid_up_to();
                let mut bytes = e.into_bytes();
                bytes.truncate(valid);
                String::from_utf8(bytes).expect("bytes up to valid_up_to are UTF-8")
            }
            Err(e) => return Err(format!("cannot read journal {}: {e}", path.display())),
        };
        // (1-based line number, byte offset of line end, line text).
        let mut lines: Vec<(usize, usize, &str)> = Vec::new();
        let mut offset = 0usize;
        for (idx, segment) in contents.split_inclusive('\n').enumerate() {
            offset += segment.len();
            let line = segment.trim_end_matches('\n');
            if !line.trim().is_empty() {
                lines.push((idx + 1, offset, line));
            }
        }
        let mut header: Option<JournalHeader> = None;
        let mut entries = Vec::new();
        let mut valid_end = 0usize;
        let mut warning = None;
        // A zero-length or whitespace-only file is what a crash between
        // journal creation and the first header write leaves behind; a
        // lone unparseable first line is that same header write torn
        // mid-flush. Both recover as an empty journal.
        let mut empty_recovery = lines.is_empty();
        let last_index = lines.len().saturating_sub(1);
        for (i, (line_no, end, line)) in lines.iter().enumerate() {
            let value = match Json::parse(line) {
                Ok(value) => value,
                Err(_) if i == last_index && header.is_none() => {
                    empty_recovery = true;
                    break;
                }
                Err(e) if i == last_index => {
                    warning = Some(format!(
                        "journal {}: truncating torn final line {line_no} ({e})",
                        path.display()
                    ));
                    break;
                }
                Err(e) => {
                    return Err(format!(
                        "journal {} is corrupt at line {line_no}: {e}",
                        path.display()
                    ))
                }
            };
            let parsed: Result<(), String> = (|| {
                let tag = value
                    .get("journal")
                    .and_then(Json::as_str)
                    .ok_or("line has no \"journal\" tag")?;
                match (tag, header.is_some()) {
                    ("header", false) => {
                        header = Some(header_from_json(&value)?);
                        Ok(())
                    }
                    ("header", true) => Err("duplicate journal header".into()),
                    ("entry", true) => {
                        entries.push(entry_from_json(&value)?);
                        Ok(())
                    }
                    ("entry", false) => Err("journal entry before header".into()),
                    (other, _) => Err(format!("unknown journal line tag {other:?}")),
                }
            })();
            match parsed {
                Ok(()) => valid_end = *end,
                Err(e) if i == last_index => {
                    // Torn tail: the crash cut the final append mid-line.
                    warning = Some(format!(
                        "journal {}: truncating torn final line {line_no} ({e})",
                        path.display()
                    ));
                    break;
                }
                Err(e) => {
                    return Err(format!(
                        "journal {} is corrupt at line {line_no}: {e}",
                        path.display()
                    ))
                }
            }
        }
        if empty_recovery && header.is_none() && entries.is_empty() {
            let mut file = OpenOptions::new()
                .write(true)
                .open(&path)
                .map_err(|e| format!("cannot reopen journal {}: {e}", path.display()))?;
            file.set_len(0)
                .and_then(|()| file.seek(SeekFrom::Start(0)).map(|_| ()))
                .map_err(|e| format!("cannot repair journal {}: {e}", path.display()))?;
            return Ok(ResumedJournal {
                journal: DurableJournal {
                    path: path.clone(),
                    inner: Mutex::new(Inner {
                        file,
                        // Placeholder identity: callers recreate via
                        // `fresh` before writing anything.
                        header: HeaderState::Pending {
                            model: String::new(),
                            config: String::new(),
                            seed: 0,
                        },
                        seen: HashSet::new(),
                        written: 0,
                        truncated: 0,
                    }),
                },
                header: None,
                entries: Vec::new(),
                warning: Some(format!(
                    "journal {}: empty journal, nothing replayed",
                    path.display()
                )),
            });
        }
        let header = header
            .ok_or_else(|| format!("journal {} has no complete header line", path.display()))?;
        let mut file = OpenOptions::new()
            .write(true)
            .open(&path)
            .map_err(|e| format!("cannot reopen journal {}: {e}", path.display()))?;
        // A short write can stop between a line and its newline: the line
        // is accepted, but the next append must not be glued onto it.
        let newline = if contents[..valid_end].ends_with('\n') {
            ""
        } else {
            "\n"
        };
        file.set_len(valid_end as u64)
            .and_then(|()| file.seek(SeekFrom::End(0)).map(|_| ()))
            .and_then(|()| file.write_all(newline.as_bytes()))
            .map_err(|e| format!("cannot repair journal {}: {e}", path.display()))?;
        let seen = entries
            .iter()
            .map(|e| (e.fingerprint, e.kind == TerminalKind::Completed))
            .collect();
        let truncated = usize::from(warning.is_some());
        Ok(ResumedJournal {
            journal: DurableJournal {
                path,
                inner: Mutex::new(Inner {
                    file,
                    header: HeaderState::Written(header.clone()),
                    seen,
                    written: 0,
                    truncated,
                }),
            },
            header: Some(header),
            entries,
            warning,
        })
    }

    /// The journal's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Writes the header line if this is a fresh journal (first run only;
    /// later runs sharing the journal are covered by the first plan — their
    /// plans derive deterministically from the first run's results).
    pub fn ensure_header(&self, plan: u64) -> std::io::Result<()> {
        let mut inner = self.inner.lock().expect("journal lock");
        if let HeaderState::Pending {
            model,
            config,
            seed,
        } = &inner.header
        {
            let header = JournalHeader {
                plan,
                model: model.clone(),
                config: config.clone(),
                seed: *seed,
            };
            let line = header_to_line(&header) + "\n";
            inner.file.write_all(line.as_bytes())?;
            inner.file.flush()?;
            inner.header = HeaderState::Written(header);
        }
        Ok(())
    }

    /// The on-disk header, once written (always present after a resume).
    pub fn header(&self) -> Option<JournalHeader> {
        match &self.inner.lock().expect("journal lock").header {
            HeaderState::Written(h) => Some(h.clone()),
            HeaderState::Pending { .. } => None,
        }
    }

    /// Appends one terminal entry and flushes it to disk. Appends before
    /// the header is written are a logic error. Duplicate fingerprints (a
    /// replayed request journaling again on resume) are suppressed.
    pub fn append(&self, entry: &JournalEntry) -> std::io::Result<()> {
        let mut inner = self.inner.lock().expect("journal lock");
        assert!(
            matches!(inner.header, HeaderState::Written(_)),
            "journal append before header"
        );
        if !inner
            .seen
            .insert((entry.fingerprint, entry.kind == TerminalKind::Completed))
        {
            return Ok(());
        }
        let line = entry_to_line(entry) + "\n";
        inner.file.write_all(line.as_bytes())?;
        inner.file.flush()?;
        inner.written += 1;
        Ok(())
    }

    /// Entries appended through this handle (excludes entries recovered at
    /// resume and suppressed duplicates).
    pub fn written(&self) -> usize {
        self.inner.lock().expect("journal lock").written
    }

    /// Torn-tail truncations performed at resume (0 or 1 per recovery).
    pub fn truncated(&self) -> usize {
        self.inner.lock().expect("journal lock").truncated
    }

    /// Consumes the torn-tail truncation count (so a multi-run pipeline
    /// reports it exactly once).
    pub fn take_truncated(&self) -> usize {
        std::mem::take(&mut self.inner.lock().expect("journal lock").truncated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_entry(fingerprint: u64) -> JournalEntry {
        JournalEntry {
            fingerprint,
            kind: TerminalKind::Completed,
            text: "Answer 1: yes\nAnswer 2: \"no\"\n".to_string(),
            prompt_tokens: 120,
            completion_tokens: 12,
            attempt_prompt_tokens: 60,
            attempt_completion_tokens: 6,
            retries: 1,
            fault: Some("timeout".to_string()),
            cache_hit: false,
            complete: false,
            cost_usd: 0.12345,
            latency_secs: 33.25,
            legs: Vec::new(),
        }
    }

    fn routed_entry(fingerprint: u64) -> JournalEntry {
        let mut entry = sample_entry(fingerprint);
        entry.legs = vec![
            RouteLegRecord {
                route: "sim-gpt-3.5".to_string(),
                outcome: "shorted".to_string(),
                fault: Some("timeout".to_string()),
                retries: 0,
                prompt_tokens: 0,
                completion_tokens: 0,
                cost_usd: 0.0,
                latency_secs: 0.0,
            },
            RouteLegRecord {
                route: "sim-gpt-4".to_string(),
                outcome: "served".to_string(),
                fault: None,
                retries: 1,
                prompt_tokens: 120,
                completion_tokens: 12,
                cost_usd: 0.12345,
                latency_secs: 33.25,
            },
        ];
        entry
    }

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("dprep-journal-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn entries_round_trip_exactly() {
        let entry = sample_entry(u64::MAX - 3);
        let line = entry_to_line(&entry);
        let parsed = entry_from_json(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(parsed, entry);
        let header = JournalHeader {
            plan: 0xdead_beef_dead_beef,
            model: "sim-gpt-4".into(),
            config: "ed|best|batch=8".into(),
            seed: u64::MAX,
        };
        let parsed = header_from_json(&Json::parse(&header_to_line(&header)).unwrap()).unwrap();
        assert_eq!(parsed, header);
    }

    #[test]
    fn routed_entries_round_trip_and_legless_lines_stay_legacy() {
        // Routed: legs round-trip exactly.
        let entry = routed_entry(11);
        let line = entry_to_line(&entry);
        assert!(line.contains("\"legs\":["), "{line}");
        let parsed = entry_from_json(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(parsed, entry);
        // Single-model: no "legs" key at all, so the encoding is
        // byte-identical to the pre-router format, and a legacy line with
        // no key parses back to empty legs.
        let plain = sample_entry(12);
        let line = entry_to_line(&plain);
        assert!(!line.contains("legs"), "{line}");
        let parsed = entry_from_json(&Json::parse(&line).unwrap()).unwrap();
        assert!(parsed.legs.is_empty());
    }

    #[test]
    fn write_kill_resume_recovers_entries_and_dedupes_appends() {
        let path = temp_path("roundtrip");
        let journal = DurableJournal::fresh(&path, "sim-gpt-4", "cfg", 7).unwrap();
        assert!(journal.header().is_none());
        journal.ensure_header(42).unwrap();
        journal.ensure_header(42).unwrap(); // idempotent
        journal.append(&sample_entry(1)).unwrap();
        journal.append(&sample_entry(2)).unwrap();
        journal.append(&JournalEntry::cancelled(3)).unwrap();
        assert_eq!(journal.written(), 3);
        drop(journal);
        let resumed = DurableJournal::resume(&path).unwrap();
        let header = resumed.header.as_ref().expect("journal has a header");
        assert_eq!(header.plan, 42);
        assert_eq!(header.model, "sim-gpt-4");
        assert_eq!(header.seed, 7);
        assert!(resumed.warning.is_none());
        assert_eq!(resumed.entries.len(), 3);
        assert_eq!(resumed.entries[0], sample_entry(1));
        assert_eq!(resumed.entries[2].kind, TerminalKind::Cancelled);
        // A replayed request appending again is suppressed; the cancelled
        // fingerprint re-executing to completion is recorded.
        resumed.journal.append(&sample_entry(1)).unwrap();
        assert_eq!(resumed.journal.written(), 0);
        resumed.journal.append(&sample_entry(3)).unwrap();
        assert_eq!(resumed.journal.written(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_truncates_with_a_warning_and_midfile_corruption_rejects() {
        let path = temp_path("torn");
        let journal = DurableJournal::fresh(&path, "m", "c", 1).unwrap();
        journal.ensure_header(9).unwrap();
        journal.append(&sample_entry(1)).unwrap();
        journal.append(&sample_entry(2)).unwrap();
        drop(journal);
        // Tear the final line mid-write.
        let full = std::fs::read_to_string(&path).unwrap();
        let torn = &full[..full.len() - 17];
        std::fs::write(&path, torn).unwrap();
        let resumed = DurableJournal::resume(&path).unwrap();
        assert_eq!(resumed.entries.len(), 1, "torn entry dropped");
        assert_eq!(resumed.journal.truncated(), 1);
        let warning = resumed.warning.as_deref().expect("torn tail warns");
        assert!(warning.contains("torn final line"), "{warning}");
        // The file itself was repaired: a second resume is clean.
        drop(resumed);
        let again = DurableJournal::resume(&path).unwrap();
        assert!(again.warning.is_none());
        assert_eq!(again.entries.len(), 1);
        // Mid-file corruption is a hard error, not a truncation.
        let mut lines: Vec<String> = std::fs::read_to_string(&path)
            .unwrap()
            .lines()
            .map(String::from)
            .collect();
        lines[1] = "{\"journal\":\"entry\",garbage".to_string();
        lines.push(entry_to_line(&sample_entry(5)));
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        let err = DurableJournal::resume(&path).unwrap_err();
        assert!(err.contains("corrupt at line 2"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_final_line_missing_only_its_newline_is_kept_and_terminated() {
        // A short write can stop right before a line's newline. The line is
        // whole, so resume keeps it — and the next append must start on a
        // line of its own, or the following resume sees one merged line.
        let path = temp_path("unterminated");
        let journal = DurableJournal::fresh(&path, "m", "c", 1).unwrap();
        journal.ensure_header(9).unwrap();
        journal.append(&sample_entry(1)).unwrap();
        journal.append(&sample_entry(2)).unwrap();
        drop(journal);
        let full = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, full.strip_suffix('\n').unwrap()).unwrap();
        let resumed = DurableJournal::resume(&path).unwrap();
        assert_eq!(resumed.entries.len(), 2);
        assert!(resumed.warning.is_none(), "{:?}", resumed.warning);
        resumed.journal.append(&sample_entry(3)).unwrap();
        drop(resumed);
        let again = DurableJournal::resume(&path).unwrap();
        assert!(again.warning.is_none(), "{:?}", again.warning);
        let fingerprints: Vec<u64> = again.entries.iter().map(|e| e.fingerprint).collect();
        assert_eq!(fingerprints, [1, 2, 3]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_header_and_unreadable_files_are_rejected() {
        let path = temp_path("headerless");
        std::fs::write(&path, format!("{}\n", entry_to_line(&sample_entry(1)))).unwrap();
        let err = DurableJournal::resume(&path).unwrap_err();
        assert!(
            err.contains("before header") || err.contains("no complete header"),
            "{err}"
        );
        assert!(DurableJournal::resume(temp_path("does-not-exist")).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_and_torn_header_files_recover_as_empty_journals() {
        // A crash between `fresh` and `ensure_header` leaves a zero-length
        // file; a crash mid-header-write leaves one torn line. Both must
        // recover as "nothing replayed", not a hard error.
        for (name, contents) in [
            ("empty", String::new()),
            ("blank", "\n\n".to_string()),
            ("torn-header", {
                let header = JournalHeader {
                    plan: 9,
                    model: "m".into(),
                    config: "c".into(),
                    seed: 1,
                };
                let line = header_to_line(&header);
                line[..line.len() / 2].to_string()
            }),
        ] {
            let path = temp_path(&format!("recover-{name}"));
            std::fs::write(&path, &contents).unwrap();
            let resumed = DurableJournal::resume(&path).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(resumed.header.is_none(), "{name}");
            assert!(resumed.entries.is_empty(), "{name}");
            let warning = resumed.warning.as_deref().expect("empty journal warns");
            assert!(warning.contains("empty journal"), "{name}: {warning}");
            // The recovered file was truncated to zero, so a fresh journal
            // at the same path starts clean.
            drop(resumed);
            assert_eq!(std::fs::metadata(&path).unwrap().len(), 0, "{name}");
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn non_integer_and_unsupported_versions_are_rejected_clearly() {
        let header = JournalHeader {
            plan: 9,
            model: "m".into(),
            config: "c".into(),
            seed: 1,
        };
        let line = header_to_line(&header);
        let fractional = line.replace("\"version\":1", "\"version\":1.5");
        assert_ne!(fractional, line, "version field was present to replace");
        let err = header_from_json(&Json::parse(&fractional).unwrap()).unwrap_err();
        assert!(err.contains("not an integer"), "{err}");
        assert!(err.contains("1.5"), "{err}");
        let unsupported = line.replace("\"version\":1", "\"version\":99");
        let err = header_from_json(&Json::parse(&unsupported).unwrap()).unwrap_err();
        assert!(err.contains("version 99"), "{err}");
        // A mid-file bad header is still a hard resume error, with the
        // clear version message surfaced.
        let path = temp_path("bad-version");
        std::fs::write(
            &path,
            format!("{fractional}\n{}\n", entry_to_line(&sample_entry(1))),
        )
        .unwrap();
        let err = DurableJournal::resume(&path).unwrap_err();
        assert!(err.contains("not an integer"), "{err}");
        std::fs::remove_file(&path).ok();
    }
}
