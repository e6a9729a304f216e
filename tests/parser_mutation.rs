//! Seeded mutation testing of every parser that reads untrusted or
//! crash-torn bytes: `Json::parse` (daemon request frames), `parse_trace`
//! and `RunReport::from_contents` (`dprep report` inputs), and
//! `DurableJournal::resume` (`--resume`). Every mutant of a valid input
//! must come back as a value or a clean error — never a panic, and never a
//! stack overflow that takes the whole process down. Journal recovery must
//! also never replay a torn line, wherever a crash cut the file, and counts
//! too large to add up saturate in a report instead of overflowing (a trace
//! line's own count past 2^53 is refused as out of range).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

use dprep_rng::Rng;
use llm_data_preprocessors::core::{Durability, PipelineConfig, Preprocessor};
use llm_data_preprocessors::datasets::dataset_by_name;
use llm_data_preprocessors::llm::{CacheLayer, FaultLayer, ModelProfile, RetryLayer, SimulatedLlm};
use llm_data_preprocessors::obs::{
    parse_trace, DurableJournal, JournalEntry, Json, JsonlTracer, ReportFormat, RunReport, Tracer,
};

/// Mutants per parser.
const MUTANTS: usize = 5_000;

/// Bytes that steer a JSON parser into its edge cases: structure,
/// escapes, number syntax, line breaks, and a stray UTF-8 lead byte.
const INTERESTING: &[u8] = b"{}[]\",:\\u0-+.eE \n\t\xc3\xff";

fn temp_path(tag: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!(
        "dprep-parser-mutation-{}-{tag}.jsonl",
        std::process::id()
    ));
    path
}

/// Valid inputs from one real run: its JSONL trace, its journal's lines,
/// its metrics snapshot, and a daemon submit frame.
struct Corpus {
    trace: Vec<String>,
    journal: Vec<String>,
    snapshot: String,
    frame: String,
}

/// The corpus, built by one real run shared by every test in this file
/// (they would otherwise race on the run's journal path).
fn corpus() -> &'static Corpus {
    static CORPUS: OnceLock<Corpus> = OnceLock::new();
    CORPUS.get_or_init(build_corpus)
}

fn build_corpus() -> Corpus {
    let ds = dataset_by_name("Restaurant", 2.0, 0).unwrap();
    let jsonl = Arc::new(JsonlTracer::new());
    let tracer = Arc::clone(&jsonl) as Arc<dyn Tracer>;
    let sim = SimulatedLlm::new(ModelProfile::gpt35(), Arc::new(ds.kb.clone())).with_seed(0);
    let faulty = FaultLayer::new(sim, 0.3, 0).with_tracer(Arc::clone(&tracer));
    let retried = RetryLayer::new(faulty, 2).with_tracer(Arc::clone(&tracer));
    let stack = CacheLayer::new(retried).with_tracer(Arc::clone(&tracer));
    let path = temp_path("seed");
    let journal = Arc::new(DurableJournal::fresh(&path, "sim-gpt-3.5", "cfg", 0).unwrap());
    let result = Preprocessor::new(&stack, PipelineConfig::best(ds.task))
        .with_tracer(tracer)
        .with_durability(Durability::new().with_journal(journal))
        .run(&ds.instances, &ds.few_shot);
    let journal = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let corpus = Corpus {
        trace: jsonl.lines(),
        journal: journal.lines().map(str::to_string).collect(),
        snapshot: result.metrics.to_json().to_json(),
        frame: r#"{"op":"submit","tenant":"acme","dataset":"Restaurant","scale":0.5,"workers":2,"token_budget":5000,"deadline_ms":1500.5,"route":"sim-gpt-3.5,sim-gpt-4","journal_key":"jé\n"}"#
            .to_string(),
    };
    assert!(corpus.trace.len() > 100 && corpus.journal.len() > 10);
    corpus
}

/// A random run of at most `len` consecutive lines, kept small so each
/// parse is cheap while the mutants still cover every event kind.
fn window(rng: &mut Rng, lines: &[String], len: usize) -> String {
    let start = rng.range_usize(0, lines.len());
    let end = lines.len().min(start + rng.range_usize(1, len + 1));
    lines[start..end].join("\n") + "\n"
}

/// Applies one to four seeded edits: overwrite, insert (sometimes a run of
/// one byte), delete, duplicate, or truncate. Rarely an edit is a nesting
/// bomb instead: 100,000 `[` right after a `:`, where a value starts —
/// deep enough to overflow the stack of a parser that recurses without a
/// limit.
fn mutate(rng: &mut Rng, mut bytes: Vec<u8>) -> Vec<u8> {
    for _ in 0..rng.range_usize(1, 5) {
        let at = rng.range_usize(0, bytes.len() + 1);
        let byte = INTERESTING[rng.range_usize(0, INTERESTING.len())];
        match rng.range_usize(0, 100) {
            0 => {
                if let Some(colon) = bytes[at..].iter().position(|&b| b == b':') {
                    let value = at + colon + 1;
                    bytes.splice(value..value, std::iter::repeat_n(b'[', 100_000));
                }
            }
            1..=24 if at < bytes.len() => bytes[at] = byte,
            25..=49 => {
                let run = if rng.bool(0.2) {
                    rng.range_usize(2, 400)
                } else {
                    1
                };
                bytes.splice(at..at, std::iter::repeat_n(byte, run));
            }
            50..=69 => {
                let end = bytes.len().min(at + rng.range_usize(1, 16));
                bytes.drain(at.min(end)..end);
            }
            70..=89 => {
                let end = bytes.len().min(at + rng.range_usize(1, 64));
                let piece = bytes[at.min(end)..end].to_vec();
                let to = rng.range_usize(0, bytes.len() + 1);
                bytes.splice(to..to, piece);
            }
            _ => bytes.truncate(at),
        }
    }
    bytes
}

/// Runs `parse` on every mutant, failing with the mutant that panicked.
fn assert_never_panics(
    seed: u64,
    mut base: impl FnMut(&mut Rng) -> Vec<u8>,
    mut parse: impl FnMut(&[u8]),
) {
    let mut rng = Rng::seed_from_u64(seed);
    for i in 0..MUTANTS {
        let original = base(&mut rng);
        let mutant = mutate(&mut rng, original);
        if catch_unwind(AssertUnwindSafe(|| parse(&mutant))).is_err() {
            panic!(
                "mutant {i} (seed {seed}) panicked: {:?}",
                String::from_utf8_lossy(&mutant)
            );
        }
    }
}

#[test]
fn mutated_inputs_never_panic_any_parser() {
    let corpus = corpus();

    // Daemon frames and snapshots: one JSON document each.
    assert_never_panics(
        1,
        |rng| {
            let doc = if rng.bool(0.5) {
                &corpus.frame
            } else {
                &corpus.snapshot
            };
            doc.clone().into_bytes()
        },
        |bytes| {
            let _ = Json::parse(&String::from_utf8_lossy(bytes));
        },
    );

    // `dprep report` inputs: trace windows and snapshots.
    assert_never_panics(
        2,
        |rng| window(rng, &corpus.trace, 24).into_bytes(),
        |bytes| {
            let _ = parse_trace(&String::from_utf8_lossy(bytes));
        },
    );
    assert_never_panics(
        3,
        |rng| {
            if rng.bool(0.5) {
                window(rng, &corpus.trace, 24).into_bytes()
            } else {
                corpus.snapshot.clone().into_bytes()
            }
        },
        |bytes| {
            let _ = RunReport::from_contents(&String::from_utf8_lossy(bytes));
        },
    );

    // `--resume` inputs: the journal header plus a window of its entries,
    // as raw bytes on disk (invalid UTF-8 included).
    let path = temp_path("mutant");
    assert_never_panics(
        4,
        |rng| {
            let entries = window(rng, &corpus.journal[1..], 12);
            format!("{}\n{entries}", corpus.journal[0]).into_bytes()
        },
        |bytes| {
            std::fs::write(&path, bytes).unwrap();
            let _ = DurableJournal::resume(&path);
        },
    );
    std::fs::remove_file(&path).ok();
}

/// Journal recovery never replays a torn or merged line. A real journal is
/// cut at every byte offset of its last two lines (a crash can stop a write
/// anywhere: between a line and its newline, or inside a multi-byte
/// character), resumed, extended by one append, and resumed again: the
/// result is exactly the entries whose lines survived whole, plus the new
/// one.
#[test]
fn journals_cut_anywhere_resume_to_their_whole_lines_plus_new_appends() {
    let corpus = corpus();
    let path = temp_path("cut");
    // Five entries of the corpus journal, then one whose text is not ASCII
    // (as a user's data can make it), appended by the journal itself.
    std::fs::write(&path, corpus.journal[..6].join("\n") + "\n").unwrap();
    let resumed = DurableJournal::resume(&path).unwrap();
    let fresh_fingerprint =
        |entries: &[JournalEntry]| entries.iter().map(|e| e.fingerprint).max().unwrap() + 1;
    let mut wide = resumed.entries[0].clone();
    wide.fingerprint = fresh_fingerprint(&resumed.entries);
    wide.text = "Answer 1: Montréal, 東京\nyes\n".to_string();
    resumed.journal.append(&wide).unwrap();
    drop(resumed);
    let full = std::fs::read_to_string(&path).unwrap();
    let entries = DurableJournal::resume(&path).unwrap().entries;
    assert_eq!(entries.len(), 6);
    let mut extra = entries[0].clone();
    extra.fingerprint = fresh_fingerprint(&entries);

    // Byte offset where each entry's line text ends (before its newline).
    let lines: Vec<&str> = full.lines().collect();
    let mut text_ends = Vec::new();
    let mut offset = 0;
    for line in &lines {
        offset += line.len();
        text_ends.push(offset);
        offset += 1;
    }
    let text_ends = &text_ends[1..];
    let cut_from = full.len() - lines[lines.len() - 1].len() - lines[lines.len() - 2].len() - 2;
    for cut in cut_from..=full.len() {
        std::fs::write(&path, &full.as_bytes()[..cut]).unwrap();
        let whole = text_ends.iter().filter(|&&end| end <= cut).count();
        let resumed = DurableJournal::resume(&path)
            .unwrap_or_else(|e| panic!("cut at byte {cut}: first resume failed: {e}"));
        assert_eq!(resumed.entries, entries[..whole], "cut at byte {cut}");
        resumed.journal.append(&extra).unwrap();
        drop(resumed);
        let again = DurableJournal::resume(&path)
            .unwrap_or_else(|e| panic!("cut at byte {cut}: second resume failed: {e}"));
        assert!(
            again.warning.is_none(),
            "cut at byte {cut}: {:?}",
            again.warning
        );
        let mut expected = entries[..whole].to_vec();
        expected.push(extra.clone());
        assert_eq!(again.entries, expected, "cut at byte {cut}");
    }
    std::fs::remove_file(&path).ok();
}

/// 2^63: two of these overflow a 64-bit count.
const HALF_OVERFLOW: f64 = 9_223_372_036_854_775_808.0;

/// 2^53 - 1: the largest count a trace line carries exactly, and so the
/// largest a trace parses.
const LARGEST_EXACT: f64 = 9_007_199_254_740_991.0;

/// Lines at `LARGEST_EXACT` whose counts add up past `usize::MAX` (2048
/// add up to just under it).
const LINES_PAST_USIZE_MAX: usize = 2049;

/// The first corpus trace line of `event` that contains `marker`, with the
/// number at `key` set to `count`.
fn with_count(event: &str, marker: &str, key: &str, count: f64) -> String {
    let tag = format!("\"event\":\"{event}\"");
    let line = corpus()
        .trace
        .iter()
        .find(|line| line.contains(&tag) && line.contains(marker))
        .unwrap_or_else(|| panic!("no {event} line with {marker} in the corpus"));
    let Json::Obj(mut fields) = Json::parse(line).unwrap() else {
        panic!("a trace line is an object");
    };
    let (_, value) = fields.iter_mut().find(|(k, _)| k == key).unwrap();
    *value = Json::Num(count);
    Json::Obj(fields).to_json()
}

/// A trace whose `key` counts add up past `usize::MAX`: the corpus line,
/// at the largest exact count, `LINES_PAST_USIZE_MAX` times. The same line
/// at 2^63 is refused as out of range, naming the field.
fn trace_past_usize_max(event: &str, marker: &str, key: &str) -> String {
    let hostile = with_count(event, marker, key, HALF_OVERFLOW);
    let err = RunReport::from_contents(&hostile).unwrap_err();
    assert!(
        err.contains(&format!("{key:?}")) && err.contains("out of range"),
        "{err}"
    );
    format!("{}\n", with_count(event, marker, key, LARGEST_EXACT)).repeat(LINES_PAST_USIZE_MAX)
}

/// The report of a hostile input, which must parse.
fn report(contents: String) -> RunReport {
    RunReport::from_contents(&contents).unwrap_or_else(|e| panic!("{e}: {contents}"))
}

/// Fresh completions billing 2^53 - 1 prompt tokens each, adding up past
/// `usize::MAX`, report the saturated `usize::MAX`, not a wrapped sum (or,
/// in a debug build, an overflow panic).
#[test]
fn billed_tokens_past_usize_max_saturate() {
    let completed = trace_past_usize_max("completed", "\"cache_hit\":false", "prompt_tokens");
    let billed = report(completed);
    assert_eq!(billed.metrics.prompt_tokens, usize::MAX);
    let text = billed.render(ReportFormat::Text);
    assert!(
        text.contains(&format!("tokens billed   {} prompt", usize::MAX)),
        "{text}"
    );
}

/// Prompt-component attributions of 2^53 - 1 instance tokens each, adding
/// up past `usize::MAX`, report the saturated `usize::MAX`.
#[test]
fn component_tokens_past_usize_max_saturate() {
    let components = trace_past_usize_max("prompt_components", "\"instances\"", "instances");
    let attributed = report(components);
    assert_eq!(
        attributed.metrics.component_tokens.get("instances"),
        Some(&usize::MAX)
    );
    attributed.render(ReportFormat::Text);
}

/// A snapshot that repeats a component key at 2^63 reports the saturated
/// `usize::MAX`.
#[test]
fn snapshot_keys_repeated_past_usize_max_saturate() {
    let Json::Obj(mut snapshot) = Json::parse(&corpus().snapshot).unwrap() else {
        panic!("a snapshot is an object");
    };
    let (_, tokens) = snapshot
        .iter_mut()
        .find(|(k, _)| k == "component_tokens")
        .unwrap();
    *tokens = Json::Obj(vec![
        ("instances".into(), Json::Num(HALF_OVERFLOW)),
        ("instances".into(), Json::Num(HALF_OVERFLOW)),
    ]);
    let repeated = report(Json::Obj(snapshot).to_json());
    assert_eq!(
        repeated.metrics.component_tokens.get("instances"),
        Some(&usize::MAX)
    );
    repeated.render(ReportFormat::Text);
}
