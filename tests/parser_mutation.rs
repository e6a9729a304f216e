//! Seeded mutation testing of every parser that reads untrusted or
//! crash-torn bytes: `Json::parse` (daemon request frames), `parse_trace`
//! and `RunReport::from_contents` (`dprep report` inputs), and
//! `DurableJournal::resume` (`--resume`). Every mutant of a valid input
//! must come back as a value or a clean error — never a panic, and never a
//! stack overflow that takes the whole process down.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;

use dprep_rng::Rng;
use llm_data_preprocessors::core::{Durability, PipelineConfig, Preprocessor};
use llm_data_preprocessors::datasets::dataset_by_name;
use llm_data_preprocessors::llm::{CacheLayer, FaultLayer, ModelProfile, RetryLayer, SimulatedLlm};
use llm_data_preprocessors::obs::{
    parse_trace, DurableJournal, Json, JsonlTracer, RunReport, Tracer,
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

fn corpus() -> Corpus {
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
