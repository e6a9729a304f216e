//! On-disk formats, pinned across builds. The files under
//! `tests/fixtures/formats/` were written by one routed, cached, journaled
//! `dprep detect` run, from that directory:
//!
//! ```text
//! dprep detect --input input.csv --facts facts.tsv --workers 1 \
//!   --route sim-gpt-3.5,sim-gpt-4 --cache on --journal run.journal \
//!   --trace run.trace.jsonl --metrics run.metrics.json > stdout.txt
//! ```
//!
//! Every later build must resume that journal on the same input with no
//! model call — each request replays — printing the same stdout and
//! billing the same totals: exactly-once billing across a resume rests on
//! `request_fingerprint`, the config descriptor and the journal codec
//! staying put. It must also parse the trace into events that rebuild the
//! recorded metrics snapshot, and read that snapshot back.
//!
//! A deliberate format change replaces these fixtures, by rerunning the
//! command above, and says so in CHANGES.md.

use std::path::{Path, PathBuf};
use std::process::Command;

use dprep_obs::{parse_trace, Json, MetricsSnapshot};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/formats")
        .join(name)
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// A metrics snapshot file, read back.
fn snapshot(path: &Path) -> MetricsSnapshot {
    let json = Json::parse(read(path).trim()).expect("the snapshot is JSON");
    MetricsSnapshot::from_json(&json).expect("the snapshot reads back")
}

#[test]
fn the_recorded_journal_resumes_with_no_model_call_and_the_same_bill() {
    let dir = std::env::temp_dir().join(format!("dprep-format-fixtures-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("run.journal");
    std::fs::copy(fixture("run.journal"), &journal).unwrap();
    let metrics = dir.join("resumed.metrics.json");
    let output = Command::new(env!("CARGO_BIN_EXE_dprep"))
        .arg("detect")
        .arg("--input")
        .arg(fixture("input.csv"))
        .arg("--facts")
        .arg(fixture("facts.tsv"))
        .args([
            "--workers",
            "1",
            "--route",
            "sim-gpt-3.5,sim-gpt-4",
            "--cache",
            "on",
        ])
        .arg("--journal")
        .arg(&journal)
        .arg("--resume")
        .arg(&journal)
        .arg("--metrics")
        .arg(&metrics)
        .output()
        .expect("dprep runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "{stderr}");
    assert_eq!(
        String::from_utf8(output.stdout).expect("utf-8 stdout"),
        read(&fixture("stdout.txt")),
        "{stderr}"
    );

    let recorded = snapshot(&fixture("run.metrics.json"));
    let resumed = snapshot(&metrics);
    assert!(recorded.requests > 0, "{recorded:?}");
    // Every request replayed from the journal; none reached a model.
    assert_eq!(
        (resumed.journal_replayed, resumed.journal_written),
        (recorded.requests, 0),
        "{stderr}"
    );
    assert_eq!(
        std::fs::read(&journal).unwrap(),
        std::fs::read(fixture("run.journal")).unwrap(),
        "the resume appended to the journal"
    );
    let bill = |m: &MetricsSnapshot| (m.requests, m.prompt_tokens, m.completion_tokens, m.cost_usd);
    assert_eq!(bill(&resumed), bill(&recorded));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn the_recorded_trace_rebuilds_the_recorded_snapshot() {
    let events = parse_trace(&read(&fixture("run.trace.jsonl"))).expect("the trace parses");
    assert!(!events.is_empty());
    assert_eq!(
        MetricsSnapshot::from_events(&events),
        snapshot(&fixture("run.metrics.json"))
    );
}
