//! The durable `dprep detect` job, as the end-to-end benchmark repeats it:
//! a two-worker cascade run with the cache on, journaled, then `--resume`
//! of its journal, then both again into the same journal path. All four
//! must print the same table and bill the same usage footer, on every seed.

use std::path::{Path, PathBuf};
use std::process::Command;

mod common;

/// One `dprep detect` with the durable flags, resuming `journal` when
/// `resume` is set; returns its stdout and usage-footer line.
fn detect(input: &Path, facts: &Path, journal: &Path, resume: bool) -> (String, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_dprep"));
    cmd.arg("detect")
        .arg("--input")
        .arg(input)
        .arg("--facts")
        .arg(facts)
        .args(["--workers", "2"])
        .args(["--route", "sim-gpt-3.5,sim-gpt-4", "--cache", "on"])
        .arg("--journal")
        .arg(journal);
    if resume {
        cmd.arg("--resume").arg(journal);
    }
    let output = cmd.output().expect("dprep runs");
    let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
    assert!(output.status.success(), "resume={resume}: {stderr}");
    let footer = stderr
        .lines()
        .find(|line| line.ends_with("s virtual latency]"))
        .unwrap_or_else(|| panic!("no usage footer: {stderr}"))
        .to_string();
    (
        String::from_utf8(output.stdout).expect("utf-8 stdout"),
        footer,
    )
}

#[test]
fn durable_detect_prints_and_bills_the_same_on_every_run_and_resume() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("dprep-durable-detect-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for seed in 1..=10u64 {
        let (csv, facts) = common::inputs(seed);
        let input = dir.join(format!("input-{seed}.csv"));
        let facts_path = dir.join(format!("facts-{seed}.tsv"));
        let journal = dir.join(format!("run-{seed}.journal"));
        std::fs::write(&input, csv).unwrap();
        std::fs::write(&facts_path, facts).unwrap();
        let reference = detect(&input, &facts_path, &journal, false);
        assert!(
            reference.0.lines().count() > 1,
            "seed {seed}: nothing flagged"
        );
        for (run, resume) in [(1, true), (2, false), (3, true)] {
            let again = detect(&input, &facts_path, &journal, resume);
            assert_eq!(again.0, reference.0, "seed {seed} run {run}: stdout");
            assert_eq!(again.1, reference.1, "seed {seed} run {run}: footer");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
