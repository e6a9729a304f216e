//! What `dprep detect` prints, pinned. On one seeded table, with missing
//! cells, a quoted name holding `""` and a multi-byte city, every run of
//! the grid — `--workers` 1, 2 and 4, one shard and 64-batch shards —
//! prints the same stdout and stderr, for `--all off` and for `--all on`,
//! and each variant's bytes hash to a pinned value. A routed, cached,
//! journaled run and its `--resume` print the same, and their journal's
//! bytes are pinned too.

use std::path::{Path, PathBuf};
use std::process::Command;

mod common;

/// FNV-1a over `parts`, each followed by a zero byte.
fn fnv(parts: &[&[u8]]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for part in parts {
        for &byte in part.iter().chain(&[0]) {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// One successful `dprep detect` over `input` and `facts` with `args`;
/// returns its stdout and stderr.
fn detect(input: &Path, facts: &Path, args: &[&str]) -> (String, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_dprep"))
        .arg("detect")
        .arg("--input")
        .arg(input)
        .arg("--facts")
        .arg(facts)
        .args(args)
        .output()
        .expect("dprep runs");
    let stderr = String::from_utf8(output.stderr).expect("utf-8 stderr");
    assert!(output.status.success(), "{args:?}: {stderr}");
    (
        String::from_utf8(output.stdout).expect("utf-8 stdout"),
        stderr,
    )
}

/// The seeded table, plus rows with a missing cell in each column, a
/// quoted name holding `""`, and multi-byte cities, one of them misspelt.
fn table(dir: &Path) -> (PathBuf, PathBuf) {
    let (mut csv, mut facts) = common::inputs(7);
    csv.push_str(",40,boston,MA\n");
    csv.push_str("smith 0301,,chicago,IL\n");
    csv.push_str("chen 0302,33,,TX\n");
    csv.push_str("novak 0303,51,denver,\n");
    csv.push_str("\"o\"\"brien 0304\",62,miami,GA\n");
    csv.push_str("silva 0305,27,zürich,ZH\n");
    csv.push_str("kim 0306,45,zürrich,ZH\n");
    csv.push_str("\"garcia, jr 0307\",230,são paulo,SP\n");
    facts.push_str("lexicon\tcity\tzürich\nlexicon\tcity\tsão paulo\n");
    let input = dir.join("input.csv");
    let facts_path = dir.join("facts.tsv");
    std::fs::write(&input, csv).unwrap();
    std::fs::write(&facts_path, facts).unwrap();
    (input, facts_path)
}

/// FNV-1a of stdout and stderr of the `--all off` and `--all on`
/// variants.
const PINNED: [(&str, u64); 2] = [
    ("off", 0x8256_9977_ef37_2e53),
    ("on", 0xa984_bfba_73d8_0171),
];

#[test]
fn detect_prints_the_same_at_every_worker_count_and_shard_size() {
    let dir = std::env::temp_dir().join(format!("dprep-detect-output-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (input, facts) = table(&dir);
    for (all, pinned) in PINNED {
        let mut reference: Option<(String, String)> = None;
        for workers in ["1", "2", "4"] {
            for shard in [None, Some("64")] {
                let mut args = vec!["--all", all, "--workers", workers];
                if let Some(shard) = shard {
                    args.extend(["--plan-shard-size", shard]);
                }
                let printed = detect(&input, &facts, &args);
                match &reference {
                    None => reference = Some(printed),
                    Some(reference) => assert_eq!(&printed, reference, "{args:?}"),
                }
            }
        }
        let (stdout, stderr) = reference.expect("a run");
        assert!(stdout.contains("\tcity\tzürrich\terror\t"), "{stdout}");
        if all == "on" {
            assert!(stdout.contains("\tname\to\"brien 0304\t"), "{stdout}");
            assert!(stdout.contains("\tcity\tsão paulo\t"), "{stdout}");
        }
        assert!(stderr.contains("cells flagged"), "{stderr}");
        let hash = fnv(&[stdout.as_bytes(), stderr.as_bytes()]);
        eprintln!("--all {all}: {hash:#018x}");
        assert_eq!(hash, pinned, "--all {all}:\n{stdout}{stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// FNV-1a of the routed run's stdout and stderr, of its journal, and of
/// the journal after the resume.
const PINNED_ROUTED: (u64, u64, u64) = (
    0xbd2b_e64b_574d_e404,
    0xcb05_e6ed_d008_2b41,
    0xcb05_e6ed_d008_2b41,
);

#[test]
fn a_routed_cached_journaled_detect_and_its_resume_print_the_same() {
    let dir = std::env::temp_dir().join(format!("dprep-detect-routed-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (input, facts) = table(&dir);
    let journal = dir.join("run.journal");
    let journal = journal.to_str().unwrap();
    let routed = [
        "--workers",
        "2",
        "--route",
        "sim-gpt-3.5,sim-gpt-4",
        "--cache",
        "on",
        "--journal",
        journal,
    ];
    let (stdout, stderr) = detect(&input, &facts, &routed);
    let journaled = std::fs::read(journal).unwrap();
    let resumed = detect(
        &input,
        &facts,
        &[&routed[..], &["--resume", journal]].concat(),
    );
    assert_eq!(resumed, (stdout.clone(), stderr.clone()), "--resume");
    let hashes = (
        fnv(&[stdout.as_bytes(), stderr.as_bytes()]),
        fnv(&[&journaled]),
        fnv(&[&std::fs::read(journal).unwrap()]),
    );
    eprintln!("routed: {hashes:#018x?}");
    assert_eq!(hashes, PINNED_ROUTED, "\n{stdout}{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}
