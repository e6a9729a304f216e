//! The durable `dprep detect` job, as the end-to-end benchmark repeats it:
//! a two-worker cascade run with the cache on, journaled, then `--resume`
//! of its journal, then both again into the same journal path. All four
//! must print the same table and bill the same usage footer, on every seed.

use std::path::{Path, PathBuf};
use std::process::Command;

const CITIES: [&str; 12] = [
    "atlanta", "boston", "chicago", "denver", "houston", "phoenix", "seattle", "portland", "miami",
    "detroit", "memphis", "raleigh",
];
const STATES: [&str; 6] = ["GA", "MA", "IL", "CO", "TX", "AZ"];
const SURNAMES: [&str; 6] = ["smith", "garcia", "chen", "okafor", "novak", "silva"];

/// A splitmix64 stream: enough randomness for a seeded table.
struct Draws(u64);

impl Draws {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A 300-row `name,age,city,state` table drawn from `seed`, with some
/// misspelt cities and out-of-range ages, and its facts file: the city
/// lexicon and the plausible age range.
fn inputs(seed: u64) -> (String, String) {
    let mut draws = Draws(seed);
    let mut csv = String::from("name,age,city,state\n");
    for row in 0..300 {
        let surname = SURNAMES[draws.below(SURNAMES.len())];
        let mut age = (18 + draws.below(73)).to_string();
        if draws.below(25) == 0 {
            age = (150 + draws.below(800)).to_string();
        }
        let mut city = CITIES[draws.below(CITIES.len())].to_string();
        if draws.below(25) == 0 {
            // Doubling a letter makes a word no city in the lexicon is.
            let at = 1 + draws.below(city.len() - 1);
            city.insert(at, city.as_bytes()[at] as char);
        }
        let state = STATES[draws.below(STATES.len())];
        csv.push_str(&format!("{surname} {row:04},{age},{city},{state}\n"));
    }
    let mut facts = String::new();
    for city in CITIES {
        facts.push_str(&format!("lexicon\tcity\t{city}\n"));
    }
    facts.push_str("range\tage\t0\t110\n");
    (csv, facts)
}

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
        let (csv, facts) = inputs(seed);
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
