//! Seeded workload inputs. The program under test sees only what these
//! functions produce: a CSV, a facts file, and `submit` request lines.

use std::collections::BTreeSet;

use dprep_obs::Json;
use dprep_rng::Rng;

/// Cities of the generated table, with the state each lies in. The facts
/// file lists the cities as the legal `city` lexicon.
const CITIES: [(&str, &str); 24] = [
    ("atlanta", "GA"),
    ("augusta", "GA"),
    ("boston", "MA"),
    ("chicago", "IL"),
    ("denver", "CO"),
    ("houston", "TX"),
    ("dallas", "TX"),
    ("austin", "TX"),
    ("phoenix", "AZ"),
    ("tucson", "AZ"),
    ("seattle", "WA"),
    ("spokane", "WA"),
    ("portland", "OR"),
    ("salem", "OR"),
    ("miami", "FL"),
    ("orlando", "FL"),
    ("tampa", "FL"),
    ("detroit", "MI"),
    ("lansing", "MI"),
    ("memphis", "TN"),
    ("nashville", "TN"),
    ("raleigh", "NC"),
    ("charlotte", "NC"),
    ("richmond", "VA"),
];

const SURNAMES: [&str; 12] = [
    "smith", "garcia", "chen", "okafor", "novak", "silva", "kim", "haddad", "murphy", "ito",
    "kowalski", "mendes",
];

/// Share of rows whose age is out of range, and of rows whose city is
/// misspelt: the injected errors `f1` is scored against.
const ERROR_RATE: f64 = 0.03;

/// The inputs of a detect workload.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectInputs {
    /// `name,age,city,state` with unique rows.
    pub csv: String,
    /// The header and first row of `csv`: the set-up probe's input.
    pub one_row_csv: String,
    /// Tab-separated facts: the city lexicon and the plausible age range.
    pub facts: String,
    /// Injected errors as (row, attribute).
    pub truth: BTreeSet<(usize, String)>,
    /// Checkable cells (rows x attributes).
    pub cells: usize,
}

/// A `rows`-row detect table drawn from `seed`.
pub fn detect_inputs(seed: u64, rows: usize) -> DetectInputs {
    let mut rng = Rng::seed_from_u64(seed ^ 0xde7e_c7ed);
    let mut csv = String::from("name,age,city,state\n");
    let mut truth = BTreeSet::new();
    let mut one_row_csv = String::new();
    for row in 0..rows {
        let surname = rng.choose(&SURNAMES).expect("surnames");
        let (city, state) = *rng.choose(&CITIES).expect("cities");
        let mut age = rng.range_incl(18i64, 90).to_string();
        if rng.bool(ERROR_RATE) {
            age = if rng.bool(0.5) {
                rng.range_incl(150i64, 999).to_string()
            } else {
                format!("-{}", rng.range_incl(1i64, 60))
            };
            truth.insert((row, "age".to_string()));
        }
        let mut city_value = city.to_string();
        if rng.bool(ERROR_RATE) {
            city_value = misspell(&mut rng, city);
            truth.insert((row, "city".to_string()));
        }
        let line = format!("{surname} {row:06},{age},{city_value},{state}\n");
        if row == 0 {
            one_row_csv = format!("name,age,city,state\n{line}");
        }
        csv.push_str(&line);
    }
    let mut facts = String::from("# generated facts: legal cities and the plausible age range\n");
    for (city, _) in CITIES {
        facts.push_str(&format!("lexicon\tcity\t{city}\n"));
    }
    facts.push_str("range\tage\t0\t110\n");
    DetectInputs {
        csv,
        one_row_csv,
        facts,
        truth,
        cells: rows * 4,
    }
}

/// One letter of `city` replaced so the result is no legal city.
fn misspell(rng: &mut Rng, city: &str) -> String {
    loop {
        let mut chars: Vec<char> = city.chars().collect();
        let at = rng.range_usize(1, chars.len());
        let letter = (b'a' + rng.range_usize(0, 26) as u8) as char;
        if chars[at] == letter {
            continue;
        }
        chars[at] = letter;
        let candidate: String = chars.into_iter().collect();
        if CITIES.iter().all(|(c, _)| *c != candidate) {
            return candidate;
        }
    }
}

/// The small datasets `serve-*` jobs rotate over (every task appears).
const SMALL_DATASETS: [&str; 6] = [
    "Restaurant",
    "Buy",
    "Beer",
    "Synthea",
    "Fodors-Zagats",
    "iTunes-Amazon",
];

/// Tenants the small jobs rotate over.
pub const TENANTS: [&str; 4] = ["acme", "globex", "initech", "umbrella"];

/// One `submit` request body, minus its tenant.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    pub dataset: &'static str,
    pub scale: f64,
    pub seed: u64,
    /// Heavy jobs: cascade, fault storm, and a journal.
    pub heavy: bool,
}

impl Job {
    /// Jobs with the same key must reply the same fingerprint and bill.
    pub fn key(&self) -> String {
        format!("{}@{}/{}", self.dataset, self.scale, self.seed)
    }

    /// The request line for `tenant`; `journal_key` names a heavy job's
    /// journal.
    pub fn line(&self, tenant: &str, journal_key: Option<&str>) -> String {
        let mut fields = vec![
            ("op".to_string(), Json::Str("submit".into())),
            ("tenant".to_string(), Json::Str(tenant.into())),
            ("dataset".to_string(), Json::Str(self.dataset.into())),
            ("scale".to_string(), Json::Num(self.scale)),
            ("seed".to_string(), Json::Num(self.seed as f64)),
            ("workers".to_string(), Json::Num(1.0)),
        ];
        if self.heavy {
            fields.push(("route".into(), Json::Str("sim-gpt-3.5,sim-gpt-4".into())));
            fields.push(("scenario".into(), Json::Str("rate-limit-storm".into())));
        }
        if let Some(key) = journal_key {
            fields.push(("journal_key".into(), Json::Str(key.into())));
        }
        Json::Obj(fields).to_json()
    }
}

/// Dataset seeds of the daemon jobs. They are fixed, not drawn from the
/// run's seed: one small dataset's billing moves by several percent from
/// one generator seed to the next, which would hide a real change in the
/// billed tokens behind the spread between runs.
const JOB_DATA_SEEDS: [u64; 2] = [11, 12];

/// The small jobs of a run: every small dataset at scale 0.5 under each
/// job data seed, in an order (and so a tenant mapping) drawn from `seed`.
pub fn small_jobs(seed: u64) -> Vec<Job> {
    let mut jobs: Vec<Job> = JOB_DATA_SEEDS
        .iter()
        .flat_map(|&s| {
            SMALL_DATASETS.iter().map(move |&dataset| Job {
                dataset,
                scale: 0.5,
                seed: s,
                heavy: false,
            })
        })
        .collect();
    Rng::seed_from_u64(seed ^ 0x5e7e_0001).shuffle(&mut jobs);
    jobs
}

/// The heavy job of `serve-mixed`.
pub fn heavy_job() -> Job {
    Job {
        dataset: "Hospital",
        scale: 0.2,
        seed: JOB_DATA_SEEDS[0],
        heavy: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_bytes() {
        assert_eq!(detect_inputs(7, 300), detect_inputs(7, 300));
        let lines = |seed| -> Vec<String> {
            small_jobs(seed)
                .iter()
                .map(|j| j.line("acme", None))
                .collect()
        };
        assert_eq!(lines(7), lines(7));
    }

    #[test]
    fn another_seed_gives_other_bytes() {
        assert_ne!(detect_inputs(7, 300).csv, detect_inputs(8, 300).csv);
        let (a, b) = (small_jobs(7), small_jobs(8));
        assert_ne!(a, b, "the job order follows the seed");
        let keys = |jobs: &[Job]| -> BTreeSet<String> { jobs.iter().map(Job::key).collect() };
        assert_eq!(keys(&a), keys(&b), "over the same job set");
    }

    #[test]
    fn detect_inputs_inject_both_error_kinds_into_unique_rows() {
        let inputs = detect_inputs(11, 2000);
        let lines: Vec<&str> = inputs.csv.lines().skip(1).collect();
        assert_eq!(lines.len(), 2000);
        assert_eq!(inputs.cells, 8000);
        let unique: BTreeSet<&str> = lines.iter().copied().collect();
        assert_eq!(unique.len(), 2000);
        for attr in ["age", "city"] {
            let n = inputs.truth.iter().filter(|(_, a)| a == attr).count();
            assert!((20..=100).contains(&n), "{attr}: {n} injected errors");
        }
        assert!(inputs.one_row_csv.ends_with(&format!("{}\n", lines[0])));
    }
}
