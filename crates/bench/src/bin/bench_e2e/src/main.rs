//! `bench_e2e` — the end-to-end and per-layer benchmark of `dprep`.
//!
//! ```text
//! bench_e2e [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
//!           [--out FILE]
//! bench_e2e --compare BASE.jsonl NEW.jsonl
//! ```
//!
//! `--trace 0` drives the release `dprep` binary from outside and reports
//! every end-to-end metric; `--trace 1` re-runs the workload in-process
//! behind timing shims and reports every per-layer metric. Each run prints
//! one line per metric, then, as its last line, the JSON result. `--out`
//! appends each run's result to a JSON-lines file that `--compare` reads.
//! See README.md for the workloads, the metrics, and how to claim a gain.

mod calib;
mod compare;
mod defs;
mod drive;
mod gen;
mod mirror;
mod proc;
mod stats;

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

use dprep_obs::Json;

use defs::{Workload, END_TO_END, PER_LAYER};
use drive::{Ctx, Outcome};

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: 25.0,
        trace: false,
        out: None,
        compare: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workloads = if name == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::by_name(&name)
                        .ok_or_else(|| format!("unknown workload {name:?}"))?]
                };
            }
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed expects an integer")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds expects a number")?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got {other:?}")),
                }
            }
            "--out" => args.out = Some(value()?.into()),
            "--compare" => args.compare = Some((value()?.into(), value()?.into())),
            other => return Err(format!("unknown argument {other:?} (see README.md)")),
        }
    }
    Ok(args)
}

/// Cargo's target directory, where the `dprep` binary is built and where
/// runs keep their scratch files.
fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs what the arguments ask for; `Ok(false)` when a check failed.
fn run() -> Result<bool, String> {
    let args = parse_args()?;
    if let Some((base, new)) = &args.compare {
        return compare::compare(base, new).map(|regressed| !regressed);
    }
    let dprep = target_dir().join("release").join("dprep");
    if !dprep.is_file() {
        return Err(format!(
            "no dprep binary at {}; build it with `cargo build --release -p dprep-cli` \
             (run.sh does)",
            dprep.display()
        ));
    }
    let mut all_correct = true;
    for &workload in &args.workloads {
        let scratch = target_dir().join("bench_e2e").join(format!(
            "{}-{}",
            workload.name(),
            std::process::id()
        ));
        std::fs::create_dir_all(&scratch)
            .map_err(|e| format!("cannot create {}: {e}", scratch.display()))?;
        let ctx = Ctx {
            dprep: dprep.clone(),
            scratch: scratch.clone(),
            seed: args.seed,
            seconds: args.seconds,
        };
        let outcome = if args.trace {
            mirror::run(workload, &ctx)
        } else {
            drive::run(workload, &ctx)
        };
        let _ = std::fs::remove_dir_all(&scratch);
        all_correct &= report(workload, &outcome?, &args)?;
    }
    Ok(all_correct)
}

/// Prints a run's metric lines and its JSON result line, and appends the
/// result to `--out`. Returns whether every check held.
fn report(workload: Workload, outcome: &Outcome, args: &Args) -> Result<bool, String> {
    // (name, unit, what the line says about the metric)
    let names: Vec<(&str, &str, String)> = if args.trace {
        PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name,
                    m.unit,
                    format!("{} is better; moves {}", m.better.label(), m.moves),
                )
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| {
                let note = format!("{} is better, bound {}%", m.better.label(), m.bound * 100.0);
                (m.name, m.unit, note)
            })
            .collect()
    };
    let value_of = |name: &str| {
        outcome
            .metrics
            .iter()
            .find(|m| m.0 == name)
            .map(|m| (m.1, m.2))
    };
    println!(
        "# {} (seed {}): {}",
        workload.name(),
        args.seed,
        workload.why()
    );
    for (name, unit, note) in &names {
        let (value, samples) = value_of(name).unwrap_or((f64::NAN, 0));
        println!(
            "{:<15} {name:<28} {value:>16.6} {unit:<6} n={samples:<5} {note}",
            workload.name()
        );
    }
    for (name, value, unit, samples) in &outcome.extras {
        println!(
            "{:<15} {name:<28} {value:>16.6} {unit:<6} n={samples} (not gated)",
            workload.name()
        );
    }
    for problem in &outcome.problems {
        eprintln!("bench_e2e: {}: {problem}", workload.name());
    }
    let complete = names
        .iter()
        .all(|(name, _, _)| value_of(name).is_some_and(|(v, _)| v.is_finite()));
    let correct = complete && outcome.failed == 0 && outcome.problems.is_empty();
    let entry = |value: f64, unit: &str, samples: Option<usize>| {
        let mut fields = vec![
            ("value".to_string(), Json::Num(value)),
            ("unit".to_string(), Json::Str(unit.to_string())),
        ];
        if let Some(n) = samples {
            fields.push(("samples".to_string(), Json::Num(n as f64)));
        }
        Json::Obj(fields)
    };
    let metrics = |samples: bool| {
        Json::Obj(
            names
                .iter()
                .map(|(name, unit, _)| {
                    let (value, n) = value_of(name).unwrap_or((f64::NAN, 0));
                    (name.to_string(), entry(value, unit, samples.then_some(n)))
                })
                .collect(),
        )
    };
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        (
            "attempted".into(),
            Json::Num(outcome.attempted.max(1) as f64),
        ),
        ("failed".into(), Json::Num(outcome.failed as f64)),
        ("metrics".into(), metrics(false)),
    ]);
    if let Some(path) = &args.out {
        let saved = Json::Obj(vec![
            ("workload".into(), Json::Str(workload.name().into())),
            ("seed".into(), Json::Num(args.seed as f64)),
            ("seconds".into(), Json::Num(args.seconds)),
            ("trace".into(), Json::Bool(args.trace)),
            ("correct".into(), Json::Bool(correct)),
            ("attempted".into(), Json::Num(outcome.attempted as f64)),
            ("failed".into(), Json::Num(outcome.failed as f64)),
            ("metrics".into(), metrics(true)),
            (
                "extras".into(),
                Json::Obj(
                    outcome
                        .extras
                        .iter()
                        .map(|(name, value, unit, n)| {
                            (name.to_string(), entry(*value, unit, Some(*n)))
                        })
                        .collect(),
                ),
            ),
            (
                "problems".into(),
                Json::Arr(
                    outcome
                        .problems
                        .iter()
                        .map(|p| Json::Str(p.clone()))
                        .collect(),
                ),
            ),
        ]);
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("cannot open {}: {e}", path.display()))?;
        writeln!(file, "{}", saved.to_json())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    println!("{}", result.to_json());
    Ok(correct)
}
