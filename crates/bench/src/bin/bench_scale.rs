//! `bench_scale` — the million-row planner scaling bench.
//!
//! Sweeps a synthetic error-detection workload over row counts, running
//! the pipeline once with the plan materialized up front and once under
//! the streaming planner, and reports rows/sec and peak RSS for each run.
//! Every measurement executes in its **own child process** (the bin
//! re-execs itself with `--single`), so each run's `VmHWM` is its own
//! peak and a big materialized run cannot pollute a streaming run's
//! high-water mark.
//!
//! Both modes fold the same checksum over their predictions; the sweep
//! fails if they ever disagree, so the scaling numbers are only reported
//! for runs proven result-identical.
//!
//! ```text
//! cargo run --release -p dprep-bench --bin bench_scale -- \
//!     --rows 100000,250000,500000,1000000 --shard-size 64 \
//!     --mode both --out BENCH_scale.json
//! ```
//!
//! Gates (for CI smoke use): `--max-rss-mb M` fails the process when any
//! run's peak RSS exceeds M — streaming or materialized, since the
//! materialized run is the one-shard plan every CLI run uses by default —
//! and `--min-rows-per-sec R` fails it when any run throughputs below R.

use std::sync::Arc;
use std::time::Instant;

use dprep_core::{PipelineConfig, Preprocessor};
use dprep_llm::{ChatModel, KnowledgeBase, ModelProfile, SimulatedLlm};
use dprep_obs::Json;
use dprep_prompt::{Task, TaskInstance};
use dprep_tabular::{Record, Schema, Value};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut rows_spec = "100000,250000,500000,1000000".to_string();
    let mut shard_size = 64usize;
    let mut mode = "both".to_string();
    let mut out: Option<String> = None;
    let mut max_rss_mb: Option<f64> = None;
    let mut min_rows_per_sec: Option<f64> = None;
    let mut seed = 0xd472u64;
    let mut single = false;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .unwrap_or_else(|| die(&format!("{what} needs a value")))
                .clone()
        };
        match arg.as_str() {
            "--rows" => rows_spec = value("--rows"),
            "--shard-size" => shard_size = parse_num(&value("--shard-size"), "--shard-size"),
            "--mode" => mode = value("--mode"),
            "--out" => out = Some(value("--out")),
            "--max-rss-mb" => max_rss_mb = Some(parse_f64(&value("--max-rss-mb"), "--max-rss-mb")),
            "--min-rows-per-sec" => {
                min_rows_per_sec = Some(parse_f64(&value("--min-rows-per-sec"), "--min-rows-per-sec"))
            }
            "--seed" => seed = parse_num(&value("--seed"), "--seed") as u64,
            "--single" => single = true,
            other => die(&format!(
                "unknown argument {other:?} (expected --rows/--shard-size/--mode/--out/--max-rss-mb/--min-rows-per-sec/--seed)"
            )),
        }
    }
    if shard_size == 0 {
        die("--shard-size must be at least 1");
    }
    let rows: Vec<usize> = rows_spec
        .split(',')
        .map(|s| parse_num(s.trim(), "--rows"))
        .collect();
    let modes: Vec<&str> = match mode.as_str() {
        "both" => vec!["stream", "materialized"],
        "stream" | "materialized" => vec![mode.as_str()],
        other => die(&format!(
            "unknown mode {other:?} (stream|materialized|both)"
        )),
    };

    if single {
        // Child: one measurement, one JSON line on stdout.
        let n = *rows
            .first()
            .unwrap_or_else(|| die("--single needs --rows N"));
        let run = measure(n, modes[0], shard_size, seed);
        println!("{}", run.to_json());
        return;
    }

    // Parent: one child process per (rows, mode) pair.
    let exe =
        std::env::current_exe().unwrap_or_else(|e| die(&format!("cannot find own binary: {e}")));
    let mut runs: Vec<Json> = Vec::new();
    for &n in &rows {
        for m in &modes {
            eprintln!("bench_scale: {n} rows, {m} plan (shard {shard_size})...");
            let output = std::process::Command::new(&exe)
                .args([
                    "--single",
                    "--rows",
                    &n.to_string(),
                    "--mode",
                    m,
                    "--shard-size",
                    &shard_size.to_string(),
                    "--seed",
                    &seed.to_string(),
                ])
                .output()
                .unwrap_or_else(|e| die(&format!("cannot spawn child run: {e}")));
            if !output.status.success() {
                eprint!("{}", String::from_utf8_lossy(&output.stderr));
                die(&format!("child run ({n} rows, {m}) failed"));
            }
            let text = String::from_utf8_lossy(&output.stdout);
            let run = Json::parse(text.trim())
                .unwrap_or_else(|e| die(&format!("child run emitted bad JSON: {e}")));
            runs.push(run);
        }
    }

    // Result identity across modes, per row count.
    let field = |run: &Json, key: &str| run.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
    let mut problems: Vec<String> = Vec::new();
    for &n in &rows {
        let checksums: Vec<f64> = runs
            .iter()
            .filter(|r| field(r, "rows") == n as f64)
            .map(|r| field(r, "checksum"))
            .collect();
        if checksums.windows(2).any(|w| w[0] != w[1]) {
            problems.push(format!(
                "{n} rows: stream and materialized predictions diverge"
            ));
        }
    }

    println!(
        "{:<9} {:>13} {:>9} {:>11} {:>12} {:>11}",
        "rows", "mode", "shard", "rows/sec", "peak RSS MB", "requests"
    );
    for run in &runs {
        println!(
            "{:<9} {:>13} {:>9} {:>11.0} {:>12.1} {:>11}",
            field(run, "rows"),
            run.get("mode").and_then(Json::as_str).unwrap_or("?"),
            field(run, "shard_size"),
            field(run, "rows_per_sec"),
            field(run, "peak_rss_mb"),
            field(run, "requests"),
        );
    }

    // Gates.
    for run in &runs {
        let m = run.get("mode").and_then(Json::as_str).unwrap_or("?");
        let n = field(run, "rows");
        if let Some(ceiling) = max_rss_mb {
            if field(run, "peak_rss_mb") > ceiling {
                problems.push(format!(
                    "{n} rows ({m}): peak RSS {:.1} MB exceeds the {ceiling:.1} MB ceiling",
                    field(run, "peak_rss_mb")
                ));
            }
        }
        if let Some(floor) = min_rows_per_sec {
            if field(run, "rows_per_sec") < floor {
                problems.push(format!(
                    "{n} rows ({m}): {:.0} rows/sec below the {floor:.0} floor",
                    field(run, "rows_per_sec")
                ));
            }
        }
    }

    let report = Json::Obj(vec![
        ("bench_scale".into(), Json::Num(1.0)),
        ("seed".into(), Json::Num(seed as f64)),
        ("shard_size".into(), Json::Num(shard_size as f64)),
        ("runs".into(), Json::Arr(runs)),
    ]);
    if let Some(path) = out {
        let mut rendered = report.to_json();
        rendered.push('\n');
        if let Err(e) = std::fs::write(&path, rendered) {
            die(&format!("cannot write {path:?}: {e}"));
        }
        eprintln!("wrote {path}");
    }
    if problems.is_empty() {
        eprintln!("bench_scale: OK");
    } else {
        for p in &problems {
            eprintln!("bench_scale violation: {p}");
        }
        std::process::exit(1);
    }
}

/// One in-process measurement: builds `n` synthetic error-detection
/// instances, runs the pipeline under the requested plan mode, and
/// serializes throughput, peak RSS, billing, and a prediction checksum.
fn measure(n: usize, mode: &str, shard_size: usize, seed: u64) -> Json {
    let instances = synthetic_ed(n);
    let model =
        SimulatedLlm::new(ModelProfile::gpt4(), Arc::new(KnowledgeBase::new())).with_seed(seed);
    let mut config = PipelineConfig::best(Task::ErrorDetection);
    // The scaling story is planner memory, not prompt engineering: few-shot
    // and confirmation would only scale every prompt by a constant factor.
    config.components.few_shot = false;
    config.plan_shard_size = (mode == "stream").then_some(shard_size);
    let started = Instant::now();
    let result = Preprocessor::new(&model as &dyn ChatModel, config)
        .try_run(&instances, &[])
        .unwrap_or_else(|e| die(&format!("run failed: {e}")));
    let wall = started.elapsed().as_secs_f64();
    let checksum = result
        .predictions
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |acc, p| {
            let label = p
                .value()
                .map(str::to_string)
                .or_else(|| p.failure().map(|f| f.label().to_string()))
                .unwrap_or_default();
            label.bytes().fold(acc ^ 0x9e37_79b9, |a, b| {
                (a ^ b as u64).wrapping_mul(0x0100_0000_01b3)
            })
        });
    Json::Obj(vec![
        ("rows".into(), Json::Num(n as f64)),
        ("mode".into(), Json::Str(mode.into())),
        ("shard_size".into(), Json::Num(shard_size as f64)),
        ("wall_secs".into(), Json::Num(wall)),
        ("rows_per_sec".into(), Json::Num(n as f64 / wall.max(1e-9))),
        ("peak_rss_mb".into(), Json::Num(peak_rss_mb())),
        ("requests".into(), Json::Num(result.usage.requests as f64)),
        (
            "billed_tokens".into(),
            Json::Num(result.usage.total_tokens() as f64),
        ),
        // f64 holds the checksum exactly only up to 2^53, so fold it there.
        ("checksum".into(), Json::Num((checksum >> 11) as f64)),
    ])
}

/// `n` unique single-attribute error-detection instances over a small
/// synthetic schema. Values embed the row index, so no two whole-batch
/// prompts are identical and the planner's dedup map stays cold — the
/// worst (largest) case for plan memory.
fn synthetic_ed(n: usize) -> Vec<TaskInstance> {
    let schema = Schema::all_text(&["name", "age", "city"])
        .expect("static schema")
        .shared();
    let cities = ["atlanta", "boston", "chicago", "denver", "el paso"];
    (0..n)
        .map(|i| {
            let record = Record::new(
                schema.clone(),
                vec![
                    Value::text(format!("person {i}")),
                    Value::text(format!("{}", 18 + (i * 7) % 80)),
                    Value::text(cities[i % cities.len()]),
                ],
            )
            .expect("record matches schema");
            TaskInstance::ErrorDetection {
                record,
                attribute: "age".into(),
            }
        })
        .collect()
}

/// Peak resident set of this process in MB, from `/proc/self/status`
/// `VmHWM` (0.0 where unavailable).
fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: f64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0.0);
            return kb / 1024.0;
        }
    }
    0.0
}

fn parse_num(raw: &str, what: &str) -> usize {
    raw.parse()
        .unwrap_or_else(|_| die(&format!("{what} expects an integer, got {raw:?}")))
}

fn parse_f64(raw: &str, what: &str) -> f64 {
    raw.parse()
        .unwrap_or_else(|_| die(&format!("{what} expects a number, got {raw:?}")))
}

fn die(message: &str) -> ! {
    eprintln!("bench_scale: {message}");
    std::process::exit(2);
}
