//! `bench_report` — the bench-regression gate.
//!
//! Runs a pinned workload (the Table 3 batch-size sweep on Adult/ED at
//! smoke scale, seed 0xd472 — deliberately **not** read from the
//! environment, so the gate always measures the same thing), writes
//! `BENCH_report.json`, and with `--check BASELINE` fails the process when
//! the run regresses against a checked-in baseline:
//!
//! * any change in billed tokens (prompt or completion, per batch size) —
//!   the workload is deterministic, so a token drift means the prompt
//!   builder, batcher, or simulated model changed behaviour;
//! * any change in a batch size's F1 — flipping a "yes" to a "no" bills
//!   the same tokens, so only the scores see a changed decision;
//! * total virtual latency more than 20% above the baseline.
//!
//! ```text
//! cargo run --release -p dprep-bench --bin bench_report -- \
//!     --out BENCH_report.json --check BENCH_baseline.json
//! ```

use std::collections::BTreeMap;

use dprep_eval::experiments::{table3, ExperimentConfig};
use dprep_obs::Json;

/// Virtual-latency regressions beyond this fraction fail the gate.
const LATENCY_TOLERANCE: f64 = 0.20;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut out = "BENCH_report.json".to_string();
    let mut check: Option<String> = None;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => out = it.next().expect("--out needs a path").clone(),
            "--check" => check = Some(it.next().expect("--check needs a path").clone()),
            other => {
                eprintln!("unknown argument {other:?} (expected --out FILE / --check FILE)");
                std::process::exit(2);
            }
        }
    }

    let cfg = ExperimentConfig::smoke();
    eprintln!(
        "bench_report: Table 3 sweep at pinned scale {} seed {:#x}...",
        cfg.scale, cfg.seed
    );
    let table = table3::run(&cfg);
    let report = report_json(&cfg, &table);
    let rendered = report.to_json();
    if let Err(e) = std::fs::write(&out, format!("{rendered}\n")) {
        eprintln!("cannot write {out:?}: {e}");
        std::process::exit(2);
    }
    eprintln!("wrote {out}");
    print_component_table(&table);

    if let Some(baseline_path) = check {
        let baseline = match std::fs::read_to_string(&baseline_path)
            .map_err(|e| e.to_string())
            .and_then(|text| Json::parse(&text).map_err(|e| e.to_string()))
        {
            Ok(json) => json,
            Err(e) => {
                eprintln!("cannot load baseline {baseline_path:?}: {e}");
                std::process::exit(2);
            }
        };
        let problems = compare(&baseline, &report);
        if problems.is_empty() {
            eprintln!(
                "bench gate: OK (tokens and F1 identical, latency within {:.0}%)",
                100.0 * LATENCY_TOLERANCE
            );
        } else {
            for p in &problems {
                eprintln!("bench regression: {p}");
            }
            std::process::exit(1);
        }
    }
}

/// Serializes the sweep into the report schema the gate compares.
fn report_json(cfg: &ExperimentConfig, table: &table3::Table3) -> Json {
    let rows = table
        .rows
        .iter()
        .map(|r| {
            Json::Obj(vec![
                ("batch_size".into(), Json::Num(r.batch_size as f64)),
                (
                    "prompt_tokens".into(),
                    Json::Num(r.metrics.prompt_tokens as f64),
                ),
                (
                    "completion_tokens".into(),
                    Json::Num(r.metrics.completion_tokens as f64),
                ),
                ("cost_usd".into(), Json::Num(r.cost_usd)),
                ("virtual_hours".into(), Json::Num(r.hours)),
                ("f1".into(), r.f1.map(Json::Num).unwrap_or(Json::Null)),
            ])
        })
        .collect();
    let mut components: BTreeMap<&'static str, usize> = BTreeMap::new();
    for row in &table.rows {
        for (component, n) in &row.metrics.component_tokens {
            *components.entry(component).or_insert(0) += n;
        }
    }
    Json::Obj(vec![
        ("bench_report".into(), Json::Num(1.0)),
        ("scale".into(), Json::Num(cfg.scale)),
        ("seed".into(), Json::Num(cfg.seed as f64)),
        (
            "total_virtual_hours".into(),
            Json::Num(table.rows.iter().map(|r| r.hours).sum()),
        ),
        (
            "component_tokens".into(),
            Json::Obj(
                components
                    .iter()
                    .map(|(k, v)| ((*k).to_string(), Json::Num(*v as f64)))
                    .collect(),
            ),
        ),
        ("rows".into(), Json::Arr(rows)),
    ])
}

/// The table-3 component cost table: where every billed prompt token of
/// the sweep went, summed over all five batch sizes.
fn print_component_table(table: &table3::Table3) {
    let mut components: BTreeMap<&'static str, usize> = BTreeMap::new();
    for row in &table.rows {
        for (component, n) in &row.metrics.component_tokens {
            *components.entry(component).or_insert(0) += n;
        }
    }
    let total: usize = components.values().sum();
    if total == 0 {
        return;
    }
    eprintln!("component cost, summed over the sweep:");
    for (component, n) in &components {
        eprintln!(
            "  {component:<14} {n:>9} tokens ({:.1}%)",
            100.0 * *n as f64 / total as f64
        );
    }
}

/// Compares a baseline report against the current one; returns every
/// violated gate condition (empty = pass).
fn compare(baseline: &Json, current: &Json) -> Vec<String> {
    let mut problems = Vec::new();
    // Per batch size: (batch, prompt tokens, completion tokens, F1).
    type Pinned = Vec<(usize, usize, usize, Option<f64>)>;
    let pinned = |report: &Json| -> Option<Pinned> {
        report
            .get("rows")?
            .as_arr()?
            .iter()
            .map(|row| {
                Some((
                    row.get("batch_size")?.as_usize()?,
                    row.get("prompt_tokens")?.as_usize()?,
                    row.get("completion_tokens")?.as_usize()?,
                    row.get("f1")?.as_f64(),
                ))
            })
            .collect()
    };
    match (pinned(baseline), pinned(current)) {
        (Some(before), Some(after)) if before == after => {}
        (Some(before), Some(after)) => {
            for ((b_batch, b_p, b_c, b_f1), (a_batch, a_p, a_c, a_f1)) in before.iter().zip(&after)
            {
                if (b_batch, b_p, b_c) != (a_batch, a_p, a_c) {
                    problems.push(format!(
                        "billed tokens changed at batch {b_batch}: \
                         {b_p}+{b_c} -> {a_p}+{a_c} (prompt+completion)"
                    ));
                }
                if b_f1 != a_f1 {
                    problems.push(format!(
                        "F1 changed at batch {b_batch}: {b_f1:?} -> {a_f1:?}"
                    ));
                }
            }
            if before.len() != after.len() {
                problems.push(format!(
                    "row count changed: {} -> {}",
                    before.len(),
                    after.len()
                ));
            }
        }
        _ => problems.push("baseline or report is missing the rows array".into()),
    }
    match (
        baseline.get("total_virtual_hours").and_then(Json::as_f64),
        current.get("total_virtual_hours").and_then(Json::as_f64),
    ) {
        (Some(before), Some(after)) if before > 0.0 => {
            let ratio = after / before;
            if ratio > 1.0 + LATENCY_TOLERANCE {
                problems.push(format!(
                    "virtual latency regressed {:.1}%: {before:.4}h -> {after:.4}h",
                    100.0 * (ratio - 1.0)
                ));
            }
        }
        (Some(_), Some(_)) => {}
        _ => problems.push("baseline or report is missing total_virtual_hours".into()),
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A report with one row per `(batch, prompt, completion, F1)`.
    fn report(rows: &[(usize, usize, usize, f64)]) -> Json {
        let rows: Vec<String> = rows
            .iter()
            .map(|(batch, prompt, completion, f1)| {
                format!(
                    r#"{{"batch_size":{batch},"prompt_tokens":{prompt},"completion_tokens":{completion},"f1":{f1}}}"#
                )
            })
            .collect();
        let text = format!(
            r#"{{"rows":[{}],"total_virtual_hours":1.0}}"#,
            rows.join(",")
        );
        Json::parse(&text).expect("report")
    }

    #[test]
    fn the_gate_pins_each_rows_batch_size_tokens_and_f1() {
        let baseline = report(&[(1, 100, 10, 0.5), (5, 80, 10, 0.75)]);
        assert!(compare(&baseline, &baseline).is_empty());
        for changed in [
            report(&[(1, 100, 10, 0.5), (6, 80, 10, 0.75)]),
            report(&[(1, 100, 11, 0.5), (5, 80, 10, 0.75)]),
            report(&[(1, 100, 10, 0.5), (5, 80, 10, 0.750000001)]),
        ] {
            assert_eq!(compare(&baseline, &changed).len(), 1, "{changed:?}");
        }
    }
}
