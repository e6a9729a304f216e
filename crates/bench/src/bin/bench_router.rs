//! `bench_router` — the cascade cost/F1 frontier and its regression gate.
//!
//! Runs the Table 3 batch-size sweep on Adult/ED three ways — single
//! `sim-gpt-3.5`, single `sim-gpt-4`, and the cheap-first cascade
//! `sim-gpt-3.5 -> sim-gpt-4` — at a pinned scale and seed (deliberately
//! **not** read from the environment, so the gate always measures the same
//! thing). The sweep covers ~10k billed instances across the three arms,
//! writes `BENCH_router.json`, prints the cost/F1 frontier, and with
//! `--check BASELINE` fails the process when the run drifts from a
//! checked-in baseline:
//!
//! * any change in billed tokens (prompt or completion, per arm and batch
//!   size) — routing is settled deterministically in plan order, so a
//!   token drift means the escalation predicate, the fold, or a simulated
//!   model changed behaviour;
//! * any change in the cascade's escalation legs (the escalation rate is
//!   pinned exactly, not within a tolerance);
//! * any change in a row's F1 — flipping a "yes" to a "no" bills the same
//!   tokens, so only the scores see a changed decision;
//! * total virtual latency more than 20% above the baseline.
//!
//! ```text
//! cargo run --release -p dprep-bench --bin bench_router -- \
//!     --out BENCH_router.json --check BENCH_router_baseline.json
//! ```

use dprep_core::{ComponentSet, PipelineConfig};
use dprep_eval::experiments::table3::BATCH_SIZES;
use dprep_eval::harness::{run_cascade_on_dataset, run_llm_on_dataset, Scored};
use dprep_llm::ModelProfile;
use dprep_obs::Json;
use dprep_prompt::Task;

/// Virtual-latency regressions beyond this fraction fail the gate.
const LATENCY_TOLERANCE: f64 = 0.20;

/// Pinned dataset scale: 61 Adult rows x 11 attributes = 671 cell
/// instances per run, x 5 batch sizes x 3 arms ~= 10k billed instances.
const SCALE: f64 = 0.061;

/// Pinned seed, shared with `bench_report`'s smoke configuration.
const SEED: u64 = 0xd472;

/// The cascade under test, cheapest first.
const ROUTES: [&str; 2] = ["sim-gpt-3.5", "sim-gpt-4"];

/// One arm of the frontier: a model (or cascade) swept over batch sizes.
struct Arm {
    name: &'static str,
    rows: Vec<(usize, Scored)>,
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut out = "BENCH_router.json".to_string();
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

    let dataset = dprep_datasets::dataset_by_name("Adult", SCALE, SEED).expect("known dataset");
    eprintln!(
        "bench_router: Table 3 sweep x 3 arms on Adult/ED, {} instances each, \
         pinned scale {SCALE} seed {SEED:#x}...",
        dataset.len()
    );
    let arms = [
        sweep_single(ModelProfile::gpt35(), &dataset),
        sweep_single(ModelProfile::gpt4(), &dataset),
        sweep_cascade(&dataset),
    ];

    let report = report_json(&arms, dataset.len());
    let rendered = report.to_json();
    if let Err(e) = std::fs::write(&out, format!("{rendered}\n")) {
        eprintln!("cannot write {out:?}: {e}");
        std::process::exit(2);
    }
    eprintln!("wrote {out}");
    print_frontier(&arms);

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
                "router gate: OK (tokens, escalation legs and F1 identical, latency within {:.0}%)",
                100.0 * LATENCY_TOLERANCE
            );
        } else {
            for p in &problems {
                eprintln!("router regression: {p}");
            }
            std::process::exit(1);
        }
    }
}

/// The Table 3 pipeline configuration for one batch size.
fn sweep_config(batch_size: usize) -> PipelineConfig {
    let components = ComponentSet {
        few_shot: false,
        batching: batch_size > 1,
        reasoning: true,
    };
    let mut config = PipelineConfig::ablation(Task::ErrorDetection, components, batch_size);
    config.confirm_target = true;
    config
}

fn sweep_single(profile: ModelProfile, dataset: &dprep_datasets::Dataset) -> Arm {
    let name = match profile.name.as_str() {
        "sim-gpt-3.5" => "sim-gpt-3.5",
        _ => "sim-gpt-4",
    };
    let rows = BATCH_SIZES
        .iter()
        .map(|&b| {
            (
                b,
                run_llm_on_dataset(&profile, dataset, &sweep_config(b), SEED),
            )
        })
        .collect();
    Arm { name, rows }
}

fn sweep_cascade(dataset: &dprep_datasets::Dataset) -> Arm {
    let profiles: Vec<ModelProfile> = ROUTES
        .iter()
        .map(|name| ModelProfile::by_name(name).expect("known route model"))
        .collect();
    let rows = BATCH_SIZES
        .iter()
        .map(|&b| {
            let mut config = sweep_config(b);
            config.routes = ROUTES.iter().map(|s| s.to_string()).collect();
            (b, run_cascade_on_dataset(&profiles, dataset, &config, SEED))
        })
        .collect();
    Arm {
        name: "cascade",
        rows,
    }
}

/// Escalation legs of one run (0 for single-model arms).
fn escalated(scored: &Scored) -> usize {
    scored.metrics.routes.values().map(|r| r.escalated).sum()
}

fn total_cost(arm: &Arm) -> f64 {
    arm.rows.iter().map(|(_, s)| s.usage.cost_usd).sum()
}

fn total_hours(arm: &Arm) -> f64 {
    arm.rows.iter().map(|(_, s)| s.usage.hours()).sum()
}

fn mean_f1(arm: &Arm) -> Option<f64> {
    let f1s: Vec<f64> = arm.rows.iter().filter_map(|(_, s)| s.value).collect();
    (!f1s.is_empty()).then(|| f1s.iter().sum::<f64>() / f1s.len() as f64)
}

/// Serializes the three arms into the report schema the gate compares.
fn report_json(arms: &[Arm], instances: usize) -> Json {
    let arm_objs = arms
        .iter()
        .map(|arm| {
            let rows = arm
                .rows
                .iter()
                .map(|(batch_size, s)| {
                    Json::Obj(vec![
                        ("batch_size".into(), Json::Num(*batch_size as f64)),
                        (
                            "prompt_tokens".into(),
                            Json::Num(s.metrics.prompt_tokens as f64),
                        ),
                        (
                            "completion_tokens".into(),
                            Json::Num(s.metrics.completion_tokens as f64),
                        ),
                        ("cost_usd".into(), Json::Num(s.usage.cost_usd)),
                        ("virtual_hours".into(), Json::Num(s.usage.hours())),
                        ("f1".into(), s.value.map(Json::Num).unwrap_or(Json::Null)),
                        ("escalated".into(), Json::Num(escalated(s) as f64)),
                    ])
                })
                .collect();
            let requests: usize = arm.rows.iter().map(|(_, s)| s.metrics.fresh_requests).sum();
            let legs: usize = arm.rows.iter().map(|(_, s)| escalated(s)).sum();
            Json::Obj(vec![
                ("arm".into(), Json::Str(arm.name.to_string())),
                ("total_cost_usd".into(), Json::Num(total_cost(arm))),
                (
                    "mean_f1".into(),
                    mean_f1(arm).map(Json::Num).unwrap_or(Json::Null),
                ),
                ("requests".into(), Json::Num(requests as f64)),
                ("escalated".into(), Json::Num(legs as f64)),
                (
                    "escalation_rate".into(),
                    Json::Num(if requests > 0 {
                        legs as f64 / requests as f64
                    } else {
                        0.0
                    }),
                ),
                ("rows".into(), Json::Arr(rows)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("bench_router".into(), Json::Num(1.0)),
        ("scale".into(), Json::Num(SCALE)),
        ("seed".into(), Json::Num(SEED as f64)),
        ("instances_per_run".into(), Json::Num(instances as f64)),
        ("routes".into(), Json::Str(ROUTES.join("->"))),
        (
            "total_virtual_hours".into(),
            Json::Num(arms.iter().map(total_hours).sum()),
        ),
        ("arms".into(), Json::Arr(arm_objs)),
    ])
}

/// The frontier: each arm's total sweep cost against its mean F1. The
/// cascade should land between the two single-model arms on cost while
/// holding F1 near the escalation model's.
fn print_frontier(arms: &[Arm]) {
    eprintln!("cost/F1 frontier (Adult/ED, batch sizes {BATCH_SIZES:?}):");
    eprintln!(
        "  {:<13} {:>9} {:>9} {:>9} {:>11}",
        "arm", "cost $", "mean F1", "hours", "escalation"
    );
    for arm in arms {
        let legs: usize = arm.rows.iter().map(|(_, s)| escalated(s)).sum();
        let requests: usize = arm.rows.iter().map(|(_, s)| s.metrics.fresh_requests).sum();
        let escalation = if arm.name == "cascade" {
            format!("{:.1}%", 100.0 * legs as f64 / requests.max(1) as f64)
        } else {
            "-".to_string()
        };
        eprintln!(
            "  {:<13} {:>9.4} {:>9} {:>9.3} {:>11}",
            arm.name,
            total_cost(arm),
            mean_f1(arm)
                .map(|v| format!("{v:.1}"))
                .unwrap_or_else(|| "N/A".into()),
            total_hours(arm),
            escalation,
        );
    }
}

/// Compares a baseline report against the current one; returns every
/// violated gate condition (empty = pass).
fn compare(baseline: &Json, current: &Json) -> Vec<String> {
    let mut problems = Vec::new();
    // (arm, batch, prompt, completion, escalated, F1) per row.
    type Pinned = Vec<(String, usize, usize, usize, usize, Option<f64>)>;
    let pinned = |report: &Json| -> Option<Pinned> {
        let mut out = Vec::new();
        for arm in report.get("arms")?.as_arr()? {
            let name = arm.get("arm")?.as_str()?.to_string();
            for row in arm.get("rows")?.as_arr()? {
                out.push((
                    name.clone(),
                    row.get("batch_size")?.as_usize()?,
                    row.get("prompt_tokens")?.as_usize()?,
                    row.get("completion_tokens")?.as_usize()?,
                    row.get("escalated")?.as_usize()?,
                    row.get("f1")?.as_f64(),
                ));
            }
        }
        Some(out)
    };
    match (pinned(baseline), pinned(current)) {
        (Some(before), Some(after)) if before == after => {}
        (Some(before), Some(after)) => {
            for (b, a) in before.iter().zip(&after) {
                if b != a {
                    let (arm, batch, b_p, b_c, b_e, b_f1) = b;
                    let (_, _, a_p, a_c, a_e, a_f1) = a;
                    problems.push(format!(
                        "{arm} drifted at batch {batch}: tokens {b_p}+{b_c} -> {a_p}+{a_c}, \
                         escalated {b_e} -> {a_e}, F1 {b_f1:?} -> {a_f1:?}"
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
        _ => problems.push("baseline or report is missing the arms array".into()),
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

    /// A report with one arm whose rows are `(batch, prompt, completion,
    /// escalated, F1)`.
    fn report(rows: &[(usize, usize, usize, usize, f64)]) -> Json {
        let rows: Vec<String> = rows
            .iter()
            .map(|(batch, prompt, completion, escalated, f1)| {
                format!(
                    r#"{{"batch_size":{batch},"prompt_tokens":{prompt},"completion_tokens":{completion},"escalated":{escalated},"f1":{f1}}}"#
                )
            })
            .collect();
        let text = format!(
            r#"{{"arms":[{{"arm":"cascade","rows":[{}]}}],"total_virtual_hours":1.0}}"#,
            rows.join(",")
        );
        Json::parse(&text).expect("report")
    }

    #[test]
    fn the_gate_pins_each_rows_tokens_escalations_and_f1() {
        let baseline = report(&[(1, 100, 10, 3, 0.5), (5, 80, 10, 2, 0.75)]);
        assert!(compare(&baseline, &baseline).is_empty());
        for changed in [
            report(&[(1, 100, 10, 3, 0.5), (6, 80, 10, 2, 0.75)]),
            report(&[(1, 100, 11, 3, 0.5), (5, 80, 10, 2, 0.75)]),
            report(&[(1, 100, 10, 4, 0.5), (5, 80, 10, 2, 0.75)]),
            report(&[(1, 100, 10, 3, 0.5), (5, 80, 10, 2, 0.750000001)]),
        ] {
            assert_eq!(compare(&baseline, &changed).len(), 1, "{changed:?}");
        }
    }
}
