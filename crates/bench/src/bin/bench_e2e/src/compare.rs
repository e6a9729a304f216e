//! `--compare BASE NEW`: the verdict on every (workload, end-to-end metric)
//! between two sets of runs saved with `--out`.

use std::collections::BTreeMap;
use std::path::Path;

use dprep_obs::Json;

use crate::defs::{Workload, END_TO_END};
use crate::stats::{median, quartiles, verdict, Verdict};

/// Untraced runs of a file: (workload, metric) -> [(seed, value)].
type Runs = BTreeMap<(String, String), Vec<(u64, f64)>>;

fn load(path: &Path) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut runs = Runs::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let run = Json::parse(line).map_err(|e| format!("{}:{}: {e}", path.display(), n + 1))?;
        if run.get("trace") != Some(&Json::Bool(false)) {
            continue;
        }
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .unwrap_or_default();
        let seed = run.get("seed").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        let Some(Json::Obj(metrics)) = run.get("metrics") else {
            continue;
        };
        for (name, metric) in metrics {
            if let Some(value) = metric.get("value").and_then(Json::as_f64) {
                runs.entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push((seed, value));
            }
        }
    }
    Ok(runs)
}

/// Four significant digits.
fn sig(x: f64) -> String {
    let digits = if x == 0.0 || !x.is_finite() {
        0
    } else {
        (3 - x.abs().log10().floor() as i32).clamp(0, 8) as usize
    };
    format!("{x:.digits$}")
}

/// Prints the comparison table; returns whether any metric regressed.
/// Pair runs by seed and alternate which side runs first: two sets taken
/// minutes apart differ by the host's drift alone.
pub fn compare(base_path: &Path, new_path: &Path) -> Result<bool, String> {
    let (base, new) = (load(base_path)?, load(new_path)?);
    println!(
        "{:<15} {:<17} {:>28} {:>28} {:>8}  verdict",
        "workload", "metric", "base median [q1, q3] n", "new median [q1, q3] n", "new/base"
    );
    let summary = |values: &[f64]| match (median(values), quartiles(values)) {
        (Some(m), Some((q1, q3))) => {
            format!("{} [{}, {}] {}", sig(m), sig(q1), sig(q3), values.len())
        }
        _ => "-".to_string(),
    };
    let mut regressed = false;
    for workload in Workload::ALL {
        for metric in END_TO_END {
            let key = (workload.name().to_string(), metric.name.to_string());
            let (Some(b), Some(n)) = (base.get(&key), new.get(&key)) else {
                continue;
            };
            let b_values: Vec<f64> = b.iter().map(|r| r.1).collect();
            let n_values: Vec<f64> = n.iter().map(|r| r.1).collect();
            let pairs: Vec<(f64, f64)> = b
                .iter()
                .filter_map(|(seed, bv)| {
                    n.iter().find(|(s, _)| s == seed).map(|(_, nv)| (*bv, *nv))
                })
                .collect();
            let v = verdict(metric, &b_values, &n_values, &pairs);
            regressed |= v == Verdict::Regressed;
            let ratio = match (median(&n_values), median(&b_values)) {
                (Some(n), Some(b)) if b != 0.0 => n / b,
                _ => f64::NAN,
            };
            println!(
                "{:<15} {:<17} {:>28} {:>28} {:>8.3}  {} ({} is better, bound {}%)",
                workload.name(),
                metric.name,
                summary(&b_values),
                summary(&n_values),
                ratio,
                v.label(),
                metric.better.label(),
                metric.bound * 100.0,
            );
        }
    }
    Ok(regressed)
}
