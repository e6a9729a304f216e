//! Order statistics and the regression verdict.

use crate::defs::{Better, Metric};

/// Nearest-rank percentile: the smallest sample with at least `p`% of the
/// samples at or below it. `None` for an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // Shaves the float error off exact products such as 99.9% of 10000.
    let exact = p / 100.0 * n as f64;
    ((exact - exact * 1e-12).ceil() as usize).clamp(1, n)
}

/// The highest of the usual reporting percentiles that still has at least
/// ten samples beyond it, so the value is not set by one or two outliers.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|&p| n >= 10 && n - rank(n, p) >= 10)
}

/// The median (mean of the middle two for an even count).
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// First and third quartiles as Python's `statistics.quantiles(values,
/// n=4)` computes them (the "exclusive" method), so spreads read the same
/// here as in any script that checks them.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let mut data = samples.to_vec();
    data.sort_by(f64::total_cmp);
    let len = data.len();
    match len {
        0 => None,
        1 => Some((data[0], data[0])),
        _ => {
            let at = |i: usize| {
                let m = len + 1;
                let j = (i * m / 4).clamp(1, len - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
            };
            Some((at(1), at(3)))
        }
    }
}

/// Inter-quartile distance as a share of the median.
pub fn relative_spread(samples: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(samples)?;
    let med = median(samples)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// What a comparison of a change against its base concludes for one
/// metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    WithinBound,
    Regressed,
    /// The runs spread wider than the bound: no conclusion either way.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::WithinBound => "within bound",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

fn is_better(better: Better, candidate: f64, reference: f64) -> bool {
    match better {
        Better::Lower => candidate < reference,
        Better::Higher => candidate > reference,
    }
}

/// The verdict for `metric` given the base and the changed runs.
///
/// `pairs` holds (base, new) values of runs on the same seed; when empty,
/// every base run is paired with every new run. A gain needs the change to
/// win at least nine tenths of the pairs (ties count for neither side) and
/// the medians to differ by more than the base runs' inter-quartile
/// distance. A regression is a median worse by more than the bound. When
/// either side's runs spread wider than the bound the metric is
/// unresolved, unless every new run beats every base run.
pub fn verdict(metric: &Metric, base: &[f64], new: &[f64], pairs: &[(f64, f64)]) -> Verdict {
    let (Some(med_b), Some(med_n), Some((q1_b, q3_b))) =
        (median(base), median(new), quartiles(base))
    else {
        return Verdict::Unresolved;
    };
    if med_b == 0.0 {
        return Verdict::Unresolved;
    }
    let all_better = new
        .iter()
        .all(|&n| base.iter().all(|&b| is_better(metric.better, n, b)));
    let spread = relative_spread(base)
        .unwrap_or(0.0)
        .max(relative_spread(new).unwrap_or(0.0));
    if spread > metric.bound {
        return if all_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
    }
    let worse = match metric.better {
        Better::Lower => (med_n - med_b) / med_b.abs(),
        Better::Higher => (med_b - med_n) / med_b.abs(),
    };
    if worse > metric.bound {
        return Verdict::Regressed;
    }
    let cross: Vec<(f64, f64)>;
    let pairs = if pairs.is_empty() {
        cross = base
            .iter()
            .flat_map(|&b| new.iter().map(move |&n| (b, n)))
            .collect();
        &cross
    } else {
        pairs
    };
    let wins = pairs
        .iter()
        .filter(|(b, n)| is_better(metric.better, *n, *b))
        .count();
    let won = !pairs.is_empty() && wins as f64 >= 0.9 * pairs.len() as f64;
    if won && (med_n - med_b).abs() > q3_b - q1_b && is_better(metric.better, med_n, med_b) {
        Verdict::Improved
    } else {
        Verdict::WithinBound
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), Some(50.0));
        assert_eq!(percentile(&samples, 95.0), Some(95.0));
        assert_eq!(percentile(&samples, 99.0), Some(99.0));
        assert_eq!(percentile(&samples, 100.0), Some(100.0));
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), Some(2.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(199), Some(90.0));
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(0), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let samples: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&samples), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    fn lower(bound: f64) -> Metric {
        Metric {
            name: "job_p50_ms",
            unit: "ms",
            better: Better::Lower,
            bound,
        }
    }

    #[test]
    fn verdict_reads_bounds_and_spread() {
        let base = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9,
        ];
        let same: Vec<f64> = base.iter().map(|v| v + 0.05).collect();
        assert_eq!(
            verdict(&lower(0.1), &base, &same, &[]),
            Verdict::WithinBound
        );

        let slower: Vec<f64> = base.iter().map(|v| v * 1.15).collect();
        assert_eq!(
            verdict(&lower(0.1), &base, &slower, &[]),
            Verdict::Regressed
        );

        let faster: Vec<f64> = base.iter().map(|v| v * 0.8).collect();
        assert_eq!(verdict(&lower(0.1), &base, &faster, &[]), Verdict::Improved);

        // A higher-is-better metric reads the same runs the other way.
        let throughput = Metric {
            better: Better::Higher,
            ..lower(0.1)
        };
        assert_eq!(
            verdict(&throughput, &base, &faster, &[]),
            Verdict::Regressed
        );
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let base = [
            80.0, 120.0, 90.0, 110.0, 100.0, 70.0, 130.0, 95.0, 105.0, 100.0,
        ];
        let new: Vec<f64> = base.iter().map(|v| v * 1.02).collect();
        assert_eq!(verdict(&lower(0.1), &base, &new, &[]), Verdict::Unresolved);
        // ...unless every new run beats every base run.
        let far: Vec<f64> = base.iter().map(|v| v * 0.3).collect();
        assert_eq!(verdict(&lower(0.1), &base, &far, &[]), Verdict::Improved);
    }

    #[test]
    fn a_gain_needs_nine_tenths_of_the_pairs() {
        let base = [100.0; 10];
        let new = [90.0, 90.0, 90.0, 90.0, 90.0, 90.0, 90.0, 90.0, 110.0, 110.0];
        let pairs: Vec<(f64, f64)> = base.iter().copied().zip(new.iter().copied()).collect();
        assert_eq!(
            verdict(&lower(0.25), &base, &new, &pairs),
            Verdict::WithinBound
        );
        let mut better = new;
        better[8] = 90.0;
        let pairs: Vec<(f64, f64)> = base.iter().copied().zip(better.iter().copied()).collect();
        assert_eq!(
            verdict(&lower(0.25), &base, &better, &pairs),
            Verdict::Improved
        );
    }
}
