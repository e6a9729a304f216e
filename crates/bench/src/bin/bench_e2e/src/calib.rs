//! Host-speed calibration of the CPU-bound CLI workloads.
//!
//! On a shared host the CPU a run gets drifts by tens of percent over
//! minutes (other tenants' load on the same physical cores), and a
//! CPU-bound job's wall and CPU time drift with it. A fixed loop of the same
//! kind of work the program does (formatting, hashing, sorting, map
//! updates), timed between the jobs, measures that drift. The loop is the
//! benchmark's own code, so a change to the program never moves it.
//!
//! The loop slows more than the CLI does when the host is busy: over runs
//! on the reference host whose loop slowdown ranged from 1.0x to 2.0x, the
//! CLI's timings followed the loop's slowdown raised to about 0.6 (a
//! log-log fit). Calibrated timings therefore divide by `slowdown^0.6`,
//! which cut the 10-run spread of `detect-*` timings from about 22% to
//! under 10% in a busy period without over-correcting in a quiet one.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// What one [`spin`] takes on the reference host, a 2-vCPU x86-64 Linux
/// VM (Intel Xeon), when it is quiet. Only ratios between runs matter;
/// this makes calibrated values read close to raw ones there.
const REFERENCE_S: f64 = 0.021;

/// How far (log-log) the CLI's timings move per unit of the loop's
/// slowdown; see the module docs.
const SENSITIVITY: f64 = 0.6;

/// One pass of the calibration loop; returns its wall time.
pub fn spin() -> f64 {
    let started = Instant::now();
    let mut acc = 0u64;
    for round in 0..80u64 {
        let mut cells: Vec<String> = (0..1500u64)
            .map(|i| {
                format!(
                    "row {round} cell {i} value {}",
                    i.wrapping_mul(2_654_435_761) % 9973
                )
            })
            .collect();
        cells.sort_unstable();
        let mut counts: HashMap<&str, u64> = HashMap::new();
        for cell in &cells {
            let hash = cell.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            });
            *counts.entry(&cell[cell.len() - 4..]).or_default() += hash;
        }
        acc ^= counts.values().fold(0, |a, v| a ^ v);
    }
    black_box(acc);
    started.elapsed().as_secs_f64()
}

/// Calibration samples of one run.
#[derive(Debug, Default)]
pub struct Calibration {
    samples: Vec<f64>,
}

impl Calibration {
    pub fn sample(&mut self) {
        self.samples.push(spin());
    }

    /// The loop's median time over its reference time: how much slower
    /// than a quiet reference host this run's CPU was.
    pub fn host_slowdown(&self) -> f64 {
        median(&self.samples).map_or(1.0, |m| m / REFERENCE_S)
    }

    /// What to divide the run's CPU-bound times by (and multiply its rates
    /// by) to calibrate them.
    pub fn divisor(&self) -> f64 {
        self.host_slowdown().powf(SENSITIVITY)
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }
}
