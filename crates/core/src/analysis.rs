//! Interval-level characterisation machinery behind the paper's Figures 2,
//! 3, and 6–10: per-interval (IPC, BBV) profiles, the ΔBBV/ΔIPC quadrant
//! analysis, and the phase-threshold sweep.

use pgss_bbv::{BbvHash, HashedBbv, HashedBbvTracker};
use pgss_cpu::{MachineConfig, Mode};
use pgss_stats::Welford;
use pgss_workloads::Workload;

use crate::phase::PhaseTable;

/// One interval of a detailed characterisation run.
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalSample {
    /// The interval's IPC under detailed simulation.
    pub ipc: f64,
    /// The interval's hashed basic-block vector.
    pub bbv: HashedBbv,
    /// Retired instructions (equals the requested period except possibly
    /// for the final interval, which is discarded by the collectors here).
    pub ops: u64,
}

/// Runs the workload in detailed mode collecting one [`IntervalSample`]
/// (IPC + hashed BBV) per `period_ops` — the data behind Fig. 2's IPC
/// curves and the joint data behind Figs. 3 and 7–10.
///
/// The trailing partial interval is discarded.
///
/// # Panics
///
/// Panics if `period_ops` is zero.
pub fn interval_profile(
    workload: &Workload,
    config: &MachineConfig,
    period_ops: u64,
    hash_seed: u64,
) -> Vec<IntervalSample> {
    assert!(period_ops > 0, "period_ops must be positive");
    let mut machine = workload.machine_with(*config);
    let mut tracker = HashedBbvTracker::new(BbvHash::from_seed(hash_seed));
    let mut out = Vec::new();
    loop {
        let r = machine.run_with(Mode::DetailedMeasured, period_ops, &mut tracker);
        let bbv = tracker.take();
        if r.ops == period_ops {
            out.push(IntervalSample {
                ipc: r.ipc(),
                bbv,
                ops: r.ops,
            });
        }
        if r.halted || r.ops == 0 {
            break;
        }
    }
    out
}

/// The change between two consecutive intervals: BBV angle and IPC change
/// expressed in units of the benchmark's interval-IPC standard deviation
/// (the paper's cross-benchmark normalisation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Delta {
    /// Angle between the two intervals' BBVs, in radians.
    pub bbv_angle: f64,
    /// `|ΔIPC|` in benchmark standard deviations.
    pub ipc_sigmas: f64,
}

/// Computes consecutive-interval [`Delta`]s from a profile, normalising IPC
/// changes by the profile's own IPC standard deviation.
///
/// Returns an empty vector when the profile has fewer than two intervals or
/// zero variance.
pub fn deltas(profile: &[IntervalSample]) -> Vec<Delta> {
    if profile.len() < 2 {
        return Vec::new();
    }
    let sigma = profile
        .iter()
        .map(|s| s.ipc)
        .collect::<Welford>()
        .population_stddev();
    if sigma == 0.0 {
        return Vec::new();
    }
    profile
        .windows(2)
        .map(|w| Delta {
            bbv_angle: w[0].bbv.angle(&w[1].bbv),
            ipc_sigmas: (w[1].ipc - w[0].ipc).abs() / sigma,
        })
        .collect()
}

/// Fig. 8's metric: among changes with `|ΔIPC| > sigma_level`, the fraction
/// whose BBV change exceeds `threshold_rad` — detected changes (Region 2)
/// over all significant changes (Regions 1 + 2 of Fig. 6).
///
/// `None` when there are no significant changes.
pub fn detection_rate(deltas: &[Delta], threshold_rad: f64, sigma_level: f64) -> Option<f64> {
    let significant: Vec<_> = deltas
        .iter()
        .filter(|d| d.ipc_sigmas > sigma_level)
        .collect();
    if significant.is_empty() {
        return None;
    }
    let detected = significant
        .iter()
        .filter(|d| d.bbv_angle > threshold_rad)
        .count();
    Some(detected as f64 / significant.len() as f64)
}

/// Fig. 9's metric: among detected phase changes (BBV change above the
/// threshold), the fraction whose IPC change is *not* significant — false
/// positives (Region 4) over all detections (Regions 2 + 4 of Fig. 6).
///
/// `None` when nothing is detected.
pub fn false_positive_rate(deltas: &[Delta], threshold_rad: f64, sigma_level: f64) -> Option<f64> {
    let detected: Vec<_> = deltas
        .iter()
        .filter(|d| d.bbv_angle > threshold_rad)
        .collect();
    if detected.is_empty() {
        return None;
    }
    let false_pos = detected
        .iter()
        .filter(|d| d.ipc_sigmas <= sigma_level)
        .count();
    Some(false_pos as f64 / detected.len() as f64)
}

/// Fig. 7's two-dimensional distribution: per-benchmark delta sets are each
/// binned into an `x_bins × y_bins` grid over `[0, x_max] × [0, y_max]`
/// (values clamped into the edge bins), normalised to fractions, then
/// averaged so every benchmark is weighted equally.
///
/// Returns `grid[y][x]` with `y` increasing in IPC change and `x` in BBV
/// angle.
pub fn density_grid(
    per_benchmark: &[Vec<Delta>],
    x_bins: usize,
    y_bins: usize,
    x_max: f64,
    y_max: f64,
) -> Vec<Vec<f64>> {
    assert!(
        x_bins > 0 && y_bins > 0,
        "grid needs at least one bin per axis"
    );
    let mut grid = vec![vec![0.0f64; x_bins]; y_bins];
    let mut contributing = 0usize;
    for deltas in per_benchmark {
        if deltas.is_empty() {
            continue;
        }
        contributing += 1;
        let share = 1.0 / deltas.len() as f64;
        for d in deltas {
            let x = ((d.bbv_angle / x_max * x_bins as f64) as usize).min(x_bins - 1);
            let y = ((d.ipc_sigmas / y_max * y_bins as f64) as usize).min(y_bins - 1);
            grid[y][x] += share;
        }
    }
    if contributing > 0 {
        for row in &mut grid {
            for cell in row.iter_mut() {
                *cell /= contributing as f64;
            }
        }
    }
    grid
}

/// One row of Fig. 10's threshold sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThresholdSweepRow {
    /// The phase threshold in radians.
    pub threshold_rad: f64,
    /// Distinct phases discovered at this threshold.
    pub num_phases: usize,
    /// Interval-to-interval phase transitions.
    pub num_changes: u64,
    /// Mean contiguous same-phase run length, in retired instructions.
    pub avg_interval_ops: f64,
    /// Mean within-phase IPC standard deviation, in units of the
    /// benchmark's overall interval-IPC standard deviation (weighted by
    /// phase size) — Fig. 10's "IPC variance" axis.
    pub ipc_variation_sigmas: f64,
}

/// Sweeps the online phase detector over `thresholds` against a fixed
/// interval profile, reporting Fig. 10's four statistics per threshold.
pub fn phase_threshold_sweep(
    profile: &[IntervalSample],
    thresholds: &[f64],
) -> Vec<ThresholdSweepRow> {
    let overall_sigma = profile
        .iter()
        .map(|s| s.ipc)
        .collect::<Welford>()
        .population_stddev();
    thresholds
        .iter()
        .map(|&threshold_rad| {
            let mut table = PhaseTable::new(threshold_rad);
            let mut per_phase: Vec<Welford> = Vec::new();
            let total_ops: u64 = profile.iter().map(|s| s.ops).sum();
            for s in profile {
                let c = table.classify(&s.bbv, s.ops);
                if c.created {
                    per_phase.push(Welford::new());
                }
                per_phase[c.phase].push(s.ipc);
            }
            let changes = table.changes();
            let avg_interval_ops = total_ops as f64 / (changes + 1) as f64;
            let mut acc = 0.0;
            let mut weight = 0.0;
            for w in &per_phase {
                if w.count() > 0 {
                    acc += w.population_stddev() * w.count() as f64;
                    weight += w.count() as f64;
                }
            }
            let within = if weight > 0.0 { acc / weight } else { 0.0 };
            ThresholdSweepRow {
                threshold_rad,
                num_phases: table.phases().len(),
                num_changes: changes,
                avg_interval_ops,
                ipc_variation_sigmas: if overall_sigma > 0.0 {
                    within / overall_sigma
                } else {
                    0.0
                },
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(ipc: f64, bucket: usize) -> IntervalSample {
        let mut bbv = HashedBbv::new();
        bbv.record(bucket, 1000);
        IntervalSample {
            ipc,
            bbv,
            ops: 1000,
        }
    }

    fn alternating_profile(n: usize) -> Vec<IntervalSample> {
        (0..n)
            .map(|i| {
                if i % 2 == 0 {
                    sample(2.0, 0)
                } else {
                    sample(1.0, 9)
                }
            })
            .collect()
    }

    #[test]
    fn deltas_normalise_by_sigma() {
        let p = alternating_profile(10);
        let d = deltas(&p);
        assert_eq!(d.len(), 9);
        // Alternating 1/2 IPC: sigma = 0.5, every |ΔIPC| = 1.0 → 2 sigmas.
        for delta in &d {
            assert!((delta.ipc_sigmas - 2.0).abs() < 1e-9);
            assert!(delta.bbv_angle > 1.5); // orthogonal BBVs
        }
    }

    #[test]
    fn deltas_degenerate_cases() {
        assert!(deltas(&[]).is_empty());
        assert!(deltas(&[sample(1.0, 0)]).is_empty());
        // Zero variance.
        let flat: Vec<_> = (0..5).map(|_| sample(1.0, 0)).collect();
        assert!(deltas(&flat).is_empty());
    }

    #[test]
    fn detection_catches_real_changes() {
        let d = deltas(&alternating_profile(20));
        // Every change is significant and has a large BBV angle.
        assert_eq!(detection_rate(&d, crate::threshold(0.05), 0.5), Some(1.0));
        // With an absurd threshold nothing is detected.
        assert_eq!(detection_rate(&d, 10.0, 0.5), Some(0.0));
        // No significant changes at an absurd sigma level.
        assert_eq!(detection_rate(&d, 0.1, 100.0), None);
    }

    #[test]
    fn false_positives_flag_noise_detections() {
        // BBVs alternate every interval but the IPC only moves once, at the
        // very end: all but one detection is a false positive.
        let mut p: Vec<_> = (0..19)
            .map(|i| sample(1.0, if i % 2 == 0 { 0 } else { 9 }))
            .collect();
        p.push(sample(1.5, 9)); // index 18 has bucket 0, so this change is detected

        let d = deltas(&p);
        let fp = false_positive_rate(&d, crate::threshold(0.05), 0.5).unwrap();
        assert!((fp - 18.0 / 19.0).abs() < 1e-9, "false-positive rate {fp}");
        assert_eq!(false_positive_rate(&d, 10.0, 0.5), None);
    }

    #[test]
    fn density_grid_weighs_benchmarks_equally() {
        // Benchmark A: 100 deltas in one cell; benchmark B: 1 delta in
        // another. Each contributes 0.5 to its cell.
        let a = vec![
            Delta {
                bbv_angle: 0.01,
                ipc_sigmas: 0.01
            };
            100
        ];
        let b = vec![Delta {
            bbv_angle: 1.5,
            ipc_sigmas: 0.9,
        }];
        let g = density_grid(&[a, b], 4, 4, 1.6, 1.0);
        assert!((g[0][0] - 0.5).abs() < 1e-9);
        assert!((g[3][3] - 0.5).abs() < 1e-9);
        let total: f64 = g.iter().flatten().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn threshold_sweep_is_monotone_in_the_right_direction() {
        let p = alternating_profile(40);
        let rows = phase_threshold_sweep(
            &p,
            &[
                crate::threshold(0.05),
                crate::threshold(0.25),
                std::f64::consts::FRAC_PI_2 + 0.1,
            ],
        );
        // Tight threshold: 2 phases, 39 changes, zero within-phase
        // variation.
        assert_eq!(rows[0].num_phases, 2);
        assert_eq!(rows[0].num_changes, 39);
        assert!(rows[0].ipc_variation_sigmas < 1e-9);
        // Beyond π/2 everything merges: 1 phase, no changes, and the
        // within-phase variation equals the overall (ratio 1).
        assert_eq!(rows[2].num_phases, 1);
        assert_eq!(rows[2].num_changes, 0);
        assert!((rows[2].ipc_variation_sigmas - 1.0).abs() < 1e-9);
        // Phase count never increases with the threshold.
        assert!(rows[0].num_phases >= rows[1].num_phases);
        assert!(rows[1].num_phases >= rows[2].num_phases);
        // Average interval length grows with the threshold.
        assert!(rows[2].avg_interval_ops > rows[0].avg_interval_ops);
    }
}
