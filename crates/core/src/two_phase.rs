//! Two-phase stratified sampling (Ekman & Stenström, ISPASS 2005): a cheap
//! pilot pass estimates each stratum's variance, then the remaining detail
//! budget is Neyman-allocated where variance actually lives.

use std::collections::BTreeSet;

use pgss_cpu::{MachineConfig, Mode};
use pgss_stats::{neyman_allocation, stratified_variance, ConfidenceInterval, Welford, Z_95};
use pgss_workloads::Workload;

use crate::ckpt::SimContext;
use crate::driver::{RunTrace, Segment, Signature, SimDriver, Track};
use crate::estimate::{period_label, Estimate, PhaseSummary, Technique};
use crate::phase::classify_intervals;

/// Two-phase stratified sampling over online phase strata:
///
/// 1. a **classification pass** (functional, signature-tracked) assigns every
///    `ff_ops` interval to a phase stratum, exactly as PGSS's classifier
///    would;
/// 2. a **pilot pass** detail-simulates `pilot_per_stratum` samples per
///    stratum (spread evenly over the stratum's occurrences), yielding a
///    first per-stratum CPI variance estimate;
/// 3. the remaining `budget` is split by **Neyman allocation** —
///    `n_h ∝ W_h·s_h` — so high-weight, high-variance strata get the extra
///    samples, and a **main pass** simulates them;
/// 4. the estimate composes per-stratum means by instruction weight, with a
///    proper post-allocation stratified 95 % interval
///    (`Σ W_h²·s_h²/n_h`, [`pgss_stats::stratified_variance`]).
///
/// Unlike PGSS the detail budget is **fixed up front**; the technique's bet
/// is that spending it where the pilot saw variance beats PGSS's per-phase
/// stopping rule at equal coverage. The statistical-validation sweep
/// adjudicates that bet empirically.
///
/// # Example
///
/// ```no_run
/// use pgss::{Technique, TwoPhaseStratified};
///
/// let est = TwoPhaseStratified::new().run(&pgss_workloads::gzip(0.05));
/// assert!(est.ci.is_some());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoPhaseStratified {
    /// Stratification interval (the classifier's BBV period).
    pub ff_ops: u64,
    /// Phase-change threshold in radians.
    pub threshold_rad: f64,
    /// Measured detailed instructions per sample.
    pub unit_ops: u64,
    /// Detailed-warming instructions before each sample.
    pub warm_ops: u64,
    /// Pilot (phase-1) samples per stratum.
    pub pilot_per_stratum: u64,
    /// Total sample budget across both phases; the pilot spends
    /// `strata × pilot_per_stratum` of it and Neyman allocation splits the
    /// rest.
    pub budget: u64,
    /// Seed choosing the five hashed-BBV address bits.
    pub hash_seed: u64,
    /// Phase-signature family the classifier runs on.
    pub signature: Signature,
}

impl Default for TwoPhaseStratified {
    fn default() -> TwoPhaseStratified {
        TwoPhaseStratified {
            ff_ops: 1_000_000,
            threshold_rad: crate::threshold(0.05),
            unit_ops: 1_000,
            warm_ops: 3_000,
            pilot_per_stratum: 3,
            budget: 60,
            hash_seed: 0x5047_5353,
            signature: Signature::Bbv,
        }
    }
}

impl TwoPhaseStratified {
    /// The defaults above (1M-op strata, 3 pilot samples, budget 60).
    pub fn new() -> TwoPhaseStratified {
        TwoPhaseStratified::default()
    }
}

/// The point-replay pass: for each interval index in `points` (sorted
/// ascending), fast-forward `driver` functionally to the interval's start,
/// then run a warm + measured sample at its head. Returns the CPI
/// per point, aligned with `points` (`NaN` where the program halted before
/// the sample completed). Shared by the pilot and main passes and by
/// [`crate::RankedSet`]'s measure pass.
pub(crate) fn replay_points(
    driver: &mut SimDriver,
    ff_ops: u64,
    warm_ops: u64,
    unit_ops: u64,
    points: &[usize],
) -> Vec<f64> {
    assert!(
        warm_ops + unit_ops <= ff_ops,
        "a sample (warm {warm_ops} + unit {unit_ops}) must fit inside one interval ({ff_ops})"
    );
    let mut cpis = vec![f64::NAN; points.len()];
    for (cpi, &point) in cpis.iter_mut().zip(points) {
        let start = point as u64 * ff_ops;
        if driver.retired() < start {
            let skip = start - driver.retired();
            if driver.execute(Segment::new(Mode::Functional, skip)).halted {
                break;
            }
        }
        let warm = driver.execute(Segment::new(Mode::DetailedWarming, warm_ops));
        if warm.halted {
            break;
        }
        let sample = driver.execute(Segment::new(Mode::DetailedMeasured, unit_ops));
        if sample.complete() {
            *cpi = sample.cpi();
            driver.trace_mut().samples_taken += 1;
        }
        if sample.halted {
            break;
        }
    }
    cpis
}

/// Picks `k` entries spread evenly over `list` (all of `list` when
/// `k >= len`). Deterministic; preserves ascending order of the input.
fn spread(list: &[usize], k: u64) -> Vec<usize> {
    let len = list.len();
    if k as usize >= len {
        return list.to_vec();
    }
    (0..k)
        .map(|i| list[((2 * i as usize + 1) * len) / (2 * k as usize)])
        .collect()
}

impl Technique for TwoPhaseStratified {
    fn name(&self) -> String {
        format!(
            "TwoPhase{}({}/b{})",
            self.signature.name_suffix(),
            period_label(self.ff_ops),
            self.budget
        )
    }

    fn tracks(&self) -> Vec<Track> {
        vec![self.signature.hashed_track(self.hash_seed), Track::None]
    }

    fn run_traced(
        &self,
        workload: &Workload,
        config: &MachineConfig,
        ctx: &SimContext,
    ) -> (Estimate, RunTrace) {
        assert!(
            self.ff_ops > 0 && self.unit_ops > 0,
            "ff_ops and unit_ops must be positive"
        );
        // Pass 1: stratify every interval (charged; it is functional-only).
        let mut classify = SimDriver::new(
            workload,
            config,
            self.signature.hashed_track(self.hash_seed),
            ctx,
        );
        let (table, interval_phases) =
            classify_intervals(&mut classify, self.ff_ops, self.threshold_rad);
        assert!(
            !interval_phases.is_empty(),
            "workload shorter than one stratification interval"
        );
        let mut trace = *classify.trace();
        let mut mode_ops = classify.mode_ops();

        let num_strata = table.phases().len();
        let mut occurrences: Vec<Vec<usize>> = vec![Vec::new(); num_strata];
        for (i, &p) in interval_phases.iter().enumerate() {
            occurrences[p].push(i);
        }

        // Pass 2: the pilot — `pilot_per_stratum` samples per stratum,
        // spread evenly over its occurrences.
        let pilot_points: Vec<Vec<usize>> = occurrences
            .iter()
            .map(|occ| spread(occ, self.pilot_per_stratum))
            .collect();
        let mut run_pass = |points: Vec<usize>| -> Vec<(usize, f64)> {
            let mut replay = SimDriver::new(workload, config, Track::None, ctx);
            let cpis = replay_points(
                &mut replay,
                self.ff_ops,
                self.warm_ops,
                self.unit_ops,
                &points,
            );
            trace.merge(replay.trace());
            mode_ops += replay.mode_ops();
            points
                .into_iter()
                .zip(cpis)
                .filter(|(_, cpi)| cpi.is_finite())
                .collect()
        };
        let mut flat: Vec<usize> = pilot_points.iter().flatten().copied().collect();
        flat.sort_unstable();
        let pilot_results = run_pass(flat);

        let mut stats: Vec<Welford> = vec![Welford::new(); num_strata];
        for &(point, cpi) in &pilot_results {
            stats[interval_phases[point]].push(cpi);
        }

        // Phase 2 allocation: Neyman over (weight, pilot stddev), clamped to
        // each stratum's unsampled occurrences.
        let weights = table.weights();
        let pilot_spent: u64 = pilot_points.iter().map(|p| p.len() as u64).sum();
        let main_budget = self.budget.saturating_sub(pilot_spent);
        let alloc_input: Vec<(f64, f64)> = weights
            .iter()
            .zip(&stats)
            .map(|(&w, s)| (w, s.sample_stddev()))
            .collect();
        let alloc = neyman_allocation(main_budget, &alloc_input);
        let mut main_flat: Vec<usize> = Vec::new();
        for ((occ, pilot), &n) in occurrences.iter().zip(&pilot_points).zip(&alloc) {
            let taken: BTreeSet<usize> = pilot.iter().copied().collect();
            let remaining: Vec<usize> =
                occ.iter().copied().filter(|i| !taken.contains(i)).collect();
            main_flat.extend(spread(&remaining, n));
        }
        main_flat.sort_unstable();
        let main_results = run_pass(main_flat);
        for &(point, cpi) in &main_results {
            stats[interval_phases[point]].push(cpi);
        }

        // Compose the estimate and its post-allocation stratified interval.
        let global = {
            let mut all = Welford::new();
            for s in &stats {
                all.merge(s);
            }
            all
        };
        assert!(
            global.count() > 0,
            "two-phase sampling took no samples; raise budget or shrink ff_ops"
        );
        let cpi: f64 = stats
            .iter()
            .zip(&weights)
            .map(|(s, &w)| {
                let m = if s.count() > 0 {
                    s.mean()
                } else {
                    global.mean()
                };
                w * m
            })
            .sum();
        // Strata with a single sample contribute no measured variance term —
        // the same optimism under partial coverage as PGSS's composed
        // interval, which the validation sweep tolerates by design.
        let strata_var: Vec<(f64, f64, u64)> = stats
            .iter()
            .zip(&weights)
            .map(|(s, &w)| (w, s.sample_variance(), s.count()))
            .collect();
        let total_samples = global.count();
        let cpi_ci = ConfidenceInterval {
            mean: cpi,
            half_width: if total_samples < 2 {
                f64::INFINITY
            } else {
                Z_95 * stratified_variance(&strata_var).sqrt()
            },
            n: total_samples,
        };

        let estimate = Estimate {
            ipc: 1.0 / cpi,
            mode_ops,
            samples: total_samples,
            phases: Some(PhaseSummary {
                phases: num_strata,
                changes: table.changes(),
                samples_per_phase: stats.iter().map(|s| s.count()).collect(),
                weights,
            }),
            ci: Some(crate::estimate::ipc_interval_from_cpi(cpi_ci)),
        };
        (estimate, trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::relative_error;
    use crate::FullDetailed;

    fn scaled() -> TwoPhaseStratified {
        TwoPhaseStratified {
            ff_ops: 100_000,
            warm_ops: 1_500,
            unit_ops: 500,
            budget: 40,
            ..TwoPhaseStratified::default()
        }
    }

    #[test]
    fn spread_is_even_and_deterministic() {
        let list: Vec<usize> = (0..10).collect();
        assert_eq!(spread(&list, 2), vec![2, 7]);
        assert_eq!(spread(&list, 3), vec![1, 5, 8]);
        assert_eq!(spread(&list, 20), list);
        assert_eq!(spread(&[], 3), Vec::<usize>::new());
    }

    #[test]
    fn stays_within_budget() {
        let w = pgss_workloads::gzip(0.02);
        let t = scaled();
        let est = t.run(&w);
        assert!(est.samples <= t.budget, "{} samples", est.samples);
        assert!(est.samples > 0);
        assert!(
            est.detailed_ops() <= t.budget * (t.warm_ops + t.unit_ops),
            "detail {}",
            est.detailed_ops()
        );
    }

    #[test]
    fn reasonable_accuracy_with_finite_ci() {
        let w = pgss_workloads::wupwise(0.02);
        let truth = FullDetailed::new().ground_truth(&w);
        let est = scaled().run(&w);
        let err = relative_error(est.ipc, truth.ipc);
        assert!(err < 0.2, "two-phase error {err:.4}");
        let ci = est.ci.expect("stratified interval");
        assert!(ci.half_width.is_finite() && ci.half_width > 0.0);
    }

    #[test]
    fn pilot_variance_steers_allocation() {
        // gzip's phases differ in CPI variance; the unstable one must end
        // up with more samples than the stable ones beyond the pilot floor.
        let w = pgss_workloads::gzip(0.02);
        let est = scaled().run(&w);
        let p = est.phases.unwrap();
        let max = *p.samples_per_phase.iter().max().unwrap();
        let min = *p.samples_per_phase.iter().min().unwrap();
        assert!(max > min, "allocation flat: {:?}", p.samples_per_phase);
    }

    #[test]
    fn deterministic() {
        let w = pgss_workloads::parser(0.01);
        let a = scaled().run(&w);
        let b = scaled().run(&w);
        assert_eq!(a, b);
    }

    #[test]
    fn name_encodes_parameters() {
        assert_eq!(TwoPhaseStratified::new().name(), "TwoPhase(1M/b60)");
        assert_eq!(
            TwoPhaseStratified {
                signature: Signature::Mav,
                ..scaled()
            }
            .name(),
            "TwoPhase-MAV(100k/b40)"
        );
    }
}
