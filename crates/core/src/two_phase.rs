//! Two-phase stratified sampling (Ekman & Stenström, ISPASS 2005): a cheap
//! pilot pass estimates each stratum's variance, then the remaining detail
//! budget is Neyman-allocated where variance actually lives.

use std::collections::BTreeSet;

use pgss_cpu::{MachineConfig, Mode};
use pgss_stats::{neyman_allocation, stratified_variance, ConfidenceInterval, Welford, Z_95};
use pgss_workloads::Workload;

use crate::ckpt::SimContext;
use crate::driver::{
    Directive, RunTrace, SamplingPolicy, Segment, SegmentOutcome, Signature, SimDriver, Track,
};
use crate::estimate::{Estimate, PhaseSummary, Technique};
use crate::phase::PhaseTable;

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

/// The classification pass: one BBV interval per `ff_ops`, phase per
/// complete interval.
struct ClassifyPolicy {
    ff_ops: u64,
    table: PhaseTable,
    interval_phases: Vec<usize>,
    done: bool,
}

impl SamplingPolicy for ClassifyPolicy {
    fn next(&mut self, _trace: &mut RunTrace) -> Directive {
        if self.done {
            Directive::Finish
        } else {
            Directive::Run(Segment::with_bbv(Mode::Functional, self.ff_ops))
        }
    }

    fn observe(&mut self, outcome: &SegmentOutcome, trace: &mut RunTrace) {
        if outcome.complete() {
            let bbv = outcome
                .bbv
                .as_ref()
                .expect("classify intervals close a BBV");
            let c = self.table.classify(bbv.hashed(), outcome.ops);
            if c.created {
                trace.phases_created += 1;
            }
            self.interval_phases.push(c.phase);
        }
        if outcome.halted || outcome.ops == 0 {
            self.done = true;
        }
    }
}

/// A replay pass visiting a sorted set of interval indices: functional
/// fast-forward to each interval's start, then a warm + measured sample at
/// its head. Shared by the pilot and main passes (and by
/// [`crate::RankedSet`]'s measure pass).
pub(crate) struct PointReplayPolicy {
    pub ff_ops: u64,
    pub warm_ops: u64,
    pub unit_ops: u64,
    /// Interval indices to sample, sorted ascending.
    pub points: Vec<usize>,
    /// Index into `points` of the sample being worked on.
    idx: usize,
    /// The machine's current absolute op position.
    cursor: u64,
    /// Whether the warm-up for the current point has run.
    warmed: bool,
    /// CPI per point, aligned with `points` (`NaN` until measured).
    pub cpis: Vec<f64>,
    done: bool,
}

impl PointReplayPolicy {
    pub fn new(ff_ops: u64, warm_ops: u64, unit_ops: u64, points: Vec<usize>) -> PointReplayPolicy {
        assert!(
            warm_ops + unit_ops <= ff_ops,
            "a sample (warm {warm_ops} + unit {unit_ops}) must fit inside one interval ({ff_ops})"
        );
        let n = points.len();
        PointReplayPolicy {
            ff_ops,
            warm_ops,
            unit_ops,
            points,
            idx: 0,
            cursor: 0,
            warmed: false,
            cpis: vec![f64::NAN; n],
            done: false,
        }
    }
}

impl SamplingPolicy for PointReplayPolicy {
    fn next(&mut self, _trace: &mut RunTrace) -> Directive {
        if self.done {
            return Directive::Finish;
        }
        match self.points.get(self.idx) {
            None => Directive::Finish,
            Some(&p) => {
                let start = p as u64 * self.ff_ops;
                if self.cursor < start {
                    Directive::Run(Segment::new(Mode::Functional, start - self.cursor))
                } else if !self.warmed {
                    Directive::Run(Segment::new(Mode::DetailedWarming, self.warm_ops))
                } else {
                    Directive::Run(Segment::new(Mode::DetailedMeasured, self.unit_ops))
                }
            }
        }
    }

    fn observe(&mut self, outcome: &SegmentOutcome, trace: &mut RunTrace) {
        self.cursor += outcome.ops;
        match outcome.segment.mode {
            Mode::Functional => {}
            Mode::DetailedWarming => self.warmed = true,
            _ => {
                if outcome.complete() {
                    self.cpis[self.idx] = outcome.cpi();
                    trace.samples_taken += 1;
                }
                self.idx += 1;
                self.warmed = false;
            }
        }
        if outcome.halted {
            self.done = true;
        }
    }
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
        let period = if self.ff_ops.is_multiple_of(1_000_000) {
            format!("{}M", self.ff_ops / 1_000_000)
        } else {
            format!("{}k", self.ff_ops / 1_000)
        };
        format!(
            "TwoPhase{}({}/b{})",
            self.signature.name_suffix(),
            period,
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
        );
        ctx.bind(&mut classify);
        let mut cp = ClassifyPolicy {
            ff_ops: self.ff_ops,
            table: PhaseTable::new(self.threshold_rad),
            interval_phases: Vec::new(),
            done: false,
        };
        classify.run(&mut cp);
        let ClassifyPolicy {
            table,
            interval_phases,
            ..
        } = cp;
        assert!(
            !interval_phases.is_empty(),
            "workload shorter than one stratification interval"
        );
        let mut trace = *classify.trace();
        trace.phase_changes = table.changes();
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
            let mut replay = SimDriver::new(workload, config, Track::None);
            ctx.bind(&mut replay);
            let mut policy =
                PointReplayPolicy::new(self.ff_ops, self.warm_ops, self.unit_ops, points);
            replay.run(&mut policy);
            trace.merge(replay.trace());
            let pass_ops = replay.mode_ops();
            mode_ops.fast_forward += pass_ops.fast_forward;
            mode_ops.functional += pass_ops.functional;
            mode_ops.detailed_warming += pass_ops.detailed_warming;
            mode_ops.detailed_measured += pass_ops.detailed_measured;
            policy
                .points
                .iter()
                .zip(&policy.cpis)
                .filter(|(_, cpi)| cpi.is_finite())
                .map(|(&p, &cpi)| (p, cpi))
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
