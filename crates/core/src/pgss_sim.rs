//! Phase-Guided Small-Sample Simulation — the paper's contribution.

use pgss_cpu::{MachineConfig, Mode};
use pgss_stats::{weighted_mean, ConfidenceInterval, Welford, Z_95, Z_997};
use pgss_workloads::Workload;

use crate::ckpt::SimContext;
use crate::driver::{RunTrace, Segment, Signature, SimDriver, Track};
use crate::estimate::{period_label, Estimate, PhaseSummary, Technique};
use crate::phase::PhaseTable;

/// PGSS-Sim, following the flow chart of the paper's Figure 5:
///
/// 1. **Fast-forwarding** (`ff_ops`: the BBV sampling period, 100k/1M/10M)
///    in functional-warming mode while the hashed BBV accumulates.
/// 2. The interval's BBV is compared to the last interval's; below the
///    threshold the data joins the current phase, otherwise it is matched
///    against every known phase or a **new phase is created**.
/// 3. If the phase's confidence interval is within bounds, **detailed
///    simulation of that phase stops** (the sample is skipped); if the
///    phase's last sample fell within the last `spacing_ops` (1 M), the
///    sample is also skipped, spreading samples across the phase's
///    occurrences to capture temporal variation.
/// 4. Otherwise a SMARTS-style sample runs: **detailed warm-up**
///    (`warm_ops`, ~3,000) then **detailed simulation** (`unit_ops`,
///    1,000), and its CPI is credited to the current phase. (Fig. 5 draws
///    the sample at the top of the loop; executing it right after the
///    interval that requested it is the same cycle of the same loop, and
///    guarantees every sample runs on a machine the preceding fast-forward
///    has warmed — with ~50 samples per benchmark at this reproduction's
///    scale, a single cold-start sample would otherwise dominate the
///    estimate, a small-sample artifact the paper's 10⁵-sample runs never
///    see.)
///
/// Phases that occur often or vary a lot automatically receive more
/// samples; rare or stable phases receive fewer — the adaptivity that gives
/// PGSS an order of magnitude less detailed simulation than SMARTS at
/// comparable accuracy.
///
/// The final estimate composes per-phase mean CPIs weighted by each phase's
/// retired-instruction share (phases that never received a sample — rare,
/// short-lived ones — fall back to the global mean CPI).
///
/// # Example
///
/// ```no_run
/// use pgss::{PgssSim, Technique};
///
/// // The paper's best overall configuration: 1M-op BBV period, 0.05π.
/// let est = PgssSim::new().run(&pgss_workloads::gzip(0.05));
/// println!("{} phases", est.phases.unwrap().phases);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PgssSim {
    /// Fast-forward (BBV sampling) period; the paper sweeps 100k, 1M, 10M
    /// and finds 1M best overall.
    pub ff_ops: u64,
    /// Phase-change threshold in radians; the paper sweeps 0.05π–0.25π and
    /// finds 0.05π best overall.
    pub threshold_rad: f64,
    /// Measured detailed instructions per sample (1,000, as SMARTS).
    pub unit_ops: u64,
    /// Detailed-warming instructions before each sample (3,000, as
    /// SMARTS).
    pub warm_ops: u64,
    /// Per-phase relative confidence target (±3 %).
    pub ci_rel: f64,
    /// z-score for the per-phase confidence interval (3.0 → 99.7 %).
    pub z: f64,
    /// Minimum samples per phase before its confidence interval may stop
    /// sampling.
    pub min_samples: u64,
    /// Sample-spacing rule: skip a sample if this phase was last sampled
    /// within this many retired instructions (1 M in the paper).
    pub spacing_ops: u64,
    /// Seed choosing the five hashed-BBV address bits.
    pub hash_seed: u64,
    /// Phase-signature family the classifier runs on: the paper's hashed
    /// branch BBV (default) or Memory Access Vectors.
    pub signature: Signature,
}

impl Default for PgssSim {
    fn default() -> PgssSim {
        PgssSim {
            ff_ops: 1_000_000,
            threshold_rad: crate::threshold(0.05),
            unit_ops: 1_000,
            warm_ops: 3_000,
            ci_rel: 0.03,
            z: Z_997,
            min_samples: 8,
            spacing_ops: 1_000_000,
            hash_seed: 0x5047_5353,
            signature: Signature::Bbv,
        }
    }
}

impl PgssSim {
    /// The paper's best overall configuration (1M-op period, 0.05π
    /// threshold).
    pub fn new() -> PgssSim {
        PgssSim::default()
    }

    /// Convenience constructor for the paper's parameter sweep (Fig. 11):
    /// `period` in ops and `threshold` as a fraction of π.
    pub fn with_params(ff_ops: u64, threshold_frac_pi: f64) -> PgssSim {
        PgssSim {
            ff_ops,
            threshold_rad: crate::threshold(threshold_frac_pi),
            ..PgssSim::default()
        }
    }
}

/// Per-phase sampling state.
#[derive(Debug, Clone, Default)]
struct PhaseStats {
    cpi: Welford,
    last_sample_at: Option<u64>,
}

impl Technique for PgssSim {
    fn name(&self) -> String {
        format!(
            "PGSS{}({}/.{:02.0})",
            self.signature.name_suffix(),
            period_label(self.ff_ops),
            self.threshold_rad / std::f64::consts::PI * 100.0
        )
    }

    fn tracks(&self) -> Vec<Track> {
        vec![self.signature.hashed_track(self.hash_seed)]
    }

    fn run_traced(
        &self,
        workload: &Workload,
        config: &MachineConfig,
        ctx: &SimContext,
    ) -> (Estimate, RunTrace) {
        assert!(
            self.unit_ops > 0 && self.ff_ops > 0,
            "unit_ops and ff_ops must be positive"
        );
        // The driver's hashed tracker keeps running across warm/measured
        // segments (their ops land in the next interval's vector, as the
        // paper's always-on hardware would), so only the fast-forward
        // segments close BBV intervals.
        let mut driver = SimDriver::new(
            workload,
            config,
            self.signature.hashed_track(self.hash_seed),
            ctx,
        );
        let mut table = PhaseTable::new(self.threshold_rad);
        let mut stats: Vec<PhaseStats> = Vec::new();
        // Detailed ops of the last sample, attributed to the following
        // interval (samples sit between intervals).
        let mut carry_ops = 0;
        loop {
            // Fast-forward one BBV period, then classify it.
            let interval = driver.execute(Segment::with_bbv(Mode::Functional, self.ff_ops));
            if interval.ops == 0 {
                break;
            }
            let bbv = interval
                .bbv
                .as_ref()
                .expect("fast-forward segments close an interval");
            let c = table.classify(bbv.hashed(), interval.ops + std::mem::take(&mut carry_ops));
            if c.created {
                stats.push(PhaseStats::default());
                driver.trace_mut().phases_created += 1;
            }
            if interval.halted {
                break;
            }
            // Per Fig. 5: sample unless the phase's confidence interval is
            // already met or the phase was sampled within the spacing
            // window.
            let phase = &stats[c.phase];
            if phase.cpi.count() >= self.min_samples
                && ConfidenceInterval::from_welford(&phase.cpi, self.z).meets_relative(self.ci_rel)
            {
                driver.trace_mut().skipped_ci_met += 1;
                continue;
            }
            if phase
                .last_sample_at
                .is_some_and(|at| interval.retired.saturating_sub(at) < self.spacing_ops)
            {
                driver.trace_mut().skipped_spacing += 1;
                continue;
            }
            // Detailed warm-up, then the measured sample itself, credited
            // to the phase just classified.
            let warm = driver.execute(Segment::new(Mode::DetailedWarming, self.warm_ops));
            if warm.halted {
                break;
            }
            let sample = driver.execute(Segment::new(Mode::DetailedMeasured, self.unit_ops));
            carry_ops = warm.ops + sample.ops;
            if sample.complete() {
                let phase = &mut stats[c.phase];
                phase.cpi.push(sample.cpi());
                phase.last_sample_at = Some(sample.retired);
                driver.trace_mut().samples_taken += 1;
            }
            if sample.halted {
                break;
            }
        }

        // Compose the estimate: per-phase mean CPI weighted by instruction
        // share; unsampled phases fall back to the global mean.
        let weights = table.weights();
        let global = {
            let mut all = Welford::new();
            for s in &stats {
                all.merge(&s.cpi);
            }
            all
        };
        let total_samples = global.count();
        assert!(
            total_samples > 0,
            "PGSS took no samples; workload too short for ff_ops"
        );
        let pairs: Vec<(f64, f64)> = stats
            .iter()
            .zip(&weights)
            .map(|(s, &w)| {
                let cpi = if s.cpi.count() > 0 {
                    s.cpi.mean()
                } else {
                    global.mean()
                };
                (cpi, w)
            })
            .collect();
        let cpi = weighted_mean(&pairs).unwrap_or_else(|| global.mean());

        // Composed stratified 95 % interval: the estimator is a weighted
        // sum of per-phase sample means, so its variance is
        // Σ w_p² · s_p² / n_p over the sampled phases (phases that fell
        // back to the global mean contribute no measured variance term —
        // the claim is therefore optimistic when coverage is partial,
        // which the statistical-validation sweep tolerates by design).
        let var: f64 = stats
            .iter()
            .zip(&weights)
            .filter(|(s, _)| s.cpi.count() > 1)
            .map(|(s, &w)| w * w * s.cpi.sample_variance() / s.cpi.count() as f64)
            .sum();
        let cpi_ci = ConfidenceInterval {
            mean: cpi,
            half_width: if total_samples < 2 {
                f64::INFINITY
            } else {
                Z_95 * var.sqrt()
            },
            n: total_samples,
        };

        let samples_per_phase = stats.iter().map(|s| s.cpi.count()).collect();
        let mut trace = *driver.trace();
        trace.phase_changes = table.changes();
        let estimate = Estimate {
            ipc: 1.0 / cpi,
            mode_ops: driver.mode_ops(),
            samples: total_samples,
            phases: Some(PhaseSummary {
                phases: table.phases().len(),
                changes: table.changes(),
                samples_per_phase,
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
    use crate::{FullDetailed, Smarts};

    fn scaled() -> PgssSim {
        // Scaled-down spacing/period for the small test workloads.
        PgssSim {
            ff_ops: 100_000,
            spacing_ops: 100_000,
            ..PgssSim::default()
        }
    }

    #[test]
    fn stable_workload_needs_few_samples() {
        let w = pgss_workloads::mesa(0.02);
        let est = scaled().run(&w);
        let p = est.phases.as_ref().unwrap();
        assert!(p.phases <= 6, "mesa fragmented into {} phases", p.phases);
        // Stability ⇒ CIs close quickly ⇒ far fewer samples than intervals.
        let intervals = w.nominal_ops() / 100_000;
        assert!(
            est.samples < intervals / 2,
            "{} samples for {} intervals",
            est.samples,
            intervals
        );
    }

    #[test]
    fn uses_less_detailed_simulation_than_smarts() {
        let w = pgss_workloads::equake(0.02);
        let smarts = Smarts {
            period_ops: 100_000,
            ..Smarts::default()
        }
        .run(&w);
        let pgss = scaled().run(&w);
        assert!(
            pgss.detailed_ops() * 2 <= smarts.detailed_ops(),
            "PGSS {} vs SMARTS {} detailed ops",
            pgss.detailed_ops(),
            smarts.detailed_ops()
        );
    }

    #[test]
    fn reasonable_accuracy() {
        let w = pgss_workloads::wupwise(0.02);
        let truth = FullDetailed::new().ground_truth(&w);
        let est = scaled().run(&w);
        let err = relative_error(est.ipc, truth.ipc);
        assert!(err < 0.2, "PGSS error {err:.4}");
    }

    #[test]
    fn unstable_phases_get_more_samples() {
        let w = pgss_workloads::gzip(0.02);
        let est = scaled().run(&w);
        let p = est.phases.unwrap();
        // At least one phase kept being sampled well past min_samples while
        // another closed early — adaptivity in action.
        let max = *p.samples_per_phase.iter().max().unwrap();
        let min = *p.samples_per_phase.iter().min().unwrap();
        assert!(max > min, "samples per phase: {:?}", p.samples_per_phase);
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
        assert_eq!(PgssSim::new().name(), "PGSS(1M/.05)");
        assert_eq!(PgssSim::with_params(100_000, 0.25).name(), "PGSS(100k/.25)");
    }
}
