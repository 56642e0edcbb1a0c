//! Online SimPoint (Pereira et al., CODES+ISSS 2005), as evaluated in the
//! paper: online phase detection with one large detailed sample at each
//! phase's first occurrence, under a perfect phase predictor.

use pgss_cpu::{MachineConfig, Mode};
use pgss_stats::weighted_mean;
use pgss_workloads::Workload;

use crate::ckpt::SimContext;
use crate::driver::{RunTrace, Segment, Signature, SimDriver, Track};
use crate::estimate::{Estimate, PhaseSummary, Technique};
use crate::phase::classify_intervals;

/// The online-SimPoint baseline: intervals are classified into phases by
/// BBV similarity *online*, and the **first occurrence** of each phase is
/// detail-simulated in full — one large sample per phase, like offline
/// SimPoint but without the clustering pass.
///
/// The paper grants this technique a *perfect phase predictor* ("the phase
/// profile was known prior to the actual simulation"), so the
/// implementation first derives the phase-per-interval map with a free
/// functional pass, then replays the program, switching to detailed
/// simulation exactly over each phase's first interval. Only that replay's
/// instructions are charged.
///
/// Its weaknesses — which PGSS-Sim addresses — are that a phase's first
/// occurrence may be unrepresentative (warm-up effects), and that every
/// phase costs a full interval of detailed simulation regardless of its
/// stability or frequency.
///
/// # Example
///
/// ```no_run
/// use pgss::{OnlineSimPoint, Technique};
///
/// let w = pgss_workloads::equake(0.05);
/// let est = OnlineSimPoint::new().run(&w);
/// assert!(est.phases.is_some());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineSimPoint {
    /// Interval (sample) size in instructions; the paper tests 1 M, 10 M,
    /// and 100 M, with 100 M best overall.
    pub interval_ops: u64,
    /// Phase-similarity threshold in radians (the paper's best overall:
    /// 0.1 π).
    pub threshold_rad: f64,
    /// Hash seed for the hashed BBV.
    pub hash_seed: u64,
    /// Phase-signature family the oracle pass classifies on: the hashed
    /// branch BBV (default) or Memory Access Vectors.
    pub signature: Signature,
}

impl Default for OnlineSimPoint {
    fn default() -> OnlineSimPoint {
        OnlineSimPoint {
            interval_ops: 1_000_000,
            threshold_rad: crate::threshold(0.10),
            hash_seed: 0x0151,
            signature: Signature::Bbv,
        }
    }
}

impl OnlineSimPoint {
    /// The defaults above (interval 1 M, threshold 0.1 π).
    pub fn new() -> OnlineSimPoint {
        OnlineSimPoint::default()
    }
}

impl Technique for OnlineSimPoint {
    fn name(&self) -> String {
        format!(
            "OnlineSimPoint{}({}M/.{:02.0})",
            self.signature.name_suffix(),
            self.interval_ops / 1_000_000,
            self.threshold_rad / std::f64::consts::PI * 100.0
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
        assert!(self.interval_ops > 0, "interval_ops must be positive");
        // Oracle pass (free, per the paper's perfect-predictor assumption:
        // its mode ops are discarded): classify every interval.
        let mut oracle = SimDriver::new(
            workload,
            config,
            self.signature.hashed_track(self.hash_seed),
            ctx,
        );
        let (table, interval_phases) =
            classify_intervals(&mut oracle, self.interval_ops, self.threshold_rad);
        assert!(
            !interval_phases.is_empty(),
            "workload shorter than one interval"
        );
        let mut trace = *oracle.trace();

        // Charged pass on a fresh machine; only its mode ops are billed:
        // detailed over each phase's first interval, functional (warming)
        // elsewhere, then functionally to the halt (the trailing partial
        // interval is uncounted in the oracle).
        let num_phases = table.phases().len();
        let mut charged = SimDriver::new(workload, config, Track::None, ctx);
        let mut cpi_of_phase = vec![f64::NAN; num_phases];
        let mut seen = vec![false; num_phases];
        for &p in &interval_phases {
            if seen[p] {
                charged.execute(Segment::new(Mode::Functional, self.interval_ops));
                continue;
            }
            seen[p] = true;
            let sample = charged.execute(Segment::new(Mode::DetailedMeasured, self.interval_ops));
            if sample.ops > 0 {
                cpi_of_phase[p] = sample.cpi();
                charged.trace_mut().samples_taken += 1;
            }
        }
        charged.execute(Segment::new(Mode::Functional, u64::MAX));
        trace.merge(charged.trace());

        let weights: Vec<f64> = table.weights();
        let pairs: Vec<(f64, f64)> = cpi_of_phase
            .iter()
            .zip(&weights)
            .filter(|(cpi, _)| cpi.is_finite())
            .map(|(&cpi, &w)| (cpi, w))
            .collect();
        let cpi = weighted_mean(&pairs).expect("at least one phase sampled");

        let samples_per_phase = cpi_of_phase
            .iter()
            .map(|c| u64::from(c.is_finite()))
            .collect();
        let estimate = Estimate {
            ipc: 1.0 / cpi,
            mode_ops: charged.mode_ops(),
            samples: charged.trace().samples_taken,
            phases: Some(PhaseSummary {
                phases: num_phases,
                changes: table.changes(),
                samples_per_phase,
                weights,
            }),
            // One representative sample per phase: no within-phase variance
            // to build a confidence claim from.
            ci: None,
        };
        (estimate, trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::relative_error;
    use crate::FullDetailed;

    fn small() -> OnlineSimPoint {
        OnlineSimPoint {
            interval_ops: 100_000,
            ..OnlineSimPoint::default()
        }
    }

    #[test]
    fn cost_is_one_interval_per_phase() {
        let w = pgss_workloads::wupwise(0.02);
        let est = small().run(&w);
        let p = est.phases.as_ref().unwrap();
        assert_eq!(est.detailed_ops(), est.samples * 100_000);
        assert!(est.samples <= p.phases as u64);
    }

    #[test]
    fn finds_the_two_wupwise_phases() {
        let w = pgss_workloads::wupwise(0.02);
        let est = small().run(&w);
        let p = est.phases.unwrap();
        // Two macro phases (plus possibly a transition phase or two).
        assert!((2..=5).contains(&p.phases), "found {} phases", p.phases);
    }

    #[test]
    fn reasonably_accurate_on_periodic_workload() {
        let w = pgss_workloads::equake(0.02);
        let truth = FullDetailed::new().ground_truth(&w);
        let est = small().run(&w);
        let err = relative_error(est.ipc, truth.ipc);
        assert!(err < 0.25, "error {err:.4}");
    }
}
