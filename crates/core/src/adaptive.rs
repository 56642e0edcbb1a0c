//! Automatic per-benchmark threshold selection — the paper's first "future
//! work" item, implemented.
//!
//! Section 7: *"Since the optimal parameters for PGSS-Sim vary between
//! benchmarks, these parameters must be automatically adjusted to each
//! benchmark either in some sort of offline analysis of the benchmark or
//! ideally, the algorithm would adapt at runtime to program
//! characteristics."*
//!
//! [`AdaptivePgss`] does the offline-pilot variant, cheaply: a short
//! *functional-only* pilot pass (no detailed simulation at all) collects the
//! distribution of consecutive-interval hashed-BBV angles, and the threshold
//! is placed between the "within-phase jitter" mass and the "phase change"
//! mass of that distribution using 1-D 2-means clustering. PGSS-Sim then
//! runs with the tuned threshold. The pilot's instructions are charged as
//! functional simulation.

use pgss_bbv::HashedBbv;
use pgss_cluster::KMeans;
use pgss_cpu::{MachineConfig, Mode};
use pgss_workloads::Workload;

use crate::ckpt::SimContext;
use crate::driver::{RunTrace, Segment, SimDriver, Track};
use crate::estimate::{Estimate, Technique};
use crate::pgss_sim::PgssSim;

/// PGSS-Sim with a self-tuned phase threshold.
///
/// # Example
///
/// ```no_run
/// use pgss::{AdaptivePgss, Technique};
///
/// let w = pgss_workloads::bzip2(0.25);
/// let est = AdaptivePgss::new().run(&w);
/// println!("tuned estimate: {:.3} IPC", est.ipc);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptivePgss {
    /// The PGSS configuration to run after tuning; its `threshold_rad` is
    /// replaced by the tuned value.
    pub base: PgssSim,
    /// Fraction of the workload's nominal length used for the pilot pass
    /// (default 0.1).
    pub pilot_fraction: f64,
    /// Lower clamp for the tuned threshold, in radians (default 0.02π).
    pub min_threshold: f64,
    /// Upper clamp for the tuned threshold, in radians (default 0.30π).
    pub max_threshold: f64,
}

impl Default for AdaptivePgss {
    fn default() -> AdaptivePgss {
        AdaptivePgss {
            base: PgssSim::default(),
            pilot_fraction: 0.1,
            min_threshold: crate::threshold(0.02),
            max_threshold: crate::threshold(0.30),
        }
    }
}

impl AdaptivePgss {
    /// Tuning over the paper's default PGSS configuration.
    pub fn new() -> AdaptivePgss {
        AdaptivePgss::default()
    }

    /// Runs the functional pilot and returns the tuned threshold in
    /// radians, together with the pilot's retired-instruction count.
    ///
    /// With fewer than four pilot intervals (or an angle distribution with
    /// no separable "change" mass), the base configuration's threshold is
    /// returned unchanged.
    pub fn tune(&self, workload: &Workload, config: &MachineConfig) -> (f64, u64) {
        let (t, spent, _) = self.tune_traced(workload, config, &SimContext::none());
        (t, spent)
    }

    fn tune_traced(
        &self,
        workload: &Workload,
        config: &MachineConfig,
        ctx: &SimContext,
    ) -> (f64, u64, RunTrace) {
        let mut driver = SimDriver::new(workload, config, Track::Hashed(self.base.hash_seed), ctx);
        // The functional pilot: consume BBV intervals until the op budget
        // is spent (or the program halts), collecting consecutive-interval
        // angles.
        let budget = (workload.nominal_ops() as f64 * self.pilot_fraction) as u64;
        let mut spent = 0;
        let mut angles = Vec::new();
        let mut prev: Option<HashedBbv> = None;
        while spent < budget {
            let interval = driver.execute(Segment::with_bbv(Mode::Functional, self.base.ff_ops));
            spent += interval.ops;
            if interval.complete() {
                let bbv = interval
                    .bbv
                    .as_ref()
                    .expect("pilot intervals close a BBV")
                    .hashed();
                if let Some(p) = &prev {
                    angles.push(bbv.angle(p));
                }
                prev = Some(*bbv);
            }
            if interval.halted || interval.ops == 0 {
                break;
            }
        }
        let trace = *driver.trace();
        if angles.len() < 4 {
            return (self.base.threshold_rad, spent, trace);
        }
        // 1-D 2-means: jitter cluster vs change cluster.
        let rows: Vec<Vec<f64>> = angles.iter().map(|&a| vec![a]).collect();
        let clustering = KMeans::new(2).with_seed(1).run(&rows);
        let mut centroids: Vec<f64> = clustering.centroids().iter().map(|c| c[0]).collect();
        centroids.sort_by(|a, b| a.partial_cmp(b).expect("finite angles"));
        let threshold = if centroids.len() < 2 || centroids[1] - centroids[0] < 1e-3 {
            // No separable change mass: a single stable phase. Any
            // reasonable threshold works; keep the default.
            self.base.threshold_rad
        } else {
            // Place the threshold between the two masses, biased toward the
            // jitter cluster as the paper recommends keeping thresholds
            // tight.
            centroids[0] + 0.35 * (centroids[1] - centroids[0])
        };
        (
            threshold.clamp(self.min_threshold, self.max_threshold),
            spent,
            trace,
        )
    }
}

impl Technique for AdaptivePgss {
    fn name(&self) -> String {
        format!("AdaptivePGSS({}M)", self.base.ff_ops / 1_000_000)
    }

    fn tracks(&self) -> Vec<Track> {
        vec![Track::Hashed(self.base.hash_seed)]
    }

    fn run_traced(
        &self,
        workload: &Workload,
        config: &MachineConfig,
        ctx: &SimContext,
    ) -> (Estimate, RunTrace) {
        let (threshold_rad, pilot_ops, mut trace) = self.tune_traced(workload, config, ctx);
        let tuned = PgssSim {
            threshold_rad,
            ..self.base
        };
        let (mut est, pgss_trace) = tuned.run_traced(workload, config, ctx);
        trace.merge(&pgss_trace);
        est.mode_ops.functional += pilot_ops;
        (est, trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FullDetailed;

    #[test]
    fn tunes_a_sane_threshold_on_phased_workload() {
        let w = pgss_workloads::wupwise(0.05);
        let a = AdaptivePgss {
            base: PgssSim {
                ff_ops: 100_000,
                spacing_ops: 200_000,
                ..PgssSim::default()
            },
            ..AdaptivePgss::default()
        };
        let (t, pilot_ops) = a.tune(&w, &MachineConfig::default());
        assert!(
            t >= a.min_threshold && t <= a.max_threshold,
            "threshold {t}"
        );
        assert!(pilot_ops > 0);
    }

    #[test]
    fn pilot_cost_is_charged_as_functional() {
        let w = pgss_workloads::gzip(0.02);
        let a = AdaptivePgss {
            base: PgssSim {
                ff_ops: 100_000,
                spacing_ops: 200_000,
                ..PgssSim::default()
            },
            ..AdaptivePgss::default()
        };
        let plain = a.base.run(&w);
        let adaptive = a.run(&w);
        assert!(adaptive.mode_ops.functional > plain.mode_ops.functional);
        // Tuning never adds detailed simulation beyond what PGSS itself
        // chooses to take.
        assert!(adaptive.detailed_ops() <= plain.detailed_ops() * 3);
    }

    #[test]
    fn accuracy_is_competitive_with_default_threshold() {
        let w = pgss_workloads::equake(0.05);
        let truth = FullDetailed::new().ground_truth(&w);
        let base = PgssSim {
            ff_ops: 100_000,
            spacing_ops: 200_000,
            ..PgssSim::default()
        };
        let plain = base.run(&w);
        let adaptive = AdaptivePgss {
            base,
            ..AdaptivePgss::default()
        }
        .run(&w);
        // Tuning must not be catastrophically worse than the paper default.
        assert!(
            adaptive.error_vs(&truth) < plain.error_vs(&truth) + 0.1,
            "adaptive {:.4} vs plain {:.4}",
            adaptive.error_vs(&truth),
            plain.error_vs(&truth)
        );
    }

    #[test]
    fn single_phase_workload_keeps_default() {
        let mut b = pgss_workloads::WorkloadBuilder::new("uniform", 9);
        let seg = b.add_segment(pgss_workloads::Kernel::ComputeInt {
            chains: 4,
            ops_per_chain: 3,
        });
        b.run(seg, 2_000_000);
        let w = b.finish();
        let a = AdaptivePgss {
            base: PgssSim {
                ff_ops: 100_000,
                ..PgssSim::default()
            },
            ..AdaptivePgss::default()
        };
        let (t, _) = a.tune(&w, &MachineConfig::default());
        // Degenerate angle distribution: default threshold retained (up to
        // clamping).
        let expected = a.base.threshold_rad.clamp(a.min_threshold, a.max_threshold);
        assert!(
            (t - expected).abs() < 1e-9,
            "tuned {t} vs expected {expected}"
        );
    }
}
