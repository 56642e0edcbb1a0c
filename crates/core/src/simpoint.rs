//! Offline SimPoint: k-means over per-interval basic-block vectors, one
//! large representative interval per phase (Sherwood et al., ASPLOS 2002;
//! Hamerly et al., SimPoint 3.0).

use pgss_cluster::{project, KMeans};
use pgss_cpu::{MachineConfig, Mode, ModeOps};
use pgss_stats::weighted_mean;
use pgss_workloads::Workload;

use crate::ckpt::SimContext;
use crate::driver::{Bbv, RunTrace, Segment, Signature, SimDriver, Track};
use crate::estimate::{Estimate, PhaseSummary, Technique};

/// The SimPoint pipeline:
///
/// 1. a functional profiling pass collects one full (per-static-block) BBV
///    per `interval_ops` interval — the offline cost the paper criticises;
/// 2. vectors are randomly projected to `projected_dims` and clustered with
///    k-means (`k` clusters, multiple restarts);
/// 3. the interval closest to each centroid is detail-simulated in a second
///    pass (functional fast-forward to it, then detailed simulation through
///    it);
/// 4. the estimate is the cluster-weighted mean CPI, inverted to IPC.
///
/// The amount of detailed simulation is `k × interval_ops` — two to three
/// orders of magnitude more than PGSS-Sim needs at the paper's parameters.
///
/// # Example
///
/// ```no_run
/// use pgss::{SimPointOffline, Technique};
///
/// let w = pgss_workloads::gzip(0.05);
/// let est = SimPointOffline { interval_ops: 1_000_000, k: 10, ..Default::default() }.run(&w);
/// assert!(est.phases.is_some());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimPointOffline {
    /// Interval (sample) size in instructions; the paper tests 1 M, 10 M,
    /// and 100 M.
    pub interval_ops: u64,
    /// Number of clusters; the paper tests 5, 10, 20, 30, and 300.
    pub k: usize,
    /// Random-projection dimensionality (SimPoint 3.0 default: 15).
    pub projected_dims: usize,
    /// Seed for projection and clustering.
    pub seed: u64,
    /// Profile-pass signature: the full per-static-block BBV (default) or
    /// Memory Access Vectors.
    pub signature: Signature,
}

impl Default for SimPointOffline {
    fn default() -> SimPointOffline {
        SimPointOffline {
            interval_ops: 1_000_000,
            k: 10,
            projected_dims: 15,
            seed: 0x5150,
            signature: Signature::Bbv,
        }
    }
}

impl SimPointOffline {
    /// Collects the per-interval full BBVs with a functional profiling
    /// pass. Public so experiments can reuse one collection across many
    /// `(k, interval)` clusterings, as SimPoint itself does.
    pub fn collect_bbvs(
        &self,
        workload: &Workload,
        config: &MachineConfig,
    ) -> (Vec<Vec<f64>>, ModeOps) {
        let (rows, ops, _) = self.collect_bbvs_traced(workload, config, &SimContext::none());
        (rows, ops)
    }

    fn collect_bbvs_traced(
        &self,
        workload: &Workload,
        config: &MachineConfig,
        ctx: &SimContext,
    ) -> (Vec<Vec<f64>>, ModeOps, RunTrace) {
        assert!(self.interval_ops > 0, "interval_ops must be positive");
        let mut driver = SimDriver::new(workload, config, self.signature.full_track(), ctx);
        let mut rows = Vec::new();
        loop {
            let interval = driver.execute(Segment::with_bbv(Mode::Functional, self.interval_ops));
            // Keep only complete intervals, as SimPoint does.
            if interval.complete() {
                rows.push(match interval.bbv.expect("profile intervals close a BBV") {
                    Bbv::Full(v) => v,
                    // MAV intervals arrive hashed-BBV-shaped; L2-normalise
                    // so clustering sees rates, not interval lengths.
                    Bbv::Hashed(h) => h.normalized().to_vec(),
                });
            }
            if interval.halted || interval.ops == 0 {
                break;
            }
        }
        (rows, driver.mode_ops(), *driver.trace())
    }
}

impl Technique for SimPointOffline {
    fn name(&self) -> String {
        format!(
            "SimPoint{}({}x{}M)",
            self.signature.name_suffix(),
            self.k,
            self.interval_ops / 1_000_000
        )
    }

    fn tracks(&self) -> Vec<Track> {
        vec![self.signature.full_track(), Track::None]
    }

    fn run_traced(
        &self,
        workload: &Workload,
        config: &MachineConfig,
        ctx: &SimContext,
    ) -> (Estimate, RunTrace) {
        let (rows, profile_ops, mut trace) = self.collect_bbvs_traced(workload, config, ctx);
        assert!(
            !rows.is_empty(),
            "workload shorter than one SimPoint interval"
        );
        let projected = project(&rows, self.projected_dims, self.seed);
        let clustering = KMeans::new(self.k).with_seed(self.seed).run(&projected);
        let representatives = clustering.representatives(&projected);
        let weights = clustering.weights();

        // Second pass: detail-simulate exactly the representative intervals.
        let mut chosen: Vec<usize> = representatives.iter().flatten().copied().collect();
        chosen.sort_unstable();
        // Fast-forward to each chosen interval (in program order), then
        // detail-simulate through it and record its CPI.
        let mut replay = SimDriver::new(workload, config, Track::None, ctx);
        let mut cpi_of = vec![f64::NAN; rows.len()];
        // The machine's interval position.
        let mut cursor = 0;
        for &interval in &chosen {
            if interval > cursor {
                let skip = (interval - cursor) as u64 * self.interval_ops;
                replay.execute(Segment::new(Mode::Functional, skip));
            }
            let sample = replay.execute(Segment::new(Mode::DetailedMeasured, self.interval_ops));
            if sample.ops > 0 {
                cpi_of[interval] = sample.cpi();
                replay.trace_mut().samples_taken += 1;
            }
            cursor = cursor.max(interval) + 1;
        }
        trace.merge(replay.trace());

        // Weighted CPI over clusters with a simulated representative.
        let pairs: Vec<(f64, f64)> = representatives
            .iter()
            .zip(&weights)
            .filter_map(|(rep, &w)| rep.map(|r| (cpi_of[r], w)))
            .filter(|(cpi, _)| cpi.is_finite())
            .collect();
        let cpi = weighted_mean(&pairs).expect("at least one simulated representative");

        let mut mode_ops = replay.mode_ops();
        // Charge the offline BBV-profiling pass as functional simulation.
        mode_ops.functional += profile_ops.functional;
        let samples_per_phase: Vec<u64> = representatives
            .iter()
            .map(|r| u64::from(r.is_some()))
            .collect();
        let estimate = Estimate {
            ipc: 1.0 / cpi,
            mode_ops,
            samples: replay.trace().samples_taken,
            phases: Some(PhaseSummary {
                phases: clustering.k(),
                changes: count_changes(clustering.assignments()),
                samples_per_phase,
                weights,
            }),
            // SimPoint is deterministic: one representative per cluster,
            // no sampling-error model, so no confidence claim.
            ci: None,
        };
        (estimate, trace)
    }
}

fn count_changes(assignments: &[u32]) -> u64 {
    assignments.windows(2).filter(|w| w[0] != w[1]).count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::relative_error;
    use crate::FullDetailed;

    fn small() -> SimPointOffline {
        SimPointOffline {
            interval_ops: 100_000,
            k: 5,
            projected_dims: 15,
            seed: 1,
            ..SimPointOffline::default()
        }
    }

    #[test]
    fn detailed_cost_is_k_intervals() {
        let w = pgss_workloads::gzip(0.01);
        let sp = small();
        let est = sp.run(&w);
        assert!(est.samples <= sp.k as u64);
        assert_eq!(est.detailed_ops(), est.samples * sp.interval_ops);
    }

    #[test]
    fn accurate_on_phased_workload() {
        let w = pgss_workloads::wupwise(0.02);
        let truth = FullDetailed::new().ground_truth(&w);
        let est = small().run(&w);
        let err = relative_error(est.ipc, truth.ipc);
        assert!(err < 0.15, "SimPoint error {err:.4}");
    }

    #[test]
    fn phase_summary_present_and_consistent() {
        let w = pgss_workloads::bzip2(0.01);
        let est = small().run(&w);
        let p = est.phases.expect("SimPoint reports phases");
        assert!(p.phases <= 5);
        let total_w: f64 = p.weights.iter().sum();
        assert!((total_w - 1.0).abs() < 1e-9);
    }

    #[test]
    fn bbv_collection_interval_count() {
        let w = pgss_workloads::mesa(0.01);
        let sp = small();
        let (rows, _) = sp.collect_bbvs(&w, &MachineConfig::default());
        let expected = w.nominal_ops() / sp.interval_ops;
        assert!(
            (rows.len() as i64 - expected as i64).unsigned_abs() <= expected / 5 + 2,
            "{} intervals vs ~{expected}",
            rows.len()
        );
    }

    #[test]
    fn count_changes_counts_transitions() {
        assert_eq!(count_changes(&[0, 0, 1, 1, 0]), 2);
        assert_eq!(count_changes(&[7]), 0);
        assert_eq!(count_changes(&[]), 0);
    }
}
