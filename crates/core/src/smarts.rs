//! SMARTS: systematic small-sample simulation (Wunderlich et al., ISCA
//! 2003).

use pgss_cpu::{MachineConfig, Mode};
use pgss_stats::{ConfidenceInterval, Welford, Z_95};
use pgss_workloads::Workload;

use crate::ckpt::SimContext;
use crate::driver::{RunTrace, Segment, SimDriver, Track};
use crate::estimate::{ipc_interval_from_cpi, Estimate, Technique};

/// Phase-blind periodic sampling: every `period_ops`, run `warm_ops` of
/// detailed warming followed by `unit_ops` of measured detailed simulation;
/// functionally fast-forward (with cache/predictor warming) in between.
///
/// The whole-program CPI is estimated as the mean of the per-sample CPIs —
/// unbiased for equal-size samples under systematic sampling — and inverted
/// to IPC.
///
/// # Example
///
/// ```no_run
/// use pgss::{Smarts, Technique};
///
/// let w = pgss_workloads::gzip(0.05);
/// let est = Smarts::new().run(&w);
/// assert!(est.samples > 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Smarts {
    /// Measured detailed instructions per sample (the paper: 1,000).
    pub unit_ops: u64,
    /// Detailed-warming instructions before each sample (the paper:
    /// ~3,000).
    pub warm_ops: u64,
    /// Sampling period: one sample is taken per this many retired
    /// instructions (the paper: on the order of 1 M).
    pub period_ops: u64,
}

impl Default for Smarts {
    fn default() -> Smarts {
        Smarts {
            unit_ops: 1_000,
            warm_ops: 3_000,
            period_ops: 1_000_000,
        }
    }
}

impl Smarts {
    /// The paper's configuration: 1k measured + 3k warming per 1M-op
    /// period.
    pub fn new() -> Smarts {
        Smarts::default()
    }

    /// Collects the full systematic sample population: per-sample CPIs in
    /// program order. Shared with [`crate::TurboSmarts`], whose checkpoint
    /// library is exactly this population.
    pub(crate) fn collect_population(
        &self,
        workload: &Workload,
        config: &MachineConfig,
        ctx: &SimContext,
    ) -> (Vec<f64>, pgss_cpu::ModeOps, RunTrace) {
        assert!(self.unit_ops > 0, "unit_ops must be positive");
        assert!(
            self.period_ops > self.unit_ops + self.warm_ops,
            "period must exceed warm + unit ({} + {})",
            self.warm_ops,
            self.unit_ops
        );
        let mut driver = SimDriver::new(workload, config, Track::None, ctx);
        let ff_ops = self.period_ops - self.unit_ops - self.warm_ops;
        let mut cpis = Vec::new();
        // The SMARTS segment cycle: warm → measure → fast-forward, stopping
        // at the first halted segment.
        loop {
            if driver
                .execute(Segment::new(Mode::DetailedWarming, self.warm_ops))
                .halted
            {
                break;
            }
            let sample = driver.execute(Segment::new(Mode::DetailedMeasured, self.unit_ops));
            if sample.complete() {
                cpis.push(sample.cpi());
                driver.trace_mut().samples_taken += 1;
            }
            if sample.halted
                || driver
                    .execute(Segment::new(Mode::Functional, ff_ops))
                    .halted
            {
                break;
            }
        }
        (cpis, driver.mode_ops(), *driver.trace())
    }
}

impl Technique for Smarts {
    fn name(&self) -> String {
        format!("SMARTS({}k/{})", self.period_ops / 1000, self.unit_ops)
    }

    fn run_traced(
        &self,
        workload: &Workload,
        config: &MachineConfig,
        ctx: &SimContext,
    ) -> (Estimate, RunTrace) {
        let (cpis, mode_ops, trace) = self.collect_population(workload, config, ctx);
        assert!(
            !cpis.is_empty(),
            "workload too short for even one SMARTS sample"
        );
        let w: Welford = cpis.iter().copied().collect();
        // SMARTS's own 95 % claim: Gaussian over the per-sample CPI
        // population, delta-mapped into IPC space. Under polymodal phase
        // behaviour this interval understates the true error — which is
        // exactly what `tests/statistical_validation.rs` measures.
        let ci = ipc_interval_from_cpi(ConfidenceInterval::from_welford(&w, Z_95));
        (
            Estimate {
                ipc: 1.0 / w.mean(),
                mode_ops,
                samples: w.count(),
                phases: None,
                ci: Some(ci),
            },
            trace,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::relative_error;
    use crate::FullDetailed;

    #[test]
    fn sample_count_matches_period() {
        let w = pgss_workloads::mesa(0.01);
        let s = Smarts {
            unit_ops: 1_000,
            warm_ops: 3_000,
            period_ops: 100_000,
        };
        let est = s.run(&w);
        let expected = w.nominal_ops() / s.period_ops;
        assert!(
            (est.samples as i64 - expected as i64).unsigned_abs() <= expected / 5 + 2,
            "samples {} vs expected ~{expected}",
            est.samples
        );
    }

    #[test]
    fn detailed_ops_accounting() {
        let w = pgss_workloads::twolf(0.01);
        let s = Smarts {
            unit_ops: 1_000,
            warm_ops: 3_000,
            period_ops: 200_000,
        };
        let est = s.run(&w);
        // Exactly (unit + warm) per sample, modulo the final truncated
        // sample.
        let per_sample = s.unit_ops + s.warm_ops;
        assert!(est.detailed_ops() >= est.samples * per_sample);
        assert!(est.detailed_ops() <= (est.samples + 1) * per_sample);
    }

    #[test]
    fn accurate_on_a_stable_workload() {
        // twolf has tiny IPC variance, so even a short run samples it well.
        let w = pgss_workloads::twolf(0.02);
        let truth = FullDetailed::new().ground_truth(&w);
        let est = Smarts {
            unit_ops: 1_000,
            warm_ops: 3_000,
            period_ops: 50_000,
        }
        .run(&w);
        let err = relative_error(est.ipc, truth.ipc);
        assert!(err < 0.05, "SMARTS error {err:.4} on stable workload");
    }

    #[test]
    #[should_panic(expected = "period must exceed")]
    fn degenerate_period_panics() {
        let w = pgss_workloads::twolf(0.002);
        let _ = Smarts {
            unit_ops: 1_000,
            warm_ops: 3_000,
            period_ops: 2_000,
        }
        .run(&w);
    }
}
