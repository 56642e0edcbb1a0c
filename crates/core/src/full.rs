//! Exhaustive detailed simulation: the ground truth.

use pgss_cpu::{MachineConfig, Mode};
use pgss_workloads::Workload;

use crate::ckpt::SimContext;
use crate::driver::{RunTrace, Segment, SimDriver, Track};
use crate::estimate::{Estimate, GroundTruth, Technique};

/// Full cycle-level simulation of the entire workload.
///
/// This is what sampled simulation exists to avoid; the experiments run it
/// once per workload to obtain the reference IPC every estimate is judged
/// against.
///
/// # Example
///
/// ```no_run
/// use pgss::FullDetailed;
///
/// let w = pgss_workloads::twolf(0.05);
/// let truth = FullDetailed::new().ground_truth(&w);
/// assert!(truth.ipc > 0.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FullDetailed;

impl FullDetailed {
    /// Creates the technique.
    pub fn new() -> FullDetailed {
        FullDetailed
    }

    /// Runs the full simulation and returns the reference result.
    pub fn ground_truth(&self, workload: &Workload) -> GroundTruth {
        self.ground_truth_traced(workload, &MachineConfig::default(), &SimContext::none())
            .0
    }

    fn ground_truth_traced(
        &self,
        workload: &Workload,
        config: &MachineConfig,
        ctx: &SimContext,
    ) -> (GroundTruth, RunTrace) {
        let mut driver = SimDriver::new(workload, config, Track::None, ctx);
        let (mut total_ops, mut cycles) = (0, 0);
        // Detailed simulation in bounded chunks until the program halts,
        // so pathological schedules cannot hang the harness.
        loop {
            let chunk = driver.execute(Segment::new(Mode::DetailedMeasured, 1 << 24));
            total_ops += chunk.ops;
            cycles += chunk.cycles;
            if chunk.halted || chunk.ops == 0 {
                break;
            }
        }
        assert!(cycles > 0, "workload retired no instructions");
        let truth = GroundTruth {
            ipc: total_ops as f64 / cycles as f64,
            total_ops,
            cycles,
        };
        (truth, *driver.trace())
    }
}

impl Technique for FullDetailed {
    fn name(&self) -> String {
        "FullDetailed".to_string()
    }

    fn run_traced(
        &self,
        workload: &Workload,
        config: &MachineConfig,
        ctx: &SimContext,
    ) -> (Estimate, RunTrace) {
        let (truth, mut trace) = self.ground_truth_traced(workload, config, ctx);
        trace.samples_taken = 1;
        let estimate = Estimate {
            ipc: truth.ipc,
            mode_ops: pgss_cpu::ModeOps {
                detailed_measured: truth.total_ops,
                ..Default::default()
            },
            samples: 1,
            phases: None,
            // Exhaustive simulation has no sampling error to claim.
            ci: None,
        };
        (estimate, trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truth_matches_direct_simulation() {
        let w = pgss_workloads::mesa(0.002);
        let truth = FullDetailed::new().ground_truth(&w);
        let mut m = w.machine();
        let r = m.run(Mode::DetailedMeasured, u64::MAX);
        assert!(r.halted);
        assert_eq!(truth.total_ops, r.ops);
        assert!((truth.ipc - r.ipc()).abs() < 1e-9);
    }

    #[test]
    fn technique_estimate_is_exact() {
        let w = pgss_workloads::twolf(0.002);
        let truth = FullDetailed::new().ground_truth(&w);
        let est = FullDetailed::new().run(&w);
        assert_eq!(est.ipc, truth.ipc);
        assert_eq!(est.error_vs(&truth), 0.0);
        assert_eq!(est.detailed_ops(), truth.total_ops);
    }
}
