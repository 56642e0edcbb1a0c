//! Common result types and the [`Technique`] trait.

use pgss_cpu::{MachineConfig, ModeOps};
use pgss_stats::ConfidenceInterval;
use pgss_workloads::Workload;

use crate::ckpt::SimContext;
use crate::driver::{RunTrace, Track};

/// The exhaustively-simulated reference an [`Estimate`] is judged against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroundTruth {
    /// True whole-program IPC (total instructions / total cycles).
    pub ipc: f64,
    /// Total retired instructions.
    pub total_ops: u64,
    /// Total cycles.
    pub cycles: u64,
}

/// Summary of the phase structure a technique discovered (absent for
/// phase-blind techniques).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSummary {
    /// Number of distinct phases.
    pub phases: usize,
    /// Number of interval-to-interval phase transitions observed.
    pub changes: u64,
    /// Detailed samples taken per phase.
    pub samples_per_phase: Vec<u64>,
    /// Instruction weight per phase (fraction of total).
    pub weights: Vec<f64>,
}

/// A sampled-simulation result: the performance prediction plus exactly
/// what it cost.
#[derive(Debug, Clone, PartialEq)]
pub struct Estimate {
    /// Predicted whole-program IPC.
    pub ipc: f64,
    /// Retired instructions per simulation mode across every pass the
    /// technique ran; [`ModeOps::detailed`] is the paper's cost metric.
    pub mode_ops: ModeOps,
    /// Number of detailed samples (or simulated phase intervals) behind the
    /// estimate.
    pub samples: u64,
    /// Phase structure, for phase-aware techniques.
    pub phases: Option<PhaseSummary>,
    /// The technique's own 95 % confidence claim on `ipc`
    /// ([`pgss_stats::Z_95`], delta-method mapped from CPI space), when
    /// the technique's statistical model supports one: SMARTS/TurboSMARTS
    /// report the Gaussian interval over their sample population, PGSS
    /// composes per-phase stratified intervals. Deterministic techniques
    /// with no sampling-error model (full detail, SimPoint variants)
    /// report `None`. `tests/statistical_validation.rs` empirically
    /// checks the coverage of these claims against ground truth — the
    /// paper's point is that the SMARTS claim is *unreliable* under
    /// polymodal phase behaviour.
    pub ci: Option<ConfidenceInterval>,
}

impl Estimate {
    /// Instructions that required cycle-level simulation (warming +
    /// measured): the paper's "amount of detailed simulation".
    pub fn detailed_ops(&self) -> u64 {
        self.mode_ops.detailed()
    }

    /// Relative IPC error against `truth` (see [`relative_error`]).
    pub fn error_vs(&self, truth: &GroundTruth) -> f64 {
        relative_error(self.ipc, truth.ipc)
    }
}

/// Maps a CPI-space confidence interval into IPC space via the delta
/// method: for `ipc = 1/cpi` the derivative magnitude is `ipc²`, so
/// `hw_ipc ≈ hw_cpi · ipc²`. Every technique's sampling statistics live in
/// CPI space (the machine reports cycles per retired op), so this is the
/// one place the CPI→IPC error transformation happens.
pub(crate) fn ipc_interval_from_cpi(cpi_ci: ConfidenceInterval) -> ConfidenceInterval {
    let ipc = 1.0 / cpi_ci.mean;
    ConfidenceInterval {
        mean: ipc,
        half_width: cpi_ci.half_width * ipc * ipc,
        n: cpi_ci.n,
    }
}

/// A sampling period as it appears in technique names: `"1M"` for whole
/// millions of ops, `"100k"` otherwise.
pub(crate) fn period_label(ops: u64) -> String {
    if ops.is_multiple_of(1_000_000) {
        format!("{}M", ops / 1_000_000)
    } else {
        format!("{}k", ops / 1_000)
    }
}

/// `|estimate − truth| / truth`, the paper's "sampling error as a percent
/// of benchmark IPC" (before the ×100).
///
/// # Panics
///
/// Panics if `truth` is not a positive, finite IPC.
pub fn relative_error(estimate: f64, truth: f64) -> f64 {
    assert!(
        truth.is_finite() && truth > 0.0,
        "ground-truth IPC must be positive, got {truth}"
    );
    (estimate - truth).abs() / truth
}

/// A sampled-simulation technique: given a workload, a machine
/// configuration and a [`SimContext`], produce an [`Estimate`].
///
/// All techniques in this crate implement the trait, so comparison
/// harnesses can sweep a `Vec<Box<dyn Technique>>`.
pub trait Technique {
    /// Human-readable name including salient parameters, e.g.
    /// `"PGSS(1M/.05)"`.
    fn name(&self) -> String;

    /// Runs the technique against `workload` on a machine built with
    /// `config`, returning the estimate and the merged [`RunTrace`] of
    /// its [`crate::driver::SimDriver`] passes.
    ///
    /// Every pass is built bound to `ctx`
    /// ([`crate::driver::SimDriver::new`]). With a checkpoint ladder in
    /// `ctx`, functional fast-forwarding becomes snapshot restores: the
    /// estimate and trace stay identical, only physical work (tracked by
    /// the ladder) shrinks.
    fn run_traced(
        &self,
        workload: &Workload,
        config: &MachineConfig,
        ctx: &SimContext,
    ) -> (Estimate, RunTrace);

    /// The BBV tracks this technique's driver passes use — the union a
    /// checkpoint ladder must carry (see [`crate::ckpt::LadderSpec`]) for
    /// every pass to be jump-eligible. Techniques that track nothing
    /// report `[Track::None]`.
    fn tracks(&self) -> Vec<Track> {
        vec![Track::None]
    }

    /// Runs with the paper's default machine configuration and no
    /// context ([`SimContext::none`]).
    fn run(&self, workload: &Workload) -> Estimate {
        self.run_traced(workload, &MachineConfig::default(), &SimContext::none())
            .0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_error_basics() {
        assert!((relative_error(1.1, 1.0) - 0.1).abs() < 1e-12);
        assert!((relative_error(0.9, 1.0) - 0.1).abs() < 1e-12);
        assert_eq!(relative_error(2.0, 2.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_truth_panics() {
        let _ = relative_error(1.0, 0.0);
    }

    #[test]
    fn estimate_cost_is_detailed_modes_only() {
        let e = Estimate {
            ipc: 1.0,
            mode_ops: ModeOps {
                fast_forward: 10,
                functional: 100,
                detailed_warming: 30,
                detailed_measured: 10,
            },
            samples: 10,
            phases: None,
            ci: None,
        };
        assert_eq!(e.detailed_ops(), 40);
    }
}
