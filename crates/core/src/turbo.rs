//! TurboSMARTS: checkpointed samples consumed in random order until the
//! Gaussian confidence bound claims convergence (Wenisch et al., ISPASS
//! 2006).

use pgss_cpu::{MachineConfig, Mode, ModeOps};
use pgss_stats::{ConfidenceInterval, DetRng, Welford, Z_95, Z_997};
use pgss_workloads::Workload;

use crate::ckpt::SimContext;
use crate::driver::{RunTrace, Segment, SimDriver, Track};
use crate::estimate::{ipc_interval_from_cpi, Estimate, Technique};
use crate::smarts::Smarts;

/// TurboSMARTS: the SMARTS sample *population* is materialised as live
/// checkpoints — the functionally warmed machine state at each sample's
/// start, copied into a replay machine — and samples are simulated from
/// restored checkpoints, in random order, until a `z·s/√n` confidence
/// interval is within `target_rel` of the mean CPI. Only consumed samples
/// are charged as detailed simulation — the paper's accounting, with the
/// checkpoint-library creation treated as amortised offline work.
///
/// Unlike an eager implementation that simulates the whole population
/// up front, checkpoints are captured lazily in doubling batches of the
/// random consumption order, so a run that converges after `k` samples
/// simulates `O(k)` samples in detail rather than all of them. Restores
/// are bit-exact, so the estimate is identical to one computed from
/// inline SMARTS samples.
///
/// The stopping rule assumes the sample population is Gaussian. Programs
/// with phases have *polymodal* populations, so the claimed bound is
/// routinely violated — exactly the pathology the paper demonstrates and
/// PGSS-Sim fixes by stratifying per phase.
///
/// # Example
///
/// ```no_run
/// use pgss::{Technique, TurboSmarts};
///
/// let w = pgss_workloads::wupwise(0.05);
/// let est = TurboSmarts::new().run(&w);
/// // Far fewer samples than full SMARTS would take…
/// assert!(est.samples > 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TurboSmarts {
    /// The underlying SMARTS sampling parameters (population definition).
    pub smarts: Smarts,
    /// Relative confidence target (the paper: 0.03 for ±3 %).
    pub target_rel: f64,
    /// z-score (the paper: 3.0 for 99.7 % confidence).
    pub z: f64,
    /// Minimum consumed samples before the bound may stop sampling.
    pub min_samples: u64,
    /// Seed for the random consumption order.
    pub seed: u64,
}

impl Default for TurboSmarts {
    fn default() -> TurboSmarts {
        TurboSmarts {
            smarts: Smarts::default(),
            target_rel: 0.03,
            z: Z_997,
            min_samples: 8,
            seed: 0x7572_626F,
        }
    }
}

impl TurboSmarts {
    /// The paper's configuration: ±3 % at 99.7 % confidence over the
    /// default SMARTS population.
    pub fn new() -> TurboSmarts {
        TurboSmarts::default()
    }
}

impl Technique for TurboSmarts {
    fn name(&self) -> String {
        format!(
            "TurboSMARTS({}k/{:.0}%)",
            self.smarts.period_ops / 1000,
            self.target_rel * 100.0
        )
    }

    fn run_with(&self, workload: &Workload, config: &MachineConfig) -> Estimate {
        self.run_traced(workload, config).0
    }

    fn run_traced(&self, workload: &Workload, config: &MachineConfig) -> (Estimate, RunTrace) {
        self.run_traced_ctx(workload, config, &SimContext::none())
    }

    fn run_traced_ctx(
        &self,
        workload: &Workload,
        config: &MachineConfig,
        ctx: &SimContext,
    ) -> (Estimate, RunTrace) {
        let s = self.smarts;
        assert!(s.unit_ops > 0, "unit_ops must be positive");
        assert!(
            s.period_ops > s.unit_ops + s.warm_ops,
            "period must exceed warm + unit ({} + {})",
            s.warm_ops,
            s.unit_ops
        );
        let attach = |d: &mut SimDriver| ctx.bind(d);

        // One functional pass determines the program length, and with it
        // the sample population: sample i starts (warming) at i·period
        // and is in the population iff its measured unit fits before the
        // halt. With a campaign ladder attached this pass is almost
        // entirely jumped.
        let mut length_pass = SimDriver::new(workload, config, Track::None);
        attach(&mut length_pass);
        length_pass.execute(Segment::new(Mode::Functional, u64::MAX));
        let total = length_pass.retired();
        let span = s.warm_ops + s.unit_ops;
        let population = if total >= span {
            (total - span) / s.period_ops + 1
        } else {
            0
        };
        assert!(population > 0, "workload too short for even one sample");

        let mut order: Vec<usize> = (0..population as usize).collect();
        DetRng::seed_from_u64(self.seed).shuffle(&mut order);

        // Consume the shuffled order in doubling batches. Each batch is
        // captured in ascending program order — one functional walk
        // stopping at each sample start, where the capture machine's state
        // is copied into the replay driver and replayed (warm → measure)
        // immediately — then its CPIs are fed to the estimator in the
        // shuffled order, stopping as soon as the bound closes. The length
        // pass's driver, already bound, is the replay driver for the whole
        // run: each sample overwrites its buffers in place, so no snapshot
        // (and no memory image) is ever built, and its trace accumulates
        // every replay.
        let mut replay = length_pass;
        let mut trace = RunTrace::default();
        let mut cpis: Vec<Option<f64>> = vec![None; population as usize];
        let mut w = Welford::new();
        let mut consumed = 0u64;
        let mut issued = 0usize;
        'rounds: while issued < order.len() {
            let want = if issued == 0 {
                (self.min_samples.max(1) as usize).min(order.len())
            } else {
                issued.min(order.len() - issued)
            };
            let round = &order[issued..issued + want];
            let mut positions: Vec<usize> = round.to_vec();
            positions.sort_unstable();
            let mut capture = SimDriver::new(workload, config, Track::None);
            attach(&mut capture);
            for &i in &positions {
                let pos = i as u64 * s.period_ops;
                if pos > capture.retired() {
                    capture.execute(Segment::new(Mode::Functional, pos - capture.retired()));
                }
                debug_assert_eq!(capture.retired(), pos);
                replay.restore_from(&capture);
                replay.execute(Segment::new(Mode::DetailedWarming, s.warm_ops));
                let measured = replay.execute(Segment::new(Mode::DetailedMeasured, s.unit_ops));
                assert!(measured.complete(), "population samples fit before halt");
                cpis[i] = Some(measured.cpi());
            }
            trace.merge(capture.trace());
            for &i in round {
                w.push(cpis[i].expect("computed this round"));
                consumed += 1;
                if consumed >= self.min_samples
                    && ConfidenceInterval::from_welford(&w, self.z).meets_relative(self.target_rel)
                {
                    break 'rounds;
                }
            }
            issued += want;
        }
        trace.merge(replay.trace());

        // Cost accounting: each consumed live-point costs its warming +
        // measured instructions of detailed simulation. Checkpoint-library
        // creation is offline and amortised (the paper's accounting); the
        // functional column is reported as zero because checkpoint loading
        // replaces fast-forwarding.
        let mode_ops = ModeOps {
            detailed_warming: consumed * s.warm_ops,
            detailed_measured: consumed * s.unit_ops,
            ..Default::default()
        };
        // The trace mirrors the accounting: of the population, `consumed`
        // samples were actually charged; the rest were skipped because
        // the confidence bound closed first.
        trace.samples_taken = consumed;
        trace.skipped_ci_met = population - consumed;
        (
            Estimate {
                ipc: 1.0 / w.mean(),
                mode_ops,
                samples: consumed,
                phases: None,
                // Same statistical model as SMARTS (Gaussian over the
                // consumed CPI samples), reported at 95 % regardless of the
                // z the stopping rule targeted.
                ci: Some(ipc_interval_from_cpi(ConfidenceInterval::from_welford(
                    &w, Z_95,
                ))),
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
    fn consumes_fewer_samples_than_population() {
        // A perfectly uniform compute workload: every sample has the same
        // CPI, so the confidence bound closes at min_samples.
        let mut b = pgss_workloads::WorkloadBuilder::new("uniform", 3);
        let seg = b.add_segment(pgss_workloads::Kernel::ComputeInt {
            chains: 4,
            ops_per_chain: 3,
        });
        b.run(seg, 3_000_000);
        let w = b.finish();
        let smarts = Smarts {
            period_ops: 20_000,
            ..Smarts::default()
        };
        let full = smarts.run(&w);
        let turbo = TurboSmarts {
            smarts,
            ..TurboSmarts::default()
        }
        .run(&w);
        assert!(
            turbo.samples < full.samples,
            "turbo consumed {} of {} samples",
            turbo.samples,
            full.samples
        );
        assert!(turbo.detailed_ops() < full.detailed_ops());
    }

    #[test]
    fn stable_workload_converges_fast_and_accurately() {
        let w = pgss_workloads::twolf(0.02);
        let truth = FullDetailed::new().ground_truth(&w);
        let smarts = Smarts {
            period_ops: 50_000,
            ..Smarts::default()
        };
        let est = TurboSmarts {
            smarts,
            ..TurboSmarts::default()
        }
        .run(&w);
        // twolf's tiny variance means the bound is honest here.
        let err = relative_error(est.ipc, truth.ipc);
        assert!(err < 0.1, "error {err:.4}");
        assert!(est.samples < 200, "needed {} samples", est.samples);
    }

    #[test]
    fn deterministic_given_seed() {
        let w = pgss_workloads::gzip(0.01);
        let a = TurboSmarts::new().run(&w);
        let b = TurboSmarts::new().run(&w);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seed_changes_consumption_order() {
        let w = pgss_workloads::gzip(0.01);
        let a = TurboSmarts::new().run(&w);
        let b = TurboSmarts {
            seed: 999,
            ..TurboSmarts::new()
        }
        .run(&w);
        // Same population, different order: sample counts usually differ on
        // a phased workload; at minimum the estimates must both be finite.
        assert!(a.ipc.is_finite() && b.ipc.is_finite());
    }

    #[test]
    fn matches_inline_smarts_population_mean_when_consuming_everything() {
        // Force full consumption with an unreachable confidence target:
        // the checkpoint-replayed population mean must equal the mean of
        // the same samples taken inline by SMARTS — the bit-exact restore
        // guarantee, observed end to end.
        let w = pgss_workloads::gzip(0.01);
        let smarts = Smarts {
            period_ops: 100_000,
            ..Smarts::default()
        };
        let (inline_cpis, _, _) =
            smarts.collect_population(&w, &MachineConfig::default(), &SimContext::none());
        let turbo = TurboSmarts {
            smarts,
            target_rel: 0.0,
            ..TurboSmarts::new()
        }
        .run(&w);
        assert_eq!(turbo.samples, inline_cpis.len() as u64);
        let mean: f64 = inline_cpis.iter().sum::<f64>() / inline_cpis.len() as f64;
        let wf: Welford = {
            let mut order: Vec<usize> = (0..inline_cpis.len()).collect();
            DetRng::seed_from_u64(TurboSmarts::new().seed).shuffle(&mut order);
            order.iter().map(|&i| inline_cpis[i]).collect()
        };
        assert_eq!(turbo.ipc.to_bits(), (1.0 / wf.mean()).to_bits());
        assert!((1.0 / turbo.ipc - mean).abs() < 1e-12);
    }
}
