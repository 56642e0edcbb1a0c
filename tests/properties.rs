//! Workspace-level property tests: invariants that must hold for
//! *arbitrary* workloads and parameters, spanning the whole stack. Each
//! property runs over seeded [`DetRng`] workloads, so a failure
//! reproduces from its case number alone.
//!
//! The snapshot round-trip property runs in `tests/checkpoints.rs`, next
//! to the in-place restore paths it covers.

mod util;

use pgss::{PgssSim, Smarts, Technique};
use pgss_cpu::Mode;
use pgss_stats::DetRng;
use pgss_workloads::Workload;

/// Random workloads per property.
const CASES: usize = 24;

/// `CASES` random workloads from `seed`, numbered for failure messages.
fn workloads(seed: u64) -> impl Iterator<Item = (usize, Workload)> {
    let mut rng = DetRng::seed_from_u64(seed);
    (0..CASES).map(move |case| (case, util::random_workload(&mut rng)))
}

/// Every generated workload halts near its nominal length, in every
/// mode, with identical retirement counts.
#[test]
fn workloads_halt_consistently_across_modes() {
    for (case, w) in workloads(0x9a17_0001) {
        let budget = w.nominal_ops() * 2 + 10_000;
        let rf = w.machine().run(Mode::Functional, budget);
        assert!(rf.halted, "case {case}: functional run did not halt");
        let rd = w.machine().run(Mode::DetailedMeasured, budget);
        assert!(rd.halted, "case {case}: detailed run did not halt");
        assert_eq!(rf.ops, rd.ops, "case {case}");
        // Schedule planning is accurate to ~20% on arbitrary kernels.
        let rel = (rf.ops as f64 - w.nominal_ops() as f64).abs() / w.nominal_ops() as f64;
        assert!(
            rel < 0.2,
            "case {case}: ops {} vs nominal {}",
            rf.ops,
            w.nominal_ops()
        );
    }
}

/// IPC is always within the machine's issue width, and cycles are
/// monotone in retired work.
#[test]
fn detailed_ipc_is_physical() {
    for (case, w) in workloads(0x9a17_0002) {
        let r = w.machine().run(Mode::DetailedMeasured, u64::MAX);
        assert!(r.halted, "case {case}");
        assert!(r.cycles >= r.ops / 4, "case {case}: IPC above issue width");
        assert!(r.cycles > 0, "case {case}");
    }
}

/// SMARTS and PGSS produce finite, physical estimates on arbitrary
/// workloads — no panics, no NaNs, no zero-sample collapses — and PGSS
/// never uses more detailed simulation than SMARTS at matched periods.
#[test]
fn estimators_are_total_and_ordered() {
    let smarts = Smarts {
        period_ops: 20_000,
        ..Smarts::default()
    };
    let pgss = PgssSim {
        ff_ops: 20_000,
        spacing_ops: 60_000,
        ..PgssSim::default()
    };
    for (case, w) in workloads(0x9a17_0003) {
        let (s, p) = (smarts.run(&w), pgss.run(&w));
        for (name, ipc) in [("SMARTS", s.ipc), ("PGSS", p.ipc)] {
            assert!(
                ipc.is_finite() && ipc > 0.0 && ipc <= 4.0,
                "case {case}: {name} IPC {ipc}"
            );
        }
        assert!(
            p.detailed_ops() <= s.detailed_ops() + 4000,
            "case {case}: PGSS {} > SMARTS {}",
            p.detailed_ops(),
            s.detailed_ops()
        );
        // Phase weights are a distribution.
        let total: f64 = p.phases.expect("pgss reports phases").weights.iter().sum();
        assert!(
            (total - 1.0).abs() < 1e-6,
            "case {case}: weights sum {total}"
        );
    }
}
