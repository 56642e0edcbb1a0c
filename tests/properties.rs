//! Workspace-level property-based tests: invariants that must hold for
//! *arbitrary* workloads and parameters, spanning the whole stack.
//!
//! The snapshot round-trip property runs offline as a seeded loop in
//! `tests/checkpoints.rs`, next to the in-place restore paths it covers.

use pgss::{PgssSim, Smarts, Technique};
use pgss_cpu::Mode;
use pgss_workloads::{Kernel, WorkloadBuilder};
use proptest::prelude::*;

/// An arbitrary kernel with small-but-meaningful parameters.
fn arb_kernel() -> impl Strategy<Value = Kernel> {
    prop_oneof![
        (1024usize..32768, 1usize..4, 0u32..4).prop_map(|(r, s, c)| Kernel::Stream {
            region_words: r.max(s * 8 + 1) * 2,
            stride_words: s,
            compute_per_load: c,
        }),
        (256usize..16384, 1u32..4, 0u32..6).prop_map(|(r, ch, c)| Kernel::Chase {
            ring_words: r,
            chains: ch,
            compute_per_step: c,
        }),
        (1u32..8, 1u32..6).prop_map(|(ch, o)| Kernel::ComputeInt {
            chains: ch,
            ops_per_chain: o
        }),
        (1u32..8, 1u32..5).prop_map(|(ch, o)| Kernel::ComputeFp {
            chains: ch,
            ops_per_chain: o
        }),
        (64usize..4096, any::<u8>(), 0u32..4).prop_map(|(t, bias, w)| Kernel::Branchy {
            table_words: t,
            bias,
            work_per_side: w,
        }),
        (1024usize..32768, 1usize..4).prop_map(|(r, s)| Kernel::StoreStream {
            region_words: r.max(s * 8 + 1) * 2,
            stride_words: s,
        }),
    ]
}

/// An arbitrary workload: 1–4 segments, 2–8 schedule entries of 20k–200k
/// ops each.
fn arb_workload() -> impl Strategy<Value = pgss_workloads::Workload> {
    (
        proptest::collection::vec(arb_kernel(), 1..4),
        proptest::collection::vec((0usize..4, 20_000u64..200_000), 2..8),
        any::<u64>(),
    )
        .prop_map(|(kernels, schedule, seed)| {
            let mut b = WorkloadBuilder::new("prop", seed);
            let segs: Vec<_> = kernels.into_iter().map(|k| b.add_segment(k)).collect();
            for (pick, ops) in schedule {
                b.run(segs[pick % segs.len()], ops);
            }
            b.finish()
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Every generated workload halts near its nominal length, in every
    /// mode, with identical retirement counts.
    #[test]
    fn workloads_halt_consistently_across_modes(w in arb_workload()) {
        let budget = w.nominal_ops() * 2 + 10_000;
        let mut func = w.machine();
        let rf = func.run(Mode::Functional, budget);
        prop_assert!(rf.halted, "functional run did not halt within budget");
        let mut det = w.machine();
        let rd = det.run(Mode::DetailedMeasured, budget);
        prop_assert!(rd.halted);
        prop_assert_eq!(rf.ops, rd.ops);
        // Schedule planning is accurate to ~20% on arbitrary kernels.
        let rel = (rf.ops as f64 - w.nominal_ops() as f64).abs() / w.nominal_ops() as f64;
        prop_assert!(rel < 0.2, "ops {} vs nominal {}", rf.ops, w.nominal_ops());
    }

    /// IPC is always within the machine's issue width, and cycles are
    /// monotone in retired work.
    #[test]
    fn detailed_ipc_is_physical(w in arb_workload()) {
        let mut m = w.machine();
        let r = m.run(Mode::DetailedMeasured, u64::MAX);
        prop_assert!(r.halted);
        prop_assert!(r.cycles >= r.ops / 4, "IPC above issue width");
        prop_assert!(r.cycles > 0);
    }

    /// SMARTS and PGSS produce finite, physical estimates on arbitrary
    /// workloads — no panics, no NaNs, no zero-sample collapses — and
    /// PGSS never uses more detailed simulation than SMARTS at matched
    /// periods.
    #[test]
    fn estimators_are_total_and_ordered(w in arb_workload()) {
        let smarts = Smarts { period_ops: 20_000, ..Smarts::default() }.run(&w);
        prop_assert!(smarts.ipc.is_finite() && smarts.ipc > 0.0 && smarts.ipc <= 4.0);
        let pgss = PgssSim {
            ff_ops: 20_000,
            spacing_ops: 60_000,
            ..PgssSim::default()
        }.run(&w);
        prop_assert!(pgss.ipc.is_finite() && pgss.ipc > 0.0 && pgss.ipc <= 4.0);
        prop_assert!(
            pgss.detailed_ops() <= smarts.detailed_ops() + 4000,
            "PGSS {} > SMARTS {}",
            pgss.detailed_ops(),
            smarts.detailed_ops()
        );
        // Phase weights are a distribution.
        let p = pgss.phases.expect("pgss reports phases");
        let total: f64 = p.weights.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-6, "weights sum {total}");
    }
}
