//! Cross-crate integration: every sampling technique drives the same
//! machine over the same workloads and produces sane, comparable results.

use pgss::{
    FullDetailed, OnlineSimPoint, PgssSim, SimPointOffline, Smarts, Technique, TurboSmarts,
};

/// A small but phase-rich workload shared by the tests in this file.
fn workload() -> pgss_workloads::Workload {
    pgss_workloads::wupwise(0.05)
}

fn all_techniques() -> Vec<Box<dyn Technique>> {
    vec![
        Box::new(Smarts {
            period_ops: 100_000,
            ..Smarts::default()
        }),
        Box::new(TurboSmarts {
            smarts: Smarts {
                period_ops: 100_000,
                ..Smarts::default()
            },
            ..TurboSmarts::default()
        }),
        Box::new(SimPointOffline {
            interval_ops: 200_000,
            k: 5,
            ..Default::default()
        }),
        Box::new(OnlineSimPoint {
            interval_ops: 200_000,
            ..OnlineSimPoint::default()
        }),
        Box::new(PgssSim {
            ff_ops: 100_000,
            spacing_ops: 200_000,
            ..PgssSim::default()
        }),
    ]
}

#[test]
fn every_technique_yields_a_finite_plausible_estimate() {
    let w = workload();
    let truth = FullDetailed::new().ground_truth(&w);
    let config = pgss_cpu::MachineConfig::default();
    for t in all_techniques() {
        let est = t.run(&w);
        assert!(
            est.ipc.is_finite() && est.ipc > 0.0,
            "{}: ipc {}",
            t.name(),
            est.ipc
        );
        assert!(
            est.ipc <= f64::from(config.issue_width),
            "{}: ipc {} exceeds machine width",
            t.name(),
            est.ipc
        );
        assert!(est.samples > 0, "{}: no samples", t.name());
        // Nobody should be *wildly* wrong on this well-structured workload.
        let err = est.error_vs(&truth);
        assert!(
            err < 0.6,
            "{}: error {err:.3} vs truth {:.3}",
            t.name(),
            truth.ipc
        );
    }
}

#[test]
fn cost_ordering_matches_the_paper() {
    // The paper's Fig. 12 cost ordering: PGSS uses the least detailed
    // simulation, SMARTS roughly an order of magnitude more, SimPoint-style
    // one-large-sample-per-phase techniques the most.
    let w = workload();
    let smarts = Smarts {
        period_ops: 100_000,
        ..Smarts::default()
    }
    .run(&w);
    let pgss = PgssSim {
        ff_ops: 1_000_000,
        ..PgssSim::default()
    }
    .run(&w);
    let simpoint = SimPointOffline {
        interval_ops: 200_000,
        k: 5,
        ..Default::default()
    }
    .run(&w);
    let online = OnlineSimPoint {
        interval_ops: 200_000,
        ..OnlineSimPoint::default()
    }
    .run(&w);

    assert!(
        pgss.detailed_ops() * 4 <= smarts.detailed_ops(),
        "PGSS {} vs SMARTS {}",
        pgss.detailed_ops(),
        smarts.detailed_ops()
    );
    assert!(
        smarts.detailed_ops() < simpoint.detailed_ops(),
        "SMARTS {} vs SimPoint {}",
        smarts.detailed_ops(),
        simpoint.detailed_ops()
    );
    assert!(
        pgss.detailed_ops() * 20 <= simpoint.detailed_ops(),
        "PGSS {} vs SimPoint {}",
        pgss.detailed_ops(),
        simpoint.detailed_ops()
    );
    assert!(
        pgss.detailed_ops() * 10 <= online.detailed_ops(),
        "PGSS {} vs OnlineSimPoint {}",
        pgss.detailed_ops(),
        online.detailed_ops()
    );
}

#[test]
fn techniques_are_deterministic() {
    let w = workload();
    for t in all_techniques() {
        let a = t.run(&w);
        let b = t.run(&w);
        assert_eq!(a, b, "{} is not deterministic", t.name());
    }
}

#[test]
fn mode_accounting_is_exact_for_smarts() {
    let w = workload();
    let s = Smarts {
        unit_ops: 1_000,
        warm_ops: 3_000,
        period_ops: 100_000,
    };
    let est = s.run(&w);
    // Warming:measured ratio is exactly 3:1 modulo the final truncated
    // sample.
    assert!(est.mode_ops.detailed_measured >= est.samples * s.unit_ops);
    assert!(est.mode_ops.detailed_warming >= est.samples * s.warm_ops);
    assert!(est.mode_ops.detailed_warming <= (est.samples + 1) * s.warm_ops);
    // Everything else was functional fast-forwarding.
    assert!(est.mode_ops.functional > est.mode_ops.detailed());
    assert_eq!(est.mode_ops.fast_forward, 0);
}

#[test]
fn turbosmarts_bound_is_unsound_on_polymodal_workloads() {
    // The paper's critique: the Gaussian CI claims ±3% but the polymodal
    // population makes the claim unreliable. Verify TurboSMARTS consumes
    // fewer samples than the population yet (on this bimodal workload)
    // reports an estimate whose real error exceeds what a matching full
    // SMARTS run achieves.
    let w = workload();
    let truth = FullDetailed::new().ground_truth(&w);
    let smarts = Smarts {
        period_ops: 100_000,
        ..Smarts::default()
    };
    let full = smarts.run(&w);
    let turbo = TurboSmarts {
        smarts,
        ..TurboSmarts::default()
    }
    .run(&w);
    if turbo.samples < full.samples {
        // It stopped early: the claimed ±3% should be checked against
        // reality — on bimodal wupwise the error typically exceeds the
        // full-population error.
        assert!(
            turbo.error_vs(&truth) >= full.error_vs(&truth),
            "turbo err {:.4} vs full err {:.4}",
            turbo.error_vs(&truth),
            full.error_vs(&truth)
        );
    }
}

#[test]
fn pgss_adapts_samples_to_phase_stability() {
    // gzip mixes stable and unstable phases; PGSS must not spread samples
    // uniformly.
    let w = pgss_workloads::gzip(0.05);
    let est = PgssSim {
        ff_ops: 100_000,
        spacing_ops: 200_000,
        ..PgssSim::default()
    }
    .run(&w);
    let p = est.phases.expect("PGSS reports phases");
    let max = p.samples_per_phase.iter().max().copied().unwrap_or(0);
    let min = p.samples_per_phase.iter().min().copied().unwrap_or(0);
    assert!(
        max > min,
        "uniform samples per phase: {:?}",
        p.samples_per_phase
    );
}
