//! Golden-estimate regression tests: each technique's `Estimate` on small
//! workloads, recorded bit-exactly from the pre-`SimDriver` per-technique
//! loops. The policy-based rewrite must reproduce every value — same IPC
//! bits, same per-mode instruction counts, same sample count — proving the
//! shared engine executes the identical segment sequence.

use pgss::{
    AdaptivePgss, FullDetailed, OnlineSimPoint, PgssSim, RankedSet, Signature, SimPointOffline,
    Smarts, Technique, TurboSmarts, TwoPhaseStratified,
};
use pgss_cpu::ModeOps;

/// `(workload, technique, ipc_bits, mode_ops, samples)` recorded goldens.
const GOLDENS: [(&str, &str, u64, ModeOps, u64); 20] = [
    (
        "164.gzip",
        "FullDetailed",
        0x3fe0d988086aea6b,
        ModeOps {
            fast_forward: 0,
            functional: 0,
            detailed_warming: 0,
            detailed_measured: 5817470,
        },
        1,
    ),
    (
        "164.gzip",
        "SMARTS(100k/1000)",
        0x3fe0fedb62ed3b7a,
        ModeOps {
            fast_forward: 0,
            functional: 5581470,
            detailed_warming: 177000,
            detailed_measured: 59000,
        },
        59,
    ),
    (
        "164.gzip",
        "TurboSMARTS(100k/3%)",
        0x3fe0fedb62ed3b78,
        ModeOps {
            fast_forward: 0,
            functional: 0,
            detailed_warming: 177000,
            detailed_measured: 59000,
        },
        59,
    ),
    (
        "164.gzip",
        "SimPoint(5x0M)",
        0x3fe0e49a5d6620a0,
        ModeOps {
            fast_forward: 0,
            functional: 9517470,
            detailed_warming: 0,
            detailed_measured: 500000,
        },
        5,
    ),
    (
        "164.gzip",
        "OnlineSimPoint(0M/.10)",
        0x3fdfe9ab2b8e4d41,
        ModeOps {
            fast_forward: 0,
            functional: 5317470,
            detailed_warming: 0,
            detailed_measured: 500000,
        },
        5,
    ),
    (
        "164.gzip",
        "PGSS(100k/.05)",
        0x3fe0aa104b189ae5,
        ModeOps {
            fast_forward: 0,
            functional: 5637470,
            detailed_warming: 135000,
            detailed_measured: 45000,
        },
        45,
    ),
    (
        "164.gzip",
        "AdaptivePGSS(0M)",
        0x3fe1882f279ed00d,
        ModeOps {
            fast_forward: 0,
            functional: 6297470,
            detailed_warming: 90000,
            detailed_measured: 30000,
        },
        30,
    ),
    (
        "164.gzip",
        "TwoPhase(100k/b20)",
        0x3fe0c18f6c1261b1,
        ModeOps {
            fast_forward: 0,
            functional: 13445470,
            detailed_warming: 60000,
            detailed_measured: 20000,
        },
        20,
    ),
    (
        "164.gzip",
        "RankedSet(100k/r2x5)",
        0x3fe14c036097acbb,
        ModeOps {
            fast_forward: 0,
            functional: 11259970,
            detailed_warming: 203500,
            detailed_measured: 58000,
        },
        58,
    ),
    (
        "164.gzip",
        "PGSS-MAV(100k/.05)",
        0x3fe0a6b10b811e24,
        ModeOps {
            fast_forward: 0,
            functional: 5597470,
            detailed_warming: 165000,
            detailed_measured: 55000,
        },
        55,
    ),
    (
        "168.wupwise",
        "FullDetailed",
        0x3fdc89fb4e1f5413,
        ModeOps {
            fast_forward: 0,
            functional: 0,
            detailed_warming: 0,
            detailed_measured: 7888054,
        },
        1,
    ),
    (
        "168.wupwise",
        "SMARTS(100k/1000)",
        0x3fdd03e98bbc730f,
        ModeOps {
            fast_forward: 0,
            functional: 7572054,
            detailed_warming: 237000,
            detailed_measured: 79000,
        },
        79,
    ),
    (
        "168.wupwise",
        "TurboSMARTS(100k/3%)",
        0x3fdd03e98bbc7312,
        ModeOps {
            fast_forward: 0,
            functional: 0,
            detailed_warming: 237000,
            detailed_measured: 79000,
        },
        79,
    ),
    (
        "168.wupwise",
        "SimPoint(5x0M)",
        0x3fdccaed4b8d1010,
        ModeOps {
            fast_forward: 0,
            functional: 12288054,
            detailed_warming: 0,
            detailed_measured: 500000,
        },
        5,
    ),
    (
        "168.wupwise",
        "OnlineSimPoint(0M/.10)",
        0x3fe0067845286cd6,
        ModeOps {
            fast_forward: 0,
            functional: 7688054,
            detailed_warming: 0,
            detailed_measured: 200000,
        },
        2,
    ),
    (
        "168.wupwise",
        "PGSS(100k/.05)",
        0x3fdc141b69a7fe07,
        ModeOps {
            fast_forward: 0,
            functional: 7820054,
            detailed_warming: 51000,
            detailed_measured: 17000,
        },
        17,
    ),
    (
        "168.wupwise",
        "AdaptivePGSS(0M)",
        0x3fdbfc4491a6fc90,
        ModeOps {
            fast_forward: 0,
            functional: 8620054,
            detailed_warming: 51000,
            detailed_measured: 17000,
        },
        17,
    ),
    (
        "168.wupwise",
        "TwoPhase(100k/b20)",
        0x3fdcc17fe5af6527,
        ModeOps {
            fast_forward: 0,
            functional: 22516054,
            detailed_warming: 60000,
            detailed_measured: 20000,
        },
        20,
    ),
    (
        "168.wupwise",
        "RankedSet(100k/r2x5)",
        0x3fdcf6eaae9f0ccc,
        ModeOps {
            fast_forward: 0,
            functional: 15248554,
            detailed_warming: 267500,
            detailed_measured: 76000,
        },
        76,
    ),
    (
        "168.wupwise",
        "PGSS-MAV(100k/.05)",
        0x3fdc1620705a932f,
        ModeOps {
            fast_forward: 0,
            functional: 7696054,
            detailed_warming: 144000,
            detailed_measured: 48000,
        },
        48,
    ),
];

fn techniques() -> Vec<Box<dyn Technique>> {
    let smarts = Smarts {
        unit_ops: 1_000,
        warm_ops: 3_000,
        period_ops: 100_000,
    };
    vec![
        Box::new(FullDetailed::new()),
        Box::new(smarts),
        Box::new(TurboSmarts {
            smarts,
            ..TurboSmarts::default()
        }),
        Box::new(SimPointOffline {
            interval_ops: 100_000,
            k: 5,
            projected_dims: 15,
            seed: 1,
            ..SimPointOffline::default()
        }),
        Box::new(OnlineSimPoint {
            interval_ops: 100_000,
            ..OnlineSimPoint::default()
        }),
        Box::new(PgssSim {
            ff_ops: 100_000,
            spacing_ops: 100_000,
            ..PgssSim::default()
        }),
        Box::new(AdaptivePgss {
            base: PgssSim {
                ff_ops: 100_000,
                spacing_ops: 200_000,
                ..PgssSim::default()
            },
            ..AdaptivePgss::default()
        }),
        Box::new(TwoPhaseStratified {
            ff_ops: 100_000,
            budget: 20,
            ..TwoPhaseStratified::default()
        }),
        Box::new(RankedSet {
            ff_ops: 100_000,
            ..RankedSet::default()
        }),
        Box::new(PgssSim {
            ff_ops: 100_000,
            spacing_ops: 100_000,
            signature: Signature::Mav,
            ..PgssSim::default()
        }),
    ]
}

#[test]
fn estimates_match_recorded_goldens() {
    let workloads = [pgss_workloads::gzip(0.02), pgss_workloads::wupwise(0.02)];
    let techniques = techniques();
    let mut failures = Vec::new();
    for (w, chunk) in workloads.iter().zip(GOLDENS.chunks(techniques.len())) {
        for (t, &(gw, gname, ipc_bits, mode_ops, samples)) in techniques.iter().zip(chunk) {
            assert_eq!(w.name(), gw, "golden table out of order");
            assert_eq!(t.name(), gname, "golden table out of order");
            let e = t.run(w);
            if e.ipc.to_bits() != ipc_bits || e.mode_ops != mode_ops || e.samples != samples {
                failures.push(format!(
                    "{gw} / {gname}: got ipc=0x{:016x} {:?} samples={}, \
                     want ipc=0x{ipc_bits:016x} {mode_ops:?} samples={samples}",
                    e.ipc.to_bits(),
                    e.mode_ops,
                    e.samples,
                ));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "estimates diverged from goldens:\n{}",
        failures.join("\n")
    );
}
