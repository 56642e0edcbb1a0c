//! Golden-estimate regression tests: each technique's full result on small
//! workloads, exact to the bit. Every entry pins the `Estimate` (IPC bits,
//! per-mode instruction counts, sample count, confidence interval and
//! phase summary) and the merged `RunTrace` of the technique's driver
//! passes, so a change to a technique's sampling loop that alters the
//! segment sequence, a sample or skip decision, or the estimator math
//! fails here. IPC, mode ops and samples date from the original
//! per-technique loops; every technique must keep reproducing them.

use pgss::{
    AdaptivePgss, FullDetailed, OnlineSimPoint, PgssSim, RankedSet, RunTrace, Signature,
    SimPointOffline, Smarts, Technique, TurboSmarts, TwoPhaseStratified,
};
use pgss_cpu::{MachineConfig, ModeOps};

/// One technique's recorded result on one workload.
struct Golden {
    workload: &'static str,
    technique: &'static str,
    ipc_bits: u64,
    mode_ops: ModeOps,
    samples: u64,
    trace: RunTrace,
    /// The IPC-space interval as `(mean bits, half-width bits, n)`.
    ci: Option<(u64, u64, u64)>,
    phases: Option<Phases>,
}

/// A recorded `PhaseSummary`, weights as bit patterns.
struct Phases {
    phases: usize,
    changes: u64,
    samples_per_phase: &'static [u64],
    weight_bits: &'static [u64],
}

/// Recorded goldens, workload-major in `techniques()` order.
const GOLDENS: [Golden; 20] = [
    Golden {
        workload: "164.gzip",
        technique: "FullDetailed",
        ipc_bits: 0x3fe0d988086aea6b,
        mode_ops: ModeOps {
            fast_forward: 0,
            functional: 0,
            detailed_warming: 0,
            detailed_measured: 5817470,
        },
        samples: 1,
        trace: RunTrace {
            segments: [0, 0, 0, 1],
            truncated_segments: 1,
            samples_taken: 1,
            skipped_ci_met: 0,
            skipped_spacing: 0,
            phases_created: 0,
            phase_changes: 0,
        },
        ci: None,
        phases: None,
    },
    Golden {
        workload: "164.gzip",
        technique: "SMARTS(100k/1000)",
        ipc_bits: 0x3fe0fedb62ed3b7a,
        mode_ops: ModeOps {
            fast_forward: 0,
            functional: 5581470,
            detailed_warming: 177000,
            detailed_measured: 59000,
        },
        samples: 59,
        trace: RunTrace {
            segments: [0, 59, 59, 59],
            truncated_segments: 1,
            samples_taken: 59,
            skipped_ci_met: 0,
            skipped_spacing: 0,
            phases_created: 0,
            phase_changes: 0,
        },
        ci: Some((0x3fe0fedb62ed3b7a, 0x3fbcd4d59963c98c, 59)),
        phases: None,
    },
    Golden {
        workload: "164.gzip",
        technique: "TurboSMARTS(100k/3%)",
        ipc_bits: 0x3fe0fedb62ed3b78,
        mode_ops: ModeOps {
            fast_forward: 0,
            functional: 0,
            detailed_warming: 177000,
            detailed_measured: 59000,
        },
        samples: 59,
        trace: RunTrace {
            segments: [0, 59, 59, 59],
            truncated_segments: 0,
            samples_taken: 59,
            skipped_ci_met: 0,
            skipped_spacing: 0,
            phases_created: 0,
            phase_changes: 0,
        },
        ci: Some((0x3fe0fedb62ed3b78, 0x3fbcd4d59963c984, 59)),
        phases: None,
    },
    Golden {
        workload: "164.gzip",
        technique: "SimPoint(5x0M)",
        ipc_bits: 0x3fe0e49a5d6620a0,
        mode_ops: ModeOps {
            fast_forward: 0,
            functional: 9517470,
            detailed_warming: 0,
            detailed_measured: 500000,
        },
        samples: 5,
        trace: RunTrace {
            segments: [0, 64, 0, 5],
            truncated_segments: 1,
            samples_taken: 5,
            skipped_ci_met: 0,
            skipped_spacing: 0,
            phases_created: 0,
            phase_changes: 0,
        },
        ci: None,
        phases: Some(Phases {
            phases: 5,
            changes: 23,
            samples_per_phase: &[1, 1, 1, 1, 1],
            weight_bits: &[
                0x3fd611a7b9611a7c,
                0x3fba7b9611a7b961,
                0x3fb611a7b9611a7c,
                0x3fd72c234f72c235,
                0x3fba7b9611a7b961,
            ],
        }),
    },
    Golden {
        workload: "164.gzip",
        technique: "OnlineSimPoint(0M/.10)",
        ipc_bits: 0x3fdfe9ab2b8e4d41,
        mode_ops: ModeOps {
            fast_forward: 0,
            functional: 5317470,
            detailed_warming: 0,
            detailed_measured: 500000,
        },
        samples: 5,
        trace: RunTrace {
            segments: [0, 113, 0, 5],
            truncated_segments: 1,
            samples_taken: 5,
            skipped_ci_met: 0,
            skipped_spacing: 0,
            phases_created: 5,
            phase_changes: 23,
        },
        ci: None,
        phases: Some(Phases {
            phases: 5,
            changes: 23,
            samples_per_phase: &[1, 1, 1, 1, 1],
            weight_bits: &[
                0x3fd72c234f72c235,
                0x3fc611a7b9611a7c,
                0x3fb611a7b9611a7c,
                0x3fa1a7b9611a7b96,
                0x3fd611a7b9611a7c,
            ],
        }),
    },
    Golden {
        workload: "164.gzip",
        technique: "PGSS(100k/.05)",
        ipc_bits: 0x3fe0aa104b189ae5,
        mode_ops: ModeOps {
            fast_forward: 0,
            functional: 5637470,
            detailed_warming: 135000,
            detailed_measured: 45000,
        },
        samples: 45,
        trace: RunTrace {
            segments: [0, 57, 45, 45],
            truncated_segments: 1,
            samples_taken: 45,
            skipped_ci_met: 11,
            skipped_spacing: 0,
            phases_created: 9,
            phase_changes: 25,
        },
        ci: Some((0x3fe0aa104b189ae5, 0x3f8a7ea8470e044e, 45)),
        phases: Some(Phases {
            phases: 9,
            changes: 25,
            samples_per_phase: &[18, 5, 3, 5, 1, 2, 2, 1, 8],
            weight_bits: &[
                0x3fd48cee8018d715,
                0x3fb6e1ff2707606a,
                0x3fab7598953c0d4c,
                0x3fb6e1ff2707606a,
                0x3f924e65b8d2b388,
                0x3fa24e65b8d2b388,
                0x3fa24e65b8d2b388,
                0x3f924e65b8d2b388,
                0x3fd5b5f8b46cf3ba,
            ],
        }),
    },
    Golden {
        workload: "164.gzip",
        technique: "AdaptivePGSS(0M)",
        ipc_bits: 0x3fe1882f279ed00d,
        mode_ops: ModeOps {
            fast_forward: 0,
            functional: 6297470,
            detailed_warming: 90000,
            detailed_measured: 30000,
        },
        samples: 30,
        trace: RunTrace {
            segments: [0, 63, 30, 30],
            truncated_segments: 1,
            samples_taken: 30,
            skipped_ci_met: 4,
            skipped_spacing: 22,
            phases_created: 3,
            phase_changes: 16,
        },
        ci: Some((0x3fe1882f279ed00d, 0x3f903e1ab5b00ff2, 30)),
        phases: Some(Phases {
            phases: 3,
            changes: 16,
            samples_per_phase: &[14, 8, 8],
            weight_bits: &[0x3fd88e14c086ee5a, 0x3fd112f77d9d2286, 0x3fd65ef3c1dbef1f],
        }),
    },
    Golden {
        workload: "164.gzip",
        technique: "TwoPhase(100k/b20)",
        ipc_bits: 0x3fe0c18f6c1261b1,
        mode_ops: ModeOps {
            fast_forward: 0,
            functional: 13445470,
            detailed_warming: 60000,
            detailed_measured: 20000,
        },
        samples: 20,
        trace: RunTrace {
            segments: [0, 79, 20, 20],
            truncated_segments: 1,
            samples_taken: 20,
            skipped_ci_met: 0,
            skipped_spacing: 0,
            phases_created: 7,
            phase_changes: 26,
        },
        ci: Some((0x3fe0c18f6c1261b1, 0x3f9220b4e60ef965, 20)),
        phases: Some(Phases {
            phases: 7,
            changes: 26,
            samples_per_phase: &[3, 2, 4, 3, 3, 2, 3],
            weight_bits: &[
                0x3fd4f72c234f72c2,
                0x3fa1a7b9611a7b96,
                0x3fc3dcb08d3dcb09,
                0x3faa7b9611a7b961,
                0x3faa7b9611a7b961,
                0x3fa1a7b9611a7b96,
                0x3fd611a7b9611a7c,
            ],
        }),
    },
    Golden {
        workload: "164.gzip",
        technique: "RankedSet(100k/r2x5)",
        ipc_bits: 0x3fe14c036097acbb,
        mode_ops: ModeOps {
            fast_forward: 0,
            functional: 11259970,
            detailed_warming: 203500,
            detailed_measured: 58000,
        },
        samples: 58,
        trace: RunTrace {
            segments: [0, 116, 117, 58],
            truncated_segments: 1,
            samples_taken: 58,
            skipped_ci_met: 0,
            skipped_spacing: 0,
            phases_created: 7,
            phase_changes: 26,
        },
        ci: Some((0x3fe14c036097acbb, 0x3f9011044eb475f3, 5)),
        phases: Some(Phases {
            phases: 7,
            changes: 26,
            samples_per_phase: &[19, 2, 9, 3, 3, 2, 20],
            weight_bits: &[
                0x3fd4f72c234f72c2,
                0x3fa1a7b9611a7b96,
                0x3fc3dcb08d3dcb09,
                0x3faa7b9611a7b961,
                0x3faa7b9611a7b961,
                0x3fa1a7b9611a7b96,
                0x3fd611a7b9611a7c,
            ],
        }),
    },
    Golden {
        workload: "164.gzip",
        technique: "PGSS-MAV(100k/.05)",
        ipc_bits: 0x3fe0a6b10b811e24,
        mode_ops: ModeOps {
            fast_forward: 0,
            functional: 5597470,
            detailed_warming: 165000,
            detailed_measured: 55000,
        },
        samples: 55,
        trace: RunTrace {
            segments: [0, 56, 55, 55],
            truncated_segments: 1,
            samples_taken: 55,
            skipped_ci_met: 0,
            skipped_spacing: 0,
            phases_created: 19,
            phase_changes: 27,
        },
        ci: Some((0x3fe0a6b10b811e24, 0x3fa1d9c70412af08, 55)),
        phases: Some(Phases {
            phases: 19,
            changes: 27,
            samples_per_phase: &[33, 4, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
            weight_bits: &[
                0x3fe2db36eeaf2fb2,
                0x3fb24e65b8d2b388,
                0x3fa24e65b8d2b388,
                0x3fa215650068a7c6,
                0x3f924e65b8d2b388,
                0x3f924e65b8d2b388,
                0x3f924e65b8d2b388,
                0x3f924e65b8d2b388,
                0x3f924e65b8d2b388,
                0x3f924e65b8d2b388,
                0x3f924e65b8d2b388,
                0x3f924e65b8d2b388,
                0x3f924e65b8d2b388,
                0x3f924e65b8d2b388,
                0x3f924e65b8d2b388,
                0x3f924e65b8d2b388,
                0x3f924e65b8d2b388,
                0x3f924e65b8d2b388,
                0x3f924e65b8d2b388,
            ],
        }),
    },
    Golden {
        workload: "168.wupwise",
        technique: "FullDetailed",
        ipc_bits: 0x3fdc89fb4e1f5413,
        mode_ops: ModeOps {
            fast_forward: 0,
            functional: 0,
            detailed_warming: 0,
            detailed_measured: 7888054,
        },
        samples: 1,
        trace: RunTrace {
            segments: [0, 0, 0, 1],
            truncated_segments: 1,
            samples_taken: 1,
            skipped_ci_met: 0,
            skipped_spacing: 0,
            phases_created: 0,
            phase_changes: 0,
        },
        ci: None,
        phases: None,
    },
    Golden {
        workload: "168.wupwise",
        technique: "SMARTS(100k/1000)",
        ipc_bits: 0x3fdd03e98bbc730f,
        mode_ops: ModeOps {
            fast_forward: 0,
            functional: 7572054,
            detailed_warming: 237000,
            detailed_measured: 79000,
        },
        samples: 79,
        trace: RunTrace {
            segments: [0, 79, 79, 79],
            truncated_segments: 1,
            samples_taken: 79,
            skipped_ci_met: 0,
            skipped_spacing: 0,
            phases_created: 0,
            phase_changes: 0,
        },
        ci: Some((0x3fdd03e98bbc730f, 0x3fb53b07aa63954b, 79)),
        phases: None,
    },
    Golden {
        workload: "168.wupwise",
        technique: "TurboSMARTS(100k/3%)",
        ipc_bits: 0x3fdd03e98bbc7312,
        mode_ops: ModeOps {
            fast_forward: 0,
            functional: 0,
            detailed_warming: 237000,
            detailed_measured: 79000,
        },
        samples: 79,
        trace: RunTrace {
            segments: [0, 79, 79, 79],
            truncated_segments: 0,
            samples_taken: 79,
            skipped_ci_met: 0,
            skipped_spacing: 0,
            phases_created: 0,
            phase_changes: 0,
        },
        ci: Some((0x3fdd03e98bbc7312, 0x3fb53b07aa63954f, 79)),
        phases: None,
    },
    Golden {
        workload: "168.wupwise",
        technique: "SimPoint(5x0M)",
        ipc_bits: 0x3fdccaed4b8d1010,
        mode_ops: ModeOps {
            fast_forward: 0,
            functional: 12288054,
            detailed_warming: 0,
            detailed_measured: 500000,
        },
        samples: 5,
        trace: RunTrace {
            segments: [0, 82, 0, 5],
            truncated_segments: 1,
            samples_taken: 5,
            skipped_ci_met: 0,
            skipped_spacing: 0,
            phases_created: 0,
            phase_changes: 0,
        },
        ci: None,
        phases: Some(Phases {
            phases: 5,
            changes: 20,
            samples_per_phase: &[1, 1, 1, 1, 1],
            weight_bits: &[
                0x3fd7cb7cb7cb7cb8,
                0x3fde5be5be5be5be,
                0x3f8a41a41a41a41a,
                0x3f8a41a41a41a41a,
                0x3fc0690690690690,
            ],
        }),
    },
    Golden {
        workload: "168.wupwise",
        technique: "OnlineSimPoint(0M/.10)",
        ipc_bits: 0x3fe0067845286cd6,
        mode_ops: ModeOps {
            fast_forward: 0,
            functional: 7688054,
            detailed_warming: 0,
            detailed_measured: 200000,
        },
        samples: 2,
        trace: RunTrace {
            segments: [0, 156, 0, 2],
            truncated_segments: 1,
            samples_taken: 2,
            skipped_ci_met: 0,
            skipped_spacing: 0,
            phases_created: 2,
            phase_changes: 1,
        },
        ci: None,
        phases: Some(Phases {
            phases: 2,
            changes: 1,
            samples_per_phase: &[1, 1],
            weight_bits: &[0x3fdf2df2df2df2df, 0x3fe0690690690690],
        }),
    },
    Golden {
        workload: "168.wupwise",
        technique: "PGSS(100k/.05)",
        ipc_bits: 0x3fdc141b69a7fe07,
        mode_ops: ModeOps {
            fast_forward: 0,
            functional: 7820054,
            detailed_warming: 51000,
            detailed_measured: 17000,
        },
        samples: 17,
        trace: RunTrace {
            segments: [0, 79, 17, 17],
            truncated_segments: 1,
            samples_taken: 17,
            skipped_ci_met: 61,
            skipped_spacing: 0,
            phases_created: 3,
            phase_changes: 2,
        },
        ci: Some((0x3fdc141b69a7fe07, 0x3f6e755d50287ed4, 17)),
        phases: Some(Phases {
            phases: 3,
            changes: 2,
            samples_per_phase: &[8, 1, 8],
            weight_bits: &[0x3fde479b2d7e916e, 0x3f89f69b8e73a8e0, 0x3fe07457fb06e8a5],
        }),
    },
    Golden {
        workload: "168.wupwise",
        technique: "AdaptivePGSS(0M)",
        ipc_bits: 0x3fdbfc4491a6fc90,
        mode_ops: ModeOps {
            fast_forward: 0,
            functional: 8620054,
            detailed_warming: 51000,
            detailed_measured: 17000,
        },
        samples: 17,
        trace: RunTrace {
            segments: [0, 87, 17, 17],
            truncated_segments: 1,
            samples_taken: 17,
            skipped_ci_met: 47,
            skipped_spacing: 14,
            phases_created: 3,
            phase_changes: 2,
        },
        ci: Some((0x3fdbfc4491a6fc90, 0x3f679a4b7a47c7e9, 17)),
        phases: Some(Phases {
            phases: 3,
            changes: 2,
            samples_per_phase: &[8, 1, 8],
            weight_bits: &[0x3fde479b2d7e916e, 0x3f89f69b8e73a8e0, 0x3fe07457fb06e8a5],
        }),
    },
    Golden {
        workload: "168.wupwise",
        technique: "TwoPhase(100k/b20)",
        ipc_bits: 0x3fdcc17fe5af6527,
        mode_ops: ModeOps {
            fast_forward: 0,
            functional: 22516054,
            detailed_warming: 60000,
            detailed_measured: 20000,
        },
        samples: 20,
        trace: RunTrace {
            segments: [0, 99, 20, 20],
            truncated_segments: 1,
            samples_taken: 20,
            skipped_ci_met: 0,
            skipped_spacing: 0,
            phases_created: 2,
            phase_changes: 1,
        },
        ci: Some((0x3fdcc17fe5af6527, 0x3f6672c3a71d966a, 20)),
        phases: Some(Phases {
            phases: 2,
            changes: 1,
            samples_per_phase: &[3, 17],
            weight_bits: &[0x3fdf2df2df2df2df, 0x3fe0690690690690],
        }),
    },
    Golden {
        workload: "168.wupwise",
        technique: "RankedSet(100k/r2x5)",
        ipc_bits: 0x3fdcf6eaae9f0ccc,
        mode_ops: ModeOps {
            fast_forward: 0,
            functional: 15248554,
            detailed_warming: 267500,
            detailed_measured: 76000,
        },
        samples: 76,
        trace: RunTrace {
            segments: [0, 154, 155, 76],
            truncated_segments: 1,
            samples_taken: 76,
            skipped_ci_met: 0,
            skipped_spacing: 0,
            phases_created: 2,
            phase_changes: 1,
        },
        ci: Some((0x3fdcf6eaae9f0ccc, 0x3f7f1184290ccdb8, 5)),
        phases: Some(Phases {
            phases: 2,
            changes: 1,
            samples_per_phase: &[38, 38],
            weight_bits: &[0x3fdf2df2df2df2df, 0x3fe0690690690690],
        }),
    },
    Golden {
        workload: "168.wupwise",
        technique: "PGSS-MAV(100k/.05)",
        ipc_bits: 0x3fdc1620705a932f,
        mode_ops: ModeOps {
            fast_forward: 0,
            functional: 7696054,
            detailed_warming: 144000,
            detailed_measured: 48000,
        },
        samples: 48,
        trace: RunTrace {
            segments: [0, 77, 48, 48],
            truncated_segments: 1,
            samples_taken: 48,
            skipped_ci_met: 28,
            skipped_spacing: 0,
            phases_created: 20,
            phase_changes: 41,
        },
        ci: Some((0x3fdc1620705a932f, 0x3f4b599f17505fa7, 48)),
        phases: Some(Phases {
            phases: 20,
            changes: 41,
            samples_per_phase: &[1, 8, 1, 3, 3, 3, 3, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2],
            weight_bits: &[
                0x3f89f69b8e73a8e0,
                0x3fdd80353b240eed,
                0x3f89f69b8e73a8e0,
                0x3fa4405a9d31412a,
                0x3fa4405a9d31412a,
                0x3fa4405a9d31412a,
                0x3fa4405a9d31412a,
                0x3fa3fec90156a635,
                0x3f9b0078d197018d,
                0x3f9b0078d197018d,
                0x3f9b0078d197018d,
                0x3f9b0078d197018d,
                0x3f9b0078d197018d,
                0x3f9b0078d197018d,
                0x3f9b0078d197018d,
                0x3f9b0078d197018d,
                0x3f9b0078d197018d,
                0x3f9b0078d197018d,
                0x3f9b0078d197018d,
                0x3f9b0078d197018d,
            ],
        }),
    },
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
        for (t, g) in techniques.iter().zip(chunk) {
            assert_eq!(w.name(), g.workload, "golden table out of order");
            assert_eq!(t.name(), g.technique, "golden table out of order");
            let (e, trace) = t.run_traced(w, &MachineConfig::default(), &pgss::SimContext::none());
            let ci =
                e.ci.map(|ci| (ci.mean.to_bits(), ci.half_width.to_bits(), ci.n));
            let phases_match = match (&e.phases, &g.phases) {
                (None, None) => true,
                (Some(p), Some(want)) => {
                    p.phases == want.phases
                        && p.changes == want.changes
                        && p.samples_per_phase == want.samples_per_phase
                        && p.weights
                            .iter()
                            .map(|w| w.to_bits())
                            .eq(want.weight_bits.iter().copied())
                }
                _ => false,
            };
            if e.ipc.to_bits() != g.ipc_bits
                || e.mode_ops != g.mode_ops
                || e.samples != g.samples
                || trace != g.trace
                || ci != g.ci
                || !phases_match
            {
                failures.push(format!(
                    "{} / {}: got ipc=0x{:016x} {:?} samples={} {trace:?} ci={ci:x?} phases={:?}, \
                     want ipc=0x{:016x} {:?} samples={} {:?} ci={:x?}",
                    g.workload,
                    g.technique,
                    e.ipc.to_bits(),
                    e.mode_ops,
                    e.samples,
                    e.phases,
                    g.ipc_bits,
                    g.mode_ops,
                    g.samples,
                    g.trace,
                    g.ci,
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
