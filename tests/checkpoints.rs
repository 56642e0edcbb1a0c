//! Checkpoint subsystem integration: acceleration must be invisible.
//!
//! Every technique consuming a checkpoint ladder must produce the *same
//! bits* — estimate and trace — as its unaccelerated run, while executing
//! strictly fewer instructions; the on-disk store must round-trip a
//! campaign and shrug off injected corruption; and the serialized
//! snapshot format is pinned so accidental layout changes are caught.
//!
//! The in-place state transfers (`Machine::restore_from`, snapshot
//! decoding straight into a live machine) are checked over seeded random
//! workloads against the allocating snapshot path, and the in-place
//! decoder is fed corrupt bytes to show it fails with a typed error and
//! leaves its target untouched.

mod util;

use std::sync::Arc;

use pgss::ckpt::{
    decode_machine_snapshot, decode_machine_snapshot_into, encode_machine_snapshot,
    encode_machine_state, CheckpointKey,
};
use pgss::{
    campaign, AdaptivePgss, CheckpointLadder, LadderSpec, OnlineSimPoint, PgssSim, SimContext,
    SimPointOffline, Smarts, Technique, Track, TurboSmarts, SNAPSHOT_FORMAT_VERSION,
};
use pgss_ckpt::{fnv1a64, CodecError, STORE_FORMAT_VERSION};
use pgss_cpu::{BranchPredictorConfig, CacheConfig, Machine, MachineConfig, Mode, RunResult};
use pgss_stats::DetRng;
use pgss_workloads::{Kernel, Workload, WorkloadBuilder};

fn workload() -> Workload {
    pgss_workloads::wupwise(0.02)
}

fn techniques() -> Vec<Box<dyn Technique + Sync>> {
    let smarts = Smarts {
        period_ops: 100_000,
        ..Smarts::default()
    };
    vec![
        Box::new(smarts),
        Box::new(TurboSmarts {
            smarts,
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
        Box::new(AdaptivePgss {
            base: PgssSim {
                ff_ops: 100_000,
                spacing_ops: 200_000,
                ..PgssSim::default()
            },
            ..AdaptivePgss::default()
        }),
    ]
}

/// A ladder whose spec is the technique's declared track union — exactly
/// what the campaign derives.
fn ladder_for(
    t: &dyn Technique,
    w: &Workload,
    cfg: &MachineConfig,
    stride: u64,
) -> Arc<CheckpointLadder> {
    let mut hashed_seeds: Vec<u64> = Vec::new();
    let mut with_full = false;
    for track in t.tracks() {
        match track {
            Track::Hashed(s) if !hashed_seeds.contains(&s) => hashed_seeds.push(s),
            Track::Full => with_full = true,
            _ => {}
        }
    }
    Arc::new(CheckpointLadder::capture(
        w,
        cfg,
        &LadderSpec {
            stride,
            hashed_seeds,
            with_full,
        },
    ))
}

#[test]
fn every_technique_is_bit_exact_under_checkpoint_acceleration() {
    let w = workload();
    let cfg = MachineConfig::default();
    for t in techniques() {
        let plain = t.run_traced(&w, &cfg);
        let ladder = ladder_for(t.as_ref(), &w, &cfg, 500_000);
        let ctx = SimContext::with_ladder(Arc::clone(&ladder));
        let fast = t.run_traced_ctx(&w, &cfg, &ctx);
        assert_eq!(
            plain,
            fast,
            "{}: checkpoint acceleration changed the result",
            t.name()
        );
        let report = ladder.report();
        assert!(report.jumps > 0, "{}: never jumped", t.name());
        assert!(
            report.skipped_ops > 0,
            "{}: jumped without skipping work",
            t.name()
        );
    }
}

#[test]
fn checkpointed_campaign_round_trips_through_the_store() {
    let (tmp, store) = util::temp_store("pgss-ckpt-campaign");
    let dir = tmp.path();

    let workloads = vec![pgss_workloads::gzip(0.01), pgss_workloads::equake(0.01)];
    let smarts = Smarts {
        period_ops: 100_000,
        ..Smarts::default()
    };
    let pgss = PgssSim {
        ff_ops: 100_000,
        spacing_ops: 200_000,
        ..PgssSim::default()
    };
    let techs: Vec<&(dyn Technique + Sync)> = vec![&smarts, &pgss];
    let jobs = campaign::grid(&workloads, &techs, MachineConfig::default());

    let plain = campaign::run(&jobs);
    assert!(plain.is_complete());
    let first = campaign::run_checkpointed(&jobs, 50_000, Some(&store)).unwrap();
    assert_eq!(plain.cells, first.cells);
    assert!(first.is_complete());
    assert!(
        first.checkpoint_faults.is_empty(),
        "{:?}",
        first.checkpoint_faults
    );
    assert!(first.ladder.capture_ops > 0, "first run must capture");
    assert!(first.ladder.total_executed() < first.ladder.baseline_ops());

    // Second run: ladders come back from disk, so nothing is recaptured
    // and the cells are still identical.
    let second = campaign::run_checkpointed(&jobs, 50_000, Some(&store)).unwrap();
    assert_eq!(plain.cells, second.cells);
    assert_eq!(second.ladder.capture_ops, 0, "second run must load");
    assert!(second.checkpoint_faults.is_empty());

    // Injected corruption: truncate every record, then run again. The
    // store serves nothing, every truncated record is quarantined (and
    // ledgered), capture kicks in, results are unchanged.
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if !path.is_file() {
            continue;
        }
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
    }
    let third = campaign::run_checkpointed(&jobs, 50_000, Some(&store)).unwrap();
    assert_eq!(plain.cells, third.cells);
    assert!(third.ladder.capture_ops > 0, "corrupt store must recapture");
    assert!(
        !third.checkpoint_faults.is_empty(),
        "wholesale corruption must be ledgered"
    );
}

#[test]
fn corrupt_rung_is_quarantined_recaptured_and_bit_exact() {
    let (tmp, store) = util::temp_store("pgss-ckpt-quarantine");
    let dir = tmp.path();

    let workloads = vec![pgss_workloads::gzip(0.01)];
    let smarts = Smarts {
        period_ops: 100_000,
        ..Smarts::default()
    };
    let pgss = PgssSim {
        ff_ops: 100_000,
        spacing_ops: 200_000,
        ..PgssSim::default()
    };
    let techs: Vec<&(dyn Technique + Sync)> = vec![&smarts, &pgss];
    let jobs = campaign::grid(&workloads, &techs, MachineConfig::default());

    let plain = campaign::run(&jobs);
    let first = campaign::run_checkpointed(&jobs, 50_000, Some(&store)).unwrap();
    assert_eq!(plain.cells, first.cells);

    // Corrupt exactly one ladder rung: rung records carry a machine
    // snapshot (kilobytes) while the meta record is tens of bytes, so the
    // largest record file is a rung. Flip one payload byte.
    let victim = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.is_file())
        .max_by_key(|p| std::fs::metadata(p).unwrap().len())
        .unwrap();
    let mut bytes = std::fs::read(&victim).unwrap();
    *bytes.last_mut().unwrap() ^= 0x01;
    std::fs::write(&victim, &bytes).unwrap();
    let victim_name = victim.file_name().unwrap().to_str().unwrap().to_string();
    let victim_key = victim_name.trim_end_matches(".rec").to_string();

    // The healed run is bit-identical to the unaccelerated campaign, and
    // the report names the quarantined record.
    let healed = campaign::run_checkpointed(&jobs, 50_000, Some(&store)).unwrap();
    assert_eq!(
        plain.cells, healed.cells,
        "healing must not change any cell"
    );
    assert!(healed.is_complete());
    assert!(
        healed
            .checkpoint_faults
            .iter()
            .any(|f| f.contains("quarantined") && f.contains(&victim_key)),
        "report must name the quarantined record {victim_key}: {:?}",
        healed.checkpoint_faults
    );
    // The corrupt record is preserved (not deleted) in the sidecar, and
    // a fresh, healthy record took its place in the store.
    assert!(dir.join("quarantine").join(&victim_name).is_file());
    assert!(victim.is_file(), "recapture must write the rung back");

    // Next run loads clean: no recapture, no faults.
    let clean = campaign::run_checkpointed(&jobs, 50_000, Some(&store)).unwrap();
    assert_eq!(plain.cells, clean.cells);
    assert_eq!(clean.ladder.capture_ops, 0, "store must be healed");
    assert!(
        clean.checkpoint_faults.is_empty(),
        "{:?}",
        clean.checkpoint_faults
    );
}

#[test]
fn snapshot_format_is_pinned() {
    // Bump these constants deliberately when the layout changes; stale
    // records then read as absent instead of decoding wrongly.
    assert_eq!(SNAPSHOT_FORMAT_VERSION, 1);
    assert_eq!(STORE_FORMAT_VERSION, 1);

    // The serialized bytes of a deterministic machine state are pinned:
    // any accidental encoder change shows up here before it corrupts a
    // store in the field.
    let w = pgss_workloads::gzip(0.01);
    let mut machine = w.machine();
    let mut sink = pgss_cpu::NoopSink;
    machine.run_with(pgss_cpu::Mode::Functional, 10_000, &mut sink);
    let bytes = encode_machine_snapshot(&machine.snapshot());
    assert_eq!(
        fnv1a64(&bytes),
        0x82b2_8722_751c_56ca,
        "machine snapshot encoding changed; bump SNAPSHOT_FORMAT_VERSION"
    );

    // Key hashing is stable too (same inputs, same record file).
    let key = CheckpointKey::new(&w, &MachineConfig::default(), 40_000);
    assert_eq!(
        key.hash(),
        CheckpointKey::new(&w, &MachineConfig::default(), 40_000).hash()
    );
}

const MODES: [Mode; 4] = [
    Mode::FastForward,
    Mode::Functional,
    Mode::DetailedWarming,
    Mode::DetailedMeasured,
];

/// A small random kernel.
fn random_kernel(rng: &mut DetRng) -> Kernel {
    match rng.range_u64(6) {
        0 => {
            let stride = 1 + rng.range_usize(3);
            Kernel::Stream {
                region_words: (1024 + rng.range_usize(8192)).max(stride * 8 + 1) * 2,
                stride_words: stride,
                compute_per_load: rng.range_u64(4) as u32,
            }
        }
        1 => Kernel::Chase {
            ring_words: 256 + rng.range_usize(4096),
            chains: 1 + rng.range_u64(3) as u32,
            compute_per_step: rng.range_u64(6) as u32,
        },
        2 => Kernel::ComputeInt {
            chains: 1 + rng.range_u64(7) as u32,
            ops_per_chain: 1 + rng.range_u64(5) as u32,
        },
        3 => Kernel::ComputeFp {
            chains: 1 + rng.range_u64(7) as u32,
            ops_per_chain: 1 + rng.range_u64(4) as u32,
        },
        4 => Kernel::Branchy {
            table_words: 64 + rng.range_usize(2048),
            bias: rng.range_u64(256) as u8,
            work_per_side: rng.range_u64(4) as u32,
        },
        _ => {
            let stride = 1 + rng.range_usize(3);
            Kernel::StoreStream {
                region_words: (1024 + rng.range_usize(8192)).max(stride * 8 + 1) * 2,
                stride_words: stride,
            }
        }
    }
}

/// A random workload: 1–3 kernels, 2–5 schedule entries of 10k–60k ops.
fn random_workload(rng: &mut DetRng) -> Workload {
    let mut b = WorkloadBuilder::new("transfer", rng.next_u64());
    let segs: Vec<_> = (0..1 + rng.range_usize(3))
        .map(|_| {
            let k = random_kernel(rng);
            b.add_segment(k)
        })
        .collect();
    for _ in 0..2 + rng.range_usize(4) {
        let seg = segs[rng.range_usize(segs.len())];
        let ops = 10_000 + rng.range_u64(50_000);
        b.run(seg, ops);
    }
    b.finish()
}

/// A machine shape small enough that whole-state comparisons are cheap
/// (workloads grow the memory image to fit).
fn small_config() -> MachineConfig {
    let cache = |size_bytes, associativity| CacheConfig {
        size_bytes,
        line_bytes: 64,
        associativity,
    };
    MachineConfig {
        l1i: cache(1 << 10, 2),
        l1d: cache(1 << 10, 2),
        l2: cache(1 << 13, 4),
        bpred: BranchPredictorConfig {
            history_bits: 6,
            btb_entries: 16,
        },
        memory_words: 1 << 12,
        ..MachineConfig::default()
    }
}

/// Runs `schedule` on `m`, collecting every result.
fn run_schedule(m: &mut Machine, schedule: &[(Mode, u64)]) -> Vec<RunResult> {
    schedule
        .iter()
        .map(|&(mode, ops)| m.run(mode, ops))
        .collect()
}

/// A machine of `w` that has run a schedule of its own, so its timing
/// model, MSHRs, scoreboard and last-data-line memo hold stale values.
fn dirty_machine(w: &Workload, cfg: MachineConfig, rng: &mut DetRng) -> Machine {
    let mut m = w.machine_with(cfg);
    m.run(Mode::DetailedMeasured, 1 + rng.range_u64(20_000));
    m.run(MODES[rng.range_usize(4)], rng.range_u64(20_000));
    m
}

#[test]
fn in_place_state_transfer_is_bit_exact_on_dirty_targets() {
    // Snapshot round trip, plus both in-place paths: after the split,
    // `restore_from` and in-place decoding into a dirty machine must
    // continue exactly as `restore` of the snapshot into a fresh one.
    let mut rng = DetRng::seed_from_u64(0x7ea5_f3e7);
    for case in 0..24 {
        let w = random_workload(&mut rng);
        let cfg = if case % 6 == 5 {
            MachineConfig::default()
        } else {
            small_config()
        };
        let prefix_mode = MODES[rng.range_usize(4)];
        let split = 1 + rng.range_u64(w.nominal_ops() * 9 / 10);
        let tail = [
            (MODES[case % 4], 1 + rng.range_u64(40_000)),
            (Mode::DetailedMeasured, 3_000),
            (Mode::Functional, u64::MAX),
        ];

        let mut src = w.machine_with(cfg);
        src.run(prefix_mode, split);
        let snap = src.snapshot();
        let bytes = encode_machine_snapshot(&snap);
        assert_eq!(bytes, encode_machine_state(src.state()), "case {case}");
        assert_eq!(
            decode_machine_snapshot(&bytes).unwrap(),
            snap,
            "case {case}"
        );

        let mut fresh = w.machine_with(cfg);
        fresh.restore(&snap);
        assert_eq!(fresh.snapshot(), snap, "case {case}");
        let mut copied = dirty_machine(&w, cfg, &mut rng);
        copied.restore_from(&src);
        let mut decoded = dirty_machine(&w, cfg, &mut rng);
        decode_machine_snapshot_into(&bytes, &mut decoded).unwrap();

        let expected = run_schedule(&mut fresh, &tail);
        let end = fresh.snapshot();
        for (path, m) in [("restore_from", &mut copied), ("decode_into", &mut decoded)] {
            assert_eq!(run_schedule(m, &tail), expected, "case {case}: {path}");
            assert_eq!(m.snapshot(), end, "case {case}: {path}");
        }
        // A snapshot taken between detailed regions is invisible: the
        // uninterrupted run finishes identically. One exception in the
        // statistics only: the I-cache fetch memo (last line fetched) is
        // not snapshot state, so a Functional tail right after a
        // Functional prefix may count one more L1I hit after a restore.
        if !prefix_mode.is_detailed() {
            assert_eq!(run_schedule(&mut src, &tail), expected, "case {case}");
            if (prefix_mode, tail[0].0) != (Mode::Functional, Mode::Functional) {
                assert_eq!(src.snapshot(), end, "case {case}");
            }
        }
    }
}

/// Decodes `bytes` into `target` in place and, on error, checks that the
/// target was left untouched; on success puts `before` back.
fn decode_into_or_untouched(
    bytes: &[u8],
    target: &mut Machine,
    before: &pgss_cpu::MachineSnapshot,
) {
    match decode_machine_snapshot_into(bytes, target) {
        Err(CodecError::Truncated | CodecError::Malformed(_)) => {
            assert!(
                target.snapshot() == *before,
                "failed decode mutated the target"
            );
        }
        Ok(()) => target.restore(before),
    }
    // The allocating decoder is total over the same bytes too.
    let _ = decode_machine_snapshot(bytes);
}

#[test]
fn in_place_decoder_fails_safely_on_corrupt_bytes() {
    // A workload with a small data image keeps the rung to a few KiB, so
    // every truncation and every bit flip can be tried.
    let mut rng = DetRng::seed_from_u64(0xf022_bad5);
    let mut b = WorkloadBuilder::new("fuzz", 11);
    let branchy = b.add_segment(Kernel::Branchy {
        table_words: 256,
        bias: 100,
        work_per_side: 2,
    });
    let compute = b.add_segment(Kernel::ComputeInt {
        chains: 3,
        ops_per_chain: 2,
    });
    b.alternate(&[(branchy, 20_000), (compute, 20_000)], 2);
    let w = b.finish();
    let cfg = small_config();
    let mut src = w.machine_with(cfg);
    src.run(Mode::Functional, w.nominal_ops() / 2);
    let rung = encode_machine_state(src.state());
    let mut target = dirty_machine(&w, cfg, &mut rng);
    let before = target.snapshot();

    // Every truncation of a valid rung is an error.
    for cut in 0..rung.len() {
        assert!(
            decode_machine_snapshot_into(&rung[..cut], &mut target).is_err(),
            "truncation at {cut} decoded"
        );
        assert!(
            target.snapshot() == before,
            "truncation at {cut} mutated the target"
        );
    }
    // Single-bit flips: some land in plain values and decode, the rest
    // must fail cleanly.
    for bit in 0..rung.len() * 8 {
        let mut bytes = rung.clone();
        bytes[bit / 8] ^= 1 << (bit % 8);
        decode_into_or_untouched(&bytes, &mut target, &before);
    }
    // Byte soup, half of it behind a valid prefix so it gets past the
    // version check into the variable-length fields.
    for _ in 0..2_000 {
        let mut bytes = if rng.range_u64(2) == 0 {
            rung[..rng.range_usize(rung.len())].to_vec()
        } else {
            Vec::new()
        };
        for _ in 0..rng.range_usize(600) {
            bytes.push(rng.next_u64() as u8);
        }
        decode_into_or_untouched(&bytes, &mut target, &before);
    }
    assert!(target.snapshot() == before);
}

#[test]
fn absurd_memory_lengths_are_rejected_not_allocated() {
    // A snapshot whose memory image is one zero run, re-declared as 2^40
    // words: a few bytes that must not become a 8 TiB allocation.
    let w = pgss_workloads::gzip(0.01);
    let mut machine = w.machine_with(small_config());
    let mut snap = machine.snapshot();
    snap.mem.fill(0);
    let mut bytes = encode_machine_snapshot(&snap);
    let mem_at = 4 + 4 + 32 * 8 + 32 * 8; // version, pc, registers
    for field in [mem_at, mem_at + 8] {
        bytes[field..field + 8].copy_from_slice(&(1u64 << 40).to_le_bytes());
    }
    assert!(matches!(
        decode_machine_snapshot(&bytes),
        Err(CodecError::Malformed(_))
    ));
    let before = machine.snapshot();
    assert!(matches!(
        decode_machine_snapshot_into(&bytes, &mut machine),
        Err(CodecError::Malformed(_))
    ));
    assert!(machine.snapshot() == before);
}
