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
//! leaves its target untouched. A machine's live-page map is checked
//! against a dense memory model across every transfer and the encoder.

mod util;

use std::sync::Arc;

use pgss::ckpt::{
    decode_machine_snapshot, decode_machine_snapshot_into, encode_machine_snapshot,
    encode_machine_state,
};
use pgss::{
    campaign, AdaptivePgss, CampaignConfig, CheckpointLadder, Job, LadderSpec, OnlineSimPoint,
    PgssSim, SimContext, SimPointOffline, Smarts, Technique, TurboSmarts, SNAPSHOT_FORMAT_VERSION,
};
use pgss_ckpt::{fnv1a64, CodecError, STORE_FORMAT_VERSION};
use pgss_cpu::{
    BranchPredictorConfig, CacheConfig, Machine, MachineConfig, Mode, RunResult, PAGE_WORDS,
};
use pgss_isa::{Assembler, Reg};
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

#[test]
fn every_technique_is_bit_exact_under_checkpoint_acceleration() {
    let w = workload();
    let cfg = MachineConfig::default();
    for t in techniques() {
        let plain = t.run_traced(&w, &cfg, &SimContext::none());
        let spec = LadderSpec::for_techniques(500_000, [t.as_ref()]);
        let ladder = Arc::new(CheckpointLadder::capture(&w, &cfg, &spec));
        let ctx = SimContext::with_ladder(Arc::clone(&ladder));
        let fast = t.run_traced(&w, &cfg, &ctx);
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

    let plain = campaign::run_with(&jobs, &CampaignConfig::default()).unwrap();
    assert!(plain.is_complete());
    let first = util::checkpointed_campaign(&jobs, &store);
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
    let second = util::checkpointed_campaign(&jobs, &store);
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
    let third = util::checkpointed_campaign(&jobs, &store);
    assert_eq!(plain.cells, third.cells);
    assert!(third.ladder.capture_ops > 0, "corrupt store must recapture");
    assert!(
        !third.checkpoint_faults.is_empty(),
        "wholesale corruption must be ledgered"
    );
}

#[test]
fn each_ladder_is_one_store_record() {
    let (tmp, store) = util::temp_store("pgss-ckpt-one-record");
    let workloads = vec![pgss_workloads::gzip(0.01), pgss_workloads::equake(0.01)];
    let smarts = Smarts {
        period_ops: 100_000,
        ..Smarts::default()
    };
    let techs: Vec<&(dyn Technique + Sync)> = vec![&smarts];
    let jobs = campaign::grid(&workloads, &techs, MachineConfig::default());
    let report = util::checkpointed_campaign(&jobs, &store);
    assert!(report.is_complete(), "{}", report.ledger());
    assert!(report.ladder.capture_ops > 0 && report.checkpoint_faults.is_empty());

    // Two (workload, config) groups: two record files, at the groups' keys.
    let mut files: Vec<_> = std::fs::read_dir(tmp.path())
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.is_file())
        .collect();
    files.sort();
    let mut expected: Vec<_> = campaign::ladder_groups(&jobs, 50_000)
        .iter()
        .map(|group| store.path_for(group.key(&jobs)))
        .collect();
    expected.sort();
    assert_eq!(expected.len(), 2);
    assert_eq!(files, expected);
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

    let plain = campaign::run_with(&jobs, &CampaignConfig::default()).unwrap();
    let first = util::checkpointed_campaign(&jobs, &store);
    assert_eq!(plain.cells, first.cells);

    // Corrupt the ladder: its one record is the only file in the store.
    // Flip one payload byte.
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
    let healed = util::checkpointed_campaign(&jobs, &store);
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
    assert!(victim.is_file(), "recapture must write the ladder back");

    // Next run loads clean: no recapture, no faults.
    let clean = util::checkpointed_campaign(&jobs, &store);
    assert_eq!(plain.cells, clean.cells);
    assert_eq!(clean.ladder.capture_ops, 0, "store must be healed");
    assert!(
        clean.checkpoint_faults.is_empty(),
        "{:?}",
        clean.checkpoint_faults
    );
}

/// SMARTS whose first attempt on each workload panics, so every ladder
/// group of a campaign has one retried cell.
struct FlakyOnce {
    inner: Smarts,
    failed_on: std::sync::Mutex<Vec<String>>,
}

impl FlakyOnce {
    fn new() -> FlakyOnce {
        FlakyOnce {
            inner: Smarts {
                period_ops: 100_000,
                ..Smarts::default()
            },
            failed_on: std::sync::Mutex::new(Vec::new()),
        }
    }
}

impl Technique for FlakyOnce {
    fn name(&self) -> String {
        format!("FlakyOnce({})", self.inner.name())
    }
    fn run_traced(
        &self,
        workload: &Workload,
        config: &MachineConfig,
        ctx: &SimContext,
    ) -> (pgss::Estimate, pgss::RunTrace) {
        let first = {
            let mut failed_on = self.failed_on.lock().unwrap();
            let first = !failed_on.iter().any(|n| n == workload.name());
            if first {
                failed_on.push(workload.name().to_string());
            }
            first
        };
        assert!(
            !first,
            "{} first attempt on {}",
            campaign::INJECTED_PANIC_TAG,
            workload.name()
        );
        self.inner.run_traced(workload, config, ctx)
    }
    fn tracks(&self) -> Vec<pgss::Track> {
        self.inner.tracks()
    }
}

#[test]
fn checkpointed_multi_group_campaign_is_identical_across_worker_counts() {
    campaign::silence_injected_panic_reports();
    let workloads = vec![pgss_workloads::twolf(0.01), pgss_workloads::parser(0.01)];
    let pgss = PgssSim {
        ff_ops: 100_000,
        spacing_ops: 200_000,
        ..PgssSim::default()
    };
    // `campaign::grid` order (workload-major) with a fresh flaky technique.
    fn jobs<'a>(
        workloads: &'a [Workload],
        flaky: &'a FlakyOnce,
        pgss: &'a PgssSim,
    ) -> Vec<Job<'a>> {
        let techs: [&(dyn Technique + Sync); 2] = [flaky, pgss];
        workloads
            .iter()
            .flat_map(|w| techs.map(|t| Job::new(w, t)))
            .collect()
    }
    let tmp = util::TempDir::new("pgss-ckpt-workers");
    // A warm store with one corrupt ladder record per group, copied afresh
    // into the same directory for every run so that the healed-fault
    // lines, which name quarantine paths, are comparable.
    let template = tmp.path().join("template");
    let victims: Vec<String> = {
        let store = pgss_ckpt::Store::open(&template).unwrap();
        let flaky = FlakyOnce::new();
        let jobs = jobs(&workloads, &flaky, &pgss);
        let warm = util::checkpointed_campaign(&jobs, &store);
        assert!(warm.is_complete() && warm.checkpoint_faults.is_empty());
        let groups = campaign::ladder_groups(&jobs, 50_000);
        assert_eq!(groups.len(), 2);
        groups
            .iter()
            .map(|group| {
                let key = group.key(&jobs);
                let victim = store.path_for(key);
                let mut bytes = std::fs::read(&victim).unwrap();
                *bytes.last_mut().unwrap() ^= 0x01;
                std::fs::write(&victim, &bytes).unwrap();
                format!("{key:016x}")
            })
            .collect()
    };
    let run = |workers: usize| {
        let dir = tmp.path().join("run");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for entry in std::fs::read_dir(&template).unwrap() {
            let path = entry.unwrap().path();
            if path.is_file() {
                std::fs::copy(&path, dir.join(path.file_name().unwrap())).unwrap();
            }
        }
        let store = pgss_ckpt::Store::open(&dir).unwrap();
        let flaky = FlakyOnce::new();
        let config = CampaignConfig::with_workers(workers);
        campaign::run_checkpointed_with(
            &jobs(&workloads, &flaky, &pgss),
            50_000,
            Some(&store),
            &config,
        )
        .unwrap()
    };

    let one = run(1);
    assert!(one.is_complete(), "{}", one.ledger());
    assert_eq!(one.retries, 2, "one retried cell per group");
    assert!(one.ladder.capture_ops > 0, "corrupt ladders are recaptured");
    let flaky = FlakyOnce::new();
    let plain = campaign::run_with(
        &jobs(&workloads, &flaky, &pgss),
        &CampaignConfig::with_workers(2),
    )
    .unwrap();
    assert_eq!(one.cells, plain.cells);
    // Healed faults come in group order, whichever group healed first.
    let position = |key: &String| {
        one.checkpoint_faults
            .iter()
            .position(|f| f.contains("quarantined") && f.contains(key.as_str()))
            .unwrap_or_else(|| panic!("no quarantine of {key}: {:?}", one.checkpoint_faults))
    };
    assert!(position(&victims[0]) < position(&victims[1]));
    for workers in [2, 4] {
        let report = run(workers);
        assert_eq!(report, one, "{workers} workers");
        assert_eq!(report.canonical_jsonl(), one.canonical_jsonl());
        assert_eq!(report.metrics.to_jsonl(), one.metrics.to_jsonl());
    }
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
}

const MODES: [Mode; 4] = [
    Mode::FastForward,
    Mode::Functional,
    Mode::DetailedWarming,
    Mode::DetailedMeasured,
];

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
        let w = util::random_workload(&mut rng);
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
    // The target also holds data on the last page, which the rung lacks,
    // so a decode that went wrong would have a page to clear.
    let mut target = dirty_machine(&w, cfg, &mut rng);
    let last = target.memory().len() - 1;
    assert_eq!(src.state().live.unwrap()[last / PAGE_WORDS], 0);
    target.write_memory(last - 2, &[3, 0, -9]);
    let mut pristine = w.machine_with(cfg);
    pristine.restore_from(&target);
    let before = target.snapshot();
    let live_before = target.state().live.unwrap().to_vec();

    util::fuzz_decoder(&rung, &mut rng, |bytes| {
        let result = decode_machine_snapshot_into(bytes, &mut target);
        match result {
            Err(_) => {
                assert!(
                    target.snapshot() == before,
                    "failed decode mutated the target"
                );
                assert!(
                    target.state().live.unwrap() == live_before,
                    "failed decode changed the target's page map"
                );
            }
            Ok(()) => target.restore_from(&pristine),
        }
        // The allocating decoder is total over the same bytes too.
        let _ = decode_machine_snapshot(bytes);
        result
    });
    assert!(target.snapshot() == before);
    assert!(target.state().live.unwrap() == live_before);
}

/// A word address a sparse image favours: either side of a page edge,
/// the last word, or anywhere.
fn sparse_addr(words: usize, rng: &mut DetRng) -> usize {
    let edge = (1 + rng.range_usize(words.div_ceil(PAGE_WORDS))) * PAGE_WORDS;
    match rng.range_u64(4) {
        0 => (edge - 1).min(words - 1),
        1 => edge % words,
        2 => words - 1,
        _ => rng.range_usize(words),
    }
}

/// A halted machine of `words` memory words holding a seeded sparse
/// image, and a dense model of that image. The image is written before
/// the run through `write_memory` (zero words included, so some live
/// pages hold nothing) and during it by stores: integer stores, one whose
/// address wraps to the last word, and one through the float file.
fn sparse_machine(words: usize, rng: &mut DetRng) -> (Machine, Vec<i64>) {
    let cfg = MachineConfig {
        memory_words: words,
        ..small_config()
    };
    let mut model = vec![0i64; words];
    let mut asm = Assembler::new();
    let mut stores = Vec::new();
    for _ in 0..1 + rng.range_usize(6) {
        let (addr, value) = (sparse_addr(words, rng), rng.next_i64() | 1);
        asm.li(Reg::R2, addr as i64);
        asm.li(Reg::R3, value);
        asm.store(Reg::R3, Reg::R2, 0);
        stores.push((addr, value));
    }
    let wrapped = rng.next_i64() | 1;
    asm.li(Reg::R2, -1);
    asm.li(Reg::R3, wrapped);
    asm.store(Reg::R3, Reg::R2, 0);
    stores.push((words - 1, wrapped));
    let (from, to) = (stores[0].0, sparse_addr(words, rng));
    asm.li(Reg::R2, from as i64);
    asm.fload(Reg::R1, Reg::R2, 0);
    asm.li(Reg::R2, to as i64);
    asm.fstore(Reg::R1, Reg::R2, 0);
    asm.halt();
    let mut m = Machine::new(cfg, &asm.finish().unwrap());

    for _ in 0..rng.range_usize(4) {
        let base = sparse_addr(words, rng);
        let len = (1 + rng.range_usize(PAGE_WORDS + 3)).min(words - base);
        let chunk: Vec<i64> = (0..len)
            .map(|_| match rng.range_u64(3) {
                0 => 0,
                _ => rng.next_i64(),
            })
            .collect();
        m.write_memory(base, &chunk);
        model[base..base + len].copy_from_slice(&chunk);
    }
    for (addr, value) in stores {
        model[addr] = value;
    }
    model[to] = model[from];
    m.run(Mode::Functional, u64::MAX);
    assert!(m.halted() && m.fault().is_none());
    (m, model)
}

/// The page map each page's contents call for: live exactly where a word
/// is non-zero.
fn pages_holding_data(mem: &[i64]) -> Vec<u8> {
    mem.chunks(PAGE_WORDS)
        .map(|page| u8::from(page.iter().any(|&x| x != 0)))
        .collect()
}

/// Checks `m` against the dense `model`: equal memory, no clear page
/// holding data, and a paged encoding byte-identical to the dense one.
fn assert_paged_state(m: &Machine, model: &[i64], what: &str) {
    assert!(m.memory() == model, "{what}: memory differs from the model");
    let live = m.state().live.expect("a machine carries its page map");
    assert_eq!(live.len(), model.len().div_ceil(PAGE_WORDS), "{what}");
    for (p, (page, &entry)) in m.memory().chunks(PAGE_WORDS).zip(live).enumerate() {
        assert!(
            entry != 0 || page.iter().all(|&x| x == 0),
            "{what}: page {p} is clear but holds data"
        );
    }
    assert_eq!(
        encode_machine_state(m.state()),
        encode_machine_snapshot(&m.snapshot()),
        "{what}: the paged encoding differs from the dense one"
    );
}

#[test]
fn page_map_tracks_a_dense_model_across_every_transfer() {
    let mut rng = DetRng::seed_from_u64(0x9a6e_11fe);
    for case in 0..36 {
        // Smaller than one page, a few pages, and many.
        let words = [256, 1 << 12, 1 << 14][case % 3];
        let (src, model) = sparse_machine(words, &mut rng);
        assert_paged_state(&src, &model, &format!("case {case}: source"));
        let snap = src.snapshot();
        let bytes = encode_machine_state(src.state());
        assert!(decode_machine_snapshot(&bytes).unwrap().mem == model);

        // Targets with live pages of their own: a sparse one, and one
        // whose every word is non-zero.
        let mut targets = || {
            let sparse = sparse_machine(words, &mut rng).0;
            let (mut full, _) = sparse_machine(words, &mut rng);
            full.write_memory(0, &vec![-7; words]);
            [sparse, full]
        };
        for (k, mut t) in targets().into_iter().enumerate() {
            t.restore_from(&src);
            assert_paged_state(&t, &model, &format!("case {case}.{k}: restore_from"));
            assert_eq!(t.state().live, src.state().live, "case {case}.{k}");
        }
        for (k, mut t) in targets().into_iter().enumerate() {
            t.restore(&snap);
            assert_paged_state(&t, &model, &format!("case {case}.{k}: restore"));
            assert_eq!(t.state().live.unwrap(), pages_holding_data(&model));
        }
        for (k, mut t) in targets().into_iter().enumerate() {
            decode_machine_snapshot_into(&bytes, &mut t).unwrap();
            assert_paged_state(&t, &model, &format!("case {case}.{k}: decode_into"));
            assert_eq!(t.state().live.unwrap(), pages_holding_data(&model));
        }
    }
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
