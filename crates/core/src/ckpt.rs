//! Typed checkpoints on top of the [`pgss_ckpt`] byte store: snapshot
//! encoding, content-address keys, and the capture ladder that lets
//! many driver passes share one functional fast-forward of a workload.
//!
//! Layering (bottom to top):
//!
//! 1. [`pgss_ckpt::codec`] / [`pgss_ckpt::Store`] — bytes only; versioned,
//!    checksummed, crash-safe records.
//! 2. This module — encodes [`pgss_cpu::MachineSnapshot`] payloads and
//!    builds [`CheckpointLadder`]s: snapshots at a fixed op stride with
//!    *cumulative* BBV tracker state per rung, stored as one record whose
//!    content-address key digests (workload identity, machine config,
//!    ladder spec, format versions).
//! 3. [`crate::driver::SimDriver`] — when built with a ladder, *jumps*
//!    over functional segments by restoring the highest rung inside the
//!    segment instead of executing it, and counts each jump and the ops
//!    it skipped in its metric frame. A built ladder is read-only: it
//!    records nothing about its use.
//! 4. [`crate::campaign::run_checkpointed_with`] — captures each workload's
//!    ladder once, fans restores out to every technique in the grid, and
//!    sums the cells' frames into the campaign's `ckpt.ladder.*` counters.
//!
//! This is the paper's TurboSMARTS idea (SMARTS with live-state
//! checkpoints) generalised: any pass that functionally fast-forwards —
//! SMARTS inter-sample gaps, PGSS/Online-SimPoint classification
//! intervals, SimPoint profile and replay skips — can consume the same
//! checkpoints, because functional warming leaves the machine in exactly
//! the state any other warm-mode path would (architectural execution and
//! cache/predictor updates are mode-independent).
//!
//! # Fault tolerance
//!
//! Store reads are *self-healing*: [`CheckpointLadder::load_or_capture`]
//! reads the ladder's one record via [`Store::get_checked`], and a record
//! that exists but fails validation or decoding is moved into the store's
//! quarantine sidecar (never deleted — the evidence survives for
//! post-mortem) before the ladder is recaptured from scratch and written
//! back. Every such event, plus any store I/O error or failed
//! write-back, lands in the ladder's [`CheckpointLadder::fault_log`],
//! which campaigns surface in their report ledger. Because recapture
//! reproduces the exact bytes the record held before it rotted, healing
//! is invisible to results.

// Checkpoint state feeds bit-exact simulation results; a stray unwrap on
// this path would turn a recoverable corrupt record into an abort.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::ops::Range;

use pgss_bbv::{BbvHash, FullBbv, FullBbvTracker, HashedBbv, HashedBbvTracker, HASHED_BBV_DIM};
use pgss_ckpt::{fnv1a64, CodecError, Decoder, Encoder, RecordError, Store};
use pgss_cpu::{
    BranchPredictorState, BtbState, CacheState, Machine, MachineConfig, MachineSnapshot,
    MachineStateMut, MachineStateRef, Mode, ModeOps, PAGE_WORDS,
};
use pgss_workloads::Workload;

use crate::{Technique, Track};

/// Version of the *payload* encoding produced by this module (the store
/// has its own record-layout version,
/// [`pgss_ckpt::STORE_FORMAT_VERSION`]). Bump on any change to the
/// snapshot byte layout; decoders reject other versions, and the version
/// participates in content-address keys so stale records are simply
/// never found.
pub const SNAPSHOT_FORMAT_VERSION: u32 = 1;

/// Largest memory image, in words, [`decode_machine_snapshot`] will
/// allocate: 2 GiB, far above any configured machine (the default is
/// 2^22 words). Zero runs cost a few bytes however long they are, so
/// without a cap a tiny corrupt record could demand any allocation.
const MAX_SNAPSHOT_MEMORY_WORDS: usize = 1 << 28;

/// Encodes a machine snapshot. The memory image uses zero-run
/// compression, so the encoded size tracks the workload's touched
/// footprint rather than the configured memory size.
pub fn encode_machine_snapshot(snap: &MachineSnapshot) -> Vec<u8> {
    encode_machine_state(snap.state())
}

/// Encodes the state a snapshot would carry straight from its borrowed
/// form — for a live machine, [`Machine::state`] — producing the same
/// bytes as [`encode_machine_snapshot`] without copying the memory image.
/// A live machine's page map lets the encoder skip the pages it never
/// wrote.
pub fn encode_machine_state(state: MachineStateRef<'_>) -> Vec<u8> {
    let mut e = Encoder::new();
    put_machine_state(&mut e, state);
    e.into_bytes()
}

/// Appends [`encode_machine_state`]'s bytes to `e`.
fn put_machine_state(e: &mut Encoder, state: MachineStateRef<'_>) {
    e.put_u32(SNAPSHOT_FORMAT_VERSION);
    e.put_u32(state.pc);
    for &r in state.regs {
        e.put_i64(r);
    }
    for &f in state.fregs {
        e.put_f64(f);
    }
    match state.live {
        Some(live) => e.put_i64_slice_rle_paged(state.mem, PAGE_WORDS, live),
        None => e.put_i64_slice_rle(state.mem),
    }
    e.put_bool(state.halted);
    put_mode_ops(e, state.mode_ops);
    e.put_u64(state.ops_since_taken);
    for c in state.caches {
        e.put_u64_slice(&c.ways);
        e.put_u64(c.hits);
        e.put_u64(c.misses);
    }
    e.put_bytes(&state.bpred.counters);
    e.put_u64(state.bpred.history);
    e.put_u64(state.bpred.predictions);
    e.put_u64(state.bpred.mispredictions);
    e.put_u64(state.btb.targets.len() as u64);
    for &t in &state.btb.targets {
        e.put_u32(t);
    }
}

/// Decodes bytes produced by [`encode_machine_snapshot`], rejecting
/// other snapshot-format versions. The bytes are validated in full
/// before anything is allocated; the memory image is then allocated
/// once, at its declared length, and only its literals are written.
pub fn decode_machine_snapshot(bytes: &[u8]) -> Result<MachineSnapshot, CodecError> {
    let shape = validate_machine_snapshot(bytes)?;
    if shape.mem > MAX_SNAPSHOT_MEMORY_WORDS {
        return Err(CodecError::Malformed(
            "memory image exceeds the snapshot limit",
        ));
    }
    let mut snap = MachineSnapshot {
        pc: 0,
        regs: [0; 32],
        fregs: [0.0; 32],
        mem: vec![0; shape.mem],
        halted: false,
        mode_ops: ModeOps::default(),
        ops_since_taken: 0,
        caches: shape.ways.map(|n| CacheState {
            ways: vec![0; n],
            hits: 0,
            misses: 0,
        }),
        bpred: BranchPredictorState {
            counters: vec![0; shape.counters],
            history: 0,
            predictions: 0,
            mispredictions: 0,
        },
        btb: BtbState {
            targets: vec![0; shape.btb],
        },
    };
    // A zeroed image with an all-clear page map: zero runs write nothing.
    let mut live = vec![0; shape.mem.div_ceil(PAGE_WORDS)];
    fill_machine_state(&mut Decoder::new(bytes), snap.state_mut(&mut live))?;
    Ok(snap)
}

/// Decodes bytes produced by [`encode_machine_snapshot`] straight into
/// `machine`'s existing buffers — the memory image, tag arrays and
/// counter tables — leaving it as [`Machine::restore`] of the decoded
/// snapshot would. All or nothing: the bytes are validated in full, and
/// their declared shapes checked against the machine's, before anything
/// is written, so on `Err` the machine is untouched. Zero runs are
/// written only on pages the machine had live, and its page map becomes
/// the pages holding a literal.
pub fn decode_machine_snapshot_into(bytes: &[u8], machine: &mut Machine) -> Result<(), CodecError> {
    let shape = validate_machine_snapshot(bytes)?;
    machine.restore_with(|state| {
        if SnapshotShape::of(&state) != shape {
            return Err(CodecError::Malformed(
                "snapshot shape does not match the machine",
            ));
        }
        fill_machine_state(&mut Decoder::new(bytes), state)
    })
}

/// The lengths of a snapshot's variable-size fields as its bytes declare
/// them.
#[derive(Debug, PartialEq, Eq)]
struct SnapshotShape {
    mem: usize,
    ways: [usize; 3],
    counters: usize,
    btb: usize,
}

impl SnapshotShape {
    fn of(state: &MachineStateMut<'_>) -> SnapshotShape {
        SnapshotShape {
            mem: state.mem.len(),
            ways: state.caches.each_ref().map(|c| c.ways.len()),
            counters: state.bpred.counters.len(),
            btb: state.btb.targets.len(),
        }
    }
}

/// Checks bytes produced by [`encode_machine_snapshot`] field by field
/// without building anything: the version, every length against the
/// bytes present, the memory image's zero runs against its declared
/// length, and no trailing bytes. Returns the declared shape.
fn validate_machine_snapshot(bytes: &[u8]) -> Result<SnapshotShape, CodecError> {
    let mut d = Decoder::new(bytes);
    d.expect_version(SNAPSHOT_FORMAT_VERSION, "snapshot format version mismatch")?;
    d.skip(4 + 32 * 8 + 32 * 8)?; // pc, integer and float registers
    let mem = d.skip_i64_slice_rle()?;
    d.get_bool()?;
    d.skip(5 * 8)?; // mode ops, ops since taken
    let mut ways = [0; 3];
    for w in &mut ways {
        *w = d.skip_slice(8)?;
        d.skip(2 * 8)?; // hits, misses
    }
    let counters = d.skip_slice(1)?;
    d.skip(3 * 8)?; // history, predictions, mispredictions
    let btb = d.skip_slice(4)?;
    d.finish()?;
    Ok(SnapshotShape {
        mem,
        ways,
        counters,
        btb,
    })
}

/// Writes validated snapshot bytes into `state`, whose shape matches
/// theirs.
fn fill_machine_state(d: &mut Decoder<'_>, state: MachineStateMut<'_>) -> Result<(), CodecError> {
    d.expect_version(SNAPSHOT_FORMAT_VERSION, "snapshot format version mismatch")?;
    *state.pc = d.get_u32()?;
    for r in state.regs {
        *r = d.get_i64()?;
    }
    for f in state.fregs {
        *f = d.get_f64()?;
    }
    d.get_i64_slice_rle_into_paged(state.mem, PAGE_WORDS, state.live)?;
    *state.halted = d.get_bool()?;
    *state.mode_ops = get_mode_ops(d)?;
    *state.ops_since_taken = d.get_u64()?;
    for c in state.caches {
        d.get_u64_slice_into(&mut c.ways)?;
        c.hits = d.get_u64()?;
        c.misses = d.get_u64()?;
    }
    let bpred = state.bpred;
    d.get_bytes_into(&mut bpred.counters)?;
    bpred.history = d.get_u64()?;
    bpred.predictions = d.get_u64()?;
    bpred.mispredictions = d.get_u64()?;
    let targets = &mut state.btb.targets;
    if d.get_u64()? != targets.len() as u64 {
        return Err(CodecError::Malformed("BTB size mismatch"));
    }
    for t in targets {
        *t = d.get_u32()?;
    }
    Ok(())
}

fn put_mode_ops(e: &mut Encoder, ops: ModeOps) {
    e.put_u64(ops.fast_forward);
    e.put_u64(ops.functional);
    e.put_u64(ops.detailed_warming);
    e.put_u64(ops.detailed_measured);
}

fn get_mode_ops(d: &mut Decoder<'_>) -> Result<ModeOps, CodecError> {
    Ok(ModeOps {
        fast_forward: d.get_u64()?,
        functional: d.get_u64()?,
        detailed_warming: d.get_u64()?,
        detailed_measured: d.get_u64()?,
    })
}

fn put_hashed_bbv(e: &mut Encoder, bbv: &HashedBbv) {
    e.put_u64_slice(bbv.counts());
}

fn get_hashed_bbv(d: &mut Decoder<'_>) -> Result<HashedBbv, CodecError> {
    let counts: [u64; HASHED_BBV_DIM] = d
        .get_counts()?
        .try_into()
        .map_err(|_| CodecError::Malformed("hashed BBV dimension"))?;
    Ok(HashedBbv::from_counts(counts))
}

/// FNV digest over every field of a [`MachineConfig`].
pub fn config_digest(config: &MachineConfig) -> u64 {
    let mut e = Encoder::new();
    e.put_u32(config.issue_width);
    for c in [config.l1i, config.l1d, config.l2] {
        e.put_u64(c.size_bytes);
        e.put_u64(c.line_bytes);
        e.put_u32(c.associativity);
    }
    e.put_u32(config.bpred.history_bits);
    e.put_u32(config.bpred.btb_entries);
    let l = config.lat;
    for v in [
        l.alu,
        l.mul,
        l.div,
        l.fp_add,
        l.fp_mul,
        l.fp_div,
        l.l1_hit,
        l.l2_hit,
        l.memory,
        l.mispredict,
    ] {
        e.put_u32(v);
    }
    e.put_u64(config.memory_words as u64);
    e.put_u32(config.mshrs);
    fnv1a64(&e.into_bytes())
}

/// What a [`CheckpointLadder`] capture pass tracks alongside the
/// snapshots.
///
/// Jumping into a BBV-tracked pass requires the ladder to carry that
/// track's *cumulative* counts, so the union of every consuming
/// technique's tracks must be declared up front
/// ([`LadderSpec::for_techniques`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LadderSpec {
    /// Distance between rungs, in retired ops.
    pub stride: u64,
    /// Hash seeds whose cumulative hashed BBVs each rung carries.
    pub hashed_seeds: Vec<u64>,
    /// Whether rungs carry the cumulative full (per-static-block) BBV.
    pub with_full: bool,
}

impl LadderSpec {
    /// A machine-state-only spec (sufficient for `Track::None` passes).
    pub fn machine_only(stride: u64) -> LadderSpec {
        LadderSpec {
            stride,
            hashed_seeds: Vec::new(),
            with_full: false,
        }
    }

    /// The spec a set of techniques sharing one ladder needs: `stride`,
    /// plus the union of their [`Technique::tracks`]. Hashed seeds keep
    /// their first-seen order, because store keys hash the spec: the same
    /// techniques in the same order must find the same record.
    pub fn for_techniques<'t, T: Technique + ?Sized + 't>(
        stride: u64,
        techniques: impl IntoIterator<Item = &'t T>,
    ) -> LadderSpec {
        let mut spec = LadderSpec::machine_only(stride);
        for track in techniques.into_iter().flat_map(|t| t.tracks()) {
            match track {
                Track::Hashed(s) if !spec.hashed_seeds.contains(&s) => spec.hashed_seeds.push(s),
                Track::Full => spec.with_full = true,
                _ => {}
            }
        }
        spec
    }
}

/// Version of a ladder's store record. Bump on any change to its layout
/// (the snapshot bytes inside it included); it is part of the record's
/// key, so a store of an older layout misses once and recaptures.
const LADDER_FORMAT_VERSION: u32 = 1;

/// One rung: the workload's complete state at `retired`, held as the
/// byte range of its encoded (zero-run-compressed) snapshot inside the
/// ladder's record, plus cumulative-since-op-0 tracker counts.
#[derive(Debug, Clone)]
pub(crate) struct LadderRung {
    pub(crate) retired: u64,
    machine: Range<usize>,
    pub(crate) hashed_cum: Vec<HashedBbv>,
    pub(crate) full_cum: Option<FullBbv>,
}

/// What building a ladder cost: the ops its capture pass executed.
/// How drivers then used the ladder — jumps, skipped and executed ops —
/// is recorded in each cell's metric frame, not on the ladder, which is
/// read-only once built.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LadderReport {
    /// Ops the capture pass executed (0 when the ladder was loaded from
    /// a store).
    pub capture_ops: u64,
}

/// A ladder of checkpoints up a workload's execution: snapshots every
/// [`LadderSpec::stride`] retired ops, each carrying cumulative BBV
/// tracker state, captured by one functional pass (or loaded from a
/// [`Store`]). Bound to [`crate::driver::SimDriver`]s through
/// [`crate::SimContext`], it lets every functional fast-forward segment
/// be replaced by a restore of the highest rung the segment spans —
/// with identical observable results, because functional warming is
/// deterministic and mode-independent.
///
/// The ladder is its store record: one buffer holding a format version,
/// the rung count, the spec's track shape, then every rung in order (its
/// offset, its snapshot bytes, one cumulative hashed BBV per seed, and
/// the full BBV when tracked). It is loaded, written back and
/// quarantined whole.
#[derive(Debug)]
pub struct CheckpointLadder {
    spec: LadderSpec,
    record: Vec<u8>,
    rungs: Vec<LadderRung>,
    capture_ops: u64,
    fault_log: Vec<String>,
}

impl CheckpointLadder {
    /// Runs the capture pass: one functional execution of `workload` to
    /// halt, snapshotting at every stride boundary.
    ///
    /// # Panics
    ///
    /// Panics if `spec.stride` is zero.
    pub fn capture(workload: &Workload, config: &MachineConfig, spec: &LadderSpec) -> Self {
        assert!(spec.stride > 0, "ladder stride must be positive");
        let mut machine = workload.machine_with(*config);
        let hashed: Vec<HashedBbvTracker> = spec
            .hashed_seeds
            .iter()
            .map(|&s| HashedBbvTracker::new(BbvHash::from_seed(s)))
            .collect();
        let full = spec
            .with_full
            .then(|| FullBbvTracker::new(workload.program()));
        let mut sink = (hashed, full);
        let mut e = Encoder::new();
        e.put_u32(LADDER_FORMAT_VERSION);
        e.put_u64(0); // the rung count, set once the capture ends
        e.put_u64(spec.hashed_seeds.len() as u64);
        e.put_bool(spec.with_full);
        let mut rungs = Vec::new();
        let mut retired = 0u64;
        loop {
            let r = machine.run_with(Mode::Functional, spec.stride, &mut sink);
            retired += r.ops;
            if r.ops == spec.stride {
                e.put_u64(retired);
                e.put_u64(0); // the snapshot's length, set once the capture ends
                let start = e.len();
                put_machine_state(&mut e, machine.state());
                let machine = start..e.len();
                let hashed_cum: Vec<HashedBbv> = sink.0.iter().map(|t| *t.current()).collect();
                for h in &hashed_cum {
                    put_hashed_bbv(&mut e, h);
                }
                let full_cum = sink.1.as_ref().map(|t| t.current().clone());
                if let Some(f) = &full_cum {
                    e.put_u64_slice(f.counts());
                }
                rungs.push(LadderRung {
                    retired,
                    machine,
                    hashed_cum,
                    full_cum,
                });
            }
            if r.halted || r.ops < spec.stride {
                break;
            }
        }
        // Snapshots are encoded straight into the record, not copied in,
        // so the counts that precede them are filled in last: the rung
        // count after the 4-byte version, each snapshot's length before
        // its bytes.
        let mut record = e.into_bytes();
        record[4..12].copy_from_slice(&(rungs.len() as u64).to_le_bytes());
        for rung in &rungs {
            let len = rung.machine.len() as u64;
            record[rung.machine.start - 8..rung.machine.start].copy_from_slice(&len.to_le_bytes());
        }
        CheckpointLadder {
            spec: spec.clone(),
            record,
            rungs,
            capture_ops: retired,
            fault_log: Vec::new(),
        }
    }

    /// Like [`CheckpointLadder::capture`], but first tries to load the
    /// ladder's record from `store` (keyed by workload identity × config
    /// × spec) and, after a capture, writes the record back.
    ///
    /// Store reads are tolerant *and self-healing*: a record that exists
    /// but fails validation or decoding is quarantined (moved into the
    /// store's sidecar directory, never deleted) and the ladder is
    /// recaptured and written back, transparently re-creating the
    /// quarantined record. A missing record and an I/O error also fall
    /// back to capture. Writes are best-effort (an unwritable store only
    /// costs future reuse). Every fault handled this way, but for a plain
    /// miss, is described in [`CheckpointLadder::fault_log`].
    pub fn load_or_capture(
        store: &Store,
        workload: &Workload,
        config: &MachineConfig,
        spec: &LadderSpec,
    ) -> Self {
        assert!(spec.stride > 0, "ladder stride must be positive");
        let key = Self::key(workload, config, spec);
        let name = workload.name();
        let fault = match store.get_checked(key) {
            Ok(record) => match decode_ladder(&record, spec) {
                Ok(rungs) => {
                    return CheckpointLadder {
                        spec: spec.clone(),
                        record,
                        rungs,
                        capture_ops: 0,
                        fault_log: Vec::new(),
                    }
                }
                // The record checksummed clean but is not the ladder its
                // key promises: quarantine it like corruption.
                Err(e) => Some(format!(
                    "{name}: undecodable ladder record (key {key:016x}): {e}; {}; recapturing",
                    quarantine_note(store, key)
                )),
            },
            Err(RecordError::Missing) => None,
            Err(RecordError::Invalid(fault)) => Some(format!(
                "{name}: corrupt ladder record (key {key:016x}): {fault}; {}; recapturing",
                quarantine_note(store, key)
            )),
            Err(e @ RecordError::Io(..)) => Some(format!(
                "{name}: ladder record (key {key:016x}) unreadable: {e}; recapturing"
            )),
        };
        let mut ladder = Self::capture(workload, config, spec);
        ladder.fault_log.extend(fault);
        if let Err(e) = store.put(key, &ladder.record) {
            ladder.fault_log.push(format!(
                "{name}: write-back of ladder record (key {key:016x}) failed: {e}"
            ));
        }
        ladder
    }

    /// The store key of the ladder for `workload` × `config` × `spec`: a
    /// digest of the workload's identity (name, nominal size, program
    /// shape — scale is baked into the nominal op count), every config
    /// field, the spec, and the record and snapshot format versions. Two
    /// runs agreeing on all of these capture identical ladders, so the
    /// record is safely shareable across processes, and its key is known
    /// before the record exists — a GC liveness root.
    pub(crate) fn key(workload: &Workload, config: &MachineConfig, spec: &LadderSpec) -> u64 {
        let mut e = Encoder::new();
        e.put_u32(LADDER_FORMAT_VERSION);
        e.put_u32(SNAPSHOT_FORMAT_VERSION);
        e.put_str(workload.name());
        e.put_u64(workload.nominal_ops());
        e.put_u64(workload.program().len() as u64);
        e.put_u64(workload.program().num_blocks() as u64);
        e.put_u64(workload.required_memory_words() as u64);
        e.put_u64(config_digest(config));
        e.put_u64(spec.stride);
        e.put_u64_slice(&spec.hashed_seeds);
        e.put_bool(spec.with_full);
        fnv1a64(&e.into_bytes())
    }

    /// Number of rungs.
    pub fn len(&self) -> usize {
        self.rungs.len()
    }

    /// True when the capture found no complete stride.
    pub fn is_empty(&self) -> bool {
        self.rungs.is_empty()
    }

    /// Index of `seed` in the carried hashed tracks.
    pub(crate) fn seed_index(&self, seed: u64) -> Option<usize> {
        self.spec.hashed_seeds.iter().position(|&s| s == seed)
    }

    /// Whether rungs carry full-BBV cumulative state.
    pub(crate) fn has_full(&self) -> bool {
        self.spec.with_full
    }

    /// `rung`'s encoded machine snapshot.
    pub(crate) fn snapshot(&self, rung: &LadderRung) -> &[u8] {
        &self.record[rung.machine.clone()]
    }

    /// The highest rung strictly after `after` and at or below `upto`.
    pub(crate) fn best_rung_in(&self, after: u64, upto: u64) -> Option<&LadderRung> {
        let idx = self.rungs.partition_point(|r| r.retired <= upto);
        let candidate = self.rungs.get(idx.checked_sub(1)?)?;
        (candidate.retired > after).then_some(candidate)
    }

    /// Store faults this ladder healed or tolerated while loading /
    /// writing back: a quarantined corrupt or undecodable record, an I/O
    /// error, a failed write-back — one human-readable line each, in the
    /// order encountered. Empty on a clean load or a first capture.
    pub fn fault_log(&self) -> &[String] {
        &self.fault_log
    }

    /// The ladder's capture cost.
    pub fn report(&self) -> LadderReport {
        LadderReport {
            capture_ops: self.capture_ops,
        }
    }
}

/// Quarantines the record at `key`, saying where it went for the fault log.
fn quarantine_note(store: &Store, key: u64) -> String {
    match store.quarantine(key) {
        Ok(Some(path)) => format!("quarantined to {}", path.display()),
        Ok(None) => "already gone".to_string(),
        Err(e) => format!("quarantine failed: {e}"),
    }
}

/// Decodes a ladder record for `spec` into its rungs, checking the
/// format version, the track shape against the spec, each rung's offset
/// against its stride and each snapshot by a walk over its bytes (so a
/// corrupt record surfaces here, as a recapture, and never as a panic at
/// jump time), and that no byte trails the last rung. The rung vector
/// grows as rungs decode: the declared count allocates nothing.
fn decode_ladder(record: &[u8], spec: &LadderSpec) -> Result<Vec<LadderRung>, CodecError> {
    let mut d = Decoder::new(record);
    d.expect_version(LADDER_FORMAT_VERSION, "ladder format version mismatch")?;
    let count = d.get_u64()?;
    if d.get_u64()? != spec.hashed_seeds.len() as u64 {
        return Err(CodecError::Malformed("ladder seed count mismatch"));
    }
    if d.get_bool()? != spec.with_full {
        return Err(CodecError::Malformed("ladder full-BBV mismatch"));
    }
    let mut rungs = Vec::new();
    for i in 1..=count {
        let retired = d.get_u64()?;
        if Some(retired) != i.checked_mul(spec.stride) {
            return Err(CodecError::Malformed("ladder rung off its stride"));
        }
        let len = d.get_len(1)?;
        let start = record.len() - d.remaining();
        d.skip(len)?;
        let machine = start..start + len;
        validate_machine_snapshot(&record[machine.clone()])?;
        let hashed_cum = spec
            .hashed_seeds
            .iter()
            .map(|_| get_hashed_bbv(&mut d))
            .collect::<Result<_, _>>()?;
        let full_cum = spec
            .with_full
            .then(|| d.get_counts().map(FullBbv::from_counts))
            .transpose()?;
        rungs.push(LadderRung {
            retired,
            machine,
            hashed_cum,
            full_cum,
        });
    }
    d.finish()?;
    Ok(rungs)
}

/// Per-run context threaded to [`crate::Technique::run_traced`]:
/// carries the checkpoint ladder (if any), the metrics recorder and the
/// fault slot that every driver pass of the run is bound to when it is
/// built ([`crate::driver::SimDriver::new`]).
#[derive(Debug, Clone)]
pub struct SimContext {
    /// The workload's checkpoint ladder, shared across the techniques of
    /// a checkpoint-accelerated campaign.
    pub ladder: Option<std::sync::Arc<CheckpointLadder>>,
    /// Metrics sink for the run ([`pgss_obs::NoopRecorder`] by default,
    /// which costs nothing).
    pub recorder: std::sync::Arc<dyn pgss_obs::Recorder>,
    /// Shared slot capturing the first [`pgss_cpu::MachineFault`] of any
    /// driver pass bound to this context. Campaign cells read it after a
    /// technique returns, turning structured machine aborts (e.g. an
    /// out-of-range indirect jump) into typed cell errors instead of
    /// panics.
    pub fault: std::sync::Arc<std::sync::OnceLock<pgss_cpu::MachineFault>>,
}

impl Default for SimContext {
    fn default() -> SimContext {
        SimContext {
            ladder: None,
            recorder: std::sync::Arc::new(pgss_obs::NoopRecorder),
            fault: std::sync::Arc::new(std::sync::OnceLock::new()),
        }
    }
}

impl SimContext {
    /// A context with no acceleration and no metrics: what
    /// [`crate::Technique::run`] passes.
    pub fn none() -> SimContext {
        SimContext::default()
    }

    /// A context carrying `ladder`.
    pub fn with_ladder(ladder: std::sync::Arc<CheckpointLadder>) -> SimContext {
        SimContext {
            ladder: Some(ladder),
            ..SimContext::default()
        }
    }

    /// The first machine fault deposited by any driver pass bound to this
    /// context, if one occurred.
    pub fn first_fault(&self) -> Option<pgss_cpu::MachineFault> {
        self.fault.get().copied()
    }
}

#[cfg(test)]
// Tests may unwrap: a panic here is a test failure, not a lost campaign.
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn workload() -> Workload {
        pgss_workloads::gzip(0.005)
    }

    #[test]
    fn machine_snapshot_codec_roundtrips() {
        let w = workload();
        let mut m = w.machine();
        m.run(Mode::Functional, 40_000);
        let snap = m.snapshot();
        let bytes = encode_machine_snapshot(&snap);
        let back = decode_machine_snapshot(&bytes).unwrap();
        assert_eq!(snap, back);
        // Compressed far below the raw 32 MiB memory image.
        assert!(
            bytes.len() < 8 * snap.mem.len() / 4,
            "encoded {} bytes for {} mem words",
            bytes.len(),
            snap.mem.len()
        );
    }

    #[test]
    fn snapshot_decoder_rejects_version_and_corruption() {
        let w = workload();
        let snap = w.machine().snapshot();
        let mut bytes = encode_machine_snapshot(&snap);
        bytes[0] ^= 0xff; // version field
        assert!(decode_machine_snapshot(&bytes).is_err());
        let good = encode_machine_snapshot(&snap);
        assert!(decode_machine_snapshot(&good[..good.len() - 3]).is_err());
    }

    /// A ladder with both BBV kinds on a workload and machine small
    /// enough that its record can be fuzzed bit by bit.
    fn small_ladder() -> (Workload, MachineConfig, LadderSpec) {
        use pgss_workloads::{Kernel, WorkloadBuilder};
        let mut b = WorkloadBuilder::new("fuzz", 11);
        let branchy = b.add_segment(Kernel::Branchy {
            table_words: 256,
            bias: 100,
            work_per_side: 2,
        });
        b.run(branchy, 40_000);
        let mut cfg = MachineConfig {
            memory_words: 1 << 12,
            ..MachineConfig::default()
        };
        cfg.l1i.size_bytes = 1 << 10;
        cfg.l1d.size_bytes = 1 << 10;
        cfg.l2.size_bytes = 1 << 13;
        cfg.bpred.history_bits = 6;
        cfg.bpred.btb_entries = 16;
        let spec = LadderSpec {
            stride: 20_000,
            hashed_seeds: vec![7],
            with_full: true,
        };
        (b.finish(), cfg, spec)
    }

    #[test]
    fn ladder_record_format_is_pinned() {
        // Bump LADDER_FORMAT_VERSION deliberately when a digest changes:
        // the version is part of the key, so a store written under the
        // old layout then misses once and recaptures instead of decoding
        // wrongly.
        assert_eq!(LADDER_FORMAT_VERSION, 1);
        let (w, cfg, spec) = small_ladder();
        let ladder = CheckpointLadder::capture(&w, &cfg, &spec);
        assert_eq!(ladder.len(), 2);
        assert_eq!(
            [
                fnv1a64(&ladder.record),
                CheckpointLadder::key(&w, &cfg, &spec)
            ],
            [0x8c6c_aa6a_c1be_6635, 0x81cf_f713_3cb4_ed98],
            "the ladder record or its key changed (record, key); bump \
             LADDER_FORMAT_VERSION"
        );
    }

    #[test]
    fn ladder_decoder_fails_typed_on_corrupt_bytes() {
        // The in-place decoder fuzz of `tests/checkpoints.rs`, on a
        // ladder record small enough to try every bit flip.
        use pgss_stats::DetRng;
        let (w, cfg, spec) = small_ladder();
        let valid = CheckpointLadder::capture(&w, &cfg, &spec).record;
        let decode = |bytes: &[u8]| decode_ladder(bytes, &spec).map(|rungs| rungs.len());
        assert_eq!(decode(&valid), Ok(2));
        for cut in 0..valid.len() {
            assert!(
                decode(&valid[..cut]).is_err(),
                "truncation at {cut} decoded"
            );
        }
        for bit in 0..valid.len() * 8 {
            let mut bytes = valid.clone();
            bytes[bit / 8] ^= 1 << (bit % 8);
            let _ = decode(&bytes);
        }
        let mut rng = DetRng::seed_from_u64(0x2b9_f022);
        for _ in 0..2_000 {
            let mut bytes = if rng.range_u64(2) == 0 {
                valid[..rng.range_usize(valid.len())].to_vec()
            } else {
                Vec::new()
            };
            for _ in 0..rng.range_usize(600) {
                bytes.push(rng.next_u64() as u8);
            }
            let _ = decode(&bytes);
        }
    }

    #[test]
    fn ladder_decoder_rejects_a_record_of_another_spec() {
        let (w, cfg, spec) = small_ladder();
        let record = CheckpointLadder::capture(&w, &cfg, &spec).record;
        let decode = |spec: LadderSpec| decode_ladder(&record, &spec).map(drop);
        let malformed = |what| Err(CodecError::Malformed(what));
        assert_eq!(
            decode(LadderSpec {
                stride: 10_000,
                ..spec.clone()
            }),
            malformed("ladder rung off its stride")
        );
        assert_eq!(
            decode(LadderSpec {
                hashed_seeds: vec![7, 8],
                ..spec.clone()
            }),
            malformed("ladder seed count mismatch")
        );
        assert_eq!(
            decode(LadderSpec {
                with_full: false,
                ..spec.clone()
            }),
            malformed("ladder full-BBV mismatch")
        );
        // A rung's offset rewritten off its stride.
        let mut bytes = record.clone();
        bytes[21..29].copy_from_slice(&20_001u64.to_le_bytes());
        assert_eq!(
            decode_ladder(&bytes, &spec).map(drop),
            malformed("ladder rung off its stride")
        );
    }

    #[test]
    fn keys_separate_workload_config_and_spec() {
        let w = workload();
        let cfg = MachineConfig::default();
        let spec = LadderSpec::machine_only(100);
        let base = CheckpointLadder::key(&w, &cfg, &spec);
        assert_eq!(CheckpointLadder::key(&w, &cfg, &spec), base);
        let other_cfg = MachineConfig {
            issue_width: 2,
            ..cfg
        };
        let other_w = pgss_workloads::wupwise(0.005);
        for key in [
            CheckpointLadder::key(&w, &cfg, &LadderSpec::machine_only(200)),
            CheckpointLadder::key(
                &w,
                &cfg,
                &LadderSpec {
                    hashed_seeds: vec![7],
                    ..spec.clone()
                },
            ),
            CheckpointLadder::key(
                &w,
                &cfg,
                &LadderSpec {
                    with_full: true,
                    ..spec.clone()
                },
            ),
            CheckpointLadder::key(&w, &other_cfg, &spec),
            CheckpointLadder::key(&other_w, &cfg, &spec),
        ] {
            assert_ne!(key, base);
        }
    }

    #[test]
    fn ladder_capture_places_rungs_on_stride_boundaries() {
        let w = workload();
        let cfg = MachineConfig::default();
        let spec = LadderSpec::machine_only(25_000);
        let ladder = CheckpointLadder::capture(&w, &cfg, &spec);
        assert!(!ladder.is_empty());
        let total = ladder.report().capture_ops;
        assert_eq!(ladder.len() as u64, total / 25_000);
        for (i, rung) in ladder.rungs.iter().enumerate() {
            assert_eq!(rung.retired, (i as u64 + 1) * 25_000);
        }
        // best_rung_in picks the highest rung in range.
        let r = ladder.best_rung_in(0, 60_000).unwrap();
        assert_eq!(r.retired, 50_000);
        assert!(ladder.best_rung_in(50_000, 50_000).is_none());
        assert!(ladder.best_rung_in(0, 10_000).is_none());
    }

    #[test]
    fn ladder_rungs_match_direct_snapshots() {
        let w = workload();
        let cfg = MachineConfig::default();
        let ladder = CheckpointLadder::capture(&w, &cfg, &LadderSpec::machine_only(30_000));
        let mut m = w.machine_with(cfg);
        m.run(Mode::Functional, 60_000);
        let direct = m.snapshot();
        let rung = ladder.best_rung_in(0, 60_000).unwrap();
        assert_eq!(rung.retired, 60_000);
        assert_eq!(
            decode_machine_snapshot(ladder.snapshot(rung)).unwrap(),
            direct
        );
    }

    #[test]
    fn ladder_store_roundtrip_and_corruption_fallback() {
        let dir = std::env::temp_dir().join(format!("pgss-ladder-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::open(&dir).unwrap();
        let w = workload();
        let cfg = MachineConfig::default();
        let spec = LadderSpec {
            stride: 40_000,
            hashed_seeds: vec![7],
            with_full: false,
        };
        let captured = CheckpointLadder::load_or_capture(&store, &w, &cfg, &spec);
        assert!(captured.report().capture_ops > 0, "first build captures");
        let loaded = CheckpointLadder::load_or_capture(&store, &w, &cfg, &spec);
        assert_eq!(loaded.report().capture_ops, 0, "second build loads");
        assert_eq!(loaded.len(), captured.len());
        assert_eq!(loaded.record, captured.record);
        for (a, b) in loaded.rungs.iter().zip(&captured.rungs) {
            assert_eq!(a.retired, b.retired);
            assert_eq!(a.machine, b.machine);
            assert_eq!(a.hashed_cum, b.hashed_cum);
        }
        // Corrupt the ladder record: the load path falls back to capture.
        let key = CheckpointLadder::key(&w, &cfg, &spec);
        let path = store.path_for(key);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let refetched = CheckpointLadder::load_or_capture(&store, &w, &cfg, &spec);
        assert!(
            refetched.report().capture_ops > 0,
            "corrupt record must force recapture"
        );
        // Self-healing: the corrupt record was quarantined (not deleted),
        // the event was logged, and the recapture wrote a healthy record
        // back, so the next load is clean.
        let log = refetched.fault_log();
        assert!(
            log.iter().any(|l| l.contains("quarantined")
                && l.contains(w.name())
                && l.contains(&format!("{key:016x}"))),
            "fault log must name the quarantined record: {log:?}"
        );
        assert!(store
            .quarantine_dir()
            .join(format!("{key:016x}.rec"))
            .exists());
        let healed = CheckpointLadder::load_or_capture(&store, &w, &cfg, &spec);
        assert_eq!(healed.report().capture_ops, 0, "store did not self-heal");
        assert!(healed.fault_log().is_empty());
        assert_eq!(
            healed.record, captured.record,
            "healed record differs from capture"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
