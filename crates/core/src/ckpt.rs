//! Typed checkpoints on top of the [`pgss_ckpt`] byte store: snapshot
//! encoding, content-address keys, and the capture ladder that lets
//! many driver passes share one functional fast-forward of a workload.
//!
//! Layering (bottom to top):
//!
//! 1. [`pgss_ckpt::codec`] / [`pgss_ckpt::Store`] — bytes only; versioned,
//!    checksummed, crash-safe records.
//! 2. This module — encodes [`pgss_cpu::MachineSnapshot`] payloads,
//!    derives content-address keys from (workload identity, machine
//!    config, op offset), and builds [`CheckpointLadder`]s: snapshots at
//!    a fixed op stride with *cumulative* BBV tracker state per rung.
//! 3. [`crate::driver::SimDriver`] — when a ladder is attached, *jumps*
//!    over functional segments by restoring the highest rung inside the
//!    segment instead of executing it.
//! 4. [`crate::campaign::run_checkpointed_with`] — captures each workload's
//!    ladder once and fans restores out to every technique in the grid.
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
//! reads via [`Store::get_checked`], and any record that exists but fails
//! validation is moved into the store's quarantine sidecar (never
//! deleted — the evidence survives for post-mortem) before the ladder is
//! recaptured from scratch and written back. Every such event, plus any
//! store I/O error or failed write-back, lands in the ladder's
//! [`CheckpointLadder::fault_log`], which campaigns surface in their
//! report ledger. Because recapture reproduces the exact bytes the rung
//! held before it rotted, healing is invisible to results.

// Checkpoint state feeds bit-exact simulation results; a stray unwrap on
// this path would turn a recoverable corrupt record into an abort.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::sync::atomic::{AtomicU64, Ordering};

use pgss_bbv::{BbvHash, FullBbv, FullBbvTracker, HashedBbv, HashedBbvTracker, HASHED_BBV_DIM};
use pgss_ckpt::{fnv1a64, CodecError, Decoder, Encoder, RecordError, Store};
use pgss_cpu::{
    BranchPredictorState, BtbState, CacheState, Machine, MachineConfig, MachineSnapshot,
    MachineStateMut, MachineStateRef, MemSystemState, Mode, ModeOps,
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
pub fn encode_machine_state(state: MachineStateRef<'_>) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_u32(SNAPSHOT_FORMAT_VERSION);
    e.put_u32(state.pc);
    for &r in state.regs {
        e.put_i64(r);
    }
    for &f in state.fregs {
        e.put_f64(f);
    }
    e.put_i64_slice_rle(state.mem);
    e.put_bool(state.halted);
    put_mode_ops(&mut e, state.mode_ops);
    e.put_u64(state.ops_since_taken);
    for c in state.caches {
        e.put_u64_slice(c.ways);
        e.put_u64(c.hits);
        e.put_u64(c.misses);
    }
    e.put_bytes(state.bpred.counters);
    e.put_u64(state.bpred.history);
    e.put_u64(state.bpred.predictions);
    e.put_u64(state.bpred.mispredictions);
    e.put_u64(state.btb.len() as u64);
    for &t in state.btb {
        e.put_u32(t);
    }
    e.into_bytes()
}

/// Decodes bytes produced by [`encode_machine_snapshot`], rejecting
/// other snapshot-format versions. The bytes are validated in full
/// before anything is allocated; the memory image is then allocated
/// once, at its declared length.
pub fn decode_machine_snapshot(bytes: &[u8]) -> Result<MachineSnapshot, CodecError> {
    let shape = validate_machine_snapshot(bytes)?;
    if shape.mem > MAX_SNAPSHOT_MEMORY_WORDS {
        return Err(CodecError::Malformed(
            "memory image exceeds the snapshot limit",
        ));
    }
    let [l1i, l1d, l2] = shape.ways.map(|n| CacheState {
        ways: vec![0; n],
        hits: 0,
        misses: 0,
    });
    let mut snap = MachineSnapshot {
        pc: 0,
        regs: [0; 32],
        fregs: [0.0; 32],
        mem: vec![0; shape.mem],
        halted: false,
        mode_ops: ModeOps::default(),
        ops_since_taken: 0,
        memsys: MemSystemState { l1i, l1d, l2 },
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
    fill_machine_state(&mut Decoder::new(bytes), snap.state_mut())?;
    Ok(snap)
}

/// Decodes bytes produced by [`encode_machine_snapshot`] straight into
/// `machine`'s existing buffers — the memory image, tag arrays and
/// counter tables — leaving it as [`Machine::restore`] of the decoded
/// snapshot would. All or nothing: the bytes are validated in full, and
/// their declared shapes checked against the machine's, before anything
/// is written, so on `Err` the machine is untouched.
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
            btb: state.btb.len(),
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
    d.get_i64_slice_rle_into(state.mem)?;
    *state.halted = d.get_bool()?;
    *state.mode_ops = get_mode_ops(d)?;
    *state.ops_since_taken = d.get_u64()?;
    for c in state.caches {
        d.get_u64_slice_into(c.ways)?;
        *c.hits = d.get_u64()?;
        *c.misses = d.get_u64()?;
    }
    let bpred = state.bpred;
    d.get_bytes_into(bpred.counters)?;
    *bpred.history = d.get_u64()?;
    *bpred.predictions = d.get_u64()?;
    *bpred.mispredictions = d.get_u64()?;
    if d.get_u64()? != state.btb.len() as u64 {
        return Err(CodecError::Malformed("BTB size mismatch"));
    }
    for t in state.btb {
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

/// The identity a checkpoint is keyed by: which workload (name, nominal
/// size, program shape — scale is baked into the nominal op count), which
/// machine configuration, and which retired-op offset. Two runs agreeing
/// on all of these see identical machine state at the offset, so records
/// are safely shareable across processes.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointKey {
    /// Workload name.
    pub workload: String,
    /// The workload's nominal op count (scale-dependent).
    pub nominal_ops: u64,
    /// Instruction count of the program (identity proxy).
    pub program_len: u64,
    /// Static basic-block count of the program (identity proxy).
    pub num_blocks: u64,
    /// Memory words the workload requires (identity proxy for its data
    /// image).
    pub init_words: u64,
    /// Digest of every [`MachineConfig`] field.
    pub config_digest: u64,
    /// Retired-op offset the snapshot was captured at.
    pub op_offset: u64,
}

impl CheckpointKey {
    /// Builds the key identifying `workload` × `config` at `op_offset`.
    pub fn new(workload: &Workload, config: &MachineConfig, op_offset: u64) -> CheckpointKey {
        CheckpointKey {
            workload: workload.name().to_string(),
            nominal_ops: workload.nominal_ops(),
            program_len: workload.program().len() as u64,
            num_blocks: workload.program().num_blocks() as u64,
            init_words: workload.required_memory_words() as u64,
            config_digest: config_digest(config),
            op_offset,
        }
    }

    /// The 64-bit content address for [`Store`] lookups. Includes the
    /// snapshot format version, so a version bump orphans (rather than
    /// misreads) old records.
    pub fn hash(&self) -> u64 {
        self.hash_with_tag(0)
    }

    fn hash_with_tag(&self, tag: u64) -> u64 {
        let mut e = Encoder::new();
        e.put_u32(SNAPSHOT_FORMAT_VERSION);
        e.put_str(&self.workload);
        e.put_u64(self.nominal_ops);
        e.put_u64(self.program_len);
        e.put_u64(self.num_blocks);
        e.put_u64(self.init_words);
        e.put_u64(self.config_digest);
        e.put_u64(self.op_offset);
        e.put_u64(tag);
        fnv1a64(&e.into_bytes())
    }
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
    /// techniques in the same order must find the same rungs.
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

/// One rung: the workload's complete state at `retired`, held as encoded
/// (zero-run-compressed) bytes plus cumulative-since-op-0 tracker counts.
#[derive(Debug, Clone)]
pub(crate) struct LadderRung {
    pub(crate) retired: u64,
    pub(crate) machine: Vec<u8>,
    pub(crate) hashed_cum: Vec<HashedBbv>,
    pub(crate) full_cum: Option<FullBbv>,
}

/// Live counters a ladder accumulates while drivers consume it.
#[derive(Debug, Default)]
pub struct LadderCounters {
    jumps: AtomicU64,
    skipped_ops: AtomicU64,
    executed_ops: AtomicU64,
}

/// A point-in-time copy of a ladder's counters plus its capture cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LadderReport {
    /// Restores performed in place of functional execution.
    pub jumps: u64,
    /// Ops skipped via those restores (charged logically, not executed).
    pub skipped_ops: u64,
    /// Ops actually executed by drivers attached to this ladder.
    pub executed_ops: u64,
    /// Ops the capture pass itself executed (0 when the ladder was
    /// loaded from a store).
    pub capture_ops: u64,
}

impl LadderReport {
    /// Merges another report into this one.
    pub fn merge(&mut self, other: &LadderReport) {
        self.jumps += other.jumps;
        self.skipped_ops += other.skipped_ops;
        self.executed_ops += other.executed_ops;
        self.capture_ops += other.capture_ops;
    }

    /// Ops physically executed, capture included.
    pub fn total_executed(&self) -> u64 {
        self.executed_ops + self.capture_ops
    }

    /// Ops the same segment schedules would have executed without
    /// checkpoints (no capture pass, nothing skipped).
    pub fn baseline_ops(&self) -> u64 {
        self.executed_ops + self.skipped_ops
    }

    /// `total_executed / baseline_ops`: below 1.0 when checkpointing
    /// paid off.
    pub fn executed_ratio(&self) -> f64 {
        if self.baseline_ops() == 0 {
            1.0
        } else {
            self.total_executed() as f64 / self.baseline_ops() as f64
        }
    }
}

/// A ladder of checkpoints up a workload's execution: snapshots every
/// [`LadderSpec::stride`] retired ops, each carrying cumulative BBV
/// tracker state, captured by one functional pass (or loaded from a
/// [`Store`]). Attached to [`crate::driver::SimDriver`]s via
/// [`crate::SimContext`], it lets every functional fast-forward segment
/// be replaced by a restore of the highest rung the segment spans —
/// with identical observable results, because functional warming is
/// deterministic and mode-independent.
#[derive(Debug)]
pub struct CheckpointLadder {
    spec: LadderSpec,
    rungs: Vec<LadderRung>,
    capture_ops: u64,
    counters: LadderCounters,
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
        let mut rungs = Vec::new();
        let mut retired = 0u64;
        loop {
            let r = machine.run_with(Mode::Functional, spec.stride, &mut sink);
            retired += r.ops;
            if r.ops == spec.stride {
                rungs.push(LadderRung {
                    retired,
                    machine: encode_machine_state(machine.state()),
                    hashed_cum: sink.0.iter().map(|t| *t.current()).collect(),
                    full_cum: sink.1.as_ref().map(|t| t.current().clone()),
                });
            }
            if r.halted || r.ops < spec.stride {
                break;
            }
        }
        CheckpointLadder {
            spec: spec.clone(),
            rungs,
            capture_ops: retired,
            counters: LadderCounters::default(),
            fault_log: Vec::new(),
        }
    }

    /// Like [`CheckpointLadder::capture`], but first tries to load every
    /// rung from `store` (keyed by workload identity × config × offset ×
    /// spec) and, after a capture, writes the rungs back.
    ///
    /// Store reads are tolerant *and self-healing*: a record that exists
    /// but fails validation is quarantined (moved into the store's
    /// sidecar directory, never deleted) and the whole ladder is
    /// recaptured and written back, transparently re-creating the
    /// quarantined rungs. Missing records and I/O errors also fall back
    /// to capture. Writes are best-effort (an unwritable store only costs
    /// future reuse). Every fault handled this way is described in
    /// [`CheckpointLadder::fault_log`].
    pub fn load_or_capture(
        store: &Store,
        workload: &Workload,
        config: &MachineConfig,
        spec: &LadderSpec,
    ) -> Self {
        assert!(spec.stride > 0, "ladder stride must be positive");
        let tag = Self::spec_tag(spec);
        let meta_key = CheckpointKey::new(workload, config, u64::MAX).hash_with_tag(tag);
        let mut log = Vec::new();
        if let Some(mut ladder) =
            Self::try_load(store, workload, config, spec, tag, meta_key, &mut log)
        {
            ladder.fault_log = log;
            return ladder;
        }
        let mut ladder = Self::capture(workload, config, spec);
        // Best-effort write-back; rungs first so a complete meta record
        // implies complete rungs.
        let mut ok = true;
        for rung in &ladder.rungs {
            let key = CheckpointKey::new(workload, config, rung.retired).hash_with_tag(tag);
            if let Err(e) = store.put(key, &encode_rung(rung)) {
                log.push(format!(
                    "{}: write-back of checkpoint rung @{} failed: {e}",
                    workload.name(),
                    rung.retired
                ));
                ok = false;
            }
        }
        if ok {
            let mut e = Encoder::new();
            e.put_u64(ladder.capture_ops);
            e.put_u64(ladder.rungs.len() as u64);
            if let Err(e) = store.put(meta_key, &e.into_bytes()) {
                log.push(format!(
                    "{}: write-back of ladder meta record failed: {e}",
                    workload.name()
                ));
            }
        }
        ladder.fault_log = log;
        ladder
    }

    /// One tolerated store read for `try_load`: `Ok(payload)` on a valid
    /// record, `Err(abandon_load)` otherwise — quarantining invalid
    /// records (self-healing) and logging everything except a silent
    /// first-run miss.
    fn read_healing(
        store: &Store,
        key: u64,
        what: &str,
        silent_miss: bool,
        workload: &Workload,
        log: &mut Vec<String>,
    ) -> Result<Vec<u8>, ()> {
        match store.get_checked(key) {
            Ok(payload) => Ok(payload),
            Err(RecordError::Missing) => {
                if !silent_miss {
                    log.push(format!(
                        "{}: missing {what} (key {key:016x}) despite complete meta; recapturing",
                        workload.name()
                    ));
                }
                Err(())
            }
            Err(RecordError::Invalid(fault)) => {
                log.push(format!(
                    "{}: corrupt {what} (key {key:016x}): {fault}; {}; recapturing",
                    workload.name(),
                    quarantine_note(store, key)
                ));
                Err(())
            }
            Err(e @ RecordError::Io(..)) => {
                log.push(format!(
                    "{}: {what} (key {key:016x}) unreadable: {e}; recapturing",
                    workload.name()
                ));
                Err(())
            }
        }
    }

    #[allow(clippy::too_many_arguments)] // internal; mirrors load_or_capture's context
    fn try_load(
        store: &Store,
        workload: &Workload,
        config: &MachineConfig,
        spec: &LadderSpec,
        tag: u64,
        meta_key: u64,
        log: &mut Vec<String>,
    ) -> Option<Self> {
        let meta =
            Self::read_healing(store, meta_key, "ladder meta record", true, workload, log).ok()?;
        let Ok(count) = decode_meta_count(&meta, spec.stride) else {
            log.push(format!(
                "{}: undecodable ladder meta record (key {meta_key:016x}); {}; recapturing",
                workload.name(),
                quarantine_note(store, meta_key)
            ));
            return None;
        };
        // Grown as rungs load: the count is bounded by the record's own
        // capture length, not by what the store actually holds.
        let mut rungs = Vec::new();
        for i in 1..=count {
            let offset = i * spec.stride;
            let key = CheckpointKey::new(workload, config, offset).hash_with_tag(tag);
            let what = format!("checkpoint rung @{offset}");
            let payload = Self::read_healing(store, key, &what, false, workload, log).ok()?;
            let rung = match decode_rung(&payload, spec) {
                Ok(rung) if rung.retired == offset => rung,
                // The record checksummed clean but its payload is not the
                // rung the key promises — quarantine it like corruption.
                _ => {
                    log.push(format!(
                        "{}: undecodable {what} (key {key:016x}); {}; recapturing",
                        workload.name(),
                        quarantine_note(store, key)
                    ));
                    return None;
                }
            };
            rungs.push(rung);
        }
        Some(CheckpointLadder {
            spec: spec.clone(),
            rungs,
            capture_ops: 0,
            counters: LadderCounters::default(),
            fault_log: Vec::new(),
        })
    }

    /// The content addresses a persisted ladder for `workload` × `config`
    /// × `spec` occupies in `store`: the meta record plus every rung the
    /// meta record declares. These are GC liveness roots — a
    /// [`Store::gc`] caller marks them live to keep accelerated campaigns
    /// warm across sweeps.
    ///
    /// When the meta record is missing or corrupt the ladder is already
    /// unreachable (`load_or_capture` would recapture), so only the meta
    /// key itself is reported; any orphaned rungs are legitimately
    /// collectable and will be transparently re-created on the next
    /// capture. Callers must not run a sweep concurrently with a ladder
    /// *capture*: rungs are written before their meta record, so a sweep
    /// in that window would (harmlessly but wastefully) collect them.
    pub fn live_keys(
        store: &Store,
        workload: &Workload,
        config: &MachineConfig,
        spec: &LadderSpec,
    ) -> Vec<u64> {
        let tag = Self::spec_tag(spec);
        let meta_key = CheckpointKey::new(workload, config, u64::MAX).hash_with_tag(tag);
        let mut keys = vec![meta_key];
        let Ok(meta) = store.get_checked(meta_key) else {
            return keys;
        };
        let count = decode_meta_count(&meta, spec.stride).unwrap_or(0);
        for i in 1..=count {
            keys.push(CheckpointKey::new(workload, config, i * spec.stride).hash_with_tag(tag));
        }
        keys
    }

    /// A digest of the spec, mixed into keys so ladders with different
    /// tracked seeds never alias.
    fn spec_tag(spec: &LadderSpec) -> u64 {
        let mut e = Encoder::new();
        e.put_u64(spec.stride);
        e.put_u64_slice(&spec.hashed_seeds);
        e.put_bool(spec.with_full);
        fnv1a64(&e.into_bytes())
    }

    /// The spec this ladder was captured with.
    pub fn spec(&self) -> &LadderSpec {
        &self.spec
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

    /// The highest rung strictly after `after` and at or below `upto`.
    pub(crate) fn best_rung_in(&self, after: u64, upto: u64) -> Option<&LadderRung> {
        let idx = self.rungs.partition_point(|r| r.retired <= upto);
        let candidate = self.rungs.get(idx.checked_sub(1)?)?;
        (candidate.retired > after).then_some(candidate)
    }

    pub(crate) fn record_jump(&self, skipped: u64) {
        self.counters.jumps.fetch_add(1, Ordering::Relaxed);
        self.counters
            .skipped_ops
            .fetch_add(skipped, Ordering::Relaxed);
    }

    pub(crate) fn record_executed(&self, ops: u64) {
        self.counters.executed_ops.fetch_add(ops, Ordering::Relaxed);
    }

    /// Store faults this ladder healed or tolerated while loading /
    /// writing back: quarantined corrupt records, missing rungs, I/O
    /// errors, failed write-backs — one human-readable line each, in the
    /// order encountered. Empty on a clean load or a first capture.
    pub fn fault_log(&self) -> &[String] {
        &self.fault_log
    }

    /// Point-in-time counters plus the capture cost.
    pub fn report(&self) -> LadderReport {
        LadderReport {
            jumps: self.counters.jumps.load(Ordering::Relaxed),
            skipped_ops: self.counters.skipped_ops.load(Ordering::Relaxed),
            executed_ops: self.counters.executed_ops.load(Ordering::Relaxed),
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

/// The rung count of a ladder meta record (capture ops, rung count) for a
/// ladder of rungs every `stride` ops. A capture retires at least
/// `count × stride` ops, so a count whose rungs would lie beyond the
/// record's own capture length is malformed — rejected here, before any
/// caller iterates by it.
fn decode_meta_count(bytes: &[u8], stride: u64) -> Result<u64, CodecError> {
    let mut d = Decoder::new(bytes);
    let capture_ops = d.get_u64()?;
    let count = d.get_u64()?;
    d.finish()?;
    match count.checked_mul(stride) {
        Some(last_rung) if last_rung <= capture_ops => Ok(count),
        _ => Err(CodecError::Malformed(
            "ladder meta rung count exceeds its capture",
        )),
    }
}

fn encode_rung(rung: &LadderRung) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_u64(rung.retired);
    e.put_bytes(&rung.machine);
    e.put_u64(rung.hashed_cum.len() as u64);
    for h in &rung.hashed_cum {
        put_hashed_bbv(&mut e, h);
    }
    e.put_bool(rung.full_cum.is_some());
    if let Some(f) = &rung.full_cum {
        e.put_u64_slice(f.counts());
    }
    e.into_bytes()
}

fn decode_rung(bytes: &[u8], spec: &LadderSpec) -> Result<LadderRung, CodecError> {
    let mut d = Decoder::new(bytes);
    let retired = d.get_u64()?;
    let machine = d.get_bytes()?;
    // Validate eagerly so a corrupted record surfaces here (tolerant
    // fallback to capture) rather than as a panic at jump time — by a
    // walk over the bytes, without building the memory image.
    validate_machine_snapshot(&machine)?;
    let n = d.get_u64()?;
    if n != spec.hashed_seeds.len() as u64 {
        return Err(CodecError::Malformed("ladder seed count mismatch"));
    }
    let mut hashed_cum = Vec::with_capacity(n as usize);
    for _ in 0..n {
        hashed_cum.push(get_hashed_bbv(&mut d)?);
    }
    let full_cum = d
        .get_bool()?
        .then(|| d.get_counts().map(FullBbv::from_counts))
        .transpose()?;
    if full_cum.is_some() != spec.with_full {
        return Err(CodecError::Malformed("ladder full-BBV mismatch"));
    }
    d.finish()?;
    Ok(LadderRung {
        retired,
        machine,
        hashed_cum,
        full_cum,
    })
}

/// Per-run context threaded to [`crate::Technique::run_traced`]:
/// carries the checkpoint ladder (if any) and the metrics recorder every
/// driver pass of the run should attach — see [`SimContext::bind`].
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

    /// Attaches everything this context carries to a driver pass: the
    /// ladder (if any) and the recorder. Every technique calls this on
    /// each [`crate::driver::SimDriver`] it constructs, so instrumented
    /// campaigns see every pass.
    pub fn bind(&self, driver: &mut crate::driver::SimDriver) {
        if let Some(ladder) = &self.ladder {
            driver.attach_ladder(std::sync::Arc::clone(ladder));
        }
        driver.attach_recorder(std::sync::Arc::clone(&self.recorder));
        driver.attach_fault_sink(std::sync::Arc::clone(&self.fault));
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

    #[test]
    fn rung_decoder_fails_typed_on_corrupt_bytes() {
        // The in-place decoder fuzz of `tests/checkpoints.rs`, on a rung
        // with both BBV kinds, small enough to try every bit flip.
        use pgss_stats::DetRng;
        use pgss_workloads::{Kernel, WorkloadBuilder};
        let mut b = WorkloadBuilder::new("fuzz", 11);
        let branchy = b.add_segment(Kernel::Branchy {
            table_words: 256,
            bias: 100,
            work_per_side: 2,
        });
        b.run(branchy, 40_000);
        let w = b.finish();
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
        let ladder = CheckpointLadder::capture(&w, &cfg, &spec);
        let valid = encode_rung(&ladder.rungs[0]);
        let decode = |bytes: &[u8]| decode_rung(bytes, &spec).map(drop);
        assert_eq!(decode(&valid), Ok(()));
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
    fn keys_separate_workload_config_and_offset() {
        let w = workload();
        let cfg = MachineConfig::default();
        let base = CheckpointKey::new(&w, &cfg, 100).hash();
        assert_eq!(CheckpointKey::new(&w, &cfg, 100).hash(), base);
        assert_ne!(CheckpointKey::new(&w, &cfg, 200).hash(), base);
        let other_cfg = MachineConfig {
            issue_width: 2,
            ..cfg
        };
        assert_ne!(CheckpointKey::new(&w, &other_cfg, 100).hash(), base);
        let other_w = pgss_workloads::wupwise(0.005);
        assert_ne!(CheckpointKey::new(&other_w, &cfg, 100).hash(), base);
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
        assert_eq!(decode_machine_snapshot(&rung.machine).unwrap(), direct);
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
        for (a, b) in loaded.rungs.iter().zip(&captured.rungs) {
            assert_eq!(a.retired, b.retired);
            assert_eq!(a.machine, b.machine);
            assert_eq!(a.hashed_cum, b.hashed_cum);
        }
        // Corrupt one rung record: the load path falls back to capture.
        let tag = CheckpointLadder::spec_tag(&spec);
        let key = CheckpointKey::new(&w, &cfg, spec.stride).hash_with_tag(tag);
        let path = store.path_for(key);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let refetched = CheckpointLadder::load_or_capture(&store, &w, &cfg, &spec);
        assert!(
            refetched.report().capture_ops > 0,
            "corrupt rung must force recapture"
        );
        // Self-healing: the corrupt record was quarantined (not deleted),
        // the event was logged, and the recapture wrote a healthy record
        // back, so the next load is clean.
        let log = refetched.fault_log();
        assert!(
            log.iter().any(|l| l.contains("quarantined")
                && l.contains(w.name())
                && l.contains(&format!("@{}", spec.stride))),
            "fault log must name the quarantined rung: {log:?}"
        );
        assert!(store
            .quarantine_dir()
            .join(format!("{key:016x}.rec"))
            .exists());
        let healed = CheckpointLadder::load_or_capture(&store, &w, &cfg, &spec);
        assert_eq!(healed.report().capture_ops, 0, "store did not self-heal");
        assert!(healed.fault_log().is_empty());
        for (a, b) in healed.rungs.iter().zip(&captured.rungs) {
            assert_eq!(a.machine, b.machine, "healed rung differs from capture");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crafted_meta_rung_count_is_rejected_not_allocated() {
        let dir = std::env::temp_dir().join(format!("pgss-ladder-meta-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::open(&dir).unwrap();
        let w = workload();
        let cfg = MachineConfig::default();
        let spec = LadderSpec::machine_only(40_000);
        let fresh = CheckpointLadder::capture(&w, &cfg, &spec);
        let capture_ops = fresh.report().capture_ops;
        let meta_key =
            CheckpointKey::new(&w, &cfg, u64::MAX).hash_with_tag(CheckpointLadder::spec_tag(&spec));
        // Checksummed records whose rung count overflows `count × stride`
        // or lies beyond the record's own capture length.
        for count in [u64::MAX, 1 << 40] {
            let mut e = Encoder::new();
            e.put_u64(capture_ops);
            e.put_u64(count);
            store.put(meta_key, &e.into_bytes()).unwrap();
            assert_eq!(
                CheckpointLadder::live_keys(&store, &w, &cfg, &spec),
                vec![meta_key],
                "count {count}"
            );
            let recaptured = CheckpointLadder::load_or_capture(&store, &w, &cfg, &spec);
            assert_eq!(
                recaptured.report().capture_ops,
                capture_ops,
                "count {count}"
            );
            assert_eq!(recaptured.len(), fresh.len());
            for (a, b) in recaptured.rungs.iter().zip(&fresh.rungs) {
                assert_eq!((a.retired, &a.machine), (b.retired, &b.machine));
            }
            let clean = CheckpointLadder::load_or_capture(&store, &w, &cfg, &spec);
            assert_eq!(clean.report().capture_ops, 0, "count {count}: not healed");
            assert!(clean.fault_log().is_empty());
            assert_eq!(
                CheckpointLadder::live_keys(&store, &w, &cfg, &spec).len(),
                1 + fresh.len()
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
