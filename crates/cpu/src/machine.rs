//! The simulated machine: architectural state, the functional interpreter,
//! and the in-order superscalar timing model.
//!
//! # Decoded execution core
//!
//! [`Machine`] executes a [`DecodedProgram`] — a one-shot lowering of the
//! [`Program`] into a flat micro-op array with pre-resolved operands and
//! superblock run lengths (see [`pgss_isa::DecodedProgram`]). The hot
//! loop dispatches whole straight-line runs at a time: within a run there
//! are no per-op mode re-checks, no per-op taken-branch bookkeeping, and
//! retirement is accounted branchlessly in one batch
//! ([`RetireSink::retire_run`]); only the control-flow op that terminates
//! the run is handled individually. Observable behaviour — architectural
//! state, retired counters, cycle counts, retirement/taken-branch event
//! streams, snapshots — is bit-exact with the retained per-op
//! [`crate::ReferenceMachine`].
//!
//! Decoded state is *derived*: it is rebuilt from the `Program` whenever
//! a machine is constructed and is never serialized — snapshots and the
//! checkpoint codec carry only architectural and warm
//! microarchitectural state, so checkpoint formats are unaffected by the
//! decoded representation.

use std::fmt;
use std::sync::Arc;

use pgss_isa::{DecodedOp, DecodedProgram, LatClass, OpKind, Program};

use crate::bpred::{
    copy_btb_targets, BranchPredictor, BranchPredictorState, BranchPredictorStateMut,
    BranchPredictorStateRef, Btb, BtbState,
};
use crate::cache::{CacheStateMut, CacheStateRef, MemSystem, MemSystemState};
use crate::config::MachineConfig;
use crate::sink::{NoopSink, RetireSink};

/// Bytes per encoded instruction, used to map instruction addresses onto
/// I-cache lines (a 64-byte line holds 16 instructions).
pub(crate) const INSTR_BYTES: u64 = 4;

/// A structured reason the machine stopped executing, other than
/// [`pgss_isa::Instr::Halt`].
///
/// Faults halt the machine ([`Machine::halted`] becomes true) without
/// panicking, so campaign workers surface them as typed cell errors
/// instead of recovering them from `catch_unwind`. The faulting
/// instruction does **not** retire, and makes no cache, predictor, or
/// timing updates. Faults are not part of [`MachineSnapshot`] —
/// [`Machine::restore`] clears them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MachineFault {
    /// An indirect jump ([`pgss_isa::Instr::Jr`]) targeted an address
    /// outside the program. Static targets are validated at assembly
    /// time ([`pgss_isa::Program::new`]); only register-borne targets
    /// can fail at runtime.
    IndirectJumpOutOfRange {
        /// Address of the faulting `Jr`.
        pc: u32,
        /// The out-of-range target it computed.
        target: u32,
    },
}

impl fmt::Display for MachineFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineFault::IndirectJumpOutOfRange { pc, target } => {
                write!(f, "indirect jump at {pc} to out-of-range address {target}")
            }
        }
    }
}

impl std::error::Error for MachineFault {}

/// Simulation fidelity level for a [`Machine::run`] call.
///
/// See the [crate-level documentation](crate) for how the modes map onto the
/// paper's taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Pure functional execution; caches and predictors are *not* touched.
    FastForward,
    /// Functional execution that keeps caches and branch predictors warm
    /// (the paper's "functional fast-forwarding").
    Functional,
    /// Cycle-level simulation whose statistics are discarded (pre-sample
    /// warm-up of short-lifetime pipeline state).
    DetailedWarming,
    /// Cycle-level simulation whose cycles are reported.
    DetailedMeasured,
}

impl Mode {
    /// Returns `true` for the two cycle-level modes.
    #[inline]
    pub fn is_detailed(self) -> bool {
        matches!(self, Mode::DetailedWarming | Mode::DetailedMeasured)
    }
}

impl fmt::Display for Mode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Mode::FastForward => "fast-forward",
            Mode::Functional => "functional",
            Mode::DetailedWarming => "detailed-warming",
            Mode::DetailedMeasured => "detailed-measured",
        };
        f.write_str(s)
    }
}

/// Retired-instruction counters per [`Mode`], accumulated over a machine's
/// lifetime.
///
/// The paper counts "the number of instructions executed in detailed warming
/// and detailed simulation" as the cost of a technique;
/// [`ModeOps::detailed`] is exactly that.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ModeOps {
    /// Instructions retired in [`Mode::FastForward`].
    pub fast_forward: u64,
    /// Instructions retired in [`Mode::Functional`].
    pub functional: u64,
    /// Instructions retired in [`Mode::DetailedWarming`].
    pub detailed_warming: u64,
    /// Instructions retired in [`Mode::DetailedMeasured`].
    pub detailed_measured: u64,
}

impl ModeOps {
    /// Total retired instructions across all modes.
    pub fn total(&self) -> u64 {
        self.fast_forward + self.functional + self.detailed_warming + self.detailed_measured
    }

    /// Instructions that required cycle-level simulation (warming +
    /// measured) — the paper's cost metric.
    pub fn detailed(&self) -> u64 {
        self.detailed_warming + self.detailed_measured
    }
}

/// The outcome of one [`Machine::run`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunResult {
    /// Instructions retired during this call.
    pub ops: u64,
    /// Cycles elapsed during this call. Zero for functional modes, which
    /// have no timing model.
    pub cycles: u64,
    /// `true` if the program executed [`pgss_isa::Instr::Halt`] during this
    /// call (or had already halted).
    pub halted: bool,
}

impl RunResult {
    /// Instructions per cycle for this run; `0.0` when no cycles elapsed.
    ///
    /// Only meaningful for [`Mode::DetailedMeasured`] runs.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.ops as f64 / self.cycles as f64
        }
    }
}

/// Everything needed to resume a machine exactly where it left off:
/// full architectural state (PC, register files, memory image, retired
/// counters) plus the warm long-lifetime microarchitectural state
/// (cache tag arrays, branch-predictor tables).
///
/// Short-lifetime pipeline state (scoreboard, fetch stalls, MSHRs) is
/// deliberately *not* captured: it is only defined mid-detailed-run,
/// and [`Machine::restore`] leaves the machine in the same
/// "timing-stale" condition a functional run does, so the next detailed
/// run re-establishes it via detailed warming — exactly the paper's
/// checkpoint model. Restore-then-run is therefore bit-exact with an
/// uninterrupted run for any schedule whose checkpoints fall between
/// detailed regions.
///
/// Snapshots only make sense for the same program and
/// [`MachineConfig`] they were captured from; [`Machine::restore`]
/// asserts the shapes match, and the checkpoint store keys records by
/// workload identity and config so mismatches are never looked up.
#[derive(Debug, Clone)]
pub struct MachineSnapshot {
    /// Program counter.
    pub pc: u32,
    /// Integer register file.
    pub regs: [i64; 32],
    /// Floating-point register file.
    pub fregs: [f64; 32],
    /// Data memory image.
    pub mem: Vec<i64>,
    /// Whether the program has halted.
    pub halted: bool,
    /// Per-mode retired-instruction counters.
    pub mode_ops: ModeOps,
    /// Retired ops since the last taken control transfer (in-flight
    /// BBV accumulation carry).
    pub ops_since_taken: u64,
    /// Cache hierarchy state.
    pub memsys: MemSystemState,
    /// Direction-predictor state.
    pub bpred: BranchPredictorState,
    /// Branch-target-buffer state.
    pub btb: BtbState,
}

impl PartialEq for MachineSnapshot {
    fn eq(&self, other: &Self) -> bool {
        // Float registers compare by bit pattern so a snapshot holding a
        // NaN still equals itself (IEEE `==` would make it unequal).
        let fregs_eq = self
            .fregs
            .iter()
            .zip(other.fregs.iter())
            .all(|(a, b)| a.to_bits() == b.to_bits());
        self.pc == other.pc
            && self.regs == other.regs
            && fregs_eq
            && self.mem == other.mem
            && self.halted == other.halted
            && self.mode_ops == other.mode_ops
            && self.ops_since_taken == other.ops_since_taken
            && self.memsys == other.memsys
            && self.bpred == other.bpred
            && self.btb == other.btb
    }
}

impl MachineSnapshot {
    /// Borrows this snapshot in the form every restore path copies from.
    pub fn state(&self) -> MachineStateRef<'_> {
        MachineStateRef {
            pc: self.pc,
            regs: &self.regs,
            fregs: &self.fregs,
            mem: &self.mem,
            halted: self.halted,
            mode_ops: self.mode_ops,
            ops_since_taken: self.ops_since_taken,
            caches: self.memsys.view(),
            bpred: self.bpred.view(),
            btb: &self.btb.targets,
        }
    }

    /// Lends every field for writing in place (how a decoder fills a
    /// snapshot it has allocated at the shape its bytes declare).
    pub fn state_mut(&mut self) -> MachineStateMut<'_> {
        let MemSystemState { l1i, l1d, l2 } = &mut self.memsys;
        let [l1i, l1d, l2] = [l1i, l1d, l2].map(|c| CacheStateMut {
            ways: &mut c.ways,
            hits: &mut c.hits,
            misses: &mut c.misses,
        });
        MachineStateMut {
            pc: &mut self.pc,
            regs: &mut self.regs,
            fregs: &mut self.fregs,
            mem: &mut self.mem,
            halted: &mut self.halted,
            mode_ops: &mut self.mode_ops,
            ops_since_taken: &mut self.ops_since_taken,
            caches: [l1i, l1d, l2],
            bpred: BranchPredictorStateMut {
                counters: &mut self.bpred.counters,
                history: &mut self.bpred.history,
                predictions: &mut self.bpred.predictions,
                mispredictions: &mut self.bpred.mispredictions,
            },
            btb: &mut self.btb.targets,
        }
    }
}

/// Exactly the state a [`MachineSnapshot`] carries, borrowed from a live
/// [`Machine`] ([`Machine::state`]) or from a snapshot
/// ([`MachineSnapshot::state`]). Encoders read a running machine through
/// it without copying the memory image, and every restore path copies
/// from it ([`MachineStateMut::copy_from`]).
#[derive(Debug, Clone, Copy)]
pub struct MachineStateRef<'a> {
    /// Program counter.
    pub pc: u32,
    /// Integer register file.
    pub regs: &'a [i64; 32],
    /// Floating-point register file.
    pub fregs: &'a [f64; 32],
    /// Data memory image.
    pub mem: &'a [i64],
    /// Whether the program has halted.
    pub halted: bool,
    /// Per-mode retired-instruction counters.
    pub mode_ops: ModeOps,
    /// Retired ops since the last taken control transfer.
    pub ops_since_taken: u64,
    /// Cache levels: L1I, L1D, L2.
    pub caches: [CacheStateRef<'a>; 3],
    /// Direction-predictor state.
    pub bpred: BranchPredictorStateRef<'a>,
    /// Branch-target-buffer targets.
    pub btb: &'a [u32],
}

/// Exactly the state a [`MachineSnapshot`] carries, lent out for writing
/// in place: the slices are the target's own buffers (the memory image,
/// tag arrays, counter tables), so restores and decoders never allocate.
/// Obtained from [`Machine::restore_with`] or
/// [`MachineSnapshot::state_mut`].
#[derive(Debug)]
pub struct MachineStateMut<'a> {
    /// Program counter.
    pub pc: &'a mut u32,
    /// Integer register file.
    pub regs: &'a mut [i64; 32],
    /// Floating-point register file.
    pub fregs: &'a mut [f64; 32],
    /// Data memory image.
    pub mem: &'a mut [i64],
    /// Whether the program has halted.
    pub halted: &'a mut bool,
    /// Per-mode retired-instruction counters.
    pub mode_ops: &'a mut ModeOps,
    /// Retired ops since the last taken control transfer.
    pub ops_since_taken: &'a mut u64,
    /// Cache levels: L1I, L1D, L2.
    pub caches: [CacheStateMut<'a>; 3],
    /// Direction-predictor state.
    pub bpred: BranchPredictorStateMut<'a>,
    /// Branch-target-buffer targets.
    pub btb: &'a mut [u32],
}

impl MachineStateMut<'_> {
    /// The one state copy behind every restore path: each buffer is
    /// overwritten in place.
    ///
    /// # Panics
    ///
    /// Panics if `src`'s memory image or any cache/predictor-table shape
    /// differs from this state's.
    pub fn copy_from(&mut self, src: MachineStateRef<'_>) {
        assert_eq!(
            src.mem.len(),
            self.mem.len(),
            "snapshot memory image does not match this machine's configuration"
        );
        *self.pc = src.pc;
        *self.regs = *src.regs;
        *self.fregs = *src.fregs;
        self.mem.copy_from_slice(src.mem);
        *self.halted = src.halted;
        *self.mode_ops = src.mode_ops;
        *self.ops_since_taken = src.ops_since_taken;
        for (level, from) in self.caches.iter_mut().zip(src.caches) {
            level.copy_from(from);
        }
        self.bpred.copy_from(src.bpred);
        copy_btb_targets(self.btb, src.btb);
    }
}

/// A simulated processor executing one [`Program`].
///
/// The machine owns all architectural state (registers, data memory, program
/// counter), the memory hierarchy, the branch predictors, and the timing
/// model. Sampling controllers drive it by alternating [`Machine::run`]
/// calls in different [`Mode`]s; architectural execution is bit-identical
/// across modes, so interleaving modes never changes program behaviour —
/// only what is modeled alongside it.
///
/// See the [crate-level example](crate) for typical use.
pub struct Machine {
    config: MachineConfig,
    /// The pre-decoded program (derived state; see the module docs).
    /// Shared so fleets of machines over one workload decode once.
    code: Arc<DecodedProgram>,
    /// Program length, cached for the indirect-jump range check.
    num_instrs: u32,
    /// Cycles per [`LatClass`], resolved from the latency configuration.
    class_cycles: [u64; LatClass::COUNT],
    /// Instructions per I-cache line (for superblock fetch chunking).
    ops_per_line: u32,
    pc: u32,
    /// Integer register file, padded to 64 slots: `[0, 32)` are the
    /// architectural registers, slot [`pgss_isa::R0_SINK`] is the scratch
    /// destination the decoder redirects `r0` writes to (making integer
    /// writes unconditional), and the remainder is padding so a 6-bit
    /// mask indexes without bounds checks. Only `[0, 32)` is ever read
    /// or snapshotted.
    regs: [i64; 64],
    fregs: [f64; 32],
    mem: Vec<i64>,
    memsys: MemSystem,
    bpred: BranchPredictor,
    btb: Btb,
    halted: bool,
    mode_ops: ModeOps,
    /// Retired ops since the last taken control transfer (for
    /// [`RetireSink::taken_branch`]).
    ops_since_taken: u64,
    /// Structured halt reason, when execution stopped on a fault.
    fault: Option<MachineFault>,

    // ---- timing model state ----
    /// Current issue cycle.
    now: u64,
    /// Instructions already issued in cycle `now`.
    slots: u32,
    /// Cycle at which each register's value is available; integer file in
    /// `[0, 32)`, floating-point file in `[32, 64)`.
    reg_ready: [u64; 64],
    /// Earliest cycle the next instruction may issue due to fetch stalls and
    /// mispredict redirects.
    fetch_ready: u64,
    /// I-cache line of the most recent fetch (deduplicates same-line
    /// accesses; exact for LRU state). Derived, never serialized: every
    /// restore resets it, so a restored machine fetches the same way
    /// whatever it ran before.
    last_fetch_line: u64,
    /// Cleared by functional runs; a detailed run starting with stale timing
    /// state resets the pipeline scoreboard to the current cycle.
    timing_valid: bool,
    line_shift: u32,
    /// Completion cycle of each in-flight L1 data miss
    /// ([`MachineConfig::mshrs`] slots).
    mshr: Vec<u64>,
}

impl fmt::Debug for Machine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Machine")
            .field("pc", &self.pc)
            .field("halted", &self.halted)
            .field("retired", &self.mode_ops.total())
            .field("cycle", &self.now)
            .finish_non_exhaustive()
    }
}

impl Machine {
    /// Creates a machine executing `program` from address 0, with zeroed
    /// registers and memory and cold caches/predictors.
    ///
    /// The program is decoded once (see [`pgss_isa::DecodedProgram`]);
    /// callers constructing many machines over the same program can
    /// decode once themselves and use [`Machine::with_decoded`].
    ///
    /// # Panics
    ///
    /// Panics if `config.memory_words` is zero or not a power of two (see
    /// [`MachineConfig::memory_words`]).
    pub fn new(config: MachineConfig, program: &Program) -> Machine {
        Machine::with_decoded(config, Arc::new(DecodedProgram::decode(program)))
    }

    /// Creates a machine over an already-decoded program, sharing the
    /// decode work across machines.
    ///
    /// # Panics
    ///
    /// Panics if `config.memory_words` is zero or not a power of two, or
    /// if `code` is empty.
    pub fn with_decoded(config: MachineConfig, code: Arc<DecodedProgram>) -> Machine {
        assert!(
            config.memory_words.is_power_of_two(),
            "memory_words must be a power of two, got {}",
            config.memory_words
        );
        assert!(!code.is_empty(), "a program must contain an instruction");
        let lat = config.lat;
        let class_cycles = [
            u64::from(lat.alu),
            u64::from(lat.mul),
            u64::from(lat.div),
            u64::from(lat.fp_add),
            u64::from(lat.fp_mul),
            u64::from(lat.fp_div),
        ];
        let line_shift = config.l1i.line_bytes.trailing_zeros();
        Machine {
            num_instrs: code.len() as u32,
            code,
            class_cycles,
            ops_per_line: ((config.l1i.line_bytes / INSTR_BYTES).max(1)) as u32,
            pc: 0,
            regs: [0; 64],
            fregs: [0.0; 32],
            mem: vec![0; config.memory_words],
            memsys: MemSystem::new(&config),
            bpred: BranchPredictor::new(config.bpred),
            btb: Btb::new(config.bpred.btb_entries),
            halted: false,
            mode_ops: ModeOps::default(),
            ops_since_taken: 0,
            fault: None,
            now: 0,
            slots: 0,
            reg_ready: [0; 64],
            fetch_ready: 0,
            last_fetch_line: u64::MAX,
            timing_valid: false,
            line_shift,
            mshr: vec![0; config.mshrs.max(1) as usize],
            config,
        }
    }

    /// The machine's decoded program, for sharing with
    /// [`Machine::with_decoded`].
    pub fn decoded(&self) -> &Arc<DecodedProgram> {
        &self.code
    }

    /// The structured halt reason, if execution stopped on a fault
    /// rather than a [`pgss_isa::Instr::Halt`]. Cleared by
    /// [`Machine::restore`].
    pub fn fault(&self) -> Option<MachineFault> {
        self.fault
    }

    /// The machine's configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Current program counter.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// `true` once the program has executed [`pgss_isa::Instr::Halt`].
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Total retired instructions across all modes.
    pub fn retired(&self) -> u64 {
        self.mode_ops.total()
    }

    /// Per-mode retired-instruction counters.
    pub fn mode_ops(&self) -> ModeOps {
        self.mode_ops
    }

    /// Current cycle of the timing model (advances only in detailed modes).
    pub fn cycle(&self) -> u64 {
        self.now
    }

    /// Read access to an integer register.
    pub fn reg(&self, index: usize) -> i64 {
        self.regs[index]
    }

    /// Read access to data memory.
    pub fn memory(&self) -> &[i64] {
        &self.mem
    }

    /// Mutable access to data memory, for pre-run initialization of workload
    /// data structures (arrays, pointer-chase rings, entropy tables).
    pub fn memory_mut(&mut self) -> &mut [i64] {
        &mut self.mem
    }

    /// The memory hierarchy (for hit-rate inspection).
    pub fn memsys(&self) -> &MemSystem {
        &self.memsys
    }

    /// The direction predictor (for misprediction-rate inspection).
    pub fn bpred(&self) -> &BranchPredictor {
        &self.bpred
    }

    /// Captures a [`MachineSnapshot`] of the current architectural and
    /// warm microarchitectural state.
    pub fn snapshot(&self) -> MachineSnapshot {
        MachineSnapshot {
            pc: self.pc,
            regs: self.regs[..32].try_into().expect("32 architectural regs"),
            fregs: self.fregs,
            mem: self.mem.clone(),
            halted: self.halted,
            mode_ops: self.mode_ops,
            ops_since_taken: self.ops_since_taken,
            memsys: self.memsys.save_state(),
            bpred: self.bpred.save_state(),
            btb: self.btb.save_state(),
        }
    }

    /// Borrows the state a snapshot would carry, without copying it.
    pub fn state(&self) -> MachineStateRef<'_> {
        MachineStateRef {
            pc: self.pc,
            regs: self.regs.first_chunk().expect("32 architectural regs"),
            fregs: &self.fregs,
            mem: &self.mem,
            halted: self.halted,
            mode_ops: self.mode_ops,
            ops_since_taken: self.ops_since_taken,
            caches: self.memsys.states(),
            bpred: self.bpred.state(),
            btb: self.btb.targets(),
        }
    }

    /// Restores state captured by [`Machine::snapshot`], leaving the
    /// timing model stale (as after a functional run) so the next
    /// detailed run re-warms pipeline state; subsequent execution is
    /// bit-exact with the machine the snapshot was taken from.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's memory image or any
    /// cache/predictor-table shape does not match this machine's
    /// configuration.
    pub fn restore(&mut self, snapshot: &MachineSnapshot) {
        self.state_mut().copy_from(snapshot.state());
        self.finish_restore();
    }

    /// Copies `src`'s state into this machine's existing buffers. The
    /// result is the same as `self.restore(&src.snapshot())`, without
    /// building the intermediate snapshot and its memory image.
    ///
    /// # Panics
    ///
    /// Panics if the two machines' configurations differ in memory size
    /// or any cache/predictor-table shape.
    pub fn restore_from(&mut self, src: &Machine) {
        self.state_mut().copy_from(src.state());
        self.finish_restore();
    }

    /// Lends this machine's state to `fill` for writing in place, then —
    /// if `fill` succeeds — finishes the restore the way
    /// [`Machine::restore`] does: the timing model goes stale and any
    /// fault is cleared.
    ///
    /// `fill` must either write a complete state and return `Ok`, or
    /// return `Err` before writing anything: on `Err` the machine is left
    /// as `fill` left it and no restore bookkeeping runs.
    pub fn restore_with<E>(
        &mut self,
        fill: impl FnOnce(MachineStateMut<'_>) -> Result<(), E>,
    ) -> Result<(), E> {
        fill(self.state_mut())?;
        self.finish_restore();
        Ok(())
    }

    fn state_mut(&mut self) -> MachineStateMut<'_> {
        MachineStateMut {
            pc: &mut self.pc,
            regs: self.regs.first_chunk_mut().expect("32 architectural regs"),
            fregs: &mut self.fregs,
            mem: &mut self.mem,
            halted: &mut self.halted,
            mode_ops: &mut self.mode_ops,
            ops_since_taken: &mut self.ops_since_taken,
            caches: self.memsys.states_mut(),
            bpred: self.bpred.state_mut(),
            btb: self.btb.targets_mut(),
        }
    }

    /// Resets what is derived from execution rather than carried in a
    /// snapshot, so a restored machine behaves the same whatever it ran
    /// before.
    fn finish_restore(&mut self) {
        self.regs[32..].fill(0);
        self.memsys.forget_data_line();
        self.last_fetch_line = u64::MAX;
        self.timing_valid = false;
        self.fault = None;
    }

    /// Overrides the per-mode retired counters.
    ///
    /// Restoring a snapshot adopts the *capture pass's* counters; a
    /// driver that jumps over a stretch of execution via checkpoint
    /// restore uses this to re-charge the skipped instructions to the
    /// mode its own schedule would have executed them in, keeping cost
    /// accounting identical to an unaccelerated run.
    pub fn set_mode_ops(&mut self, mode_ops: ModeOps) {
        self.mode_ops = mode_ops;
    }

    /// Runs up to `max_ops` instructions in `mode` with no event sink.
    ///
    /// Returns early if the program halts. See [`Machine::run_with`].
    pub fn run(&mut self, mode: Mode, max_ops: u64) -> RunResult {
        self.run_with(mode, max_ops, &mut NoopSink)
    }

    /// Runs up to `max_ops` instructions in `mode`, delivering retirement
    /// events to `sink`.
    ///
    /// Architectural execution is identical in every mode; `mode` only
    /// selects what is modeled alongside it (cache/predictor warming,
    /// cycle-level timing) and which [`ModeOps`] bucket the retired
    /// instructions are charged to.
    pub fn run_with<S: RetireSink>(&mut self, mode: Mode, max_ops: u64, sink: &mut S) -> RunResult {
        if self.halted || max_ops == 0 {
            return RunResult {
                ops: 0,
                cycles: 0,
                halted: self.halted,
            };
        }
        // Clone out the decoded-program handle so the hot loop can hold a
        // direct slice borrow while mutating machine state.
        let code = Arc::clone(&self.code);
        let (ops, cycles) = match mode {
            Mode::FastForward => {
                self.timing_valid = false;
                (self.run_loop::<false, false, S>(&code, max_ops, sink), 0)
            }
            Mode::Functional => {
                self.timing_valid = false;
                (self.run_loop::<false, true, S>(&code, max_ops, sink), 0)
            }
            Mode::DetailedWarming | Mode::DetailedMeasured => {
                if !self.timing_valid {
                    // Pipeline state is stale after functional execution:
                    // every register is "ready now" and fetch restarts
                    // cleanly. Detailed warming exists to re-establish
                    // realistic occupancy before measurement.
                    self.reg_ready = [self.now; 64];
                    self.fetch_ready = self.now;
                    self.slots = 0;
                    self.last_fetch_line = u64::MAX;
                    self.mshr.fill(self.now);
                    self.timing_valid = true;
                }
                let start = self.now;
                let ops = self.run_loop::<true, true, S>(&code, max_ops, sink);
                let cycles = if ops == 0 { 0 } else { self.now - start + 1 };
                (ops, cycles)
            }
        };
        match mode {
            Mode::FastForward => self.mode_ops.fast_forward += ops,
            Mode::Functional => self.mode_ops.functional += ops,
            Mode::DetailedWarming => self.mode_ops.detailed_warming += ops,
            Mode::DetailedMeasured => self.mode_ops.detailed_measured += ops,
        }
        RunResult {
            ops,
            cycles,
            halted: self.halted,
        }
    }

    /// Picks the issue cycle for an instruction whose operands are ready at
    /// `ready`, honouring program order, fetch stalls, and the issue width.
    #[inline(always)]
    fn issue_at(&mut self, ready: u64) -> u64 {
        let t = self.now.max(self.fetch_ready).max(ready);
        if t > self.now {
            self.now = t;
            self.slots = 0;
        }
        if self.slots >= self.config.issue_width {
            self.now += 1;
            self.slots = 0;
        }
        self.slots += 1;
        self.now
    }

    /// Issues a data-memory instruction whose operands are ready at `ready`
    /// with a cache access latency of `lat_cycles`. L1 misses
    /// (`is_miss`) must acquire a miss-status-holding register, stalling
    /// issue until one frees. Returns the completion cycle.
    #[inline(always)]
    fn issue_mem(&mut self, ready: u64, lat_cycles: u32, is_miss: bool) -> u64 {
        let mut ready = ready;
        let mut slot = usize::MAX;
        if is_miss {
            slot = 0;
            for k in 1..self.mshr.len() {
                if self.mshr[k] < self.mshr[slot] {
                    slot = k;
                }
            }
            ready = ready.max(self.mshr[slot]);
        }
        let t = self.issue_at(ready);
        let done = t + u64::from(lat_cycles);
        if is_miss {
            self.mshr[slot] = done;
        }
        done
    }

    /// Touches the I-cache hierarchy for a fetch of address `pc` if it
    /// crosses onto a new line. Exact for LRU state: the touched-line
    /// sequence is identical to checking before every op, because
    /// sequential fetch changes line only at `ops_per_line` boundaries.
    #[inline(always)]
    fn fetch_line<const DETAILED: bool>(&mut self, pc: u32) {
        let line = (u64::from(pc) * INSTR_BYTES) >> self.line_shift;
        if line != self.last_fetch_line {
            self.last_fetch_line = line;
            if DETAILED {
                let fl = self.memsys.fetch_latency_fast(u64::from(pc) * INSTR_BYTES);
                if fl > 0 {
                    self.fetch_ready = self.fetch_ready.max(self.now) + u64::from(fl);
                }
            } else {
                self.memsys.warm_fetch_fast(u64::from(pc) * INSTR_BYTES);
            }
        }
    }

    /// Executes one straight-line (non-control-flow) decoded op.
    ///
    /// One dispatch per op: [`OpKind`] is fully resolved (operator and
    /// imm-vs-register form folded into the opcode), so this match *is*
    /// the interpreter — there is no second operator-selector match
    /// behind any arm. Register indices come pre-resolved from the
    /// decoder and are masked to the file size, so register-file and
    /// scoreboard accesses compile without bounds checks. Integer
    /// destinations write unconditionally: the decoder redirected `r0`
    /// writes to the [`pgss_isa::R0_SINK`] scratch slot, whose
    /// scoreboard alias (`R0_SINK & 31 == 0`) is exactly the
    /// `reg_ready[0]` slot the per-op reference updates on `r0` writes —
    /// timing stays bit-exact.
    // Operators are passed into the arm-shape macros as closures and
    // invoked immediately — that's the point (one shared expansion per
    // shape, operator folded in), not a redundant call.
    #[allow(clippy::redundant_closure_call)]
    #[inline(always)]
    fn exec_straight<const DETAILED: bool, const WARM: bool, S: RetireSink>(
        &mut self,
        op: DecodedOp,
        sink: &mut S,
    ) {
        // `a` indexes the padded 64-slot file (dests may be R0_SINK);
        // `ra` is its 32-slot scoreboard alias; sources are always < 32.
        let a = (op.a & 63) as usize;
        let ra = (op.a & 31) as usize;
        let b = (op.b & 31) as usize;
        let c = (op.c & 31) as usize;
        // Arm bodies for the three ALU/FPU shapes. Operator semantics are
        // exactly `AluOp::apply` / `FpuOp::apply` (wrapping integer
        // arithmetic, div/rem by zero yield 0, shift amounts modulo 64).
        macro_rules! rr {
            // reg-reg integer: a <- f(regs[b], regs[c])
            ($f:expr) => {{
                let f = $f;
                self.regs[a] = f(self.regs[b], self.regs[c]);
                if DETAILED {
                    let ready = self.reg_ready[b].max(self.reg_ready[c]);
                    let t = self.issue_at(ready);
                    self.reg_ready[ra] = t + self.class_cycles[op.lat.index()];
                }
            }};
        }
        macro_rules! ri {
            // reg-imm integer: a <- f(regs[b], imm)
            ($f:expr) => {{
                let f = $f;
                self.regs[a] = f(self.regs[b], op.imm);
                if DETAILED {
                    let t = self.issue_at(self.reg_ready[b]);
                    self.reg_ready[ra] = t + self.class_cycles[op.lat.index()];
                }
            }};
        }
        macro_rules! frr {
            // reg-reg floating-point: f[ra] <- f(fregs[b], fregs[c])
            ($f:expr) => {{
                let f = $f;
                self.fregs[ra] = f(self.fregs[b], self.fregs[c]);
                if DETAILED {
                    let ready = self.reg_ready[32 + b].max(self.reg_ready[32 + c]);
                    let t = self.issue_at(ready);
                    self.reg_ready[32 + ra] = t + self.class_cycles[op.lat.index()];
                }
            }};
        }
        match op.kind {
            OpKind::Add => rr!(|x: i64, y: i64| x.wrapping_add(y)),
            OpKind::Sub => rr!(|x: i64, y: i64| x.wrapping_sub(y)),
            OpKind::Mul => rr!(|x: i64, y: i64| x.wrapping_mul(y)),
            OpKind::Div => rr!(|x: i64, y: i64| if y == 0 { 0 } else { x.wrapping_div(y) }),
            OpKind::Rem => rr!(|x: i64, y: i64| if y == 0 { 0 } else { x.wrapping_rem(y) }),
            OpKind::And => rr!(|x: i64, y: i64| x & y),
            OpKind::Or => rr!(|x: i64, y: i64| x | y),
            OpKind::Xor => rr!(|x: i64, y: i64| x ^ y),
            OpKind::Sll => rr!(|x: i64, y: i64| ((x as u64) << (y as u64 & 63)) as i64),
            OpKind::Srl => rr!(|x: i64, y: i64| ((x as u64) >> (y as u64 & 63)) as i64),
            OpKind::Sra => rr!(|x: i64, y: i64| x >> (y as u64 & 63)),
            OpKind::Slt => rr!(|x: i64, y: i64| i64::from(x < y)),
            OpKind::AddI => ri!(|x: i64, y: i64| x.wrapping_add(y)),
            OpKind::SubI => ri!(|x: i64, y: i64| x.wrapping_sub(y)),
            OpKind::MulI => ri!(|x: i64, y: i64| x.wrapping_mul(y)),
            OpKind::DivI => ri!(|x: i64, y: i64| if y == 0 { 0 } else { x.wrapping_div(y) }),
            OpKind::RemI => ri!(|x: i64, y: i64| if y == 0 { 0 } else { x.wrapping_rem(y) }),
            OpKind::AndI => ri!(|x: i64, y: i64| x & y),
            OpKind::OrI => ri!(|x: i64, y: i64| x | y),
            OpKind::XorI => ri!(|x: i64, y: i64| x ^ y),
            OpKind::SllI => ri!(|x: i64, y: i64| ((x as u64) << (y as u64 & 63)) as i64),
            OpKind::SrlI => ri!(|x: i64, y: i64| ((x as u64) >> (y as u64 & 63)) as i64),
            OpKind::SraI => ri!(|x: i64, y: i64| x >> (y as u64 & 63)),
            OpKind::SltI => ri!(|x: i64, y: i64| i64::from(x < y)),
            OpKind::Li => {
                self.regs[a] = op.imm;
                if DETAILED {
                    let t = self.issue_at(0);
                    self.reg_ready[ra] = t + self.class_cycles[LatClass::Alu.index()];
                }
            }
            OpKind::FAdd => frr!(|x: f64, y: f64| x + y),
            OpKind::FSub => frr!(|x: f64, y: f64| x - y),
            OpKind::FMul => frr!(|x: f64, y: f64| x * y),
            OpKind::FDiv => frr!(|x: f64, y: f64| x / y),
            OpKind::Load => {
                let addr = self.effective(b, op.imm);
                sink.data_access(addr);
                self.regs[a] = self.mem[addr as usize];
                if DETAILED {
                    let l = self.memsys.load_latency_fast(addr * 8);
                    let done = self.issue_mem(self.reg_ready[b], l, l > self.config.lat.l1_hit);
                    self.reg_ready[ra] = done;
                } else if WARM {
                    self.memsys.warm_data_fast(addr * 8);
                }
            }
            OpKind::Store => {
                let addr = self.effective(b, op.imm);
                sink.data_access(addr);
                self.mem[addr as usize] = self.regs[c];
                if DETAILED {
                    let ready = self.reg_ready[c].max(self.reg_ready[b]);
                    let l = self.memsys.store_latency_fast(addr * 8);
                    let _ = self.issue_mem(ready, 0, l > 0);
                } else if WARM {
                    self.memsys.warm_data_fast(addr * 8);
                }
            }
            OpKind::FLoad => {
                let addr = self.effective(b, op.imm);
                sink.data_access(addr);
                self.fregs[ra] = f64::from_bits(self.mem[addr as usize] as u64);
                if DETAILED {
                    let l = self.memsys.load_latency_fast(addr * 8);
                    let done = self.issue_mem(self.reg_ready[b], l, l > self.config.lat.l1_hit);
                    self.reg_ready[32 + ra] = done;
                } else if WARM {
                    self.memsys.warm_data_fast(addr * 8);
                }
            }
            OpKind::FStore => {
                let addr = self.effective(b, op.imm);
                sink.data_access(addr);
                self.mem[addr as usize] = self.fregs[c].to_bits() as i64;
                if DETAILED {
                    let ready = self.reg_ready[32 + c].max(self.reg_ready[b]);
                    let l = self.memsys.store_latency_fast(addr * 8);
                    let _ = self.issue_mem(ready, 0, l > 0);
                } else if WARM {
                    self.memsys.warm_data_fast(addr * 8);
                }
            }
            _ => unreachable!("control-flow op inside a straight-line run"),
        }
    }

    /// Timing/warming tail shared by the four conditional-branch opcodes:
    /// issue, predict, and charge the mispredict redirect penalty.
    #[inline(always)]
    fn branch_timing<const DETAILED: bool, const WARM: bool>(
        &mut self,
        pc: u32,
        b: usize,
        c: usize,
        taken: bool,
    ) {
        if DETAILED {
            let ready = self.reg_ready[b].max(self.reg_ready[c]);
            let t = self.issue_at(ready);
            let correct = self.bpred.predict_and_update(pc, taken);
            if !correct {
                self.fetch_ready = t + u64::from(self.config.lat.mispredict);
            }
        } else if WARM {
            self.bpred.predict_and_update(pc, taken);
        }
    }

    /// The superblock interpreter/timing loop, monomorphized per mode
    /// class.
    ///
    /// `DETAILED` enables the cycle-level model; `WARM` enables cache and
    /// predictor updates (always true when `DETAILED` is).
    ///
    /// Each outer iteration executes one superblock: the straight-line
    /// run starting at the current pc (`run_len`), clipped to the op
    /// budget, then the single control-flow op that terminates it.
    /// Straight-line ops run without per-op mode or taken-branch
    /// re-checks; their retirement is accounted branchlessly in one
    /// batch ([`RetireSink::retire_run`]), and I-cache warming happens
    /// once per line chunk instead of once per op — both bit-exact with
    /// the per-op reference loop.
    // The `branch!` macro takes its comparator as an immediately-invoked
    // closure, same pattern as `exec_straight`'s arm-shape macros.
    #[allow(clippy::redundant_closure_call)]
    fn run_loop<const DETAILED: bool, const WARM: bool, S: RetireSink>(
        &mut self,
        code: &DecodedProgram,
        max_ops: u64,
        sink: &mut S,
    ) -> u64 {
        let all_ops = code.ops();
        let per_line = self.ops_per_line;
        let line_mask = per_line - 1;
        let mut ops = 0u64;
        while ops < max_ops {
            let pc0 = self.pc;
            let full = code.run_len(pc0);
            let run = u64::from(full).min(max_ops - ops) as u32;
            if run > 0 {
                let mut i = 0u32;
                while i < run {
                    let cur = pc0 + i;
                    let chunk = if WARM {
                        self.fetch_line::<DETAILED>(cur);
                        // Ops remaining on this I-cache line: within the
                        // chunk, no further line transition is possible.
                        (per_line - (cur & line_mask)).min(run - i)
                    } else {
                        run - i
                    };
                    for &op in &all_ops[cur as usize..(cur + chunk) as usize] {
                        self.exec_straight::<DETAILED, WARM, S>(op, sink);
                    }
                    i += chunk;
                }
                sink.retire_run(pc0, run);
                ops += u64::from(run);
                self.ops_since_taken += u64::from(run);
                self.pc = pc0 + run;
                if ops == max_ops {
                    break;
                }
            }

            // The control-flow op terminating the superblock.
            let pc = pc0 + run;
            let op = all_ops[pc as usize];
            if WARM {
                self.fetch_line::<DETAILED>(pc);
            }
            let mut next_pc = pc + 1;
            let taken: bool;
            // Branch conditions are resolved in the opcode (one dispatch);
            // the shared issue/predict tail is `branch_timing`.
            macro_rules! branch {
                ($cmp:expr) => {{
                    let b = (op.b & 31) as usize;
                    let c = (op.c & 31) as usize;
                    let cmp = $cmp;
                    taken = cmp(self.regs[b], self.regs[c]);
                    if taken {
                        next_pc = op.target();
                    }
                    self.branch_timing::<DETAILED, WARM>(pc, b, c, taken);
                }};
            }
            match op.kind {
                OpKind::BranchEq => branch!(|x: i64, y: i64| x == y),
                OpKind::BranchNe => branch!(|x: i64, y: i64| x != y),
                OpKind::BranchLt => branch!(|x: i64, y: i64| x < y),
                OpKind::BranchGe => branch!(|x: i64, y: i64| x >= y),
                OpKind::Jump => {
                    next_pc = op.target();
                    taken = true;
                    if DETAILED {
                        let _ = self.issue_at(0);
                    }
                }
                OpKind::Jal => {
                    let a = (op.a & 63) as usize;
                    self.regs[a] = i64::from(pc) + 1;
                    next_pc = op.target();
                    taken = true;
                    if DETAILED {
                        let t = self.issue_at(0);
                        self.reg_ready[(op.a & 31) as usize] =
                            t + self.class_cycles[LatClass::Alu.index()];
                    }
                }
                OpKind::Jr => {
                    let b = (op.b & 31) as usize;
                    let target = self.regs[b] as u32;
                    if target >= self.num_instrs {
                        // Structured halt instead of a panic: the faulting
                        // op does not retire, and the campaign path
                        // surfaces the reason as a typed cell error.
                        self.fault = Some(MachineFault::IndirectJumpOutOfRange { pc, target });
                        self.halted = true;
                        break;
                    }
                    next_pc = target;
                    taken = true;
                    if DETAILED {
                        let t = self.issue_at(self.reg_ready[b]);
                        let correct = self.btb.predict_and_update(pc, target);
                        if !correct {
                            self.fetch_ready = t + u64::from(self.config.lat.mispredict);
                        }
                    } else if WARM {
                        self.btb.predict_and_update(pc, target);
                    }
                }
                OpKind::Halt => {
                    self.halted = true;
                    if DETAILED {
                        let _ = self.issue_at(0);
                    }
                    ops += 1;
                    self.ops_since_taken += 1;
                    sink.retire(pc);
                    break;
                }
                _ => unreachable!("straight-line op terminates a superblock"),
            }

            ops += 1;
            self.ops_since_taken += 1;
            sink.retire(pc);
            if taken {
                sink.taken_branch(pc, self.ops_since_taken);
                self.ops_since_taken = 0;
            }
            self.pc = next_pc;
        }
        ops
    }

    /// Effective word address: base register plus offset, wrapped to the
    /// memory size. The mask is derived from `mem.len()` inline (rather
    /// than the cached `addr_mask`) so the optimizer can prove
    /// `addr < mem.len()` and drop the bounds check on every
    /// architectural memory access.
    #[inline(always)]
    fn effective(&self, base: usize, offset: i64) -> u64 {
        (self.regs[base].wrapping_add(offset)) as u64 & (self.mem.len() as u64 - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgss_isa::{Assembler, Cond, Reg};

    fn small_config() -> MachineConfig {
        MachineConfig {
            memory_words: 1 << 16,
            ..MachineConfig::default()
        }
    }

    /// A loop of `body` independent single-cycle ALU ops per iteration,
    /// iterated `iters` times (I-cache-resident so steady state dominates).
    fn independent_alu_program(body: usize, iters: i64) -> Program {
        let mut asm = Assembler::new();
        let (i, n) = (Reg::R20, Reg::R21);
        asm.li(i, 0);
        asm.li(n, iters);
        let top = asm.bind_new_label();
        for k in 0..body {
            // Rotate destinations over r1..r8 with sources r9..r10 (never
            // written) so there are no dependences.
            let rd = Reg::from_index(1 + (k % 8)).unwrap();
            asm.add(rd, Reg::R9, Reg::R10);
        }
        asm.addi(i, i, 1);
        asm.branch(Cond::Lt, i, n, top);
        asm.halt();
        asm.finish().unwrap()
    }

    /// A loop of `body` back-to-back dependent ALU ops per iteration.
    fn dependent_alu_program(body: usize, iters: i64) -> Program {
        let mut asm = Assembler::new();
        let (i, n) = (Reg::R20, Reg::R21);
        asm.li(i, 0);
        asm.li(n, iters);
        let top = asm.bind_new_label();
        for _ in 0..body {
            asm.addi(Reg::R1, Reg::R1, 1);
        }
        asm.addi(i, i, 1);
        asm.branch(Cond::Lt, i, n, top);
        asm.halt();
        asm.finish().unwrap()
    }

    #[test]
    fn independent_ops_reach_full_width() {
        let p = independent_alu_program(64, 1000);
        let mut m = Machine::new(small_config(), &p);
        let r = m.run(Mode::DetailedMeasured, u64::MAX);
        assert!(r.halted);
        let ipc = r.ipc();
        assert!(
            ipc > 3.5,
            "expected near-4 IPC for independent ALU ops, got {ipc}"
        );
    }

    #[test]
    fn dependent_chain_is_serialized() {
        let p = dependent_alu_program(64, 1000);
        let mut m = Machine::new(small_config(), &p);
        let r = m.run(Mode::DetailedMeasured, u64::MAX);
        let ipc = r.ipc();
        assert!(
            ipc < 1.2,
            "dependent chain should run near 1 IPC, got {ipc}"
        );
        assert!(
            ipc > 0.8,
            "dependent ALU chain should not be slower than 1/cycle, got {ipc}"
        );
    }

    #[test]
    fn architectural_result_is_mode_independent() {
        // Sum of 0..N computed by loop, run fully in each mode.
        let build = || {
            let mut asm = Assembler::new();
            let (sum, i, n) = (Reg::R1, Reg::R2, Reg::R3);
            asm.li(sum, 0);
            asm.li(i, 0);
            asm.li(n, 1000);
            let top = asm.bind_new_label();
            asm.add(sum, sum, i);
            asm.addi(i, i, 1);
            asm.branch(Cond::Lt, i, n, top);
            asm.halt();
            asm.finish().unwrap()
        };
        let expect = (0..1000i64).sum::<i64>();
        for mode in [Mode::FastForward, Mode::Functional, Mode::DetailedMeasured] {
            let p = build();
            let mut m = Machine::new(small_config(), &p);
            let r = m.run(mode, u64::MAX);
            assert!(r.halted);
            assert_eq!(m.reg(1), expect, "wrong sum in mode {mode}");
        }
    }

    #[test]
    fn interleaving_modes_preserves_architectural_state() {
        let p = dependent_alu_program(64, 200);
        let mut a = Machine::new(small_config(), &p);
        let mut b = Machine::new(small_config(), &p);
        a.run(Mode::Functional, u64::MAX);
        // b alternates modes every 777 ops.
        let mut flip = false;
        while !b.halted() {
            let mode = if flip {
                Mode::DetailedMeasured
            } else {
                Mode::Functional
            };
            b.run(mode, 777);
            flip = !flip;
        }
        assert_eq!(a.reg(1), b.reg(1));
        assert_eq!(a.retired(), b.retired());
    }

    #[test]
    fn cache_misses_slow_execution() {
        // Loads striding by exactly one line over a >L2-sized region miss
        // everywhere; the same loop over a tiny region hits in L1. Both
        // walks repeat so steady-state behaviour dominates.
        let build = |span_words: i64, reps: i64| {
            let mut asm = Assembler::new();
            let (i, n, v, step) = (Reg::R2, Reg::R3, Reg::R4, Reg::R5);
            let (r, nr) = (Reg::R6, Reg::R7);
            asm.li(r, 0);
            asm.li(nr, reps);
            asm.li(n, span_words);
            asm.li(step, 8); // 8 words = 64 bytes = one line
            let outer = asm.bind_new_label();
            asm.li(i, 0);
            let top = asm.bind_new_label();
            asm.load(v, i, 0);
            asm.add(i, i, step);
            asm.branch(Cond::Lt, i, n, top);
            asm.addi(r, r, 1);
            asm.branch(Cond::Lt, r, nr, outer);
            asm.halt();
            asm.finish().unwrap()
        };
        let cfg = MachineConfig {
            memory_words: 1 << 20,
            ..MachineConfig::default()
        };
        // Hot: loops inside 512 words (fits L1), repeated many times.
        let hot = build(512, 1000);
        let mut m_hot = Machine::new(cfg, &hot);
        // Cold: walk 1 << 19 words (4 MiB > 1 MiB L2) twice.
        let cold = build(1 << 19, 2);
        let mut m_cold = Machine::new(cfg, &cold);
        let rh = m_hot.run(Mode::DetailedMeasured, u64::MAX);
        let rc = m_cold.run(Mode::DetailedMeasured, u64::MAX);
        assert!(
            rc.ipc() < rh.ipc() / 2.0,
            "line-strided walk (ipc {}) should be much slower than L1-resident loop (ipc {})",
            rc.ipc(),
            rh.ipc()
        );
    }

    #[test]
    fn mispredicts_slow_execution() {
        // A data-dependent unpredictable branch vs an always-taken one.
        let build = |xorshift: bool| {
            let mut asm = Assembler::new();
            let (i, n, x, bit) = (Reg::R2, Reg::R3, Reg::R4, Reg::R5);
            asm.li(i, 0);
            asm.li(n, 20_000);
            asm.li(x, 0x1234_5678_9ABC_DEF0u64 as i64);
            let top = asm.bind_new_label();
            let skip = asm.new_label();
            if xorshift {
                // x ^= x << 13; x ^= x >> 7; x ^= x << 17 — pseudo-random bit.
                asm.slli(bit, x, 13);
                asm.xor(x, x, bit);
                asm.srli(bit, x, 7);
                asm.xor(x, x, bit);
                asm.slli(bit, x, 17);
                asm.xor(x, x, bit);
                asm.andi(bit, x, 1);
            } else {
                asm.nop();
                asm.nop();
                asm.nop();
                asm.nop();
                asm.nop();
                asm.nop();
                asm.li(bit, 0);
            }
            asm.branch(Cond::Ne, bit, Reg::R0, skip);
            asm.addi(i, i, 0);
            asm.bind(skip);
            asm.addi(i, i, 1);
            asm.branch(Cond::Lt, i, n, top);
            asm.halt();
            asm.finish().unwrap()
        };
        let predictable = build(false);
        let random = build(true);
        let mut mp = Machine::new(small_config(), &predictable);
        let mut mr = Machine::new(small_config(), &random);
        let rp = mp.run(Mode::DetailedMeasured, u64::MAX);
        let rr = mr.run(Mode::DetailedMeasured, u64::MAX);
        assert!(
            rr.ipc() < rp.ipc() * 0.8,
            "random branches (ipc {}) should be slower than predictable (ipc {})",
            rr.ipc(),
            rp.ipc()
        );
    }

    #[test]
    fn mode_ops_accounting() {
        let p = dependent_alu_program(64, 200);
        let mut m = Machine::new(small_config(), &p);
        m.run(Mode::FastForward, 1000);
        m.run(Mode::Functional, 2000);
        m.run(Mode::DetailedWarming, 3000);
        m.run(Mode::DetailedMeasured, 500);
        let ops = m.mode_ops();
        assert_eq!(ops.fast_forward, 1000);
        assert_eq!(ops.functional, 2000);
        assert_eq!(ops.detailed_warming, 3000);
        assert_eq!(ops.detailed_measured, 500);
        assert_eq!(ops.detailed(), 3500);
        assert_eq!(ops.total(), 6500);
        assert_eq!(m.retired(), 6500);
    }

    #[test]
    fn functional_runs_report_zero_cycles() {
        let p = dependent_alu_program(10, 10);
        let mut m = Machine::new(small_config(), &p);
        let r = m.run(Mode::Functional, 50);
        assert_eq!(r.cycles, 0);
        assert_eq!(r.ops, 50);
        assert_eq!(r.ipc(), 0.0);
    }

    #[test]
    fn run_after_halt_is_empty() {
        let p = dependent_alu_program(1, 1);
        let mut m = Machine::new(small_config(), &p);
        let r1 = m.run(Mode::Functional, u64::MAX);
        assert!(r1.halted);
        let r2 = m.run(Mode::DetailedMeasured, 100);
        assert_eq!(r2.ops, 0);
        assert!(r2.halted);
    }

    #[test]
    fn max_ops_is_respected_exactly() {
        let p = dependent_alu_program(64, 200);
        let mut m = Machine::new(small_config(), &p);
        for chunk in [1u64, 7, 100, 4096] {
            let r = m.run(Mode::DetailedMeasured, chunk);
            assert_eq!(r.ops, chunk);
        }
    }

    #[test]
    fn taken_branch_events_carry_op_counts() {
        #[derive(Default)]
        struct Collect(Vec<(u32, u64)>);
        impl RetireSink for Collect {
            fn taken_branch(&mut self, pc: u32, ops: u64) {
                self.0.push((pc, ops));
            }
        }
        // Loop body of 3 instructions (add, addi, branch): each taken branch
        // should report 3 ops; the first reports more (includes preamble).
        let mut asm = Assembler::new();
        let (i, n) = (Reg::R2, Reg::R3);
        asm.li(i, 0);
        asm.li(n, 5);
        let top = asm.bind_new_label();
        asm.add(Reg::R1, Reg::R1, i);
        asm.addi(i, i, 1);
        asm.branch(Cond::Lt, i, n, top);
        asm.halt();
        let p = asm.finish().unwrap();
        let mut m = Machine::new(small_config(), &p);
        let mut sink = Collect::default();
        m.run_with(Mode::Functional, u64::MAX, &mut sink);
        // 5 iterations; the final branch is not taken (i == n).
        assert_eq!(sink.0.len(), 4);
        assert_eq!(sink.0[0], (4, 5)); // li,li,add,addi,branch
        for &(pc, ops) in &sink.0[1..] {
            assert_eq!(pc, 4);
            assert_eq!(ops, 3);
        }
    }

    #[test]
    fn determinism() {
        let p = independent_alu_program(64, 100);
        let run = || {
            let mut m = Machine::new(small_config(), &p);
            m.run(Mode::DetailedWarming, 1000);
            let r = m.run(Mode::DetailedMeasured, 3000);
            (r.ops, r.cycles)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn snapshot_restore_resumes_bit_exactly() {
        // Run A straight through; run B to a mid-point, snapshot, restore
        // onto a *fresh* machine, and finish. Every observable — final
        // snapshot included — must match, across mode schedules.
        let p = dependent_alu_program(64, 300);
        let schedules: [&[(Mode, u64)]; 3] = [
            &[(Mode::Functional, u64::MAX)],
            &[
                (Mode::Functional, 5_000),
                (Mode::DetailedWarming, 1_000),
                (Mode::DetailedMeasured, 1_000),
                (Mode::Functional, u64::MAX),
            ],
            &[
                (Mode::FastForward, 2_345),
                (Mode::Functional, 4_321),
                (Mode::DetailedMeasured, 2_000),
                (Mode::Functional, u64::MAX),
            ],
        ];
        for schedule in schedules {
            let mut uninterrupted = Machine::new(small_config(), &p);
            let mut results_a = Vec::new();
            for &(mode, ops) in schedule {
                results_a.push(uninterrupted.run(mode, ops));
            }

            // Interrupted twin: snapshot after the first segment, restore
            // onto a fresh machine, run the rest there.
            let mut first = Machine::new(small_config(), &p);
            let mut results_b = vec![first.run(schedule[0].0, schedule[0].1)];
            let snap = first.snapshot();
            drop(first);
            let mut resumed = Machine::new(small_config(), &p);
            resumed.restore(&snap);
            for &(mode, ops) in &schedule[1..] {
                results_b.push(resumed.run(mode, ops));
            }
            assert_eq!(results_a, results_b, "RunResults diverged");
            assert_eq!(
                uninterrupted.snapshot(),
                resumed.snapshot(),
                "final state diverged"
            );
        }
    }

    #[test]
    fn snapshot_preserves_warm_state_and_counters() {
        let p = independent_alu_program(32, 500);
        let mut m = Machine::new(small_config(), &p);
        m.run(Mode::Functional, 4_000);
        let snap = m.snapshot();
        assert_eq!(snap.mode_ops.functional, 4_000);
        assert_eq!(snap.memsys.l1i.misses, m.memsys().l1i().misses());
        assert_eq!(snap.bpred.predictions, m.bpred().predictions());
        // Clobber and restore.
        m.run(Mode::DetailedMeasured, 2_000);
        m.restore(&snap);
        assert_eq!(m.retired(), 4_000);
        assert_eq!(m.memsys().l1i().misses(), snap.memsys.l1i.misses);
        assert_eq!(m.bpred().predictions(), snap.bpred.predictions);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn restoring_mismatched_snapshot_panics() {
        let p = dependent_alu_program(4, 4);
        let m = Machine::new(small_config(), &p);
        let snap = m.snapshot();
        let mut other = Machine::new(
            MachineConfig {
                memory_words: 1 << 10,
                ..MachineConfig::default()
            },
            &p,
        );
        other.restore(&snap);
    }

    #[test]
    fn restore_from_matches_restore_of_a_snapshot() {
        // The target first runs a different schedule, so its timing
        // model, scoreboard and memo hold stale values.
        let p = dependent_alu_program(64, 300);
        let mut src = Machine::new(small_config(), &p);
        src.run(Mode::Functional, 5_000);
        src.run(Mode::DetailedMeasured, 700);
        let mut via_copy = Machine::new(small_config(), &p);
        via_copy.run(Mode::DetailedWarming, 9_000);
        via_copy.restore_from(&src);
        let mut via_snapshot = Machine::new(small_config(), &p);
        via_snapshot.restore(&src.snapshot());
        assert_eq!(via_copy.snapshot(), via_snapshot.snapshot());
        for (mode, ops) in [
            (Mode::DetailedWarming, 1_000),
            (Mode::DetailedMeasured, 2_000),
        ] {
            assert_eq!(via_copy.run(mode, ops), via_snapshot.run(mode, ops));
        }
        assert_eq!(via_copy.snapshot(), via_snapshot.snapshot());
    }

    #[test]
    fn set_mode_ops_recharges_counters() {
        let p = dependent_alu_program(4, 40);
        let mut m = Machine::new(small_config(), &p);
        m.run(Mode::Functional, 100);
        let mut ops = m.mode_ops();
        ops.functional += 900;
        m.set_mode_ops(ops);
        assert_eq!(m.mode_ops().functional, 1_000);
        assert_eq!(m.retired(), 1_000);
    }

    #[test]
    fn r0_is_hardwired_zero() {
        let mut asm = Assembler::new();
        asm.li(Reg::R0, 42);
        asm.addi(Reg::R0, Reg::R0, 7);
        asm.halt();
        let p = asm.finish().unwrap();
        let mut m = Machine::new(small_config(), &p);
        m.run(Mode::Functional, u64::MAX);
        assert_eq!(m.reg(0), 0);
    }

    #[test]
    fn jr_out_of_range_faults_instead_of_panicking() {
        let mut asm = Assembler::new();
        asm.li(Reg::R1, 9_999);
        asm.jr(Reg::R1);
        asm.halt();
        let p = asm.finish().unwrap();
        for mode in [Mode::FastForward, Mode::Functional, Mode::DetailedMeasured] {
            let mut m = Machine::new(small_config(), &p);
            let r = m.run(mode, u64::MAX);
            assert!(m.halted());
            assert_eq!(
                m.fault(),
                Some(MachineFault::IndirectJumpOutOfRange {
                    pc: 1,
                    target: 9_999
                })
            );
            // The faulting jump does not retire: only the li counts.
            assert_eq!(r.ops, 1);
            assert_eq!(m.retired(), 1);
            // The machine stops (halted is how callers observe that), and
            // `fault()` distinguishes the structured abort from a clean Halt.
            assert!(r.halted);
            let msg = m.fault().unwrap().to_string();
            assert!(
                msg.contains("9999"),
                "fault display names the target: {msg}"
            );
        }
    }

    #[test]
    fn restore_clears_fault() {
        let mut asm = Assembler::new();
        asm.li(Reg::R1, 1 << 20);
        asm.jr(Reg::R1);
        asm.halt();
        let p = asm.finish().unwrap();
        let mut m = Machine::new(small_config(), &p);
        let clean = m.snapshot();
        m.run(Mode::Functional, u64::MAX);
        assert!(m.fault().is_some());
        // Faults are derived runtime state, never serialized: the snapshot
        // taken before the fault restores a machine with no fault, and the
        // rerun reproduces it deterministically.
        m.restore(&clean);
        assert_eq!(m.fault(), None);
        assert!(!m.halted());
        m.run(Mode::Functional, u64::MAX);
        assert!(m.fault().is_some());
    }

    #[test]
    fn decoded_program_is_shared_across_machines() {
        let p = dependent_alu_program(16, 50);
        let code = std::sync::Arc::new(pgss_isa::DecodedProgram::decode(&p));
        let mut a = Machine::with_decoded(small_config(), Arc::clone(&code));
        let mut b = Machine::with_decoded(small_config(), Arc::clone(&code));
        assert!(Arc::ptr_eq(a.decoded(), b.decoded()));
        a.run(Mode::Functional, u64::MAX);
        b.run(Mode::Functional, u64::MAX);
        assert_eq!(a.snapshot(), b.snapshot());
    }

    #[test]
    fn memory_addresses_wrap() {
        let mut asm = Assembler::new();
        asm.li(Reg::R1, -1); // wraps to memory_words - 1
        asm.store(Reg::R1, Reg::R1, 0);
        asm.load(Reg::R2, Reg::R1, 0);
        asm.halt();
        let p = asm.finish().unwrap();
        let cfg = small_config();
        let mut m = Machine::new(cfg, &p);
        m.run(Mode::Functional, u64::MAX);
        assert_eq!(m.reg(2), -1);
        assert_eq!(m.memory()[cfg.memory_words - 1], -1);
    }
}
