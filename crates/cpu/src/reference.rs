//! The retained reference interpreter: the original per-op execution
//! loop, kept verbatim as the bit-exactness oracle for the decoded core.
//!
//! [`crate::Machine`] executes a pre-decoded micro-op array with
//! superblock dispatch; [`ReferenceMachine`] executes the same programs
//! by pattern-matching [`pgss_isa::Instr`] on every retired op, exactly
//! as the pre-refactor core did. The two must agree bit-for-bit on every
//! observable — architectural state, retired counters, cycles, retire
//! and taken-branch event streams, snapshots — which the workspace's
//! differential test asserts on randomized programs, and which the
//! `perf` benchmark bin exploits to measure the decoded core's speedup
//! against the genuine baseline *in the same run*.
//!
//! The reference core shares every model type with the fast core
//! ([`Mode`], [`ModeOps`], [`RunResult`], [`MachineSnapshot`],
//! [`MachineFault`], caches, predictors), so snapshots interchange
//! freely between the two.

use pgss_isa::{Instr, Program};

use crate::bpred::{BranchPredictor, Btb};
use crate::cache::MemSystem;
use crate::config::MachineConfig;
use crate::machine::{MachineFault, MachineSnapshot, Mode, ModeOps, RunResult, INSTR_BYTES};
use crate::sink::{NoopSink, RetireSink};

/// The original per-op interpreter and timing model, retained as an
/// oracle for the decoded superblock core in [`crate::Machine`].
pub struct ReferenceMachine {
    config: MachineConfig,
    instrs: Box<[Instr]>,
    pc: u32,
    regs: [i64; 32],
    fregs: [f64; 32],
    mem: Vec<i64>,
    addr_mask: u64,
    memsys: MemSystem,
    bpred: BranchPredictor,
    btb: Btb,
    halted: bool,
    mode_ops: ModeOps,
    ops_since_taken: u64,
    fault: Option<MachineFault>,

    // ---- timing model state (identical to the decoded core's) ----
    now: u64,
    slots: u32,
    reg_ready: [u64; 64],
    fetch_ready: u64,
    last_fetch_line: u64,
    timing_valid: bool,
    line_shift: u32,
    mshr: Vec<u64>,
}

impl ReferenceMachine {
    /// Creates a reference machine executing `program` from address 0,
    /// with zeroed registers and memory and cold caches/predictors.
    ///
    /// # Panics
    ///
    /// Panics if `config.memory_words` is zero or not a power of two.
    pub fn new(config: MachineConfig, program: &Program) -> ReferenceMachine {
        assert!(
            config.memory_words.is_power_of_two(),
            "memory_words must be a power of two, got {}",
            config.memory_words
        );
        ReferenceMachine {
            instrs: program.instrs().to_vec().into_boxed_slice(),
            pc: 0,
            regs: [0; 32],
            fregs: [0.0; 32],
            mem: vec![0; config.memory_words],
            addr_mask: config.memory_words as u64 - 1,
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
            line_shift: config.l1i.line_bytes.trailing_zeros(),
            mshr: vec![0; config.mshrs.max(1) as usize],
            config,
        }
    }

    /// Current program counter.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// `true` once the program has executed [`pgss_isa::Instr::Halt`] or
    /// the machine has faulted.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// The structured halt reason, if execution stopped on a fault.
    pub fn fault(&self) -> Option<MachineFault> {
        self.fault
    }

    /// Total retired instructions across all modes.
    pub fn retired(&self) -> u64 {
        self.mode_ops.total()
    }

    /// Per-mode retired-instruction counters.
    pub fn mode_ops(&self) -> ModeOps {
        self.mode_ops
    }

    /// Current cycle of the timing model.
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

    /// Mutable access to data memory, for pre-run workload initialization.
    pub fn memory_mut(&mut self) -> &mut [i64] {
        &mut self.mem
    }

    /// Captures a [`MachineSnapshot`], interchangeable with the decoded
    /// core's.
    pub fn snapshot(&self) -> MachineSnapshot {
        MachineSnapshot {
            pc: self.pc,
            regs: self.regs,
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

    /// Restores state captured by [`ReferenceMachine::snapshot`] or
    /// [`crate::Machine::snapshot`], leaving the timing model stale and
    /// clearing any fault.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's shapes do not match this configuration.
    pub fn restore(&mut self, snapshot: &MachineSnapshot) {
        assert_eq!(
            snapshot.mem.len(),
            self.mem.len(),
            "snapshot memory image does not match this machine's configuration"
        );
        self.pc = snapshot.pc;
        self.regs = snapshot.regs;
        self.fregs = snapshot.fregs;
        self.mem.clone_from(&snapshot.mem);
        self.halted = snapshot.halted;
        self.mode_ops = snapshot.mode_ops;
        self.ops_since_taken = snapshot.ops_since_taken;
        self.memsys.load_state(&snapshot.memsys);
        self.bpred.load_state(&snapshot.bpred);
        self.btb.load_state(&snapshot.btb);
        self.last_fetch_line = u64::MAX;
        self.timing_valid = false;
        self.fault = None;
    }

    /// Overrides the per-mode retired counters (see
    /// [`crate::Machine::set_mode_ops`]).
    pub fn set_mode_ops(&mut self, mode_ops: ModeOps) {
        self.mode_ops = mode_ops;
    }

    /// Runs up to `max_ops` instructions in `mode` with no event sink.
    pub fn run(&mut self, mode: Mode, max_ops: u64) -> RunResult {
        self.run_with(mode, max_ops, &mut NoopSink)
    }

    /// Runs up to `max_ops` instructions in `mode`, delivering retirement
    /// events to `sink`. Identical contract to
    /// [`crate::Machine::run_with`].
    pub fn run_with<S: RetireSink>(&mut self, mode: Mode, max_ops: u64, sink: &mut S) -> RunResult {
        if self.halted || max_ops == 0 {
            return RunResult {
                ops: 0,
                cycles: 0,
                halted: self.halted,
            };
        }
        let (ops, cycles) = match mode {
            Mode::FastForward => {
                self.timing_valid = false;
                (self.run_loop::<false, false, S>(max_ops, sink), 0)
            }
            Mode::Functional => {
                self.timing_valid = false;
                (self.run_loop::<false, true, S>(max_ops, sink), 0)
            }
            Mode::DetailedWarming | Mode::DetailedMeasured => {
                if !self.timing_valid {
                    self.reg_ready = [self.now; 64];
                    self.fetch_ready = self.now;
                    self.slots = 0;
                    self.last_fetch_line = u64::MAX;
                    self.mshr.fill(self.now);
                    self.timing_valid = true;
                }
                let start = self.now;
                let ops = self.run_loop::<true, true, S>(max_ops, sink);
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

    /// The original per-op interpreter/timing loop, monomorphized per
    /// mode class — byte-for-byte the pre-refactor hot loop, except that
    /// an out-of-range indirect jump now faults (see [`MachineFault`])
    /// instead of panicking, matching the decoded core.
    fn run_loop<const DETAILED: bool, const WARM: bool, S: RetireSink>(
        &mut self,
        max_ops: u64,
        sink: &mut S,
    ) -> u64 {
        let lat = self.config.lat;
        let mut ops = 0u64;
        while ops < max_ops {
            let pc = self.pc;
            let instr = self.instrs[pc as usize];

            // Instruction fetch: touch the I-cache hierarchy once per line
            // transition (exact for LRU state, cheap for straight-line code).
            if WARM {
                let line = (u64::from(pc) * INSTR_BYTES) >> self.line_shift;
                if line != self.last_fetch_line {
                    self.last_fetch_line = line;
                    if DETAILED {
                        let fl = self.memsys.fetch_latency(u64::from(pc) * INSTR_BYTES);
                        if fl > 0 {
                            self.fetch_ready = self.fetch_ready.max(self.now) + u64::from(fl);
                        }
                    } else {
                        self.memsys.warm_fetch(u64::from(pc) * INSTR_BYTES);
                    }
                }
            }

            let mut next_pc = pc + 1;
            let mut taken = false;
            match instr {
                Instr::Alu { op, rd, rs, rt } => {
                    let a = self.regs[rs.index()];
                    let b = self.regs[rt.index()];
                    self.write_reg(rd.index(), op.apply(a, b));
                    if DETAILED {
                        let ready = self.reg_ready[rs.index()].max(self.reg_ready[rt.index()]);
                        let t = self.issue_at(ready);
                        self.reg_ready[rd.index()] = t + u64::from(alu_latency(op, lat));
                    }
                }
                Instr::AluImm { op, rd, rs, imm } => {
                    let a = self.regs[rs.index()];
                    self.write_reg(rd.index(), op.apply(a, imm));
                    if DETAILED {
                        let t = self.issue_at(self.reg_ready[rs.index()]);
                        self.reg_ready[rd.index()] = t + u64::from(alu_latency(op, lat));
                    }
                }
                Instr::Li { rd, imm } => {
                    self.write_reg(rd.index(), imm);
                    if DETAILED {
                        let t = self.issue_at(0);
                        self.reg_ready[rd.index()] = t + u64::from(lat.alu);
                    }
                }
                Instr::Fpu { op, fd, fs, ft } => {
                    let a = self.fregs[fs.index()];
                    let b = self.fregs[ft.index()];
                    self.fregs[fd.index()] = op.apply(a, b);
                    if DETAILED {
                        let ready =
                            self.reg_ready[32 + fs.index()].max(self.reg_ready[32 + ft.index()]);
                        let t = self.issue_at(ready);
                        self.reg_ready[32 + fd.index()] = t + u64::from(fpu_latency(op, lat));
                    }
                }
                Instr::Load { rd, base, offset } => {
                    let addr = self.effective(base.index(), offset);
                    sink.data_access(addr);
                    let value = self.mem[addr as usize];
                    self.write_reg(rd.index(), value);
                    if DETAILED {
                        let l = self.memsys.load_latency(addr * 8);
                        let done = self.issue_mem(self.reg_ready[base.index()], l, l > lat.l1_hit);
                        self.reg_ready[rd.index()] = done;
                    } else if WARM {
                        self.memsys.warm_data(addr * 8);
                    }
                }
                Instr::Store { rs, base, offset } => {
                    let addr = self.effective(base.index(), offset);
                    sink.data_access(addr);
                    self.mem[addr as usize] = self.regs[rs.index()];
                    if DETAILED {
                        let ready = self.reg_ready[rs.index()].max(self.reg_ready[base.index()]);
                        let l = self.memsys.store_latency(addr * 8);
                        let _ = self.issue_mem(ready, 0, l > 0);
                    } else if WARM {
                        self.memsys.warm_data(addr * 8);
                    }
                }
                Instr::FLoad { fd, base, offset } => {
                    let addr = self.effective(base.index(), offset);
                    sink.data_access(addr);
                    self.fregs[fd.index()] = f64::from_bits(self.mem[addr as usize] as u64);
                    if DETAILED {
                        let l = self.memsys.load_latency(addr * 8);
                        let done = self.issue_mem(self.reg_ready[base.index()], l, l > lat.l1_hit);
                        self.reg_ready[32 + fd.index()] = done;
                    } else if WARM {
                        self.memsys.warm_data(addr * 8);
                    }
                }
                Instr::FStore { fs, base, offset } => {
                    let addr = self.effective(base.index(), offset);
                    sink.data_access(addr);
                    self.mem[addr as usize] = self.fregs[fs.index()].to_bits() as i64;
                    if DETAILED {
                        let ready =
                            self.reg_ready[32 + fs.index()].max(self.reg_ready[base.index()]);
                        let l = self.memsys.store_latency(addr * 8);
                        let _ = self.issue_mem(ready, 0, l > 0);
                    } else if WARM {
                        self.memsys.warm_data(addr * 8);
                    }
                }
                Instr::Branch {
                    cond,
                    rs,
                    rt,
                    target,
                } => {
                    let a = self.regs[rs.index()];
                    let b = self.regs[rt.index()];
                    taken = cond.eval(a, b);
                    if taken {
                        next_pc = target;
                    }
                    if DETAILED {
                        let ready = self.reg_ready[rs.index()].max(self.reg_ready[rt.index()]);
                        let t = self.issue_at(ready);
                        let correct = self.bpred.predict_and_update(pc, taken);
                        if !correct {
                            self.fetch_ready = t + u64::from(lat.mispredict);
                        }
                    } else if WARM {
                        self.bpred.predict_and_update(pc, taken);
                    }
                }
                Instr::Jump { target } => {
                    next_pc = target;
                    taken = true;
                    if DETAILED {
                        let _ = self.issue_at(0);
                    }
                }
                Instr::Jal { target, link } => {
                    self.write_reg(link.index(), i64::from(pc) + 1);
                    next_pc = target;
                    taken = true;
                    if DETAILED {
                        let t = self.issue_at(0);
                        self.reg_ready[link.index()] = t + u64::from(lat.alu);
                    }
                }
                Instr::Jr { rs } => {
                    let target = self.regs[rs.index()] as u32;
                    if target as usize >= self.instrs.len() {
                        self.fault = Some(MachineFault::IndirectJumpOutOfRange { pc, target });
                        self.halted = true;
                        break;
                    }
                    next_pc = target;
                    taken = true;
                    if DETAILED {
                        let t = self.issue_at(self.reg_ready[rs.index()]);
                        let correct = self.btb.predict_and_update(pc, target);
                        if !correct {
                            self.fetch_ready = t + u64::from(lat.mispredict);
                        }
                    } else if WARM {
                        self.btb.predict_and_update(pc, target);
                    }
                }
                Instr::Halt => {
                    self.halted = true;
                    if DETAILED {
                        let _ = self.issue_at(0);
                    }
                    ops += 1;
                    self.ops_since_taken += 1;
                    sink.retire(pc);
                    break;
                }
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

    #[inline(always)]
    fn effective(&self, base: usize, offset: i64) -> u64 {
        (self.regs[base].wrapping_add(offset)) as u64 & self.addr_mask
    }

    #[inline(always)]
    fn write_reg(&mut self, index: usize, value: i64) {
        // r0 is hardwired to zero.
        if index != 0 {
            self.regs[index] = value;
        }
    }
}

impl std::fmt::Debug for ReferenceMachine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReferenceMachine")
            .field("pc", &self.pc)
            .field("halted", &self.halted)
            .field("retired", &self.mode_ops.total())
            .field("cycle", &self.now)
            .finish_non_exhaustive()
    }
}

#[inline(always)]
fn alu_latency(op: pgss_isa::AluOp, lat: crate::config::LatencyConfig) -> u32 {
    use pgss_isa::AluOp;
    match op {
        AluOp::Mul => lat.mul,
        AluOp::Div | AluOp::Rem => lat.div,
        _ => lat.alu,
    }
}

#[inline(always)]
fn fpu_latency(op: pgss_isa::FpuOp, lat: crate::config::LatencyConfig) -> u32 {
    use pgss_isa::FpuOp;
    match op {
        FpuOp::Add | FpuOp::Sub => lat.fp_add,
        FpuOp::Mul => lat.fp_mul,
        FpuOp::Div => lat.fp_div,
    }
}
