//! The workload builder: kernels, segments, phase schedules, and memory
//! images.
//!
//! A workload is a *real program* in the `pgss-isa` instruction set. The
//! builder composes it from **segments** — independently-emitted code
//! regions, each instantiating one [`Kernel`] with its parameters baked in —
//! plus a **schedule**: a table in data memory listing `(segment,
//! iterations)` entries that a small dispatch loop walks at run time. Each
//! segment has its own static basic blocks, so phase structure is visible to
//! basic-block vectors exactly as it would be in compiled code.

use pgss_cpu::{Machine, MachineConfig, ReferenceMachine};
use pgss_isa::{Assembler, Cond, FpuOp, Label, Program, Reg};
use pgss_stats::DetRng;

/// Scratch/data registers reserved by the dispatch loop; kernels may use
/// `R1..=R23` freely.
mod regs {
    use pgss_isa::Reg;

    /// Iteration count handed to the segment by the dispatcher.
    pub const ITERS: Reg = Reg::R26;
    /// Schedule cursor (word address).
    pub const CURSOR: Reg = Reg::R30;
    /// Dispatch scratch.
    pub const SEG: Reg = Reg::R29;
    /// Dispatch scratch (jump-table address).
    pub const JT: Reg = Reg::R24;
}

/// One behavioural kernel; a segment instantiates a kernel with concrete
/// parameters.
///
/// The mapping from kernel parameters to microarchitectural behaviour:
/// working-set sizes against the 64 KB L1 / 1 MB L2 set memory-boundness,
/// `bias` sets branch predictability, chain/compute counts set ILP.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Kernel {
    /// A streaming read-reduce loop over `region_words`, advancing
    /// `stride_words` per iteration and executing `compute_per_load`
    /// dependent ALU ops per load.
    Stream {
        /// Size of the walked region in words.
        region_words: usize,
        /// Words advanced per iteration.
        stride_words: usize,
        /// Dependent ALU operations per load.
        compute_per_load: u32,
    },
    /// `chains` independent pointer chases over a shared ring of
    /// `ring_words` (a random-cycle permutation), with
    /// `compute_per_step` ALU ops of independent work per iteration.
    Chase {
        /// Ring size in words; sets the working set.
        ring_words: usize,
        /// Independent chase chains (memory-level parallelism).
        chains: u32,
        /// Independent ALU operations per iteration.
        compute_per_step: u32,
    },
    /// Integer compute: `chains` independent dependency chains, each
    /// advanced `ops_per_chain` times per iteration.
    ComputeInt {
        /// Independent dependency chains.
        chains: u32,
        /// Ops appended to each chain per iteration.
        ops_per_chain: u32,
    },
    /// Floating-point compute: `chains` chains alternating multiply and
    /// add, `ops_per_chain` each, fed by one L1-resident load per iteration.
    ComputeFp {
        /// Independent dependency chains.
        chains: u32,
        /// Ops appended to each chain per iteration.
        ops_per_chain: u32,
    },
    /// Data-dependent branches: each iteration loads a pseudo-random word
    /// from a cycling `table_words` table and takes a branch when its low
    /// byte is below `bias` (so `bias/256` is the taken probability);
    /// `work_per_side` ALU ops run on each side.
    Branchy {
        /// Entropy table size in words.
        table_words: usize,
        /// Taken probability numerator out of 256. 128 is maximally
        /// unpredictable; 0 or 255 nearly free.
        bias: u8,
        /// ALU ops on each branch side.
        work_per_side: u32,
    },
    /// A streaming write loop over `region_words` with `stride_words`
    /// advance per iteration.
    StoreStream {
        /// Size of the written region in words.
        region_words: usize,
        /// Words advanced per iteration.
        stride_words: usize,
    },
}

/// Identifies a segment added to a [`WorkloadBuilder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SegmentId(usize);

/// The initial contents of data memory: sparse chunks of words.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemoryImage {
    chunks: Vec<(usize, Vec<i64>)>,
    /// One past the highest initialised word.
    high_water: usize,
}

impl MemoryImage {
    /// Adds a chunk at `base`.
    pub fn push(&mut self, base: usize, words: Vec<i64>) {
        self.high_water = self.high_water.max(base + words.len());
        self.chunks.push((base, words));
    }

    /// One past the highest initialised word address.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Hands each chunk to `write` as its base word address and words.
    pub fn apply(&self, mut write: impl FnMut(usize, &[i64])) {
        for (base, words) in &self.chunks {
            write(*base, words);
        }
    }
}

struct Segment {
    /// Exact retired instructions per loop iteration (steady state,
    /// excluding the once-per-invocation preamble).
    ops_per_iter: u64,
    /// Retired instructions per invocation outside the loop (preamble +
    /// return jump).
    overhead_ops: u64,
    entry: Label,
}

/// Builds a [`Workload`](crate::Workload) from segments and a schedule.
///
/// # Example
///
/// ```
/// use pgss_workloads::{Kernel, WorkloadBuilder};
///
/// let mut b = WorkloadBuilder::new("toy", 42);
/// let hot = b.add_segment(Kernel::ComputeInt { chains: 4, ops_per_chain: 2 });
/// let cold = b.add_segment(Kernel::Chase { ring_words: 1 << 14, chains: 1, compute_per_step: 2 });
/// b.run(hot, 50_000);
/// b.run(cold, 50_000);
/// let w = b.finish();
/// let mut machine = w.machine();
/// let r = machine.run(pgss_cpu::Mode::Functional, u64::MAX);
/// assert!(r.halted);
/// // The schedule targets ~100k retired ops; allow 15% planning slack.
/// assert!((r.ops as f64 - 100_000.0).abs() < 15_000.0);
/// ```
pub struct WorkloadBuilder {
    name: String,
    rng: DetRng,
    segments: Vec<Segment>,
    /// `(segment, target_ops)` schedule entries.
    schedule: Vec<(SegmentId, u64)>,
    asm: Assembler,
    /// Bump allocator for data memory, in words.
    alloc_cursor: usize,
    memory: MemoryImage,
    /// Driver entry (initialises the schedule cursor once); the trampoline
    /// at address 0 jumps here. Bound in `finish`.
    driver_init: Label,
    /// Driver loop head (fetch + dispatch next schedule entry); segments
    /// jump back here. Bound in `finish`.
    driver_loop: Label,
    emitted_driver: bool,
    poison_dispatch: bool,
}

/// Words per schedule entry: `[segment, iterations, reserved, reserved]`.
const SCHED_ENTRY_WORDS: usize = 4;

impl WorkloadBuilder {
    /// Creates a builder; `seed` drives all pseudo-random initialisation
    /// (ring permutations, entropy tables), so equal seeds give bit-equal
    /// workloads.
    pub fn new(name: impl Into<String>, seed: u64) -> WorkloadBuilder {
        let mut asm = Assembler::new();
        let driver_init = asm.new_label();
        let driver_loop = asm.new_label();
        // Trampoline: execution starts at address 0, but segment code is
        // emitted before the driver, so the first instruction jumps to it.
        asm.jump(driver_init);
        WorkloadBuilder {
            name: name.into(),
            rng: DetRng::seed_from_u64(seed),
            segments: Vec::new(),
            schedule: Vec::new(),
            asm,
            // Leave a guard region at the bottom of memory.
            alloc_cursor: 64,
            memory: MemoryImage::default(),
            driver_init,
            driver_loop,
            emitted_driver: false,
            poison_dispatch: false,
        }
    }

    /// Corrupts the first schedule entry's segment index so the dispatch
    /// driver's first indirect jump targets an address far outside the
    /// program and the machine faults
    /// ([`pgss_cpu::MachineFault::IndirectJumpOutOfRange`]) instead of
    /// running.
    ///
    /// This exists for fault-path tests: it is the only way to produce a
    /// *workload* (not a hand-assembled program) whose execution aborts,
    /// which is what campaign- and driver-level tests need to prove that
    /// machine faults surface as typed errors end to end.
    pub fn poison_dispatch(&mut self) {
        self.poison_dispatch = true;
    }

    /// Reserves `words` of data memory and returns the base word address.
    fn alloc(&mut self, words: usize) -> usize {
        let base = self.alloc_cursor;
        self.alloc_cursor += words;
        base
    }

    /// Adds a segment instantiating `kernel`, emitting its code and
    /// initialising any memory it needs. Returns the id used by
    /// [`WorkloadBuilder::run`].
    pub fn add_segment(&mut self, kernel: Kernel) -> SegmentId {
        let entry = self.asm.new_label();
        self.asm.bind(entry);
        let (ops_per_iter, overhead_ops) = self.emit_kernel(&kernel);
        let id = SegmentId(self.segments.len());
        self.segments.push(Segment {
            ops_per_iter,
            overhead_ops,
            entry,
        });
        id
    }

    /// Appends a schedule entry running `segment` for approximately
    /// `target_ops` retired instructions.
    ///
    /// # Panics
    ///
    /// Panics if `segment` was not created by this builder.
    pub fn run(&mut self, segment: SegmentId, target_ops: u64) {
        assert!(
            segment.0 < self.segments.len(),
            "unknown segment {segment:?}"
        );
        self.schedule.push((segment, target_ops));
    }

    /// Appends `repeats` rounds of the given `(segment, ops)` pattern —
    /// convenient for periodic phase structure.
    pub fn alternate(&mut self, pattern: &[(SegmentId, u64)], repeats: usize) {
        for _ in 0..repeats {
            for &(seg, ops) in pattern {
                self.run(seg, ops);
            }
        }
    }

    /// The builder's RNG (for benchmark definitions that need extra
    /// deterministic randomness, e.g. irregular phase lengths).
    pub fn rng(&mut self) -> &mut DetRng {
        &mut self.rng
    }

    /// Emits the dispatch driver, resolves the schedule, and produces the
    /// workload.
    ///
    /// # Panics
    ///
    /// Panics if no segments were added or the schedule is empty.
    pub fn finish(mut self) -> crate::Workload {
        assert!(
            !self.segments.is_empty(),
            "workload needs at least one segment"
        );
        assert!(!self.schedule.is_empty(), "workload needs a schedule");
        assert!(!self.emitted_driver, "finish called twice");
        self.emitted_driver = true;

        // Resolve the schedule into a memory table.
        let sched_words = (self.schedule.len() + 1) * SCHED_ENTRY_WORDS;
        let sched_base = self.alloc(sched_words);
        let mut table = Vec::with_capacity(sched_words);
        let mut nominal_ops = 0u64;
        /// Retired instructions per dispatch: the driver loop body (7)
        /// plus the jump-table entry (1), measured from the emitted code
        /// below.
        const DISPATCH_OPS: u64 = 8;
        for &(seg, target_ops) in &self.schedule {
            let s = &self.segments[seg.0];
            let iters = (target_ops / s.ops_per_iter).max(1);
            table.extend_from_slice(&[seg.0 as i64, iters as i64, 0, 0]);
            nominal_ops += iters * s.ops_per_iter + s.overhead_ops + DISPATCH_OPS;
        }
        table.extend_from_slice(&[-1, 0, 0, 0]);
        if self.poison_dispatch {
            // A segment index far past the jump table; must stay positive
            // so the driver's `segment < 0 → done` check doesn't mask it.
            table[0] = 1 << 20;
        }
        self.memory.push(sched_base, table);

        // Driver: initialise the cursor once, then walk the schedule and
        // dispatch through a jump table of direct jumps.
        let asm = &mut self.asm;
        asm.bind(self.driver_init);
        let done = asm.new_label();
        asm.li(regs::CURSOR, sched_base as i64);
        asm.bind(self.driver_loop);
        asm.load(regs::SEG, regs::CURSOR, 0);
        asm.branch(Cond::Lt, regs::SEG, Reg::R0, done);
        asm.load(regs::ITERS, regs::CURSOR, 1);
        asm.addi(regs::CURSOR, regs::CURSOR, SCHED_ENTRY_WORDS as i64);
        let jt = asm.new_label();
        asm.la(regs::JT, jt);
        asm.add(regs::JT, regs::JT, regs::SEG);
        asm.jr(regs::JT);
        asm.bind(jt);
        let entries: Vec<Label> = self.segments.iter().map(|s| s.entry).collect();
        for entry in entries {
            asm.jump(entry);
        }
        asm.bind(done);
        asm.halt();

        let program = self.asm.finish().expect("workload assembly must resolve");
        crate::Workload::from_parts(
            self.name,
            program,
            self.memory,
            nominal_ops,
            self.alloc_cursor,
        )
    }
}

impl WorkloadBuilder {
    /// Emits the code for `kernel` at the current address. Returns
    /// `(ops_per_iter, overhead_ops)`.
    fn emit_kernel(&mut self, kernel: &Kernel) -> (u64, u64) {
        match *kernel {
            Kernel::Stream {
                region_words,
                stride_words,
                compute_per_load,
            } => self.emit_stream(region_words, stride_words, compute_per_load, false),
            Kernel::StoreStream {
                region_words,
                stride_words,
            } => self.emit_stream(region_words, stride_words, 0, true),
            Kernel::Chase {
                ring_words,
                chains,
                compute_per_step,
            } => self.emit_chase(ring_words, chains, compute_per_step),
            Kernel::ComputeInt {
                chains,
                ops_per_chain,
            } => self.emit_compute_int(chains, ops_per_chain),
            Kernel::ComputeFp {
                chains,
                ops_per_chain,
            } => self.emit_compute_fp(chains, ops_per_chain),
            Kernel::Branchy {
                table_words,
                bias,
                work_per_side,
            } => self.emit_branchy(table_words, bias, work_per_side),
        }
    }

    fn segment_return(&mut self) {
        let driver = self.driver_loop;
        self.asm.jump(driver);
    }

    fn emit_stream(
        &mut self,
        region_words: usize,
        stride_words: usize,
        compute: u32,
        store: bool,
    ) -> (u64, u64) {
        assert!(
            region_words > 0 && stride_words > 0,
            "stream kernel needs a non-empty region"
        );
        // Unroll factor: 8 independent loads issue before the first value is
        // consumed, exposing memory-level parallelism the way a scheduling
        // compiler (the paper's IMPACT) unrolls streaming loops. One
        // schedule "iteration" covers all 8 accesses.
        const U: usize = 8;
        assert!(
            region_words > U * stride_words,
            "stream region must exceed one unrolled group ({} words)",
            U * stride_words
        );
        let base = self.alloc(region_words);
        // Region contents: small integers (values are immaterial).
        self.memory.push(base, vec![1; region_words]);
        let asm = &mut self.asm;
        let (ptr, limit, acc, work) = (Reg::R1, Reg::R2, Reg::R3, Reg::R4);
        let counter = Reg::R5;
        let lanes = [
            Reg::R8,
            Reg::R9,
            Reg::R10,
            Reg::R11,
            Reg::R12,
            Reg::R13,
            Reg::R14,
            Reg::R15,
        ];
        // Preamble: 4 ops (+1 for the return jump).
        asm.li(ptr, base as i64);
        // The wrap limit keeps every lane of the final group inside the
        // region: max access is ptr + (U-1)*stride.
        asm.li(limit, (base + region_words - (U - 1) * stride_words) as i64);
        asm.li(acc, 0);
        asm.mov(counter, regs::ITERS);
        let top = asm.bind_new_label();
        if store {
            for (u, _) in lanes.iter().enumerate() {
                asm.store(acc, ptr, (u * stride_words) as i64);
            }
        } else {
            for (u, lane) in lanes.iter().enumerate() {
                asm.load(*lane, ptr, (u * stride_words) as i64);
            }
            for lane in lanes {
                asm.add(acc, acc, lane);
            }
        }
        for k in 0..compute * U as u32 {
            // Load-independent compute overlapping the next group's misses
            // (`compute` ops per load, U loads per group).
            asm.alui(pgss_isa::AluOp::Add, work, work, i64::from(k % 7) + 1);
        }
        asm.addi(ptr, ptr, (U * stride_words) as i64);
        let no_wrap = asm.new_label();
        // The region is walked in whole groups; allocate regions as
        // multiples of the group span so the wrap test is exact.
        asm.branch(Cond::Lt, ptr, limit, no_wrap);
        asm.li(ptr, base as i64);
        asm.bind(no_wrap);
        asm.addi(counter, counter, -1);
        asm.branch(Cond::Ne, counter, Reg::R0, top);
        self.segment_return();
        let body = if store { U as u64 } else { 2 * U as u64 };
        // Steady state: body + compute + ptr advance + wrap test + counter
        // decrement + back branch. The wrap reset (`li`) executes on a small
        // minority of iterations and is excluded.
        let ops = body + u64::from(compute) * U as u64 + 4;
        (ops, 5)
    }

    fn emit_chase(&mut self, ring_words: usize, chains: u32, compute: u32) -> (u64, u64) {
        assert!(ring_words >= 2, "chase ring needs at least two nodes");
        let chains = chains.clamp(1, 4) as usize;
        let base = self.alloc(ring_words);
        // A single random cycle through all nodes, stored as absolute word
        // addresses.
        let mut order: Vec<usize> = (0..ring_words).collect();
        self.rng.shuffle(&mut order);
        let mut ring = vec![0i64; ring_words];
        for i in 0..ring_words {
            let from = order[i];
            let to = order[(i + 1) % ring_words];
            ring[from] = (base + to) as i64;
        }
        let starts: Vec<usize> = (0..chains)
            .map(|c| base + order[c * ring_words / chains])
            .collect();
        self.memory.push(base, ring);

        let asm = &mut self.asm;
        let chain_regs = [Reg::R1, Reg::R2, Reg::R3, Reg::R4];
        let (acc, counter) = (Reg::R5, Reg::R6);
        for (c, &start) in starts.iter().enumerate() {
            asm.li(chain_regs[c], start as i64);
        }
        asm.mov(counter, regs::ITERS);
        let top = asm.bind_new_label();
        for reg in chain_regs.iter().take(chains) {
            asm.load(*reg, *reg, 0);
        }
        for k in 0..compute {
            // Independent work overlapping the chase latency.
            asm.alui(pgss_isa::AluOp::Add, acc, acc, i64::from(k) + 1);
        }
        asm.addi(counter, counter, -1);
        asm.branch(Cond::Ne, counter, Reg::R0, top);
        self.segment_return();
        let ops = chains as u64 + u64::from(compute) + 2;
        (ops, chains as u64 + 2)
    }

    fn emit_compute_int(&mut self, chains: u32, ops_per_chain: u32) -> (u64, u64) {
        let chains = chains.clamp(1, 16) as usize;
        let asm = &mut self.asm;
        let counter = Reg::R20;
        asm.mov(counter, regs::ITERS);
        let top = asm.bind_new_label();
        for round in 0..ops_per_chain {
            for c in 0..chains {
                let r = Reg::from_index(1 + c).expect("chain register");
                asm.alui(pgss_isa::AluOp::Add, r, r, i64::from(round) + 1);
            }
        }
        asm.addi(counter, counter, -1);
        asm.branch(Cond::Ne, counter, Reg::R0, top);
        self.segment_return();
        (u64::from(ops_per_chain) * chains as u64 + 2, 2)
    }

    fn emit_compute_fp(&mut self, chains: u32, ops_per_chain: u32) -> (u64, u64) {
        let chains = chains.clamp(1, 14) as usize;
        // Constant pool: multiplier just above 1 and its reciprocal, so the
        // chains neither collapse to zero nor overflow.
        let pool = self.alloc(2);
        self.memory.push(
            pool,
            vec![
                1.000_000_1f64.to_bits() as i64,
                (1.0 / 1.000_000_1f64).to_bits() as i64,
            ],
        );
        let asm = &mut self.asm;
        let counter = Reg::R20;
        let addr = Reg::R21;
        let (up, down) = (Reg::R30, Reg::R31); // fp-file indices via Fpu ops
        asm.li(addr, pool as i64);
        asm.fload(up, addr, 0);
        asm.fload(down, addr, 1);
        asm.mov(counter, regs::ITERS);
        let top = asm.bind_new_label();
        for round in 0..ops_per_chain {
            // Alternate ×c and ×(1/c) so chain values stay near 1.0 forever.
            let factor = if round % 2 == 0 { up } else { down };
            for c in 0..chains {
                let r = Reg::from_index(1 + c).expect("chain register");
                asm.fpu(FpuOp::Mul, r, r, factor);
            }
        }
        asm.addi(counter, counter, -1);
        asm.branch(Cond::Ne, counter, Reg::R0, top);
        self.segment_return();
        (u64::from(ops_per_chain) * chains as u64 + 2, 5)
    }

    fn emit_branchy(&mut self, table_words: usize, bias: u8, work: u32) -> (u64, u64) {
        assert!(table_words > 0, "branchy kernel needs an entropy table");
        let base = self.alloc(table_words);
        let table: Vec<i64> = (0..table_words)
            .map(|_| self.rng.next_i64() & 0x7FFF_FFFF)
            .collect();
        self.memory.push(base, table);
        let asm = &mut self.asm;
        let (ptr, limit, v, low, acc, counter) =
            (Reg::R1, Reg::R2, Reg::R3, Reg::R4, Reg::R5, Reg::R6);
        let threshold = Reg::R7;
        asm.li(ptr, base as i64);
        asm.li(limit, (base + table_words) as i64);
        asm.li(threshold, i64::from(bias));
        asm.mov(counter, regs::ITERS);
        let top = asm.bind_new_label();
        asm.load(v, ptr, 0);
        asm.addi(ptr, ptr, 1);
        let no_wrap = asm.new_label();
        asm.branch(Cond::Lt, ptr, limit, no_wrap);
        asm.li(ptr, base as i64);
        asm.bind(no_wrap);
        asm.andi(low, v, 255);
        let taken_side = asm.new_label();
        let join = asm.new_label();
        asm.branch(Cond::Lt, low, threshold, taken_side);
        for k in 0..work {
            asm.alui(pgss_isa::AluOp::Add, acc, acc, i64::from(k) + 1);
        }
        asm.jump(join);
        asm.bind(taken_side);
        for k in 0..work {
            asm.alui(pgss_isa::AluOp::Xor, acc, acc, i64::from(k) + 3);
        }
        asm.bind(join);
        asm.addi(counter, counter, -1);
        asm.branch(Cond::Ne, counter, Reg::R0, top);
        self.segment_return();
        // Steady state (taken path, no wrap): load, advance, wrap test,
        // mask, cond branch, work, counter, back branch; the not-taken path
        // additionally executes the join jump.
        let ops = 7 + u64::from(work);
        (ops, 5)
    }
}

/// Builds the machine for a finished workload (helper for
/// [`crate::Workload`]).
pub(crate) fn machine_for(
    program: &Program,
    memory: &MemoryImage,
    required_words: usize,
    config: MachineConfig,
) -> Machine {
    let mut machine = Machine::new(grown(config, required_words), program);
    memory.apply(|base, words| machine.write_memory(base, words));
    machine
}

/// Builds the reference-interpreter twin of [`machine_for`]: same grown
/// configuration, same initial memory image, so the two cores execute
/// identical programs over identical state.
pub(crate) fn reference_machine_for(
    program: &Program,
    memory: &MemoryImage,
    required_words: usize,
    config: MachineConfig,
) -> ReferenceMachine {
    let mut machine = ReferenceMachine::new(grown(config, required_words), program);
    let mem = machine.memory_mut();
    memory.apply(|base, words| mem[base..base + words.len()].copy_from_slice(words));
    machine
}

fn grown(mut config: MachineConfig, required_words: usize) -> MachineConfig {
    let needed = required_words.next_power_of_two();
    if config.memory_words < needed {
        config.memory_words = needed;
    }
    config
}
