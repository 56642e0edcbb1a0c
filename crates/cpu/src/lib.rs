//! An execution-driven processor simulator with functional and detailed
//! (cycle-level) modes — the substrate under every sampling technique in the
//! PGSS-Sim reproduction.
//!
//! The machine models the configuration evaluated in the paper: a 4-wide
//! issue, in-order superscalar core attached to a two-level cache hierarchy
//! with a split first level (4-way associative, 64 KB each for data and
//! instructions) and a 1 MB unified level-2 cache, plus a gshare branch
//! predictor with a branch target buffer for indirect jumps.
//!
//! # Simulation modes
//!
//! Sampled simulation interleaves cheap and expensive simulation. The
//! [`Mode`] enum mirrors the paper's taxonomy:
//!
//! * [`Mode::FastForward`] — pure functional execution; *nothing* is warmed.
//! * [`Mode::Functional`] — functional execution that keeps the long-lifetime
//!   structures (caches and branch predictors) warm, as SMARTS and PGSS-Sim
//!   require during fast-forwarding.
//! * [`Mode::DetailedWarming`] — full cycle-level simulation whose statistics
//!   are *discarded*; used for the ~3,000-op pre-sample warm-up of
//!   short-lifetime pipeline state.
//! * [`Mode::DetailedMeasured`] — full cycle-level simulation whose cycles
//!   are reported in the returned [`RunResult`].
//!
//! Retired-instruction counts are tracked per mode in [`ModeOps`], which is
//! how the experiments account for "amount of detailed simulation".
//!
//! # Example
//!
//! ```
//! use pgss_cpu::{Machine, MachineConfig, Mode};
//! use pgss_isa::{Assembler, Cond, Reg};
//!
//! # fn main() -> Result<(), pgss_isa::AsmError> {
//! // A loop that sums memory words 0..1024.
//! let mut asm = Assembler::new();
//! let (sum, i, n, v) = (Reg::R1, Reg::R2, Reg::R3, Reg::R4);
//! asm.li(sum, 0);
//! asm.li(i, 0);
//! asm.li(n, 1024);
//! let top = asm.bind_new_label();
//! asm.load(v, i, 0);
//! asm.add(sum, sum, v);
//! asm.addi(i, i, 1);
//! asm.branch(Cond::Lt, i, n, top);
//! asm.halt();
//! let program = asm.finish()?;
//!
//! let mut machine = Machine::new(MachineConfig::default(), &program);
//! let result = machine.run(Mode::DetailedMeasured, u64::MAX);
//! assert!(result.halted);
//! // The walk is dominated by cold cache misses, so IPC is low but nonzero.
//! assert!(result.ipc() > 0.05);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bpred;
mod cache;
mod config;
mod machine;
mod reference;
mod sink;

pub use bpred::{
    BranchPredictor, BranchPredictorState, BranchPredictorStateMut, BranchPredictorStateRef, Btb,
    BtbState,
};
pub use cache::{Cache, CacheState, CacheStateMut, CacheStateRef, MemSystem, MemSystemState};
pub use config::{BranchPredictorConfig, CacheConfig, LatencyConfig, MachineConfig};
pub use machine::{
    Machine, MachineFault, MachineSnapshot, MachineStateMut, MachineStateRef, Mode, ModeOps,
    RunResult,
};
pub use reference::ReferenceMachine;
pub use sink::{NoopSink, RetireSink};
