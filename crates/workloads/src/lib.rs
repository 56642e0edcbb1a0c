//! Synthetic SPEC2000-like benchmarks for the PGSS-Sim reproduction.
//!
//! The paper evaluates on ten SPEC2000 benchmarks (first reference inputs)
//! compiled with the IMPACT toolchain — a substrate that cannot be
//! redistributed or re-run here. This crate substitutes eleven synthetic
//! workloads, each a *real program* in the `pgss-isa` instruction set,
//! engineered to match the behavioural sketch the paper gives for its
//! counterpart:
//!
//! | Workload | Behavioural contract (from the paper) |
//! |---|---|
//! | `164.gzip` | fine-grained IPC oscillation that averages out at coarse sampling periods (Fig. 2); compress/huffman/window phase alternation |
//! | `177.mesa` | stable, high-IPC floating-point compute; long phases |
//! | `179.art` | very low IPC; high-frequency micro-phases of ~40–50k ops |
//! | `181.mcf` | very low IPC pointer chasing; ~40–50k-op micro-phases |
//! | `183.equake` | moderate-IPC FP streaming with periodic phase alternation |
//! | `188.ammp` | memory-bound FP; long stable phases |
//! | `197.parser` | branchy integer code; irregular phase lengths |
//! | `253.perlbmk` | many distinct phases (interpreter-like dispatch) |
//! | `256.bzip2` | block-structured phase alternation with fine-grained detail |
//! | `300.twolf` | tiny overall IPC stddev; weak coarse phases; rare short spikes |
//! | `168.wupwise` | long repetitive alternation → polymodal IPC distribution (Fig. 3) |
//!
//! Phase structure, cache behaviour, and branch behaviour are *emergent*
//! from executing the generated code over generated data (ring permutations,
//! entropy tables), not scripted: a basic-block-vector tracker watching the
//! run sees real branch addresses, and the cache hierarchy sees real address
//! streams.
//!
//! # Example
//!
//! ```
//! use pgss_cpu::Mode;
//!
//! // Tiny scale for the doctest; experiments use scale ≥ 0.25.
//! let workload = pgss_workloads::gzip(0.002);
//! let mut machine = workload.machine();
//! let result = machine.run(Mode::DetailedMeasured, u64::MAX);
//! assert!(result.halted);
//! assert!(result.ipc() > 0.1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod benchmarks;
mod builder;

pub use benchmarks::{
    ammp, art, by_name, bzip2, equake, gzip, mcf, mesa, parser, perlbmk, suite, twolf, wupwise,
    SUITE_NAMES,
};
pub use builder::{Kernel, MemoryImage, SegmentId, WorkloadBuilder};

use pgss_cpu::{Machine, MachineConfig, ReferenceMachine};
use pgss_isa::Program;

/// A generated benchmark: program, initial memory image, and metadata.
///
/// Construct workloads with [`WorkloadBuilder`] or the named benchmark
/// functions ([`gzip`], [`art`], …).
#[derive(Debug)]
pub struct Workload {
    name: String,
    program: Program,
    memory: MemoryImage,
    nominal_ops: u64,
    required_words: usize,
}

impl Workload {
    pub(crate) fn from_parts(
        name: String,
        program: Program,
        memory: MemoryImage,
        nominal_ops: u64,
        required_words: usize,
    ) -> Workload {
        Workload {
            name,
            program,
            memory,
            nominal_ops,
            required_words,
        }
    }

    /// The workload's name (e.g. `"164.gzip"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The generated program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The initial memory image.
    pub fn memory(&self) -> &MemoryImage {
        &self.memory
    }

    /// Planned retired-instruction count (the scheduler's target; actual
    /// executions land within a few percent).
    pub fn nominal_ops(&self) -> u64 {
        self.nominal_ops
    }

    /// Minimum data-memory size in words the workload needs.
    pub fn required_memory_words(&self) -> usize {
        self.required_words.next_power_of_two()
    }

    /// Builds a machine with the paper's default configuration (memory
    /// grown to fit) and the initial memory image applied.
    pub fn machine(&self) -> Machine {
        self.machine_with(MachineConfig::default())
    }

    /// Builds a machine with a custom configuration; `memory_words` is
    /// grown to fit the workload if needed.
    pub fn machine_with(&self, config: MachineConfig) -> Machine {
        builder::machine_for(&self.program, &self.memory, self.required_words, config)
    }

    /// Builds the reference-interpreter twin of [`Workload::machine_with`]:
    /// same grown configuration and the same initial memory image, so the
    /// two cores execute the identical workload from op 0 (the contract
    /// the differential tests and the `perf` harness rely on).
    pub fn reference_machine_with(&self, config: MachineConfig) -> ReferenceMachine {
        builder::reference_machine_for(&self.program, &self.memory, self.required_words, config)
    }
}

/// Largest workload scale accepted anywhere: [`scale_from_env`] clamps
/// to it, and campaign submissions above it are rejected. Generators
/// loop once per repetition, so an unbounded scale is an unbounded
/// allocation.
pub const MAX_SCALE: f64 = 100.0;

/// Reads the global scale factor from the `PGSS_SCALE` environment variable
/// (default `1.0`, clamped to `[0.001, MAX_SCALE]`).
///
/// All benchmark lengths are multiplied by this factor; the experiment
/// harnesses use it to trade fidelity for wall-clock time.
pub fn scale_from_env() -> f64 {
    std::env::var("PGSS_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|v| v.is_finite())
        .map(|v| v.clamp(0.001, MAX_SCALE))
        .unwrap_or(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgss_cpu::Mode;

    #[test]
    fn workload_runs_to_halt_near_nominal_length() {
        let w = gzip(0.005);
        let mut m = w.machine();
        let r = m.run(Mode::Functional, u64::MAX);
        assert!(r.halted);
        let rel = (r.ops as f64 - w.nominal_ops() as f64).abs() / w.nominal_ops() as f64;
        assert!(
            rel < 0.1,
            "actual ops {} vs nominal {} (rel err {rel:.3})",
            r.ops,
            w.nominal_ops()
        );
    }

    #[test]
    fn scale_scales_length() {
        // Scales are chosen so the repetition counts round to 1 and 2.
        let small = gzip(0.1);
        let large = gzip(0.2);
        let ratio = large.nominal_ops() as f64 / small.nominal_ops() as f64;
        assert!((ratio - 2.0).abs() < 0.3, "ratio {ratio}");
    }

    #[test]
    fn machine_memory_grows_to_fit() {
        let w = art(0.004); // art has a large chase ring
        let m = w.machine();
        assert!(m.memory().len() >= w.required_memory_words());
    }

    #[test]
    fn poisoned_dispatch_faults_instead_of_running() {
        let mut b = WorkloadBuilder::new("poisoned", 7);
        let seg = b.add_segment(Kernel::ComputeInt {
            chains: 2,
            ops_per_chain: 4,
        });
        b.run(seg, 10_000);
        b.poison_dispatch();
        let w = b.finish();
        let mut m = w.machine();
        let r = m.run(Mode::Functional, u64::MAX);
        assert!(r.halted);
        assert!(
            matches!(
                m.fault(),
                Some(pgss_cpu::MachineFault::IndirectJumpOutOfRange { .. })
            ),
            "expected an out-of-range indirect jump, got {:?}",
            m.fault()
        );
    }

    #[test]
    fn deterministic_generation() {
        let a = parser(0.004);
        let b = parser(0.004);
        assert_eq!(a.program().instrs(), b.program().instrs());
        assert_eq!(a.memory(), b.memory());
    }
}
