//! Property tests for the ISA crate, over seeded [`DetRng`] programs so a
//! failure reproduces from its case number alone.

use pgss_isa::{AluOp, Cond, Instr, Program, Reg};
use pgss_stats::DetRng;

/// Random programs (or operand pairs) per property.
const CASES: usize = 256;

fn random_reg(rng: &mut DetRng) -> Reg {
    Reg::from_index(rng.range_usize(32)).expect("32 architectural registers")
}

/// A random instruction with control-flow targets inside `0..len`,
/// weighted 4:2:2:2:2:1 over ALU, load-immediate, load, store, branch
/// and jump.
fn random_instr(rng: &mut DetRng, len: u32) -> Instr {
    let target = |rng: &mut DetRng| rng.range_u64(u64::from(len)) as u32;
    let offset = |rng: &mut DetRng| rng.range_u64(32) as i64 - 16;
    match rng.range_u64(13) {
        0..=3 => Instr::Alu {
            op: AluOp::Add,
            rd: random_reg(rng),
            rs: random_reg(rng),
            rt: random_reg(rng),
        },
        4..=5 => Instr::Li {
            rd: random_reg(rng),
            imm: rng.next_i64(),
        },
        6..=7 => Instr::Load {
            rd: random_reg(rng),
            base: random_reg(rng),
            offset: offset(rng),
        },
        8..=9 => Instr::Store {
            rs: random_reg(rng),
            base: random_reg(rng),
            offset: offset(rng),
        },
        10..=11 => Instr::Branch {
            cond: Cond::Ne,
            rs: random_reg(rng),
            rt: random_reg(rng),
            target: target(rng),
        },
        _ => Instr::Jump {
            target: target(rng),
        },
    }
}

/// A random program: 1–63 random instructions plus a final `Halt`.
fn random_program(rng: &mut DetRng) -> Program {
    let n = 1 + rng.range_usize(63);
    let mut instrs: Vec<Instr> = (0..n).map(|_| random_instr(rng, n as u32 + 1)).collect();
    instrs.push(Instr::Halt);
    Program::new(instrs)
}

/// `CASES` random programs from `seed`, numbered for failure messages.
fn programs(seed: u64) -> impl Iterator<Item = (usize, Program)> {
    let mut rng = DetRng::seed_from_u64(seed);
    (0..CASES).map(move |case| (case, random_program(&mut rng)))
}

/// Basic blocks tile the program: contiguous, non-empty, in order.
#[test]
fn blocks_partition_program() {
    for (case, p) in programs(0x15a_0001) {
        let mut covered = 0u32;
        for b in p.blocks() {
            assert_eq!(b.start, covered, "case {case}");
            assert!(b.end > b.start, "case {case}");
            covered = b.end;
        }
        assert_eq!(covered, p.len() as u32, "case {case}");
    }
}

/// `block_of` is consistent with the block table.
#[test]
fn block_of_matches_blocks() {
    for (case, p) in programs(0x15a_0002) {
        for pc in 0..p.len() as u32 {
            let b = p.blocks()[p.block_of(pc) as usize];
            assert!(b.start <= pc && pc < b.end, "case {case}: pc {pc}");
        }
    }
}

/// Every statically-known target starts a block, and every instruction
/// after a control-flow instruction starts a block.
#[test]
fn leaders_start_blocks() {
    for (case, p) in programs(0x15a_0003) {
        for pc in 0..p.len() as u32 {
            let i = p.instr(pc);
            if let Some(t) = i.static_target() {
                let b = p.blocks()[p.block_of(t) as usize];
                assert_eq!(b.start, t, "case {case}: target of pc {pc}");
            }
            if i.is_control_flow() && pc + 1 < p.len() as u32 {
                let b = p.blocks()[p.block_of(pc + 1) as usize];
                assert_eq!(b.start, pc + 1, "case {case}: fall-through of pc {pc}");
            }
        }
    }
}

/// ALU operations never panic on any operand values: random pairs, plus
/// every pair of the overflow and shift-amount edge cases.
#[test]
fn alu_total() {
    const EDGES: [i64; 8] = [0, 1, -1, 63, 64, -64, i64::MIN, i64::MAX];
    let mut rng = DetRng::seed_from_u64(0x15a_0004);
    let random = (0..CASES).map(|_| (rng.next_i64(), rng.next_i64()));
    let edges = EDGES
        .iter()
        .flat_map(|&a| EDGES.iter().map(move |&b| (a, b)));
    for (a, b) in random.chain(edges) {
        use AluOp::*;
        for op in [Add, Sub, Mul, Div, Rem, And, Or, Xor, Sll, Srl, Sra, Slt] {
            let _ = op.apply(a, b);
        }
    }
}
