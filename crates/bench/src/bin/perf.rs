//! Interpreter performance harness: times the decoded superblock core
//! ([`pgss_cpu::Machine`]) against the retained per-op reference
//! interpreter ([`pgss_cpu::ReferenceMachine`]) on the paper suite, per
//! simulation mode, and writes one schema-pinned `BENCH_<name>.json`
//! trajectory file per workload.
//!
//! Both cores run in the *same invocation* on the same programs, so the
//! reported speedups are same-machine, same-build ratios — the number the
//! CI ratchet (`--check`, run by `scripts/ci.sh` against
//! `scripts/perf-baseline.txt`) enforces for functional mode. Wall times
//! are real time and machine-dependent; the JSON files are trajectories
//! for local comparison, not byte-stable artifacts (which is why they are
//! `BENCH_*.json`, not checked-in goldens).
//!
//! ```text
//! cargo run --release -p pgss-bench --bin perf -- [--smoke] [--out DIR] [--check BASELINE_FILE]
//! ```
//!
//! `--smoke` shrinks the run (two workloads, fewer ops, fewer trials) for
//! CI gating; `--out DIR` redirects the JSON files (default: current
//! directory). `--check BASELINE_FILE` turns the run into the ratchet: it
//! reads the baseline speedup (the last line of the file that is not a
//! `#` comment) and exits non-zero when the measured functional-mode
//! geomean falls more than [`RATCHET_MARGIN`] below it.

use std::fmt::Write as _;
use std::time::Instant;

use pgss_bench::{banner, ops_fmt, suite, Table};
use pgss_cpu::{MachineConfig, Mode};
use pgss_workloads::Workload;

/// Version pinning the `BENCH_*.json` layout. Bump deliberately when a
/// field changes meaning.
const PERF_SCHEMA_VERSION: u64 = 1;

/// How far below the baseline `--check` lets the functional geomean fall.
const RATCHET_MARGIN: f64 = 0.25;

/// One timed mode on one workload: per-trial wall times for both cores
/// over the same op budget.
struct ModeRun {
    mode: &'static str,
    ops: u64,
    decoded_ns: Vec<u64>,
    reference_ns: Vec<u64>,
}

impl ModeRun {
    /// Best-trial throughput in ops/sec for the decoded core.
    fn decoded_rate(&self) -> f64 {
        rate(self.ops, &self.decoded_ns)
    }

    /// Best-trial throughput in ops/sec for the reference core.
    fn reference_rate(&self) -> f64 {
        rate(self.ops, &self.reference_ns)
    }

    /// Decoded-over-reference speedup (best trial each).
    fn speedup(&self) -> f64 {
        self.decoded_rate() / self.reference_rate()
    }
}

/// Best-trial (minimum wall time) rate; trials are never empty.
fn rate(ops: u64, wall_ns: &[u64]) -> f64 {
    let best = wall_ns.iter().copied().min().expect("at least one trial");
    ops as f64 * 1e9 / best.max(1) as f64
}

fn main() {
    let cfg = parse_args();
    // Read the baseline before measuring, so a bad path fails fast.
    let baseline = cfg.check.as_deref().map(read_baseline);
    banner(
        "perf",
        "decoded superblock core vs per-op reference interpreter",
    );
    let machine_cfg = MachineConfig::default();
    let workloads = suite();
    let workloads: Vec<&Workload> = if cfg.smoke {
        workloads.iter().take(2).collect()
    } else {
        workloads.iter().collect()
    };

    let modes = [
        ("fast_forward", Mode::FastForward),
        ("functional", Mode::Functional),
        ("detailed", Mode::DetailedMeasured),
    ];

    let mut table = Table::new(&[
        "benchmark",
        "mode",
        "ops",
        "decoded Mops/s",
        "reference Mops/s",
        "speedup",
    ]);
    let mut functional_speedups = Vec::new();
    for w in &workloads {
        let mut runs = Vec::new();
        for &(label, mode) in &modes {
            let max_ops = if cfg.smoke { 400_000 } else { 4_000_000 };
            let mut run = ModeRun {
                mode: label,
                ops: 0,
                decoded_ns: Vec::new(),
                reference_ns: Vec::new(),
            };
            for _ in 0..cfg.trials {
                // Fresh machines per trial: both cores execute the
                // identical instruction stream from op 0.
                let mut m = w.machine_with(machine_cfg);
                let t = Instant::now();
                let r = m.run(mode, max_ops);
                run.decoded_ns.push(t.elapsed().as_nanos() as u64);
                run.ops = r.ops;

                let mut reference = w.reference_machine_with(machine_cfg);
                let t = Instant::now();
                let rr = reference.run(mode, max_ops);
                run.reference_ns.push(t.elapsed().as_nanos() as u64);
                assert_eq!(
                    r.ops, rr.ops,
                    "cores disagree on retired ops — timing is meaningless"
                );
                assert_eq!(
                    m.pc(),
                    reference.pc(),
                    "cores diverged — timing is meaningless"
                );
            }
            table.row(&[
                w.name().to_string(),
                label.to_string(),
                ops_fmt(run.ops),
                format!("{:.1}", run.decoded_rate() / 1e6),
                format!("{:.1}", run.reference_rate() / 1e6),
                format!("{:.2}x", run.speedup()),
            ]);
            if label == "functional" {
                functional_speedups.push(run.speedup());
            }
            runs.push(run);
        }
        let path = format!("{}/BENCH_{}.json", cfg.out_dir, w.name());
        if let Err(e) = std::fs::write(&path, render_json(w.name(), &runs)) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {path}");
    }
    table.print();

    // Geometric mean: ratios multiply, so their mean must too.
    let geomean = (functional_speedups.iter().map(|s| s.ln()).sum::<f64>()
        / functional_speedups.len() as f64)
        .exp();
    println!();
    println!(
        "functional-mode speedup (geomean over {} workloads): {geomean:.2}x",
        functional_speedups.len()
    );
    if let Some(base) = baseline {
        let floor = base - RATCHET_MARGIN;
        println!("ratchet: baseline {base:.2}x, floor {floor:.2}x");
        if geomean.is_nan() || geomean < floor {
            eprintln!("decoded-core throughput regressed below the ratchet floor");
            std::process::exit(1);
        }
        if geomean > base + RATCHET_MARGIN {
            println!("speedup grew; consider raising the baseline to {geomean:.2}");
        }
    }
}

/// The baseline speedup in `path`: its last line that is neither blank
/// nor a `#` comment. Exits with status 2 when there is none.
fn read_baseline(path: &str) -> f64 {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    let last = text
        .lines()
        .map(str::trim)
        .rfind(|l| !l.is_empty() && !l.starts_with('#'));
    match last.and_then(|l| l.parse::<f64>().ok()) {
        Some(base) if base > 0.0 => base,
        _ => {
            eprintln!("{path}: no baseline speedup on its last non-comment line");
            std::process::exit(2);
        }
    }
}

/// Renders one workload's `BENCH_<name>.json`: schema version, identity,
/// and the per-mode trial trajectories (nanosecond wall times in trial
/// order) plus derived best-trial rates.
fn render_json(name: &str, runs: &[ModeRun]) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"schema\":{PERF_SCHEMA_VERSION},\"name\":\"{name}\",\"modes\":["
    );
    for (i, r) in runs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"mode\":\"{}\",\"ops\":{},\"decoded_wall_ns\":{:?},\"reference_wall_ns\":{:?},\"decoded_ops_per_sec\":{:.1},\"reference_ops_per_sec\":{:.1},\"speedup\":{:.4}}}",
            r.mode,
            r.ops,
            r.decoded_ns,
            r.reference_ns,
            r.decoded_rate(),
            r.reference_rate(),
            r.speedup(),
        );
    }
    out.push_str("]}\n");
    out
}

struct Config {
    smoke: bool,
    trials: u32,
    out_dir: String,
    check: Option<String>,
}

fn parse_args() -> Config {
    let mut cfg = Config {
        smoke: false,
        trials: 3,
        out_dir: ".".to_string(),
        check: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => {
                cfg.smoke = true;
                cfg.trials = 2;
            }
            "--out" => cfg.out_dir = flag_value(args.next(), "--out"),
            "--check" => cfg.check = Some(flag_value(args.next(), "--check")),
            other => {
                eprintln!(
                    "unknown argument {other:?} (expected --smoke / --out DIR / --check BASELINE_FILE)"
                );
                std::process::exit(2);
            }
        }
    }
    cfg
}

/// A flag's argument; exits with status 2 when it is missing.
fn flag_value(arg: Option<String>, flag: &str) -> String {
    arg.unwrap_or_else(|| {
        eprintln!("{flag} needs an argument");
        std::process::exit(2)
    })
}
