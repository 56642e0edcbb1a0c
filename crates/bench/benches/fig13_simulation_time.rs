//! Figure 13: total simulation time per technique, decomposed into
//! fast-forwarding / detailed warming / detailed simulation, with the
//! per-mode simulation rates with and without BBV tracking.
//!
//! Everything is read off the figure campaign's own metric frames: each
//! driver segment records its executed ops and its wall time per mode
//! (see [`pgss::timing`]). The harness prints
//!
//! 1. per-mode rates, over the cells whose technique tracks nothing and
//!    over those that track only the paper's hashed BBV;
//! 2. per technique, the measured in-cell time per mode of this
//!    checkpoint-accelerated run, plus everything else a cell does;
//! 3. per technique, the paper's no-checkpoint decomposition: its charged
//!    mode ops over its own measured rates, and what remains with
//!    live-point checkpoints;
//! 4. the per-cell detail budgets — how much cycle-level simulation each
//!    technique bought its accuracy with.
//!
//! With `--jsonl <path>` the campaign's full [`pgss::MetricsReport`] is
//! exported as JSON Lines (schema `pgss::METRICS_SCHEMA_VERSION`), one
//! line per metric scope. The export carries no wall times, so it is
//! byte-identical across reruns and `PGSS_WORKERS` settings.
//!
//! ```text
//! cargo bench -p pgss-bench --bench fig13_simulation_time -- --jsonl metrics.jsonl
//! ```
//!
//! The paper's point: BBV-tracking overhead is negligible (~1 %), detailed
//! simulation dominates where it exists, and PGSS's advantage in total time
//! is bounded by the functional:detailed speed ratio of the simulator.

use pgss::timing::{time_for, ModeRates, TimeBreakdown};
use pgss::{campaign, MetricsFrame, Track};
use pgss_bench::{banner, fixed_techniques, ops_fmt, pct, run_figure_campaign, suite, Table};
use pgss_cpu::{MachineConfig, ModeOps};

fn main() {
    banner(
        "Figure 13",
        "total simulation time decomposition per technique",
    );
    let jsonl_path = jsonl_arg();

    let fixed = fixed_techniques();
    let techs: Vec<_> = fixed.iter().map(|(_, t)| &**t).collect();
    let workloads = suite();
    let jobs = campaign::grid(&workloads, &techs, MachineConfig::default());
    let report = run_figure_campaign("fig13", &jobs);
    // Scope 0 is the campaign; one scope per cell follows in job order.
    let frames = &report.metrics.scopes[1..];

    // Per technique: its cells' frames folded, and its charged mode ops.
    let per_tech: Vec<(MetricsFrame, ModeOps)> = (0..techs.len())
        .map(|t| {
            let mut frame = MetricsFrame::new();
            let mut ops = ModeOps::default();
            for w in 0..workloads.len() {
                let i = w * techs.len() + t;
                frame.merge(&frames[i].1);
                let m = report.cells[i].estimate.mode_ops;
                ops.fast_forward += m.fast_forward;
                ops.functional += m.functional;
                ops.detailed_warming += m.detailed_warming;
                ops.detailed_measured += m.detailed_measured;
            }
            (frame, ops)
        })
        .collect();

    // 1. Rates with and without BBV tracking.
    let group = |tracks: fn(&Track) -> bool| {
        let mut frame = MetricsFrame::new();
        let mut names = Vec::new();
        for ((label, tech), (f, _)) in fixed.iter().zip(&per_tech) {
            if tech.tracks().iter().all(tracks) {
                frame.merge(f);
                names.push(*label);
            }
        }
        (ModeRates::from_frame(&frame), names.join(", "))
    };
    let (without, without_names) = group(|t| *t == Track::None);
    let (with_bbv, with_names) = group(|t| matches!(t, Track::Hashed(_)));
    println!("\nMeasured simulation rates (executed ops / in-interpreter wall time):");
    println!("  w/o BBV:  cells of {without_names}");
    println!("  with BBV: cells of {with_names}");
    let mut rates_table =
        Table::new(&["mode", "Mops/s (with BBV)", "Mops/s (w/o BBV)", "overhead"]);
    let by_mode = |r: &ModeRates| {
        [
            r.fast_forward,
            r.functional,
            r.detailed_warming,
            r.detailed_measured,
        ]
    };
    let modes = [
        "fast-forward",
        "functional fast-forward",
        "detailed warming",
        "detailed simulation",
    ];
    for ((name, w), wo) in modes.iter().zip(by_mode(&with_bbv)).zip(by_mode(&without)) {
        let mops =
            |r: Option<f64>| r.map_or_else(|| "-".to_string(), |r| format!("{:.2}", r / 1e6));
        let overhead = w.zip(wo).map_or_else(
            || "-".to_string(),
            |(w, wo)| format!("{:+.1}%", (wo / w - 1.0) * 100.0),
        );
        rates_table.row(&[name.to_string(), mops(w), mops(wo), overhead]);
    }
    rates_table.print();

    // 2. Measured in-cell time of this (checkpointed) run.
    let header = |last: &str| {
        Table::new(&[
            "technique",
            "fast-fwd (s)",
            "functional (s)",
            "warming (s)",
            "detailed (s)",
            last,
        ])
    };
    let row = |label: &str, t: &TimeBreakdown, last: Option<f64>| {
        let mut row = vec![label.to_string()];
        row.extend(
            [
                t.fast_forward_s,
                t.functional_s,
                t.detailed_warming_s,
                t.detailed_s,
                last,
            ]
            .map(secs),
        );
        row
    };
    let mut measured = header("other (s)");
    for ((label, _), (frame, _)) in fixed.iter().zip(&per_tech) {
        let t = TimeBreakdown::measured(frame);
        let cell_s = frame
            .span("cell.run")
            .map_or(0.0, |s| s.total_ns as f64 / 1e9);
        let other = t.total().map(|driver_s| (cell_s - driver_s).max(0.0));
        measured.row(&row(label, &t, other));
    }
    println!("\nMeasured in-cell time over the ten benchmarks, checkpoint-accelerated");
    println!("(summed over cells; other = ladder jumps, classification, estimator math):");
    measured.print();

    // 3. The paper's decomposition: charged ops over measured rates.
    let mut modelled = header("total (s)");
    let mut totals: Vec<(&str, TimeBreakdown)> = Vec::new();
    for ((label, _), (frame, ops)) in fixed.iter().zip(&per_tech) {
        let t = time_for(ops, &ModeRates::from_frame(frame));
        modelled.row(&row(label, &t, t.total()));
        totals.push((label, t));
    }
    println!("\nModelled total simulation time over the ten benchmarks (no");
    println!("checkpointing, as in the paper's Fig. 13): each technique's charged");
    println!("mode ops over its own measured rates:");
    modelled.print();

    let detailed = |t: &TimeBreakdown| Some(t.detailed_warming_s? + t.detailed_s?);
    let (pgss_label, pgss_time) = totals[4]; // PGSS(1M/.05)
    println!(
        "\ncombined detailed warming + simulation for {pgss_label}: {} s",
        secs(detailed(&pgss_time))
    );
    // The paper's future-work item: with a live-point (checkpoint) library,
    // fast-forwarding disappears and only the detailed component remains.
    println!("\nwith live-point checkpoints (paper Sec. 7 future work), the");
    println!("functional component vanishes; remaining modelled time:");
    for (label, t) in &totals {
        println!("  {label:<20} {} s", secs(detailed(t)));
    }

    // 4. Per-cell detail budgets, from the same scopes the JSONL export
    // carries.
    let mut budgets = Table::new(&[
        "benchmark",
        "technique",
        "detail ops",
        "detail share",
        "samples",
        "IPC",
        "95% ±",
    ]);
    for (cell, (_, frame)) in report.cells.iter().zip(frames) {
        let detail = frame.counter("cell.ops.warm") + frame.counter("cell.ops.detail");
        let total =
            detail + frame.counter("cell.ops.fast_forward") + frame.counter("cell.ops.functional");
        budgets.row(&[
            cell.workload.clone(),
            cell.technique.clone(),
            ops_fmt(detail),
            pct(detail as f64 / total.max(1) as f64),
            frame.counter("cell.samples").to_string(),
            format!("{:.4}", cell.estimate.ipc),
            cell.estimate
                .ci
                .map_or_else(|| "-".to_string(), |ci| format!("{:.4}", ci.half_width)),
        ]);
    }
    println!("\nPer-cell detail budgets:");
    budgets.print();

    println!("\nExpected shape (paper): all techniques are dominated by");
    println!("(functional) fast-forwarding without checkpoints; PGSS's detailed");
    println!("component is tiny (the paper: ~380 s of ~250,000 s); SimPoint's");
    println!("detailed share is the largest. BBV overhead is within noise.");

    if let Some(path) = jsonl_path {
        if let Err(e) = std::fs::write(&path, report.metrics.to_jsonl()) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!(
            "wrote {} metric scopes to {path}",
            report.metrics.scopes.len()
        );
    }
}

/// Seconds to three decimals; `-` when unknown.
fn secs(s: Option<f64>) -> String {
    s.map_or_else(|| "-".to_string(), |s| format!("{s:.3}"))
}

/// Parses `--jsonl <path>` from the command line, if present. Other
/// arguments (such as the `--bench` flag `cargo bench` appends) are
/// ignored.
fn jsonl_arg() -> Option<String> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--jsonl" {
            match args.next() {
                Some(path) => return Some(path),
                None => {
                    eprintln!("--jsonl needs a path argument");
                    std::process::exit(2);
                }
            }
        }
    }
    None
}
