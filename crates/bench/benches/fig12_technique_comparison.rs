//! Figure 12: sampling error and amount of detailed simulation for every
//! technique, across the ten benchmarks, with A-Mean/G-Mean columns.
//!
//! Per the paper, SimPoint/Online-SimPoint/PGSS are shown both at their
//! per-benchmark best configuration and at one fixed best-overall
//! configuration. Parameter grids are rescaled to the synthetic suite's
//! ~50M-op benchmarks (see `pgss-bench` crate docs): SMARTS period 100k,
//! SimPoint intervals {100k, 1M} × k {5, 10, 20}, Online SimPoint
//! intervals {100k, 1M} × thresholds {.05, .10}π, PGSS periods
//! {100k, 1M, 10M} × thresholds {.05 … .25}π.
//!
//! Every (benchmark × configuration) cell is one campaign job, so the whole
//! figure fans out across the host's cores via
//! [`pgss_bench::run_figure_campaign`]; the "best" columns then pick per
//! benchmark among their sweep's cells.

use std::ops::Range;

use pgss::{campaign, OnlineSimPoint, PgssSim, SimPointOffline, Technique};
use pgss_bench::{
    banner, cached_ground_truth, fixed_techniques, ops_fmt, pct, run_figure_campaign, suite, Table,
};
use pgss_cpu::MachineConfig;

/// One column of the figure: a fixed configuration, or the per-benchmark
/// best of a sweep range (indices into the technique list).
struct Column {
    name: &'static str,
    select: Range<usize>,
}

fn main() {
    banner(
        "Figure 12",
        "error and detailed-simulation cost per technique",
    );
    let cfg = MachineConfig::default();

    let [smarts, turbo, simpoint, olsp, pgss, two_phase, ranked, pgss_mav] = fixed_techniques();
    let simpoints: Vec<SimPointOffline> = [100_000u64, 1_000_000]
        .iter()
        .flat_map(|&i| {
            [5usize, 10, 20].iter().map(move |&k| SimPointOffline {
                interval_ops: i,
                k,
                ..SimPointOffline::default()
            })
        })
        .collect();
    let olsps: Vec<OnlineSimPoint> = [100_000u64, 1_000_000]
        .iter()
        .flat_map(|&i| {
            [0.05, 0.10].iter().map(move |&th| OnlineSimPoint {
                interval_ops: i,
                threshold_rad: pgss::threshold(th),
                ..OnlineSimPoint::default()
            })
        })
        .collect();
    let pgsss: Vec<PgssSim> = [100_000u64, 1_000_000, 10_000_000]
        .iter()
        .flat_map(|&p| {
            [0.05, 0.10, 0.15, 0.20, 0.25]
                .iter()
                .map(move |&th| PgssSim::with_params(p, th))
        })
        .collect();

    let mut techs: Vec<&(dyn Technique + Sync)> = vec![&*smarts.1, &*turbo.1];
    let sp_start = techs.len();
    techs.extend(simpoints.iter().map(|t| t as &(dyn Technique + Sync)));
    let sp_range = sp_start..techs.len();
    let olsp_start = techs.len();
    techs.extend(olsps.iter().map(|t| t as &(dyn Technique + Sync)));
    let olsp_range = olsp_start..techs.len();
    let pgss_start = techs.len();
    techs.extend(pgsss.iter().map(|t| t as &(dyn Technique + Sync)));
    let pgss_range = pgss_start..techs.len();
    // The related-work estimators and PGSS on the MAV signature: one cell
    // each, compared against the sweeps' best.
    let extra_start = techs.len();
    techs.extend([&*two_phase.1, &*ranked.1, &*pgss_mav.1]);
    // The fixed best-overall configurations are members of their sweeps.
    let index_of = |range: &Range<usize>, name: &str| {
        range
            .clone()
            .find(|&i| techs[i].name() == name)
            .expect("fixed config is in its sweep")
    };
    let sp_fixed = index_of(&sp_range, &simpoint.1.name());
    let olsp_fixed = index_of(&olsp_range, &olsp.1.name());
    let pgss_fixed = index_of(&pgss_range, &pgss.1.name());

    let columns: Vec<Column> = vec![
        Column {
            name: smarts.0,
            select: 0..1,
        },
        Column {
            name: turbo.0,
            select: 1..2,
        },
        Column {
            name: "SimPoint(best)",
            select: sp_range,
        },
        Column {
            name: simpoint.0,
            select: sp_fixed..sp_fixed + 1,
        },
        Column {
            name: "OLSimPoint(best)",
            select: olsp_range,
        },
        Column {
            name: olsp.0,
            select: olsp_fixed..olsp_fixed + 1,
        },
        Column {
            name: "PGSS(best)",
            select: pgss_range,
        },
        Column {
            name: pgss.0,
            select: pgss_fixed..pgss_fixed + 1,
        },
        Column {
            name: two_phase.0,
            select: extra_start..extra_start + 1,
        },
        Column {
            name: ranked.0,
            select: extra_start + 1..extra_start + 2,
        },
        Column {
            name: pgss_mav.0,
            select: extra_start + 2..extra_start + 3,
        },
    ];

    let workloads = suite();
    let truths: Vec<_> = workloads.iter().map(cached_ground_truth).collect();

    let jobs = campaign::grid(&workloads, &techs, cfg);
    // The figure indexes the grid positionally; the report is complete.
    let cells = run_figure_campaign("fig12", &jobs).cells;
    let cell = |w: usize, t: usize| &cells[w * techs.len() + t];

    // results[column][benchmark]
    let mut errors: Vec<Vec<f64>> = vec![Vec::new(); columns.len()];
    let mut detailed: Vec<Vec<u64>> = vec![Vec::new(); columns.len()];
    for (wi, truth) in truths.iter().enumerate() {
        for (c, col) in columns.iter().enumerate() {
            // The column's estimate for this benchmark: its only cell, or
            // the lowest-error cell of its sweep.
            let est = col
                .select
                .clone()
                .map(|t| &cell(wi, t).estimate)
                .min_by(|a, b| {
                    a.error_vs(truth)
                        .partial_cmp(&b.error_vs(truth))
                        .expect("finite errors")
                })
                .expect("column selects at least one technique");
            errors[c].push(est.error_vs(truth));
            detailed[c].push(est.detailed_ops());
        }
    }

    let mut header: Vec<String> = vec!["technique".into()];
    header.extend(workloads.iter().map(|w| w.name().to_string()));
    header.push("A-Mean".into());
    header.push("G-Mean".into());
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();

    println!("\nSampling error (percent of benchmark IPC):");
    let mut t1 = Table::new(&header_refs);
    for (c, col) in columns.iter().enumerate() {
        let mut row = vec![col.name.to_string()];
        row.extend(errors[c].iter().map(|&e| pct(e)));
        row.push(pct(pgss_stats::amean(&errors[c]).unwrap()));
        row.push(pct(pgss_stats::gmean(&errors[c]).unwrap()));
        t1.row(&row);
    }
    t1.print();

    println!("\nAmount of detailed simulation (instructions):");
    let mut t2 = Table::new(&header_refs);
    for (c, col) in columns.iter().enumerate() {
        let mut row = vec![col.name.to_string()];
        row.extend(detailed[c].iter().map(|&d| ops_fmt(d)));
        let mean = detailed[c].iter().sum::<u64>() / detailed[c].len() as u64;
        let gmean =
            pgss_stats::gmean(&detailed[c].iter().map(|&d| d as f64).collect::<Vec<_>>()).unwrap();
        row.push(ops_fmt(mean));
        row.push(ops_fmt(gmean as u64));
        t2.row(&row);
    }
    t2.print();

    // The paper's headline ratios.
    let mean_det = |c: usize| detailed[c].iter().sum::<u64>() as f64 / detailed[c].len() as f64;
    let pgss_fixed_col = columns
        .iter()
        .position(|c| c.name == pgss.0)
        .expect("fixed PGSS column exists");
    println!("\ndetailed-simulation ratios vs {}:", pgss.0);
    for (c, col) in columns.iter().enumerate() {
        if c != pgss_fixed_col {
            println!(
                "  {:<18} {:>8.1}x",
                col.name,
                mean_det(c) / mean_det(pgss_fixed_col)
            );
        }
    }
    println!("\nExpected shape (paper): SMARTS and SimPoint most accurate;");
    println!("PGSS slightly worse but better than TurboSMARTS; PGSS uses ~an");
    println!("order of magnitude less detailed simulation than SMARTS and 2-3");
    println!("orders less than SimPoint variants.");
}
