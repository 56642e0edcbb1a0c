//! Figure 11: PGSS-Sim sampling error for the ten benchmarks over BBV
//! sampling periods {100k, 1M, 10M} and thresholds {.05, .10, .15, .20,
//! .25}π, with arithmetic- and geometric-mean summary columns.
//!
//! The paper finds 1M/.05π best overall, with art and mcf degrading badly
//! at the 100k period (their ~40–50k-op micro-phases alias against the BBV
//! sampling).

use pgss::{campaign, PgssSim, Technique};
use pgss_bench::{banner, cached_ground_truth, pct, run_figure_campaign, suite, Table};
use pgss_cpu::MachineConfig;

fn main() {
    banner(
        "Figure 11",
        "PGSS error: 3 BBV periods x 5 thresholds x 10 benchmarks",
    );
    let workloads = suite();
    let truths: Vec<_> = workloads.iter().map(cached_ground_truth).collect();

    let periods: [(u64, &str); 3] = [(100_000, "100k"), (1_000_000, "1M"), (10_000_000, "10M")];
    let thresholds = [0.05, 0.10, 0.15, 0.20, 0.25];

    // One campaign over the whole sweep, period-major then threshold.
    let pgsss: Vec<PgssSim> = periods
        .iter()
        .flat_map(|&(p, _)| thresholds.map(|t| PgssSim::with_params(p, t)))
        .collect();
    let techs: Vec<&(dyn Technique + Sync)> =
        pgsss.iter().map(|t| t as &(dyn Technique + Sync)).collect();
    let jobs = campaign::grid(&workloads, &techs, MachineConfig::default());
    let cells = run_figure_campaign("fig11", &jobs).cells;

    let mut best_overall: Option<(f64, String)> = None;
    for (pi, (_, period_name)) in periods.into_iter().enumerate() {
        println!("\n--- {period_name} op BBV sampling period ---");
        let mut header: Vec<String> = vec!["benchmark".into()];
        header.extend(thresholds.iter().map(|t| format!(".{:02.0}π", t * 100.0)));
        let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
        let mut table = Table::new(&header_refs);
        let mut errs_by_thresh: Vec<Vec<f64>> = vec![Vec::new(); thresholds.len()];

        for (wi, (w, truth)) in workloads.iter().zip(&truths).enumerate() {
            let mut row = vec![w.name().to_string()];
            for ti in 0..thresholds.len() {
                let cell = &cells[wi * techs.len() + pi * thresholds.len() + ti];
                let err = cell.estimate.error_vs(truth);
                errs_by_thresh[ti].push(err);
                row.push(pct(err));
            }
            table.row(&row);
        }
        let mut amean_row = vec!["A-Mean".to_string()];
        let mut gmean_row = vec!["G-Mean".to_string()];
        for (ti, errs) in errs_by_thresh.iter().enumerate() {
            let a = pgss_stats::amean(errs).unwrap();
            let g = pgss_stats::gmean(errs).unwrap();
            amean_row.push(pct(a));
            gmean_row.push(pct(g));
            let name = format!("{period_name}/.{:02.0}π", thresholds[ti] * 100.0);
            if best_overall.as_ref().is_none_or(|(b, _)| g < *b) {
                best_overall = Some((g, name));
            }
        }
        table.row(&amean_row);
        table.row(&gmean_row);
        table.print();
    }

    let (g, name) = best_overall.expect("at least one configuration");
    println!(
        "\nbest overall configuration by G-Mean: {name} ({})",
        pct(g)
    );
    println!("Expected shape (paper): 1M/.05π best overall; art/mcf degrade at");
    println!("the 100k period (micro-phase aliasing) and recover at 1M+.");
}
