//! Figure 2: IPC versus completed instructions for 164.gzip at different
//! sampling periods.
//!
//! The paper plots 100k/1M/10M/100M-op periods over the first 500M
//! instructions of gzip, showing wild fine-grained variation that is
//! averaged away at coarse periods. The synthetic suite is ~10× shorter, so
//! the periods scale to 10k/100k/1M/10M over the whole run. The harness
//! prints, per period: the number of intervals, the IPC range, and the
//! interval-to-interval IPC standard deviation — the "visibility of
//! fine-grained behaviour" the figure illustrates — plus a coarse
//! downsampled series for plotting.

use pgss::analysis::{interval_profile, IntervalSample};
use pgss_bench::{banner, scale, Table};
use pgss_cpu::MachineConfig;
use pgss_stats::Welford;

fn main() {
    banner(
        "Figure 2",
        "IPC vs completed ops for 164.gzip at 4 sampling periods",
    );
    let w = pgss_workloads::gzip(scale());
    let cfg = MachineConfig::default();
    // Collect once at the finest period and aggregate upward. This is
    // close to separate passes at each period, not identical: a detailed
    // `Machine::run` counts the cycle it starts in, which is the cycle the
    // previous run ended in, so `n` aggregated fine intervals count
    // `n - 1` more cycles than one coarse pass over the same ops.
    let periods: [u64; 4] = [10_000, 100_000, 1_000_000, 10_000_000];
    let fine = interval_profile(&w, &cfg, periods[0], 1);

    let mut table = Table::new(&[
        "period",
        "intervals",
        "min IPC",
        "max IPC",
        "stddev",
        "Δ|IPC| mean",
    ]);
    for &p in &periods {
        let group = (p / periods[0]) as usize;
        let series = aggregate(&fine, group);
        if series.len() < 2 {
            table.row(&[pgss_bench::ops_fmt(p), "too few".into()]);
            continue;
        }
        let wf: Welford = series.iter().copied().collect();
        let mut dmean = 0.0;
        for pair in series.windows(2) {
            dmean += (pair[1] - pair[0]).abs();
        }
        dmean /= (series.len() - 1) as f64;
        let min = series.iter().copied().fold(f64::INFINITY, f64::min);
        let max = series.iter().copied().fold(0.0, f64::max);
        table.row(&[
            pgss_bench::ops_fmt(p),
            series.len().to_string(),
            format!("{min:.3}"),
            format!("{max:.3}"),
            format!("{:.3}", wf.population_stddev()),
            format!("{dmean:.3}"),
        ]);
    }
    table.print();

    // A plottable series at the second-finest period (like the paper's
    // visible traces), downsampled to ≤60 points for the log.
    println!("\n100k-period IPC series (ops_completed, ipc):");
    let series = aggregate(&fine, 10);
    let step = (series.len() / 60).max(1);
    for (i, ipc) in series.iter().enumerate().step_by(step) {
        println!("  {:>12}  {ipc:.3}", (i as u64 + 1) * 100_000);
    }
    println!("\nExpected shape (paper): stddev and Δ|IPC| fall sharply as the");
    println!("period grows; the fine-grained oscillation is invisible at 10M.");
}

/// Groups consecutive fine intervals into coarse ones. IPC of a group is
/// the harmonic composition (equal ops per fine interval ⇒ mean CPI).
fn aggregate(fine: &[IntervalSample], group: usize) -> Vec<f64> {
    fine.chunks(group)
        .filter(|c| c.len() == group)
        .map(|c| {
            let mean_cpi: f64 = c.iter().map(|s| 1.0 / s.ipc).sum::<f64>() / c.len() as f64;
            1.0 / mean_cpi
        })
        .collect()
}
