//! Figure 8: percentage of significant IPC changes detected as phase
//! changes, versus the BBV threshold, for significance levels 0.1σ–0.5σ.
//!
//! The paper finds a knee around 0.05π radians, with better detection for
//! larger IPC changes. Per the paper, benchmarks are weighted equally: the
//! detection rate is computed per benchmark and averaged.

use pgss::analysis::detection_rate;
use pgss_bench::{banner, mean_rate, suite_deltas, Table};

fn main() {
    banner(
        "Figure 8",
        "% of significant IPC changes caught vs BBV threshold",
    );
    let per_benchmark = suite_deltas(100_000);
    let sigma_levels = [0.1, 0.2, 0.3, 0.4, 0.5];
    let thresholds: Vec<f64> = (0..=20).map(|i| i as f64 * 0.025).collect(); // fractions of π

    let mut header: Vec<String> = vec!["threshold(π)".into()];
    header.extend(sigma_levels.iter().map(|s| format!(">{s:.1}σ")));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = Table::new(&header_refs);

    for &t in &thresholds {
        let rad = pgss::threshold(t);
        let mut row = vec![format!("{t:.3}")];
        for &sigma in &sigma_levels {
            row.push(
                match mean_rate(&per_benchmark, |d| detection_rate(d, rad, sigma)) {
                    Some(r) => pgss_bench::pct(r),
                    None => "-".into(),
                },
            );
        }
        table.row(&row);
    }
    table.print();
    println!("\nExpected shape (paper): high plateau at tiny thresholds with a");
    println!("knee near 0.05π, then decay; larger IPC changes are caught better.");
}
