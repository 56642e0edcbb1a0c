//! Figure 9: percentage of detected phase changes that are false positives
//! (no significant IPC change), versus the BBV threshold, for significance
//! levels 0.1σ–0.5σ.
//!
//! False positives cost excess samples; the paper argues for setting the
//! threshold as high as possible without missing real performance changes.

use pgss::analysis::false_positive_rate;
use pgss_bench::{banner, mean_rate, suite_deltas, Table};

fn main() {
    banner(
        "Figure 9",
        "% of detected phase changes that are false positives",
    );
    let per_benchmark = suite_deltas(100_000);
    let sigma_levels = [0.1, 0.2, 0.3, 0.4, 0.5];
    let thresholds: Vec<f64> = (0..=20).map(|i| i as f64 * 0.025).collect();

    let mut header: Vec<String> = vec!["threshold(π)".into()];
    header.extend(sigma_levels.iter().map(|s| format!("{s:.1}σ")));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = Table::new(&header_refs);

    for &t in &thresholds {
        let rad = pgss::threshold(t);
        let mut row = vec![format!("{t:.3}")];
        for &sigma in &sigma_levels {
            row.push(
                match mean_rate(&per_benchmark, |d| false_positive_rate(d, rad, sigma)) {
                    Some(r) => pgss_bench::pct(r),
                    None => "-".into(),
                },
            );
        }
        table.row(&row);
    }
    table.print();
    println!("\nExpected shape (paper): the false-positive fraction falls as the");
    println!("threshold rises (and is higher when more changes count as noise,");
    println!("i.e. at larger σ levels).");
}
