//! Design-space exploration: the motivating use-case for sampled
//! simulation.
//!
//! ```text
//! cargo run --release --example design_space [scale]
//! ```
//!
//! An architect comparing L2 cache sizes cannot afford full detailed
//! simulation of every candidate. This example sweeps four L2 capacities
//! over two memory-sensitive workloads, evaluating each design point both
//! exhaustively and with PGSS-Sim, and shows that PGSS preserves the
//! *design ordering* (which cache wins, and roughly by how much) at a small
//! fraction of the detailed-simulation cost.
//!
//! Every (workload × L2 size × technique) cell is one [`pgss::campaign`]
//! job with its own [`MachineConfig`], so the whole sweep — including the
//! expensive exhaustive baselines — runs in parallel with deterministic
//! output ordering.

use pgss::{campaign, CampaignConfig, FullDetailed, PgssSim};
use pgss_cpu::{CacheConfig, MachineConfig};

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.25);
    let l2_sizes: [u64; 4] = [256 << 10, 512 << 10, 1 << 20, 4 << 20];
    let workloads = [pgss_workloads::art(scale), pgss_workloads::equake(scale)];

    // One job per (workload, L2 size, technique); per-cell machine config.
    let full = FullDetailed::new();
    let pgss = PgssSim::new();
    let mut jobs: Vec<campaign::Job> = Vec::new();
    for workload in &workloads {
        for &l2 in &l2_sizes {
            let config = MachineConfig {
                l2: CacheConfig {
                    size_bytes: l2,
                    ..CacheConfig::l2_default()
                },
                ..MachineConfig::default()
            };
            jobs.push(campaign::Job {
                workload,
                technique: &full,
                config,
            });
            jobs.push(campaign::Job {
                workload,
                technique: &pgss,
                config,
            });
        }
    }
    println!(
        "running {} design-space cells as a parallel campaign ...",
        jobs.len()
    );
    // Positional indexing below needs the full grid, so an incomplete
    // campaign (some cell exhausted its retries) is fatal here; the error
    // names the first ledger entry.
    let report = campaign::run_with(&jobs, &CampaignConfig::default());
    let cells = match report.and_then(|r| r.into_cells()) {
        Ok(cells) => cells,
        Err(e) => {
            eprintln!("design-space campaign failed: {e}");
            std::process::exit(1);
        }
    };

    // Cells arrive in job order: workload-major, then L2 size, then
    // (FullDetailed, PgssSim) pairs.
    for (wi, workload) in workloads.iter().enumerate() {
        println!("\n=== {} ===", workload.name());
        println!(
            "{:<10} {:>10} {:>10} {:>8} {:>14}",
            "L2 size", "true IPC", "PGSS IPC", "error", "detailed ops"
        );
        let mut true_ipcs = Vec::new();
        let mut pgss_ipcs = Vec::new();
        for (li, &l2) in l2_sizes.iter().enumerate() {
            let base = wi * l2_sizes.len() * 2 + li * 2;
            let truth = &cells[base].estimate;
            let est = &cells[base + 1].estimate;
            println!(
                "{:<10} {:>10.4} {:>10.4} {:>7.2}% {:>14}",
                format!("{} KiB", l2 >> 10),
                truth.ipc,
                est.ipc,
                pgss::relative_error(est.ipc, truth.ipc) * 100.0,
                est.detailed_ops(),
            );
            true_ipcs.push(truth.ipc);
            pgss_ipcs.push(est.ipc);
        }
        let true_order = order(&true_ipcs);
        let pgss_order = order(&pgss_ipcs);
        println!(
            "design ordering preserved: {} ({:?} vs {:?})",
            if true_order == pgss_order {
                "YES"
            } else {
                "NO"
            },
            true_order,
            pgss_order
        );
        let true_gain = true_ipcs.last().unwrap() / true_ipcs.first().unwrap();
        let pgss_gain = pgss_ipcs.last().unwrap() / pgss_ipcs.first().unwrap();
        println!("speedup of largest vs smallest L2: true {true_gain:.2}x, PGSS {pgss_gain:.2}x");
    }
}

/// Ranks design points from worst to best IPC.
fn order(ipcs: &[f64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..ipcs.len()).collect();
    idx.sort_by(|&a, &b| ipcs[a].partial_cmp(&ipcs[b]).expect("finite IPC"));
    idx
}
