//! Quickstart: estimate a benchmark's IPC with PGSS-Sim and compare against
//! full detailed simulation.
//!
//! ```text
//! cargo run --release --example quickstart [scale]
//! ```
//!
//! The example builds the synthetic `164.gzip` workload, then runs a small
//! *campaign* — PGSS-Sim (the paper's best-overall configuration) and
//! SMARTS side by side, fanned across the host's cores — and judges both
//! against exhaustive simulation, including each run's [`pgss::RunTrace`]
//! of what the shared sampling engine executed.

use pgss::{campaign, CampaignConfig, FullDetailed, PgssSim, Smarts, Technique};

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.25);
    println!("building 164.gzip at scale {scale} ...");
    let workload = pgss_workloads::gzip(scale);
    println!("  {} instructions (nominal)", workload.nominal_ops());

    println!("running full detailed simulation (the expensive ground truth) ...");
    let truth = FullDetailed::new().ground_truth(&workload);
    println!(
        "  true IPC = {:.4} over {} instructions",
        truth.ipc, truth.total_ops
    );

    println!("running the sampled techniques as a parallel campaign ...");
    let pgss = PgssSim::new();
    let smarts = Smarts {
        period_ops: 100_000,
        ..Smarts::default()
    };
    let techniques: Vec<&(dyn Technique + Sync)> = vec![&pgss, &smarts];
    let workloads = [workload];
    let jobs = campaign::grid(&workloads, &techniques, Default::default());
    let report = campaign::run_with(&jobs, &CampaignConfig::default())
        .expect("the default campaign config is valid");
    if !report.is_complete() {
        eprintln!("campaign failure ledger:\n{}", report.ledger());
    }
    for cell in &report.cells {
        let est = &cell.estimate;
        println!("\n{}:", cell.technique);
        println!("  estimated IPC = {:.4}", est.ipc);
        println!("  error         = {:.2}%", est.error_vs(&truth) * 100.0);
        if let Some(phases) = &est.phases {
            println!(
                "  phases found  = {} ({} transitions)",
                phases.phases, phases.changes
            );
        }
        println!(
            "  samples taken = {} (1k measured + 3k warming each)",
            est.samples
        );
        println!(
            "  detailed simulation: {} of {} instructions ({:.3}% — {}x less than full detail)",
            est.detailed_ops(),
            truth.total_ops,
            est.detailed_ops() as f64 / truth.total_ops as f64 * 100.0,
            truth.total_ops / est.detailed_ops().max(1),
        );
        let t = &cell.trace;
        println!(
            "  engine trace: {} segments ({} functional / {} warming / {} measured), \
             {} samples, {} skipped (CI met {}, spacing {})",
            t.total_segments(),
            t.segments[pgss_cpu::Mode::Functional as usize],
            t.segments[pgss_cpu::Mode::DetailedWarming as usize],
            t.segments[pgss_cpu::Mode::DetailedMeasured as usize],
            t.samples_taken,
            t.samples_skipped(),
            t.skipped_ci_met,
            t.skipped_spacing,
        );
        if let Some(ci) = est.ci {
            println!(
                "  95% interval  = {:.4} ± {:.4} ({})",
                ci.mean,
                ci.half_width,
                if ci.contains(truth.ipc) {
                    "covers the true IPC"
                } else {
                    "misses the true IPC"
                }
            );
        }
    }

    // Every campaign also carries a structured metrics report — the same
    // numbers as above, per cell and campaign-wide, exportable as stable
    // JSONL (byte-identical regardless of PGSS_WORKERS). See the
    // `campaign_metrics` bin for the full table + `--jsonl` export.
    let scope = report
        .metrics
        .scope("campaign")
        .expect("campaign scope always present");
    println!(
        "\ncampaign metrics: {} jobs, {} ok, {} retries, {} metric scopes exported",
        scope.counter("campaign.jobs"),
        scope.counter("campaign.cells.ok"),
        scope.counter("campaign.retries"),
        report.metrics.scopes.len(),
    );
}
