//! Shared infrastructure for the experiment harnesses that regenerate every
//! figure of the PGSS-Sim paper.
//!
//! Each figure is a `harness = false` bench target (`cargo bench -p
//! pgss-bench --bench fig11_pgss_sweep`, etc.) printing the figure's
//! rows/series as aligned text. This crate holds what they share: the
//! scaled parameter sets, a plain-text table printer, and a ground-truth
//! cache (full detailed simulation is the expensive common denominator, so
//! results are memoised on disk keyed by workload identity and scale).
//!
//! # Parameter scaling
//!
//! The paper's benchmarks run for hundreds of billions of instructions; the
//! synthetic suite defaults to ~50 M per benchmark (`PGSS_SCALE` multiplies
//! this). Parameters that interact with *absolute* program granularity keep
//! the paper's values — PGSS BBV periods {100k, 1M, 10M}, detailed sample
//! 1,000 + 3,000 warming, 1M-op spacing rule, thresholds {.05–.25}π —
//! while parameters that only set *statistical mass* are rescaled and
//! labelled in each harness: the SMARTS period becomes 100k (≈500 samples
//! per benchmark instead of the paper's ~100,000) and SimPoint interval
//! sizes become {100k, 1M} with {5, 10, 20} clusters.
//!
//! # Campaigns
//!
//! Every harness that runs a grid of techniques over the suite builds its
//! jobs with [`pgss::campaign::grid`] and runs them through
//! [`run_figure_campaign`]; Figures 12 and 13 draw their fixed
//! configurations from [`fixed_techniques`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;
use std::path::PathBuf;

use pgss::campaign::{self, CampaignConfig, CampaignReport, Job};
use pgss::{
    FullDetailed, GroundTruth, OnlineSimPoint, PgssSim, RankedSet, Signature, SimPointOffline,
    Smarts, Technique, TurboSmarts, TwoPhaseStratified,
};
use pgss_ckpt::{fnv1a64, Decoder, Encoder, Store};
use pgss_workloads::Workload;

/// The global scale factor (`PGSS_SCALE`, default 1.0).
pub fn scale() -> f64 {
    pgss_workloads::scale_from_env()
}

/// The paper's ten-benchmark suite at the global scale.
pub fn suite() -> Vec<Workload> {
    pgss_workloads::suite(scale())
}

/// Ground truth for `workload`, memoised in the checksummed record store
/// at `target/pgss_truth_cache/` (the same [`pgss_ckpt::Store`] format the
/// checkpoint subsystem uses) so repeated bench targets skip the full
/// detailed pass. The cache key hashes the workload's name, nominal
/// length, and the scale, so regenerating workloads invalidates stale
/// entries.
///
/// Concurrency-safe for parallel campaigns: each entry is one record,
/// written atomically (write-then-rename); torn, corrupt, or
/// stale-version records read as absent and are recomputed, never served.
/// Simulation is deterministic, so racing writers always store identical
/// payloads and any complete record wins.
pub fn cached_ground_truth(workload: &Workload) -> GroundTruth {
    let key = truth_key(workload);
    let store = truth_store();
    if let Some(truth) = store
        .as_ref()
        .ok()
        .and_then(|s| s.get(key))
        .and_then(|payload| decode_truth(&payload))
    {
        return truth;
    }
    let truth = FullDetailed::new().ground_truth(workload);
    if let Ok(store) = store {
        let _ = store.put(key, &encode_truth(&truth));
    }
    truth
}

/// Opens the ground-truth record store (shared format with the checkpoint
/// store).
fn truth_store() -> std::io::Result<Store> {
    Store::open(cache_path())
}

/// The cache key for a workload: a hash of its identity and the scale.
/// Public so store-GC callers can mark truth-cache entries as liveness
/// roots when a truth cache shares a store with other records.
pub fn truth_key(workload: &Workload) -> u64 {
    let mut e = Encoder::new();
    e.put_str("pgss-truth-v1");
    e.put_str(workload.name());
    e.put_u64(workload.nominal_ops());
    e.put_f64(scale());
    fnv1a64(&e.into_bytes())
}

fn encode_truth(truth: &GroundTruth) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_f64(truth.ipc);
    e.put_u64(truth.total_ops);
    e.put_u64(truth.cycles);
    e.into_bytes()
}

/// Decodes a cached ground-truth payload; malformed payloads (e.g. from
/// an older encoding) read as absent.
fn decode_truth(payload: &[u8]) -> Option<GroundTruth> {
    let mut d = Decoder::new(payload);
    let truth = GroundTruth {
        ipc: d.get_f64().ok()?,
        total_ops: d.get_u64().ok()?,
        cycles: d.get_u64().ok()?,
    };
    d.finish().ok()?;
    Some(truth)
}

/// Collects the consecutive-interval (ΔBBV, ΔIPC) sets behind Figures 7–9:
/// one detailed pass per suite benchmark at `period_ops`, hashed-BBV
/// tracking attached, deltas normalised per benchmark.
pub fn suite_deltas(period_ops: u64) -> Vec<(String, Vec<pgss::analysis::Delta>)> {
    let cfg = pgss_cpu::MachineConfig::default();
    suite()
        .iter()
        .map(|w| {
            let profile = pgss::analysis::interval_profile(w, &cfg, period_ops, 1);
            (w.name().to_string(), pgss::analysis::deltas(&profile))
        })
        .collect()
}

/// Equal-weight mean over benchmarks of a per-benchmark rate computed
/// from [`suite_deltas`] output (Figures 8 and 9); benchmarks where `f`
/// is undefined are skipped.
pub fn mean_rate(
    per_benchmark: &[(String, Vec<pgss::analysis::Delta>)],
    f: impl Fn(&[pgss::analysis::Delta]) -> Option<f64>,
) -> Option<f64> {
    let rates: Vec<f64> = per_benchmark.iter().filter_map(|(_, d)| f(d)).collect();
    pgss_stats::amean(&rates)
}

fn target_dir() -> PathBuf {
    // CARGO_TARGET_DIR is not set by default; fall back to the workspace's
    // target/. Anchor to the workspace root (two levels above this crate's
    // manifest) rather than the current directory: cargo runs bench
    // binaries with cwd = the crate directory but bins with cwd = the
    // invocation directory, and a cwd-relative path would give them
    // different caches.
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .ancestors()
                .nth(2)
                .map(|root| root.join("target"))
                .unwrap_or_else(|| PathBuf::from("target"))
        })
}

fn cache_path() -> PathBuf {
    target_dir().join("pgss_truth_cache")
}

/// The shared on-disk checkpoint store (`target/pgss_ckpt_store/`), so
/// repeated checkpoint-accelerated campaigns reuse captured ladders
/// across bench invocations. `None` when the directory cannot be created
/// — campaigns then fall back to in-memory capture.
pub fn checkpoint_store() -> Option<Store> {
    Store::open(target_dir().join("pgss_ckpt_store")).ok()
}

/// The eight fixed configurations Figures 12 and 13 compare, labelled as
/// their columns: SMARTS (100k period), TurboSMARTS, SimPoint (10 × 1M),
/// Online SimPoint (1M/.10π), PGSS (1M/.05π), then the related-work
/// estimators at their defaults — two-phase stratified, ranked-set, and
/// PGSS on the MAV signature.
pub fn fixed_techniques() -> [(&'static str, Box<dyn Technique + Sync>); 8] {
    let smarts = Smarts {
        period_ops: 100_000,
        ..Smarts::default()
    };
    [
        ("SMARTS", Box::new(smarts)),
        (
            "TurboSMARTS",
            Box::new(TurboSmarts {
                smarts,
                ..TurboSmarts::default()
            }),
        ),
        (
            "SimPoint(10x1M)",
            Box::new(SimPointOffline {
                interval_ops: 1_000_000,
                k: 10,
                ..SimPointOffline::default()
            }),
        ),
        ("OLSimPoint(1M/.10)", Box::new(OnlineSimPoint::new())),
        ("PGSS(1M/.05)", Box::new(PgssSim::new())),
        ("TwoPhase(1M/b60)", Box::new(TwoPhaseStratified::default())),
        ("RankedSet(1M/r2x5)", Box::new(RankedSet::default())),
        (
            "PGSS-MAV(1M/.05)",
            Box::new(PgssSim {
                signature: Signature::Mav,
                ..PgssSim::default()
            }),
        ),
    ]
}

/// Runs a figure's campaign: checkpoint-accelerated at a 1M-op rung
/// stride through the shared [`checkpoint_store`], on `PGSS_WORKERS`
/// workers (resolved here, at the harness boundary; the library takes an
/// explicit count). Results equal an unaccelerated run's.
///
/// Progress, healed checkpoint faults and a one-line summary go to
/// stderr, so stdout carries only the figure. When the campaign cannot
/// run or any cell failed, prints the failure ledger and exits with
/// status 1 — a returned report is complete, its `cells` the whole grid
/// in job order. `label` names the figure in these messages.
pub fn run_figure_campaign(label: &str, jobs: &[Job<'_>]) -> CampaignReport {
    eprintln!(
        "{label}: running {} campaign cells (checkpoint-accelerated) ...",
        jobs.len()
    );
    let store = checkpoint_store();
    let config = CampaignConfig::with_workers(campaign::worker_threads());
    let report = match campaign::run_checkpointed_with(jobs, 1_000_000, store.as_ref(), &config) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("{label} campaign failed to run: {e}");
            std::process::exit(1);
        }
    };
    if !report.is_complete() {
        eprintln!("{label} campaign incomplete: {}", report.ledger());
        std::process::exit(1);
    }
    for fault in &report.checkpoint_faults {
        eprintln!("checkpoint fault healed: {fault}");
    }
    let scope = report.metrics.scope("campaign");
    let wall_s = scope
        .and_then(|scope| scope.span("campaign.run"))
        .map_or(0.0, |span| span.total_ns as f64 / 1e9);
    let ladder = |name: &str| scope.map_or(0, |s| s.counter(&format!("ckpt.ladder.{name}")));
    // Ops executed, capture included, against what the same cells would
    // have executed without checkpoints.
    let executed = ladder("executed_ops") + ladder("capture_ops");
    let baseline = ladder("executed_ops") + ladder("skipped_ops");
    let ratio = if baseline == 0 {
        1.0
    } else {
        executed as f64 / baseline as f64
    };
    eprintln!(
        "{label}: {} cells ok, {} retries, wall {wall_s:.1} s; checkpointing executed \
         {:.1}% of baseline ops ({} jumps)",
        report.cells.len(),
        report.retries,
        ratio * 100.0,
        ladder("jumps"),
    );
    report
}

/// Health-checks every on-disk cache this crate maintains (the
/// ground-truth cache and the shared checkpoint store), quarantining any
/// corrupt, stale, or foreign files into each store's `quarantine/`
/// sidecar. Returns one `(store directory, report)` pair per store that
/// exists on disk; stores that were never created are skipped.
///
/// Quarantining is the *repair*: invalid records are preserved for
/// inspection but moved out of the read path, so the next campaign or
/// bench run recomputes and re-stores them instead of tripping over them.
pub fn verify_caches() -> std::io::Result<Vec<(PathBuf, pgss_ckpt::VerifyReport)>> {
    let mut out = Vec::new();
    for dir in [cache_path(), target_dir().join("pgss_ckpt_store")] {
        if dir.is_dir() {
            let report = Store::open(&dir)?.verify_all()?;
            out.push((dir, report));
        }
    }
    Ok(out)
}

/// A fixed-width plain-text table printer for figure output.
///
/// # Example
///
/// ```
/// let mut t = pgss_bench::Table::new(&["benchmark", "error %"]);
/// t.row(&["164.gzip".to_string(), format!("{:.2}", 1.234)]);
/// let s = t.render();
/// assert!(s.contains("164.gzip"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Table {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; missing cells render empty, extra cells are kept.
    pub fn row(&mut self, cells: &[String]) {
        self.rows.push(cells.to_vec());
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let cols = self
            .header
            .len()
            .max(self.rows.iter().map(Vec::len).max().unwrap_or(0));
        let mut widths = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = widths[i].max(h.len());
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let render_row = |cells: &[String], out: &mut String| {
            for (i, w) in widths.iter().enumerate() {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                if i == 0 {
                    let _ = write!(out, "{cell:<w$}");
                } else {
                    let _ = write!(out, "  {cell:>w$}");
                }
            }
            out.push('\n');
        };
        render_row(&self.header, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            render_row(row, &mut out);
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats a fraction as a percentage with two decimals.
pub fn pct(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}

/// Formats an op count compactly (`1.5M`, `320k`, `64`).
pub fn ops_fmt(n: u64) -> String {
    if n >= 10_000_000 {
        format!("{:.1}M", n as f64 / 1e6)
    } else if n >= 10_000 {
        format!("{:.0}k", n as f64 / 1e3)
    } else {
        n.to_string()
    }
}

/// Prints the standard harness banner: figure id, scale, and a one-line
/// description.
pub fn banner(figure: &str, what: &str) {
    println!("==============================================================");
    println!("{figure}: {what}");
    println!("scale = {} (set PGSS_SCALE to change)", scale());
    println!("==============================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let mut t = Table::new(&["name", "v"]);
        t.row(&["a".into(), "1".into()]);
        t.row(&["longer-name".into(), "12345".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[1].chars().collect::<Vec<_>>().len(), lines[0].len());
        assert!(lines[3].starts_with("longer-name"));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.123456), "12.35%");
        assert_eq!(ops_fmt(42), "42");
        assert_eq!(ops_fmt(320_000), "320k");
        assert_eq!(ops_fmt(15_000_000), "15.0M");
    }

    #[test]
    fn truth_cache_roundtrip() {
        let w = pgss_workloads::twolf(0.002);
        // Note: uses the real cache store; the second call must hit it and
        // agree exactly.
        let a = cached_ground_truth(&w);
        let b = cached_ground_truth(&w);
        assert_eq!(a.total_ops, b.total_ops);
        assert_eq!(a.ipc, b.ipc);
        // The record really is in the shared store format.
        let stored = truth_store().unwrap().get(truth_key(&w)).unwrap();
        assert_eq!(decode_truth(&stored), Some(a));
    }

    #[test]
    fn truth_cache_recovers_from_injected_corruption() {
        use std::fs;
        let w = pgss_workloads::mesa(0.002);
        let truth = cached_ground_truth(&w);
        let store = truth_store().unwrap();
        let path = store.path_for(truth_key(&w));
        let good = fs::read(&path).unwrap();

        // Torn write: record cut mid-payload.
        fs::write(&path, &good[..good.len() - 4]).unwrap();
        assert_eq!(store.get(truth_key(&w)), None);
        assert_eq!(cached_ground_truth(&w), truth);

        // Outright garbage where the record should be.
        fs::write(&path, b"this is not a record").unwrap();
        assert_eq!(cached_ground_truth(&w), truth);

        // Stale format version: reads as absent, then self-heals.
        let mut stale = fs::read(&path).unwrap();
        stale[8] = stale[8].wrapping_add(1);
        fs::write(&path, &stale).unwrap();
        assert_eq!(store.get(truth_key(&w)), None);
        assert_eq!(cached_ground_truth(&w), truth);
        assert!(store.get(truth_key(&w)).is_some(), "record did not heal");
    }

    #[test]
    fn truth_cache_concurrent_callers_agree() {
        let w = pgss_workloads::gzip(0.002);
        let results: Vec<GroundTruth> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| s.spawn(|| cached_ground_truth(&w)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for r in &results[1..] {
            assert_eq!(*r, results[0]);
        }
        // And the stored record still parses cleanly afterwards.
        let stored = truth_store().unwrap().get(truth_key(&w)).unwrap();
        assert_eq!(decode_truth(&stored), Some(results[0]));
    }

    #[test]
    fn truth_key_separates_workloads() {
        let a = truth_key(&pgss_workloads::gzip(0.1));
        let b = truth_key(&pgss_workloads::mesa(0.1));
        // Tiny scales clamp to the same repetition count; these differ.
        let c = truth_key(&pgss_workloads::gzip(0.3));
        assert_ne!(a, b);
        assert_ne!(a, c);
    }
}
