//! Parallel campaign runner: fan a workload × technique matrix across
//! threads, isolating faults so one bad cell never kills the grid.
//!
//! The paper's figures are all *campaigns* — every benchmark in the suite
//! run under every technique under comparison. Because a technique run is
//! "construct [`crate::driver::SimDriver`]s, loop over segments" with no shared
//! mutable state, cells are embarrassingly parallel: workers claim jobs
//! from an atomic counter and results are returned **in job order**
//! regardless of thread count or scheduling, so campaign output is
//! deterministic and directly comparable across runs.
//!
//! # Fault tolerance
//!
//! A production campaign over thousands of cells cannot be all-or-nothing.
//! Every cell runs under [`std::panic::catch_unwind`], so a panicking
//! technique costs exactly its own cell; failed cells are retried a
//! bounded, deterministic number of times (see [`RetryPolicy`] — retry
//! order is seeded and reproducible, with no wall-clock backoff, so two
//! runs of the same campaign produce byte-identical reports); whatever
//! still fails lands in the [`CampaignReport::failures`] ledger with its
//! workload / technique / cause context while every other cell's result
//! is delivered bit-identical to a fault-free run. Checkpoint-store
//! faults (corrupt records, I/O errors) are healed by the ladder layer
//! and surfaced in [`CampaignReport::checkpoint_faults`]. Configuration
//! errors (zero threads, zero stride) are reported as
//! [`CampaignError::InvalidConfig`] instead of panicking.
//!
//! # Example
//!
//! ```no_run
//! use pgss::{campaign, CampaignConfig, PgssSim, Smarts, Technique};
//!
//! let workloads = vec![pgss_workloads::gzip(0.05), pgss_workloads::mesa(0.05)];
//! let smarts = Smarts::new();
//! let pgss = PgssSim::new();
//! let techniques: Vec<&(dyn Technique + Sync)> = vec![&smarts, &pgss];
//! let jobs = campaign::grid(&workloads, &techniques, Default::default());
//! let report = campaign::run_with(&jobs, &CampaignConfig::default())?;
//! for cell in &report.cells {
//!     println!("{} × {}: {:.3} IPC", cell.workload, cell.technique, cell.estimate.ipc);
//! }
//! for failure in &report.failures {
//!     eprintln!("FAILED {failure}");
//! }
//! # Ok::<(), pgss::CampaignError>(())
//! ```

// One panicking cell must never take down a campaign: every fallible step
// on this path reports through the ledger instead of unwrapping.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use pgss_ckpt::Store;
use pgss_cpu::MachineConfig;
use pgss_obs::{scope_line, MetricsFrame, MetricsRecorder, MetricsReport, Recorder, Span};
use pgss_stats::DetRng;
use pgss_workloads::Workload;

use crate::ckpt::{CheckpointLadder, LadderReport, LadderSpec, SimContext};
use crate::driver::RunTrace;
use crate::estimate::{Estimate, Technique};
use crate::wire::{self, WireFailure};

/// One campaign cell: a technique applied to a workload on a machine
/// configuration.
///
/// Jobs borrow their workload and technique, so a campaign over a big
/// matrix shares one copy of each workload's program and memory image
/// across every worker thread.
#[derive(Clone, Copy)]
pub struct Job<'a> {
    /// The workload to simulate.
    pub workload: &'a Workload,
    /// The sampling technique to run. `Sync` because several workers may
    /// read the (immutable) technique parameters concurrently.
    pub technique: &'a (dyn Technique + Sync),
    /// Machine configuration for this cell, enabling design-space sweeps
    /// where the configuration varies per cell.
    pub config: MachineConfig,
}

impl<'a> Job<'a> {
    /// A job with the default machine configuration.
    pub fn new(workload: &'a Workload, technique: &'a (dyn Technique + Sync)) -> Job<'a> {
        Job {
            workload,
            technique,
            config: MachineConfig::default(),
        }
    }
}

/// One completed campaign cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// [`Workload`] name.
    pub workload: String,
    /// [`Technique::name`] of the technique that ran.
    pub technique: String,
    /// The technique's estimate.
    pub estimate: Estimate,
    /// What the technique's driver passes executed.
    pub trace: RunTrace,
}

impl CellResult {
    /// The name of the cell's metric scope: `"workload/technique"`.
    pub fn scope_name(&self) -> String {
        format!("{}/{}", self.workload, self.technique)
    }
}

/// Why a single campaign cell failed (the *cause* part of a
/// [`CellFailure`]).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CellError {
    /// The technique panicked; the payload carries the panic message.
    Panicked(String),
    /// The simulated machine aborted with a structured fault (e.g. an
    /// out-of-range indirect jump) during one of the cell's driver
    /// passes. Unlike [`CellError::Panicked`], no unwinding is involved:
    /// the machine halts, the driver deposits the fault into the cell's
    /// [`crate::SimContext`], and the cell is failed with the typed
    /// reason.
    MachineFault(pgss_cpu::MachineFault),
    /// The cell overran its supervision lease and was reaped by a
    /// watchdog (`pgss-serve`'s lease-based cell supervision). The cell's
    /// worker may still be running, but its result — if one ever arrives —
    /// is discarded. The deadline is carried in nanoseconds of the
    /// supervising clock so replays under an injected clock are
    /// byte-identical.
    DeadlineExceeded {
        /// The lease deadline the cell overran, in nanoseconds.
        deadline_ns: u64,
    },
}

impl fmt::Display for CellError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CellError::Panicked(msg) => write!(f, "technique panicked: {msg}"),
            CellError::MachineFault(fault) => write!(f, "machine fault: {fault}"),
            CellError::DeadlineExceeded { deadline_ns } => {
                write!(
                    f,
                    "deadline exceeded: cell overran its {deadline_ns}ns lease"
                )
            }
        }
    }
}

/// One entry in a campaign's failure ledger: which cell failed, after how
/// many attempts, and why. The grid's other cells are unaffected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellFailure {
    /// Index of the failed cell in the campaign's job slice.
    pub job_index: usize,
    /// Workload name of the failed cell.
    pub workload: String,
    /// Technique name of the failed cell.
    pub technique: String,
    /// Attempts made (initial run plus retries) before giving up.
    pub attempts: u32,
    /// The terminal error of the last attempt.
    pub error: CellError,
}

impl fmt::Display for CellFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cell #{} {} × {}: {} (after {} attempt{})",
            self.job_index,
            self.workload,
            self.technique,
            self.error,
            self.attempts,
            if self.attempts == 1 { "" } else { "s" },
        )
    }
}

/// A campaign-level error: the campaign could not run (or could not be
/// reduced to plain cells) at all, as opposed to individual cells failing.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CampaignError {
    /// A configuration parameter makes the campaign unrunnable.
    InvalidConfig {
        /// Which parameter (e.g. `"threads"`, `"stride"`).
        param: &'static str,
        /// What is wrong with it.
        reason: String,
    },
    /// Some cells failed; returned by [`CampaignReport::into_cells`] when
    /// the caller needs the full grid.
    Incomplete {
        /// Number of failed cells.
        failed: usize,
        /// Total cells in the campaign.
        total: usize,
        /// Rendering of the first ledger entry.
        first: String,
    },
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::InvalidConfig { param, reason } => {
                write!(f, "invalid campaign configuration: {param}: {reason}")
            }
            CampaignError::Incomplete {
                failed,
                total,
                first,
            } => write!(
                f,
                "campaign incomplete: {failed} of {total} cells failed (first: {first})"
            ),
        }
    }
}

impl std::error::Error for CampaignError {}

/// Deterministic bounded retry for failed cells.
///
/// Retries carry **no wall-clock backoff**: techniques are pure functions
/// of their inputs, so a retry either deterministically succeeds (the
/// fault was external — e.g. an injected or environmental panic) or
/// deterministically fails again, and waiting would only slow the grid.
/// The retry *order* is a seeded shuffle of the failed cells, so two runs
/// with the same seed replay retries identically — reports are
/// byte-identical — while not hammering cells in claim order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per cell (first run included); 1 disables retry.
    pub max_attempts: u32,
    /// Seed for the retry-order shuffle.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 2,
            seed: 0x7067_7373, // "pgss"
        }
    }
}

impl RetryPolicy {
    /// No retries: one attempt per cell.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }
}

/// Execution configuration for a campaign: worker count and retry policy.
///
/// The worker count is an **explicit field**, never read from the
/// environment inside the library: callers that want the `PGSS_WORKERS`
/// override resolve it once at their own boundary (see
/// [`worker_threads`]) and pass the result here. That keeps both
/// runners a pure function of their arguments — embedders like
/// the campaign server pick worker counts per job without touching
/// process-global state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignConfig {
    /// Worker threads for the claim loop; must be at least 1.
    pub workers: usize,
    /// Retry policy for failed cells.
    pub retry: RetryPolicy,
}

impl Default for CampaignConfig {
    /// Host parallelism and the default [`RetryPolicy`] — deliberately
    /// **not** consulting `PGSS_WORKERS`.
    fn default() -> CampaignConfig {
        CampaignConfig {
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            retry: RetryPolicy::default(),
        }
    }
}

impl CampaignConfig {
    /// `workers` workers with the default retry policy.
    pub fn with_workers(workers: usize) -> CampaignConfig {
        CampaignConfig {
            workers,
            ..CampaignConfig::default()
        }
    }

    fn validate(&self) -> Result<(), CampaignError> {
        if self.workers == 0 {
            return Err(CampaignError::InvalidConfig {
                param: "threads",
                reason: "campaign needs at least one worker thread".to_string(),
            });
        }
        if self.retry.max_attempts == 0 {
            return Err(CampaignError::InvalidConfig {
                param: "retry.max_attempts",
                reason: "every cell needs at least one attempt".to_string(),
            });
        }
        Ok(())
    }
}

/// What a campaign produced: every successful cell (in job order), the
/// failure ledger for everything else, and checkpointing accounting.
///
/// The report is plain data with deterministic contents — equal campaigns
/// (same jobs, same faults, same retry seed) produce `==`, byte-identical
/// reports regardless of thread count.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CampaignReport {
    /// Successful cells, in job order (failed cells leave gaps).
    pub cells: Vec<CellResult>,
    /// The failure ledger: one entry per cell that exhausted its retry
    /// budget, in job order. Empty for a fault-free campaign.
    pub failures: Vec<CellFailure>,
    /// Total retry attempts performed (0 for a fault-free campaign).
    pub retries: u64,
    /// Checkpoint-acceleration accounting; all-zero for [`run_with`].
    pub ladder: LadderReport,
    /// Checkpoint-store faults healed or tolerated along the way:
    /// quarantined corrupt records, store I/O errors, failed write-backs,
    /// capture-pass panics — one human-readable line each. These are
    /// informational: the affected cells still produced bit-exact results
    /// via recapture or unaccelerated execution.
    pub checkpoint_faults: Vec<String>,
    /// Observability: a `"campaign"` scope (job/retry/failure counters,
    /// checkpoint-store and ladder accounting, detail-share distribution)
    /// followed by one `"workload/technique"` scope per successful cell in
    /// job order, each carrying that cell's driver counters. Per-worker
    /// frames are merged at join in job order, so the report — and its
    /// [`MetricsReport::to_jsonl`] export — is byte-identical regardless
    /// of the worker count (span wall times are excluded from comparison
    /// and export; see `pgss_obs`).
    pub metrics: MetricsReport,
}

impl CampaignReport {
    /// True when every cell succeeded.
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty()
    }

    /// The successful cell for `workload` × `technique`, if any.
    pub fn cell(&self, workload: &str, technique: &str) -> Option<&CellResult> {
        self.cells
            .iter()
            .find(|c| c.workload == workload && c.technique == technique)
    }

    /// Unwraps the report into its cells, requiring a complete campaign —
    /// for callers (figure harnesses, positional indexers) that need the
    /// full grid. Fails with [`CampaignError::Incomplete`] naming the
    /// first ledger entry otherwise.
    pub fn into_cells(self) -> Result<Vec<CellResult>, CampaignError> {
        match self.failures.first() {
            None => Ok(self.cells),
            Some(first) => Err(CampaignError::Incomplete {
                failed: self.failures.len(),
                total: self.cells.len() + self.failures.len(),
                first: first.to_string(),
            }),
        }
    }

    /// Renders the failure ledger (and checkpoint-fault notes) as
    /// human-readable lines; a fault-free campaign renders a one-line
    /// all-clear.
    pub fn ledger(&self) -> String {
        let mut out = String::new();
        if self.is_complete() {
            out.push_str(&format!("all {} cells succeeded", self.cells.len()));
        } else {
            out.push_str(&format!(
                "{} of {} cells failed ({} retr{} attempted):\n",
                self.failures.len(),
                self.cells.len() + self.failures.len(),
                self.retries,
                if self.retries == 1 { "y" } else { "ies" },
            ));
            for failure in &self.failures {
                out.push_str(&format!("  {failure}\n"));
            }
        }
        if !self.checkpoint_faults.is_empty() {
            out.push_str("\ncheckpoint faults healed:\n");
            for fault in &self.checkpoint_faults {
                out.push_str(&format!("  {fault}\n"));
            }
        }
        out
    }

    /// The *canonical campaign artifact*: a JSONL rendering of everything
    /// in the report that is a pure function of the job grid — header
    /// counts, every successful cell's estimate and trace (in job order),
    /// the failure ledger, and the per-cell metric scopes on the pinned
    /// `pgss-obs` schema.
    ///
    /// Execution-path accounting — the `"campaign"` metric scope, the
    /// ladder report, healed checkpoint faults — is deliberately
    /// excluded: it legitimately differs between, say, a cold-store run
    /// and a warm-store rerun. The remainder is **byte-identical** across
    /// worker counts, checkpoint acceleration, store temperature, and a
    /// campaign-server run resumed after a crash, which is exactly the
    /// equivalence the server's tests pin. The layout is
    /// [`crate::wire::canonical_artifact`] over this report's rendered cell
    /// and scope lines; the server assembles its reports with it too,
    /// from the lines it stored when each cell finished.
    pub fn canonical_jsonl(&self) -> String {
        let failures: Vec<WireFailure> = self.failures.iter().map(WireFailure::from).collect();
        let cell_lines = self.cells.iter().map(wire::canonical_cell_line).collect();
        let scope_lines = self
            .metrics
            .scopes
            .iter()
            .filter(|(name, _)| name != "campaign")
            .map(|(name, frame)| scope_line(name, frame))
            .collect();
        let mut out =
            wire::canonical_artifact(cell_lines, &failures, self.retries, scope_lines).join("\n");
        out.push('\n');
        out
    }
}

/// Builds the full `workloads × techniques` matrix in workload-major order
/// (all techniques of the first workload, then the second, …) with one
/// shared machine configuration.
pub fn grid<'a>(
    workloads: &'a [Workload],
    techniques: &'a [&'a (dyn Technique + Sync)],
    config: MachineConfig,
) -> Vec<Job<'a>> {
    workloads
        .iter()
        .flat_map(|w| {
            techniques.iter().map(move |&t| Job {
                workload: w,
                technique: t,
                config,
            })
        })
        .collect()
}

/// Cells of a checkpointed campaign that run the same workload on the same
/// machine configuration, and so share one [`CheckpointLadder`].
#[derive(Debug, Clone)]
pub struct LadderGroup {
    /// The group's cells: indices into the job slice, in job order.
    pub cells: Vec<usize>,
    /// The group's ladder: rungs every stride ops, carrying every BBV
    /// track the group's techniques declare
    /// ([`LadderSpec::for_techniques`]).
    pub spec: LadderSpec,
}

/// Partitions `jobs` into [`LadderGroup`]s, in order of each group's first
/// cell: cells share a group when they run the same workload (by
/// identity) on the same configuration. [`run_checkpointed_with`] and the
/// campaign server both group with this, so their ladders have the same
/// content addresses.
pub fn ladder_groups(jobs: &[Job<'_>], stride: u64) -> Vec<LadderGroup> {
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (i, job) in jobs.iter().enumerate() {
        match groups.iter_mut().find(|g| {
            let j = &jobs[g[0]];
            std::ptr::eq(j.workload, job.workload) && j.config == job.config
        }) {
            Some(g) => g.push(i),
            None => groups.push(vec![i]),
        }
    }
    groups
        .into_iter()
        .map(|cells| LadderGroup {
            spec: LadderSpec::for_techniques(stride, cells.iter().map(|&i| jobs[i].technique)),
            cells,
        })
        .collect()
}

impl LadderGroup {
    /// Loads the group's ladder from `store` (capturing and writing it
    /// back when absent or corrupt), or captures it when there is no
    /// store. The capture pass runs arbitrary simulation, so it is
    /// isolated like a cell: a panic comes back as `Err` with a one-line
    /// description, and the group's cells should then run unaccelerated —
    /// bit-identical results, only slower.
    pub fn build(
        &self,
        jobs: &[Job<'_>],
        store: Option<&Store>,
    ) -> Result<CheckpointLadder, String> {
        let first = &jobs[self.cells[0]];
        catch_unwind(AssertUnwindSafe(|| match store {
            Some(st) => {
                CheckpointLadder::load_or_capture(st, first.workload, &first.config, &self.spec)
            }
            None => CheckpointLadder::capture(first.workload, &first.config, &self.spec),
        }))
        .map_err(|payload| {
            format!(
                "{}: checkpoint capture panicked: {}; group ran unaccelerated",
                first.workload.name(),
                panic_message(payload)
            )
        })
    }

    /// The store keys the group's persisted ladder occupies
    /// ([`CheckpointLadder::live_keys`]): GC liveness roots.
    pub fn live_keys(&self, jobs: &[Job<'_>], store: &Store) -> Vec<u64> {
        let first = &jobs[self.cells[0]];
        CheckpointLadder::live_keys(store, first.workload, &first.config, &self.spec)
    }
}

/// The **CLI-boundary** worker-count resolver: the `PGSS_WORKERS`
/// environment variable when it parses as a positive integer, otherwise
/// the host's available parallelism. A set-but-invalid `PGSS_WORKERS` is
/// reported once to stderr instead of being silently ignored.
///
/// The library's runners never call this — they take the
/// worker count from [`CampaignConfig`]. Binaries and examples that want
/// the environment override resolve it here, once, and pass the result
/// in: `CampaignConfig::with_workers(worker_threads())`.
pub fn worker_threads() -> usize {
    worker_threads_from(std::env::var("PGSS_WORKERS").ok().as_deref())
}

/// The injected-lookup core of [`worker_threads`]: resolves the worker
/// count from an optional `PGSS_WORKERS` value, so policy is testable
/// without mutating the process-global environment.
pub fn worker_threads_from(pgss_workers: Option<&str>) -> usize {
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let Some(v) = pgss_workers else { return host };
    match v.trim().parse::<usize>() {
        Ok(n) if n >= 1 => n,
        _ => {
            // Warn once per process: campaigns call this per run, and a
            // typo'd override should be visible, not a silent fallback.
            static WARNED: std::sync::Once = std::sync::Once::new();
            WARNED.call_once(|| {
                eprintln!(
                    "pgss: ignoring PGSS_WORKERS={v:?} (not a positive integer); \
                     using host parallelism ({host})"
                );
            });
            host
        }
    }
}

/// Marker embedded in every panic message this crate's fault-injection
/// and fault-tolerance tests raise on purpose, so
/// [`silence_injected_panic_reports`] can suppress their default-hook
/// noise without touching real panics.
pub const INJECTED_PANIC_TAG: &str = "[pgss-injected-fault]";

/// Test support: installs (once per process) a panic hook that drops the
/// default "thread panicked" report for panics whose message contains
/// [`INJECTED_PANIC_TAG`], keeping fault-tolerance test output readable.
/// All other panics report exactly as before.
pub fn silence_injected_panic_reports() {
    static INSTALLED: std::sync::Once = std::sync::Once::new();
    INSTALLED.call_once(|| {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| info.payload().downcast_ref::<String>().cloned())
                .unwrap_or_default();
            if !msg.contains(INJECTED_PANIC_TAG) {
                default_hook(info);
            }
        }));
    });
}

/// Renders a caught panic payload as the message for a [`CellError`].
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs **one** campaign cell in full isolation: fresh recorder, fresh
/// fault slot, `catch_unwind` around the technique, typed-fault-outranks-
/// panic resolution. This is the single execution path for a cell — the
/// claim-loop workers here and the campaign server's workers both call
/// it, so a cell's result and metric frame are bit-identical no matter
/// which scheduler ran it.
///
/// The returned frame is the cell's **raw** driver frame; the
/// estimate-derived counters are layered on separately (at finalize
/// time here, when the cell finishes in the server) by
/// [`annotate_cell_frame`].
///
/// Only `ctx`'s ladder is inherited: the recorder and fault slot are
/// per-attempt, so faults never leak between cells or retries and a cell
/// healed by retry carries exactly the metrics of its clean run.
pub fn run_cell(job: &Job<'_>, ctx: &SimContext) -> Result<(CellResult, MetricsFrame), CellError> {
    let workload = job.workload.name().to_string();
    let technique = job.technique.name();
    let rec = Arc::new(MetricsRecorder::new());
    let cell_ctx = SimContext {
        ladder: ctx.ladder.clone(),
        recorder: Arc::clone(&rec) as Arc<dyn Recorder>,
        // Fresh per cell: faults must not leak between cells or retry
        // attempts.
        fault: Arc::new(std::sync::OnceLock::new()),
    };
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        #[cfg(feature = "fault-inject")]
        {
            crate::faults::maybe_panic_cell(&workload, &technique);
            crate::faults::maybe_stall_cell(&workload, &technique);
        }
        let _span = Span::enter(&*rec, "cell.run");
        job.technique
            .run_traced(job.workload, &job.config, &cell_ctx)
    }));
    match (cell_ctx.first_fault(), outcome) {
        // A driver pass that aborts on a machine fault deposits it before
        // anything else happens: the typed fault outranks both a
        // normally-returned (truncated) estimate and any downstream panic
        // the truncation causes in the technique (e.g. an empty sample
        // population).
        (Some(fault), _) => Err(CellError::MachineFault(fault)),
        (None, Ok((estimate, trace))) => Ok((
            CellResult {
                workload,
                technique,
                estimate,
                trace,
            },
            rec.frame(),
        )),
        (None, Err(payload)) => Err(CellError::Panicked(panic_message(payload))),
    }
}

/// Layers the estimate-derived counters (logical mode ops, sample count)
/// onto a cell's raw metric frame — the deterministic annotation behind
/// every cell's metric scope line. The library applies it when it
/// finalizes a report; the campaign server applies it once, when a cell
/// finishes, and stores the rendered scope line.
pub fn annotate_cell_frame(cell: &CellResult, frame: &mut MetricsFrame) {
    let ops = cell.estimate.mode_ops;
    frame.add("cell.ops.fast_forward", ops.fast_forward);
    frame.add("cell.ops.functional", ops.functional);
    frame.add("cell.ops.warm", ops.detailed_warming);
    frame.add("cell.ops.detail", ops.detailed_measured);
    frame.add("cell.samples", cell.estimate.samples);
}

/// Runs the cells named by `order` (indices into `jobs`) on up to
/// `threads` claim-loop workers, isolating each cell via [`run_cell`].
/// Successes are appended to `results` together with the cell's metric
/// frame, failures to `failed`; both keyed by job index, so callers can
/// merge passes and sort once at the end.
fn run_cells(
    jobs: &[Job<'_>],
    order: &[usize],
    threads: usize,
    ctx: &SimContext,
    results: &mut Vec<(usize, CellResult, MetricsFrame)>,
    failed: &mut Vec<(usize, CellError)>,
) {
    if order.is_empty() {
        return;
    }
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads.min(order.len()).max(1))
            .map(|_| {
                let cursor = &cursor;
                s.spawn(move || {
                    let mut ok = Vec::new();
                    let mut bad = Vec::new();
                    loop {
                        let k = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(&i) = order.get(k) else { break };
                        match run_cell(&jobs[i], ctx) {
                            Ok((cell, frame)) => ok.push((i, cell, frame)),
                            Err(error) => bad.push((i, error)),
                        }
                    }
                    (ok, bad)
                })
            })
            .collect();
        for worker in workers {
            match worker.join() {
                Ok((ok, bad)) => {
                    results.extend(ok);
                    failed.extend(bad);
                }
                // A panic escaping catch_unwind means the harness itself
                // is broken (cell bookkeeping, not a technique): propagate.
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
}

/// Runs the cells named by `order` under `ctx` with isolation and retry:
/// a first pass over `order`, then up to `retry.max_attempts - 1`
/// seeded-order retry passes over whatever failed, then a ledger for the
/// rest.
fn execute(
    jobs: &[Job<'_>],
    order: &[usize],
    ctx: &SimContext,
    config: &CampaignConfig,
    results: &mut Vec<(usize, CellResult, MetricsFrame)>,
    report: &mut CampaignReport,
) {
    let (threads, retry) = (config.workers, &config.retry);
    let mut failed: Vec<(usize, CellError)> = Vec::new();
    run_cells(jobs, order, threads, ctx, results, &mut failed);
    for attempt in 2..=retry.max_attempts {
        if failed.is_empty() {
            break;
        }
        // Deterministic, seeded retry order: canonical (sorted) base,
        // shuffled by (seed, attempt) — reproducible run to run.
        let mut again: Vec<usize> = failed.iter().map(|&(i, _)| i).collect();
        again.sort_unstable();
        let mut rng = DetRng::seed_from_u64(
            retry
                .seed
                .wrapping_add(u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        );
        rng.shuffle(&mut again);
        report.retries += again.len() as u64;
        failed.clear();
        run_cells(jobs, &again, threads, ctx, results, &mut failed);
    }
    report
        .failures
        .extend(failed.into_iter().map(|(job_index, error)| {
            let job = &jobs[job_index];
            CellFailure {
                job_index,
                workload: job.workload.name().to_string(),
                technique: job.technique.name(),
                attempts: retry.max_attempts,
                error,
            }
        }));
}

/// Folds per-cell metric frames and the campaign-level recorder into
/// `report`: cells are sorted into job order, fold-time cell counters
/// (logical mode ops, sample counts) and the campaign-wide detail-share
/// distribution are derived from the estimates, and the metrics report is
/// assembled as the `"campaign"` scope followed by one scope per cell.
///
/// Everything here runs on the campaign thread in job order — Welford
/// folding order is part of the determinism contract, so the same cells
/// produce the same bytes no matter how many workers computed them.
fn finalize(
    report: &mut CampaignReport,
    mut results: Vec<(usize, CellResult, MetricsFrame)>,
    campaign_rec: &MetricsRecorder,
) {
    results.sort_unstable_by_key(|&(i, _, _)| i);
    campaign_rec.add("campaign.cells.ok", results.len() as u64);
    campaign_rec.add("campaign.cells.failed", report.failures.len() as u64);
    campaign_rec.add("campaign.retries", report.retries);
    campaign_rec.register_hist("campaign.detail_share", 0.0, 1.0, 20);
    for (_, cell, frame) in &mut results {
        let ops = cell.estimate.mode_ops;
        annotate_cell_frame(cell, frame);
        if ops.total() > 0 {
            let share = ops.detailed() as f64 / ops.total() as f64;
            campaign_rec.observe("campaign.detail_share", share);
            campaign_rec.record_hist("campaign.detail_share", share);
        }
    }
    let mut metrics = MetricsReport::new();
    metrics.push_scope("campaign", campaign_rec.frame());
    report.cells = results
        .into_iter()
        .map(|(_, cell, frame)| {
            metrics.push_scope(cell.scope_name(), frame);
            cell
        })
        .collect();
    report.metrics = metrics;
}

/// Runs `jobs` under an explicit [`CampaignConfig`], returning a
/// [`CampaignReport`] whose successful cells are **in job order** —
/// output is identical for any worker count.
///
/// Workers claim the next unclaimed job from an atomic cursor, so long
/// cells (FullDetailed on the largest workload) never leave other workers
/// idle behind a static partition. A panicking technique costs only its
/// own cell (see the module docs); `workers == 0` or a zero-attempt retry
/// policy is reported as [`CampaignError::InvalidConfig`].
pub fn run_with(
    jobs: &[Job<'_>],
    config: &CampaignConfig,
) -> Result<CampaignReport, CampaignError> {
    run_campaign(jobs, config, None)
}

/// Runs `jobs` like [`run_with`], with checkpoint acceleration: each
/// distinct (workload, config) group's shared functional fast-forward
/// prefix is captured **once** into a [`CheckpointLadder`] (rungs every
/// `stride` retired ops, carrying every BBV track the group's techniques
/// declare, see [`LadderSpec::for_techniques`]) and fanned out to all of
/// the group's cells, whose drivers then restore instead of re-executing
/// functional stretches.
///
/// Results are **identical** to [`run_with`] on the same jobs —
/// estimates, traces, ordering — because driver jumps are bit-exact and
/// logically charged; only the physical work changes, summarised in
/// [`CampaignReport::ladder`] (capture cost, jumps, skipped vs. executed
/// ops, and [`LadderReport::executed_ratio`]).
///
/// With a [`Store`], ladders are read from / written back to disk, so a
/// re-run of the same campaign (same workloads, configs, stride, tracks,
/// snapshot format) skips capture entirely. Store faults degrade, never
/// abort: corrupt records are quarantined and recaptured (self-healing),
/// I/O errors fall back to capture, and a panicking capture pass demotes
/// its group to unaccelerated execution — each event is recorded in
/// [`CampaignReport::checkpoint_faults`], and none of them changes any
/// cell's bits. Groups are processed sequentially so at most one
/// workload's ladder is resident; cells within a group run on the
/// configured worker count ([`CampaignConfig::workers`]).
///
/// `stride == 0` is reported as [`CampaignError::InvalidConfig`].
pub fn run_checkpointed_with(
    jobs: &[Job<'_>],
    stride: u64,
    store: Option<&Store>,
    config: &CampaignConfig,
) -> Result<CampaignReport, CampaignError> {
    run_campaign(jobs, config, Some((stride, store)))
}

/// The one campaign engine behind [`run_with`] and
/// [`run_checkpointed_with`]: validation, the `campaign.run` span, cell
/// execution and the report fold. Checkpointing — a rung stride and the
/// store ladders persist in, if any — changes only how jobs are grouped
/// and which [`SimContext`] each group runs under.
fn run_campaign(
    jobs: &[Job<'_>],
    config: &CampaignConfig,
    checkpointing: Option<(u64, Option<&Store>)>,
) -> Result<CampaignReport, CampaignError> {
    config.validate()?;
    let mut report = CampaignReport::default();
    if let Some((stride, _)) = checkpointing {
        if stride == 0 {
            return Err(CampaignError::InvalidConfig {
                param: "stride",
                reason: "checkpoint ladders need a positive rung stride".to_string(),
            });
        }
        if jobs.is_empty() {
            return Ok(report);
        }
    }
    let campaign_rec = Arc::new(MetricsRecorder::new());
    campaign_rec.add("campaign.jobs", jobs.len() as u64);
    let mut results = Vec::with_capacity(jobs.len());
    let campaign_span = Span::enter(&*campaign_rec, "campaign.run");
    match checkpointing {
        // One pass over every job, so no worker idles at a group boundary.
        None => {
            let order: Vec<usize> = (0..jobs.len()).collect();
            let ctx = SimContext::none();
            execute(jobs, &order, &ctx, config, &mut results, &mut report);
        }
        Some(ck) => run_groups(jobs, ck, config, &campaign_rec, &mut results, &mut report),
    }
    drop(campaign_span);
    report.failures.sort_unstable_by_key(|f| f.job_index);
    finalize(&mut report, results, &campaign_rec);
    Ok(report)
}

/// The checkpointed half of [`run_campaign`]: groups cells sharing a
/// workload and configuration, captures (or loads) one ladder per group
/// and runs the group's cells against it.
fn run_groups(
    jobs: &[Job<'_>],
    (stride, store): (u64, Option<&Store>),
    config: &CampaignConfig,
    campaign_rec: &Arc<MetricsRecorder>,
    results: &mut Vec<(usize, CellResult, MetricsFrame)>,
    report: &mut CampaignReport,
) {
    // Route the store's hit/miss/quarantine/byte counters into the
    // campaign scope. All store traffic happens on this thread (groups
    // are processed sequentially), so the counters are deterministic.
    let store = store.map(|st| st.clone().with_recorder(Arc::clone(campaign_rec) as _));
    let groups = ladder_groups(jobs, stride);
    campaign_rec.add("campaign.groups", groups.len() as u64);
    for group in &groups {
        let ladder = match group.build(jobs, store.as_ref()) {
            Ok(ladder) => {
                report
                    .checkpoint_faults
                    .extend(ladder.fault_log().iter().cloned());
                Some(Arc::new(ladder))
            }
            Err(fault) => {
                report.checkpoint_faults.push(fault);
                None
            }
        };
        let ctx = ladder.as_ref().map_or_else(SimContext::none, |ladder| {
            SimContext::with_ladder(Arc::clone(ladder))
        });
        execute(jobs, &group.cells, &ctx, config, results, report);
        if let Some(ladder) = ladder {
            report.ladder.merge(&ladder.report());
        }
    }
    // Mirror the ladder accounting as campaign-scope counters so the
    // JSONL export carries the acceleration story alongside the cells.
    campaign_rec.add("ckpt.ladder.jumps", report.ladder.jumps);
    campaign_rec.add("ckpt.ladder.skipped_ops", report.ladder.skipped_ops);
    campaign_rec.add("ckpt.ladder.executed_ops", report.ladder.executed_ops);
    campaign_rec.add("ckpt.ladder.capture_ops", report.ladder.capture_ops);
    campaign_rec.add(
        "campaign.checkpoint_faults",
        report.checkpoint_faults.len() as u64,
    );
}

#[cfg(test)]
// Tests may unwrap: a panic here is a test failure, not a lost campaign.
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::{PgssSim, Smarts, TurboSmarts};
    use std::sync::atomic::AtomicU32;

    fn suite() -> Vec<Workload> {
        vec![
            pgss_workloads::gzip(0.01),
            pgss_workloads::mesa(0.01),
            pgss_workloads::twolf(0.01),
        ]
    }

    fn techniques() -> (Smarts, TurboSmarts, PgssSim) {
        let smarts = Smarts {
            period_ops: 50_000,
            ..Smarts::default()
        };
        (
            smarts,
            TurboSmarts {
                smarts,
                ..TurboSmarts::default()
            },
            PgssSim {
                ff_ops: 50_000,
                spacing_ops: 50_000,
                ..PgssSim::default()
            },
        )
    }

    /// Delegates to SMARTS but panics on one workload — a deterministic
    /// "poisoned cell".
    struct Exploder {
        inner: Smarts,
        on: &'static str,
    }

    impl Technique for Exploder {
        fn name(&self) -> String {
            format!("Exploder({})", self.inner.name())
        }
        fn run_traced(
            &self,
            workload: &Workload,
            config: &MachineConfig,
            ctx: &SimContext,
        ) -> (Estimate, RunTrace) {
            assert!(
                workload.name() != self.on,
                "{INJECTED_PANIC_TAG} deliberate test panic for {}",
                self.on
            );
            self.inner.run_traced(workload, config, ctx)
        }
    }

    /// Panics on the first `flakes` attempts of one workload's cell, then
    /// behaves — a deterministic transient fault.
    struct Flaky {
        inner: Smarts,
        on: &'static str,
        flakes: AtomicU32,
    }

    impl Technique for Flaky {
        fn name(&self) -> String {
            format!("Flaky({})", self.inner.name())
        }
        fn run_traced(
            &self,
            workload: &Workload,
            config: &MachineConfig,
            ctx: &SimContext,
        ) -> (Estimate, RunTrace) {
            if workload.name() == self.on {
                let left = self
                    .flakes
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
                    .is_ok();
                assert!(!left, "{INJECTED_PANIC_TAG} transient test panic");
            }
            self.inner.run_traced(workload, config, ctx)
        }
    }

    /// A machine fault during a cell's driver passes fails the cell with
    /// the typed [`CellError::MachineFault`] — no panic, no unwinding —
    /// and leaves the rest of the grid untouched.
    #[test]
    fn machine_faults_surface_as_typed_cell_errors() {
        use pgss_workloads::{Kernel, WorkloadBuilder};
        let faulty = {
            let mut b = WorkloadBuilder::new("faulty", 3);
            let seg = b.add_segment(Kernel::ComputeInt {
                chains: 2,
                ops_per_chain: 4,
            });
            b.run(seg, 10_000);
            b.poison_dispatch();
            b.finish()
        };
        let healthy = pgss_workloads::gzip(0.01);
        let (smarts, _, _) = techniques();
        let full = crate::FullDetailed::new();
        let jobs = vec![
            Job::new(&faulty, &smarts),
            Job::new(&faulty, &full),
            Job::new(&healthy, &smarts),
        ];
        let report = run_with(&jobs, &CampaignConfig::with_workers(2)).unwrap();
        assert_eq!(report.failures.len(), 2);
        for (failure, technique) in report.failures.iter().zip([smarts.name(), full.name()]) {
            assert_eq!(failure.workload, "faulty");
            assert_eq!(failure.technique, technique);
            assert!(
                matches!(
                    failure.error,
                    CellError::MachineFault(pgss_cpu::MachineFault::IndirectJumpOutOfRange { .. })
                ),
                "expected a typed machine fault, got {:?}",
                failure.error
            );
        }
        // Faults are deterministic, so retrying the cell cannot help and
        // the healthy cell must be unaffected.
        assert!(report.cell("164.gzip", &smarts.name()).is_some());
        assert!(report.cell("faulty", &smarts.name()).is_none());
    }

    #[test]
    fn grid_is_workload_major() {
        let workloads = suite();
        let (smarts, turbo, pgss) = techniques();
        let techs: Vec<&(dyn Technique + Sync)> = vec![&smarts, &turbo, &pgss];
        let jobs = grid(&workloads, &techs, MachineConfig::default());
        assert_eq!(jobs.len(), 9);
        assert_eq!(jobs[0].workload.name(), "164.gzip");
        assert_eq!(jobs[2].workload.name(), "164.gzip");
        assert_eq!(jobs[3].workload.name(), "177.mesa");
        assert_eq!(jobs[1].technique.name(), turbo.name());
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let workloads = suite();
        let (smarts, turbo, pgss) = techniques();
        let techs: Vec<&(dyn Technique + Sync)> = vec![&smarts, &turbo, &pgss];
        let jobs = grid(&workloads, &techs, MachineConfig::default());
        let serial = run_with(&jobs, &CampaignConfig::with_workers(1)).unwrap();
        let parallel = run_with(&jobs, &CampaignConfig::with_workers(4)).unwrap();
        assert_eq!(serial, parallel);
        assert!(serial.is_complete());
        assert_eq!(serial.retries, 0);
        let names: Vec<_> = serial
            .cells
            .iter()
            .map(|c| (c.workload.as_str(), c.technique.clone()))
            .collect();
        assert_eq!(names[0].0, "164.gzip");
        assert_eq!(names[8].0, "300.twolf");
    }

    #[test]
    fn cells_match_direct_runs() {
        let w = pgss_workloads::gzip(0.01);
        let (smarts, _, _) = techniques();
        let jobs = vec![Job::new(&w, &smarts)];
        let report = run_with(&jobs, &CampaignConfig::default()).unwrap();
        let (estimate, trace) =
            smarts.run_traced(&w, &MachineConfig::default(), &SimContext::none());
        assert_eq!(report.cells[0].estimate, estimate);
        assert_eq!(report.cells[0].trace, trace);
        assert_eq!(report.cells[0].workload, "164.gzip");
        assert_eq!(
            report.cell("164.gzip", &smarts.name()).unwrap().estimate,
            estimate
        );
        assert!(report.cell("164.gzip", "nonesuch").is_none());
    }

    #[test]
    fn empty_campaign_is_empty() {
        assert!(run_with(&[], &CampaignConfig::with_workers(8))
            .unwrap()
            .cells
            .is_empty());
        let report = run_checkpointed_with(&[], 100_000, None, &CampaignConfig::default()).unwrap();
        assert!(report.cells.is_empty());
        assert!(report.is_complete());
        assert_eq!(report.ladder, crate::ckpt::LadderReport::default());
    }

    #[test]
    fn checkpointed_campaign_matches_plain_with_fewer_executed_ops() {
        let workloads = vec![pgss_workloads::gzip(0.01), pgss_workloads::twolf(0.01)];
        let (smarts, turbo, pgss) = techniques();
        let techs: Vec<&(dyn Technique + Sync)> = vec![&smarts, &turbo, &pgss];
        let jobs = grid(&workloads, &techs, MachineConfig::default());
        let plain = run_with(&jobs, &CampaignConfig::default()).unwrap();
        let fast = run_checkpointed_with(&jobs, 25_000, None, &CampaignConfig::default()).unwrap();
        assert_eq!(
            plain.cells, fast.cells,
            "acceleration must not change any cell"
        );
        assert!(fast.is_complete());
        assert!(fast.checkpoint_faults.is_empty());
        // The campaign scope mirrors the ladder accounting as counters.
        let scope = fast.metrics.scope("campaign").unwrap();
        assert_eq!(scope.counter("ckpt.ladder.jumps"), fast.ladder.jumps);
        assert_eq!(
            scope.counter("ckpt.ladder.skipped_ops"),
            fast.ladder.skipped_ops
        );
        assert_eq!(scope.counter("campaign.groups"), 2);
        let report = fast.ladder;
        assert!(report.jumps > 0);
        assert!(report.skipped_ops > 0);
        assert!(
            report.total_executed() < report.baseline_ops(),
            "executed {} must beat baseline {}",
            report.total_executed(),
            report.baseline_ops()
        );
        assert!(report.executed_ratio() < 1.0);
    }

    #[test]
    fn metrics_are_deterministic_and_mirror_the_cells() {
        let workloads = vec![pgss_workloads::gzip(0.01)];
        let (smarts, _, pgss) = techniques();
        let techs: Vec<&(dyn Technique + Sync)> = vec![&smarts, &pgss];
        let jobs = grid(&workloads, &techs, MachineConfig::default());
        let a = run_with(&jobs, &CampaignConfig::with_workers(1)).unwrap();
        let b = run_with(&jobs, &CampaignConfig::with_workers(4)).unwrap();
        assert_eq!(a.metrics, b.metrics, "metrics must not depend on workers");
        assert_eq!(a.metrics.to_jsonl(), b.metrics.to_jsonl());

        let campaign = a.metrics.scope("campaign").unwrap();
        assert_eq!(campaign.counter("campaign.jobs"), 2);
        assert_eq!(campaign.counter("campaign.cells.ok"), 2);
        assert_eq!(campaign.counter("campaign.cells.failed"), 0);
        assert_eq!(campaign.counter("campaign.retries"), 0);
        assert_eq!(campaign.span("campaign.run").unwrap().count, 1);
        assert_eq!(campaign.dists["campaign.detail_share"].count(), 2);
        assert_eq!(campaign.hists["campaign.detail_share"].total(), 2);

        // Scope order: campaign first, then one scope per cell in job
        // order, each mirroring that cell's estimate accounting and the
        // driver's own logical-op counters.
        assert_eq!(a.metrics.scopes.len(), 1 + a.cells.len());
        for (cell, (name, frame)) in a.cells.iter().zip(&a.metrics.scopes[1..]) {
            assert_eq!(name, &format!("{}/{}", cell.workload, cell.technique));
            let ops = cell.estimate.mode_ops;
            assert_eq!(frame.counter("cell.ops.detail"), ops.detailed_measured);
            assert_eq!(frame.counter("cell.ops.functional"), ops.functional);
            assert_eq!(frame.counter("cell.samples"), cell.estimate.samples);
            assert_eq!(frame.counter("driver.ops.detail"), ops.detailed_measured);
            assert_eq!(frame.span("cell.run").unwrap().count, 1);
        }
    }

    #[test]
    fn worker_threads_lookup_is_hermetic() {
        // No process-global env mutation: values are injected directly.
        let host = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(worker_threads_from(None), host);
        assert_eq!(worker_threads_from(Some("3")), 3);
        assert_eq!(worker_threads_from(Some(" 5 ")), 5);
        assert_eq!(worker_threads_from(Some("not-a-number")), host);
        assert_eq!(worker_threads_from(Some("0")), host);
        assert_eq!(worker_threads_from(Some("-2")), host);
        assert_eq!(worker_threads_from(Some("")), host);
    }

    #[test]
    fn zero_threads_is_invalid_config_not_a_panic() {
        let w = pgss_workloads::twolf(0.002);
        let (smarts, _, _) = techniques();
        let jobs = vec![Job::new(&w, &smarts)];
        let err = run_with(&jobs, &CampaignConfig::with_workers(0)).unwrap_err();
        assert!(matches!(
            err,
            CampaignError::InvalidConfig {
                param: "threads",
                ..
            }
        ));
        assert!(err.to_string().contains("at least one worker"));
        let config = CampaignConfig {
            workers: 2,
            retry: RetryPolicy {
                max_attempts: 0,
                seed: 0,
            },
        };
        let err = run_with(&jobs, &config).unwrap_err();
        assert!(matches!(
            err,
            CampaignError::InvalidConfig {
                param: "retry.max_attempts",
                ..
            }
        ));
    }

    #[test]
    fn zero_stride_is_invalid_config_not_a_panic() {
        let w = pgss_workloads::twolf(0.002);
        let (smarts, _, _) = techniques();
        let jobs = vec![Job::new(&w, &smarts)];
        let err = run_checkpointed_with(&jobs, 0, None, &CampaignConfig::default()).unwrap_err();
        assert!(matches!(
            err,
            CampaignError::InvalidConfig {
                param: "stride",
                ..
            }
        ));
    }

    #[test]
    fn panicking_cell_is_isolated_and_ledgered() {
        silence_injected_panic_reports();
        let workloads = suite();
        let (smarts, _, _) = techniques();
        let exploder = Exploder {
            inner: smarts,
            on: "177.mesa",
        };
        let techs: Vec<&(dyn Technique + Sync)> = vec![&exploder, &smarts];
        let jobs = grid(&workloads, &techs, MachineConfig::default());
        let report = run_with(&jobs, &CampaignConfig::with_workers(4)).unwrap();

        // Exactly the poisoned cell failed, after the full retry budget.
        assert_eq!(report.failures.len(), 1);
        let failure = &report.failures[0];
        assert_eq!(failure.workload, "177.mesa");
        assert_eq!(failure.technique, exploder.name());
        assert_eq!(failure.attempts, RetryPolicy::default().max_attempts);
        assert_eq!(failure.job_index, 2);
        let CellError::Panicked(msg) = &failure.error else {
            panic!("expected a panic error, got {:?}", failure.error);
        };
        assert!(
            msg.contains(INJECTED_PANIC_TAG),
            "unexpected message {msg:?}"
        );
        assert_eq!(report.retries, 1, "one retry for the one failed cell");
        assert!(!report.is_complete());
        assert!(report.ledger().contains("177.mesa"));
        assert!(report.into_cells().is_err());

        // Every other cell is bit-identical to a direct, fault-free run.
        let report = run_with(&jobs, &CampaignConfig::with_workers(4)).unwrap();
        assert_eq!(report.cells.len(), jobs.len() - 1);
        for cell in &report.cells {
            let w = workloads
                .iter()
                .find(|w| w.name() == cell.workload)
                .unwrap();
            let (estimate, trace) =
                smarts.run_traced(w, &MachineConfig::default(), &SimContext::none());
            assert_eq!(
                cell.estimate, estimate,
                "{} × {}",
                cell.workload, cell.technique
            );
            assert_eq!(cell.trace, trace);
        }
    }

    #[test]
    fn transient_panic_heals_via_deterministic_retry() {
        silence_injected_panic_reports();
        let workloads = suite();
        let (smarts, _, _) = techniques();
        let run_once = || {
            let flaky = Flaky {
                inner: smarts,
                on: "300.twolf",
                flakes: AtomicU32::new(1),
            };
            let techs: Vec<&(dyn Technique + Sync)> = vec![&flaky];
            let jobs = grid(&workloads, &techs, MachineConfig::default());
            run_with(&jobs, &CampaignConfig::with_workers(2)).unwrap()
        };
        let report = run_once();
        assert!(report.is_complete(), "retry must heal a transient fault");
        assert_eq!(report.retries, 1);
        assert_eq!(report.cells.len(), 3);
        // The healed cell's result is bit-identical to the underlying
        // technique's fault-free run.
        let (estimate, trace) = smarts.run_traced(
            &workloads[2],
            &MachineConfig::default(),
            &SimContext::none(),
        );
        assert_eq!(report.cells[2].estimate, estimate);
        assert_eq!(report.cells[2].trace, trace);
        // Same faults, same seed: byte-identical reports.
        let second = run_once();
        assert_eq!(report, second);
        assert_eq!(format!("{report:?}"), format!("{second:?}"));
    }

    #[test]
    fn exhausted_retries_keep_remaining_cells_and_report_attempts() {
        silence_injected_panic_reports();
        let workloads = suite();
        let (smarts, _, _) = techniques();
        let flaky = Flaky {
            inner: smarts,
            on: "164.gzip",
            flakes: AtomicU32::new(u32::MAX), // never heals
        };
        let techs: Vec<&(dyn Technique + Sync)> = vec![&flaky];
        let jobs = grid(&workloads, &techs, MachineConfig::default());
        let retry = RetryPolicy {
            max_attempts: 3,
            seed: 7,
        };
        let report = run_with(&jobs, &CampaignConfig { workers: 2, retry }).unwrap();
        assert_eq!(report.failures.len(), 1);
        assert_eq!(report.failures[0].attempts, 3);
        assert_eq!(report.retries, 2, "two retry passes over the one cell");
        assert_eq!(report.cells.len(), 2);
    }
}
