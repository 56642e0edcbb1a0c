//! Parallel campaign runner: fan a workload × technique matrix across
//! threads, isolating faults so one bad cell never kills the grid.
//!
//! The paper's figures are all *campaigns* — every benchmark in the suite
//! run under every technique under comparison. Because a technique run is
//! "construct [`crate::driver::SimDriver`]s, loop over segments" with no shared
//! mutable state, cells are embarrassingly parallel: workers claim jobs
//! from one [`CellQueue`] and results are returned **in job order**
//! regardless of thread count or scheduling, so campaign output is
//! deterministic and directly comparable across runs.
//!
//! # Fault tolerance
//!
//! A production campaign over thousands of cells cannot be all-or-nothing.
//! Every cell runs under [`std::panic::catch_unwind`], so a panicking
//! technique costs exactly its own cell; failed cells are retried a
//! bounded, deterministic number of times (see [`RetryPolicy`] — no
//! wall-clock backoff, and retry counts and the ledger do not depend on
//! retry order, so two runs of the same campaign produce byte-identical
//! reports); whatever still fails lands in the
//! [`CampaignReport::failures`] ledger with its
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

use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

use pgss_ckpt::Store;
use pgss_cpu::MachineConfig;
use pgss_obs::{scope_line, MetricsFrame, MetricsRecorder, MetricsReport, Recorder, Span};
use pgss_workloads::Workload;

use crate::ckpt::{CheckpointLadder, LadderReport, LadderSpec, SimContext};
use crate::driver::RunTrace;
use crate::estimate::{Estimate, Technique};
use crate::wire;

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
/// A failed attempt goes to the back of the [`CellQueue`]. Retry order
/// reaches no output: the retry count and the failure ledger (in job
/// order) are the same whichever order retries run in, so reports are
/// byte-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per cell (first run included); 1 disables retry.
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy { max_attempts: 2 }
    }
}

impl RetryPolicy {
    /// No retries: one attempt per cell.
    pub fn none() -> RetryPolicy {
        RetryPolicy { max_attempts: 1 }
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
    /// Worker threads that run cells; must be at least 1. A checkpointed
    /// campaign builds its ladders on the calling thread.
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
/// (same jobs, same faults) produce `==`, byte-identical reports
/// regardless of thread count.
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
    /// capture-pass panics — one human-readable line each, in group order.
    /// These are informational: the affected cells still produced
    /// bit-exact results via recapture or unaccelerated execution.
    pub checkpoint_faults: Vec<String>,
    /// Observability: a `"campaign"` scope (job/retry/failure counters,
    /// checkpoint-store and ladder accounting, detail-share distribution)
    /// followed by one `"workload/technique"` scope per successful cell in
    /// job order, each carrying that cell's driver counters. Per-cell
    /// frames are folded in job order once the workers finish, so the
    /// report — and its [`MetricsReport::to_jsonl`] export — is
    /// byte-identical regardless of the worker count (span wall times are
    /// excluded from comparison and export; see `pgss_obs`).
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
    /// [`crate::wire::canonical_artifact`] over this report's rendered cell,
    /// failure and scope lines; the server assembles its reports with it
    /// too, from the lines it stored when each cell settled.
    pub fn canonical_jsonl(&self) -> String {
        let cell_lines = self.cells.iter().map(wire::canonical_cell_line).collect();
        let failure_lines = self
            .failures
            .iter()
            .map(wire::canonical_failure_line)
            .collect();
        let scope_lines = self
            .metrics
            .scopes
            .iter()
            .filter(|(name, _)| name != "campaign")
            .map(|(name, frame)| scope_line(name, frame))
            .collect();
        let mut out =
            wire::canonical_artifact(cell_lines, failure_lines, self.retries, scope_lines)
                .join("\n");
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

    /// The store key of the group's ladder record, whether or not the
    /// record exists yet: a GC liveness root.
    pub fn key(&self, jobs: &[Job<'_>]) -> u64 {
        let first = &jobs[self.cells[0]];
        CheckpointLadder::key(first.workload, &first.config, &self.spec)
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
/// library's [`CellQueue`] workers and the campaign server's workers both
/// call it, so a cell's result and metric frame are bit-identical no
/// matter which of them ran it.
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

/// A ladder group's checkpoint ladder as a [`CellQueue`] tracks it.
enum LadderSlot {
    NotBuilt,
    Building,
    /// `None` runs the group unaccelerated: a plain campaign, a failed
    /// [`LadderGroup::build`], or a group whose cells all settled.
    Ready(Option<Arc<CheckpointLadder>>),
}

/// A unit of work claimed from a [`CellQueue`].
pub enum Work {
    /// Build ladder group `.0` and report it with [`CellQueue::built`].
    Build(usize),
    /// Run a cell and settle it with [`CellQueue::done`] or
    /// [`CellQueue::fail`].
    Cell {
        /// The cell's index in the job slice.
        cell: usize,
        /// Its group's ladder; `None` runs it unaccelerated.
        ladder: Option<Arc<CheckpointLadder>>,
    },
}

/// The campaign work queue: the one scheduler behind [`run_with`],
/// [`run_checkpointed_with`] and the campaign server. Callers claim and
/// settle under their own lock and run the work outside it.
///
/// A claim hands out the first pending cell, in pending order, whose
/// group's ladder is ready; failing that, the build of the first pending
/// cell's unbuilt group. [`CellQueue::claim_cell`] and
/// [`CellQueue::claim_build`] hand out one kind each, by the same rule;
/// one thread making every build of a fresh queue makes them in group
/// order, so their checkpoint faults come in group order. A failed
/// attempt goes to the back of the pending order while
/// [`RetryPolicy::max_attempts`] lasts; after that its ledger entry (an
/// `F`) is kept in cell order.
///
/// When a group's last cell settles, its ladder is dropped and its
/// [`LadderReport`] merged. A build is claimed only when no ready group
/// has pending cells, so every resident ladder has a cell in flight or is
/// being built: `n` claimers — say `n - 1` that run cells and one that
/// builds — hold at most `n` ladders, and a settled or cancelled queue
/// holds none.
pub struct CellQueue<F> {
    group_of: Vec<usize>,
    /// Per group: its ladder, and its cells not yet settled or cancelled.
    groups: Vec<(LadderSlot, usize)>,
    pending: VecDeque<usize>,
    done: Vec<bool>,
    done_count: usize,
    failed_attempts: Vec<u32>,
    in_flight: usize,
    max_attempts: u32,
    retries: u64,
    failures: Vec<(usize, F)>,
    ladder: LadderReport,
    faults: Vec<String>,
}

impl<F> CellQueue<F> {
    /// A queue over jobs `0..cells`, all pending. The cells of each of
    /// `groups` ([`ladder_groups`]) share a ladder built on demand; any
    /// other cell runs unaccelerated, in one group that is ready from the
    /// start, so with no groups claims come in job order.
    pub fn new(cells: usize, groups: &[LadderGroup], retry: &RetryPolicy) -> CellQueue<F> {
        let mut group_of = vec![groups.len(); cells];
        for (g, group) in groups.iter().enumerate() {
            for &i in &group.cells {
                group_of[i] = g;
            }
        }
        let ungrouped = group_of.iter().filter(|&&g| g == groups.len()).count();
        let slots = groups.iter().map(|g| (LadderSlot::NotBuilt, g.cells.len()));
        CellQueue {
            group_of,
            groups: slots
                .chain([(LadderSlot::Ready(None), ungrouped)])
                .collect(),
            pending: (0..cells).collect(),
            done: vec![false; cells],
            done_count: 0,
            failed_attempts: vec![0; cells],
            in_flight: 0,
            max_attempts: retry.max_attempts,
            retries: 0,
            failures: Vec::new(),
            ladder: LadderReport::default(),
            faults: Vec::new(),
        }
    }

    /// The next unit of work, or `None` while nothing is claimable: the
    /// first pending cell whose group's ladder is ready, else the build
    /// of the first pending cell's unbuilt group.
    pub fn claim(&mut self) -> Option<Work> {
        self.claim_cell()
            .or_else(|| self.claim_build().map(Work::Build))
    }

    /// The cell [`CellQueue::claim`] would hand out, if any.
    pub fn claim_cell(&mut self) -> Option<Work> {
        let ready = self.pending.iter().enumerate().find_map(|(pos, &i)| {
            match &self.groups[self.group_of[i]].0 {
                LadderSlot::Ready(ladder) => Some((pos, ladder.clone())),
                _ => None,
            }
        });
        let (pos, ladder) = ready?;
        let cell = self.pending.remove(pos)?;
        self.in_flight += 1;
        Some(Work::Cell { cell, ladder })
    }

    /// The build [`CellQueue::claim`] would hand out, if any: only when no
    /// pending cell's group is ready.
    pub fn claim_build(&mut self) -> Option<usize> {
        let slot = |i: &usize| &self.groups[self.group_of[*i]].0;
        if self
            .pending
            .iter()
            .any(|i| matches!(slot(i), LadderSlot::Ready(_)))
        {
            return None;
        }
        let group = self
            .pending
            .iter()
            .map(|&i| self.group_of[i])
            .find(|&g| matches!(self.groups[g].0, LadderSlot::NotBuilt))?;
        self.groups[group].0 = LadderSlot::Building;
        Some(group)
    }

    /// Reports a claimed build: the group's cells become claimable, with
    /// the ladder, or unaccelerated after a failed build. Its fault notes
    /// join the checkpoint-fault log.
    pub fn built(&mut self, group: usize, built: Result<CheckpointLadder, String>) {
        self.groups[group].0 = LadderSlot::Ready(match built {
            Ok(ladder) => {
                self.faults.extend_from_slice(ladder.fault_log());
                Some(Arc::new(ladder))
            }
            Err(fault) => {
                self.faults.push(fault);
                None
            }
        });
        if self.groups[group].1 == 0 {
            self.release(group);
        }
    }

    /// Settles a claimed cell that succeeded.
    pub fn done(&mut self, cell: usize) {
        self.in_flight -= 1;
        self.settle_done(cell);
    }

    /// Settles a claimed cell's failed attempt: requeues it and returns
    /// `true` while its retry budget lasts, else ledgers `ledger(attempts)`.
    pub fn fail(&mut self, cell: usize, ledger: impl FnOnce(u32) -> F) -> bool {
        self.in_flight -= 1;
        self.failed_attempts[cell] += 1;
        let attempts = self.failed_attempts[cell];
        if attempts < self.max_attempts {
            self.retries += 1;
            self.pending.push_back(cell);
            return true;
        }
        self.ledger(cell, ledger(attempts));
        false
    }

    /// Settles a claimed cell of a cancelled campaign: neither done nor
    /// ledgered.
    pub fn abandon(&mut self, cell: usize) {
        self.in_flight -= 1;
        self.close(cell);
    }

    /// Drops every pending cell; cells in flight settle as they return.
    pub fn cancel(&mut self) {
        for cell in std::mem::take(&mut self.pending) {
            self.close(cell);
        }
    }

    /// Marks a pending cell done unrun (a result recorded before a
    /// restart); a cell that is not pending is left as it is.
    pub fn mark_done(&mut self, cell: usize) {
        if self.take_pending(cell) {
            self.settle_done(cell);
        }
    }

    /// Ledgers a pending cell unrun (a failure recorded before a restart);
    /// a cell that is not pending is left as it is.
    pub fn mark_failed(&mut self, cell: usize, entry: F) {
        if self.take_pending(cell) {
            self.ledger(cell, entry);
        }
    }

    /// Adds retries recorded before a restart to the retry count.
    pub fn add_retries(&mut self, retries: u64) {
        self.retries += retries;
    }

    fn take_pending(&mut self, cell: usize) -> bool {
        let pos = self.pending.iter().position(|&i| i == cell);
        pos.and_then(|pos| self.pending.remove(pos)).is_some()
    }

    fn settle_done(&mut self, cell: usize) {
        self.done[cell] = true;
        self.done_count += 1;
        self.close(cell);
    }

    fn ledger(&mut self, cell: usize, entry: F) {
        let at = self.failures.partition_point(|&(i, _)| i < cell);
        self.failures.insert(at, (cell, entry));
        self.close(cell);
    }

    fn close(&mut self, cell: usize) {
        let group = self.group_of[cell];
        self.groups[group].1 -= 1;
        if self.groups[group].1 == 0 {
            self.release(group);
        }
    }

    /// Drops a settled group's ladder; a build in flight is dropped by
    /// [`CellQueue::built`] instead.
    fn release(&mut self, group: usize) {
        if let LadderSlot::Ready(slot) = &mut self.groups[group].0 {
            if let Some(ladder) = slot.take() {
                self.ladder.merge(&ladder.report());
            }
        }
    }

    /// Cells in the campaign.
    pub fn cell_count(&self) -> usize {
        self.done.len()
    }

    /// Cells done so far.
    pub fn done_count(&self) -> usize {
        self.done_count
    }

    /// Whether `cell` is done.
    pub fn is_done(&self, cell: usize) -> bool {
        self.done[cell]
    }

    /// Claimed cells not yet settled.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Whether a claimed build is not reported yet.
    pub fn is_building(&self) -> bool {
        self.groups
            .iter()
            .any(|g| matches!(g.0, LadderSlot::Building))
    }

    /// Whether every cell is done or ledgered.
    pub fn is_settled(&self) -> bool {
        self.done_count + self.failures.len() == self.cell_count()
    }

    /// Failed attempts that were requeued.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// The failure ledger as `(cell, entry)`, in cell order.
    pub fn failures(&self) -> impl Iterator<Item = (usize, &F)> {
        self.failures.iter().map(|(cell, entry)| (*cell, entry))
    }

    /// Ladders built and not yet dropped.
    pub fn resident_ladders(&self) -> usize {
        let resident = |g: &&(LadderSlot, usize)| matches!(g.0, LadderSlot::Ready(Some(_)));
        self.groups.iter().filter(resident).count()
    }
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
/// Workers claim the next unclaimed job from one [`CellQueue`], so long
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
/// [`CampaignReport::checkpoint_faults`], in group order, and none of
/// them changes any cell's bits. The [`CampaignConfig::workers`] workers
/// run one group's cells while the calling thread builds the next
/// group's ladder, and a ladder is dropped once its group's last cell
/// settles, so at most `workers + 1` ladders are resident (see
/// [`CellQueue`]).
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
/// [`run_checkpointed_with`]: validation, the `campaign.run` span, the
/// [`CellQueue`] its workers drain, and the report fold. Checkpointing —
/// a rung stride and the store ladders persist in, if any — changes only
/// how the queue groups jobs.
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
    // Route the store's hit/miss/quarantine/byte counters into the
    // campaign scope; they are sums, so they do not depend on when each
    // ladder is built.
    let store = checkpointing
        .and_then(|(_, store)| store)
        .map(|st| st.clone().with_recorder(Arc::clone(&campaign_rec) as _));
    let groups = checkpointing.map_or_else(Vec::new, |(stride, _)| {
        let groups = ladder_groups(jobs, stride);
        campaign_rec.add("campaign.groups", groups.len() as u64);
        groups
    });
    let queue = CellQueue::new(jobs.len(), &groups, &config.retry);
    let campaign_span = Span::enter(&*campaign_rec, "campaign.run");
    let Drain { queue, results, .. } = drain(jobs, &groups, store.as_ref(), queue, config.workers);
    drop(campaign_span);
    report.failures = queue.failures.into_iter().map(|(_, f)| f).collect();
    report.retries = queue.retries;
    if checkpointing.is_some() {
        report.ladder = queue.ladder;
        report.checkpoint_faults = queue.faults;
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
    finalize(&mut report, results, &campaign_rec);
    Ok(report)
}

/// What [`drain`]'s workers share under one lock.
struct Drain {
    queue: CellQueue<CellFailure>,
    /// Successful cells with their raw frames, in completion order.
    results: Vec<(usize, CellResult, MetricsFrame)>,
    /// A worker panicked outside [`run_cell`]'s isolation, so the harness
    /// itself is broken: the others stop, and the scope re-raises it.
    aborted: bool,
}

/// Drains `queue`: up to `workers` threads claim and run cells while the
/// calling thread claims and builds ladders. Each loops: claim under the
/// lock, run the work outside it, settle, wake the others, and wait while
/// nothing is claimable until every cell has settled.
///
/// Building on one thread that runs no cells keeps a ladder build from
/// waiting on a worker's cell, and allocates and frees every ladder
/// buffer on one thread: with builds spread over the workers, each
/// worker's allocator arena kept a released ladder's buffers, and the
/// warm-store benchmark grid's peak RSS grew by about 60%.
fn drain(
    jobs: &[Job<'_>],
    groups: &[LadderGroup],
    store: Option<&Store>,
    queue: CellQueue<CellFailure>,
    workers: usize,
) -> Drain {
    let state = Mutex::new(Drain {
        queue,
        results: Vec::with_capacity(jobs.len()),
        aborted: false,
    });
    let wake = Condvar::new();
    // No technique code runs under the lock and each update leaves the
    // state whole, so a poisoned lock still guards a usable state.
    let lock = || state.lock().unwrap_or_else(PoisonError::into_inner);
    let work_loop = |builds: bool| loop {
        let mut st = lock();
        let work = loop {
            if st.aborted || st.queue.is_settled() {
                return;
            }
            let claimed = if builds {
                st.queue.claim_build().map(Work::Build)
            } else {
                st.queue.claim_cell()
            };
            if let Some(work) = claimed {
                break work;
            }
            st = wake.wait(st).unwrap_or_else(PoisonError::into_inner);
        };
        drop(st);
        match work {
            Work::Build(group) => {
                let built = groups[group].build(jobs, store);
                lock().queue.built(group, built);
            }
            Work::Cell { cell, ladder } => {
                let ctx = ladder.map_or_else(SimContext::none, SimContext::with_ladder);
                let outcome = run_cell(&jobs[cell], &ctx);
                // Settling the group's last cell drops its ladder, so this
                // handle goes first.
                drop(ctx);
                match outcome {
                    Ok((result, frame)) => {
                        let mut st = lock();
                        st.queue.done(cell);
                        st.results.push((cell, result, frame));
                    }
                    Err(error) => {
                        let job = &jobs[cell];
                        let workload = job.workload.name().to_string();
                        let technique = job.technique.name();
                        lock().queue.fail(cell, |attempts| CellFailure {
                            job_index: cell,
                            workload,
                            technique,
                            attempts,
                            error,
                        });
                    }
                }
            }
        }
        wake.notify_all();
    };
    let run = |builds: bool| {
        catch_unwind(AssertUnwindSafe(|| work_loop(builds))).inspect_err(|_| {
            lock().aborted = true;
            wake.notify_all();
        })
    };
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..workers.min(jobs.len()))
            .map(|_| s.spawn(|| run(false)))
            .collect();
        let mut outcomes = vec![run(true)];
        outcomes.extend(workers.into_iter().filter_map(|w| w.join().ok()));
        for outcome in outcomes {
            if let Err(panic) = outcome {
                std::panic::resume_unwind(panic);
            }
        }
    });
    state.into_inner().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
// Tests may unwrap: a panic here is a test failure, not a lost campaign.
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::{PgssSim, Smarts, TurboSmarts};
    use std::sync::atomic::{AtomicU32, Ordering};

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
            retry: RetryPolicy { max_attempts: 0 },
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
        let retry = RetryPolicy { max_attempts: 3 };
        let report = run_with(&jobs, &CampaignConfig { workers: 2, retry }).unwrap();
        assert_eq!(report.failures.len(), 1);
        assert_eq!(report.failures[0].attempts, 3);
        assert_eq!(report.retries, 2, "two retry passes over the one cell");
        assert_eq!(report.cells.len(), 2);
    }

    /// A small program named `name`: about 100k ops, so a ladder capture
    /// is cheap even in a debug build.
    fn tiny(name: &str) -> Workload {
        use pgss_workloads::{Kernel, WorkloadBuilder};
        let mut b = WorkloadBuilder::new(name, 3);
        let seg = b.add_segment(Kernel::ComputeInt {
            chains: 2,
            ops_per_chain: 4,
        });
        b.run(seg, 10_000);
        b.finish()
    }

    #[test]
    fn queue_releases_a_ladder_when_its_groups_last_cell_settles() {
        let workloads = vec![tiny("a"), tiny("b")];
        let (smarts, _, pgss) = techniques();
        let techs: Vec<&(dyn Technique + Sync)> = vec![&smarts, &pgss];
        let jobs = grid(&workloads, &techs, MachineConfig::default());
        let groups = ladder_groups(&jobs, 10_000);
        let mut q: CellQueue<u32> = CellQueue::new(jobs.len(), &groups, &RetryPolicy::default());
        let cell = |q: &mut CellQueue<u32>| match q.claim() {
            Some(Work::Cell {
                cell,
                ladder: Some(ladder),
            }) => (cell, ladder),
            _ => panic!("expected a cell with a ladder"),
        };

        assert!(matches!(q.claim(), Some(Work::Build(0))));
        assert!(
            q.claim_cell().is_none(),
            "group 0's cells wait for its ladder"
        );
        q.built(0, groups[0].build(&jobs, None));
        let (c0, l0) = cell(&mut q);
        let (c1, l1) = cell(&mut q);
        assert_eq!((c0, c1), (0, 1));
        assert!(Arc::ptr_eq(&l0, &l1));
        let weak = Arc::downgrade(&l0);
        drop((l0, l1));
        // Group 0 has nothing pending, so the next claim builds group 1.
        assert!(matches!(q.claim(), Some(Work::Build(1))));
        assert!(q.claim().is_none(), "everything is claimed");
        q.done(0);
        assert!(weak.upgrade().is_some(), "cell 1 is still open");
        assert!(q.fail(1, |_| unreachable!("one attempt left")));
        assert!(weak.upgrade().is_some(), "cell 1 was requeued");
        q.built(1, groups[1].build(&jobs, None));
        assert_eq!(q.resident_ladders(), 2);

        // Pending order is now 2, 3, then the retried 1, which runs with
        // its own group's ladder.
        let (c2, l2) = cell(&mut q);
        let (c3, l3) = cell(&mut q);
        let (retried, l1) = cell(&mut q);
        assert_eq!((c2, c3, retried), (2, 3, 1));
        assert!(Arc::ptr_eq(&l1, &weak.upgrade().unwrap()));
        assert!(!Arc::ptr_eq(&l1, &l2));
        let weak1 = Arc::downgrade(&l2);
        drop((l1, l2, l3));
        q.done(1);
        assert!(weak.upgrade().is_none(), "group 0 settled: ladder dropped");
        assert_eq!(q.resident_ladders(), 1);

        // A group whose last cell is ledgered releases its ladder too.
        q.done(2);
        assert!(q.fail(3, |_| unreachable!("one attempt left")));
        let (c3, l3) = cell(&mut q);
        assert_eq!(c3, 3);
        drop(l3);
        assert!(!q.fail(3, |attempts| attempts));
        assert!(weak1.upgrade().is_none(), "group 1 settled: ladder dropped");
        assert_eq!(q.resident_ladders(), 0);
        assert!(q.is_settled());
        assert_eq!(q.failures().collect::<Vec<_>>(), [(3, &2)]);
        assert_eq!(q.retries(), 2);
        assert!(q.ladder.capture_ops > 0, "released ladders are accounted");
    }

    /// Claimers step in a seeded random order, so ladders are built,
    /// used and released in many interleavings. Whether every claimer may
    /// build (the server) or one claimer only builds and the others only
    /// run cells (`drain`), no more ladders are ever resident than there
    /// are claimers, and a settled queue holds none.
    #[test]
    fn queue_holds_at_most_one_ladder_per_claimer() {
        let workloads: Vec<Workload> = ["a", "b", "c", "d", "e"].map(tiny).into();
        let (smarts, _, pgss) = techniques();
        let techs: Vec<&(dyn Technique + Sync)> = vec![&smarts, &pgss, &smarts];
        let jobs = grid(&workloads, &techs, MachineConfig::default());
        let groups = ladder_groups(&jobs, 10_000);
        for (claimers, one_builder) in [1, 2, 3, 4].map(|n| [(n, false), (n, true)]).concat() {
            if one_builder && claimers < 2 {
                continue;
            }
            let mut rng = pgss_stats::DetRng::seed_from_u64(claimers as u64);
            let mut q: CellQueue<()> = CellQueue::new(jobs.len(), &groups, &RetryPolicy::default());
            let mut held: Vec<Option<Work>> = (0..claimers).map(|_| None).collect();
            let mut ladders = Vec::new();
            while !q.is_settled() {
                // One claimer steps: an idle one claims, a busy one
                // finishes its work (a cell fails a third of the time).
                let c = rng.range_usize(claimers);
                match held[c].take() {
                    None if !one_builder => held[c] = q.claim(),
                    None if c == 0 => held[c] = q.claim_build().map(Work::Build),
                    None => held[c] = q.claim_cell(),
                    Some(Work::Build(g)) => q.built(g, groups[g].build(&jobs, None)),
                    Some(Work::Cell { cell, ladder }) => {
                        ladders.extend(ladder.as_ref().map(Arc::downgrade));
                        drop(ladder);
                        if rng.range_u64(3) == 0 {
                            q.fail(cell, |_| ());
                        } else {
                            q.done(cell);
                        }
                    }
                }
                let held_ladders = (q.groups.iter())
                    .filter(|g| matches!(g.0, LadderSlot::Building | LadderSlot::Ready(Some(_))))
                    .count();
                assert!(
                    held_ladders <= claimers,
                    "{held_ladders} ladders held by {claimers} claimers"
                );
            }
            assert_eq!(q.resident_ladders(), 0);
            assert!(ladders.iter().all(|l| l.upgrade().is_none()));
            assert_eq!(q.done_count() + q.failures().count(), jobs.len());
        }
    }

    /// A technique whose `name` panics breaks the harness outside any
    /// cell's isolation; the campaign must re-raise the panic, not leave
    /// the other workers waiting on the lost cell.
    #[test]
    #[should_panic(expected = "nameless")]
    fn a_panic_outside_cell_isolation_propagates() {
        silence_injected_panic_reports();
        struct Nameless;
        impl Technique for Nameless {
            fn name(&self) -> String {
                panic!("{INJECTED_PANIC_TAG} nameless");
            }
            fn run_traced(
                &self,
                _: &Workload,
                _: &MachineConfig,
                _: &SimContext,
            ) -> (Estimate, RunTrace) {
                unreachable!("name panics first")
            }
        }
        let workloads = vec![tiny("a"), tiny("b"), tiny("c")];
        let techs: Vec<&(dyn Technique + Sync)> = vec![&Nameless];
        let jobs = grid(&workloads, &techs, MachineConfig::default());
        let _ = run_with(&jobs, &CampaignConfig::with_workers(2));
    }
}
