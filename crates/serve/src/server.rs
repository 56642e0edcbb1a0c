//! The campaign server: listener, scheduler, worker pool, durable job
//! state, and the resume protocol.
//!
//! # Architecture
//!
//! One accept thread hands connections to per-connection handler threads
//! speaking the line-delimited JSON protocol (see [`crate::client`]). A
//! fixed pool of worker threads shares one scheduler state under one
//! mutex. Each job wraps the library's work queue,
//! [`pgss::campaign::CellQueue`], which decides what runs: a cell whose
//! ladder is ready, else its group's ladder build; retries; and when a
//! group's ladder is dropped. The server adds only what a daemon needs
//! around it: workers claim from the job the round-robin cursor reaches
//! first, subject to per-tenant concurrency quotas, so a long campaign
//! never starves a short one; claimed cells hold leases; cancellation
//! and drain stop claims; and every transition is persisted.
//!
//! Cell order is [`Materialized::job`], ladder groups are
//! [`pgss::campaign::ladder_groups`], every cell executes through
//! [`pgss::campaign::run_cell`], and reports render through
//! [`pgss::wire::canonical_artifact`] — so a server-side cell and report
//! are bit-identical to a library-side one. A completed cell is rendered
//! once, into the artifact lines it prints (a [`CellRecord`] under the
//! job-record key namespace), persisted immediately and streamed to any
//! watchers out of order; a ledgered cell is rendered once, into its
//! [`wire::canonical_failure_line`], kept in the job's status record.
//! Reports and watch replays are assembled from the stored lines.
//!
//! # Durability and resume
//!
//! All job state lives in the same content-addressed store as the
//! checkpoint ladders (see [`crate::record`] for the record kinds). A
//! job's spec record is the `submit` request line it was accepted from.
//! On startup the server reads the index, re-validates and
//! re-materialises every job from its stored request exactly as `submit`
//! did (a request that no longer validates leaves its job unresumable),
//! probes the job's cell records — present and decodable
//! means **done**, corrupt means quarantine-and-re-run — and enqueues
//! only the remainder. A `Done` job whose records lost a cell goes back
//! to running for exactly that cell; a cancelled job stays cancelled. A
//! SIGKILL therefore costs at most the cells that were in flight;
//! finished cells are never recomputed, which the resilience tests assert
//! via the `serve.cells.executed` / `serve.cells.resumed` counters.
//!
//! # Cancellation
//!
//! Cancellation is cooperative: pending cells are dropped immediately,
//! in-flight cells finish (their results are discarded, freeing the
//! worker), and once the job drains a durable `Cancelled` status is
//! written. A cancelled job still answers `status` and `report` from
//! whatever it completed before the cancel. A finished or cancelled job
//! holds no ladder: the queue drops each one as its group settles.
//!
//! # Leases, backpressure, drain, GC
//!
//! The server is *crash-only*: it assumes it can die at any instant, so
//! the extra machinery here only bounds resources, never adds state that
//! must survive. Every claimed cell holds a lease (a deadline on the
//! injected [`pgss_obs::Clock`]); a watchdog thread reaps overdue cells
//! into the failure ledger as [`pgss::campaign::CellError::DeadlineExceeded`]
//! (retrying first, like any other cell error) and remembers the reap so
//! a zombie worker's late result is discarded — a wedged worker costs one
//! pool slot until release, never correctness. Connections get read
//! deadlines, a line-length cap, and a connection cap; saturation answers
//! are typed `busy` rejections carrying `retry_after_ms`, never parked
//! threads. The `drain` verb stops admission and claiming, lets in-flight
//! work finish or get reaped, then exits 0 — pending cells stay durable
//! for the next run. The `gc` verb mark-and-sweeps the store under the
//! scheduler lock (the `handle_gc` docs spell out the liveness roots).

// A server embeds the fault-isolating campaign path; an unwrap here
// would turn one bad record or request into a dead daemon.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::{BTreeMap, BTreeSet};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use pgss::campaign::{
    ladder_groups, run_cell, CellError, CellFailure, CellQueue, LadderGroup, RetryPolicy, Work,
};
use pgss::wire;
use pgss::{CheckpointLadder, SimContext};
use pgss_ckpt::{index_key, job_key, JobRecordKind, RecordError, Store};
use pgss_obs::{json_string, scope_line, Clock, MetricsRecorder, MonotonicClock, Recorder};

use crate::json::{self, Value};
use crate::record::{CellRecord, IndexRecord, JobPhase, SpecRecord, StatusRecord};
use crate::spec::{CampaignSpec, Materialized};

/// Per-tenant limits. The defaults are unlimited; a limit of zero
/// concurrent cells parks the tenant's jobs in `Queued` indefinitely
/// (useful for drains and tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantQuota {
    /// Cells of this tenant allowed to run concurrently across all of
    /// its jobs.
    pub max_concurrent_cells: usize,
    /// Active (queued or running) jobs this tenant may have; submits
    /// beyond it are rejected.
    pub max_queued_jobs: usize,
}

impl Default for TenantQuota {
    fn default() -> TenantQuota {
        TenantQuota {
            max_concurrent_cells: usize::MAX,
            max_queued_jobs: usize::MAX,
        }
    }
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads executing cells and ladder builds. Like
    /// [`pgss::CampaignConfig`], this is explicit — resolve
    /// `PGSS_WORKERS` at the CLI boundary if you want the override.
    pub workers: usize,
    /// Retry policy applied to failing cells (the retry *count*
    /// semantics match the library runner's).
    pub retry: RetryPolicy,
    /// Quota for tenants without an explicit entry in `quotas`.
    pub default_quota: TenantQuota,
    /// Per-tenant quota overrides.
    pub quotas: BTreeMap<String, TenantQuota>,
    /// Lease deadline for in-flight cells, in nanoseconds of `clock`.
    /// A cell that overruns it is reaped into the failure ledger as
    /// [`pgss::campaign::CellError::DeadlineExceeded`] (after the usual
    /// retries) and its worker's eventual result is discarded. `None`
    /// disables supervision. The default (one hour) is a generous
    /// stuck-worker tripwire, not a performance bound.
    pub lease_deadline_ns: Option<u64>,
    /// The clock leases are measured on. Tests inject
    /// [`pgss_obs::ManualClock`] so deadline scenarios replay
    /// byte-identically; production uses the monotonic default.
    pub clock: Arc<dyn Clock>,
    /// Longest accepted request line in bytes; longer lines get a typed
    /// error and the connection is closed (slow-loris / garbage guard).
    pub max_line_bytes: usize,
    /// Per-connection read deadline. A connection idle past it is closed
    /// with a typed error. `None` waits forever (trusted-client mode).
    pub read_timeout: Option<Duration>,
    /// Concurrent connections (and hence in-flight requests — the
    /// protocol is one request at a time per connection) the server
    /// accepts before answering `busy` with a retry hint.
    pub max_conns: usize,
    /// The `retry_after_ms` hint attached to backpressure rejections.
    pub retry_after_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            retry: RetryPolicy::default(),
            default_quota: TenantQuota::default(),
            quotas: BTreeMap::new(),
            lease_deadline_ns: Some(3_600_000_000_000),
            clock: Arc::new(MonotonicClock::default()),
            max_line_bytes: 1 << 20,
            read_timeout: Some(Duration::from_secs(300)),
            max_conns: 256,
            retry_after_ms: 250,
        }
    }
}

impl ServeConfig {
    fn quota_for(&self, tenant: &str) -> TenantQuota {
        self.quotas
            .get(tenant)
            .copied()
            .unwrap_or(self.default_quota)
    }
}

/// Where the server should listen.
#[derive(Debug, Clone)]
pub enum Listen {
    /// A TCP address such as `127.0.0.1:0` (port 0 picks a free port).
    Tcp(String),
    /// A Unix-domain socket path (created on bind, removed on stop).
    #[cfg(unix)]
    Unix(PathBuf),
}

/// The address a started server is reachable at.
#[derive(Debug, Clone)]
pub enum BoundAddr {
    /// Bound TCP socket address.
    Tcp(SocketAddr),
    /// Bound Unix-domain socket path.
    #[cfg(unix)]
    Unix(PathBuf),
}

impl std::fmt::Display for BoundAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BoundAddr::Tcp(a) => write!(f, "tcp:{a}"),
            #[cfg(unix)]
            BoundAddr::Unix(p) => write!(f, "unix:{}", p.display()),
        }
    }
}

/// A bidirectional protocol stream (TCP or Unix).
pub(crate) enum Stream {
    /// TCP connection.
    Tcp(TcpStream),
    /// Unix-domain connection.
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Stream {
    pub(crate) fn try_clone(&self) -> io::Result<Stream> {
        Ok(match self {
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
            #[cfg(unix)]
            Stream::Unix(s) => Stream::Unix(s.try_clone()?),
        })
    }

    /// Applies a read deadline to the underlying socket; reads past it
    /// fail with `WouldBlock`/`TimedOut` instead of blocking forever.
    pub(crate) fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(dur),
            #[cfg(unix)]
            Stream::Unix(s) => s.set_read_timeout(dur),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Stream::Unix(s) => s.flush(),
        }
    }
}

enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

impl Listener {
    fn accept(&self) -> io::Result<Stream> {
        Ok(match self {
            Listener::Tcp(l) => Stream::Tcp(l.accept()?.0),
            #[cfg(unix)]
            Listener::Unix(l) => Stream::Unix(l.accept()?.0),
        })
    }
}

/// Connects to a bound address (shared with the client module).
pub(crate) fn dial(addr: &BoundAddr) -> io::Result<Stream> {
    Ok(match addr {
        BoundAddr::Tcp(a) => Stream::Tcp(TcpStream::connect(a)?),
        #[cfg(unix)]
        BoundAddr::Unix(p) => Stream::Unix(UnixStream::connect(p)?),
    })
}

/// A message to a `watch` subscriber: an event line, or the final line
/// after which the subscription ends.
enum WatchMsg {
    Event(String),
    End(String),
}

/// A job's runnable grid: the materialised spec and the ladder groups the
/// library runner would form over its jobs.
struct Grid {
    mat: Materialized,
    groups: Vec<LadderGroup>,
}

/// A job: its grid, the library's [`CellQueue`] over it, and what the
/// server adds — tenant, phase, watchers, leases and cancellation.
struct JobState {
    tenant: String,
    grid: Arc<Grid>,
    /// The library's queue; a ledgered cell's entry is its rendered
    /// failure line.
    queue: CellQueue<String>,
    phase: JobPhase,
    cancelled: bool,
    watchers: Vec<mpsc::Sender<WatchMsg>>,
    started: Option<Instant>,
    /// Lease expiry (clock ns) per in-flight cell, when supervision is on.
    leases: BTreeMap<usize, u64>,
    /// Cells the watchdog reaped whose worker has not returned yet; the
    /// late result is discarded when it does.
    reaped: BTreeSet<usize>,
}

impl JobState {
    /// A freshly queued job over `mat`: every cell pending, no ladder
    /// built.
    fn new(tenant: String, mat: Materialized, retry: &RetryPolicy) -> JobState {
        let groups = ladder_groups(&mat.jobs(), mat.stride);
        JobState {
            tenant,
            queue: CellQueue::new(mat.cell_count(), &groups, retry),
            grid: Arc::new(Grid { mat, groups }),
            phase: JobPhase::Queued,
            cancelled: false,
            watchers: Vec::new(),
            started: None,
            leases: BTreeMap::new(),
            reaped: BTreeSet::new(),
        }
    }
}

struct State {
    jobs: BTreeMap<u64, JobState>,
    /// Non-terminal jobs in submission order — the scheduler's
    /// round-robin ring.
    order: Vec<u64>,
    rr: usize,
    next_seq: u64,
}

struct Inner {
    store: Store,
    rec: Arc<MetricsRecorder>,
    cfg: ServeConfig,
    state: Mutex<State>,
    work: Condvar,
    shutdown: AtomicBool,
    /// Drain mode: stop admitting submits and claiming cells; the
    /// watchdog initiates shutdown once in-flight work is gone.
    draining: AtomicBool,
    /// Live connection count, for the connection cap.
    conns: AtomicUsize,
    addr: OnceLock<BoundAddr>,
}

/// Renders finished cell `cell` of job `id` as a watch-event line: cell
/// identity (named by [`Materialized::job`]), progress, and the stored
/// IPC and annotated scope line.
fn event_line(id: u64, job: &JobState, cell: usize, record: &CellRecord) -> String {
    let desc = job.grid.mat.job(cell);
    let mut out = String::new();
    out.push_str("{\"ok\":true,\"event\":\"cell\",\"job\":\"");
    out.push_str(&render_job_id(id));
    out.push_str("\",\"index\":");
    out.push_str(&cell.to_string());
    out.push_str(",\"done\":");
    out.push_str(&job.queue.done_count().to_string());
    out.push_str(",\"total\":");
    out.push_str(&job.queue.cell_count().to_string());
    out.push_str(",\"workload\":");
    json_string(&mut out, desc.workload.name());
    out.push_str(",\"technique\":");
    json_string(&mut out, &desc.technique.name());
    out.push_str(",\"ipc\":");
    pgss_obs::json_f64(&mut out, record.ipc);
    out.push_str(",\"frame\":");
    json_string(&mut out, &record.scope_line);
    out.push('}');
    out
}

fn render_job_id(id: u64) -> String {
    format!("{id:016x}")
}

/// The job id `s` renders, if `s` is exactly [`render_job_id`]'s form:
/// a sign or an uppercase hex digit would otherwise alias a real job.
fn parse_job_id(s: &str) -> Option<u64> {
    let id = u64::from_str_radix(s, 16).ok()?;
    (render_job_id(id) == s).then_some(id)
}

impl Inner {
    fn lock(&self) -> MutexGuard<'_, State> {
        match self.state.lock() {
            Ok(g) => g,
            // A worker that panicked while holding the lock has already
            // been isolated (cells run under catch_unwind); the state
            // itself is guarded by per-step writes, so keep serving.
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn write_status(&self, id: u64, job: &JobState) {
        let record = StatusRecord {
            phase: job.phase,
            retries: job.queue.retries(),
            failures: job
                .queue
                .failures()
                .map(|(cell, line)| (cell as u64, line.clone()))
                .collect(),
        };
        if self
            .store
            .put(job_key(JobRecordKind::Status, id, 0), &record.encode())
            .is_err()
        {
            self.rec.add("serve.store.put_failed", 1);
        }
    }

    fn running_cells(&self, st: &State, tenant: &str) -> usize {
        st.jobs
            .values()
            .filter(|j| j.tenant == tenant)
            .map(|j| j.queue.in_flight())
            .sum()
    }

    fn active_jobs(&self, st: &State, tenant: &str) -> usize {
        st.jobs
            .values()
            .filter(|j| j.tenant == tenant && !j.phase.is_terminal())
            .count()
    }

    /// Claims work from the first job, round-robin, whose tenant is
    /// under its cell quota and whose queue has something to claim.
    fn find_work(&self, st: &mut State) -> Option<(u64, Arc<Grid>, Work)> {
        if self.draining.load(Ordering::SeqCst) {
            // Draining: nothing new is claimed; pending cells stay
            // durable for the next server run.
            return None;
        }
        let n = st.order.len();
        for k in 0..n {
            let idx = (st.rr + k) % n;
            let id = st.order[idx];
            let Some(job) = st.jobs.get(&id) else {
                continue;
            };
            if job.phase.is_terminal() {
                continue;
            }
            let quota = self.cfg.quota_for(&job.tenant);
            if self.running_cells(st, &job.tenant) >= quota.max_concurrent_cells {
                continue;
            }
            let Some(job) = st.jobs.get_mut(&id) else {
                continue;
            };
            let Some(work) = job.queue.claim() else {
                continue;
            };
            if let Work::Cell { cell, .. } = work {
                if let Some(deadline) = self.cfg.lease_deadline_ns {
                    job.leases
                        .insert(cell, self.cfg.clock.now_ns().saturating_add(deadline));
                    self.rec.add("serve.lease.granted", 1);
                }
                if job.phase == JobPhase::Queued {
                    job.phase = JobPhase::Running;
                    if job.started.is_none() {
                        job.started = Some(Instant::now());
                    }
                    self.write_status(id, job);
                }
            }
            let grid = Arc::clone(&job.grid);
            st.rr = (idx + 1) % n;
            return Some((id, grid, work));
        }
        None
    }

    fn notify_watchers(&self, job: &mut JobState, line: &str) {
        let mut sent = 0u64;
        job.watchers
            .retain(|w| match w.send(WatchMsg::Event(line.to_string())) {
                Ok(()) => {
                    sent += 1;
                    true
                }
                Err(_) => false,
            });
        self.rec.add("serve.cells.streamed", sent);
    }

    fn end_watchers(&self, job: &mut JobState) {
        let line = format!(
            "{{\"ok\":true,\"event\":\"end\",\"phase\":\"{}\"}}",
            job.phase.as_str()
        );
        for w in job.watchers.drain(..) {
            let _ = w.send(WatchMsg::End(line.clone()));
        }
    }

    fn complete_job(&self, id: u64, job: &mut JobState) {
        job.phase = JobPhase::Done;
        self.write_status(id, job);
        self.rec.add("serve.jobs.completed", 1);
        if let Some(t0) = job.started {
            self.rec
                .span_closed("serve.job.run", t0.elapsed().as_nanos() as u64);
        }
        self.end_watchers(job);
    }

    fn finish_cancel(&self, id: u64, job: &mut JobState) {
        job.phase = JobPhase::Cancelled;
        self.write_status(id, job);
        self.rec.add("serve.jobs.cancelled", 1);
        self.end_watchers(job);
    }

    fn worker_loop(self: &Arc<Inner>) {
        loop {
            let (id, grid, work) = {
                let mut st = self.lock();
                loop {
                    if self.shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    if let Some(claimed) = self.find_work(&mut st) {
                        break claimed;
                    }
                    st = match self.work.wait(st) {
                        Ok(g) => g,
                        Err(p) => p.into_inner(),
                    };
                }
            };
            match work {
                Work::Build(group) => self.run_build(id, &grid, group),
                Work::Cell { cell, ladder } => self.run_one_cell(id, &grid, cell, ladder),
            }
            self.work.notify_all();
        }
    }

    fn run_build(&self, id: u64, grid: &Grid, group: usize) {
        let built = grid.groups[group].build(&grid.mat.jobs(), Some(&self.store));
        if built.is_err() {
            self.rec.add("serve.ladders.degraded", 1);
        }
        if let Some(job) = self.lock().jobs.get_mut(&id) {
            job.queue.built(group, built);
        }
    }

    fn run_one_cell(
        &self,
        id: u64,
        grid: &Grid,
        cell: usize,
        ladder: Option<Arc<CheckpointLadder>>,
    ) {
        let ctx = ladder.map_or_else(SimContext::none, SimContext::with_ladder);
        let outcome = run_cell(&grid.mat.job(cell), &ctx)
            .map(|(result, frame)| CellRecord::new(&result, frame));
        // The queue drops the ladder when the group's last cell settles.
        drop(ctx);

        let mut st = self.lock();
        let Some(job) = st.jobs.get_mut(&id) else {
            return;
        };
        job.leases.remove(&cell);
        if job.reaped.remove(&cell) {
            // The watchdog already settled this cell (failure or retry)
            // and freed its slot; this zombie's late result — computed
            // before the cell record would be written — is discarded.
            self.rec.add("serve.lease.late_result", 1);
            return;
        }
        if !self.release_cell(id, job, cell) {
            return;
        }
        match outcome {
            Ok(record) => {
                if self
                    .store
                    .put(
                        job_key(JobRecordKind::Cell, id, cell as u64),
                        &record.encode(),
                    )
                    .is_err()
                {
                    // The cell stays done in memory; `report` names the
                    // missing record, and a restart re-runs the cell.
                    self.rec.add("serve.store.put_failed", 1);
                }
                job.queue.done(cell);
                self.rec.add("serve.cells.executed", 1);
                let line = event_line(id, job, cell, &record);
                self.notify_watchers(job, &line);
                if job.queue.is_settled() {
                    self.complete_job(id, job);
                }
            }
            Err(error) => self.settle_failure(id, job, cell, &error),
        }
    }

    /// Returns true when the outcome of a finished or reaped cell should
    /// be settled. When the job was cancelled the outcome is discarded
    /// instead, and the cancel is finished once nothing is in flight.
    fn release_cell(&self, id: u64, job: &mut JobState, cell: usize) -> bool {
        if !job.cancelled {
            return true;
        }
        job.queue.abandon(cell);
        if job.queue.in_flight() == 0 && !job.phase.is_terminal() {
            self.finish_cancel(id, job);
        }
        false
    }

    /// Settles one failed attempt of `cell` — a worker's error or a
    /// lease reap — through the queue's retry budget: a ledgered cell
    /// persists the status and completes the job if it was the last.
    fn settle_failure(&self, id: u64, job: &mut JobState, cell: usize, error: &CellError) {
        let desc = job.grid.mat.job(cell);
        let requeued = job.queue.fail(cell, |attempts| {
            wire::canonical_failure_line(&CellFailure {
                job_index: cell,
                workload: desc.workload.name().to_string(),
                technique: desc.technique.name(),
                attempts,
                error: error.clone(),
            })
        });
        if requeued {
            self.rec.add("serve.cells.retried", 1);
            return;
        }
        self.rec.add("serve.cells.failed", 1);
        self.write_status(id, job);
        if job.queue.is_settled() {
            self.complete_job(id, job);
        }
    }

    /// Settles every cell whose lease has expired on the injected clock:
    /// frees its scheduler slot, marks it reaped (so the zombie worker's
    /// late result is discarded), and settles it like any failed attempt
    /// with [`CellError::DeadlineExceeded`]. Determinism comes from the
    /// clock and the cell identity, not from when this happens to be
    /// polled.
    fn reap_overdue(&self) {
        let Some(deadline_ns) = self.cfg.lease_deadline_ns else {
            return;
        };
        let now = self.cfg.clock.now_ns();
        let mut st = self.lock();
        let overdue: Vec<(u64, usize)> = st
            .jobs
            .iter()
            .flat_map(|(&id, j)| {
                j.leases
                    .iter()
                    .filter(|&(_, &expiry)| expiry <= now)
                    .map(|(&cell, _)| (id, cell))
                    .collect::<Vec<_>>()
            })
            .collect();
        if overdue.is_empty() {
            return;
        }
        for (id, cell) in overdue {
            let Some(job) = st.jobs.get_mut(&id) else {
                continue;
            };
            if job.leases.remove(&cell).is_none() {
                continue; // the worker finished while we walked the list
            }
            job.reaped.insert(cell);
            self.rec.add("serve.lease.reaped", 1);
            if self.release_cell(id, job, cell) {
                self.settle_failure(id, job, cell, &CellError::DeadlineExceeded { deadline_ns });
            }
        }
        drop(st);
        // Requeued retries (and freed quota slots) need workers.
        self.work.notify_all();
    }

    /// True when no worker holds a cell or ladder build — the drain
    /// completion condition.
    fn drained(&self) -> bool {
        let st = self.lock();
        st.jobs
            .values()
            .all(|j| j.queue.in_flight() == 0 && !j.queue.is_building())
    }

    /// Reads cell `i`'s durable record: `Ok(None)` if it was never
    /// written, an error if it is unreadable or corrupt.
    fn read_cell(&self, id: u64, i: usize) -> Result<Option<CellRecord>, String> {
        let bytes = match self
            .store
            .get_checked(job_key(JobRecordKind::Cell, id, i as u64))
        {
            Ok(b) => b,
            Err(RecordError::Missing) => return Ok(None),
            Err(e) => return Err(format!("cell {i} record unreadable: {e:?}")),
        };
        CellRecord::decode(&bytes)
            .map(Some)
            .map_err(|e| format!("cell {i} corrupt: {e}"))
    }

    /// The supervision thread: polls wall time at a short cadence but
    /// evaluates lease expiry against the *injected* clock, so tests
    /// drive deadlines with [`pgss_obs::ManualClock`] and production gets
    /// monotonic time — the poll cadence affects latency, never outcome.
    /// Doubles as the drain monitor: once draining and idle, it flips the
    /// server into shutdown so `Server::wait` returns and the process can
    /// exit 0.
    fn watchdog_loop(&self) {
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                return;
            }
            self.reap_overdue();
            if self.draining.load(Ordering::SeqCst) && self.drained() {
                self.rec.add("serve.drain.completed", 1);
                self.initiate_shutdown();
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    fn initiate_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        {
            let mut st = self.lock();
            // Unblock watchers so their handler threads can exit.
            for job in st.jobs.values_mut() {
                job.watchers.clear();
            }
        }
        self.work.notify_all();
        // Unblock the accept loop with a throwaway connection.
        if let Some(addr) = self.addr.get() {
            let _ = dial(addr);
        }
    }
}

/// A running campaign server. Dropping the handle does **not** stop the
/// daemon; call [`Server::stop`] for a graceful shutdown (workers finish
/// their in-flight cells; all durable state is already on disk at every
/// instant, which is the point).
pub struct Server {
    inner: Arc<Inner>,
    addr: BoundAddr,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Opens (or creates) the store at `store_dir`, resumes every
    /// non-terminal job found in it, binds `listen`, and starts the
    /// worker pool and accept loop.
    pub fn start(
        store_dir: impl Into<PathBuf>,
        listen: Listen,
        cfg: ServeConfig,
    ) -> io::Result<Server> {
        let rec = Arc::new(MetricsRecorder::with_clock(Arc::clone(&cfg.clock)));
        let store = Store::open(store_dir)?.with_recorder(Arc::clone(&rec) as Arc<dyn Recorder>);
        let inner = Arc::new(Inner {
            store,
            rec,
            cfg,
            state: Mutex::new(State {
                jobs: BTreeMap::new(),
                order: Vec::new(),
                rr: 0,
                next_seq: 0,
            }),
            work: Condvar::new(),
            shutdown: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            conns: AtomicUsize::new(0),
            addr: OnceLock::new(),
        });
        resume_jobs(&inner);

        let listener = match &listen {
            Listen::Tcp(addr) => Listener::Tcp(TcpListener::bind(addr.as_str())?),
            #[cfg(unix)]
            Listen::Unix(path) => {
                // A stale socket file from a killed process would make
                // bind fail; a fresh server owns the path.
                let _ = std::fs::remove_file(path);
                Listener::Unix(UnixListener::bind(path)?)
            }
        };
        let addr = match &listener {
            Listener::Tcp(l) => BoundAddr::Tcp(l.local_addr()?),
            #[cfg(unix)]
            Listener::Unix(_) => match listen {
                #[cfg(unix)]
                Listen::Unix(path) => BoundAddr::Unix(path),
                Listen::Tcp(_) => unreachable!("listener/listen variants match"),
            },
        };
        let _ = inner.addr.set(addr.clone());

        let mut threads = Vec::new();
        for _ in 0..inner.cfg.workers.max(1) {
            let inner = Arc::clone(&inner);
            threads.push(std::thread::spawn(move || inner.worker_loop()));
        }
        {
            let inner = Arc::clone(&inner);
            threads.push(std::thread::spawn(move || inner.watchdog_loop()));
        }
        {
            let inner = Arc::clone(&inner);
            threads.push(std::thread::spawn(move || accept_loop(&inner, listener)));
        }
        Ok(Server {
            inner,
            addr,
            threads,
        })
    }

    /// The bound address clients should dial.
    pub fn addr(&self) -> &BoundAddr {
        &self.addr
    }

    /// Graceful shutdown: stops accepting, lets workers finish their
    /// in-flight cells, joins every thread. Durable state needs no
    /// flushing — every record was written when it happened.
    pub fn stop(self) {
        self.inner.initiate_shutdown();
        self.wait();
    }

    /// Blocks until something else stops the server — a client-issued
    /// `shutdown` op, typically — then joins every thread. The CLI's
    /// serve-forever mode.
    pub fn wait(self) {
        for t in self.threads {
            let _ = t.join();
        }
        #[cfg(unix)]
        if let BoundAddr::Unix(path) = &self.addr {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Startup resume: rebuild scheduler state from the store's job records.
fn resume_jobs(inner: &Arc<Inner>) {
    let index = match inner.store.get_checked(index_key()) {
        Err(RecordError::Missing) => IndexRecord::default(),
        read => match read.ok().and_then(|b| IndexRecord::decode(&b).ok()) {
            Some(index) => index,
            None => {
                let _ = inner.store.quarantine(index_key());
                inner.rec.add("serve.store.index_corrupt", 1);
                IndexRecord::default()
            }
        },
    };
    let mut st = inner.lock();
    st.next_seq = index.next_seq;
    for (id, tenant) in index.jobs {
        // The stored submit request goes through the submit path's own
        // validation; a record that fails any step is skipped.
        let mat = inner
            .store
            .get_checked(job_key(JobRecordKind::Spec, id, 0))
            .ok()
            .and_then(|b| SpecRecord::decode(&b).ok())
            .and_then(|r| json::parse(&r.request).ok())
            .and_then(|req| {
                CampaignSpec::from_json(req.get("spec")?)
                    .and_then(|spec| spec.materialize())
                    .ok()
            });
        let Some(mat) = mat else {
            inner.rec.add("serve.jobs.unresumable", 1);
            continue;
        };
        let status = inner
            .store
            .get_checked(job_key(JobRecordKind::Status, id, 0))
            .ok()
            .and_then(|b| StatusRecord::decode(&b).ok())
            .unwrap_or(StatusRecord {
                phase: JobPhase::Queued,
                retries: 0,
                failures: Vec::new(),
            });
        let mut job = JobState::new(tenant, mat, &inner.cfg.retry);
        for i in 0..job.queue.cell_count() {
            match inner.read_cell(id, i) {
                Ok(Some(_)) => job.queue.mark_done(i),
                Ok(None) => {}
                Err(_) => {
                    // Unreadable, or checksummed clean but undecodable:
                    // quarantine and re-run the cell.
                    let _ = inner
                        .store
                        .quarantine(job_key(JobRecordKind::Cell, id, i as u64));
                    inner.rec.add("serve.cells.requeued_corrupt", 1);
                }
            }
        }
        for (cell, line) in status.failures {
            if let Ok(cell) = usize::try_from(cell) {
                job.queue.mark_failed(cell, line);
            }
        }
        job.queue.add_retries(status.retries);
        job.phase = status.phase;
        job.cancelled = status.phase == JobPhase::Cancelled;
        if job.cancelled {
            job.queue.cancel();
        } else if job.phase == JobPhase::Done && !job.queue.is_settled() {
            // Cell records lost since the job finished (quarantined as
            // corrupt, or never written): the records are the completion
            // set, so re-run exactly those cells.
            job.phase = JobPhase::Running;
            inner.write_status(id, &job);
        }
        if !job.phase.is_terminal() {
            inner.rec.add("serve.jobs.resumed", 1);
            inner
                .rec
                .add("serve.cells.resumed", job.queue.done_count() as u64);
            if job.queue.is_settled() {
                // Everything finished before the kill, but the Done
                // status never landed: settle it now.
                inner.complete_job(id, &mut job);
            } else {
                st.order.push(id);
            }
        }
        st.jobs.insert(id, job);
    }
}

fn accept_loop(inner: &Arc<Inner>, listener: Listener) {
    loop {
        let conn = listener.accept();
        if inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match conn {
            Ok(stream) => {
                let inner = Arc::clone(inner);
                // Handler threads are detached: they exit on EOF from the
                // peer, or when shutdown drops their watch senders.
                std::thread::spawn(move || handle_conn(&inner, stream));
            }
            Err(_) => {
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
            }
        }
    }
}

fn ok_line(fields: &str) -> String {
    if fields.is_empty() {
        "{\"ok\":true}".to_string()
    } else {
        format!("{{\"ok\":true,{fields}}}")
    }
}

fn err_line(message: &str) -> String {
    let mut out = String::from("{\"ok\":false,\"error\":");
    json_string(&mut out, message);
    out.push('}');
    out
}

/// A backpressure rejection: an error line carrying a `retry_after_ms`
/// hint, which [`crate::Client`] surfaces as `ClientError::Busy`.
fn busy_line(message: &str, retry_after_ms: u64) -> String {
    let mut out = String::from("{\"ok\":false,\"error\":");
    json_string(&mut out, message);
    out.push_str(",\"retry_after_ms\":");
    out.push_str(&retry_after_ms.to_string());
    out.push('}');
    out
}

fn write_line(w: &mut Stream, line: &str) -> io::Result<()> {
    write_lines(w, [line])
}

/// Writes `lines`, each newline-terminated, in a single write: a response
/// split across writes stalls its tail on Nagle's algorithm until the
/// client's delayed ACK.
fn write_lines<'a>(w: &mut Stream, lines: impl IntoIterator<Item = &'a str>) -> io::Result<()> {
    let mut buf = Vec::new();
    for line in lines {
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
    }
    w.write_all(&buf)?;
    w.flush()
}

/// Outcome of one bounded, deadline-guarded request-line read.
enum ReadLine {
    Line(String),
    Eof,
    TooLong,
    BadUtf8,
    TimedOut,
    Io,
}

/// Reads one newline-terminated request line without ever buffering more
/// than `max` bytes — the replacement for `BufReader::lines()`, whose
/// unbounded buffer is exactly what a slow-loris or garbage peer abuses.
fn read_request_line(reader: &mut BufReader<Stream>, max: usize) -> ReadLine {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let chunk = match reader.fill_buf() {
            Ok(c) => c,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                return ReadLine::TimedOut
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return ReadLine::Io,
        };
        if chunk.is_empty() {
            if buf.is_empty() {
                return ReadLine::Eof;
            }
            break; // EOF after a final unterminated line: serve it
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                if buf.len() + pos > max {
                    return ReadLine::TooLong;
                }
                buf.extend_from_slice(&chunk[..pos]);
                reader.consume(pos + 1);
                break;
            }
            None => {
                let n = chunk.len();
                if buf.len() + n > max {
                    return ReadLine::TooLong;
                }
                buf.extend_from_slice(chunk);
                reader.consume(n);
            }
        }
    }
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    match String::from_utf8(buf) {
        Ok(line) => ReadLine::Line(line),
        Err(_) => ReadLine::BadUtf8,
    }
}

/// Decrements the live-connection count however the handler exits.
struct ConnGuard<'a>(&'a Inner);

impl Drop for ConnGuard<'_> {
    fn drop(&mut self) {
        self.0.conns.fetch_sub(1, Ordering::SeqCst);
    }
}

fn handle_conn(inner: &Arc<Inner>, stream: Stream) {
    let active = inner.conns.fetch_add(1, Ordering::SeqCst) + 1;
    let _guard = ConnGuard(inner);
    let mut writer = stream;
    if active > inner.cfg.max_conns {
        // Connection-level backpressure: a typed busy answer and a clean
        // close, never an unbounded pile of parked handler threads.
        inner.rec.add("serve.backpressure.conn_rejected", 1);
        let _ = write_line(
            &mut writer,
            &busy_line(
                &format!("server is at its connection cap ({})", inner.cfg.max_conns),
                inner.cfg.retry_after_ms,
            ),
        );
        return;
    }
    if writer.set_read_timeout(inner.cfg.read_timeout).is_err() {
        return;
    }
    let Ok(read_half) = writer.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    loop {
        match read_request_line(&mut reader, inner.cfg.max_line_bytes) {
            ReadLine::Line(line) => {
                if line.trim().is_empty() {
                    continue;
                }
                match dispatch(inner, &line, &mut writer) {
                    Ok(true) => {}
                    _ => return,
                }
            }
            ReadLine::Eof | ReadLine::Io => return,
            ReadLine::TooLong => {
                inner.rec.add("serve.protocol.oversized", 1);
                let _ = write_line(
                    &mut writer,
                    &err_line(&format!(
                        "request line exceeds {} bytes",
                        inner.cfg.max_line_bytes
                    )),
                );
                return;
            }
            ReadLine::BadUtf8 => {
                inner.rec.add("serve.protocol.malformed", 1);
                let _ = write_line(&mut writer, &err_line("request line is not valid UTF-8"));
                return;
            }
            ReadLine::TimedOut => {
                inner.rec.add("serve.conns.timed_out", 1);
                let _ = write_line(
                    &mut writer,
                    &err_line("read deadline exceeded; closing idle connection"),
                );
                return;
            }
        }
    }
}

/// Handles one request line; `Ok(false)` closes the connection.
fn dispatch(inner: &Arc<Inner>, line: &str, w: &mut Stream) -> io::Result<bool> {
    let req = match json::parse(line) {
        Ok(v) => v,
        Err(e) => {
            write_line(w, &err_line(&format!("bad request: {e}")))?;
            return Ok(true);
        }
    };
    let op = req.get("op").and_then(Value::as_str).unwrap_or("");
    match op {
        "ping" => write_line(w, &ok_line("\"pong\":true"))?,
        "submit" => {
            let resp = handle_submit(inner, &req, line);
            write_line(w, &resp)?;
        }
        "status" => {
            let resp = handle_status(inner, &req);
            write_line(w, &resp)?;
        }
        "cancel" => {
            let resp = handle_cancel(inner, &req);
            write_line(w, &resp)?;
        }
        "report" => match assemble_report(inner, &req) {
            Ok(lines) => {
                let header = ok_line(&format!("\"kind\":\"report\",\"lines\":{}", lines.len()));
                write_lines(
                    w,
                    std::iter::once(&header).chain(&lines).map(String::as_str),
                )?;
            }
            Err(e) => write_line(w, &err_line(&e))?,
        },
        "metrics" => {
            let line = scope_line("serve", &inner.rec.frame());
            write_lines(
                w,
                [&ok_line("\"kind\":\"metrics\",\"lines\":1"), &line].map(String::as_str),
            )?;
        }
        "watch" => return handle_watch(inner, &req, w).map(|()| true),
        "drain" => {
            // Graceful drain: stop admitting and claiming, answer with
            // what is still in flight, and let the watchdog turn "idle"
            // into a clean exit. Idempotent.
            inner.rec.add("serve.drain.requested", 1);
            inner.draining.store(true, Ordering::SeqCst);
            inner.work.notify_all();
            let inflight: usize = {
                let st = inner.lock();
                st.jobs.values().map(|j| j.queue.in_flight()).sum()
            };
            write_line(
                w,
                &ok_line(&format!("\"draining\":true,\"inflight\":{inflight}")),
            )?;
        }
        "gc" => {
            let resp = handle_gc(inner);
            write_line(w, &resp)?;
        }
        "shutdown" => {
            write_line(w, &ok_line("\"stopping\":true"))?;
            inner.initiate_shutdown();
            return Ok(false);
        }
        other => write_line(w, &err_line(&format!("unknown op {other:?}")))?,
    }
    Ok(true)
}

fn job_from_req<'a>(req: &Value, st: &'a mut State) -> Result<(u64, &'a mut JobState), String> {
    let id = req
        .get("job")
        .and_then(Value::as_str)
        .and_then(parse_job_id)
        .ok_or("request needs a \"job\" id (16 lowercase hex digits)")?;
    match st.jobs.get_mut(&id) {
        Some(job) => Ok((id, job)),
        None => Err(format!("unknown job {}", render_job_id(id))),
    }
}

/// Admits a submit request; `line` is the request as received, which the
/// spec record stores verbatim.
fn handle_submit(inner: &Arc<Inner>, req: &Value, line: &str) -> String {
    if inner.draining.load(Ordering::SeqCst) {
        inner.rec.add("serve.jobs.rejected", 1);
        return err_line("server is draining; new jobs are not admitted");
    }
    let tenant = req
        .get("tenant")
        .and_then(Value::as_str)
        .unwrap_or("default")
        .to_string();
    let Some(spec_json) = req.get("spec") else {
        inner.rec.add("serve.jobs.rejected", 1);
        return err_line("submit needs a \"spec\" object");
    };
    let job = match CampaignSpec::from_json(spec_json).and_then(|spec| spec.materialize()) {
        Ok(mat) => JobState::new(tenant.clone(), mat, &inner.cfg.retry),
        Err(e) => {
            inner.rec.add("serve.jobs.rejected", 1);
            return err_line(&e);
        }
    };
    let mut st = inner.lock();
    let quota = inner.cfg.quota_for(&tenant);
    if inner.active_jobs(&st, &tenant) >= quota.max_queued_jobs {
        drop(st);
        inner.rec.add("serve.jobs.rejected", 1);
        inner.rec.add("serve.backpressure.rejections", 1);
        return busy_line(
            &format!(
                "tenant {tenant:?} is at its queued-job quota ({})",
                quota.max_queued_jobs
            ),
            inner.cfg.retry_after_ms,
        );
    }
    let seq = st.next_seq;
    st.next_seq += 1;
    let id = {
        let mut e = pgss_ckpt::Encoder::new();
        e.put_str(&tenant);
        e.put_u64(seq);
        e.put_bytes(line.as_bytes());
        pgss_ckpt::fnv1a64(&e.into_bytes())
    };
    let total = job.queue.cell_count();
    // Durable order matters: spec and status first, then the index that
    // names them — a crash between writes leaves an unnamed record, not
    // a dangling index entry. A job whose spec or index entry did not
    // land would be forgotten by a restart, so it is refused, not run.
    let spec_record = SpecRecord {
        request: line.to_string(),
    };
    let index = IndexRecord {
        next_seq: st.next_seq,
        jobs: {
            let mut jobs: Vec<(u64, String)> = st
                .jobs
                .iter()
                .map(|(jid, j)| (*jid, j.tenant.clone()))
                .collect();
            jobs.push((id, tenant));
            jobs
        },
    };
    let durable = inner
        .store
        .put(job_key(JobRecordKind::Spec, id, 0), &spec_record.encode())
        .map_err(|e| format!("spec record ({e})"))
        .and_then(|()| {
            inner.write_status(id, &job);
            inner
                .store
                .put(index_key(), &index.encode())
                .map_err(|e| format!("job index ({e})"))
        });
    if let Err(what) = durable {
        drop(st);
        inner.rec.add("serve.store.put_failed", 1);
        inner.rec.add("serve.jobs.rejected", 1);
        return err_line(&format!(
            "job not accepted: writing its {what} failed, so a restart would not know it"
        ));
    }
    st.jobs.insert(id, job);
    st.order.push(id);
    drop(st);
    inner.rec.add("serve.jobs.submitted", 1);
    inner.work.notify_all();
    ok_line(&format!(
        "\"job\":\"{}\",\"cells\":{total}",
        render_job_id(id)
    ))
}

fn handle_status(inner: &Arc<Inner>, req: &Value) -> String {
    let mut st = inner.lock();
    match job_from_req(req, &mut st) {
        Ok((_, job)) => ok_line(&format!(
            "\"phase\":\"{}\",\"done\":{},\"total\":{},\"failed\":{},\"retries\":{}",
            job.phase.as_str(),
            job.queue.done_count(),
            job.queue.cell_count(),
            job.queue.failures().count(),
            job.queue.retries()
        )),
        Err(e) => err_line(&e),
    }
}

fn handle_cancel(inner: &Arc<Inner>, req: &Value) -> String {
    let mut st = inner.lock();
    let resp = match job_from_req(req, &mut st) {
        Ok((id, job)) => {
            if job.phase.is_terminal() {
                err_line(&format!("job is already {}", job.phase.as_str()))
            } else {
                job.cancelled = true;
                job.queue.cancel();
                if job.queue.in_flight() == 0 {
                    inner.finish_cancel(id, job);
                }
                ok_line("\"cancelled\":true")
            }
        }
        Err(e) => err_line(&e),
    };
    drop(st);
    inner.work.notify_all();
    resp
}

/// Mark-and-sweep over the server's store, answering the `gc` verb.
///
/// Marking and sweeping both happen under the scheduler lock: every
/// job-record write (cell, spec, status, index) happens under the same
/// lock, so no live record can land mid-sweep. The live roots are:
///
/// - the job index, plus every indexed job's spec and status records;
/// - **all** cell records `0..total` of every job, finished or not —
///   unfinished jobs never lose what they already computed;
/// - the ladder record ([`LadderGroup::key`]) of every job's ladder
///   groups.
///
/// A ladder build's write-back runs outside the scheduler lock, but it
/// needs no deferral: the record's key is live before the record lands,
/// and the write-back's temporary file is never swept. Quarantined
/// evidence is structurally out of reach ([`Store::gc`] never enters the
/// sidecar).
/// Records of jobs orphaned by a quarantined index are unreachable by
/// resume and therefore legitimately collectable.
fn handle_gc(inner: &Arc<Inner>) -> String {
    let st = inner.lock();
    let mut live: BTreeSet<u64> = BTreeSet::new();
    live.insert(index_key());
    for (&id, job) in &st.jobs {
        live.insert(job_key(JobRecordKind::Spec, id, 0));
        live.insert(job_key(JobRecordKind::Status, id, 0));
        for i in 0..job.queue.cell_count() {
            live.insert(job_key(JobRecordKind::Cell, id, i as u64));
        }
        let jobs = job.grid.mat.jobs();
        live.extend(job.grid.groups.iter().map(|group| group.key(&jobs)));
    }
    let report = inner.store.gc(|key| live.contains(&key));
    drop(st);
    match report {
        Ok(r) => ok_line(&format!(
            "\"kind\":\"gc\",\"checked\":{},\"live\":{},\"swept\":{},\"bytes_freed\":{}",
            r.checked, r.live, r.swept, r.bytes_freed
        )),
        Err(e) => err_line(&format!("gc failed: {e}")),
    }
}

/// Assembles a terminal job's canonical campaign artifact from the lines
/// its cell records stored, with [`wire::canonical_artifact`], the layout
/// behind [`pgss::CampaignReport::canonical_jsonl`] — so an equivalent
/// library run yields the same bytes. A done cell whose record is missing
/// (its store write failed) is a typed error, never a short artifact.
fn assemble_report(inner: &Arc<Inner>, req: &Value) -> Result<Vec<String>, String> {
    let mut st = inner.lock();
    let (id, job) = job_from_req(req, &mut st)?;
    if !job.phase.is_terminal() {
        return Err(format!(
            "job is {}; report needs a finished job",
            job.phase.as_str()
        ));
    }
    let mut cell_lines = Vec::new();
    let mut scope_lines = Vec::new();
    for i in (0..job.queue.cell_count()).filter(|&i| job.queue.is_done(i)) {
        let Some(record) = inner.read_cell(id, i)? else {
            return Err(format!(
                "cell {i} finished but its record is missing (the store write failed); \
                 a server restart re-runs the cell"
            ));
        };
        cell_lines.push(record.cell_line);
        scope_lines.push(record.scope_line);
    }
    let failure_lines = job.queue.failures().map(|(_, l)| l.clone()).collect();
    Ok(wire::canonical_artifact(
        cell_lines,
        failure_lines,
        job.queue.retries(),
        scope_lines,
    ))
}

fn handle_watch(inner: &Arc<Inner>, req: &Value, w: &mut Stream) -> io::Result<()> {
    let (rx, replay) = {
        let mut st = inner.lock();
        let (id, job) = match job_from_req(req, &mut st) {
            Ok(x) => x,
            Err(e) => return write_line(w, &err_line(&e)),
        };
        // Replay what already finished, in job order, before going live.
        // A done cell whose record is missing or unreadable is skipped:
        // `report` names it, and a restart re-runs it.
        let replay: Vec<String> = (0..job.queue.cell_count())
            .filter(|&i| job.queue.is_done(i))
            .filter_map(|i| {
                let record = inner.read_cell(id, i).ok()??;
                Some(event_line(id, job, i, &record))
            })
            .collect();
        inner.rec.add("serve.cells.streamed", replay.len() as u64);
        if job.phase.is_terminal() {
            let end = format!(
                "{{\"ok\":true,\"event\":\"end\",\"phase\":\"{}\"}}",
                job.phase.as_str()
            );
            drop(st);
            return write_lines(w, replay.iter().chain([&end]).map(String::as_str));
        }
        let (tx, rx) = mpsc::channel();
        job.watchers.push(tx);
        (rx, replay)
    };
    write_lines(w, replay.iter().map(String::as_str))?;
    loop {
        match rx.recv() {
            Ok(WatchMsg::Event(line)) => write_line(w, &line)?,
            Ok(WatchMsg::End(line)) => return write_line(w, &line),
            // Sender dropped without an end event: server shutting down.
            Err(_) => {
                return write_line(w, "{\"ok\":true,\"event\":\"end\",\"phase\":\"detached\"}")
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::{Client, ClientError, JobStatus};

    /// Two ladder groups of four cells each.
    const SPEC: &str = r#"{"suite":[
          {"name":"164.gzip","scale":0.002},{"name":"183.equake","scale":0.002}],
        "techniques":[{"kind":"smarts","period_ops":50000},
                      {"kind":"turbo_smarts","period_ops":50000},
                      {"kind":"online_simpoint","interval_ops":100000},
                      {"kind":"pgss","ff_ops":50000,"spacing_ops":100000}],
        "stride":50000}"#;

    fn wait_for(addr: &BoundAddr, job: &str, until: impl Fn(&JobStatus) -> bool) {
        let deadline = Instant::now() + Duration::from_secs(600);
        loop {
            let status = Client::connect(addr).unwrap().status(job).unwrap();
            if until(&status) {
                return;
            }
            assert!(Instant::now() < deadline, "stuck at {status:?}");
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// Waits out any ladder build still in flight for `job` (a cancel
    /// does not wait for one), then returns the ladders its queue holds.
    fn resident_ladders(server: &Server, job: &str) -> usize {
        let id = parse_job_id(job).unwrap();
        loop {
            let st = server.inner.lock();
            let queue = &st.jobs[&id].queue;
            if !queue.is_building() {
                return queue.resident_ladders();
            }
            drop(st);
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// A server whose default quota runs no cell and claims no build.
    fn idle_server(dir: &std::path::Path) -> Server {
        let _ = std::fs::remove_dir_all(dir);
        let cfg = ServeConfig {
            workers: 1,
            default_quota: TenantQuota {
                max_concurrent_cells: 0,
                ..TenantQuota::default()
            },
            ..ServeConfig::default()
        };
        Server::start(dir, Listen::Tcp("127.0.0.1:0".into()), cfg).unwrap()
    }

    #[test]
    fn only_the_canonical_job_id_names_a_job() {
        let dir = std::env::temp_dir().join(format!("pgss-serve-ids-{}", std::process::id()));
        // No cell may run: the job stays queued while its ids are probed.
        let server = idle_server(&dir);
        let addr = server.addr().clone();
        let submitted = Client::connect(&addr).unwrap().submit("t", SPEC).unwrap();
        // Re-file the job under an id whose rendering has both a leading
        // zero (a `+` parses in its place) and hex letters.
        let id = 0xab;
        {
            let mut st = server.inner.lock();
            let job = st.jobs.remove(&parse_job_id(&submitted).unwrap()).unwrap();
            st.jobs.insert(id, job);
            st.order = vec![id];
        }
        let status = |job: &str| Client::connect(&addr).unwrap().status(job);
        assert_eq!(status("00000000000000ab").unwrap().phase, "queued");
        for alias in ["+0000000000000ab", "00000000000000AB"] {
            match status(alias) {
                Err(ClientError::Server(m)) => assert!(m.contains("needs a \"job\" id"), "{m}"),
                other => panic!("{alias} must not name job {id:x}: {other:?}"),
            }
        }
        server.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_runs_while_a_ladder_build_is_in_flight() {
        let dir = std::env::temp_dir().join(format!("pgss-serve-gc-build-{}", std::process::id()));
        let server = idle_server(&dir);
        let addr = server.addr().clone();
        let job = Client::connect(&addr).unwrap().submit("t", SPEC).unwrap();
        let store = &server.inner.store;
        let ladder_key = {
            let mut st = server.inner.lock();
            let state = st.jobs.get_mut(&parse_job_id(&job).unwrap()).unwrap();
            let group = state.queue.claim_build().expect("a build to claim");
            assert!(state.queue.is_building());
            let key = state.grid.groups[group].key(&state.grid.mat.jobs());
            // The build's write-back lands, and one garbage record.
            store.put(key, b"ladder").unwrap();
            store.put(0x0bad, b"garbage").unwrap();
            key
        };
        let gc = Client::connect(&addr).unwrap().gc().unwrap();
        assert_eq!(gc.swept, 1, "{gc:?}");
        assert!(store.path_for(ladder_key).is_file(), "ladder key not live");
        assert!(!store.path_for(0x0bad).exists());
        server.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_submit_without_a_spec_counts_as_rejected() {
        let dir = std::env::temp_dir().join(format!("pgss-serve-nospec-{}", std::process::id()));
        let server = idle_server(&dir);
        let addr = server.addr().clone();
        let BoundAddr::Tcp(socket) = addr else {
            unreachable!("listening on TCP")
        };
        for request in [r#"{"op":"submit"}"#, r#"{"op":"submit","spec":{}}"#] {
            let mut stream = TcpStream::connect(socket).unwrap();
            writeln!(stream, "{request}").unwrap();
            let mut reply = String::new();
            BufReader::new(stream).read_line(&mut reply).unwrap();
            assert!(reply.starts_with("{\"ok\":false"), "{request}: {reply}");
        }
        let metrics = Client::connect(&addr).unwrap().metrics().unwrap();
        let v = json::parse(&metrics).unwrap();
        let rejected = v
            .get("counters")
            .and_then(|c| c.get("serve.jobs.rejected"))
            .and_then(Value::as_u64);
        assert_eq!(rejected, Some(2), "{metrics}");
        server.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn done_and_cancelled_jobs_hold_no_ladder_and_gc_keeps_their_records() {
        let dir = std::env::temp_dir().join(format!("pgss-serve-ladders-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        };
        let server = Server::start(&dir, Listen::Tcp("127.0.0.1:0".into()), cfg).unwrap();
        let addr = server.addr().clone();

        let cancelled = Client::connect(&addr).unwrap().submit("t", SPEC).unwrap();
        wait_for(&addr, &cancelled, |s| s.done >= 1);
        Client::connect(&addr).unwrap().cancel(&cancelled).unwrap();
        wait_for(&addr, &cancelled, |s| s.phase == "cancelled");
        assert_eq!(resident_ladders(&server, &cancelled), 0);

        let done = Client::connect(&addr).unwrap().submit("t", SPEC).unwrap();
        wait_for(&addr, &done, |s| s.phase == "done");
        assert_eq!(resident_ladders(&server, &done), 0);

        // The in-memory ladders are gone, but GC still roots their
        // records: nothing is swept, and every ladder record survives.
        let gc = Client::connect(&addr).unwrap().gc().unwrap();
        assert_eq!(gc.swept, 0);
        let st = server.inner.lock();
        for job in st.jobs.values() {
            let jobs = job.grid.mat.jobs();
            for group in &job.grid.groups {
                assert!(server.inner.store.path_for(group.key(&jobs)).is_file());
            }
        }
        drop(st);
        server.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
