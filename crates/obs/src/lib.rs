//! Hermetic observability for the PGSS-Sim reproduction: counters,
//! scoped spans, value distributions, and streaming histograms behind a
//! [`Recorder`] trait whose default implementation is a no-op.
//!
//! # Design
//!
//! Instrumented code talks to an abstract [`Recorder`]; the hot paths in
//! `pgss` (driver segment loop, campaign workers, checkpoint store) hold
//! an `Arc<dyn Recorder>` that defaults to [`NoopRecorder`], whose
//! methods are empty and inlineable — an uninstrumented run pays one
//! virtual call per *segment* (thousands to millions of ops), nothing
//! per op.
//!
//! [`MetricsRecorder`] is the real sink: it accumulates a
//! [`MetricsFrame`] (sorted maps of counters, spans, [`Welford`]
//! distributions, and [`Histogram`]s). Frames are values: they
//! [`MetricsFrame::merge`] associatively, which is what lets a parallel
//! campaign give every worker cell its own recorder and fold the frames
//! in deterministic job order at join — emitted metrics are then
//! byte-identical no matter how many workers ran (`PGSS_WORKERS`).
//!
//! # Determinism of metrics
//!
//! Everything in a frame is deterministic **except** wall-clock span
//! durations. [`SpanStat`] therefore carries `total_ns` but excludes it
//! from `PartialEq`, `Debug`, and the JSONL export: reports compare and
//! print identically across runs and thread counts, while a live caller
//! (e.g. the `fig13_simulation_time` harness) can still read real timings off the
//! in-memory report. Tests that need exact span durations inject a
//! [`ManualClock`] instead of the default [`MonotonicClock`].
//!
//! The JSONL export ([`MetricsReport::to_jsonl`]) is versioned by
//! [`METRICS_SCHEMA_VERSION`] and pinned by a golden test, the same way
//! the checkpoint snapshot format is pinned.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use pgss_stats::{Histogram, Welford};

/// Version of the JSONL export schema. Bump deliberately when the line
/// layout changes; `tests/metrics_golden.rs` pins both this constant and
/// an exact exported line.
pub const METRICS_SCHEMA_VERSION: u32 = 1;

// ---------------------------------------------------------------------------
// Clocks

/// A monotonic nanosecond clock. Injected into [`MetricsRecorder`] so
/// tests can replace wall time with a [`ManualClock`] and assert exact
/// span durations.
pub trait Clock: Send + Sync + fmt::Debug {
    /// Nanoseconds since an arbitrary fixed origin; must never decrease.
    fn now_ns(&self) -> u64;
}

/// Real wall time via [`Instant`], measured from clock construction.
#[derive(Debug, Clone)]
pub struct MonotonicClock {
    origin: Instant,
}

impl MonotonicClock {
    /// A clock whose origin is "now".
    pub fn new() -> MonotonicClock {
        MonotonicClock {
            origin: Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> MonotonicClock {
        MonotonicClock::new()
    }
}

impl Clock for MonotonicClock {
    fn now_ns(&self) -> u64 {
        // Saturate far in the future rather than panic; u64 nanoseconds
        // cover ~584 years of process uptime.
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// A hand-advanced clock for deterministic tests.
#[derive(Debug, Default)]
pub struct ManualClock {
    now: AtomicU64,
}

impl ManualClock {
    /// A clock stopped at 0 ns.
    pub fn new() -> ManualClock {
        ManualClock::default()
    }

    /// Advances the clock by `ns`.
    pub fn advance(&self, ns: u64) {
        self.now.fetch_add(ns, Ordering::SeqCst);
    }
}

impl Clock for ManualClock {
    fn now_ns(&self) -> u64 {
        self.now.load(Ordering::SeqCst)
    }
}

// ---------------------------------------------------------------------------
// Recorder trait

/// The instrumentation sink. Every method has an empty default body, so
/// `impl Recorder for NoopRecorder {}` is the whole disabled path.
///
/// Metric names are dot-separated static-ish strings (`"driver.ops.detail"`);
/// recorders key storage by name, so the same name always means the same
/// series.
pub trait Recorder: Send + Sync + fmt::Debug {
    /// True when this recorder actually stores anything. Hot paths may
    /// check this once and skip building metric values entirely.
    fn enabled(&self) -> bool {
        false
    }

    /// Adds `delta` to the counter `name`.
    fn add(&self, name: &str, delta: u64) {
        let _ = (name, delta);
    }

    /// Feeds `value` into the streaming distribution (Welford) `name`.
    fn observe(&self, name: &str, value: f64) {
        let _ = (name, value);
    }

    /// Feeds `value` into the histogram `name`. Histograms have fixed
    /// ranges, so the name must have been registered on the concrete
    /// recorder (see [`MetricsRecorder::register_hist`]); unregistered
    /// names are ignored.
    fn record_hist(&self, name: &str, value: f64) {
        let _ = (name, value);
    }

    /// Current time for span measurement. The no-op recorder returns 0,
    /// so disabled spans never touch the clock.
    fn now_ns(&self) -> u64 {
        0
    }

    /// Reports a finished span: `elapsed_ns` of wall time under `name`.
    fn span_closed(&self, name: &str, elapsed_ns: u64) {
        let _ = (name, elapsed_ns);
    }
}

/// The disabled recorder: every method is a no-op.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {}

/// A scoped timer: measures from [`Span::enter`] to drop and reports the
/// duration via [`Recorder::span_closed`]. Against a [`NoopRecorder`]
/// both ends are free.
#[derive(Debug)]
pub struct Span<'a> {
    rec: &'a dyn Recorder,
    name: &'a str,
    start_ns: u64,
}

impl<'a> Span<'a> {
    /// Starts a span named `name` on `rec`.
    pub fn enter(rec: &'a dyn Recorder, name: &'a str) -> Span<'a> {
        Span {
            rec,
            name,
            start_ns: rec.now_ns(),
        }
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let elapsed = self.rec.now_ns().saturating_sub(self.start_ns);
        self.rec.span_closed(self.name, elapsed);
    }
}

// ---------------------------------------------------------------------------
// Frames

/// Aggregated statistics for one span name.
///
/// `total_ns` is wall time and therefore nondeterministic; it is
/// deliberately excluded from `PartialEq`, `Debug`, and the JSONL export
/// so that metric reports stay byte-identical across runs and worker
/// counts (see the crate docs). Read it explicitly when you want real
/// timings.
#[derive(Clone, Copy, Default)]
pub struct SpanStat {
    /// How many spans closed under this name.
    pub count: u64,
    /// Total wall-clock nanoseconds across those spans (nondeterministic).
    pub total_ns: u64,
}

impl PartialEq for SpanStat {
    fn eq(&self, other: &SpanStat) -> bool {
        self.count == other.count
    }
}

impl fmt::Debug for SpanStat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // `total_ns` is elided: Debug output feeds byte-identical-replay
        // assertions.
        f.debug_struct("SpanStat")
            .field("count", &self.count)
            .finish_non_exhaustive()
    }
}

impl SpanStat {
    /// Folds another span aggregate into this one.
    pub fn merge(&mut self, other: &SpanStat) {
        self.count += other.count;
        self.total_ns = self.total_ns.saturating_add(other.total_ns);
    }
}

/// One recorder's worth of metrics: sorted maps from metric name to
/// counter / span / distribution / histogram state. Frames are plain
/// values that merge associatively.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsFrame {
    /// Monotonic counters.
    pub counters: BTreeMap<String, u64>,
    /// Scoped-timer aggregates.
    pub spans: BTreeMap<String, SpanStat>,
    /// Streaming mean/variance accumulators.
    pub dists: BTreeMap<String, Welford>,
    /// Fixed-range streaming histograms.
    pub hists: BTreeMap<String, Histogram>,
}

impl MetricsFrame {
    /// An empty frame.
    pub fn new() -> MetricsFrame {
        MetricsFrame::default()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.spans.is_empty()
            && self.dists.is_empty()
            && self.hists.is_empty()
    }

    /// The counter `name`, or 0 if never touched.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The span aggregate `name`, if any span closed under it.
    pub fn span(&self, name: &str) -> Option<&SpanStat> {
        self.spans.get(name)
    }

    /// Adds `delta` to counter `name`.
    pub fn add(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Folds `other` into `self`: counters add, spans add, Welford
    /// accumulators merge (Chan's method), histograms merge bin-wise.
    ///
    /// Counter/span/histogram merging is exact and fully associative.
    /// Welford merging is associative only up to float rounding, so
    /// deterministic aggregation must fold frames in a fixed order —
    /// the campaign folds per-cell frames in job order.
    pub fn merge(&mut self, other: &MetricsFrame) {
        for (name, delta) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += delta;
        }
        for (name, stat) in &other.spans {
            self.spans.entry(name.clone()).or_default().merge(stat);
        }
        for (name, w) in &other.dists {
            self.dists.entry(name.clone()).or_default().merge(w);
        }
        for (name, h) in &other.hists {
            match self.hists.get_mut(name) {
                Some(mine) => mine.merge(h),
                None => {
                    self.hists.insert(name.clone(), h.clone());
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// MetricsRecorder

fn recover<T>(lock: &Mutex<T>) -> MutexGuard<'_, T> {
    // A panic while holding the frame lock leaves a valid (if partial)
    // frame; metrics must never turn a recovered fault into a new one.
    lock.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The real recorder: accumulates a [`MetricsFrame`] behind a mutex,
/// with an injected [`Clock`] for span timing.
#[derive(Debug)]
pub struct MetricsRecorder {
    clock: Arc<dyn Clock>,
    frame: Mutex<MetricsFrame>,
}

impl Default for MetricsRecorder {
    fn default() -> MetricsRecorder {
        MetricsRecorder::new()
    }
}

impl MetricsRecorder {
    /// A recorder on real wall time ([`MonotonicClock`]).
    pub fn new() -> MetricsRecorder {
        MetricsRecorder::with_clock(Arc::new(MonotonicClock::new()))
    }

    /// A recorder on an injected clock (tests use [`ManualClock`]).
    pub fn with_clock(clock: Arc<dyn Clock>) -> MetricsRecorder {
        MetricsRecorder {
            clock,
            frame: Mutex::new(MetricsFrame::new()),
        }
    }

    /// Declares the histogram `name` with `bins` equal-width bins over
    /// `[min, max)`. [`Recorder::record_hist`] values for names that were
    /// never registered are dropped — a histogram cannot guess its range.
    pub fn register_hist(&self, name: &str, min: f64, max: f64, bins: usize) {
        recover(&self.frame)
            .hists
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(min, max, bins));
    }

    /// A snapshot of everything recorded so far.
    pub fn frame(&self) -> MetricsFrame {
        recover(&self.frame).clone()
    }

    /// Consumes the recorder, returning its frame without cloning.
    pub fn into_frame(self) -> MetricsFrame {
        self.frame
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl Recorder for MetricsRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn add(&self, name: &str, delta: u64) {
        recover(&self.frame).add(name, delta);
    }

    fn observe(&self, name: &str, value: f64) {
        recover(&self.frame)
            .dists
            .entry(name.to_string())
            .or_default()
            .push(value);
    }

    fn record_hist(&self, name: &str, value: f64) {
        if let Some(h) = recover(&self.frame).hists.get_mut(name) {
            h.add(value);
        }
    }

    fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    fn span_closed(&self, name: &str, elapsed_ns: u64) {
        let mut frame = recover(&self.frame);
        let stat = frame.spans.entry(name.to_string()).or_default();
        stat.count += 1;
        stat.total_ns = stat.total_ns.saturating_add(elapsed_ns);
    }
}

// ---------------------------------------------------------------------------
// Reports + JSONL export

/// Named scopes of metrics: the campaign-level frame plus one frame per
/// grid cell, in deterministic (job) order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsReport {
    /// `(scope name, frame)` pairs in insertion order.
    pub scopes: Vec<(String, MetricsFrame)>,
}

impl MetricsReport {
    /// An empty report.
    pub fn new() -> MetricsReport {
        MetricsReport::default()
    }

    /// Appends a named scope.
    pub fn push_scope(&mut self, name: impl Into<String>, frame: MetricsFrame) {
        self.scopes.push((name.into(), frame));
    }

    /// The first scope named `name`, if present.
    pub fn scope(&self, name: &str) -> Option<&MetricsFrame> {
        self.scopes.iter().find(|(n, _)| n == name).map(|(_, f)| f)
    }

    /// True when the report has no scopes.
    pub fn is_empty(&self) -> bool {
        self.scopes.is_empty()
    }

    /// All scopes folded into one frame (scope order, so deterministic
    /// for a deterministically-built report).
    pub fn totals(&self) -> MetricsFrame {
        let mut total = MetricsFrame::new();
        for (_, frame) in &self.scopes {
            total.merge(frame);
        }
        total
    }

    /// Serializes the report as JSON Lines: one object per scope, keys in
    /// sorted order, schema versioned by [`METRICS_SCHEMA_VERSION`].
    ///
    /// Span wall times are **not** exported (only counts) — the export is
    /// byte-identical across reruns and `PGSS_WORKERS` settings.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (name, frame) in &self.scopes {
            export_scope(&mut out, name, frame);
            out.push('\n');
        }
        out
    }
}

/// Serializes one named scope as a single JSON line (no trailing
/// newline), on exactly the schema [`MetricsReport::to_jsonl`] emits —
/// [`METRICS_SCHEMA_VERSION`]-tagged, sorted keys, span wall times
/// excluded. This is the streaming building block: the campaign server
/// uses it to fold live counters into each frame it streams, and the
/// canonical campaign artifact uses it to export per-cell scopes without
/// assembling a whole report first.
pub fn scope_line(name: &str, frame: &MetricsFrame) -> String {
    let mut out = String::new();
    export_scope(&mut out, name, frame);
    out
}

fn export_scope(out: &mut String, name: &str, frame: &MetricsFrame) {
    use fmt::Write as _;
    out.push_str("{\"v\":");
    let _ = write!(out, "{METRICS_SCHEMA_VERSION}");
    out.push_str(",\"scope\":");
    json_string(out, name);
    out.push_str(",\"counters\":{");
    for (i, (k, v)) in frame.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json_string(out, k);
        let _ = write!(out, ":{v}");
    }
    out.push_str("},\"spans\":{");
    for (i, (k, s)) in frame.spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json_string(out, k);
        let _ = write!(out, ":{}", s.count);
    }
    out.push_str("},\"dists\":{");
    for (i, (k, w)) in frame.dists.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json_string(out, k);
        out.push_str(":{\"n\":");
        let _ = write!(out, "{}", w.count());
        out.push_str(",\"mean\":");
        json_f64(out, w.mean());
        out.push_str(",\"std\":");
        json_f64(out, w.sample_stddev());
        out.push('}');
    }
    out.push_str("},\"hists\":{");
    for (i, (k, h)) in frame.hists.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json_string(out, k);
        out.push_str(":{\"min\":");
        json_f64(out, h.min());
        out.push_str(",\"max\":");
        json_f64(out, h.max());
        out.push_str(",\"total\":");
        let _ = write!(out, "{}", h.total());
        out.push_str(",\"counts\":[");
        for (j, c) in h.counts().iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "{c}");
        }
        out.push_str("]}");
    }
    out.push_str("}}");
}

/// Appends `s` as a JSON string literal — the exporter's escaping rules,
/// public so the other JSON emitters in the workspace (the campaign
/// server's wire protocol, the canonical campaign artifact) escape
/// byte-identically to this crate.
pub fn json_string(out: &mut String, s: &str) {
    use fmt::Write as _;
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends a finite f64 in Rust's shortest-roundtrip decimal form (which
/// is valid JSON and deterministic for identical bits); non-finite
/// values, which JSON cannot carry, export as `null`. Public for the same
/// reason as [`json_string`].
pub fn json_f64(out: &mut String, x: f64) {
    use fmt::Write as _;
    if x.is_finite() {
        let _ = write!(out, "{x}");
    } else {
        out.push_str("null");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_recorder_is_inert_and_free_to_time() {
        let rec = NoopRecorder;
        assert!(!rec.enabled());
        rec.add("c", 3);
        rec.observe("d", 1.0);
        rec.record_hist("h", 0.5);
        assert_eq!(rec.now_ns(), 0);
        drop(Span::enter(&rec, "s"));
    }

    #[test]
    fn spans_measure_injected_clock_time() {
        let clock = Arc::new(ManualClock::new());
        let rec = MetricsRecorder::with_clock(Arc::clone(&clock) as Arc<dyn Clock>);
        {
            let _span = Span::enter(&rec, "work");
            clock.advance(250);
        }
        {
            let _span = Span::enter(&rec, "work");
            clock.advance(750);
        }
        let frame = rec.into_frame();
        let stat = frame.span("work").unwrap();
        assert_eq!(stat.count, 2);
        assert_eq!(stat.total_ns, 1_000);
    }

    #[test]
    fn span_stat_equality_and_debug_ignore_wall_time() {
        let a = SpanStat {
            count: 2,
            total_ns: 10,
        };
        let b = SpanStat {
            count: 2,
            total_ns: 99_999,
        };
        assert_eq!(a, b);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert!(!format!("{a:?}").contains("10"));
    }

    #[test]
    fn frames_merge_exactly_for_counters_spans_hists() {
        let mut a = MetricsFrame::new();
        a.add("ops", 5);
        a.spans.insert(
            "run".to_string(),
            SpanStat {
                count: 1,
                total_ns: 10,
            },
        );
        let mut ha = Histogram::new(0.0, 1.0, 4);
        ha.add(0.1);
        a.hists.insert("share".to_string(), ha);

        let mut b = MetricsFrame::new();
        b.add("ops", 7);
        b.add("jumps", 1);
        b.spans.insert(
            "run".to_string(),
            SpanStat {
                count: 2,
                total_ns: 30,
            },
        );
        let mut hb = Histogram::new(0.0, 1.0, 4);
        hb.add(0.9);
        b.hists.insert("share".to_string(), hb);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "frame merge must be order-independent");
        assert_eq!(ab.counter("ops"), 12);
        assert_eq!(ab.counter("jumps"), 1);
        assert_eq!(ab.span("run").unwrap().count, 3);
        assert_eq!(ab.span("run").unwrap().total_ns, 40);
        assert_eq!(ab.hists["share"].total(), 2);
    }

    #[test]
    fn unregistered_histogram_values_are_dropped() {
        let rec = MetricsRecorder::new();
        rec.record_hist("nope", 0.5);
        rec.register_hist("yes", 0.0, 1.0, 2);
        rec.record_hist("yes", 0.5);
        let frame = rec.into_frame();
        assert!(!frame.hists.contains_key("nope"));
        assert_eq!(frame.hists["yes"].total(), 1);
    }

    #[test]
    fn jsonl_export_is_stable_and_escapes() {
        let rec = MetricsRecorder::with_clock(Arc::new(ManualClock::new()));
        rec.add("b.counter", 2);
        rec.add("a.counter", 1);
        rec.observe("dist", 1.5);
        rec.observe("dist", 2.5);
        rec.register_hist("h", 0.0, 1.0, 2);
        rec.record_hist("h", 0.25);
        rec.span_closed("span", 123);
        let mut report = MetricsReport::new();
        report.push_scope("odd \"name\"\n", rec.into_frame());
        let line = report.to_jsonl();
        assert_eq!(
            line,
            "{\"v\":1,\"scope\":\"odd \\\"name\\\"\\n\",\
             \"counters\":{\"a.counter\":1,\"b.counter\":2},\
             \"spans\":{\"span\":1},\
             \"dists\":{\"dist\":{\"n\":2,\"mean\":2,\"std\":0.7071067811865476}},\
             \"hists\":{\"h\":{\"min\":0,\"max\":1,\"total\":1,\"counts\":[1,0]}}}\n"
        );
        assert!(!line.contains("123"), "span wall time must not export");
    }

    #[test]
    fn scope_line_matches_report_export() {
        let rec = MetricsRecorder::with_clock(Arc::new(ManualClock::new()));
        rec.add("cells", 3);
        rec.observe("ipc", 1.25);
        let frame = rec.into_frame();
        let mut report = MetricsReport::new();
        report.push_scope("serve", frame.clone());
        let line = scope_line("serve", &frame);
        assert!(!line.ends_with('\n'));
        assert_eq!(format!("{line}\n"), report.to_jsonl());
    }

    #[test]
    fn report_scope_lookup_and_totals() {
        let mut a = MetricsFrame::new();
        a.add("x", 1);
        let mut b = MetricsFrame::new();
        b.add("x", 2);
        let mut report = MetricsReport::new();
        report.push_scope("campaign", a);
        report.push_scope("cell", b);
        assert_eq!(report.scope("cell").unwrap().counter("x"), 2);
        assert!(report.scope("missing").is_none());
        assert_eq!(report.totals().counter("x"), 3);
        assert!(!report.is_empty());
    }
}
