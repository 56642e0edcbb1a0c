//! The shared sampling engine: [`SimDriver`] owns the machine loop every
//! technique used to hand-roll, and each technique drives it directly with
//! plain loops over [`SimDriver::execute`].
//!
//! The split mirrors live-sampling systems such as Pac-Sim: one engine
//! executes a stream of *segments* (a [`pgss_cpu::Mode`] plus an op budget),
//! handles halt and truncation uniformly, accumulates the per-mode retired
//! counts and the retired-op position, and maintains a [`RunTrace`] of what
//! happened; techniques decide the next segment from the last outcome and
//! never touch the machine directly. A technique is then "construct
//! driver(s) bound to the run's [`SimContext`], loop over segments, compose
//! an [`crate::Estimate`]" — and a campaign runner can fan many such runs
//! across threads because the engine has no global state.
//!
//! # Example
//!
//! ```no_run
//! use pgss::driver::{Segment, SimDriver, Track};
//! use pgss::SimContext;
//! use pgss_cpu::Mode;
//!
//! // Measure 10k-op detailed samples every 100k ops until the halt.
//! let w = pgss_workloads::gzip(0.01);
//! let config = pgss_cpu::MachineConfig::default();
//! let mut driver = SimDriver::new(&w, &config, Track::None, &SimContext::none());
//! let mut cpis = Vec::new();
//! loop {
//!     let sample = driver.execute(Segment::new(Mode::DetailedMeasured, 10_000));
//!     if sample.complete() {
//!         cpis.push(sample.cpi());
//!         driver.trace_mut().samples_taken += 1;
//!     }
//!     if sample.halted || driver.execute(Segment::new(Mode::Functional, 90_000)).halted {
//!         break;
//!     }
//! }
//! println!("{} samples over {} ops", cpis.len(), driver.retired());
//! ```

use std::sync::{Arc, OnceLock};

use pgss_bbv::{BbvHash, FullBbv, FullBbvTracker, HashedBbv, HashedBbvTracker, MavTracker};
use pgss_cpu::{Machine, MachineConfig, MachineFault, Mode, ModeOps};
use pgss_obs::{MetricsFrame, Recorder, Span};
use pgss_workloads::Workload;

use crate::ckpt::{decode_machine_snapshot_into, CheckpointLadder, SimContext};

/// The `driver.segments.*` counter name for a mode.
fn mode_segments_key(mode: Mode) -> &'static str {
    match mode {
        Mode::FastForward => "driver.segments.fast_forward",
        Mode::Functional => "driver.segments.functional",
        Mode::DetailedWarming => "driver.segments.warm",
        Mode::DetailedMeasured => "driver.segments.detail",
    }
}

/// The `driver.ops.*` counter name for a mode: the *logical* ops charged
/// to that mode's segments, including distance a ladder jump covered
/// without executing it (also counted under [`JUMPED_OPS_KEY`]). Paired
/// with [`mode_wall_key`]; [`crate::timing`] derives per-mode rates from
/// the two.
pub fn mode_ops_key(mode: Mode) -> &'static str {
    match mode {
        Mode::FastForward => "driver.ops.fast_forward",
        Mode::Functional => "driver.ops.functional",
        Mode::DetailedWarming => "driver.ops.warm",
        Mode::DetailedMeasured => "driver.ops.detail",
    }
}

/// The counter of functional ops that ladder jumps skipped: charged under
/// [`mode_ops_key`]`(Mode::Functional)` but never executed.
pub const JUMPED_OPS_KEY: &str = "driver.ops.jumped";

/// The ops a frame's segments physically executed: their logical
/// [`mode_ops_key`] counts, net of the [`JUMPED_OPS_KEY`] distance.
pub(crate) fn executed_ops(frame: &MetricsFrame) -> u64 {
    let modes = [
        Mode::FastForward,
        Mode::Functional,
        Mode::DetailedWarming,
        Mode::DetailedMeasured,
    ];
    let logical: u64 = modes.map(|m| frame.counter(mode_ops_key(m))).iter().sum();
    logical - frame.counter(JUMPED_OPS_KEY)
}

/// The `driver.wall.*` span name for a mode: wall time spent inside
/// `Machine::run_with` for that mode's segments. Dividing the matching
/// [`mode_ops_key`] counter, net of jumped ops, by this span's total
/// yields per-mode interpreter throughput
/// ([`crate::timing::ModeRates::from_frame`]). Span *counts*
/// are deterministic (one per executed segment); the wall total is real
/// time and stays out of the byte-stable export, like every span.
pub fn mode_wall_key(mode: Mode) -> &'static str {
    match mode {
        Mode::FastForward => "driver.wall.fast_forward",
        Mode::Functional => "driver.wall.functional",
        Mode::DetailedWarming => "driver.wall.warm",
        Mode::DetailedMeasured => "driver.wall.detail",
    }
}

/// What the driver's retire sink tracks alongside execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Track {
    /// No BBV tracking; segments never yield vectors.
    None,
    /// The paper's hashed BBV (32 registers), hash chosen by this seed.
    Hashed(u64),
    /// SimPoint-style full per-static-block BBVs.
    Full,
    /// Memory Access Vectors: per-interval counts of data accesses binned
    /// into 32 memory regions ([`pgss_bbv::MavTracker`]). The vector is
    /// [`HashedBbv`]-shaped and delivered as [`Bbv::Hashed`], so phase
    /// tables and clustering consume either signature unchanged.
    Mav,
}

/// Which phase-signature family a phase-aware technique collects —
/// selectable per technique so offline/online SimPoint and PGSS can each
/// run on either control-flow or data-access signatures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Signature {
    /// The technique's native basic-block-vector signature: the paper's
    /// hashed branch BBV for the online techniques, the full
    /// per-static-block BBV for offline SimPoint.
    #[default]
    Bbv,
    /// Memory Access Vector ([`Track::Mav`]): phases distinguished by
    /// which memory regions the program touches rather than which
    /// branches it takes.
    Mav,
}

impl Signature {
    /// The driver track for a hashed-BBV-native (online) technique whose
    /// hash seed is `seed`.
    pub fn hashed_track(self, seed: u64) -> Track {
        match self {
            Signature::Bbv => Track::Hashed(seed),
            Signature::Mav => Track::Mav,
        }
    }

    /// The driver track for a full-BBV-native (offline SimPoint) profile
    /// pass.
    pub fn full_track(self) -> Track {
        match self {
            Signature::Bbv => Track::Full,
            Signature::Mav => Track::Mav,
        }
    }

    /// Technique-name suffix distinguishing the MAV variant (`""` or
    /// `"-MAV"`), so default names stay byte-identical.
    pub fn name_suffix(self) -> &'static str {
        match self {
            Signature::Bbv => "",
            Signature::Mav => "-MAV",
        }
    }
}

/// One unit of execution: run up to `max_ops` retired instructions in
/// `mode`, optionally closing a BBV interval at the end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Simulation mode for this segment.
    pub mode: Mode,
    /// Retired-instruction budget; the segment ends early on halt.
    pub max_ops: u64,
    /// When `true`, the tracker's accumulated vector is taken at the end of
    /// the segment and delivered in [`SegmentOutcome::bbv`] — tracking
    /// itself runs continuously across segments, exactly like the paper's
    /// hardware, so warming/measured ops between intervals still land in
    /// the following interval's vector.
    pub take_bbv: bool,
}

impl Segment {
    /// A segment with no BBV interval boundary.
    pub fn new(mode: Mode, max_ops: u64) -> Segment {
        Segment {
            mode,
            max_ops,
            take_bbv: false,
        }
    }

    /// A segment that closes a BBV interval when it ends.
    pub fn with_bbv(mode: Mode, max_ops: u64) -> Segment {
        Segment {
            mode,
            max_ops,
            take_bbv: true,
        }
    }
}

/// A basic-block vector taken at a segment boundary.
// A `SegmentOutcome` is consumed immediately by the technique, never stored in
// bulk, so the inline 264-byte `HashedBbv` beats a per-segment allocation.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Bbv {
    /// A hashed 32-register vector ([`Track::Hashed`]).
    Hashed(HashedBbv),
    /// A full per-static-block vector, L2-normalised ([`Track::Full`]).
    Full(Vec<f64>),
}

impl Bbv {
    /// The hashed vector, panicking for other kinds (technique/driver
    /// tracking-mode mismatch is a programming error).
    pub fn hashed(&self) -> &HashedBbv {
        match self {
            Bbv::Hashed(v) => v,
            Bbv::Full(_) => panic!("expected a hashed BBV, driver is tracking full BBVs"),
        }
    }

    /// The normalised full vector, panicking for other kinds.
    pub fn full(&self) -> &[f64] {
        match self {
            Bbv::Full(v) => v,
            Bbv::Hashed(_) => panic!("expected a full BBV, driver is tracking hashed BBVs"),
        }
    }
}

/// What happened when a [`Segment`] executed.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentOutcome {
    /// The segment as requested.
    pub segment: Segment,
    /// Instructions retired during the segment (< `max_ops` on halt).
    pub ops: u64,
    /// Cycles elapsed (zero in functional modes).
    pub cycles: u64,
    /// Whether the program halted during (or before) the segment.
    pub halted: bool,
    /// Cumulative retired instructions across the whole run, *after* this
    /// segment — the retired-op position sampling rules key on.
    pub retired: u64,
    /// The BBV interval closed by this segment, if `take_bbv` was set.
    pub bbv: Option<Bbv>,
}

impl SegmentOutcome {
    /// CPI of this segment; panics in functional modes (no timing model).
    pub fn cpi(&self) -> f64 {
        assert!(self.ops > 0, "CPI of an empty segment");
        self.cycles as f64 / self.ops as f64
    }

    /// `true` when the segment retired its full budget.
    pub fn complete(&self) -> bool {
        self.ops == self.segment.max_ops
    }
}

/// Counters describing one run through the driver — which segments
/// executed, which samples were taken or skipped and why, and what the
/// phase table did. Cheap plain counters, always on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunTrace {
    /// Segments executed per mode, indexed like [`Mode`]
    /// (fast-forward, functional, detailed-warming, detailed-measured).
    pub segments: [u64; 4],
    /// Segments that ended before their op budget (halt), excluding
    /// run-to-halt segments (`max_ops == u64::MAX`).
    pub truncated_segments: u64,
    /// Measured samples credited to the estimate (technique-maintained).
    pub samples_taken: u64,
    /// Samples skipped because the phase's confidence interval was met.
    pub skipped_ci_met: u64,
    /// Samples skipped by the sample-spacing rule.
    pub skipped_spacing: u64,
    /// Phases created in the phase table.
    pub phases_created: u64,
    /// Interval-to-interval phase transitions observed.
    pub phase_changes: u64,
}

impl RunTrace {
    /// Total segments executed across all modes.
    pub fn total_segments(&self) -> u64 {
        self.segments.iter().sum()
    }

    /// Samples skipped for any reason.
    pub fn samples_skipped(&self) -> u64 {
        self.skipped_ci_met + self.skipped_spacing
    }

    /// Accumulates another trace (for techniques that run several passes).
    pub fn merge(&mut self, other: &RunTrace) {
        for (a, b) in self.segments.iter_mut().zip(&other.segments) {
            *a += b;
        }
        self.truncated_segments += other.truncated_segments;
        self.samples_taken += other.samples_taken;
        self.skipped_ci_met += other.skipped_ci_met;
        self.skipped_spacing += other.skipped_spacing;
        self.phases_created += other.phases_created;
        self.phase_changes += other.phase_changes;
    }
}

/// The tracking sink composed into every segment execution: all trackers
/// optional, so one monomorphized `run_with` path covers all techniques.
type TrackSink = (
    Option<HashedBbvTracker>,
    Option<FullBbvTracker>,
    Option<MavTracker>,
);

/// The shared execution engine. Owns the machine, the (optional) BBV
/// tracker, the cumulative retired-op position, and the [`RunTrace`].
///
/// A driver instance is one *pass* over a workload; techniques that make
/// several passes (SimPoint's profile + replay, Online SimPoint's oracle +
/// charged run) construct one driver per pass and merge the traces.
pub struct SimDriver {
    machine: Machine,
    sink: TrackSink,
    track: Track,
    retired: u64,
    trace: RunTrace,
    /// Checkpoint ladder to jump with, if any.
    ladder: Option<Arc<CheckpointLadder>>,
    /// Whether functional segments may be replaced by ladder restores:
    /// requires the ladder to cover this driver's track.
    jumps_ok: bool,
    /// Index of this driver's hash seed in the ladder's carried tracks.
    seed_idx: Option<usize>,
    /// Sum of every hashed interval vector taken so far; a rung's
    /// cumulative minus this is exactly the tracker state a continuous
    /// run would hold at the rung.
    hashed_taken: HashedBbv,
    /// Full-BBV counterpart of `hashed_taken`.
    full_taken: Option<FullBbv>,
    /// Metrics sink for per-segment op counters; `None` (the common case)
    /// costs nothing on the hot path.
    recorder: Option<Arc<dyn Recorder>>,
    /// Shared slot where the first machine fault of the run is deposited,
    /// so campaign plumbing can surface it as a typed cell error without
    /// unwinding.
    fault_sink: Arc<OnceLock<MachineFault>>,
}

impl SimDriver {
    /// Builds a fresh machine for `workload`, a tracker per `track`, and
    /// binds the pass to everything `ctx` carries:
    ///
    /// - **Ladder.** When the ladder covers this driver's track,
    ///   functional segments are *jumped*: instead of executing up
    ///   to a rung inside the segment, the rung is restored, the skipped
    ///   ops are charged as functional (so [`crate::Estimate`]s stay
    ///   byte-identical), and only the remainder executes. MAV drivers
    ///   never jump: ladders carry no region-access cumulatives.
    /// - **Recorder.** Every executed segment reports
    ///   `driver.segments.<mode>` (+1), `driver.ops.<mode>` (the segment's
    ///   *logical* ops, including any distance covered by a ladder jump),
    ///   and `driver.ops.jumped` / `driver.jumps` for skipped work. All
    ///   values are deterministic, so recorded frames are byte-comparable
    ///   across runs. A disabled recorder is not retained — the hot path
    ///   stays a single `Option` check.
    /// - **Fault slot.** If any segment aborts on a [`MachineFault`] (e.g.
    ///   an out-of-range indirect jump), the first such fault is deposited
    ///   into the slot; later faults — from this driver or from sibling
    ///   passes sharing the context — are dropped, so the slot always
    ///   reports the run's *first* structured abort.
    pub fn new(
        workload: &Workload,
        config: &MachineConfig,
        track: Track,
        ctx: &SimContext,
    ) -> SimDriver {
        let machine = workload.machine_with(*config);
        let sink = match track {
            Track::None => (None, None, None),
            Track::Hashed(seed) => (
                Some(HashedBbvTracker::new(BbvHash::from_seed(seed))),
                None,
                None,
            ),
            Track::Full => (None, Some(FullBbvTracker::new(workload.program())), None),
            Track::Mav => (None, None, Some(MavTracker::new(machine.memory().len()))),
        };
        let (jumps_ok, seed_idx) = match (&ctx.ladder, track) {
            (None, _) => (false, None),
            (Some(_), Track::None) => (true, None),
            (Some(ladder), Track::Hashed(seed)) => {
                let idx = ladder.seed_index(seed);
                (idx.is_some(), idx)
            }
            (Some(ladder), Track::Full) => (ladder.has_full(), None),
            (Some(_), Track::Mav) => (false, None),
        };
        let full_taken = sink
            .1
            .as_ref()
            .filter(|_| jumps_ok)
            .map(|t| FullBbv::zeroed(t.current().dim()));
        SimDriver {
            machine,
            sink,
            track,
            retired: 0,
            trace: RunTrace::default(),
            ladder: ctx.ladder.clone(),
            jumps_ok,
            seed_idx,
            hashed_taken: HashedBbv::new(),
            full_taken,
            recorder: ctx.recorder.enabled().then(|| Arc::clone(&ctx.recorder)),
            fault_sink: Arc::clone(&ctx.fault),
        }
    }

    /// Moves this untracked driver to untracked `src`'s position, copying
    /// machine state into this driver's existing buffers
    /// ([`pgss_cpu::Machine::restore_from`]) and adopting `src`'s
    /// retired-op position, so this driver continues exactly as `src`
    /// would. The trace, ladder, recorder and fault sink stay this
    /// driver's own, so one bound driver can replay many positions and
    /// report one trace.
    ///
    /// # Panics
    ///
    /// Panics if either driver tracks anything: a tracker's in-flight
    /// vector and its ladder cumulatives would not follow the machine.
    pub fn restore_from(&mut self, src: &SimDriver) {
        assert!(
            self.track == Track::None && src.track == Track::None,
            "restore_from moves untracked drivers only"
        );
        self.machine.restore_from(&src.machine);
        self.retired = src.retired;
    }

    /// The fault that halted this driver's machine, if any.
    pub fn fault(&self) -> Option<MachineFault> {
        self.machine.fault()
    }

    /// Executes a single segment: one `run_with` call with the composed
    /// tracking sink, uniform halt/truncation handling, position and trace
    /// accounting.
    ///
    /// With a covering [`CheckpointLadder`] in its context, a functional
    /// segment that spans a rung restores the highest such rung and
    /// executes only the remainder. The outcome — ops, halt flag,
    /// truncation, position, any taken BBV — and the machine's logical
    /// [`ModeOps`] are identical to full execution; only the physical
    /// work differs, which the recorder's `driver.jumps` and
    /// `driver.ops.jumped` counters record.
    pub fn execute(&mut self, segment: Segment) -> SegmentOutcome {
        let mut skipped = 0u64;
        if segment.mode == Mode::Functional && self.jumps_ok && !self.machine.halted() {
            if let Some(ladder) = &self.ladder {
                let upto = self.retired.saturating_add(segment.max_ops);
                if let Some(rung) = ladder.best_rung_in(self.retired, upto) {
                    skipped = rung.retired - self.retired;
                    let pre = self.machine.mode_ops();
                    decode_machine_snapshot_into(ladder.snapshot(rung), &mut self.machine)
                        .expect("ladder rungs are validated at construction");
                    // The restored machine carries the capture pass's op
                    // accounting; charge this run's instead, with the
                    // skipped distance as the functional ops it stands for.
                    self.machine.set_mode_ops(ModeOps {
                        functional: pre.functional + skipped,
                        ..pre
                    });
                    if let (Some(tr), _, _) = &mut self.sink {
                        let idx = self.seed_idx.expect("jumps_ok implies seed coverage");
                        tr.set_current(rung.hashed_cum[idx].diff(&self.hashed_taken));
                    }
                    if let (_, Some(tr), _) = &mut self.sink {
                        let cum = rung
                            .full_cum
                            .as_ref()
                            .expect("jumps_ok implies full-BBV coverage");
                        let taken = self
                            .full_taken
                            .as_ref()
                            .expect("full taken cumulative initialised with the ladder");
                        tr.set_current(cum.diff(taken));
                    }
                    self.retired = rung.retired;
                }
            }
        }
        let r = {
            // Time the interpreter call per mode (span count stays
            // deterministic: one per segment; the wall total never enters
            // the byte-stable export).
            let _wall = self
                .recorder
                .as_deref()
                .map(|rec| Span::enter(rec, mode_wall_key(segment.mode)));
            self.machine
                .run_with(segment.mode, segment.max_ops - skipped, &mut self.sink)
        };
        if let Some(fault) = self.machine.fault() {
            let _ = self.fault_sink.set(fault);
        }
        let ops = skipped + r.ops;
        self.retired += r.ops;
        self.trace.segments[segment.mode as usize] += 1;
        if ops < segment.max_ops && segment.max_ops != u64::MAX {
            self.trace.truncated_segments += 1;
        }
        if let Some(rec) = &self.recorder {
            rec.add(mode_ops_key(segment.mode), ops);
            rec.add(mode_segments_key(segment.mode), 1);
            if skipped > 0 {
                rec.add("driver.jumps", 1);
                rec.add(JUMPED_OPS_KEY, skipped);
            }
        }
        let bbv = if segment.take_bbv {
            match &mut self.sink {
                (Some(hashed), _, _) => {
                    let v = hashed.take();
                    if self.jumps_ok {
                        self.hashed_taken.merge(&v);
                    }
                    Some(Bbv::Hashed(v))
                }
                (_, Some(full), _) => {
                    let v = full.take();
                    if let Some(taken) = &mut self.full_taken {
                        taken.merge(&v);
                    }
                    Some(Bbv::Full(v.normalized()))
                }
                (_, _, Some(mav)) => Some(Bbv::Hashed(mav.take())),
                (None, None, None) => {
                    panic!("segment requested a BBV but the driver tracks nothing")
                }
            }
        } else {
            None
        };
        SegmentOutcome {
            segment,
            ops,
            cycles: r.cycles,
            halted: r.halted,
            retired: self.retired,
            bbv,
        }
    }

    /// Per-mode retired instructions accumulated by this driver's machine.
    pub fn mode_ops(&self) -> ModeOps {
        self.machine.mode_ops()
    }

    /// Cumulative retired instructions across all segments so far.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// The run's trace counters.
    pub fn trace(&self) -> &RunTrace {
        &self.trace
    }

    /// The run's trace counters, for the technique's own events: samples
    /// taken or skipped, phases created. The driver maintains the segment
    /// counters itself.
    pub fn trace_mut(&mut self) -> &mut RunTrace {
        &mut self.trace
    }

    /// Whether the underlying machine has halted.
    pub fn halted(&self) -> bool {
        self.machine.halted()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_workload() -> Workload {
        let mut b = pgss_workloads::WorkloadBuilder::new("tiny", 11);
        let seg = b.add_segment(pgss_workloads::Kernel::ComputeInt {
            chains: 4,
            ops_per_chain: 3,
        });
        b.run(seg, 300_000);
        b.finish()
    }

    /// A driver for `w` on the default machine with no context.
    fn driver(w: &Workload, track: Track) -> SimDriver {
        SimDriver::new(w, &MachineConfig::default(), track, &SimContext::none())
    }

    /// A context carrying `ladder` and a recorder, which is returned too:
    /// a driver counts its ladder use in its recorder's frame.
    fn recorded(ladder: CheckpointLadder) -> (SimContext, Arc<pgss_obs::MetricsRecorder>) {
        let rec = Arc::new(pgss_obs::MetricsRecorder::new());
        let ctx = SimContext {
            recorder: Arc::clone(&rec) as Arc<dyn Recorder>,
            ..SimContext::with_ladder(Arc::new(ladder))
        };
        (ctx, rec)
    }

    /// Executes `segments` in order, returning every outcome.
    fn execute_all(d: &mut SimDriver, segments: &[Segment]) -> Vec<SegmentOutcome> {
        segments.iter().map(|&s| d.execute(s)).collect()
    }

    #[test]
    fn op_accounting_matches_machine() {
        let w = tiny_workload();
        let mut d = driver(&w, Track::None);
        let outcomes = execute_all(
            &mut d,
            &[
                Segment::new(Mode::Functional, 50_000),
                Segment::new(Mode::DetailedWarming, 3_000),
                Segment::new(Mode::DetailedMeasured, 1_000),
                Segment::new(Mode::Functional, 50_000),
            ],
        );
        let ops = d.mode_ops();
        assert_eq!(ops.functional, 100_000);
        assert_eq!(ops.detailed_warming, 3_000);
        assert_eq!(ops.detailed_measured, 1_000);
        assert_eq!(d.retired(), ops.total());
        // Outcomes carry the running position.
        assert_eq!(outcomes[0].retired, 50_000);
        assert_eq!(outcomes[2].retired, 54_000);
        assert_eq!(outcomes[3].retired, 104_000);
        assert_eq!(d.trace().segments, [0, 2, 1, 1]);
        assert_eq!(d.trace().truncated_segments, 0);
    }

    #[test]
    fn halt_mid_segment_truncates_uniformly() {
        let w = tiny_workload();
        let total = {
            let mut m = w.machine();
            m.run(Mode::Functional, u64::MAX).ops
        };
        let mut d = driver(&w, Track::None);
        // Second segment's budget reaches past the halt; the loop stops
        // after observing it.
        let mut outcomes = Vec::new();
        for s in [
            Segment::new(Mode::Functional, total - 1_000),
            Segment::new(Mode::DetailedMeasured, 50_000),
            Segment::new(Mode::DetailedMeasured, 50_000),
        ] {
            let outcome = d.execute(s);
            let halted = outcome.halted;
            outcomes.push(outcome);
            if halted {
                break;
            }
        }
        assert_eq!(outcomes.len(), 2, "the loop stops after observing the halt");
        let halted = &outcomes[1];
        assert!(halted.halted);
        assert!(!halted.complete());
        assert_eq!(halted.ops, 1_000, "exactly the ops left before the halt");
        assert_eq!(d.retired(), total);
        assert_eq!(d.trace().truncated_segments, 1);
    }

    #[test]
    fn segments_after_halt_are_empty_not_errors() {
        let w = tiny_workload();
        let mut d = driver(&w, Track::None);
        let outcomes = execute_all(
            &mut d,
            &[
                Segment::new(Mode::Functional, u64::MAX),
                Segment::new(Mode::DetailedMeasured, 1_000),
            ],
        );
        assert!(outcomes[0].halted);
        let after = &outcomes[1];
        assert_eq!(after.ops, 0);
        assert!(after.halted);
        assert_eq!(after.retired, outcomes[0].retired);
    }

    #[test]
    fn run_to_halt_budget_is_not_counted_truncated() {
        let w = tiny_workload();
        let mut d = driver(&w, Track::None);
        d.execute(Segment::new(Mode::Functional, u64::MAX));
        assert_eq!(d.trace().truncated_segments, 0);
    }

    #[test]
    fn hashed_tracking_spans_segments_until_taken() {
        let w = pgss_workloads::gzip(0.01);
        let mut d = driver(&w, Track::Hashed(7));
        let outcomes = execute_all(
            &mut d,
            &[
                // Tracking accumulates across both segments; only the
                // second closes the interval.
                Segment::new(Mode::Functional, 20_000),
                Segment::with_bbv(Mode::Functional, 20_000),
                Segment::with_bbv(Mode::Functional, 20_000),
            ],
        );
        assert!(outcomes[0].bbv.is_none());
        let first = outcomes[1]
            .bbv
            .as_ref()
            .expect("interval closed")
            .hashed()
            .total_ops();
        let second = outcomes[2].bbv.as_ref().unwrap().hashed().total_ops();
        // First vector covers ~two segments of ops, second only one.
        assert!(first > second, "first {first} vs second {second}");
    }

    #[test]
    fn full_tracking_yields_normalized_rows() {
        let w = pgss_workloads::gzip(0.01);
        let mut d = driver(&w, Track::Full);
        let out = d.execute(Segment::with_bbv(Mode::Functional, 50_000));
        let row = out.bbv.as_ref().unwrap().full().to_vec();
        // FullBbv::normalized is L1 (block-execution fractions), as SimPoint
        // defines it.
        let sum: f64 = row.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "sum {sum}");
    }

    #[test]
    fn mav_tracking_spans_segments_until_taken() {
        let w = pgss_workloads::gzip(0.01);
        let mut d = driver(&w, Track::Mav);
        let outcomes = execute_all(
            &mut d,
            &[
                Segment::new(Mode::Functional, 20_000),
                Segment::with_bbv(Mode::Functional, 20_000),
                Segment::with_bbv(Mode::Functional, 20_000),
            ],
        );
        assert!(outcomes[0].bbv.is_none());
        let first = outcomes[1]
            .bbv
            .as_ref()
            .expect("interval closed")
            .hashed()
            .total_ops();
        let second = outcomes[2].bbv.as_ref().unwrap().hashed().total_ops();
        // Accumulates across the untaken first segment, resets on take.
        assert!(first > second, "first {first} vs second {second}");
        assert!(second > 0, "gzip touches data memory every iteration");
    }

    #[test]
    #[should_panic(expected = "tracks nothing")]
    fn bbv_request_without_tracker_panics() {
        let w = tiny_workload();
        let mut d = driver(&w, Track::None);
        d.execute(Segment::with_bbv(Mode::Functional, 1_000));
    }

    #[test]
    fn restore_from_resumes_bit_exact() {
        let w = pgss_workloads::gzip(0.01);
        let tail = [
            Segment::new(Mode::Functional, 30_000),
            Segment::new(Mode::DetailedWarming, 3_000),
            Segment::new(Mode::DetailedMeasured, 1_000),
            Segment::new(Mode::Functional, 30_000),
        ];
        // Continuous run: prefix then tail.
        let mut cont = driver(&w, Track::None);
        cont.execute(Segment::new(Mode::Functional, 25_000));
        cont.execute(Segment::new(Mode::Functional, 25_000));
        cont.execute(Segment::new(Mode::Functional, 10_000));
        // Resumed run: a driver with a history of its own restores at
        // 60k, then both run the same tail.
        let mut resumed = driver(&w, Track::None);
        resumed.execute(Segment::new(Mode::DetailedMeasured, 7_000));
        resumed.restore_from(&cont);
        assert_eq!(resumed.retired(), 60_000);
        let out_cont = execute_all(&mut cont, &tail);
        let out_res = execute_all(&mut resumed, &tail);
        assert_eq!(out_cont, out_res);
        assert_eq!(cont.mode_ops().detailed_measured, 1_000);
    }

    #[test]
    #[should_panic(expected = "moves untracked drivers only")]
    fn restore_from_rejects_a_tracked_driver_on_either_side() {
        let w = tiny_workload();
        let tracked = driver(&w, Track::Hashed(1));
        let into_untracked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            driver(&w, Track::None).restore_from(&tracked)
        }));
        assert!(into_untracked.is_err(), "a tracked source must panic");
        driver(&w, Track::Mav).restore_from(&driver(&w, Track::None));
    }

    #[test]
    fn ladder_jumps_preserve_outcomes_and_mode_ops() {
        use crate::ckpt::{CheckpointLadder, LadderSpec};
        let w = pgss_workloads::gzip(0.01);
        let cfg = MachineConfig::default();
        let plan = [
            Segment::with_bbv(Mode::Functional, 40_000),
            Segment::new(Mode::DetailedWarming, 3_000),
            Segment::new(Mode::DetailedMeasured, 1_000),
            Segment::with_bbv(Mode::Functional, 40_000),
            Segment::with_bbv(Mode::Functional, 40_000),
        ];
        let mut plain = driver(&w, Track::Hashed(7));
        let out_plain = execute_all(&mut plain, &plan);

        let spec = LadderSpec {
            stride: 25_000,
            hashed_seeds: vec![7],
            with_full: false,
        };
        let (ctx, rec) = recorded(CheckpointLadder::capture(&w, &cfg, &spec));
        let mut fast = SimDriver::new(&w, &cfg, Track::Hashed(7), &ctx);
        let out_fast = execute_all(&mut fast, &plan);

        assert_eq!(out_plain, out_fast);
        assert_eq!(plain.mode_ops(), fast.mode_ops());
        assert_eq!(plain.trace(), fast.trace());
        let frame = rec.frame();
        let skipped = frame.counter(JUMPED_OPS_KEY);
        assert!(
            frame.counter("driver.jumps") > 0,
            "functional segments should jump"
        );
        assert!(skipped > 0);
        assert!(
            executed_ops(&frame) < plain.mode_ops().total(),
            "jumping must execute strictly fewer ops"
        );
        assert_eq!(executed_ops(&frame) + skipped, fast.retired());
    }

    #[test]
    fn ladder_jump_covers_run_to_halt_segments() {
        use crate::ckpt::{CheckpointLadder, LadderSpec};
        let w = tiny_workload();
        let cfg = MachineConfig::default();
        let total = {
            let mut m = w.machine();
            m.run(Mode::Functional, u64::MAX).ops
        };
        let ladder = CheckpointLadder::capture(&w, &cfg, &LadderSpec::machine_only(50_000));
        let (ctx, rec) = recorded(ladder);
        let mut d = SimDriver::new(&w, &cfg, Track::None, &ctx);
        let out = d.execute(Segment::new(Mode::Functional, u64::MAX));
        assert!(out.halted);
        assert_eq!(out.ops, total);
        assert_eq!(d.retired(), total);
        let frame = rec.frame();
        assert!(frame.counter("driver.jumps") > 0);
        assert!(executed_ops(&frame) < total);
    }

    #[test]
    fn recorder_counts_logical_ops_including_jumped_distance() {
        use crate::ckpt::{CheckpointLadder, LadderSpec};
        let w = tiny_workload();
        let cfg = MachineConfig::default();
        let ladder = CheckpointLadder::capture(&w, &cfg, &LadderSpec::machine_only(50_000));
        let (ctx, rec) = recorded(ladder);
        let mut d = SimDriver::new(&w, &cfg, Track::None, &ctx);
        d.execute(Segment::new(Mode::Functional, 120_000));
        d.execute(Segment::new(Mode::DetailedWarming, 3_000));
        d.execute(Segment::new(Mode::DetailedMeasured, 1_000));
        let frame = rec.frame();
        // Logical functional ops include the jumped distance, matching
        // the machine's ModeOps accounting bit for bit.
        assert_eq!(frame.counter("driver.ops.functional"), 120_000);
        assert_eq!(frame.counter("driver.ops.warm"), 3_000);
        assert_eq!(frame.counter("driver.ops.detail"), 1_000);
        assert_eq!(frame.counter("driver.segments.functional"), 1);
        assert_eq!(frame.counter("driver.jumps"), 1);
        let jumped = frame.counter("driver.ops.jumped");
        assert!(jumped >= 100_000, "jumped {jumped}");
        assert_eq!(d.mode_ops().functional, 120_000);
    }

    #[test]
    fn disabled_recorder_is_not_retained() {
        let ctx = SimContext {
            recorder: Arc::new(pgss_obs::NoopRecorder),
            ..SimContext::none()
        };
        let d = SimDriver::new(
            &tiny_workload(),
            &MachineConfig::default(),
            Track::None,
            &ctx,
        );
        assert!(d.recorder.is_none());
    }

    #[test]
    fn trace_merge_accumulates() {
        let mut a = RunTrace {
            segments: [1, 2, 3, 4],
            truncated_segments: 1,
            samples_taken: 5,
            skipped_ci_met: 2,
            skipped_spacing: 1,
            phases_created: 3,
            phase_changes: 7,
        };
        a.merge(&a.clone());
        assert_eq!(a.segments, [2, 4, 6, 8]);
        assert_eq!(a.total_segments(), 20);
        assert_eq!(a.samples_taken, 10);
        assert_eq!(a.samples_skipped(), 6);
        assert_eq!(a.phase_changes, 14);
    }
}
