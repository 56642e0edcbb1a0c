//! Phase-Guided Small-Sample Simulation (PGSS-Sim) and the baseline sampled
//! simulation techniques it is evaluated against — a reproduction of Kihm,
//! Strom & Connors, *"Phase-Guided Small-Sample Simulation"*, ISPASS 2007.
//!
//! Cycle-accurate simulation of a full benchmark is orders of magnitude
//! slower than native execution, so production methodology simulates only a
//! tiny, representative subset in detail. This crate implements the paper's
//! contribution and every technique in its evaluation, all driving the same
//! [`pgss_cpu::Machine`] over the same [`pgss_workloads::Workload`]s:
//!
//! * [`FullDetailed`] — exhaustive cycle-level simulation; the ground truth.
//! * [`Smarts`] — periodic small samples (1k measured + 3k warming per ~1M
//!   ops), phase-blind (Wunderlich et al., ISCA 2003).
//! * [`TurboSmarts`] — SMARTS samples consumed in random order until a
//!   Gaussian confidence interval claims ±3 % at 99.7 % (Wenisch et al.,
//!   ISPASS 2006). The claim is unsound for polymodal programs, which the
//!   experiments expose.
//! * [`SimPointOffline`] — offline k-means over per-interval basic-block
//!   vectors; one large representative interval per phase (Sherwood et al.,
//!   ASPLOS 2002 / SimPoint 3.0).
//! * [`OnlineSimPoint`] — the online variant of Pereira et al.
//!   (CODES+ISSS 2005) with the perfect phase predictor the paper grants
//!   it: one large sample at each phase's first occurrence.
//! * [`PgssSim`] — the paper's technique: a hashed BBV tracked during
//!   functional fast-forwarding classifies each interval into a phase
//!   online; SMARTS-style samples are taken only while a phase's own
//!   confidence interval is unmet, with a spacing rule that spreads samples
//!   across a phase's occurrences.
//! * [`TwoPhaseStratified`] — two-phase stratified sampling (Ekman &
//!   Stenström, ISPASS 2005): a pilot pass per phase stratum, then Neyman
//!   allocation of the remaining detail budget by observed variance.
//! * [`RankedSet`] — ranked-set sampling with repeated subsampling (ibid.):
//!   intervals ranked by a cheap probe-CPI concomitant, rank-selected
//!   representatives measured, replicate estimates averaged.
//!
//! The phase-aware techniques each accept a [`Signature`] selecting the
//! phase signature they classify on: their native basic-block vector, or
//! Memory Access Vectors ([`Track::Mav`]) that separate phases by data
//! working set instead of control flow.
//!
//! Every technique returns an [`Estimate`] carrying the predicted IPC and
//! the per-[`pgss_cpu::Mode`] instruction counts, so accuracy and cost can
//! be compared exactly as the paper's Figures 11–13 do. The [`analysis`]
//! module provides the interval-profile machinery behind Figures 2–3 and
//! 6–10, and [`timing`] the simulation-time decomposition of Figure 13.
//!
//! # Example
//!
//! ```no_run
//! use pgss::{FullDetailed, PgssSim, Technique};
//!
//! let workload = pgss_workloads::gzip(0.05);
//! let truth = FullDetailed::new().ground_truth(&workload);
//! let estimate = PgssSim::new().run(&workload);
//! let error = pgss::relative_error(estimate.ipc, truth.ipc);
//! println!(
//!     "PGSS: {:.3} IPC vs true {:.3} ({:.2}% error) using {} detailed ops",
//!     estimate.ipc,
//!     truth.ipc,
//!     error * 100.0,
//!     estimate.detailed_ops(),
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adaptive;
pub mod analysis;
pub mod campaign;
pub mod ckpt;
pub mod driver;
mod estimate;
#[cfg(feature = "fault-inject")]
pub mod faults;
mod full;
mod online_simpoint;
mod pgss_sim;
mod phase;
mod ranked_set;
mod simpoint;
mod smarts;
pub mod timing;
mod turbo;
mod two_phase;
pub mod wire;

pub use adaptive::AdaptivePgss;
pub use campaign::{
    CampaignConfig, CampaignError, CampaignReport, CellError, CellFailure, CellResult, Job,
    RetryPolicy,
};
pub use ckpt::{
    CheckpointKey, CheckpointLadder, LadderReport, LadderSpec, SimContext, SNAPSHOT_FORMAT_VERSION,
};
pub use driver::{
    Bbv, Directive, RunTrace, SamplingPolicy, Segment, SegmentOutcome, Signature, SimDriver, Track,
};
pub use estimate::{relative_error, Estimate, GroundTruth, PhaseSummary, Technique};
// Observability surface: campaigns return `MetricsReport`s and drivers
// accept any `Recorder` (see `pgss_obs` for the full model).
pub use full::FullDetailed;
pub use online_simpoint::OnlineSimPoint;
pub use pgss_obs::{
    MetricsFrame, MetricsRecorder, MetricsReport, NoopRecorder, Recorder, METRICS_SCHEMA_VERSION,
};
pub use pgss_sim::PgssSim;
pub use phase::{Classification, PhaseEntry, PhaseTable};
pub use ranked_set::RankedSet;
pub use simpoint::SimPointOffline;
pub use smarts::Smarts;
pub use turbo::TurboSmarts;
pub use two_phase::TwoPhaseStratified;

/// The paper's threshold notation: a fraction of π radians.
///
/// ```
/// let t = pgss::threshold(0.05); // the paper's best overall threshold
/// assert!((t - 0.157).abs() < 1e-3);
/// ```
pub fn threshold(fraction_of_pi: f64) -> f64 {
    fraction_of_pi * std::f64::consts::PI
}
