//! Simulation-time accounting (the paper's Figure 13), from measured spans.
//!
//! Fig. 13 decomposes each technique's total simulation time into
//! fast-forwarding, detailed warming, and detailed simulation, using the
//! measured per-mode simulation rates of the host. Every driver segment
//! already records the ops it executed (`driver.ops.*`) and the wall time
//! it spent in the interpreter (`driver.wall.*`) into its cell's metric
//! frame, so this module reads both off a campaign's own frames:
//! [`TimeBreakdown::measured`] is the wall time the frame's segments took
//! per mode, [`ModeRates::from_frame`] the physical throughput behind
//! it, and [`time_for`] applies such rates to the per-mode instruction
//! counts an [`crate::Estimate`] charges — the time the same work would
//! take without checkpoint acceleration.

use pgss_cpu::{Mode, ModeOps};
use pgss_obs::MetricsFrame;

use crate::driver::{mode_ops_key, mode_wall_key, JUMPED_OPS_KEY};

/// Measured simulation rates in instructions per second, per mode.
/// `None` means unknown: the frame executed no ops in that mode, or its
/// spans observed no wall time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ModeRates {
    /// [`Mode::FastForward`] (no warming).
    pub fast_forward: Option<f64>,
    /// [`Mode::Functional`] (cache/predictor warming).
    pub functional: Option<f64>,
    /// [`Mode::DetailedWarming`].
    pub detailed_warming: Option<f64>,
    /// [`Mode::DetailedMeasured`].
    pub detailed_measured: Option<f64>,
}

impl ModeRates {
    /// Physical per-mode throughput of the segments recorded in `frame`
    /// (one cell's frame, or several folded with
    /// [`MetricsFrame::merge`]): executed ops divided by the mode's
    /// `driver.wall.*` span total.
    ///
    /// Ladder jumps charge the distance they skip as logical functional
    /// ops without executing it, outside any wall span, so functional ops
    /// are counted net of the jumped ops.
    pub fn from_frame(frame: &MetricsFrame) -> ModeRates {
        let rate = |mode: Mode| {
            let mut ops = frame.counter(mode_ops_key(mode));
            if mode == Mode::Functional {
                ops = ops.saturating_sub(frame.counter(JUMPED_OPS_KEY));
            }
            let wall_ns = wall_ns(frame, mode);
            (ops > 0 && wall_ns > 0).then(|| ops as f64 * 1e9 / wall_ns as f64)
        };
        ModeRates {
            fast_forward: rate(Mode::FastForward),
            functional: rate(Mode::Functional),
            detailed_warming: rate(Mode::DetailedWarming),
            detailed_measured: rate(Mode::DetailedMeasured),
        }
    }
}

fn wall_ns(frame: &MetricsFrame, mode: Mode) -> u64 {
    frame.span(mode_wall_key(mode)).map_or(0, |s| s.total_ns)
}

/// A technique's wall-clock time, decomposed as in Fig. 13. `None` marks
/// a mode whose time is unknown (see [`time_for`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeBreakdown {
    /// Seconds of raw fast-forwarding.
    pub fast_forward_s: Option<f64>,
    /// Seconds of functional (warming) fast-forwarding.
    pub functional_s: Option<f64>,
    /// Seconds of detailed warming.
    pub detailed_warming_s: Option<f64>,
    /// Seconds of measured detailed simulation.
    pub detailed_s: Option<f64>,
}

impl TimeBreakdown {
    /// The wall time `frame`'s driver segments spent in each mode: the
    /// `driver.wall.*` span totals, 0 s for a mode that never ran.
    pub fn measured(frame: &MetricsFrame) -> TimeBreakdown {
        let secs = |mode| Some(wall_ns(frame, mode) as f64 / 1e9);
        TimeBreakdown {
            fast_forward_s: secs(Mode::FastForward),
            functional_s: secs(Mode::Functional),
            detailed_warming_s: secs(Mode::DetailedWarming),
            detailed_s: secs(Mode::DetailedMeasured),
        }
    }

    /// Total seconds, or `None` when any mode's time is unknown.
    pub fn total(&self) -> Option<f64> {
        Some(
            self.fast_forward_s?
                + self.functional_s?
                + self.detailed_warming_s?
                + self.detailed_s?,
        )
    }
}

/// Applies measured `rates` to a technique's per-mode instruction counts.
/// A mode with no charged ops takes 0 s whatever its rate; a mode with
/// charged ops but no (positive, finite) rate is unknown. The result is
/// never infinite or NaN.
///
/// ```
/// use pgss::timing::{time_for, ModeRates};
/// use pgss_cpu::ModeOps;
///
/// let rates = ModeRates {
///     fast_forward: None,
///     functional: Some(50e6),
///     detailed_warming: Some(10e6),
///     detailed_measured: Some(10e6),
/// };
/// let ops = ModeOps { functional: 100_000_000, detailed_warming: 3_000_000,
///                     detailed_measured: 1_000_000, fast_forward: 0 };
/// let t = time_for(&ops, &rates);
/// assert_eq!(t.fast_forward_s, Some(0.0));
/// assert!((t.functional_s.unwrap() - 2.0).abs() < 1e-9);
/// assert!((t.total().unwrap() - 2.4).abs() < 1e-9);
/// ```
pub fn time_for(mode_ops: &ModeOps, rates: &ModeRates) -> TimeBreakdown {
    let secs = |ops: u64, rate: Option<f64>| {
        if ops == 0 {
            return Some(0.0);
        }
        rate.filter(|r| r.is_finite() && *r > 0.0)
            .map(|r| ops as f64 / r)
    };
    TimeBreakdown {
        fast_forward_s: secs(mode_ops.fast_forward, rates.fast_forward),
        functional_s: secs(mode_ops.functional, rates.functional),
        detailed_warming_s: secs(mode_ops.detailed_warming, rates.detailed_warming),
        detailed_s: secs(mode_ops.detailed_measured, rates.detailed_measured),
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use pgss_obs::{ManualClock, MetricsRecorder, Recorder, Span};

    use super::*;

    /// Records one `mode` segment of `ops` executed ops taking `ns` of
    /// manual-clock wall time, the way the driver does.
    fn segment(rec: &MetricsRecorder, clock: &ManualClock, mode: Mode, ops: u64, ns: u64) {
        {
            let _wall = Span::enter(rec, mode_wall_key(mode));
            clock.advance(ns);
        }
        rec.add(mode_ops_key(mode), ops);
    }

    fn recorder() -> (MetricsRecorder, Arc<ManualClock>) {
        let clock = Arc::new(ManualClock::new());
        (MetricsRecorder::with_clock(clock.clone()), clock)
    }

    #[test]
    fn rates_divide_executed_ops_by_wall_spans() {
        let (rec, clock) = recorder();
        segment(&rec, &clock, Mode::DetailedWarming, 3_000, 1_000_000);
        segment(&rec, &clock, Mode::DetailedMeasured, 1_000, 500_000);
        segment(&rec, &clock, Mode::DetailedMeasured, 1_000, 500_000);
        // 10M functional ops charged, 6M of them skipped by ladder jumps:
        // only 4M were executed inside the 2 s of functional spans.
        segment(&rec, &clock, Mode::Functional, 10_000_000, 2_000_000_000);
        rec.add(JUMPED_OPS_KEY, 6_000_000);
        let frame = rec.into_frame();

        let rates = ModeRates::from_frame(&frame);
        assert_eq!(rates.functional, Some(2e6));
        assert_eq!(rates.detailed_warming, Some(3e6));
        assert_eq!(rates.detailed_measured, Some(2e6));
        // Absent mode: no ops, no span.
        assert_eq!(rates.fast_forward, None);

        let measured = TimeBreakdown::measured(&frame);
        assert_eq!(measured.fast_forward_s, Some(0.0));
        assert_eq!(measured.functional_s, Some(2.0));
        assert_eq!(measured.detailed_s, Some(1e-3));
        assert!((measured.total().unwrap() - 2.002).abs() < 1e-12);
    }

    #[test]
    fn zero_wall_and_fully_jumped_modes_have_no_rate() {
        let (rec, clock) = recorder();
        // A span that closed without the clock advancing.
        segment(&rec, &clock, Mode::DetailedMeasured, 1_000, 0);
        // Every functional op charged was skipped by a jump.
        segment(&rec, &clock, Mode::Functional, 5_000, 7_000);
        rec.add(JUMPED_OPS_KEY, 5_000);
        let rates = ModeRates::from_frame(&rec.into_frame());
        assert_eq!(rates.detailed_measured, None);
        assert_eq!(rates.functional, None);
    }

    #[test]
    fn time_for_is_zero_without_ops_and_unknown_without_rate() {
        let ops = ModeOps {
            fast_forward: 0,
            functional: 100,
            detailed_warming: 30,
            detailed_measured: 0,
        };
        let rates = ModeRates {
            fast_forward: None,
            functional: Some(10.0),
            detailed_warming: None,
            detailed_measured: None,
        };
        let t = time_for(&ops, &rates);
        // Zero charged ops: 0 s even with no rate.
        assert_eq!(t.fast_forward_s, Some(0.0));
        assert_eq!(t.detailed_s, Some(0.0));
        assert_eq!(t.functional_s, Some(10.0));
        // Charged ops with no rate: unknown, not inf.
        assert_eq!(t.detailed_warming_s, None);
        assert_eq!(t.total(), None);

        // Degenerate rates a caller could construct are unknown too.
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let t = time_for(
                &ops,
                &ModeRates {
                    functional: Some(bad),
                    ..rates
                },
            );
            assert_eq!(t.functional_s, None, "rate {bad}");
        }
    }

    #[test]
    fn breakdown_math() {
        let rates = ModeRates {
            fast_forward: Some(10.0),
            functional: Some(10.0),
            detailed_warming: Some(1.0),
            detailed_measured: Some(2.0),
        };
        let ops = ModeOps {
            fast_forward: 100,
            functional: 50,
            detailed_warming: 3,
            detailed_measured: 4,
        };
        let t = time_for(&ops, &rates);
        assert_eq!(t.fast_forward_s, Some(10.0));
        assert_eq!(t.functional_s, Some(5.0));
        assert_eq!(t.detailed_warming_s, Some(3.0));
        assert_eq!(t.detailed_s, Some(2.0));
        assert_eq!(t.total(), Some(20.0));
    }
}
