//! The online phase table shared by PGSS-Sim and the phase-analysis
//! figures, and the interval-classification pass of the techniques that
//! classify a whole run before sampling it.

use pgss_bbv::HashedBbv;
use pgss_cpu::Mode;

use crate::driver::{Segment, SimDriver};

/// One discovered phase: its accumulated BBV signature and bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseEntry {
    /// Sum of all member interval BBVs (the phase's signature; comparisons
    /// use the angle, which is scale-free, so no renormalisation is
    /// needed).
    pub signature: HashedBbv,
    /// Number of member intervals.
    pub intervals: u64,
    /// Total retired instructions attributed to the phase.
    pub ops: u64,
}

/// The outcome of classifying one interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Classification {
    /// The phase the interval was assigned to.
    pub phase: usize,
    /// `true` if the assignment differs from the previous interval's phase.
    pub changed: bool,
    /// `true` if a new phase was created for this interval.
    pub created: bool,
}

/// Online phase detection over hashed-BBV intervals, following Section 4 of
/// the paper:
///
/// 1. the interval's BBV is first compared against the *previous interval's*
///    BBV (a phase change is unlikely, so this fast path usually hits);
/// 2. on a change, it is compared against every known phase's signature;
/// 3. if none is within the threshold angle, a new phase is created.
///
/// # Example
///
/// ```
/// use pgss::{threshold, PhaseTable};
/// use pgss_bbv::HashedBbv;
///
/// let mut table = PhaseTable::new(threshold(0.05));
/// let mut a = HashedBbv::new();
/// a.record(0, 100);
/// let mut b = HashedBbv::new();
/// b.record(9, 100);
/// let c0 = table.classify(&a, 100);
/// let c1 = table.classify(&b, 100); // orthogonal: new phase
/// let c2 = table.classify(&a, 100); // back to the first phase
/// assert_eq!((c0.phase, c1.phase, c2.phase), (0, 1, 0));
/// assert!(c1.created && c2.changed && !c2.created);
/// assert_eq!(table.phases().len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct PhaseTable {
    threshold: f64,
    phases: Vec<PhaseEntry>,
    last_bbv: Option<HashedBbv>,
    last_phase: usize,
    changes: u64,
}

impl PhaseTable {
    /// Creates an empty table with the given angle threshold in radians
    /// (the paper writes thresholds as fractions of π; see
    /// [`crate::threshold`]).
    ///
    /// # Panics
    ///
    /// Panics if `threshold_rad` is negative or not finite.
    pub fn new(threshold_rad: f64) -> PhaseTable {
        assert!(
            threshold_rad.is_finite() && threshold_rad >= 0.0,
            "threshold must be a non-negative angle, got {threshold_rad}"
        );
        PhaseTable {
            threshold: threshold_rad,
            phases: Vec::new(),
            last_bbv: None,
            last_phase: 0,
            changes: 0,
        }
    }

    /// The angle threshold in radians.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The discovered phases.
    pub fn phases(&self) -> &[PhaseEntry] {
        &self.phases
    }

    /// Number of interval-to-interval phase transitions seen so far.
    pub fn changes(&self) -> u64 {
        self.changes
    }

    /// Classifies one interval's BBV, attributing `interval_ops` retired
    /// instructions to the chosen phase, and updates the table.
    pub fn classify(&mut self, bbv: &HashedBbv, interval_ops: u64) -> Classification {
        let phase;
        let mut created = false;
        if let Some(last) = &self.last_bbv {
            if bbv.angle(last) < self.threshold {
                // Fast path: same phase as the previous interval.
                phase = self.last_phase;
            } else if let Some(found) = self.find_matching_phase(bbv) {
                phase = found;
            } else {
                phase = self.create_phase();
                created = true;
            }
        } else if let Some(found) = self.find_matching_phase(bbv) {
            // First interval after construction (no previous BBV).
            phase = found;
        } else {
            phase = self.create_phase();
            created = true;
        }

        let entry = &mut self.phases[phase];
        entry.signature.merge(bbv);
        entry.intervals += 1;
        entry.ops += interval_ops;

        let changed = self.last_bbv.is_some() && phase != self.last_phase;
        if changed {
            self.changes += 1;
        }
        self.last_bbv = Some(*bbv);
        self.last_phase = phase;
        Classification {
            phase,
            changed,
            created,
        }
    }

    fn find_matching_phase(&self, bbv: &HashedBbv) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (i, p) in self.phases.iter().enumerate() {
            let a = bbv.angle(&p.signature);
            if a < self.threshold && best.is_none_or(|(_, ba)| a < ba) {
                best = Some((i, a));
            }
        }
        best.map(|(i, _)| i)
    }

    fn create_phase(&mut self) -> usize {
        self.phases.push(PhaseEntry {
            signature: HashedBbv::new(),
            intervals: 0,
            ops: 0,
        });
        self.phases.len() - 1
    }

    /// Instruction-weight fractions per phase (sums to 1 once any interval
    /// has been classified).
    pub fn weights(&self) -> Vec<f64> {
        let total: u64 = self.phases.iter().map(|p| p.ops).sum();
        if total == 0 {
            return vec![0.0; self.phases.len()];
        }
        self.phases
            .iter()
            .map(|p| p.ops as f64 / total as f64)
            .collect()
    }
}

/// The classification pass: runs `driver` functionally to the halt in
/// `interval_ops` BBV intervals and classifies every complete interval into
/// a fresh table at `threshold_rad`. Returns the table and the phase of each
/// complete interval; the driver's trace records the phases created and
/// the table's phase changes. Shared by [`crate::OnlineSimPoint`]'s oracle
/// and [`crate::TwoPhaseStratified`]'s stratification.
pub(crate) fn classify_intervals(
    driver: &mut SimDriver,
    interval_ops: u64,
    threshold_rad: f64,
) -> (PhaseTable, Vec<usize>) {
    let mut table = PhaseTable::new(threshold_rad);
    let mut interval_phases = Vec::new();
    loop {
        let interval = driver.execute(Segment::with_bbv(Mode::Functional, interval_ops));
        if interval.complete() {
            let bbv = interval
                .bbv
                .as_ref()
                .expect("classification intervals close a BBV");
            let c = table.classify(bbv.hashed(), interval.ops);
            if c.created {
                driver.trace_mut().phases_created += 1;
            }
            interval_phases.push(c.phase);
        }
        if interval.halted || interval.ops == 0 {
            break;
        }
    }
    driver.trace_mut().phase_changes = table.changes();
    (table, interval_phases)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bbv(pairs: &[(usize, u64)]) -> HashedBbv {
        let mut v = HashedBbv::new();
        for &(i, ops) in pairs {
            v.record(i, ops);
        }
        v
    }

    #[test]
    fn stable_stream_is_one_phase() {
        let mut t = PhaseTable::new(crate::threshold(0.05));
        for _ in 0..10 {
            let c = t.classify(&bbv(&[(0, 90), (1, 10)]), 100);
            assert_eq!(c.phase, 0);
        }
        assert_eq!(t.phases().len(), 1);
        assert_eq!(t.changes(), 0);
        assert_eq!(t.phases()[0].intervals, 10);
        assert_eq!(t.phases()[0].ops, 1000);
    }

    #[test]
    fn alternation_is_two_phases_with_changes() {
        let mut t = PhaseTable::new(crate::threshold(0.05));
        for i in 0..10 {
            let v = if i % 2 == 0 {
                bbv(&[(0, 100)])
            } else {
                bbv(&[(5, 100)])
            };
            t.classify(&v, 100);
        }
        assert_eq!(t.phases().len(), 2);
        assert_eq!(t.changes(), 9);
        assert_eq!(t.phases()[0].intervals, 5);
        assert_eq!(t.phases()[1].intervals, 5);
    }

    #[test]
    fn revisited_phase_is_recognised_not_recreated() {
        let mut t = PhaseTable::new(crate::threshold(0.05));
        let a = bbv(&[(0, 100)]);
        let b = bbv(&[(7, 100)]);
        t.classify(&a, 1);
        t.classify(&b, 1);
        let c = t.classify(&a, 1);
        assert_eq!(c.phase, 0);
        assert!(!c.created);
        assert!(c.changed);
        assert_eq!(t.phases().len(), 2);
    }

    #[test]
    fn loose_threshold_merges_everything() {
        // Threshold π/2 admits any pair of non-negative vectors.
        let mut t = PhaseTable::new(std::f64::consts::FRAC_PI_2 + 0.01);
        t.classify(&bbv(&[(0, 100)]), 1);
        t.classify(&bbv(&[(9, 100)]), 1);
        t.classify(&bbv(&[(3, 50), (4, 50)]), 1);
        assert_eq!(t.phases().len(), 1);
        assert_eq!(t.changes(), 0);
    }

    #[test]
    fn near_miss_vectors_split_under_tight_threshold() {
        let mut t = PhaseTable::new(crate::threshold(0.02));
        t.classify(&bbv(&[(0, 100)]), 1);
        // ~11 degrees away: outside 0.02π (3.6°).
        t.classify(&bbv(&[(0, 100), (1, 20)]), 1);
        assert_eq!(t.phases().len(), 2);
    }

    #[test]
    fn weights_are_ops_fractions() {
        let mut t = PhaseTable::new(crate::threshold(0.05));
        t.classify(&bbv(&[(0, 1)]), 300);
        t.classify(&bbv(&[(5, 1)]), 100);
        let w = t.weights();
        assert!((w[0] - 0.75).abs() < 1e-12);
        assert!((w[1] - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-negative angle")]
    fn negative_threshold_panics() {
        let _ = PhaseTable::new(-0.1);
    }
}
