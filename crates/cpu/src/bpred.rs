//! Branch direction prediction (gshare) and indirect-target prediction (BTB).

use crate::config::BranchPredictorConfig;

/// A gshare direction predictor: global history XOR branch address indexing a
/// table of two-bit saturating counters.
///
/// # Example
///
/// ```
/// use pgss_cpu::{BranchPredictor, BranchPredictorConfig};
///
/// let mut bp = BranchPredictor::new(BranchPredictorConfig::default());
/// // A branch that is always taken is learned once the all-taken global
/// // history pattern saturates.
/// for _ in 0..32 {
///     let _ = bp.predict_and_update(100, true);
/// }
/// assert!(bp.predict_and_update(100, true));
/// ```
#[derive(Debug, Clone)]
pub struct BranchPredictor {
    /// Counter table, history and statistics: exactly what a checkpoint
    /// carries.
    state: BranchPredictorState,
    index_mask: u64,
    history_mask: u64,
}

impl BranchPredictor {
    /// Creates a predictor with all counters weakly not-taken.
    ///
    /// # Panics
    ///
    /// Panics if `history_bits` is 0 or greater than 24.
    pub fn new(config: BranchPredictorConfig) -> BranchPredictor {
        assert!(
            (1..=24).contains(&config.history_bits),
            "history_bits must be in 1..=24, got {}",
            config.history_bits
        );
        let entries = 1usize << config.history_bits;
        BranchPredictor {
            state: BranchPredictorState {
                counters: vec![1; entries],
                history: 0,
                predictions: 0,
                mispredictions: 0,
            },
            index_mask: entries as u64 - 1,
            history_mask: entries as u64 - 1,
        }
    }

    /// Predicts the direction of the branch at `pc`, then updates the
    /// counters and global history with the actual `taken` outcome. Returns
    /// `true` if the prediction was correct.
    #[inline]
    pub fn predict_and_update(&mut self, pc: u32, taken: bool) -> bool {
        let s = &mut self.state;
        let index = ((u64::from(pc)) ^ s.history) & self.index_mask;
        let counter = &mut s.counters[index as usize];
        let predicted_taken = *counter >= 2;
        if taken {
            *counter = (*counter + 1).min(3);
        } else {
            *counter = counter.saturating_sub(1);
        }
        s.history = ((s.history << 1) | u64::from(taken)) & self.history_mask;
        s.predictions += 1;
        let correct = predicted_taken == taken;
        if !correct {
            s.mispredictions += 1;
        }
        correct
    }

    /// Lifetime prediction count.
    pub fn predictions(&self) -> u64 {
        self.state.predictions
    }

    /// Lifetime misprediction count.
    pub fn mispredictions(&self) -> u64 {
        self.state.mispredictions
    }

    /// Lifetime misprediction rate in `[0, 1]`; `0.0` when never used.
    pub fn misprediction_rate(&self) -> f64 {
        let s = &self.state;
        if s.predictions == 0 {
            0.0
        } else {
            s.mispredictions as f64 / s.predictions as f64
        }
    }

    /// Clears tables, history, and statistics.
    pub fn reset(&mut self) {
        let s = &mut self.state;
        s.counters.fill(1);
        s.history = 0;
        s.predictions = 0;
        s.mispredictions = 0;
    }

    /// Borrows the checkpointable state.
    pub(crate) fn state(&self) -> &BranchPredictorState {
        &self.state
    }

    /// Lends the checkpointable state for in-place restores.
    pub(crate) fn state_mut(&mut self) -> &mut BranchPredictorState {
        &mut self.state
    }
}

/// The checkpointable state of a [`BranchPredictor`]: what a
/// [`crate::MachineSnapshot`] carries for it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BranchPredictorState {
    /// Two-bit saturating counter table; `>= 2` predicts taken.
    pub counters: Vec<u8>,
    /// Global branch history register.
    pub history: u64,
    /// Lifetime prediction count.
    pub predictions: u64,
    /// Lifetime misprediction count.
    pub mispredictions: u64,
}

impl BranchPredictorState {
    /// Overwrites this state with `src` in place, without reallocating
    /// the counter table.
    ///
    /// # Panics
    ///
    /// Panics if `src` was captured from a predictor with a different
    /// table size.
    pub fn copy_from(&mut self, src: &BranchPredictorState) {
        assert_eq!(
            src.counters.len(),
            self.counters.len(),
            "branch-predictor state shape mismatch"
        );
        self.counters.copy_from_slice(&src.counters);
        self.history = src.history;
        self.predictions = src.predictions;
        self.mispredictions = src.mispredictions;
    }
}

/// A branch target buffer predicting the targets of indirect jumps
/// ([`pgss_isa::Instr::Jr`]) as "same target as last time".
#[derive(Debug, Clone)]
pub struct Btb {
    /// The target table: exactly what a checkpoint carries.
    state: BtbState,
    mask: u32,
}

impl Btb {
    /// Creates an empty BTB with `entries` slots.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero or not a power of two.
    pub fn new(entries: u32) -> Btb {
        assert!(
            entries.is_power_of_two() && entries > 0,
            "BTB entries must be a power of two"
        );
        Btb {
            state: BtbState {
                targets: vec![u32::MAX; entries as usize],
            },
            mask: entries - 1,
        }
    }

    /// Predicts the target of the indirect jump at `pc`, then records the
    /// actual `target`. Returns `true` if the prediction was correct.
    #[inline]
    pub fn predict_and_update(&mut self, pc: u32, target: u32) -> bool {
        let slot = &mut self.state.targets[(pc & self.mask) as usize];
        let correct = *slot == target;
        *slot = target;
        correct
    }

    /// Clears all entries.
    pub fn reset(&mut self) {
        self.state.targets.fill(u32::MAX);
    }

    /// Borrows the checkpointable state.
    pub(crate) fn state(&self) -> &BtbState {
        &self.state
    }

    /// Lends the checkpointable state for in-place restores.
    pub(crate) fn state_mut(&mut self) -> &mut BtbState {
        &mut self.state
    }
}

/// The checkpointable state of a [`Btb`]: what a
/// [`crate::MachineSnapshot`] carries for it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BtbState {
    /// Last observed target per entry; `u32::MAX` = invalid.
    pub targets: Vec<u32>,
}

impl BtbState {
    /// Overwrites this state with `src` in place, without reallocating
    /// the target table.
    ///
    /// # Panics
    ///
    /// Panics if `src` was captured from a BTB with a different entry
    /// count.
    pub fn copy_from(&mut self, src: &BtbState) {
        assert_eq!(
            src.targets.len(),
            self.targets.len(),
            "BTB state shape mismatch"
        );
        self.targets.copy_from_slice(&src.targets);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bp() -> BranchPredictor {
        BranchPredictor::new(BranchPredictorConfig {
            history_bits: 10,
            btb_entries: 16,
        })
    }

    #[test]
    fn learns_monotone_branch() {
        let mut p = bp();
        // Initial counters are weakly not-taken, so the first taken outcomes
        // mispredict, and each new global-history pattern hits a fresh
        // counter. Train until the all-taken history saturates.
        for _ in 0..32 {
            p.predict_and_update(64, true);
        }
        let before = p.mispredictions();
        for _ in 0..100 {
            assert!(p.predict_and_update(64, true));
        }
        assert_eq!(p.mispredictions(), before);
    }

    #[test]
    fn learns_alternating_pattern_via_history() {
        let mut p = bp();
        let mut outcome = false;
        for _ in 0..200 {
            p.predict_and_update(32, outcome);
            outcome = !outcome;
        }
        // After warm-up, the history-indexed counters disambiguate the
        // alternation perfectly.
        let before = p.mispredictions();
        for _ in 0..100 {
            p.predict_and_update(32, outcome);
            outcome = !outcome;
        }
        assert_eq!(
            p.mispredictions(),
            before,
            "alternating pattern should be learned"
        );
    }

    #[test]
    fn random_branches_mispredict_often() {
        let mut p = bp();
        // A pseudo-random but deterministic bit sequence.
        let mut x = 0x9E3779B97F4A7C15u64;
        let mut wrong = 0;
        for _ in 0..10_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if !p.predict_and_update(8, x & 1 == 1) {
                wrong += 1;
            }
        }
        // Should be near 50%; certainly above 35%.
        assert!(
            wrong > 3_500,
            "only {wrong} mispredictions on random outcomes"
        );
    }

    #[test]
    fn rate_accounting() {
        let mut p = bp();
        p.predict_and_update(0, true); // counter=1 predicts NT, outcome T: wrong
        assert_eq!(p.predictions(), 1);
        assert_eq!(p.mispredictions(), 1);
        assert_eq!(p.misprediction_rate(), 1.0);
        p.reset();
        assert_eq!(p.predictions(), 0);
        assert_eq!(p.misprediction_rate(), 0.0);
    }

    #[test]
    fn btb_remembers_last_target() {
        let mut b = Btb::new(16);
        assert!(!b.predict_and_update(5, 100)); // cold
        assert!(b.predict_and_update(5, 100));
        assert!(!b.predict_and_update(5, 200)); // target changed
        assert!(b.predict_and_update(5, 200));
    }

    #[test]
    fn btb_aliasing_is_possible_but_reset_clears() {
        let mut b = Btb::new(2);
        b.predict_and_update(0, 7);
        assert!(b.predict_and_update(2, 7)); // aliases slot 0
        b.reset();
        assert!(!b.predict_and_update(0, 7));
    }

    #[test]
    #[should_panic(expected = "history_bits")]
    fn zero_history_panics() {
        let _ = BranchPredictor::new(BranchPredictorConfig {
            history_bits: 0,
            btb_entries: 2,
        });
    }
}
