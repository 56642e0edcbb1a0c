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
    /// Two-bit saturating counters; `>= 2` predicts taken.
    counters: Vec<u8>,
    history: u64,
    index_mask: u64,
    history_mask: u64,
    predictions: u64,
    mispredictions: u64,
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
            counters: vec![1; entries],
            history: 0,
            index_mask: entries as u64 - 1,
            history_mask: entries as u64 - 1,
            predictions: 0,
            mispredictions: 0,
        }
    }

    /// Predicts the direction of the branch at `pc`, then updates the
    /// counters and global history with the actual `taken` outcome. Returns
    /// `true` if the prediction was correct.
    #[inline]
    pub fn predict_and_update(&mut self, pc: u32, taken: bool) -> bool {
        let index = ((u64::from(pc)) ^ self.history) & self.index_mask;
        let counter = &mut self.counters[index as usize];
        let predicted_taken = *counter >= 2;
        if taken {
            *counter = (*counter + 1).min(3);
        } else {
            *counter = counter.saturating_sub(1);
        }
        self.history = ((self.history << 1) | u64::from(taken)) & self.history_mask;
        self.predictions += 1;
        let correct = predicted_taken == taken;
        if !correct {
            self.mispredictions += 1;
        }
        correct
    }

    /// Lifetime prediction count.
    pub fn predictions(&self) -> u64 {
        self.predictions
    }

    /// Lifetime misprediction count.
    pub fn mispredictions(&self) -> u64 {
        self.mispredictions
    }

    /// Lifetime misprediction rate in `[0, 1]`; `0.0` when never used.
    pub fn misprediction_rate(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            self.mispredictions as f64 / self.predictions as f64
        }
    }

    /// Clears tables, history, and statistics.
    pub fn reset(&mut self) {
        self.counters.fill(1);
        self.history = 0;
        self.predictions = 0;
        self.mispredictions = 0;
    }

    /// Captures the mutable state (counter table, global history,
    /// statistics) for a checkpoint.
    pub fn save_state(&self) -> BranchPredictorState {
        BranchPredictorState {
            counters: self.counters.clone(),
            history: self.history,
            predictions: self.predictions,
            mispredictions: self.mispredictions,
        }
    }

    /// Restores state captured by [`BranchPredictor::save_state`].
    ///
    /// # Panics
    ///
    /// Panics if `state` was captured from a predictor with a different
    /// table size.
    pub fn load_state(&mut self, state: &BranchPredictorState) {
        self.state_mut().copy_from(state.view());
    }

    /// Borrows the mutable state without copying it.
    pub(crate) fn state(&self) -> BranchPredictorStateRef<'_> {
        BranchPredictorStateRef {
            counters: &self.counters,
            history: self.history,
            predictions: self.predictions,
            mispredictions: self.mispredictions,
        }
    }

    /// Lends the mutable state for in-place restores.
    pub(crate) fn state_mut(&mut self) -> BranchPredictorStateMut<'_> {
        BranchPredictorStateMut {
            counters: &mut self.counters,
            history: &mut self.history,
            predictions: &mut self.predictions,
            mispredictions: &mut self.mispredictions,
        }
    }
}

/// The mutable state of a [`BranchPredictor`], as captured by
/// [`BranchPredictor::save_state`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BranchPredictorState {
    /// Two-bit saturating counter table.
    pub counters: Vec<u8>,
    /// Global branch history register.
    pub history: u64,
    /// Lifetime prediction count.
    pub predictions: u64,
    /// Lifetime misprediction count.
    pub mispredictions: u64,
}

impl BranchPredictorState {
    /// Borrows this state in the form every restore path copies from.
    pub fn view(&self) -> BranchPredictorStateRef<'_> {
        BranchPredictorStateRef {
            counters: &self.counters,
            history: self.history,
            predictions: self.predictions,
            mispredictions: self.mispredictions,
        }
    }
}

/// A [`BranchPredictorState`] borrowed from a live predictor or a
/// snapshot.
#[derive(Debug, Clone, Copy)]
pub struct BranchPredictorStateRef<'a> {
    /// Two-bit saturating counter table.
    pub counters: &'a [u8],
    /// Global branch history register.
    pub history: u64,
    /// Lifetime prediction count.
    pub predictions: u64,
    /// Lifetime misprediction count.
    pub mispredictions: u64,
}

/// A predictor's mutable state lent out for writing in place: the
/// counter table is the predictor's own buffer.
#[derive(Debug)]
pub struct BranchPredictorStateMut<'a> {
    /// Two-bit saturating counter table.
    pub counters: &'a mut [u8],
    /// Global branch history register.
    pub history: &'a mut u64,
    /// Lifetime prediction count.
    pub predictions: &'a mut u64,
    /// Lifetime misprediction count.
    pub mispredictions: &'a mut u64,
}

impl BranchPredictorStateMut<'_> {
    /// The predictor copy every restore path uses.
    ///
    /// # Panics
    ///
    /// Panics if `src` was captured from a predictor with a different
    /// table size.
    pub fn copy_from(&mut self, src: BranchPredictorStateRef<'_>) {
        assert_eq!(
            src.counters.len(),
            self.counters.len(),
            "branch-predictor state shape mismatch"
        );
        self.counters.copy_from_slice(src.counters);
        *self.history = src.history;
        *self.predictions = src.predictions;
        *self.mispredictions = src.mispredictions;
    }
}

/// A branch target buffer predicting the targets of indirect jumps
/// ([`pgss_isa::Instr::Jr`]) as "same target as last time".
#[derive(Debug, Clone)]
pub struct Btb {
    /// Last observed target per entry; `u32::MAX` = invalid.
    targets: Vec<u32>,
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
            targets: vec![u32::MAX; entries as usize],
            mask: entries - 1,
        }
    }

    /// Predicts the target of the indirect jump at `pc`, then records the
    /// actual `target`. Returns `true` if the prediction was correct.
    #[inline]
    pub fn predict_and_update(&mut self, pc: u32, target: u32) -> bool {
        let slot = &mut self.targets[(pc & self.mask) as usize];
        let correct = *slot == target;
        *slot = target;
        correct
    }

    /// Clears all entries.
    pub fn reset(&mut self) {
        self.targets.fill(u32::MAX);
    }

    /// Captures the target table for a checkpoint.
    pub fn save_state(&self) -> BtbState {
        BtbState {
            targets: self.targets.clone(),
        }
    }

    /// Restores state captured by [`Btb::save_state`].
    ///
    /// # Panics
    ///
    /// Panics if `state` was captured from a BTB with a different entry
    /// count.
    pub fn load_state(&mut self, state: &BtbState) {
        copy_btb_targets(&mut self.targets, &state.targets);
    }

    /// The target table, borrowed.
    pub(crate) fn targets(&self) -> &[u32] {
        &self.targets
    }

    /// The target table, lent out for in-place restores.
    pub(crate) fn targets_mut(&mut self) -> &mut [u32] {
        &mut self.targets
    }
}

/// The BTB copy every restore path uses.
///
/// # Panics
///
/// Panics if the tables differ in entry count.
pub(crate) fn copy_btb_targets(dst: &mut [u32], src: &[u32]) {
    assert_eq!(src.len(), dst.len(), "BTB state shape mismatch");
    dst.copy_from_slice(src);
}

/// The mutable state of a [`Btb`], as captured by [`Btb::save_state`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BtbState {
    /// Last observed target per entry; `u32::MAX` = invalid.
    pub targets: Vec<u32>,
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
