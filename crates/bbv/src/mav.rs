//! Memory Access Vectors: a phase signature built from *where* a program
//! touches data memory rather than *which branches* it takes.
//!
//! Each signature is a [`HashedBbv`]-shaped vector of [`MAV_REGIONS`]
//! counters; data memory is tiled into that many equal power-of-two
//! regions, and every retired load or store increments its region's
//! counter. Programs whose phases differ by working set (streaming a
//! different buffer, chasing a different ring) separate in this space even
//! when their control flow — and therefore their hashed BBV — looks alike.
//! Reusing the `HashedBbv` container means the angle metric, the phase
//! table, and the clustering pipeline all work on either signature
//! unchanged.

use crate::hashed::{HashedBbv, HASHED_BBV_DIM};
use pgss_cpu::RetireSink;

/// Number of memory regions a MAV distinguishes — the same dimensionality
/// as the hashed BBV so the two signatures are drop-in interchangeable.
pub const MAV_REGIONS: usize = HASHED_BBV_DIM;

/// Collects a [`HashedBbv`]-shaped Memory Access Vector from the machine's
/// [`RetireSink::data_access`] events.
///
/// The tracker accumulates into `current` until [`MavTracker::take`]
/// resets it, mirroring [`crate::HashedBbvTracker`]'s contract so the
/// simulation driver can treat the two identically.
///
/// # Example
///
/// ```
/// use pgss_bbv::MavTracker;
/// use pgss_cpu::RetireSink;
///
/// let mut t = MavTracker::new(1 << 16); // 64 Ki-word memory, 2 Ki-word regions
/// t.data_access(0); // region 0
/// t.data_access((1 << 16) - 1); // region 31
/// let v = t.take();
/// assert_eq!(v.counts()[0], 1);
/// assert_eq!(v.counts()[31], 1);
/// assert_eq!(t.current().total_ops(), 0); // take() resets
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MavTracker {
    /// Word-address right-shift mapping an address to its region index.
    region_shift: u32,
    current: HashedBbv,
}

impl MavTracker {
    /// Creates a tracker for a machine with `memory_words` words of data
    /// memory (a power of two, per the machine's own contract), tiled
    /// into [`MAV_REGIONS`] equal regions. Memories smaller than
    /// [`MAV_REGIONS`] words degenerate to one word per region with the
    /// top regions unused.
    ///
    /// # Panics
    ///
    /// Panics if `memory_words` is zero or not a power of two.
    pub fn new(memory_words: usize) -> MavTracker {
        assert!(
            memory_words > 0 && memory_words.is_power_of_two(),
            "memory_words must be a non-zero power of two, got {memory_words}"
        );
        let region_shift = memory_words
            .trailing_zeros()
            .saturating_sub(MAV_REGIONS.trailing_zeros());
        MavTracker {
            region_shift,
            current: HashedBbv::new(),
        }
    }

    /// The word-address shift that maps an address to its region.
    pub fn region_shift(&self) -> u32 {
        self.region_shift
    }

    /// The vector accumulated since the last [`MavTracker::take`].
    pub fn current(&self) -> &HashedBbv {
        &self.current
    }

    /// Returns the accumulated vector and resets the accumulator.
    pub fn take(&mut self) -> HashedBbv {
        std::mem::take(&mut self.current)
    }
}

impl RetireSink for MavTracker {
    #[inline]
    fn data_access(&mut self, addr: u64) {
        // Addresses arrive post-wrap (always inside memory), so the shift
        // alone lands in range; `min` only guards the degenerate
        // tiny-memory case where one word per region cannot tile.
        let region = ((addr >> self.region_shift) as usize).min(MAV_REGIONS - 1);
        self.current.record(region, 1);
    }

    /// Retirement counts are irrelevant to this signature; skip the
    /// default per-op loop.
    #[inline]
    fn retire_run(&mut self, _start_pc: u32, _len: u32) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_tile_memory_evenly() {
        let mut t = MavTracker::new(1 << 10); // 32 words per region
        assert_eq!(t.region_shift(), 5);
        for addr in 0..(1u64 << 10) {
            t.data_access(addr);
        }
        let v = t.take();
        assert_eq!(v.total_ops(), 1 << 10);
        assert!(v.counts().iter().all(|&c| c == 32), "{:?}", v.counts());
    }

    #[test]
    fn tiny_memory_clamps_into_range() {
        let mut t = MavTracker::new(16); // fewer words than regions
        assert_eq!(t.region_shift(), 0);
        for addr in 0..16 {
            t.data_access(addr);
        }
        let v = t.take();
        assert_eq!(v.total_ops(), 16);
        assert_eq!(v.counts()[15], 1);
        assert_eq!(v.counts()[31], 0);
    }

    #[test]
    fn take_returns_the_accumulator_and_resets_it() {
        let mut t = MavTracker::new(1 << 8);
        t.data_access(7);
        let v = t.take();
        assert_eq!(v.total_ops(), 1);
        assert_eq!(t.current().total_ops(), 0);
    }

    #[test]
    fn distinct_working_sets_are_far_apart() {
        let mut low = MavTracker::new(1 << 12);
        let mut high = MavTracker::new(1 << 12);
        for i in 0..100 {
            low.data_access(i % (1 << 7)); // bottom region
            high.data_access((1 << 12) - 1 - (i % (1 << 7))); // top region
        }
        let (a, b) = (low.take(), high.take());
        assert!(a.angle(&b) > 1.5, "angle {}", a.angle(&b));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_memory() {
        MavTracker::new(100);
    }
}
