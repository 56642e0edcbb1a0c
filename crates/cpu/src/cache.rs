//! Set-associative caches and the two-level memory system.

use crate::config::{CacheConfig, LatencyConfig, MachineConfig};

/// A set-associative cache with true-LRU replacement.
///
/// Only tags are modeled (the simulator's architectural memory holds the
/// data), which is all that timing and warm-up need.
///
/// # Example
///
/// ```
/// use pgss_cpu::{Cache, CacheConfig};
///
/// let mut cache = Cache::new(CacheConfig { size_bytes: 256, line_bytes: 64, associativity: 2 });
/// assert!(!cache.access(0));   // cold miss
/// assert!(cache.access(0));    // now a hit
/// assert!(!cache.access(4096)); // different line, miss
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// `ways[set * assoc .. (set+1) * assoc]`, most-recently-used first.
    /// `u64::MAX` marks an invalid way.
    ways: Vec<u64>,
    assoc: usize,
    set_mask: u64,
    line_shift: u32,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Creates an empty (all-invalid) cache.
    ///
    /// # Panics
    ///
    /// Panics if any geometry field is zero or not a power of two, or if the
    /// geometry implies zero sets.
    pub fn new(config: CacheConfig) -> Cache {
        assert!(
            config.size_bytes.is_power_of_two(),
            "cache size must be a power of two"
        );
        assert!(
            config.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(
            config.associativity.is_power_of_two(),
            "associativity must be a power of two"
        );
        let sets = config.num_sets();
        assert!(sets >= 1, "cache geometry implies zero sets");
        let assoc = config.associativity as usize;
        Cache {
            config,
            ways: vec![u64::MAX; sets as usize * assoc],
            assoc,
            set_mask: sets - 1,
            line_shift: config.line_bytes.trailing_zeros(),
            hits: 0,
            misses: 0,
        }
    }

    /// The cache's geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Accesses the line containing `byte_addr`, updating LRU state and
    /// allocating on miss. Returns `true` on hit.
    #[inline]
    pub fn access(&mut self, byte_addr: u64) -> bool {
        self.access_line(byte_addr >> self.line_shift)
    }

    /// [`Cache::access`] with the line index already computed (callers
    /// that memoize the last line avoid recomputing it).
    #[inline]
    fn access_line(&mut self, line: u64) -> bool {
        let set = (line & self.set_mask) as usize;
        let base = set * self.assoc;
        let ways = &mut self.ways[base..base + self.assoc];
        // MRU-first search; move the hit way to the front.
        if let Some(pos) = ways.iter().position(|&t| t == line) {
            ways[..=pos].rotate_right(1);
            self.hits += 1;
            true
        } else {
            // Evict the LRU way (last slot) by shifting everything down.
            ways.rotate_right(1);
            ways[0] = line;
            self.misses += 1;
            false
        }
    }

    /// A hit on the way that is already MRU in its set: bump the hit
    /// counter without the scan/rotate (the rotation over `[..=0]` is a
    /// no-op). Exactness argument for callers: checking `ways[base]`
    /// first observes the same LRU state [`Cache::access_line`] would,
    /// and a front hit leaves that state untouched.
    #[inline(always)]
    fn access_mru_hit(&mut self, line: u64) -> bool {
        let set = (line & self.set_mask) as usize;
        if self.ways[set * self.assoc] == line {
            self.hits += 1;
            true
        } else {
            false
        }
    }

    /// Probes without updating state. Returns `true` if the line is present.
    pub fn probe(&self, byte_addr: u64) -> bool {
        let line = byte_addr >> self.line_shift;
        let set = (line & self.set_mask) as usize;
        let base = set * self.assoc;
        self.ways[base..base + self.assoc].contains(&line)
    }

    /// Lifetime hit count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime miss count.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Lifetime hit rate in `[0, 1]`; `1.0` when never accessed.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Invalidates all lines and clears statistics.
    pub fn reset(&mut self) {
        self.ways.fill(u64::MAX);
        self.hits = 0;
        self.misses = 0;
    }

    /// Captures the mutable state (tag arrays in LRU order plus
    /// statistics) for a checkpoint.
    pub fn save_state(&self) -> CacheState {
        CacheState {
            ways: self.ways.clone(),
            hits: self.hits,
            misses: self.misses,
        }
    }

    /// Restores state captured by [`Cache::save_state`].
    ///
    /// # Panics
    ///
    /// Panics if `state` was captured from a cache with different
    /// geometry.
    pub fn load_state(&mut self, state: &CacheState) {
        self.state_mut().copy_from(state.view());
    }

    /// Borrows the mutable state without copying it.
    pub(crate) fn state(&self) -> CacheStateRef<'_> {
        CacheStateRef {
            ways: &self.ways,
            hits: self.hits,
            misses: self.misses,
        }
    }

    /// Lends the mutable state for in-place restores.
    pub(crate) fn state_mut(&mut self) -> CacheStateMut<'_> {
        CacheStateMut {
            ways: &mut self.ways,
            hits: &mut self.hits,
            misses: &mut self.misses,
        }
    }
}

/// The mutable state of a [`Cache`], as captured by [`Cache::save_state`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheState {
    /// Tag arrays, MRU-first per set; `u64::MAX` marks an invalid way.
    pub ways: Vec<u64>,
    /// Lifetime hit count.
    pub hits: u64,
    /// Lifetime miss count.
    pub misses: u64,
}

impl CacheState {
    /// Borrows this state in the form every restore path copies from.
    pub fn view(&self) -> CacheStateRef<'_> {
        CacheStateRef {
            ways: &self.ways,
            hits: self.hits,
            misses: self.misses,
        }
    }
}

/// A [`CacheState`] borrowed from a live cache or a snapshot.
#[derive(Debug, Clone, Copy)]
pub struct CacheStateRef<'a> {
    /// Tag arrays, MRU-first per set; `u64::MAX` marks an invalid way.
    pub ways: &'a [u64],
    /// Lifetime hit count.
    pub hits: u64,
    /// Lifetime miss count.
    pub misses: u64,
}

/// A cache's mutable state lent out for writing in place: the tag array
/// is the cache's own buffer, so restores never reallocate it.
#[derive(Debug)]
pub struct CacheStateMut<'a> {
    /// Tag arrays, MRU-first per set; `u64::MAX` marks an invalid way.
    pub ways: &'a mut [u64],
    /// Lifetime hit count.
    pub hits: &'a mut u64,
    /// Lifetime miss count.
    pub misses: &'a mut u64,
}

impl CacheStateMut<'_> {
    /// The per-level copy every restore path uses.
    ///
    /// # Panics
    ///
    /// Panics if `src` was captured from a cache with different geometry.
    pub fn copy_from(&mut self, src: CacheStateRef<'_>) {
        assert_eq!(
            src.ways.len(),
            self.ways.len(),
            "cache state shape mismatch"
        );
        self.ways.copy_from_slice(src.ways);
        *self.hits = src.hits;
        *self.misses = src.misses;
    }
}

/// The mutable state of a [`MemSystem`]: one [`CacheState`] per level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemSystemState {
    /// Instruction L1 state.
    pub l1i: CacheState,
    /// Data L1 state.
    pub l1d: CacheState,
    /// Unified L2 state.
    pub l2: CacheState,
}

/// The paper's two-level memory system: split L1 (instruction + data) over a
/// unified L2.
///
/// [`MemSystem::load_latency`] and friends return the access latency in
/// cycles and update the hierarchy (allocate-on-miss in both levels).
#[derive(Debug, Clone)]
pub struct MemSystem {
    /// Instruction L1.
    l1i: Cache,
    /// Data L1.
    l1d: Cache,
    /// Unified L2.
    l2: Cache,
    lat: LatencyConfig,
    /// L1D line of the most recent data access through the `*_fast`
    /// entry points (`u64::MAX` when unknown). Derived fast-path state,
    /// never serialized: by construction this line is the MRU way of its
    /// set, so a repeat access is a hit whose LRU rotation is a no-op and
    /// can be short-circuited to a counter bump. Cleared by
    /// [`MemSystem::load_state`].
    last_data_line: u64,
}

impl MemSystem {
    /// Builds the hierarchy described by `config`.
    pub fn new(config: &MachineConfig) -> MemSystem {
        MemSystem {
            l1i: Cache::new(config.l1i),
            l1d: Cache::new(config.l1d),
            l2: Cache::new(config.l2),
            lat: config.lat,
            last_data_line: u64::MAX,
        }
    }

    /// Fetches the instruction line at `byte_addr`; returns the added fetch
    /// latency in cycles (0 for an L1I hit).
    #[inline]
    pub fn fetch_latency(&mut self, byte_addr: u64) -> u32 {
        if self.l1i.access(byte_addr) {
            0
        } else if self.l2.access(byte_addr) {
            self.lat.l2_hit
        } else {
            self.lat.memory
        }
    }

    /// [`MemSystem::fetch_latency`] with an MRU-first fast path: a fetch
    /// that hits the MRU way of its L1I set (the common case for hot
    /// loops bouncing between a few lines) skips the scan/rotate.
    /// Identical state, counters, and latency.
    #[inline]
    pub fn fetch_latency_fast(&mut self, byte_addr: u64) -> u32 {
        let line = byte_addr >> self.l1i.line_shift;
        if self.l1i.access_mru_hit(line) {
            return 0;
        }
        if self.l1i.access_line(line) {
            0
        } else if self.l2.access(byte_addr) {
            self.lat.l2_hit
        } else {
            self.lat.memory
        }
    }

    /// Loads the data word at `byte_addr`; returns the load-to-use latency.
    #[inline]
    pub fn load_latency(&mut self, byte_addr: u64) -> u32 {
        self.last_data_line = u64::MAX;
        if self.l1d.access(byte_addr) {
            self.lat.l1_hit
        } else if self.l2.access(byte_addr) {
            self.lat.l2_hit
        } else {
            self.lat.memory
        }
    }

    /// [`MemSystem::load_latency`] with the same-line memo fast path:
    /// identical cache state, counters, and latency, one compare when the
    /// access stays on the most recently touched data line.
    #[inline]
    pub fn load_latency_fast(&mut self, byte_addr: u64) -> u32 {
        let line = byte_addr >> self.l1d.line_shift;
        if line == self.last_data_line {
            self.l1d.hits += 1;
            return self.lat.l1_hit;
        }
        self.last_data_line = line;
        if self.l1d.access_mru_hit(line) {
            return self.lat.l1_hit;
        }
        if self.l1d.access_line(line) {
            self.lat.l1_hit
        } else if self.l2.access(byte_addr) {
            self.lat.l2_hit
        } else {
            self.lat.memory
        }
    }

    /// Stores to the data word at `byte_addr` (write-allocate). Returns the
    /// fill latency: `0` for an L1 hit (the store buffer hides it), otherwise
    /// the L2 or memory latency, which the core charges against a
    /// miss-status-holding register.
    #[inline]
    pub fn store_latency(&mut self, byte_addr: u64) -> u32 {
        self.last_data_line = u64::MAX;
        if self.l1d.access(byte_addr) {
            0
        } else if self.l2.access(byte_addr) {
            self.lat.l2_hit
        } else {
            self.lat.memory
        }
    }

    /// [`MemSystem::store_latency`] with the same-line memo fast path
    /// (see [`MemSystem::load_latency_fast`]).
    #[inline]
    pub fn store_latency_fast(&mut self, byte_addr: u64) -> u32 {
        let line = byte_addr >> self.l1d.line_shift;
        if line == self.last_data_line {
            self.l1d.hits += 1;
            return 0;
        }
        self.last_data_line = line;
        if self.l1d.access_mru_hit(line) {
            return 0;
        }
        if self.l1d.access_line(line) {
            0
        } else if self.l2.access(byte_addr) {
            self.lat.l2_hit
        } else {
            self.lat.memory
        }
    }

    /// Touches the hierarchy exactly as a load would, without reporting
    /// latency — used by the functional warming mode.
    #[inline]
    pub fn warm_data(&mut self, byte_addr: u64) {
        self.last_data_line = u64::MAX;
        if !self.l1d.access(byte_addr) {
            self.l2.access(byte_addr);
        }
    }

    /// [`MemSystem::warm_data`] with the same-line memo fast path (see
    /// [`MemSystem::load_latency_fast`]).
    #[inline]
    pub fn warm_data_fast(&mut self, byte_addr: u64) {
        let line = byte_addr >> self.l1d.line_shift;
        if line == self.last_data_line {
            self.l1d.hits += 1;
            return;
        }
        self.last_data_line = line;
        if self.l1d.access_mru_hit(line) {
            return;
        }
        if !self.l1d.access_line(line) {
            self.l2.access(byte_addr);
        }
    }

    /// Touches the instruction hierarchy without reporting latency.
    #[inline]
    pub fn warm_fetch(&mut self, byte_addr: u64) {
        if !self.l1i.access(byte_addr) {
            self.l2.access(byte_addr);
        }
    }

    /// [`MemSystem::warm_fetch`] with the MRU-first fast path (see
    /// [`MemSystem::fetch_latency_fast`]).
    #[inline]
    pub fn warm_fetch_fast(&mut self, byte_addr: u64) {
        let line = byte_addr >> self.l1i.line_shift;
        if self.l1i.access_mru_hit(line) {
            return;
        }
        if !self.l1i.access_line(line) {
            self.l2.access(byte_addr);
        }
    }

    /// The instruction L1.
    pub fn l1i(&self) -> &Cache {
        &self.l1i
    }

    /// The data L1.
    pub fn l1d(&self) -> &Cache {
        &self.l1d
    }

    /// The unified L2.
    pub fn l2(&self) -> &Cache {
        &self.l2
    }

    /// Captures the warm state of all three caches.
    pub fn save_state(&self) -> MemSystemState {
        MemSystemState {
            l1i: self.l1i.save_state(),
            l1d: self.l1d.save_state(),
            l2: self.l2.save_state(),
        }
    }

    /// Restores state captured by [`MemSystem::save_state`].
    ///
    /// # Panics
    ///
    /// Panics if any level's geometry differs from when the state was
    /// captured.
    pub fn load_state(&mut self, state: &MemSystemState) {
        for (level, src) in self.states_mut().iter_mut().zip(state.view()) {
            level.copy_from(src);
        }
        self.forget_data_line();
    }

    /// Borrows every level's state (L1I, L1D, L2).
    pub(crate) fn states(&self) -> [CacheStateRef<'_>; 3] {
        [self.l1i.state(), self.l1d.state(), self.l2.state()]
    }

    /// Lends every level's state (L1I, L1D, L2) for in-place restores;
    /// pair with [`MemSystem::forget_data_line`].
    pub(crate) fn states_mut(&mut self) -> [CacheStateMut<'_>; 3] {
        [
            self.l1i.state_mut(),
            self.l1d.state_mut(),
            self.l2.state_mut(),
        ]
    }

    /// Drops the last-data-line memo. The memo is derived from the
    /// access stream, not part of the state; a restored hierarchy starts
    /// with it unknown.
    pub(crate) fn forget_data_line(&mut self) {
        self.last_data_line = u64::MAX;
    }
}

impl MemSystemState {
    /// Borrows every level's state (L1I, L1D, L2).
    pub fn view(&self) -> [CacheStateRef<'_>; 3] {
        [self.l1i.view(), self.l1d.view(), self.l2.view()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets × 2 ways × 64 B lines.
        Cache::new(CacheConfig {
            size_bytes: 256,
            line_bytes: 64,
            associativity: 2,
        })
    }

    #[test]
    fn hit_after_fill() {
        let mut c = tiny();
        assert!(!c.access(0));
        assert!(c.access(0));
        assert!(c.access(63)); // same line
        assert!(!c.access(64)); // next line, different set
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Set 0 lines: addresses with line index even (2 sets, 64B lines).
        let a = 0u64; // line 0, set 0
        let b = 128; // line 2, set 0
        let d = 256; // line 4, set 0
        assert!(!c.access(a));
        assert!(!c.access(b));
        assert!(c.access(a)); // a is now MRU, b is LRU
        assert!(!c.access(d)); // evicts b
        assert!(c.access(a));
        assert!(!c.access(b)); // b was evicted
    }

    #[test]
    fn probe_does_not_disturb_lru() {
        let mut c = tiny();
        c.access(0);
        c.access(128); // LRU order: 128, 0
        assert!(c.probe(0));
        c.access(256); // should evict 0 (LRU), not 128
        assert!(c.probe(128));
        assert!(!c.probe(0));
    }

    #[test]
    fn reset_clears_contents_and_stats() {
        let mut c = tiny();
        c.access(0);
        c.access(0);
        c.reset();
        assert!(!c.probe(0));
        assert_eq!(c.hits(), 0);
        assert_eq!(c.misses(), 0);
        assert_eq!(c.hit_rate(), 1.0);
    }

    #[test]
    fn sets_are_independent() {
        let mut c = tiny();
        c.access(0); // set 0
        c.access(64); // set 1
        assert!(c.probe(0));
        assert!(c.probe(64));
    }

    #[test]
    fn mem_system_latencies_escalate() {
        let cfg = MachineConfig::default();
        let mut m = MemSystem::new(&cfg);
        let lat = cfg.lat;
        assert_eq!(m.load_latency(0), lat.memory); // cold: full miss
        assert_eq!(m.load_latency(0), lat.l1_hit); // L1 hit
                                                   // Evict from L1 only: walk 5 lines mapping to L1 set 0 but distinct
                                                   // L2 sets is fiddly; instead verify L2 hit via a fresh line that was
                                                   // loaded into L2 by an instruction fetch.
        assert_eq!(m.fetch_latency(1 << 20), lat.memory);
        assert_eq!(m.load_latency(1 << 20), lat.l2_hit); // in L2 via fetch path
    }

    #[test]
    fn stores_allocate() {
        let cfg = MachineConfig::default();
        let mut m = MemSystem::new(&cfg);
        assert_eq!(m.store_latency(4096), cfg.lat.memory); // cold miss
        assert_eq!(m.load_latency(4096), cfg.lat.l1_hit);
        assert_eq!(m.store_latency(4096), 0); // hit
    }

    #[test]
    fn fast_paths_match_plain_paths_exactly() {
        // Drive two hierarchies with the same access stream — one through
        // the plain entry points, one through the memoized `*_fast` ones
        // (including interleaved plain calls, which must invalidate the
        // memo) — and require identical latencies and identical state.
        let cfg = MachineConfig::default();
        let mut plain = MemSystem::new(&cfg);
        let mut fast = MemSystem::new(&cfg);
        // A mix of repeats (memo hits), strides, and set conflicts.
        let mut addr = 0u64;
        let mut addrs = Vec::new();
        for i in 0..5_000u64 {
            addr = addr.wrapping_mul(6364136223846793005).wrapping_add(i);
            addrs.push(addr % (1 << 22));
            addrs.push((i / 3) * 8); // hot, same-line repeats
        }
        for (k, &a) in addrs.iter().enumerate() {
            match k % 6 {
                0 => assert_eq!(plain.load_latency(a), fast.load_latency_fast(a)),
                1 => assert_eq!(plain.store_latency(a), fast.store_latency_fast(a)),
                2 => {
                    plain.warm_data(a);
                    fast.warm_data_fast(a);
                }
                3 => assert_eq!(plain.fetch_latency(a), fast.fetch_latency_fast(a)),
                4 => {
                    plain.warm_fetch(a);
                    fast.warm_fetch_fast(a);
                }
                // Interleave a plain call on the `fast` instance: the memo
                // must be invalidated, not left stale.
                _ => assert_eq!(plain.load_latency(a), fast.load_latency(a)),
            }
        }
        assert_eq!(plain.save_state(), fast.save_state());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_panics() {
        let _ = Cache::new(CacheConfig {
            size_bytes: 300,
            line_bytes: 64,
            associativity: 2,
        });
    }
}
