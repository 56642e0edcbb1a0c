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
    /// Tag arrays and statistics: exactly what a checkpoint carries.
    state: CacheState,
    assoc: usize,
    set_mask: u64,
    line_shift: u32,
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
            state: CacheState {
                ways: vec![u64::MAX; sets as usize * assoc],
                hits: 0,
                misses: 0,
            },
            assoc,
            set_mask: sets - 1,
            line_shift: config.line_bytes.trailing_zeros(),
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
        let ways = &mut self.state.ways[base..base + self.assoc];
        // MRU-first search; move the hit way to the front.
        if let Some(pos) = ways.iter().position(|&t| t == line) {
            ways[..=pos].rotate_right(1);
            self.state.hits += 1;
            true
        } else {
            // Evict the LRU way (last slot) by shifting everything down.
            ways.rotate_right(1);
            ways[0] = line;
            self.state.misses += 1;
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
        if self.state.ways[set * self.assoc] == line {
            self.state.hits += 1;
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
        self.state.ways[base..base + self.assoc].contains(&line)
    }

    /// Lifetime hit count.
    pub fn hits(&self) -> u64 {
        self.state.hits
    }

    /// Lifetime miss count.
    pub fn misses(&self) -> u64 {
        self.state.misses
    }

    /// Lifetime hit rate in `[0, 1]`; `1.0` when never accessed.
    pub fn hit_rate(&self) -> f64 {
        let total = self.state.hits + self.state.misses;
        if total == 0 {
            1.0
        } else {
            self.state.hits as f64 / total as f64
        }
    }

    /// Invalidates all lines and clears statistics.
    pub fn reset(&mut self) {
        self.state.ways.fill(u64::MAX);
        self.state.hits = 0;
        self.state.misses = 0;
    }
}

/// The checkpointable state of a [`Cache`]: what a
/// [`crate::MachineSnapshot`] carries for each level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheState {
    /// Tag arrays, `ways[set * assoc .. (set+1) * assoc]` MRU-first per
    /// set; `u64::MAX` marks an invalid way.
    pub ways: Vec<u64>,
    /// Lifetime hit count.
    pub hits: u64,
    /// Lifetime miss count.
    pub misses: u64,
}

impl CacheState {
    /// Overwrites this state with `src` in place, without reallocating
    /// the tag array.
    ///
    /// # Panics
    ///
    /// Panics if `src` was captured from a cache with different geometry.
    pub fn copy_from(&mut self, src: &CacheState) {
        assert_eq!(
            src.ways.len(),
            self.ways.len(),
            "cache state shape mismatch"
        );
        self.ways.copy_from_slice(&src.ways);
        self.hits = src.hits;
        self.misses = src.misses;
    }
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
    /// can be short-circuited to a counter bump. Cleared by every
    /// restore ([`MemSystem::forget_data_line`]).
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
            self.l1d.state.hits += 1;
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
            self.l1d.state.hits += 1;
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
            self.l1d.state.hits += 1;
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

    /// Borrows every level's state (L1I, L1D, L2).
    pub(crate) fn states(&self) -> [&CacheState; 3] {
        [&self.l1i.state, &self.l1d.state, &self.l2.state]
    }

    /// Lends every level's state (L1I, L1D, L2) for in-place restores;
    /// pair with [`MemSystem::forget_data_line`].
    pub(crate) fn states_mut(&mut self) -> [&mut CacheState; 3] {
        [&mut self.l1i.state, &mut self.l1d.state, &mut self.l2.state]
    }

    /// Drops the last-data-line memo. The memo is derived from the
    /// access stream, not part of the state; a restored hierarchy starts
    /// with it unknown.
    pub(crate) fn forget_data_line(&mut self) {
        self.last_data_line = u64::MAX;
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
        assert_eq!(plain.states(), fast.states());
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
