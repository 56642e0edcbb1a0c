//! Independent cache oracle: a naive `Vec`-backed true-LRU model, written
//! without any of `Cache`'s shift/mask arithmetic, rotation tricks or
//! fast paths, checked access by access against `Cache::access` and
//! against every `MemSystem` entry point — the `*_latency`, `*_latency_fast`,
//! `warm_*` and `warm_*_fast` paths, including the MRU and same-line memo
//! shortcuts — over seeded random, strided and line-local address streams
//! on several geometries, direct-mapped and fully associative included.

use pgss_cpu::{Cache, CacheConfig, LatencyConfig, MachineConfig, MemSystem};
use pgss_stats::DetRng;

/// The model: per set, the resident lines ordered least- to most-recently
/// used.
struct OracleCache {
    sets: Vec<Vec<u64>>,
    ways: usize,
    line_bytes: u64,
    hits: u64,
    misses: u64,
}

impl OracleCache {
    fn new(cfg: CacheConfig) -> OracleCache {
        let ways = cfg.associativity as usize;
        let num_sets = cfg.size_bytes / cfg.line_bytes / ways as u64;
        OracleCache {
            sets: vec![Vec::new(); num_sets as usize],
            ways,
            line_bytes: cfg.line_bytes,
            hits: 0,
            misses: 0,
        }
    }

    fn access(&mut self, addr: u64) -> bool {
        let line = addr / self.line_bytes;
        let num_sets = self.sets.len() as u64;
        let set = &mut self.sets[(line % num_sets) as usize];
        let hit = match set.iter().position(|&l| l == line) {
            Some(i) => {
                set.remove(i);
                true
            }
            None => {
                if set.len() == self.ways {
                    set.remove(0);
                }
                false
            }
        };
        set.push(line);
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        hit
    }

    fn contains(&self, addr: u64) -> bool {
        let line = addr / self.line_bytes;
        self.sets[(line % self.sets.len() as u64) as usize].contains(&line)
    }
}

/// The two-level hierarchy over the model: split L1s, unified L2,
/// allocate on miss at both levels.
struct OracleMem {
    l1i: OracleCache,
    l1d: OracleCache,
    l2: OracleCache,
    lat: LatencyConfig,
}

impl OracleMem {
    /// Latency of an access through `l1` then the L2; `l1_latency` on an
    /// L1 hit.
    fn through(&mut self, data: bool, addr: u64, l1_latency: u32) -> u32 {
        let l1 = if data { &mut self.l1d } else { &mut self.l1i };
        if l1.access(addr) {
            l1_latency
        } else if self.l2.access(addr) {
            self.lat.l2_hit
        } else {
            self.lat.memory
        }
    }
}

fn counts(c: &Cache) -> (u64, u64) {
    (c.hits(), c.misses())
}

fn oracle_counts(c: &OracleCache) -> (u64, u64) {
    (c.hits, c.misses)
}

/// Geometries: direct-mapped, 2-way, the paper's 4-way L1, 8-way, and
/// fully associative (one set).
fn geometries() -> Vec<CacheConfig> {
    let g = |size_bytes, line_bytes, associativity| CacheConfig {
        size_bytes,
        line_bytes,
        associativity,
    };
    vec![
        g(1024, 64, 1),
        g(2048, 32, 2),
        CacheConfig::l1_default(),
        g(4096, 16, 8),
        g(1024, 64, 16),
        g(512, 128, 4),
    ]
}

/// A seeded address stream over `span` bytes: `kind` 0 is uniform random,
/// 1 strided (several strides, some set-conflicting), 2 a mix that
/// stays on the previous line half the time, exercising the same-line
/// memo and MRU fast paths.
fn stream(seed: u64, kind: u64, len: usize, span: u64) -> Vec<u64> {
    let mut rng = DetRng::seed_from_u64(seed);
    let strides = [8, 64, 72, 1024, 4096 + 64];
    let stride = strides[rng.range_usize(strides.len())];
    let mut addr = 0u64;
    (0..len)
        .map(|i| {
            addr = match kind {
                0 => rng.range_u64(span),
                1 => (i as u64 * stride) % span,
                _ => match rng.range_u64(4) {
                    0 | 1 => (addr & !7) + rng.range_u64(8),
                    2 => (addr + stride) % span,
                    _ => rng.range_u64(span),
                },
            };
            addr
        })
        .collect()
}

#[test]
fn cache_access_matches_the_naive_lru_model() {
    for (g, cfg) in geometries().into_iter().enumerate() {
        for kind in 0..3 {
            let mut cache = Cache::new(cfg);
            let mut oracle = OracleCache::new(cfg);
            let span = cfg.size_bytes * 4;
            for (i, addr) in stream(g as u64 * 31 + kind, kind, 20_000, span)
                .into_iter()
                .enumerate()
            {
                assert_eq!(
                    cache.access(addr),
                    oracle.access(addr),
                    "{cfg:?} stream {kind} access {i} at {addr:#x}"
                );
                let probe = addr ^ (cfg.size_bytes / 2);
                assert_eq!(cache.probe(probe), oracle.contains(probe));
            }
            assert_eq!(counts(&cache), oracle_counts(&oracle), "{cfg:?}");
        }
    }
}

#[test]
fn mem_system_paths_match_the_naive_hierarchy() {
    let geos = geometries();
    for (g, &l1) in geos.iter().enumerate() {
        // The L2 is always at least as large as the L1s, with a geometry
        // of its own.
        let l2 = CacheConfig {
            size_bytes: l1.size_bytes * 8,
            ..geos[(g + 2) % geos.len()]
        };
        let config = MachineConfig {
            l1i: l1,
            l1d: l1,
            l2,
            ..MachineConfig::default()
        };
        let lat = config.lat;
        for kind in 0..3 {
            let mut mem = MemSystem::new(&config);
            let mut oracle = OracleMem {
                l1i: OracleCache::new(l1),
                l1d: OracleCache::new(l1),
                l2: OracleCache::new(l2),
                lat,
            };
            let mut pick = DetRng::seed_from_u64(0xC0DE + g as u64 * 7 + kind);
            for (i, addr) in stream(g as u64 * 17 + kind, kind, 20_000, l2.size_bytes * 2)
                .into_iter()
                .enumerate()
            {
                // Every entry point, slow and fast paths interleaved so
                // the fast paths' memo is both used and invalidated. The
                // warming paths report no latency; their hits and misses
                // are checked through the counters below.
                let (got, want) = match pick.range_u64(10) {
                    0 => (
                        Some(mem.fetch_latency(addr)),
                        oracle.through(false, addr, 0),
                    ),
                    1 => (
                        Some(mem.fetch_latency_fast(addr)),
                        oracle.through(false, addr, 0),
                    ),
                    2 => (
                        Some(mem.load_latency(addr)),
                        oracle.through(true, addr, lat.l1_hit),
                    ),
                    3 => (
                        Some(mem.load_latency_fast(addr)),
                        oracle.through(true, addr, lat.l1_hit),
                    ),
                    4 => (Some(mem.store_latency(addr)), oracle.through(true, addr, 0)),
                    5 => (
                        Some(mem.store_latency_fast(addr)),
                        oracle.through(true, addr, 0),
                    ),
                    6 => {
                        mem.warm_data(addr);
                        (None, oracle.through(true, addr, 0))
                    }
                    7 => {
                        mem.warm_data_fast(addr);
                        (None, oracle.through(true, addr, 0))
                    }
                    8 => {
                        mem.warm_fetch(addr);
                        (None, oracle.through(false, addr, 0))
                    }
                    _ => {
                        mem.warm_fetch_fast(addr);
                        (None, oracle.through(false, addr, 0))
                    }
                };
                if let Some(got) = got {
                    assert_eq!(
                        got, want,
                        "{config:?} stream {kind} access {i} at {addr:#x}"
                    );
                }
                // Hit or miss per access at every level.
                assert_eq!(
                    [counts(mem.l1i()), counts(mem.l1d()), counts(mem.l2())],
                    [
                        oracle_counts(&oracle.l1i),
                        oracle_counts(&oracle.l1d),
                        oracle_counts(&oracle.l2)
                    ],
                    "{config:?} stream {kind} access {i} at {addr:#x}"
                );
            }
        }
    }
}
