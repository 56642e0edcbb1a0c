//! Shared integration-test helpers.

// Not every test binary that includes util/ uses every helper.
#![allow(dead_code)]

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use pgss_ckpt::CodecError;
use pgss_stats::DetRng;
use pgss_workloads::{Kernel, Workload, WorkloadBuilder};

/// Per-process counter so two tests in the same binary can never collide
/// on a directory name, whatever the test scheduler does.
static NEXT_TEMP_DIR: AtomicUsize = AtomicUsize::new(0);

/// A uniquely-named scratch directory under the system temp dir, removed
/// on drop (including panic unwinds, so a failing test does not leak
/// state into the next run). The name combines a caller prefix, the
/// process id, and a per-process counter, making roots unique per test
/// *and* across concurrently running test binaries.
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Claims a fresh directory root; any stale leftover of the same name
    /// (a previous hard-killed run) is removed first.
    pub fn new(prefix: &str) -> TempDir {
        let n = NEXT_TEMP_DIR.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("{prefix}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        TempDir { path }
    }

    /// The directory root (not created; stores create it on open).
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// A checkpoint [`pgss_ckpt::Store`] opened in its own [`TempDir`] — the
/// standard per-test store setup, deduplicated from the checkpoint, fault
/// and serve suites. The returned `TempDir` owns the store's directory:
/// keep it bound for as long as the store is in use.
pub fn temp_store(prefix: &str) -> (TempDir, pgss_ckpt::Store) {
    let dir = TempDir::new(prefix);
    let store = pgss_ckpt::Store::open(dir.path()).expect("open per-test checkpoint store");
    (dir, store)
}

/// `jobs` as a checkpointed campaign over `store` at a 50k-op rung
/// stride, under the default [`pgss::CampaignConfig`].
pub fn checkpointed_campaign(
    jobs: &[pgss::Job<'_>],
    store: &pgss_ckpt::Store,
) -> pgss::CampaignReport {
    let config = pgss::CampaignConfig::default();
    pgss::campaign::run_checkpointed_with(jobs, 50_000, Some(store), &config).expect("valid config")
}

/// The campaign-scope counter `ckpt.ladder.<name>` of a checkpointed
/// campaign's report (`jumps`, `skipped_ops`, `executed_ops` or
/// `capture_ops`).
pub fn ladder_counter(report: &pgss::CampaignReport, name: &str) -> u64 {
    let scope = report.metrics.scope("campaign").expect("a campaign scope");
    scope.counter(&format!("ckpt.ladder.{name}"))
}

/// A small random kernel.
fn random_kernel(rng: &mut DetRng) -> Kernel {
    match rng.range_u64(6) {
        0 => {
            let stride = 1 + rng.range_usize(3);
            Kernel::Stream {
                region_words: (1024 + rng.range_usize(8192)).max(stride * 8 + 1) * 2,
                stride_words: stride,
                compute_per_load: rng.range_u64(4) as u32,
            }
        }
        1 => Kernel::Chase {
            ring_words: 256 + rng.range_usize(4096),
            chains: 1 + rng.range_u64(3) as u32,
            compute_per_step: rng.range_u64(6) as u32,
        },
        2 => Kernel::ComputeInt {
            chains: 1 + rng.range_u64(7) as u32,
            ops_per_chain: 1 + rng.range_u64(5) as u32,
        },
        3 => Kernel::ComputeFp {
            chains: 1 + rng.range_u64(7) as u32,
            ops_per_chain: 1 + rng.range_u64(4) as u32,
        },
        4 => Kernel::Branchy {
            table_words: 64 + rng.range_usize(2048),
            bias: rng.range_u64(256) as u8,
            work_per_side: rng.range_u64(4) as u32,
        },
        _ => {
            let stride = 1 + rng.range_usize(3);
            Kernel::StoreStream {
                region_words: (1024 + rng.range_usize(8192)).max(stride * 8 + 1) * 2,
                stride_words: stride,
            }
        }
    }
}

/// A random workload: 1–3 kernels, 2–5 schedule entries of 10k–60k ops.
pub fn random_workload(rng: &mut DetRng) -> Workload {
    let mut b = WorkloadBuilder::new("random", rng.next_u64());
    let segs: Vec<_> = (0..1 + rng.range_usize(3))
        .map(|_| {
            let k = random_kernel(rng);
            b.add_segment(k)
        })
        .collect();
    for _ in 0..2 + rng.range_usize(4) {
        let seg = segs[rng.range_usize(segs.len())];
        let ops = 10_000 + rng.range_u64(50_000);
        b.run(seg, ops);
    }
    b.finish()
}

/// Fuzzes a decoder of persisted bytes around `valid`, one of its
/// encodings, which must decode. Every truncation must fail; every
/// single-bit flip and 2,000 `rng` byte soups (half of them behind a
/// valid prefix, so they get past the version check) must decode or fail
/// with a typed [`CodecError`]. A panic in `decode` fails the calling
/// test; `decode` may check more on each outcome.
pub fn fuzz_decoder(
    valid: &[u8],
    rng: &mut DetRng,
    mut decode: impl FnMut(&[u8]) -> Result<(), CodecError>,
) {
    assert_eq!(decode(valid), Ok(()), "the valid encoding must decode");
    for cut in 0..valid.len() {
        assert!(
            decode(&valid[..cut]).is_err(),
            "truncation at {cut} decoded"
        );
    }
    for bit in 0..valid.len() * 8 {
        let mut bytes = valid.to_vec();
        bytes[bit / 8] ^= 1 << (bit % 8);
        let _ = decode(&bytes);
    }
    for _ in 0..2_000 {
        let mut bytes = if rng.range_u64(2) == 0 {
            valid[..rng.range_usize(valid.len())].to_vec()
        } else {
            Vec::new()
        };
        for _ in 0..rng.range_usize(600) {
            bytes.push(rng.next_u64() as u8);
        }
        let _ = decode(&bytes);
    }
}
