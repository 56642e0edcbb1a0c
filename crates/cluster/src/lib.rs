//! K-means clustering over randomly-projected basic-block vectors — the
//! offline analysis engine behind the SimPoint baseline.
//!
//! SimPoint 3.0 reduces each interval's basic-block vector to ~15 dimensions
//! with a random linear projection, clusters the projected points with
//! k-means (multiple seeds), scores candidate `k`s with the Bayesian
//! Information Criterion, and picks the interval closest to each centroid as
//! that phase's *simulation point*. This crate implements that pipeline:
//!
//! * [`project`] — seeded random projection.
//! * [`KMeans`] — k-means++ initialisation, Lloyd iterations, restarts.
//! * [`Clustering`] — assignments, centroids, inertia,
//!   [`Clustering::representatives`] and [`Clustering::weights`],
//!   [`Clustering::bic`].
//!
//! # Example
//!
//! ```
//! use pgss_cluster::KMeans;
//!
//! // Two well-separated blobs.
//! let mut data = Vec::new();
//! for i in 0..20 {
//!     let j = f64::from(i % 5) * 0.01;
//!     data.push(vec![j, j]);
//!     data.push(vec![10.0 + j, 10.0 - j]);
//! }
//! let clustering = KMeans::new(2).with_seed(7).run(&data);
//! let a = clustering.assignments()[0];
//! let b = clustering.assignments()[1];
//! assert_ne!(a, b);
//! // All even indices share a cluster, all odd indices the other.
//! assert!(data.iter().enumerate().all(|(i, _)| {
//!     clustering.assignments()[i] == if i % 2 == 0 { a } else { b }
//! }));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use pgss_stats::DetRng;

/// Projects `data` (rows of equal dimension) to `dims` dimensions with a
/// seeded uniform-random linear map, as SimPoint does before clustering.
///
/// Returns the input unchanged (as owned rows) when it is already at or
/// below the target dimensionality.
///
/// # Panics
///
/// Panics if rows have unequal lengths or `dims == 0`.
pub fn project(data: &[Vec<f64>], dims: usize, seed: u64) -> Vec<Vec<f64>> {
    assert!(
        dims > 0,
        "projection target must have at least one dimension"
    );
    let Some(first) = data.first() else {
        return Vec::new();
    };
    let d = first.len();
    assert!(
        data.iter().all(|r| r.len() == d),
        "all rows must have equal dimension"
    );
    if d <= dims {
        return data.to_vec();
    }
    let mut rng = DetRng::seed_from_u64(seed);
    // Column-major projection matrix with entries uniform in [-1, 1).
    let matrix: Vec<f64> = (0..d * dims).map(|_| rng.range_f64(-1.0, 1.0)).collect();
    data.iter()
        .map(|row| {
            (0..dims)
                .map(|j| {
                    row.iter()
                        .zip(matrix[j * d..(j + 1) * d].iter())
                        .map(|(x, m)| x * m)
                        .sum()
                })
                .collect()
        })
        .collect()
}

/// Lloyd iterations per restart.
const MAX_ITERS: u32 = 100;

/// Independent restarts per run; the best inertia wins.
const RESTARTS: u32 = 5;

/// K-means configuration: `k` and the seed. Every run makes 5 restarts
/// of at most 100 Lloyd iterations each; the best inertia wins.
///
/// See the [crate-level example](crate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KMeans {
    k: usize,
    seed: u64,
}

impl KMeans {
    /// Creates a configuration for `k` clusters with default seed (0).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> KMeans {
        assert!(k > 0, "k must be positive");
        KMeans { k, seed: 0 }
    }

    /// Sets the RNG seed (restart `r` uses `seed + r`).
    pub fn with_seed(mut self, seed: u64) -> KMeans {
        self.seed = seed;
        self
    }

    /// Clusters `data`, returning the best result over all restarts.
    ///
    /// When `data` has fewer points than `k`, the effective `k` is reduced
    /// to the number of points.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty or rows have unequal dimensions.
    pub fn run(&self, data: &[Vec<f64>]) -> Clustering {
        assert!(!data.is_empty(), "cannot cluster an empty data set");
        let d = data[0].len();
        assert!(
            data.iter().all(|r| r.len() == d),
            "all rows must have equal dimension"
        );
        let k = self.k.min(data.len());
        let mut best: Option<Clustering> = None;
        for r in 0..RESTARTS {
            let c = self.run_once(data, k, self.seed + u64::from(r));
            if best.as_ref().is_none_or(|b| c.inertia < b.inertia) {
                best = Some(c);
            }
        }
        best.expect("at least one restart")
    }

    fn run_once(&self, data: &[Vec<f64>], k: usize, seed: u64) -> Clustering {
        let mut rng = DetRng::seed_from_u64(seed);
        let d = data[0].len();
        let mut centroids = kmeanspp_init(data, k, &mut rng);
        let mut assignments = vec![0u32; data.len()];
        let mut inertia = f64::INFINITY;
        for _ in 0..MAX_ITERS {
            // Assignment step.
            let mut new_inertia = 0.0;
            for (i, row) in data.iter().enumerate() {
                let (best_c, best_d) = nearest(row, &centroids);
                assignments[i] = best_c as u32;
                new_inertia += best_d;
            }
            // Update step.
            let mut sums = vec![vec![0.0; d]; k];
            let mut counts = vec![0usize; k];
            for (row, &a) in data.iter().zip(&assignments) {
                counts[a as usize] += 1;
                for (s, x) in sums[a as usize].iter_mut().zip(row) {
                    *s += x;
                }
            }
            for (c, (sum, &count)) in centroids.iter_mut().zip(sums.iter().zip(&counts)) {
                if count > 0 {
                    for (cc, s) in c.iter_mut().zip(sum) {
                        *cc = s / count as f64;
                    }
                }
                // Empty clusters keep their centroid; k-means++ seeding makes
                // this rare and harmless for our data sizes.
            }
            let converged = (inertia - new_inertia).abs() <= 1e-12 * inertia.max(1.0);
            inertia = new_inertia;
            if converged {
                break;
            }
        }
        // Final assignment against the final centroids so that the invariant
        // "every point is assigned to its nearest centroid" holds exactly.
        let mut final_inertia = 0.0;
        for (i, row) in data.iter().enumerate() {
            let (best_c, best_d) = nearest(row, &centroids);
            assignments[i] = best_c as u32;
            final_inertia += best_d;
        }
        Clustering {
            assignments,
            centroids,
            inertia: final_inertia,
            dim: d,
        }
    }
}

fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

fn nearest(row: &[f64], centroids: &[Vec<f64>]) -> (usize, f64) {
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for (c, centroid) in centroids.iter().enumerate() {
        let d = sq_dist(row, centroid);
        if d < best_d {
            best_d = d;
            best = c;
        }
    }
    (best, best_d)
}

/// k-means++ seeding: first centroid uniform, each further centroid drawn
/// with probability proportional to squared distance from the nearest chosen
/// centroid.
fn kmeanspp_init(data: &[Vec<f64>], k: usize, rng: &mut DetRng) -> Vec<Vec<f64>> {
    let mut centroids = Vec::with_capacity(k);
    centroids.push(data[rng.range_usize(data.len())].clone());
    let mut dists: Vec<f64> = data.iter().map(|r| sq_dist(r, &centroids[0])).collect();
    while centroids.len() < k {
        let total: f64 = dists.iter().sum();
        let next = if total <= 0.0 {
            // All points coincide with existing centroids; pick uniformly.
            data[rng.range_usize(data.len())].clone()
        } else {
            let mut target = rng.range_f64(0.0, total);
            let mut pick = data.len() - 1;
            for (i, &d) in dists.iter().enumerate() {
                if target < d {
                    pick = i;
                    break;
                }
                target -= d;
            }
            data[pick].clone()
        };
        for (dist, row) in dists.iter_mut().zip(data) {
            *dist = dist.min(sq_dist(row, &next));
        }
        centroids.push(next);
    }
    centroids
}

/// The result of a k-means run.
#[derive(Debug, Clone, PartialEq)]
pub struct Clustering {
    assignments: Vec<u32>,
    centroids: Vec<Vec<f64>>,
    inertia: f64,
    dim: usize,
}

impl Clustering {
    /// Cluster id per input row.
    pub fn assignments(&self) -> &[u32] {
        &self.assignments
    }

    /// The cluster centroids.
    pub fn centroids(&self) -> &[Vec<f64>] {
        &self.centroids
    }

    /// Number of clusters (including any that ended up empty).
    pub fn k(&self) -> usize {
        self.centroids.len()
    }

    /// Sum of squared distances from each point to its centroid.
    pub fn inertia(&self) -> f64 {
        self.inertia
    }

    /// For each cluster, the index of the input row closest to its centroid
    /// — SimPoint's *simulation point* selection. Empty clusters yield
    /// `None`.
    pub fn representatives(&self, data: &[Vec<f64>]) -> Vec<Option<usize>> {
        let mut best: Vec<Option<(usize, f64)>> = vec![None; self.k()];
        for (i, row) in data.iter().enumerate() {
            let c = self.assignments[i] as usize;
            let d = sq_dist(row, &self.centroids[c]);
            if best[c].is_none_or(|(_, bd)| d < bd) {
                best[c] = Some((i, d));
            }
        }
        best.into_iter().map(|b| b.map(|(i, _)| i)).collect()
    }

    /// Fraction of rows assigned to each cluster — SimPoint's phase weights.
    pub fn weights(&self) -> Vec<f64> {
        let mut counts = vec![0usize; self.k()];
        for &a in &self.assignments {
            counts[a as usize] += 1;
        }
        let n = self.assignments.len() as f64;
        counts.into_iter().map(|c| c as f64 / n).collect()
    }

    /// Bayesian Information Criterion score (higher is better), as SimPoint
    /// uses to choose `k`: the log-likelihood of the data under a spherical
    /// Gaussian per cluster, penalised by model size.
    pub fn bic(&self, data: &[Vec<f64>]) -> f64 {
        let n = data.len() as f64;
        let k = self.k() as f64;
        let d = self.dim as f64;
        // Pooled spherical variance estimate.
        let denom = (data.len() as f64 - k).max(1.0) * d;
        let var = (self.inertia / denom).max(1e-12);
        let mut counts = vec![0usize; self.k()];
        for &a in &self.assignments {
            counts[a as usize] += 1;
        }
        let mut ll = 0.0;
        for &c in &counts {
            if c == 0 {
                continue;
            }
            let cn = c as f64;
            ll += cn * (cn.ln() - n.ln())
                - cn * d / 2.0 * (2.0 * std::f64::consts::PI * var).ln()
                - (cn - 1.0) * d / 2.0;
        }
        let params = k * (d + 1.0);
        ll - params / 2.0 * n.ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs(centers: &[(f64, f64)], per: usize) -> Vec<Vec<f64>> {
        let mut rng = DetRng::seed_from_u64(99);
        let mut out = Vec::new();
        for &(cx, cy) in centers {
            for _ in 0..per {
                out.push(vec![
                    cx + rng.range_f64(-0.1, 0.1),
                    cy + rng.range_f64(-0.1, 0.1),
                ]);
            }
        }
        out
    }

    #[test]
    fn separates_clear_blobs() {
        let data = blobs(&[(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)], 30);
        let c = KMeans::new(3).with_seed(1).run(&data);
        // Each blob must be pure: all 30 members share one cluster id, and
        // the three ids are distinct.
        let ids: Vec<u32> = (0..3).map(|b| c.assignments()[b * 30]).collect();
        assert_eq!(
            {
                let mut s = ids.clone();
                s.sort_unstable();
                s.dedup();
                s.len()
            },
            3
        );
        for (b, &id) in ids.iter().enumerate() {
            for i in 0..30 {
                assert_eq!(c.assignments()[b * 30 + i], id);
            }
        }
    }

    #[test]
    fn assignments_are_nearest_centroid() {
        let data = blobs(&[(0.0, 0.0), (5.0, 5.0)], 25);
        let c = KMeans::new(2).with_seed(3).run(&data);
        for (i, row) in data.iter().enumerate() {
            let (nearest_c, _) = nearest(row, c.centroids());
            assert_eq!(c.assignments()[i] as usize, nearest_c);
        }
    }

    #[test]
    fn k_capped_at_data_len() {
        let data = vec![vec![0.0], vec![1.0]];
        let c = KMeans::new(10).run(&data);
        assert_eq!(c.k(), 2);
    }

    #[test]
    fn identical_points_have_zero_inertia() {
        let data = vec![vec![2.0, 2.0]; 8];
        let c = KMeans::new(3).run(&data);
        assert!(c.inertia() < 1e-20);
    }

    #[test]
    fn representatives_are_members_and_near_centroids() {
        let data = blobs(&[(0.0, 0.0), (8.0, 8.0)], 20);
        let c = KMeans::new(2).with_seed(5).run(&data);
        let reps = c.representatives(&data);
        for (cluster, rep) in reps.iter().enumerate() {
            let rep = rep.expect("non-empty cluster");
            assert_eq!(c.assignments()[rep] as usize, cluster);
            // The representative is at least as close as any other member.
            let rd = sq_dist(&data[rep], &c.centroids()[cluster]);
            for (i, row) in data.iter().enumerate() {
                if c.assignments()[i] as usize == cluster {
                    assert!(sq_dist(row, &c.centroids()[cluster]) >= rd - 1e-12);
                }
            }
        }
    }

    #[test]
    fn weights_sum_to_one() {
        let data = blobs(&[(0.0, 0.0), (9.0, 9.0)], 17);
        let c = KMeans::new(2).run(&data);
        let w: f64 = c.weights().iter().sum();
        assert!((w - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bic_prefers_true_k() {
        let data = blobs(&[(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)], 40);
        let scores: Vec<f64> = (1..=6)
            .map(|k| KMeans::new(k).with_seed(2).run(&data).bic(&data))
            .collect();
        let best_k = 1 + scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(best_k, 3, "BIC scores: {scores:?}");
    }

    #[test]
    fn projection_preserves_low_dim_data() {
        let data = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        assert_eq!(project(&data, 5, 0), data);
    }

    #[test]
    fn projection_reduces_dim_and_separates_far_points() {
        let a = vec![0.0; 100];
        let mut b = vec![0.0; 100];
        for x in b.iter_mut() {
            *x = 50.0;
        }
        let p = project(&[a, b], 15, 42);
        assert_eq!(p[0].len(), 15);
        assert_eq!(p[1].len(), 15);
        assert!(
            sq_dist(&p[0], &p[1]) > 1.0,
            "projection collapsed distinct points"
        );
    }

    #[test]
    fn projection_is_deterministic_per_seed() {
        let data = vec![vec![1.0; 50], vec![2.0; 50]];
        assert_eq!(project(&data, 10, 7), project(&data, 10, 7));
        assert_ne!(project(&data, 10, 7), project(&data, 10, 8));
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_data_panics() {
        let _ = KMeans::new(2).run(&[]);
    }
}
