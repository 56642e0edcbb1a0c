//! Fixed-range histograms (Fig. 3's IPC distribution).

/// A fixed-range, equal-width histogram over `f64` observations.
///
/// Out-of-range observations are clamped into the first/last bin so the
/// total count always equals the number of observations (IPC traces have
/// occasional startup outliers that should not vanish).
///
/// # Example
///
/// ```
/// use pgss_stats::Histogram;
///
/// let mut h = Histogram::new(0.0, 2.0, 4);
/// for x in [0.1, 0.6, 0.7, 1.9, 5.0] {
///     h.add(x);
/// }
/// assert_eq!(h.counts(), &[1, 2, 0, 2]); // 5.0 clamps into the last bin
/// assert_eq!(h.total(), 5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    min: f64,
    max: f64,
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Creates an empty histogram covering `[min, max)` with `bins` bins.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0`, if `min >= max`, or if either bound is not
    /// finite.
    pub fn new(min: f64, max: f64, bins: usize) -> Histogram {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(min.is_finite() && max.is_finite(), "bounds must be finite");
        assert!(min < max, "min must be below max");
        Histogram {
            min,
            max,
            counts: vec![0; bins],
            total: 0,
        }
    }

    /// Adds one observation (optionally weighted via [`Histogram::add_weighted`]).
    pub fn add(&mut self, x: f64) {
        self.add_weighted(x, 1);
    }

    /// Adds an observation with integer weight `w` (e.g. cycles spent at
    /// this IPC, as in the paper's Fig. 3 right panel).
    pub fn add_weighted(&mut self, x: f64, w: u64) {
        let bins = self.counts.len();
        let span = self.max - self.min;
        let raw = ((x - self.min) / span * bins as f64).floor();
        let idx = if raw.is_nan() {
            0
        } else {
            (raw as i64).clamp(0, bins as i64 - 1) as usize
        };
        self.counts[idx] += w;
        self.total += w;
    }

    /// Per-bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Lower bound of the covered range.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Upper bound of the covered range.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Folds another histogram over the *same range and bin count* into
    /// this one by adding bin counts. Because binning is a pure function
    /// of the value and the (shared) range, merge is exact: any
    /// partition of an observation stream into sub-histograms merges back
    /// to the histogram of the whole stream. The per-worker metrics merge
    /// in `pgss-obs` relies on exactly this property.
    ///
    /// # Panics
    ///
    /// Panics if the ranges or bin counts differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert!(
            self.min == other.min
                && self.max == other.max
                && self.counts.len() == other.counts.len(),
            "cannot merge histograms with different shapes: [{}, {})×{} vs [{}, {})×{}",
            self.min,
            self.max,
            self.counts.len(),
            other.min,
            other.max,
            other.counts.len()
        );
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
    }

    /// Total weight added.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The `(low, high)` value range of bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn bin_range(&self, i: usize) -> (f64, f64) {
        assert!(i < self.counts.len());
        let w = (self.max - self.min) / self.counts.len() as f64;
        (self.min + w * i as f64, self.min + w * (i + 1) as f64)
    }

    /// Fraction of total weight in bin `i`; `0.0` when empty.
    pub fn fraction(&self, i: usize) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.counts[i] as f64 / self.total as f64
        }
    }

    /// Number of local maxima ("modes") in the smoothed bin profile —
    /// a crude polymodality detector used to verify that phase-structured
    /// workloads produce non-Gaussian IPC distributions (Fig. 3).
    ///
    /// A bin is a mode if its count exceeds both neighbours and is at least
    /// `min_fraction` of the total weight.
    pub fn modes(&self, min_fraction: f64) -> usize {
        let c = &self.counts;
        let mut modes = 0;
        for i in 0..c.len() {
            let left = if i == 0 { 0 } else { c[i - 1] };
            let right = if i + 1 == c.len() { 0 } else { c[i + 1] };
            if c[i] > left && c[i] >= right && self.fraction(i) >= min_fraction {
                modes += 1;
            }
        }
        modes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binning_is_exact_on_edges() {
        let mut h = Histogram::new(0.0, 1.0, 10);
        h.add(0.0);
        h.add(0.0999);
        h.add(0.1);
        h.add(0.999);
        assert_eq!(h.counts()[0], 2);
        assert_eq!(h.counts()[1], 1);
        assert_eq!(h.counts()[9], 1);
    }

    #[test]
    fn out_of_range_clamps() {
        let mut h = Histogram::new(0.0, 1.0, 2);
        h.add(-5.0);
        h.add(5.0);
        h.add(f64::NAN);
        assert_eq!(h.counts(), &[2, 1]);
        assert_eq!(h.total(), 3);
    }

    #[test]
    fn weighted_adds() {
        let mut h = Histogram::new(0.0, 4.0, 4);
        h.add_weighted(0.5, 10);
        h.add_weighted(3.5, 30);
        assert_eq!(h.total(), 40);
        assert!((h.fraction(3) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn bin_ranges_tile_span() {
        let h = Histogram::new(-1.0, 1.0, 4);
        assert_eq!(h.bin_range(0), (-1.0, -0.5));
        assert_eq!(h.bin_range(3), (0.5, 1.0));
    }

    #[test]
    fn bimodal_distribution_has_two_modes() {
        let mut h = Histogram::new(0.0, 1.0, 20);
        for _ in 0..100 {
            h.add(0.25);
            h.add(0.75);
        }
        h.add(0.5); // noise floor between the modes
        assert_eq!(h.modes(0.05), 2);
    }

    #[test]
    fn unimodal_distribution_has_one_mode() {
        let mut h = Histogram::new(0.0, 1.0, 20);
        for i in 0..1000 {
            // Roughly triangular around 0.5.
            let x = 0.5 + 0.2 * (((i * 37) % 100) as f64 / 100.0 - 0.5);
            h.add(x);
        }
        assert_eq!(h.modes(0.05), 1);
    }

    #[test]
    fn merge_adds_bins_and_total() {
        let mut a = Histogram::new(0.0, 1.0, 4);
        a.add(0.1);
        a.add_weighted(0.9, 3);
        let mut b = Histogram::new(0.0, 1.0, 4);
        b.add(0.1);
        b.add(0.6);
        a.merge(&b);
        assert_eq!(a.counts(), &[2, 0, 1, 3]);
        assert_eq!(a.total(), 6);
    }

    #[test]
    #[should_panic(expected = "different shapes")]
    fn merge_shape_mismatch_panics() {
        let mut a = Histogram::new(0.0, 1.0, 4);
        a.merge(&Histogram::new(0.0, 1.0, 8));
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn zero_bins_panics() {
        let _ = Histogram::new(0.0, 1.0, 0);
    }

    #[test]
    #[should_panic(expected = "below max")]
    fn inverted_range_panics() {
        let _ = Histogram::new(1.0, 0.0, 4);
    }
}
