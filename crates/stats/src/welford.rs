//! Streaming mean and variance.

/// Numerically-stable streaming mean/variance accumulator (Welford's
/// algorithm).
///
/// # Example
///
/// ```
/// use pgss_stats::Welford;
///
/// let mut w = Welford::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     w.push(x);
/// }
/// assert_eq!(w.count(), 8);
/// assert!((w.mean() - 5.0).abs() < 1e-12);
/// assert!((w.population_stddev() - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Welford {
        Welford::default()
    }

    /// Adds one observation.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Mean of the observations; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (`÷ n`); `0.0` with fewer than one observation.
    pub fn population_variance(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Sample variance (`÷ (n − 1)`); `0.0` with fewer than two
    /// observations.
    pub fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Population standard deviation.
    pub fn population_stddev(&self) -> f64 {
        self.population_variance().sqrt()
    }

    /// Sample standard deviation.
    pub fn sample_stddev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Coefficient of variation (sample stddev over mean); `0.0` when the
    /// mean is zero.
    pub fn coefficient_of_variation(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.sample_stddev() / self.mean.abs()
        }
    }

    /// Merges another accumulator into this one (parallel Welford / Chan's
    /// method). The result is as if every observation of `other` had been
    /// pushed into `self`.
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = (self.n + other.n) as f64;
        let delta = other.mean - self.mean;
        self.mean += delta * other.n as f64 / n;
        self.m2 += other.m2 + delta * delta * (self.n as f64 * other.n as f64) / n;
        self.n += other.n;
    }
}

impl Extend<f64> for Welford {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for Welford {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Welford {
        let mut w = Welford::new();
        w.extend(iter);
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_zeroed() {
        let w = Welford::new();
        assert_eq!(w.count(), 0);
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.population_variance(), 0.0);
        assert_eq!(w.sample_variance(), 0.0);
        assert_eq!(w.coefficient_of_variation(), 0.0);
    }

    #[test]
    fn single_observation() {
        let w: Welford = [3.5].into_iter().collect();
        assert_eq!(w.mean(), 3.5);
        assert_eq!(w.population_variance(), 0.0);
        assert_eq!(w.sample_variance(), 0.0);
    }

    #[test]
    fn matches_batch_formulas() {
        let xs = [1.0, 2.5, -3.0, 7.25, 0.0, 4.0];
        let w: Welford = xs.iter().copied().collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var_p = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        let var_s = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
        assert!((w.mean() - mean).abs() < 1e-12);
        assert!((w.population_variance() - var_p).abs() < 1e-12);
        assert!((w.sample_variance() - var_s).abs() < 1e-12);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs = [1.0, 2.0, 3.0, 10.0, -4.0];
        let ys = [7.0, 7.0, 0.5];
        let mut a: Welford = xs.iter().copied().collect();
        let b: Welford = ys.iter().copied().collect();
        a.merge(&b);
        let all: Welford = xs.iter().chain(ys.iter()).copied().collect();
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-12);
        assert!((a.m2 - all.m2).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a: Welford = [1.0, 2.0].into_iter().collect();
        let before = a;
        a.merge(&Welford::new());
        assert_eq!(a, before);
        let mut e = Welford::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn cv_is_scale_free() {
        let a: Welford = [1.0, 2.0, 3.0].into_iter().collect();
        let b: Welford = [10.0, 20.0, 30.0].into_iter().collect();
        assert!((a.coefficient_of_variation() - b.coefficient_of_variation()).abs() < 1e-12);
    }
}
