//! Order statistics for the benchmark's reports.

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle two for an even count); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Cells that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The highest quantile of one campaign's `n` cells that has
/// [`TAIL_BEYOND`] or more cells beyond it, `(n - 10) / n`; 1 (the
/// maximum) when no quantile qualifies.
pub fn tail_level(n: usize) -> f64 {
    if n <= TAIL_BEYOND {
        1.0
    } else {
        (n - TAIL_BEYOND) as f64 / n as f64
    }
}

/// The nearest-rank `q` quantile: the `ceil(q * n)`-th smallest value; 0
/// when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}
