//! Order statistics over raw samples (no histograms, no bucketing).

/// A sorted copy of `xs`.
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Linear-interpolated quantile `q` in `[0, 1]` of sorted samples; 0 when
/// empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Median of unsorted samples.
pub fn median(xs: &[f64]) -> f64 {
    quantile(&sorted(xs), 0.5)
}

/// The quartile on the better side of unsorted samples: the first when
/// lower is better, the third when higher is better.
pub fn better_quartile(xs: &[f64], lower_is_better: bool) -> f64 {
    quantile(&sorted(xs), if lower_is_better { 0.25 } else { 0.75 })
}

/// Median, first and third quartile, and sample count of unsorted samples.
#[derive(Clone, Copy, Debug, Default)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

pub fn summary(xs: &[f64]) -> Summary {
    let s = sorted(xs);
    Summary {
        median: quantile(&s, 0.5),
        q1: quantile(&s, 0.25),
        q3: quantile(&s, 0.75),
        n: s.len(),
    }
}

/// The highest of the usual reporting percentiles that still leaves at
/// least ten samples above it, with its value; `None` below 20 samples.
pub fn highest_resolved_percentile(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len() as f64;
    [99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|p| n * (100.0 - p) / 100.0 >= 10.0)
        .map(|p| (p, quantile(sorted, p / 100.0)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = sorted(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!(quantile(&s, 0.5), 3.0);
        assert_eq!(quantile(&s, 0.25), 2.0);
        assert_eq!(quantile(&s, 0.125), 1.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn better_quartile_takes_the_better_side() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(better_quartile(&xs, true), 2.0);
        assert_eq!(better_quartile(&xs, false), 4.0);
    }

    #[test]
    fn resolved_percentile_needs_ten_beyond() {
        let s: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(highest_resolved_percentile(&s).unwrap().0, 99.0);
        let s: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(highest_resolved_percentile(&s).unwrap().0, 90.0);
        assert!(highest_resolved_percentile(&s[..15]).is_none());
    }
}
