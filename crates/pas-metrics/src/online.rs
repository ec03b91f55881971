//! Single-pass streaming statistics (Welford's algorithm).
//!
//! Sweeps replicate runs over many seeds; accumulating mean and variance in
//! one numerically stable pass avoids both a second pass and catastrophic
//! cancellation on long streams.

/// Streaming mean / variance / min / max accumulator.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Build from a slice.
    pub fn from_slice(values: &[f64]) -> Self {
        let mut s = OnlineStats::new();
        for &v in values {
            s.push(v);
        }
        s
    }

    /// Add an observation.
    ///
    /// # Panics
    /// Panics on NaN — a NaN observation poisons every statistic, so it is
    /// always a bug upstream.
    pub fn push(&mut self, x: f64) {
        assert!(!x.is_nan(), "NaN observation");
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0 for an empty accumulator).
    #[inline]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (0 for fewer than 2 observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Sample variance, Bessel-corrected (0 for fewer than 2 observations).
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Population standard deviation.
    #[inline]
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Sample standard deviation.
    #[inline]
    pub fn sample_std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Smallest observation (`+∞` when empty).
    #[inline]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-∞` when empty).
    #[inline]
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Sum of observations.
    #[inline]
    pub fn sum(&self) -> f64 {
        self.mean * self.count as f64
    }

    /// Standard error of the mean (0 when empty).
    pub fn std_error(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sample_std_dev() / (self.count as f64).sqrt()
        }
    }

    /// Merge another accumulator into this one (parallel reduction), using
    /// Chan et al.'s pairwise combination.
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9 * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn empty_stats() {
        let s = OnlineStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.std_error(), 0.0);
        assert_eq!(s.sum(), 0.0);
    }

    #[test]
    fn known_values() {
        let s = OnlineStats::from_slice(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.count(), 8);
        assert!(close(s.mean(), 5.0));
        assert!(close(s.variance(), 4.0));
        assert!(close(s.std_dev(), 2.0));
        assert!(close(s.sample_variance(), 32.0 / 7.0));
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert!(close(s.sum(), 40.0));
    }

    #[test]
    fn single_observation() {
        let s = OnlineStats::from_slice(&[3.5]);
        assert_eq!(s.mean(), 3.5);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), 3.5);
        assert_eq!(s.max(), 3.5);
    }

    /// Empty and single-sample accumulators must yield finite (never
    /// NaN) statistics everywhere: downstream report maths divides by
    /// and renders these values directly.
    #[test]
    fn no_nan_statistics_at_the_edges() {
        for s in [OnlineStats::new(), OnlineStats::from_slice(&[2.25])] {
            assert!(!s.mean().is_nan());
            assert!(!s.variance().is_nan());
            assert!(!s.sample_variance().is_nan());
            assert!(!s.std_dev().is_nan());
            assert!(!s.sample_std_dev().is_nan());
            assert!(!s.std_error().is_nan());
            assert!(!s.sum().is_nan());
        }
        // Single sample: Bessel correction must not divide by zero.
        let one = OnlineStats::from_slice(&[2.25]);
        assert_eq!(one.sample_variance(), 0.0);
        assert_eq!(one.std_error(), 0.0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        OnlineStats::new().push(f64::NAN);
    }

    #[test]
    fn merge_equals_sequential() {
        let all: Vec<f64> = (0..100).map(|i| (i as f64) * 0.37 - 5.0).collect();
        let whole = OnlineStats::from_slice(&all);
        let mut left = OnlineStats::from_slice(&all[..33]);
        let right = OnlineStats::from_slice(&all[33..]);
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!(close(left.mean(), whole.mean()));
        assert!(close(left.variance(), whole.variance()));
        assert_eq!(left.min(), whole.min());
        assert_eq!(left.max(), whole.max());
    }

    #[test]
    fn merge_with_empty() {
        let mut a = OnlineStats::from_slice(&[1.0, 2.0]);
        let before = a.clone();
        a.merge(&OnlineStats::new());
        assert_eq!(a, before);

        let mut b = OnlineStats::new();
        b.merge(&before);
        assert_eq!(b, before);
    }

    #[test]
    fn numerically_stable_large_offset() {
        // Mean ~1e9 with small variance: naive sum-of-squares would lose it.
        let vals: Vec<f64> = (0..1000).map(|i| 1e9 + (i % 10) as f64).collect();
        let s = OnlineStats::from_slice(&vals);
        assert!(close(s.mean(), 1e9 + 4.5));
        assert!((s.variance() - 8.25).abs() < 1e-6, "{}", s.variance());
    }
}
