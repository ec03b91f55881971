//! Fixed-width-bin histogram with percentile queries.
//!
//! Averages hide tails; the delay *distribution* matters for an alarm
//! system. The histogram is deliberately simple — fixed-width bins over a
//! declared range plus saturating under/overflow bins — so percentile
//! queries are deterministic and allocation-free after construction.

/// A histogram over `[lo, hi)` with `bins` equal-width buckets plus
/// underflow and overflow buckets.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
    total: u64,
}

impl Histogram {
    /// Create with the given range and bin count.
    ///
    /// # Panics
    /// Panics if `lo >= hi`, bounds are non-finite, or `bins == 0`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(lo.is_finite() && hi.is_finite(), "bounds must be finite");
        assert!(lo < hi, "lo must be < hi");
        assert!(bins > 0, "need at least one bin");
        Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            underflow: 0,
            overflow: 0,
            total: 0,
        }
    }

    /// Number of interior bins.
    #[inline]
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Bin width.
    #[inline]
    pub fn bin_width(&self) -> f64 {
        (self.hi - self.lo) / self.counts.len() as f64
    }

    /// Total observations (including under/overflow).
    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Underflow count (`x < lo`).
    #[inline]
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Overflow count (`x >= hi`).
    #[inline]
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Count in interior bin `i`.
    #[inline]
    pub fn count(&self, i: usize) -> u64 {
        self.counts[i]
    }

    /// The `[low, high)` range of interior bin `i`.
    pub fn bin_range(&self, i: usize) -> (f64, f64) {
        let w = self.bin_width();
        (self.lo + i as f64 * w, self.lo + (i + 1) as f64 * w)
    }

    /// Record an observation.
    ///
    /// # Panics
    /// Panics on NaN.
    pub fn record(&mut self, x: f64) {
        assert!(!x.is_nan(), "NaN observation");
        self.total += 1;
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let i = ((x - self.lo) / self.bin_width()) as usize;
            // Rounding can land exactly on bins(); clamp.
            let i = i.min(self.counts.len() - 1);
            self.counts[i] += 1;
        }
    }

    /// Approximate `q`-quantile (`q` in `[0, 1]`) by linear interpolation
    /// within the containing bin. Returns `None` when empty.
    ///
    /// Underflow mass is attributed to `lo`, overflow to `hi`. Bin-edge
    /// targets interpolate exactly to the edge: `q == 0` lands on the
    /// low edge of the first occupied bin (not the histogram's `lo`
    /// unless underflow mass exists), and a `target` falling on the
    /// boundary between two occupied bins yields the shared edge.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.total == 0 {
            return None;
        }
        let target = q * self.total as f64;
        // `lo` only represents actual underflow mass; with none, fall
        // through so q = 0 finds the first occupied bin's low edge.
        if self.underflow > 0 && target <= self.underflow as f64 {
            return Some(self.lo);
        }
        let mut cum = self.underflow as f64;
        for (i, &c) in self.counts.iter().enumerate() {
            let next = cum + c as f64;
            if target <= next && c > 0 {
                let (b_lo, b_hi) = self.bin_range(i);
                let frac = (target - cum) / c as f64;
                return Some(b_lo + frac * (b_hi - b_lo));
            }
            cum = next;
        }
        Some(self.hi)
    }

    /// Median (50th percentile).
    #[inline]
    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// Merge another histogram with identical geometry.
    ///
    /// # Panics
    /// Panics if ranges or bin counts differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert!(
            self.lo == other.lo && self.hi == other.hi && self.bins() == other.bins(),
            "histogram geometry mismatch"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        self.total += other.total;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_and_ranges() {
        let h = Histogram::new(0.0, 10.0, 5);
        assert_eq!(h.bins(), 5);
        assert_eq!(h.bin_width(), 2.0);
        assert_eq!(h.bin_range(0), (0.0, 2.0));
        assert_eq!(h.bin_range(4), (8.0, 10.0));
    }

    #[test]
    fn recording_routes_to_bins() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        h.record(0.0);
        h.record(1.9);
        h.record(2.0);
        h.record(9.99);
        h.record(-1.0); // underflow
        h.record(10.0); // overflow (hi-exclusive)
        assert_eq!(h.count(0), 2);
        assert_eq!(h.count(1), 1);
        assert_eq!(h.count(4), 1);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.total(), 6);
    }

    #[test]
    fn quantiles_uniform() {
        let mut h = Histogram::new(0.0, 100.0, 100);
        for i in 0..100 {
            h.record(i as f64 + 0.5);
        }
        let med = h.median().unwrap();
        assert!((med - 50.0).abs() < 1.5, "median {med}");
        let p90 = h.quantile(0.9).unwrap();
        assert!((p90 - 90.0).abs() < 1.5, "p90 {p90}");
        let p0 = h.quantile(0.0).unwrap();
        assert!(p0 <= 1.0);
    }

    #[test]
    fn quantile_empty_is_none() {
        let h = Histogram::new(0.0, 1.0, 4);
        assert_eq!(h.median(), None);
        assert_eq!(h.quantile(0.0), None);
        assert_eq!(h.quantile(1.0), None);
    }

    /// Bin-edge interpolation: a target landing exactly on the boundary
    /// between two occupied bins must yield the shared edge, and q = 0 /
    /// q = 1 must land on the edges of the occupied mass.
    #[test]
    fn quantile_interpolates_exactly_at_bin_edges() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        for _ in 0..4 {
            h.record(3.0); // bin 1: [2, 4)
        }
        for _ in 0..4 {
            h.record(5.0); // bin 2: [4, 6)
        }
        // q = 0.5 → target = 4 = cumulative count at the 4.0 boundary.
        assert_eq!(h.quantile(0.5), Some(4.0));
        // q = 0 with no underflow: low edge of the first occupied bin,
        // not the histogram's lo.
        assert_eq!(h.quantile(0.0), Some(2.0));
        // q = 1: high edge of the last occupied bin.
        assert_eq!(h.quantile(1.0), Some(6.0));
    }

    #[test]
    fn quantile_zero_with_underflow_is_lo() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        h.record(-1.0);
        h.record(5.0);
        assert_eq!(h.quantile(0.0), Some(0.0), "underflow mass sits at lo");
    }

    #[test]
    fn single_sample_histogram() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        h.record(7.0);
        assert_eq!(h.total(), 1);
        // All quantiles interpolate within the one occupied bin [6, 8).
        let med = h.median().unwrap();
        assert!((6.0..=8.0).contains(&med), "median {med}");
        assert_eq!(h.quantile(0.0), Some(6.0));
        assert_eq!(h.quantile(1.0), Some(8.0));
    }

    #[test]
    fn quantile_with_overflow_mass() {
        let mut h = Histogram::new(0.0, 1.0, 2);
        for _ in 0..10 {
            h.record(5.0);
        }
        // All mass above hi: every quantile is hi.
        assert_eq!(h.quantile(0.99).unwrap(), 1.0);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = Histogram::new(0.0, 10.0, 5);
        let mut b = Histogram::new(0.0, 10.0, 5);
        a.record(1.0);
        b.record(1.5);
        b.record(9.0);
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert_eq!(a.count(0), 2);
        assert_eq!(a.count(4), 1);
    }

    #[test]
    #[should_panic(expected = "geometry")]
    fn merge_rejects_mismatch() {
        let mut a = Histogram::new(0.0, 10.0, 5);
        let b = Histogram::new(0.0, 10.0, 6);
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        Histogram::new(0.0, 1.0, 2).record(f64::NAN);
    }
}
