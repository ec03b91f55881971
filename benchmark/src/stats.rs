//! Order statistics used by every metric.

/// Median of `v` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(v: &[f64]) -> Option<f64> {
    let s = sorted(v);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// Nearest-rank percentile `p` (0 < p ≤ 1) of `v`; `None` when empty.
pub fn percentile(v: &[f64], p: f64) -> Option<f64> {
    let s = sorted(v);
    if s.is_empty() {
        return None;
    }
    let rank = ((p * s.len() as f64).ceil() as usize).clamp(1, s.len());
    Some(s[rank - 1])
}

/// Samples needed strictly beyond a tail percentile before it is
/// reported; with fewer, the percentile is an extrapolation.
pub const MIN_BEYOND: usize = 10;

/// Percentile `p` of `v`, reported only when at least [`MIN_BEYOND`]
/// samples lie strictly above it; otherwise omitted, never estimated.
pub fn tail_percentile(v: &[f64], p: f64) -> Option<f64> {
    let q = percentile(v, p)?;
    let beyond = v.iter().filter(|&&x| x > q).count();
    (beyond >= MIN_BEYOND).then_some(q)
}

/// Arithmetic mean; `None` when empty.
pub fn mean(v: &[f64]) -> Option<f64> {
    (!v.is_empty()).then(|| v.iter().sum::<f64>() / v.len() as f64)
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.9), Some(90.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        // 100 distinct samples: p90 is the 90th, ten lie above it.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.9), Some(90.0));
        // 99 samples: p90 is the 90th, only nine lie above it.
        assert_eq!(tail_percentile(&v[..99], 0.9), None);
        // Ties at the percentile do not count as beyond it.
        let mut tied = vec![5.0; 95];
        tied.extend((0..5).map(|i| 10.0 + f64::from(i)));
        assert_eq!(tail_percentile(&tied, 0.9), None);
        // Plenty of samples but a small tail: p99 of 500 has five beyond.
        let w: Vec<f64> = (1..=500).map(f64::from).collect();
        assert_eq!(tail_percentile(&w, 0.99), None);
        assert_eq!(tail_percentile(&w, 0.98), Some(490.0));
    }
}
