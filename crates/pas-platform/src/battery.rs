//! Battery model and lifetime projection.
//!
//! The paper's motivation (§1): "The lifetime of a sensor node is much
//! dependent on its power consumption." This module turns measured joules
//! into the headline number a deployment cares about — months of life on a
//! pair of AA cells.

/// Seconds per day.
pub const SECS_PER_DAY: f64 = 86_400.0;

/// An ideal battery: fixed energy budget, no self-discharge curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Battery {
    capacity_j: f64,
    drained_j: f64,
}

impl Battery {
    /// A battery with the given capacity in joules.
    ///
    /// # Panics
    /// Panics on non-positive capacity.
    pub fn new(capacity_j: f64) -> Self {
        assert!(
            capacity_j > 0.0 && capacity_j.is_finite(),
            "capacity must be > 0"
        );
        Battery {
            capacity_j,
            drained_j: 0.0,
        }
    }

    /// Two alkaline AA cells: ~2850 mAh at a nominal 3.0 V ≈ 30.8 kJ —
    /// the Telos reference supply.
    pub fn two_aa() -> Self {
        Battery::new(2.850 * 3.0 * 3600.0) // Ah × V × s/h
    }

    /// Total capacity in joules.
    #[inline]
    pub fn capacity_j(&self) -> f64 {
        self.capacity_j
    }

    /// Energy drained so far, in joules (saturates at capacity).
    #[inline]
    pub fn drained_j(&self) -> f64 {
        self.drained_j
    }

    /// Remaining energy in joules.
    #[inline]
    pub fn remaining_j(&self) -> f64 {
        (self.capacity_j - self.drained_j).max(0.0)
    }

    /// Remaining fraction in `[0, 1]`.
    #[inline]
    pub fn remaining_fraction(&self) -> f64 {
        self.remaining_j() / self.capacity_j
    }

    /// `true` once the battery is exhausted.
    #[inline]
    pub fn is_dead(&self) -> bool {
        self.remaining_j() <= 0.0
    }

    /// Drain `joules`; returns `true` if the battery survived the drain.
    pub fn drain(&mut self, joules: f64) -> bool {
        assert!(joules >= 0.0, "cannot drain negative energy");
        self.drained_j = (self.drained_j + joules).min(self.capacity_j);
        !self.is_dead()
    }

    /// Projected lifetime in days at a sustained average power draw.
    ///
    /// # Panics
    /// Panics on non-positive power.
    pub fn lifetime_days(&self, avg_power_w: f64) -> f64 {
        assert!(avg_power_w > 0.0, "average power must be > 0");
        self.remaining_j() / avg_power_w / SECS_PER_DAY
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_aa_capacity() {
        let b = Battery::two_aa();
        // 2850 mAh × 3 V = 8.55 Wh = 30.78 kJ.
        assert!((b.capacity_j() - 30_780.0).abs() < 1.0);
        assert_eq!(b.remaining_fraction(), 1.0);
        assert!(!b.is_dead());
    }

    #[test]
    fn drain_accumulates_and_saturates() {
        let mut b = Battery::new(100.0);
        assert!(b.drain(40.0));
        assert_eq!(b.remaining_j(), 60.0);
        assert!(b.drain(40.0));
        assert!(!b.drain(40.0), "third drain exhausts");
        assert!(b.is_dead());
        assert_eq!(b.drained_j(), 100.0, "drain saturates at capacity");
        assert_eq!(b.remaining_fraction(), 0.0);
    }

    #[test]
    fn lifetime_projection() {
        let b = Battery::two_aa();
        // Always-on Telos at 41 mW: ~8.7 days.
        let always_on = b.lifetime_days(0.041);
        assert!((always_on - 8.69).abs() < 0.1, "{always_on}");
        // 1% duty cycle at ~0.425 mW: years.
        let duty = b.lifetime_days(0.041 * 0.01 + 15e-6 * 0.99);
        assert!(duty > 800.0, "{duty}");
    }

    #[test]
    #[should_panic(expected = "> 0")]
    fn zero_capacity_rejected() {
        let _ = Battery::new(0.0);
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn negative_drain_rejected() {
        Battery::new(1.0).drain(-0.1);
    }
}
