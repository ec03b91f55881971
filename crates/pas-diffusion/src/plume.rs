//! Gaussian advection–diffusion plume.
//!
//! The paper's motivating stimulus is "a liquid pollutant". The classical
//! analytic model for an instantaneous point release of mass `M` diffusing
//! with coefficient `D` while advected by a uniform current `u` is the
//! 2-D Gaussian puff:
//!
//! ```text
//! C(p, t) = M / (4 π D t) · exp( −|p − src − u·t|² / (4 D t) )
//! ```
//!
//! A point is *covered* while `C ≥ c_th`. Unlike the front models, coverage
//! here is **not monotone**: the puff passes over a sensor and moves on,
//! exercising the paper's covered → (detection timeout) → safe transition.
//!
//! First arrival is found numerically: coarse forward scan for a bracket,
//! then bisection — `C(p, ·)` along a fixed `p` rises to a single maximum
//! and decays, so the first crossing is well defined.

use crate::field::StimulusField;
use pas_geom::Vec2;
use pas_sim::SimTime;

/// An instantaneous Gaussian release advected by a uniform current.
#[derive(Debug, Clone)]
pub struct GaussianPlume {
    source: Vec2,
    /// Released mass (arbitrary concentration·m² units).
    mass: f64,
    /// Diffusion coefficient, m²/s.
    diffusivity: f64,
    /// Advection velocity, m/s.
    current: Vec2,
    /// Detection threshold concentration.
    threshold: f64,
    /// Time horizon for the numeric arrival search, seconds.
    search_horizon: f64,
    release_time: SimTime,
}

impl GaussianPlume {
    /// Construct a plume released at time zero.
    ///
    /// # Panics
    /// Panics on non-positive `mass`, `diffusivity` or `threshold`, or a
    /// non-finite `current`.
    pub fn new(source: Vec2, mass: f64, diffusivity: f64, current: Vec2, threshold: f64) -> Self {
        assert!(source.is_finite(), "source must be finite");
        assert!(mass > 0.0 && mass.is_finite(), "mass must be > 0");
        assert!(
            diffusivity > 0.0 && diffusivity.is_finite(),
            "diffusivity must be > 0"
        );
        assert!(current.is_finite(), "current must be finite");
        assert!(
            threshold > 0.0 && threshold.is_finite(),
            "threshold must be > 0"
        );
        // The puff peak concentration at time t is M/(4πDt); once that falls
        // below threshold nothing is covered anywhere, bounding the search.
        let t_extinct = mass / (4.0 * core::f64::consts::PI * diffusivity * threshold);
        GaussianPlume {
            source,
            mass,
            diffusivity,
            current,
            threshold,
            search_horizon: t_extinct,
            release_time: SimTime::ZERO,
        }
    }

    /// Set the release time (builder style).
    pub fn with_release_time(mut self, t: SimTime) -> Self {
        self.release_time = t;
        self
    }

    /// Concentration at point `p` and simulation time `t`.
    pub fn concentration(&self, p: Vec2, t: SimTime) -> f64 {
        let dt = t.since(self.release_time);
        if dt <= 0.0 {
            return 0.0;
        }
        let denom = 4.0 * core::f64::consts::PI * self.diffusivity * dt;
        let center = self.source + self.current * dt;
        let r_sq = p.distance_sq(center);
        (self.mass / denom) * (-r_sq / (4.0 * self.diffusivity * dt)).exp()
    }

    /// Time after which the plume is everywhere below threshold.
    #[inline]
    pub fn extinction_time(&self) -> SimTime {
        self.release_time + self.search_horizon
    }

    /// Concentration along elapsed time at a fixed point (internal helper).
    fn conc_at_elapsed(&self, p: Vec2, dt: f64) -> f64 {
        if dt <= 0.0 {
            return 0.0;
        }
        let denom = 4.0 * core::f64::consts::PI * self.diffusivity * dt;
        let center = self.source + self.current * dt;
        let r_sq = p.distance_sq(center);
        (self.mass / denom) * (-r_sq / (4.0 * self.diffusivity * dt)).exp()
    }
}

impl StimulusField for GaussianPlume {
    fn first_arrival_time(&self, p: Vec2) -> Option<SimTime> {
        let above = |dt: f64| self.conc_at_elapsed(p, dt) >= self.threshold;
        // Coarse scan for the first bracket where coverage begins.
        const STEPS: usize = 512;
        let h = self.search_horizon / STEPS as f64;
        let mut lo = 0.0;
        let mut hit = None;
        for i in 1..=STEPS {
            let t = i as f64 * h;
            if above(t) {
                hit = Some((lo, t));
                break;
            }
            lo = t;
        }
        let (mut a, mut b) = hit?;
        // Bisect the rising edge to ~microsecond precision.
        for _ in 0..60 {
            let mid = 0.5 * (a + b);
            if above(mid) {
                b = mid;
            } else {
                a = mid;
            }
            if b - a < 1e-9 {
                break;
            }
        }
        Some(self.release_time + b)
    }

    fn is_covered(&self, p: Vec2, t: SimTime) -> bool {
        self.concentration(p, t) >= self.threshold
    }

    fn nominal_speed(&self, p: Vec2) -> Option<f64> {
        // Effective front speed at first arrival: distance travelled by the
        // puff centre plus diffusive spread, differentiated numerically.
        let arrival = self.first_arrival_time(p)?;
        let dt = arrival.since(self.release_time);
        if dt <= 0.0 {
            return None;
        }
        // Numerical derivative of the covered-radius around the centre.
        let eps = (dt * 1e-3).max(1e-6);
        let radius = |t: f64| -> f64 {
            // Covered radius about the moving centre at elapsed t:
            // C = th  ⇒  r² = 4 D t ln(M / (4πD t th)).
            let denom = 4.0 * core::f64::consts::PI * self.diffusivity * t;
            let arg: f64 = self.mass / (denom * self.threshold);
            if arg <= 1.0 {
                0.0
            } else {
                (4.0 * self.diffusivity * t * arg.ln()).sqrt()
            }
        };
        let dr = (radius(dt + eps) - radius((dt - eps).max(1e-12))) / (2.0 * eps);
        Some((dr + self.current.norm()).max(0.0))
    }

    fn sources(&self) -> Vec<Vec2> {
        vec![self.source]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn still_plume() -> GaussianPlume {
        // M=1000, D=1 m²/s, no current, threshold 1.
        GaussianPlume::new(Vec2::ZERO, 1000.0, 1.0, Vec2::ZERO, 1.0)
    }

    #[test]
    fn concentration_decays_radially() {
        let p = still_plume();
        let t = SimTime::from_secs(1.0);
        let c0 = p.concentration(Vec2::ZERO, t);
        let c1 = p.concentration(Vec2::new(1.0, 0.0), t);
        let c2 = p.concentration(Vec2::new(2.0, 0.0), t);
        assert!(c0 > c1 && c1 > c2);
    }

    #[test]
    fn concentration_zero_before_release() {
        let p = still_plume().with_release_time(SimTime::from_secs(5.0));
        assert_eq!(p.concentration(Vec2::ZERO, SimTime::from_secs(4.0)), 0.0);
        assert!(p.concentration(Vec2::ZERO, SimTime::from_secs(6.0)) > 0.0);
    }

    #[test]
    fn arrival_increases_with_distance() {
        let p = still_plume();
        let near = p.first_arrival_time(Vec2::new(2.0, 0.0)).unwrap();
        let far = p.first_arrival_time(Vec2::new(6.0, 0.0)).unwrap();
        assert!(near < far, "near {near} far {far}");
    }

    #[test]
    fn arrival_is_first_crossing() {
        let p = still_plume();
        let q = Vec2::new(4.0, 0.0);
        let arrival = p.first_arrival_time(q).unwrap();
        // Just before: below threshold. Just after: above.
        let before = arrival.as_secs() - 1e-3;
        let after = arrival.as_secs() + 1e-3;
        assert!(p.concentration(q, SimTime::from_secs(before)) < p.threshold);
        assert!(p.concentration(q, SimTime::from_secs(after)) >= p.threshold * 0.999);
    }

    #[test]
    fn coverage_recedes() {
        let p = still_plume();
        let q = Vec2::new(3.0, 0.0);
        let arrival = p.first_arrival_time(q).unwrap();
        assert!(p.is_covered(q, arrival + 0.1));
        // Long after extinction the point is uncovered again.
        assert!(!p.is_covered(q, p.extinction_time() + 1.0));
    }

    #[test]
    fn far_points_never_covered() {
        let p = still_plume();
        // Peak total coverage radius is bounded; 1 km away is never covered.
        assert_eq!(p.first_arrival_time(Vec2::new(1000.0, 0.0)), None);
    }

    #[test]
    fn current_advects_downstream() {
        let drift = GaussianPlume::new(Vec2::ZERO, 1000.0, 0.5, Vec2::new(1.0, 0.0), 1.0);
        let down = drift.first_arrival_time(Vec2::new(8.0, 0.0));
        let up = drift.first_arrival_time(Vec2::new(-8.0, 0.0));
        assert!(down.is_some(), "downstream point must be covered");
        match up {
            None => {} // upstream never covered: fine
            Some(t_up) => assert!(down.unwrap() < t_up, "downstream must be first"),
        }
    }

    #[test]
    fn extinction_bounds_all_coverage() {
        let p = still_plume();
        let t = p.extinction_time() + 1e-6;
        for x in [0.0, 1.0, 3.0, 5.0, 10.0] {
            assert!(!p.is_covered(Vec2::new(x, 0.0), t));
        }
    }

    #[test]
    fn nominal_speed_positive_early() {
        let p = still_plume();
        let v = p.nominal_speed(Vec2::new(2.0, 0.0)).unwrap();
        assert!(v > 0.0, "expanding phase has positive front speed, got {v}");
    }

    #[test]
    #[should_panic(expected = "must be > 0")]
    fn rejects_bad_mass() {
        let _ = GaussianPlume::new(Vec2::ZERO, 0.0, 1.0, Vec2::ZERO, 1.0);
    }
}
