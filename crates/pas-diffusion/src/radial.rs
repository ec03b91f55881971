//! Isotropic radial front.
//!
//! The canonical PAS workload: a stimulus released at a point spreads
//! outward at the profile speed, identical in all directions. The covered
//! region at time `t` is the disk of radius `R(t)` around the source.

use crate::field::StimulusField;
use crate::profile::SpeedProfile;
use pas_geom::Vec2;
use pas_sim::SimTime;

/// An isotropic circular front expanding from a point source.
#[derive(Debug, Clone)]
pub struct RadialFront {
    source: Vec2,
    profile: SpeedProfile,
    release_time: SimTime,
}

impl RadialFront {
    /// Front released at `source` at simulation time zero.
    pub fn new(source: Vec2, profile: SpeedProfile) -> Self {
        Self::with_release_time(source, profile, SimTime::ZERO)
    }

    /// Front released at `source` at `release_time`.
    pub fn with_release_time(source: Vec2, profile: SpeedProfile, release_time: SimTime) -> Self {
        profile.validate();
        assert!(source.is_finite(), "source must be finite");
        RadialFront {
            source,
            profile,
            release_time,
        }
    }

    /// Convenience: constant-speed front (the paper's base case).
    pub fn constant(source: Vec2, speed: f64) -> Self {
        RadialFront::new(source, SpeedProfile::Constant { speed })
    }

    /// The source position.
    #[inline]
    pub fn source(&self) -> Vec2 {
        self.source
    }

    /// The speed profile.
    #[inline]
    pub fn profile(&self) -> &SpeedProfile {
        &self.profile
    }

    /// Front radius at simulation time `t` (0 before release).
    pub fn radius_at(&self, t: SimTime) -> f64 {
        let elapsed = t.since(self.release_time);
        if elapsed <= 0.0 {
            0.0
        } else {
            self.profile.radius_at(elapsed)
        }
    }

    /// The boundary circle at time `t` sampled as `n` points (diagnostics).
    pub fn boundary_at(&self, t: SimTime, n: usize) -> Vec<Vec2> {
        let r = self.radius_at(t);
        pas_geom::Circle::new(self.source, r).sample_boundary(n)
    }
}

impl StimulusField for RadialFront {
    fn first_arrival_time(&self, p: Vec2) -> Option<SimTime> {
        let dist = self.source.distance(p);
        self.profile
            .time_to_radius(dist)
            .map(|dt| self.release_time + dt)
    }

    fn nominal_speed(&self, p: Vec2) -> Option<f64> {
        // The instantaneous speed when the front crosses p.
        let dist = self.source.distance(p);
        self.profile
            .time_to_radius(dist)
            .map(|t| self.profile.speed_at(t))
    }

    fn sources(&self) -> Vec<Vec2> {
        vec![self.source]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pas_geom::float::approx_eq;

    #[test]
    fn arrival_scales_with_distance() {
        let f = RadialFront::constant(Vec2::ZERO, 2.0);
        let t = f.first_arrival_time(Vec2::new(10.0, 0.0)).unwrap();
        assert!(approx_eq(t.as_secs(), 5.0));
        let t2 = f.first_arrival_time(Vec2::new(0.0, 20.0)).unwrap();
        assert!(approx_eq(t2.as_secs(), 10.0));
        // Source itself is covered immediately.
        assert_eq!(f.first_arrival_time(Vec2::ZERO).unwrap(), SimTime::ZERO);
    }

    #[test]
    fn coverage_is_disk() {
        let f = RadialFront::constant(Vec2::new(5.0, 5.0), 1.0);
        let t = SimTime::from_secs(3.0);
        assert!(f.is_covered(Vec2::new(5.0, 5.0), t));
        assert!(f.is_covered(Vec2::new(8.0, 5.0), t)); // boundary
        assert!(!f.is_covered(Vec2::new(8.1, 5.0), t));
        assert!(f.is_covered(
            Vec2::new(5.0 + 3.0 / 2f64.sqrt(), 5.0 + 3.0 / 2f64.sqrt() - 0.01),
            t
        ));
    }

    #[test]
    fn release_time_shifts_everything() {
        let f = RadialFront::with_release_time(
            Vec2::ZERO,
            SpeedProfile::Constant { speed: 1.0 },
            SimTime::from_secs(10.0),
        );
        assert_eq!(f.radius_at(SimTime::from_secs(5.0)), 0.0);
        assert!(approx_eq(f.radius_at(SimTime::from_secs(12.0)), 2.0));
        let arr = f.first_arrival_time(Vec2::new(3.0, 0.0)).unwrap();
        assert!(approx_eq(arr.as_secs(), 13.0));
        assert!(!f.is_covered(Vec2::ZERO, SimTime::from_secs(9.9)));
        assert!(f.is_covered(Vec2::ZERO, SimTime::from_secs(10.0)));
    }

    #[test]
    fn decaying_front_never_reaches_far_points() {
        let f = RadialFront::new(
            Vec2::ZERO,
            SpeedProfile::Decaying { v0: 1.0, tau: 5.0 }, // max radius 5
        );
        assert!(f.first_arrival_time(Vec2::new(4.0, 0.0)).is_some());
        assert_eq!(f.first_arrival_time(Vec2::new(6.0, 0.0)), None);
        assert!(!f.is_covered(Vec2::new(6.0, 0.0), SimTime::from_secs(1e6)));
    }

    #[test]
    fn nominal_speed_matches_profile() {
        let f = RadialFront::constant(Vec2::ZERO, 1.5);
        assert!(approx_eq(
            f.nominal_speed(Vec2::new(7.0, 0.0)).unwrap(),
            1.5
        ));
        let dec = RadialFront::new(Vec2::ZERO, SpeedProfile::Decaying { v0: 2.0, tau: 10.0 });
        // Front slows as it travels.
        let near = dec.nominal_speed(Vec2::new(1.0, 0.0)).unwrap();
        let far = dec.nominal_speed(Vec2::new(15.0, 0.0)).unwrap();
        assert!(near > far);
    }

    #[test]
    fn boundary_points_lie_on_front() {
        let f = RadialFront::constant(Vec2::new(1.0, 2.0), 0.5);
        let t = SimTime::from_secs(8.0);
        for p in f.boundary_at(t, 32) {
            assert!(approx_eq(f.source().distance(p), 4.0));
            // Boundary is covered (inclusive).
            assert!(f.is_covered(p, t));
        }
    }

    #[test]
    fn coverage_monotone_in_time() {
        let f = RadialFront::constant(Vec2::ZERO, 1.0);
        let p = Vec2::new(4.0, 3.0); // distance 5
        assert!(!f.is_covered(p, SimTime::from_secs(4.99)));
        assert!(f.is_covered(p, SimTime::from_secs(5.0)));
        assert!(f.is_covered(p, SimTime::from_secs(500.0)));
    }
}
