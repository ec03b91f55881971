//! Anisotropic (direction-dependent) front.
//!
//! The paper's Fig. 2 stresses that "the ALERT area is an irregular shape
//! rather than a circle because the spreading rate of the stimulus may vary
//! in different directions". This model captures the common physical cause:
//! wind/current advection skews the front, making it faster downwind.
//!
//! The covered set at time `t` is `{ p : |p − src| ≤ g(θ_p) · R(t) }` where
//! `g(θ) ≥ g_min > 0` is a directional gain and `R(t)` the radial profile.
//! Because `g` is time-independent, first arrival at `p` is simply
//! `R⁻¹(|p − src| / g(θ_p))` — the model stays exactly invertible.

use crate::field::StimulusField;
use crate::profile::SpeedProfile;
use pas_geom::Vec2;
use pas_sim::SimTime;

/// Directional gain functions for [`AnisotropicFront`].
#[derive(Debug, Clone, PartialEq)]
pub enum DirectionalGain {
    /// Cosine skew: `g(θ) = 1 + k·cos(θ − θ₀)`; `|k| < 1` keeps `g > 0`.
    /// Models steady wind toward `θ₀` with strength `k`.
    CosineSkew {
        /// Downwind direction in radians.
        theta0: f64,
        /// Skew strength in `(-1, 1)`.
        k: f64,
    },
    /// Elliptical gain with semi-axis ratio `ratio ≥ 1` along `theta0`.
    Elliptical {
        /// Major-axis direction in radians.
        theta0: f64,
        /// Major/minor ratio (≥ 1).
        ratio: f64,
    },
}

impl DirectionalGain {
    /// Validate parameters.
    ///
    /// # Panics
    /// Panics on out-of-domain parameters.
    pub fn validate(&self) {
        match self {
            DirectionalGain::CosineSkew { k, theta0 } => {
                assert!(theta0.is_finite(), "theta0 must be finite");
                assert!(k.is_finite() && k.abs() < 1.0, "|k| must be < 1");
            }
            DirectionalGain::Elliptical { ratio, theta0 } => {
                assert!(theta0.is_finite(), "theta0 must be finite");
                assert!(ratio.is_finite() && *ratio >= 1.0, "ratio must be >= 1");
            }
        }
    }

    /// Gain in direction `theta` (always > 0 for validated parameters).
    pub fn gain(&self, theta: f64) -> f64 {
        match self {
            DirectionalGain::CosineSkew { theta0, k } => 1.0 + k * (theta - theta0).cos(),
            DirectionalGain::Elliptical { theta0, ratio } => {
                // Radius of an ellipse with semi-axes (ratio, 1) at angle
                // (theta - theta0) from the major axis.
                let a = *ratio;
                let (s, c) = (theta - theta0).sin_cos();
                a / (s * s * a * a + c * c).sqrt()
            }
        }
    }
}

/// A front whose reach scales directionally: `reach(θ, t) = g(θ) · R(t)`.
#[derive(Debug, Clone)]
pub struct AnisotropicFront {
    source: Vec2,
    profile: SpeedProfile,
    gain: DirectionalGain,
    release_time: SimTime,
}

impl AnisotropicFront {
    /// Construct a skewed front released at time zero.
    pub fn new(source: Vec2, profile: SpeedProfile, gain: DirectionalGain) -> Self {
        Self::with_release_time(source, profile, gain, SimTime::ZERO)
    }

    /// Construct with an explicit release time.
    pub fn with_release_time(
        source: Vec2,
        profile: SpeedProfile,
        gain: DirectionalGain,
        release_time: SimTime,
    ) -> Self {
        profile.validate();
        gain.validate();
        assert!(source.is_finite(), "source must be finite");
        AnisotropicFront {
            source,
            profile,
            gain,
            release_time,
        }
    }

    /// The source position.
    #[inline]
    pub fn source(&self) -> Vec2 {
        self.source
    }

    /// Directional reach at time `t` toward `theta`.
    pub fn reach_at(&self, theta: f64, t: SimTime) -> f64 {
        let elapsed = t.since(self.release_time);
        if elapsed <= 0.0 {
            0.0
        } else {
            self.gain.gain(theta) * self.profile.radius_at(elapsed)
        }
    }

    /// Sample the boundary at time `t` as `n` points (diagnostics).
    pub fn boundary_at(&self, t: SimTime, n: usize) -> Vec<Vec2> {
        (0..n)
            .map(|i| {
                let theta = core::f64::consts::TAU * (i as f64) / (n as f64);
                self.source + Vec2::from_polar(self.reach_at(theta, t), theta)
            })
            .collect()
    }
}

impl StimulusField for AnisotropicFront {
    fn first_arrival_time(&self, p: Vec2) -> Option<SimTime> {
        let d = p - self.source;
        let dist = d.norm();
        if dist == 0.0 {
            return Some(self.release_time);
        }
        let g = self.gain.gain(d.angle());
        self.profile
            .time_to_radius(dist / g)
            .map(|dt| self.release_time + dt)
    }

    fn nominal_speed(&self, p: Vec2) -> Option<f64> {
        let d = p - self.source;
        let g = self.gain.gain(d.angle());
        let dist = d.norm();
        self.profile
            .time_to_radius(dist / g)
            .map(|t| g * self.profile.speed_at(t))
    }

    fn sources(&self) -> Vec<Vec2> {
        vec![self.source]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pas_geom::float::approx_eq;
    use std::f64::consts::PI;

    fn windy_front(k: f64) -> AnisotropicFront {
        AnisotropicFront::new(
            Vec2::ZERO,
            SpeedProfile::Constant { speed: 1.0 },
            DirectionalGain::CosineSkew { theta0: 0.0, k },
        )
    }

    #[test]
    fn downwind_faster_than_upwind() {
        let f = windy_front(0.5);
        let down = f.first_arrival_time(Vec2::new(10.0, 0.0)).unwrap();
        let up = f.first_arrival_time(Vec2::new(-10.0, 0.0)).unwrap();
        let side = f.first_arrival_time(Vec2::new(0.0, 10.0)).unwrap();
        // Gains: downwind 1.5, upwind 0.5, crosswind 1.0.
        assert!(approx_eq(down.as_secs(), 10.0 / 1.5));
        assert!(approx_eq(up.as_secs(), 10.0 / 0.5));
        assert!(approx_eq(side.as_secs(), 10.0));
        assert!(down < side && side < up);
    }

    #[test]
    fn zero_skew_is_isotropic() {
        let f = windy_front(0.0);
        let a = f.first_arrival_time(Vec2::new(5.0, 0.0)).unwrap();
        let b = f.first_arrival_time(Vec2::new(0.0, -5.0)).unwrap();
        let c = f.first_arrival_time(Vec2::new(-3.0, 4.0)).unwrap();
        assert!(approx_eq(a.as_secs(), 5.0));
        assert!(approx_eq(b.as_secs(), 5.0));
        assert!(approx_eq(c.as_secs(), 5.0));
    }

    #[test]
    fn elliptical_gain_axes() {
        let g = DirectionalGain::Elliptical {
            theta0: 0.0,
            ratio: 2.0,
        };
        g.validate();
        assert!(approx_eq(g.gain(0.0), 2.0)); // major axis
        assert!(approx_eq(g.gain(PI), 2.0)); // symmetric
        assert!(approx_eq(g.gain(PI / 2.0), 1.0)); // minor axis
    }

    #[test]
    fn coverage_boundary_consistency() {
        let f = windy_front(0.3);
        let t = SimTime::from_secs(7.0);
        for p in f.boundary_at(t, 64) {
            // Boundary points are at arrival == t up to rounding.
            let arr = f.first_arrival_time(p).unwrap();
            assert!(approx_eq(arr.as_secs(), 7.0), "arrival {arr} at {p}");
            assert!(f.is_covered(p, t + 1e-9));
            // Slightly beyond the boundary is uncovered.
            let out = f.source() + (p - f.source()) * 1.01;
            assert!(!f.is_covered(out, t));
        }
    }

    #[test]
    fn source_covered_at_release() {
        let f = AnisotropicFront::with_release_time(
            Vec2::new(3.0, 3.0),
            SpeedProfile::Constant { speed: 1.0 },
            DirectionalGain::CosineSkew {
                theta0: 1.0,
                k: 0.4,
            },
            SimTime::from_secs(2.0),
        );
        assert_eq!(
            f.first_arrival_time(Vec2::new(3.0, 3.0)).unwrap(),
            SimTime::from_secs(2.0)
        );
        assert!(!f.is_covered(Vec2::new(3.0, 3.0), SimTime::from_secs(1.9)));
    }

    #[test]
    fn nominal_speed_directional() {
        let f = windy_front(0.5);
        let down = f.nominal_speed(Vec2::new(10.0, 0.0)).unwrap();
        let up = f.nominal_speed(Vec2::new(-10.0, 0.0)).unwrap();
        assert!(approx_eq(down, 1.5));
        assert!(approx_eq(up, 0.5));
    }

    #[test]
    #[should_panic(expected = "< 1")]
    fn rejects_full_skew() {
        DirectionalGain::CosineSkew {
            theta0: 0.0,
            k: 1.0,
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = ">= 1")]
    fn rejects_sub_unit_ratio() {
        DirectionalGain::Elliptical {
            theta0: 0.0,
            ratio: 0.5,
        }
        .validate();
    }
}
