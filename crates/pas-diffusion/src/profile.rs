//! Radial speed profiles: how fast the front expands over time.
//!
//! A [`SpeedProfile`] defines the front radius `R(t)` as the integral of a
//! time-varying speed `v(t) ≥ 0`. `R` is therefore non-decreasing, which
//! lets us invert it (first time the radius reaches a distance) in closed
//! form for the analytic profiles and by bisection for piecewise ones.

/// A non-negative radial speed schedule `v(t)` with radius `R(t) = ∫₀ᵗ v`.
#[derive(Debug, Clone, PartialEq)]
pub enum SpeedProfile {
    /// Constant speed `v` m/s: `R(t) = v t`.
    Constant {
        /// Speed in m/s (must be > 0).
        speed: f64,
    },
    /// Linearly changing speed `v(t) = v0 + a t`, clamped at 0 if it decays
    /// through zero: the front stops, it never retreats.
    LinearRamp {
        /// Initial speed (m/s, ≥ 0).
        v0: f64,
        /// Acceleration (m/s²; may be negative).
        accel: f64,
    },
    /// Exponentially decaying speed `v(t) = v0 · e^(−t/τ)`:
    /// `R(t) = v0 τ (1 − e^(−t/τ))`, asymptote `v0 τ`.
    Decaying {
        /// Initial speed (m/s, > 0).
        v0: f64,
        /// Decay time constant (s, > 0).
        tau: f64,
    },
    /// Piecewise-constant speed: a list of `(duration_secs, speed)` phases,
    /// the last phase extends forever.
    Piecewise {
        /// `(duration in seconds, speed in m/s)`; must be non-empty.
        phases: Vec<(f64, f64)>,
    },
}

impl SpeedProfile {
    /// Validate invariants; called by the front constructors.
    ///
    /// # Panics
    /// Panics on non-finite or out-of-domain parameters.
    pub fn validate(&self) {
        match self {
            SpeedProfile::Constant { speed } => {
                assert!(speed.is_finite() && *speed > 0.0, "speed must be > 0");
            }
            SpeedProfile::LinearRamp { v0, accel } => {
                assert!(v0.is_finite() && *v0 >= 0.0, "v0 must be >= 0");
                assert!(accel.is_finite(), "accel must be finite");
                assert!(
                    *v0 > 0.0 || *accel > 0.0,
                    "ramp must eventually move (v0 > 0 or accel > 0)"
                );
            }
            SpeedProfile::Decaying { v0, tau } => {
                assert!(v0.is_finite() && *v0 > 0.0, "v0 must be > 0");
                assert!(tau.is_finite() && *tau > 0.0, "tau must be > 0");
            }
            SpeedProfile::Piecewise { phases } => {
                assert!(!phases.is_empty(), "piecewise profile needs phases");
                for &(d, v) in phases {
                    assert!(d.is_finite() && d > 0.0, "phase duration must be > 0");
                    assert!(v.is_finite() && v >= 0.0, "phase speed must be >= 0");
                }
                assert!(
                    phases.iter().any(|&(_, v)| v > 0.0),
                    "at least one phase must move"
                );
            }
        }
    }

    /// Instantaneous speed `v(t)` in m/s (`t ≥ 0`).
    pub fn speed_at(&self, t: f64) -> f64 {
        debug_assert!(t >= 0.0);
        match self {
            SpeedProfile::Constant { speed } => *speed,
            SpeedProfile::LinearRamp { v0, accel } => (v0 + accel * t).max(0.0),
            SpeedProfile::Decaying { v0, tau } => v0 * (-t / tau).exp(),
            SpeedProfile::Piecewise { phases } => {
                let mut elapsed = 0.0;
                for &(d, v) in phases {
                    elapsed += d;
                    if t < elapsed {
                        return v;
                    }
                }
                phases.last().map(|&(_, v)| v).unwrap_or(0.0)
            }
        }
    }

    /// Front radius `R(t) = ∫₀ᵗ v(s) ds` in metres.
    pub fn radius_at(&self, t: f64) -> f64 {
        debug_assert!(t >= 0.0);
        match self {
            SpeedProfile::Constant { speed } => speed * t,
            SpeedProfile::LinearRamp { v0, accel } => {
                if *accel >= 0.0 {
                    v0 * t + 0.5 * accel * t * t
                } else {
                    // Speed hits zero at t_stop = v0 / |a|; radius freezes.
                    let t_stop = v0 / (-accel);
                    let tt = t.min(t_stop);
                    v0 * tt + 0.5 * accel * tt * tt
                }
            }
            SpeedProfile::Decaying { v0, tau } => v0 * tau * (1.0 - (-t / tau).exp()),
            SpeedProfile::Piecewise { phases } => {
                let mut r = 0.0;
                let mut remaining = t;
                for &(d, v) in phases {
                    if remaining <= d {
                        return r + v * remaining;
                    }
                    r += v * d;
                    remaining -= d;
                }
                // Last phase extends forever.
                let last_v = phases.last().map(|&(_, v)| v).unwrap_or(0.0);
                r + last_v * remaining
            }
        }
    }

    /// First time the radius reaches `dist` metres, or `None` if it never
    /// does (decaying profiles have a finite asymptote).
    pub fn time_to_radius(&self, dist: f64) -> Option<f64> {
        assert!(dist.is_finite() && dist >= 0.0, "distance must be >= 0");
        if dist == 0.0 {
            return Some(0.0);
        }
        match self {
            SpeedProfile::Constant { speed } => Some(dist / speed),
            SpeedProfile::LinearRamp { v0, accel } => {
                if *accel == 0.0 {
                    return Some(dist / v0);
                }
                if *accel < 0.0 {
                    // Max radius when speed hits 0.
                    let t_stop = v0 / (-accel);
                    let r_max = self.radius_at(t_stop);
                    if dist > r_max {
                        return None;
                    }
                }
                // Solve a/2 t² + v0 t − dist = 0, take the positive root.
                let a = 0.5 * accel;
                let disc = v0 * v0 + 4.0 * a * dist;
                if disc < 0.0 {
                    return None;
                }
                let sq = disc.sqrt();
                // Numerically stable quadratic root selection.
                let t = if *accel > 0.0 {
                    (-v0 + sq) / (2.0 * a)
                } else {
                    // a < 0: smaller root is the first crossing.
                    (2.0 * dist) / (v0 + sq)
                };
                (t.is_finite() && t >= 0.0).then_some(t)
            }
            SpeedProfile::Decaying { v0, tau } => {
                let asymptote = v0 * tau;
                if dist >= asymptote {
                    return None;
                }
                // dist = v0 τ (1 − e^(−t/τ))  ⇒  t = −τ ln(1 − dist/(v0 τ))
                Some(-tau * (1.0 - dist / asymptote).ln())
            }
            SpeedProfile::Piecewise { phases } => {
                let mut r = 0.0;
                let mut t = 0.0;
                for &(d, v) in phases {
                    let gain = v * d;
                    if r + gain >= dist {
                        if v == 0.0 {
                            // Cannot happen: r + 0 >= dist with r < dist.
                            return None;
                        }
                        return Some(t + (dist - r) / v);
                    }
                    r += gain;
                    t += d;
                }
                let last_v = phases.last().map(|&(_, v)| v).unwrap_or(0.0);
                if last_v > 0.0 {
                    Some(t + (dist - r) / last_v)
                } else {
                    None
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pas_geom::float::approx_eq;

    #[test]
    fn constant_profile() {
        let p = SpeedProfile::Constant { speed: 2.0 };
        p.validate();
        assert_eq!(p.speed_at(10.0), 2.0);
        assert_eq!(p.radius_at(3.0), 6.0);
        assert_eq!(p.time_to_radius(6.0), Some(3.0));
        assert_eq!(p.time_to_radius(0.0), Some(0.0));
    }

    #[test]
    fn linear_ramp_accelerating() {
        let p = SpeedProfile::LinearRamp {
            v0: 1.0,
            accel: 2.0,
        };
        p.validate();
        assert_eq!(p.speed_at(2.0), 5.0);
        assert!(approx_eq(p.radius_at(2.0), 1.0 * 2.0 + 1.0 * 4.0)); // v0 t + a t²/2
        let t = p.time_to_radius(6.0).unwrap();
        assert!(approx_eq(p.radius_at(t), 6.0));
    }

    #[test]
    fn linear_ramp_decelerating_stops() {
        let p = SpeedProfile::LinearRamp {
            v0: 2.0,
            accel: -1.0,
        };
        p.validate();
        // Stops at t=2 with radius 2*2 - 0.5*4 = 2.
        assert!(approx_eq(p.radius_at(2.0), 2.0));
        assert!(approx_eq(p.radius_at(100.0), 2.0), "front must freeze");
        assert_eq!(p.speed_at(3.0), 0.0);
        let t = p.time_to_radius(1.0).unwrap();
        assert!(approx_eq(p.radius_at(t), 1.0));
        assert_eq!(p.time_to_radius(2.5), None, "beyond max radius");
    }

    #[test]
    fn decaying_profile_asymptote() {
        let p = SpeedProfile::Decaying { v0: 1.0, tau: 10.0 };
        p.validate();
        // Asymptote = v0 τ = 10.
        assert!(p.radius_at(1e9) < 10.0 + 1e-9);
        assert_eq!(p.time_to_radius(10.0), None);
        assert_eq!(p.time_to_radius(15.0), None);
        let t = p.time_to_radius(5.0).unwrap();
        assert!(approx_eq(p.radius_at(t), 5.0));
        // Speed halves every τ ln 2.
        assert!(approx_eq(p.speed_at(10.0 * core::f64::consts::LN_2), 0.5));
    }

    #[test]
    fn piecewise_profile() {
        let p = SpeedProfile::Piecewise {
            phases: vec![(2.0, 1.0), (3.0, 0.0), (1.0, 4.0)],
        };
        p.validate();
        assert_eq!(p.speed_at(1.0), 1.0);
        assert_eq!(p.speed_at(3.0), 0.0);
        assert_eq!(p.speed_at(5.5), 4.0);
        assert_eq!(p.speed_at(100.0), 4.0); // last phase extends
        assert!(approx_eq(p.radius_at(2.0), 2.0));
        assert!(approx_eq(p.radius_at(5.0), 2.0)); // stalled phase
        assert!(approx_eq(p.radius_at(6.0), 6.0));
        assert!(approx_eq(p.radius_at(7.0), 10.0));
        // Inversion skips the stalled phase.
        assert!(approx_eq(p.time_to_radius(2.0).unwrap(), 2.0));
        assert!(approx_eq(p.time_to_radius(3.0).unwrap(), 5.25));
    }

    #[test]
    fn piecewise_never_reaches_when_final_phase_stalls() {
        let p = SpeedProfile::Piecewise {
            phases: vec![(1.0, 2.0), (1.0, 0.0)],
        };
        p.validate();
        assert_eq!(p.time_to_radius(5.0), None);
        assert!(approx_eq(p.time_to_radius(1.0).unwrap(), 0.5));
    }

    #[test]
    fn radius_monotone_nondecreasing() {
        let profiles = vec![
            SpeedProfile::Constant { speed: 1.5 },
            SpeedProfile::LinearRamp {
                v0: 0.5,
                accel: 0.2,
            },
            SpeedProfile::LinearRamp {
                v0: 3.0,
                accel: -0.5,
            },
            SpeedProfile::Decaying { v0: 2.0, tau: 5.0 },
            SpeedProfile::Piecewise {
                phases: vec![(1.0, 1.0), (2.0, 0.5), (1.0, 3.0)],
            },
        ];
        for p in profiles {
            let mut last = 0.0;
            for i in 0..200 {
                let r = p.radius_at(i as f64 * 0.25);
                assert!(r >= last - 1e-12, "radius decreased for {p:?}");
                last = r;
            }
        }
    }

    #[test]
    fn inversion_roundtrip() {
        let profiles = vec![
            SpeedProfile::Constant { speed: 0.7 },
            SpeedProfile::LinearRamp {
                v0: 0.0,
                accel: 1.0,
            },
            SpeedProfile::Decaying { v0: 2.0, tau: 4.0 },
            SpeedProfile::Piecewise {
                phases: vec![(2.0, 0.5), (2.0, 2.0)],
            },
        ];
        for p in profiles {
            for dist in [0.1, 0.5, 1.0, 2.5, 4.0] {
                if let Some(t) = p.time_to_radius(dist) {
                    assert!(
                        approx_eq(p.radius_at(t), dist),
                        "roundtrip failed for {p:?} at {dist}: t={t}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "speed must be > 0")]
    fn validate_rejects_zero_constant() {
        SpeedProfile::Constant { speed: 0.0 }.validate();
    }

    #[test]
    #[should_panic(expected = "phases")]
    fn validate_rejects_empty_piecewise() {
        SpeedProfile::Piecewise { phases: vec![] }.validate();
    }
}
