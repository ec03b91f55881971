//! Plain-old-data 2-D vector.
//!
//! [`Vec2`] doubles as a point (position in metres) and a free vector
//! (velocity in m/s, displacement). The PAS estimator manipulates both, so a
//! single type keeps the arithmetic frictionless.

use core::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A 2-D vector / point with `f64` components.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec2 {
    /// X component (metres or m/s depending on context).
    pub x: f64,
    /// Y component.
    pub y: f64,
}

impl Vec2 {
    /// The zero vector.
    pub const ZERO: Vec2 = Vec2 { x: 0.0, y: 0.0 };
    /// Unit vector along +X.
    pub const UNIT_X: Vec2 = Vec2 { x: 1.0, y: 0.0 };
    /// Unit vector along +Y.
    pub const UNIT_Y: Vec2 = Vec2 { x: 0.0, y: 1.0 };

    /// Construct from components.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Vec2 { x, y }
    }

    /// Both components set to `v`.
    #[inline]
    pub const fn splat(v: f64) -> Self {
        Vec2 { x: v, y: v }
    }

    /// Unit vector at `angle` radians from +X (counter-clockwise).
    #[inline]
    pub fn from_angle(angle: f64) -> Self {
        Vec2::new(angle.cos(), angle.sin())
    }

    /// Polar construction: length `r` at `angle` radians.
    #[inline]
    pub fn from_polar(r: f64, angle: f64) -> Self {
        Vec2::from_angle(angle) * r
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, other: Vec2) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// 2-D cross product (z-component of the 3-D cross product).
    ///
    /// Positive when `other` is counter-clockwise from `self`.
    #[inline]
    pub fn cross(self, other: Vec2) -> f64 {
        self.x * other.y - self.y * other.x
    }

    /// Euclidean length.
    #[inline]
    pub fn norm(self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Squared length (avoids the sqrt when comparing distances).
    #[inline]
    pub fn norm_sq(self) -> f64 {
        self.dot(self)
    }

    /// Distance to another point.
    #[inline]
    pub fn distance(self, other: Vec2) -> f64 {
        (other - self).norm()
    }

    /// Squared distance to another point.
    #[inline]
    pub fn distance_sq(self, other: Vec2) -> f64 {
        (other - self).norm_sq()
    }

    /// Unit vector in the same direction, or `None` for the zero vector.
    #[inline]
    pub fn try_normalize(self) -> Option<Vec2> {
        let n = self.norm();
        if n > 0.0 {
            Some(self / n)
        } else {
            None
        }
    }

    /// Unit vector in the same direction; the zero vector maps to zero.
    ///
    /// Use [`Vec2::try_normalize`] when the zero case must be distinguished.
    #[inline]
    pub fn normalize_or_zero(self) -> Vec2 {
        self.try_normalize().unwrap_or(Vec2::ZERO)
    }

    /// Angle from +X in radians, in `(-π, π]`.
    #[inline]
    pub fn angle(self) -> f64 {
        self.y.atan2(self.x)
    }

    /// Rotate counter-clockwise by `angle` radians.
    #[inline]
    pub fn rotate(self, angle: f64) -> Vec2 {
        let (s, c) = angle.sin_cos();
        Vec2::new(c * self.x - s * self.y, s * self.x + c * self.y)
    }

    /// Perpendicular vector (90° counter-clockwise rotation).
    #[inline]
    pub fn perp(self) -> Vec2 {
        Vec2::new(-self.y, self.x)
    }

    /// Component-wise linear interpolation toward `other`.
    #[inline]
    pub fn lerp(self, other: Vec2, t: f64) -> Vec2 {
        self + (other - self) * t
    }

    /// Projection of `self` onto `onto` (zero if `onto` is zero).
    #[inline]
    pub fn project_onto(self, onto: Vec2) -> Vec2 {
        let d = onto.norm_sq();
        if d == 0.0 {
            Vec2::ZERO
        } else {
            onto * (self.dot(onto) / d)
        }
    }

    /// `true` if either component is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        self.x.is_nan() || self.y.is_nan()
    }

    /// `true` if both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }

    /// Component-wise minimum.
    #[inline]
    pub fn min(self, other: Vec2) -> Vec2 {
        Vec2::new(self.x.min(other.x), self.y.min(other.y))
    }

    /// Component-wise maximum.
    #[inline]
    pub fn max(self, other: Vec2) -> Vec2 {
        Vec2::new(self.x.max(other.x), self.y.max(other.y))
    }
}

impl Add for Vec2 {
    type Output = Vec2;
    #[inline]
    fn add(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl AddAssign for Vec2 {
    #[inline]
    fn add_assign(&mut self, rhs: Vec2) {
        *self = *self + rhs;
    }
}

impl Sub for Vec2 {
    type Output = Vec2;
    #[inline]
    fn sub(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl SubAssign for Vec2 {
    #[inline]
    fn sub_assign(&mut self, rhs: Vec2) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for Vec2 {
    type Output = Vec2;
    #[inline]
    fn mul(self, rhs: f64) -> Vec2 {
        Vec2::new(self.x * rhs, self.y * rhs)
    }
}

impl Mul<Vec2> for f64 {
    type Output = Vec2;
    #[inline]
    fn mul(self, rhs: Vec2) -> Vec2 {
        rhs * self
    }
}

impl MulAssign<f64> for Vec2 {
    #[inline]
    fn mul_assign(&mut self, rhs: f64) {
        *self = *self * rhs;
    }
}

impl Div<f64> for Vec2 {
    type Output = Vec2;
    #[inline]
    fn div(self, rhs: f64) -> Vec2 {
        Vec2::new(self.x / rhs, self.y / rhs)
    }
}

impl DivAssign<f64> for Vec2 {
    #[inline]
    fn div_assign(&mut self, rhs: f64) {
        *self = *self / rhs;
    }
}

impl Neg for Vec2 {
    type Output = Vec2;
    #[inline]
    fn neg(self) -> Vec2 {
        Vec2::new(-self.x, -self.y)
    }
}

impl core::fmt::Display for Vec2 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "({:.3}, {:.3})", self.x, self.y)
    }
}

impl From<(f64, f64)> for Vec2 {
    #[inline]
    fn from((x, y): (f64, f64)) -> Self {
        Vec2::new(x, y)
    }
}

impl From<Vec2> for (f64, f64) {
    #[inline]
    fn from(v: Vec2) -> Self {
        (v.x, v.y)
    }
}

/// Sum of an iterator of vectors (the zero vector for an empty iterator).
impl core::iter::Sum for Vec2 {
    fn sum<I: Iterator<Item = Vec2>>(iter: I) -> Vec2 {
        iter.fold(Vec2::ZERO, |acc, v| acc + v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::float::approx_eq;
    use core::f64::consts::{FRAC_PI_2, PI};

    #[test]
    fn arithmetic() {
        let a = Vec2::new(1.0, 2.0);
        let b = Vec2::new(3.0, -1.0);
        assert_eq!(a + b, Vec2::new(4.0, 1.0));
        assert_eq!(a - b, Vec2::new(-2.0, 3.0));
        assert_eq!(a * 2.0, Vec2::new(2.0, 4.0));
        assert_eq!(2.0 * a, Vec2::new(2.0, 4.0));
        assert_eq!(a / 2.0, Vec2::new(0.5, 1.0));
        assert_eq!(-a, Vec2::new(-1.0, -2.0));
    }

    #[test]
    fn assign_ops() {
        let mut v = Vec2::new(1.0, 1.0);
        v += Vec2::new(1.0, 2.0);
        v -= Vec2::new(0.5, 0.5);
        v *= 2.0;
        v /= 4.0;
        assert_eq!(v, Vec2::new(0.75, 1.25));
    }

    #[test]
    fn dot_cross() {
        let a = Vec2::UNIT_X;
        let b = Vec2::UNIT_Y;
        assert_eq!(a.dot(b), 0.0);
        assert_eq!(a.cross(b), 1.0);
        assert_eq!(b.cross(a), -1.0);
    }

    #[test]
    fn norms_and_distance() {
        let v = Vec2::new(3.0, 4.0);
        assert_eq!(v.norm(), 5.0);
        assert_eq!(v.norm_sq(), 25.0);
        assert_eq!(Vec2::ZERO.distance(v), 5.0);
        assert_eq!(Vec2::ZERO.distance_sq(v), 25.0);
    }

    #[test]
    fn normalize() {
        let v = Vec2::new(0.0, 10.0);
        assert_eq!(v.try_normalize().unwrap(), Vec2::UNIT_Y);
        assert_eq!(Vec2::ZERO.try_normalize(), None);
        assert_eq!(Vec2::ZERO.normalize_or_zero(), Vec2::ZERO);
    }

    #[test]
    fn angles_and_rotation() {
        assert!(approx_eq(Vec2::UNIT_Y.angle(), FRAC_PI_2));
        assert!(approx_eq(Vec2::new(-1.0, 0.0).angle(), PI));
        let r = Vec2::UNIT_X.rotate(FRAC_PI_2);
        assert!(approx_eq(r.x, 0.0) && approx_eq(r.y, 1.0));
        assert_eq!(Vec2::UNIT_X.perp(), Vec2::UNIT_Y);
    }

    #[test]
    fn from_polar_roundtrip() {
        let v = Vec2::from_polar(2.0, 0.7);
        assert!(approx_eq(v.norm(), 2.0));
        assert!(approx_eq(v.angle(), 0.7));
    }

    #[test]
    fn lerp_endpoints() {
        let a = Vec2::new(0.0, 0.0);
        let b = Vec2::new(10.0, -10.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Vec2::new(5.0, -5.0));
    }

    #[test]
    fn projection() {
        let v = Vec2::new(2.0, 2.0);
        let p = v.project_onto(Vec2::UNIT_X * 10.0);
        assert_eq!(p, Vec2::new(2.0, 0.0));
        assert_eq!(v.project_onto(Vec2::ZERO), Vec2::ZERO);
    }

    #[test]
    fn component_min_max_sum() {
        let a = Vec2::new(1.0, 5.0);
        let b = Vec2::new(3.0, 2.0);
        assert_eq!(a.min(b), Vec2::new(1.0, 2.0));
        assert_eq!(a.max(b), Vec2::new(3.0, 5.0));
        let s: Vec2 = [a, b].into_iter().sum();
        assert_eq!(s, Vec2::new(4.0, 7.0));
    }

    #[test]
    fn conversions_and_validity() {
        let v: Vec2 = (1.0, 2.0).into();
        let t: (f64, f64) = v.into();
        assert_eq!(t, (1.0, 2.0));
        assert!(v.is_finite());
        assert!(!v.is_nan());
        assert!(Vec2::new(f64::NAN, 0.0).is_nan());
        assert!(!Vec2::new(f64::INFINITY, 0.0).is_finite());
    }
}
