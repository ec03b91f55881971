//! Primitive shapes: circles and line segments.
//!
//! Circles model transmission disks (unit-disk radio) and isotropic stimulus
//! fronts; segments support distance-to-boundary queries on extracted
//! contours.

use crate::aabb::Aabb;
use crate::vec2::Vec2;

/// A circle (centre + radius).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Circle {
    /// Centre point.
    pub center: Vec2,
    /// Radius (must be non-negative).
    pub radius: f64,
}

impl Circle {
    /// Construct a circle.
    ///
    /// # Panics
    /// Panics if `radius` is negative or non-finite.
    #[inline]
    pub fn new(center: Vec2, radius: f64) -> Self {
        assert!(
            radius >= 0.0 && radius.is_finite(),
            "Circle radius must be finite and non-negative"
        );
        Circle { center, radius }
    }

    /// `true` if `p` is inside or on the circle.
    #[inline]
    pub fn contains(&self, p: Vec2) -> bool {
        self.center.distance_sq(p) <= self.radius * self.radius
    }

    /// Signed distance from `p` to the circle boundary.
    ///
    /// Negative inside, positive outside, zero on the boundary.
    #[inline]
    pub fn signed_distance(&self, p: Vec2) -> f64 {
        self.center.distance(p) - self.radius
    }

    /// `true` if the two circles overlap (boundary contact counts).
    #[inline]
    pub fn intersects(&self, other: &Circle) -> bool {
        let r = self.radius + other.radius;
        self.center.distance_sq(other.center) <= r * r
    }

    /// Area.
    #[inline]
    pub fn area(&self) -> f64 {
        core::f64::consts::PI * self.radius * self.radius
    }

    /// Bounding box.
    #[inline]
    pub fn aabb(&self) -> Aabb {
        let r = Vec2::splat(self.radius);
        Aabb {
            min: self.center - r,
            max: self.center + r,
        }
    }

    /// `n` points evenly spaced on the boundary, counter-clockwise from +X.
    pub fn sample_boundary(&self, n: usize) -> Vec<Vec2> {
        (0..n)
            .map(|i| {
                let a = core::f64::consts::TAU * (i as f64) / (n as f64);
                self.center + Vec2::from_polar(self.radius, a)
            })
            .collect()
    }
}

/// A line segment between two points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Start point.
    pub a: Vec2,
    /// End point.
    pub b: Vec2,
}

impl Segment {
    /// Construct a segment.
    #[inline]
    pub const fn new(a: Vec2, b: Vec2) -> Self {
        Segment { a, b }
    }

    /// Segment length.
    #[inline]
    pub fn length(&self) -> f64 {
        self.a.distance(self.b)
    }

    /// Midpoint.
    #[inline]
    pub fn midpoint(&self) -> Vec2 {
        (self.a + self.b) * 0.5
    }

    /// The point on the segment closest to `p`.
    pub fn closest_point(&self, p: Vec2) -> Vec2 {
        let d = self.b - self.a;
        let len_sq = d.norm_sq();
        if len_sq == 0.0 {
            return self.a; // degenerate segment
        }
        let t = ((p - self.a).dot(d) / len_sq).clamp(0.0, 1.0);
        self.a + d * t
    }

    /// Distance from `p` to the segment.
    #[inline]
    pub fn distance_to(&self, p: Vec2) -> f64 {
        self.closest_point(p).distance(p)
    }

    /// Direction unit vector, or `None` for a degenerate segment.
    #[inline]
    pub fn direction(&self) -> Option<Vec2> {
        (self.b - self.a).try_normalize()
    }

    /// Outward normal (left of travel direction), or `None` if degenerate.
    #[inline]
    pub fn normal(&self) -> Option<Vec2> {
        self.direction().map(Vec2::perp)
    }

    /// Intersection point of two segments, if they cross.
    ///
    /// Collinear overlaps return `None` (no unique point); endpoint contact
    /// counts as intersection.
    pub fn intersect(&self, other: &Segment) -> Option<Vec2> {
        let r = self.b - self.a;
        let s = other.b - other.a;
        let denom = r.cross(s);
        if denom == 0.0 {
            return None; // parallel or collinear
        }
        let qp = other.a - self.a;
        let t = qp.cross(s) / denom;
        let u = qp.cross(r) / denom;
        if (0.0..=1.0).contains(&t) && (0.0..=1.0).contains(&u) {
            Some(self.a + r * t)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::float::approx_eq;

    #[test]
    fn circle_contains() {
        let c = Circle::new(Vec2::new(1.0, 1.0), 2.0);
        assert!(c.contains(Vec2::new(1.0, 1.0)));
        assert!(c.contains(Vec2::new(3.0, 1.0))); // boundary
        assert!(!c.contains(Vec2::new(3.1, 1.0)));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn circle_rejects_negative_radius() {
        let _ = Circle::new(Vec2::ZERO, -1.0);
    }

    #[test]
    fn circle_signed_distance() {
        let c = Circle::new(Vec2::ZERO, 1.0);
        assert!(approx_eq(c.signed_distance(Vec2::new(2.0, 0.0)), 1.0));
        assert!(approx_eq(c.signed_distance(Vec2::new(0.5, 0.0)), -0.5));
        assert!(approx_eq(c.signed_distance(Vec2::new(1.0, 0.0)), 0.0));
    }

    #[test]
    fn circle_intersects() {
        let a = Circle::new(Vec2::ZERO, 1.0);
        let b = Circle::new(Vec2::new(2.0, 0.0), 1.0); // touching
        let c = Circle::new(Vec2::new(2.1, 0.0), 1.0);
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
    }

    #[test]
    fn circle_geometry() {
        let c = Circle::new(Vec2::new(1.0, 2.0), 3.0);
        assert!(approx_eq(c.area(), core::f64::consts::PI * 9.0));
        let bb = c.aabb();
        assert_eq!(bb.min, Vec2::new(-2.0, -1.0));
        assert_eq!(bb.max, Vec2::new(4.0, 5.0));
    }

    #[test]
    fn circle_boundary_samples_on_circle() {
        let c = Circle::new(Vec2::new(5.0, -3.0), 2.5);
        let pts = c.sample_boundary(16);
        assert_eq!(pts.len(), 16);
        for p in pts {
            assert!(approx_eq(c.center.distance(p), 2.5));
        }
    }

    #[test]
    fn segment_closest_point() {
        let s = Segment::new(Vec2::ZERO, Vec2::new(10.0, 0.0));
        assert_eq!(s.closest_point(Vec2::new(5.0, 3.0)), Vec2::new(5.0, 0.0));
        assert_eq!(s.closest_point(Vec2::new(-5.0, 3.0)), Vec2::ZERO); // clamped
        assert_eq!(s.closest_point(Vec2::new(15.0, -2.0)), Vec2::new(10.0, 0.0));
        assert!(approx_eq(s.distance_to(Vec2::new(5.0, 3.0)), 3.0));
    }

    #[test]
    fn degenerate_segment() {
        let s = Segment::new(Vec2::new(1.0, 1.0), Vec2::new(1.0, 1.0));
        assert_eq!(s.closest_point(Vec2::new(4.0, 5.0)), Vec2::new(1.0, 1.0));
        assert_eq!(s.direction(), None);
        assert_eq!(s.normal(), None);
        assert_eq!(s.length(), 0.0);
    }

    #[test]
    fn segment_intersection() {
        let a = Segment::new(Vec2::new(0.0, 0.0), Vec2::new(2.0, 2.0));
        let b = Segment::new(Vec2::new(0.0, 2.0), Vec2::new(2.0, 0.0));
        let p = a.intersect(&b).unwrap();
        assert!(approx_eq(p.x, 1.0) && approx_eq(p.y, 1.0));
        // Parallel: no intersection.
        let c = Segment::new(Vec2::new(0.0, 1.0), Vec2::new(2.0, 3.0));
        assert_eq!(a.intersect(&c), None);
        // Disjoint but crossing lines: no intersection within the segments.
        let d = Segment::new(Vec2::new(5.0, 0.0), Vec2::new(5.0, 1.0));
        assert_eq!(a.intersect(&d), None);
    }

    #[test]
    fn segment_direction_and_normal() {
        let s = Segment::new(Vec2::ZERO, Vec2::new(0.0, 5.0));
        assert_eq!(s.direction().unwrap(), Vec2::UNIT_Y);
        assert_eq!(s.normal().unwrap(), Vec2::new(-1.0, 0.0));
        assert_eq!(s.midpoint(), Vec2::new(0.0, 2.5));
    }
}
