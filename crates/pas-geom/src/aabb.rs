//! Axis-aligned bounding boxes.
//!
//! Deployment regions (the paper's "specified region") and grid extents are
//! AABBs; the spatial hash and the diffusion grids are sized from them.

use crate::vec2::Vec2;

/// An axis-aligned rectangle given by its min and max corners.
///
/// Invariant: `min.x <= max.x && min.y <= max.y` (enforced by constructors).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aabb {
    /// Lower-left corner.
    pub min: Vec2,
    /// Upper-right corner.
    pub max: Vec2,
}

impl Aabb {
    /// Construct from two opposite corners (any order).
    #[inline]
    pub fn new(a: Vec2, b: Vec2) -> Self {
        Aabb {
            min: a.min(b),
            max: a.max(b),
        }
    }

    /// Rectangle `[0, w] × [0, h]`.
    ///
    /// # Panics
    /// Panics if `w` or `h` is negative.
    #[inline]
    pub fn from_size(w: f64, h: f64) -> Self {
        assert!(w >= 0.0 && h >= 0.0, "Aabb::from_size: negative extent");
        Aabb {
            min: Vec2::ZERO,
            max: Vec2::new(w, h),
        }
    }

    /// Smallest box containing every point; `None` for an empty slice.
    pub fn from_points(points: &[Vec2]) -> Option<Self> {
        let (&first, rest) = points.split_first()?;
        let mut bb = Aabb {
            min: first,
            max: first,
        };
        for &p in rest {
            bb.min = bb.min.min(p);
            bb.max = bb.max.max(p);
        }
        Some(bb)
    }

    /// Width (x extent).
    #[inline]
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Height (y extent).
    #[inline]
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Area.
    #[inline]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Centre point.
    #[inline]
    pub fn center(&self) -> Vec2 {
        (self.min + self.max) * 0.5
    }

    /// `true` if `p` lies inside or on the boundary.
    #[inline]
    pub fn contains(&self, p: Vec2) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// `true` if the two boxes overlap (boundary contact counts).
    #[inline]
    pub fn intersects(&self, other: &Aabb) -> bool {
        self.min.x <= other.max.x
            && other.min.x <= self.max.x
            && self.min.y <= other.max.y
            && other.min.y <= self.max.y
    }

    /// Grow by `margin` on every side.
    ///
    /// A negative margin shrinks the box; it collapses to its centre rather
    /// than inverting.
    pub fn inflate(&self, margin: f64) -> Aabb {
        let c = self.center();
        let hw = (self.width() * 0.5 + margin).max(0.0);
        let hh = (self.height() * 0.5 + margin).max(0.0);
        Aabb {
            min: c - Vec2::new(hw, hh),
            max: c + Vec2::new(hw, hh),
        }
    }

    /// Clamp a point into the box.
    #[inline]
    pub fn clamp_point(&self, p: Vec2) -> Vec2 {
        Vec2::new(
            p.x.clamp(self.min.x, self.max.x),
            p.y.clamp(self.min.y, self.max.y),
        )
    }

    /// The four corners, counter-clockwise from `min`.
    pub fn corners(&self) -> [Vec2; 4] {
        [
            self.min,
            Vec2::new(self.max.x, self.min.y),
            self.max,
            Vec2::new(self.min.x, self.max.y),
        ]
    }

    /// Map a unit-square coordinate `(u, v) ∈ [0,1]²` to a point in the box.
    #[inline]
    pub fn lerp_point(&self, u: f64, v: f64) -> Vec2 {
        Vec2::new(
            self.min.x + u * self.width(),
            self.min.y + v * self.height(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_normalises_corners() {
        let bb = Aabb::new(Vec2::new(5.0, -1.0), Vec2::new(-2.0, 3.0));
        assert_eq!(bb.min, Vec2::new(-2.0, -1.0));
        assert_eq!(bb.max, Vec2::new(5.0, 3.0));
    }

    #[test]
    fn from_size_and_measures() {
        let bb = Aabb::from_size(4.0, 2.0);
        assert_eq!(bb.width(), 4.0);
        assert_eq!(bb.height(), 2.0);
        assert_eq!(bb.area(), 8.0);
        assert_eq!(bb.center(), Vec2::new(2.0, 1.0));
    }

    #[test]
    #[should_panic(expected = "negative extent")]
    fn from_size_rejects_negative() {
        let _ = Aabb::from_size(-1.0, 1.0);
    }

    #[test]
    fn from_points() {
        assert_eq!(Aabb::from_points(&[]), None);
        let pts = [
            Vec2::new(1.0, 5.0),
            Vec2::new(-2.0, 0.0),
            Vec2::new(3.0, 2.0),
        ];
        let bb = Aabb::from_points(&pts).unwrap();
        assert_eq!(bb.min, Vec2::new(-2.0, 0.0));
        assert_eq!(bb.max, Vec2::new(3.0, 5.0));
    }

    #[test]
    fn containment() {
        let bb = Aabb::from_size(10.0, 10.0);
        assert!(bb.contains(Vec2::new(5.0, 5.0)));
        assert!(bb.contains(Vec2::ZERO)); // boundary
        assert!(bb.contains(Vec2::new(10.0, 10.0))); // boundary
        assert!(!bb.contains(Vec2::new(10.1, 5.0)));
        assert!(!bb.contains(Vec2::new(5.0, -0.1)));
    }

    #[test]
    fn intersection() {
        let a = Aabb::from_size(10.0, 10.0);
        let b = Aabb::new(Vec2::new(5.0, 5.0), Vec2::new(15.0, 15.0));
        let c = Aabb::new(Vec2::new(11.0, 11.0), Vec2::new(12.0, 12.0));
        let d = Aabb::new(Vec2::new(10.0, 0.0), Vec2::new(20.0, 10.0)); // touching edge
        assert!(a.intersects(&b));
        assert!(b.intersects(&a));
        assert!(!a.intersects(&c));
        assert!(a.intersects(&d));
    }

    #[test]
    fn inflate_and_clamp() {
        let bb = Aabb::from_size(10.0, 10.0);
        let big = bb.inflate(1.0);
        assert_eq!(big.min, Vec2::new(-1.0, -1.0));
        assert_eq!(big.max, Vec2::new(11.0, 11.0));
        // Shrinking past degenerate collapses to the centre.
        let tiny = bb.inflate(-6.0);
        assert_eq!(tiny.min, tiny.max);
        assert_eq!(tiny.center(), bb.center());
        assert_eq!(bb.clamp_point(Vec2::new(-5.0, 20.0)), Vec2::new(0.0, 10.0));
    }

    #[test]
    fn corners_ccw_and_lerp() {
        let bb = Aabb::from_size(2.0, 4.0);
        let cs = bb.corners();
        assert_eq!(cs[0], Vec2::ZERO);
        assert_eq!(cs[2], Vec2::new(2.0, 4.0));
        assert_eq!(bb.lerp_point(0.5, 0.5), bb.center());
        assert_eq!(bb.lerp_point(1.0, 0.0), Vec2::new(2.0, 0.0));
    }
}
