//! Open polylines and closed polygons.
//!
//! Extracted stimulus contours (marching squares in `pas-diffusion`) are
//! polylines; closed fronts are polygons supporting point-in-polygon and
//! distance-to-boundary queries — the geometric backbone of "how far is the
//! stimulus from this sensor".

use crate::aabb::Aabb;
use crate::shapes::Segment;
use crate::vec2::Vec2;

/// An open chain of points.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Polyline {
    /// Vertices in order.
    pub points: Vec<Vec2>,
}

impl Polyline {
    /// Construct from vertices.
    pub fn new(points: Vec<Vec2>) -> Self {
        Polyline { points }
    }

    /// Number of vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` if there are no vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Total arc length.
    pub fn length(&self) -> f64 {
        self.points.windows(2).map(|w| w[0].distance(w[1])).sum()
    }

    /// Iterator over the segments of the chain.
    pub fn segments(&self) -> impl Iterator<Item = Segment> + '_ {
        self.points.windows(2).map(|w| Segment::new(w[0], w[1]))
    }

    /// Distance from `p` to the nearest point on the chain.
    ///
    /// Returns `f64::INFINITY` for an empty chain; a single-vertex chain is a
    /// point.
    pub fn distance_to(&self, p: Vec2) -> f64 {
        match self.points.len() {
            0 => f64::INFINITY,
            1 => self.points[0].distance(p),
            _ => self
                .segments()
                .map(|s| s.distance_to(p))
                .fold(f64::INFINITY, f64::min),
        }
    }

    /// Resample to `n >= 2` points evenly spaced by arc length.
    ///
    /// Returns a clone if the chain has fewer than 2 points or zero length.
    pub fn resample(&self, n: usize) -> Polyline {
        if self.points.len() < 2 || n < 2 {
            return self.clone();
        }
        let total = self.length();
        if total <= 0.0 {
            return self.clone();
        }
        let step = total / ((n - 1) as f64);
        let mut out = Vec::with_capacity(n);
        out.push(self.points[0]);
        let mut target = step;
        let mut travelled = 0.0;
        for w in self.points.windows(2) {
            let seg_len = w[0].distance(w[1]);
            // Emit every resample point that falls inside this segment.
            while target <= travelled + seg_len + 1e-12 && out.len() < n - 1 {
                let t = if seg_len > 0.0 {
                    (target - travelled) / seg_len
                } else {
                    0.0
                };
                out.push(w[0].lerp(w[1], t));
                target += step;
            }
            travelled += seg_len;
        }
        out.push(*self.points.last().expect("len >= 2"));
        Polyline { points: out }
    }

    /// Bounding box, or `None` if empty.
    pub fn aabb(&self) -> Option<Aabb> {
        Aabb::from_points(&self.points)
    }
}

/// A closed polygon (the closing edge `last -> first` is implicit).
#[derive(Debug, Clone, PartialEq)]
pub struct Polygon {
    /// Vertices in order (no repeated closing vertex).
    pub points: Vec<Vec2>,
}

impl Polygon {
    /// Construct from vertices.
    ///
    /// # Panics
    /// Panics if fewer than 3 vertices are supplied.
    pub fn new(points: Vec<Vec2>) -> Self {
        assert!(points.len() >= 3, "Polygon needs at least 3 vertices");
        Polygon { points }
    }

    /// A regular `n`-gon approximating a circle.
    pub fn regular(center: Vec2, radius: f64, n: usize) -> Self {
        assert!(n >= 3, "regular polygon needs n >= 3");
        let points = (0..n)
            .map(|i| {
                let a = core::f64::consts::TAU * (i as f64) / (n as f64);
                center + Vec2::from_polar(radius, a)
            })
            .collect();
        Polygon { points }
    }

    /// Number of vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` if there are no vertices (cannot occur via constructors).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Iterator over the edges, including the closing edge.
    pub fn edges(&self) -> impl Iterator<Item = Segment> + '_ {
        let n = self.points.len();
        (0..n).map(move |i| Segment::new(self.points[i], self.points[(i + 1) % n]))
    }

    /// Perimeter length.
    pub fn perimeter(&self) -> f64 {
        self.edges().map(|e| e.length()).sum()
    }

    /// Signed area (positive for counter-clockwise winding).
    pub fn signed_area(&self) -> f64 {
        let n = self.points.len();
        let mut acc = 0.0;
        for i in 0..n {
            let a = self.points[i];
            let b = self.points[(i + 1) % n];
            acc += a.cross(b);
        }
        acc * 0.5
    }

    /// Absolute area.
    #[inline]
    pub fn area(&self) -> f64 {
        self.signed_area().abs()
    }

    /// Vertex centroid (arithmetic mean of vertices).
    pub fn vertex_centroid(&self) -> Vec2 {
        let n = self.points.len() as f64;
        self.points.iter().copied().sum::<Vec2>() / n
    }

    /// Point-in-polygon test (even-odd rule). Boundary points may go either
    /// way due to floating point; callers needing exactness should use
    /// [`Polygon::distance_to_boundary`].
    pub fn contains(&self, p: Vec2) -> bool {
        let n = self.points.len();
        let mut inside = false;
        let mut j = n - 1;
        for i in 0..n {
            let pi = self.points[i];
            let pj = self.points[j];
            // Ray cast toward +X: count crossings of edges straddling p.y.
            if (pi.y > p.y) != (pj.y > p.y) {
                let x_cross = pj.x + (p.y - pj.y) / (pi.y - pj.y) * (pi.x - pj.x);
                if p.x < x_cross {
                    inside = !inside;
                }
            }
            j = i;
        }
        inside
    }

    /// Distance from `p` to the polygon boundary (0 on the boundary,
    /// positive elsewhere — use with [`Polygon::contains`] for a signed
    /// distance).
    pub fn distance_to_boundary(&self, p: Vec2) -> f64 {
        self.edges()
            .map(|e| e.distance_to(p))
            .fold(f64::INFINITY, f64::min)
    }

    /// Bounding box.
    pub fn aabb(&self) -> Aabb {
        Aabb::from_points(&self.points).expect("polygon has >= 3 vertices")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::float::approx_eq;

    fn unit_square() -> Polygon {
        Polygon::new(vec![
            Vec2::new(0.0, 0.0),
            Vec2::new(1.0, 0.0),
            Vec2::new(1.0, 1.0),
            Vec2::new(0.0, 1.0),
        ])
    }

    #[test]
    fn polyline_length_and_segments() {
        let pl = Polyline::new(vec![Vec2::ZERO, Vec2::new(3.0, 0.0), Vec2::new(3.0, 4.0)]);
        assert_eq!(pl.len(), 3);
        assert!(!pl.is_empty());
        assert!(approx_eq(pl.length(), 7.0));
        assert_eq!(pl.segments().count(), 2);
    }

    #[test]
    fn polyline_distance() {
        let pl = Polyline::new(vec![Vec2::ZERO, Vec2::new(10.0, 0.0)]);
        assert!(approx_eq(pl.distance_to(Vec2::new(5.0, 2.0)), 2.0));
        assert!(approx_eq(pl.distance_to(Vec2::new(-3.0, 4.0)), 5.0));
        assert_eq!(Polyline::default().distance_to(Vec2::ZERO), f64::INFINITY);
        let point = Polyline::new(vec![Vec2::new(1.0, 1.0)]);
        assert!(approx_eq(point.distance_to(Vec2::new(1.0, 3.0)), 2.0));
    }

    #[test]
    fn polyline_resample_even_spacing() {
        let pl = Polyline::new(vec![
            Vec2::ZERO,
            Vec2::new(10.0, 0.0),
            Vec2::new(10.0, 10.0),
        ]);
        let rs = pl.resample(5);
        assert_eq!(rs.len(), 5);
        assert_eq!(rs.points[0], Vec2::ZERO);
        assert_eq!(*rs.points.last().unwrap(), Vec2::new(10.0, 10.0));
        // Even spacing: each gap is total length / 4 = 5.
        for w in rs.points.windows(2) {
            assert!(approx_eq(w[0].distance(w[1]), 5.0));
        }
    }

    #[test]
    fn polyline_resample_degenerate() {
        let single = Polyline::new(vec![Vec2::ZERO]);
        assert_eq!(single.resample(10), single);
        let pl = Polyline::new(vec![Vec2::ZERO, Vec2::new(1.0, 0.0)]);
        assert_eq!(pl.resample(1), pl); // n < 2 is a no-op
    }

    #[test]
    fn polygon_area_and_perimeter() {
        let sq = unit_square();
        assert!(approx_eq(sq.area(), 1.0));
        assert!(approx_eq(sq.signed_area(), 1.0)); // CCW
        assert!(approx_eq(sq.perimeter(), 4.0));
        let mut rev = sq.points.clone();
        rev.reverse();
        assert!(approx_eq(Polygon::new(rev).signed_area(), -1.0)); // CW
    }

    #[test]
    #[should_panic(expected = "at least 3")]
    fn polygon_rejects_degenerate() {
        let _ = Polygon::new(vec![Vec2::ZERO, Vec2::UNIT_X]);
    }

    #[test]
    fn polygon_contains() {
        let sq = unit_square();
        assert!(sq.contains(Vec2::new(0.5, 0.5)));
        assert!(!sq.contains(Vec2::new(1.5, 0.5)));
        assert!(!sq.contains(Vec2::new(0.5, -0.5)));
        assert!(!sq.contains(Vec2::new(-0.1, 0.0)));
    }

    #[test]
    fn polygon_contains_concave() {
        // L-shape: the notch at (1.5, 1.5) must be outside.
        let l = Polygon::new(vec![
            Vec2::new(0.0, 0.0),
            Vec2::new(2.0, 0.0),
            Vec2::new(2.0, 1.0),
            Vec2::new(1.0, 1.0),
            Vec2::new(1.0, 2.0),
            Vec2::new(0.0, 2.0),
        ]);
        assert!(l.contains(Vec2::new(0.5, 0.5)));
        assert!(l.contains(Vec2::new(1.5, 0.5)));
        assert!(l.contains(Vec2::new(0.5, 1.5)));
        assert!(!l.contains(Vec2::new(1.5, 1.5)));
        assert!(approx_eq(l.area(), 3.0));
    }

    #[test]
    fn polygon_distance_to_boundary() {
        let sq = unit_square();
        assert!(approx_eq(sq.distance_to_boundary(Vec2::new(0.5, 0.5)), 0.5));
        assert!(approx_eq(sq.distance_to_boundary(Vec2::new(2.0, 0.5)), 1.0));
        assert!(approx_eq(sq.distance_to_boundary(Vec2::new(0.0, 0.0)), 0.0));
    }

    #[test]
    fn regular_polygon_approximates_circle() {
        let c = Vec2::new(3.0, 3.0);
        let poly = Polygon::regular(c, 2.0, 64);
        assert_eq!(poly.len(), 64);
        // Area converges to π r² from below.
        let circle_area = core::f64::consts::PI * 4.0;
        assert!(poly.area() < circle_area);
        assert!(poly.area() > 0.98 * circle_area);
        assert!(poly.contains(c));
        assert!(approx_eq(poly.vertex_centroid().distance(c), 0.0));
    }

    #[test]
    fn polygon_aabb() {
        let sq = unit_square();
        let bb = sq.aabb();
        assert_eq!(bb.min, Vec2::ZERO);
        assert_eq!(bb.max, Vec2::new(1.0, 1.0));
    }
}
