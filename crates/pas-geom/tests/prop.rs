//! Property-based tests for the geometry kit.

use pas_geom::angle::included_cos;
use pas_geom::float::approx_eq_eps;
use pas_geom::{Polygon, Polyline, SpatialGrid, Vec2};
use proptest::prelude::*;

fn finite_coord() -> impl Strategy<Value = f64> {
    -1.0e3..1.0e3
}

fn vec2() -> impl Strategy<Value = Vec2> {
    (finite_coord(), finite_coord()).prop_map(|(x, y)| Vec2::new(x, y))
}

proptest! {
    // --- Vec2 algebra -----------------------------------------------------

    #[test]
    fn add_commutes(a in vec2(), b in vec2()) {
        prop_assert_eq!(a + b, b + a);
    }

    #[test]
    fn add_associates_up_to_eps(a in vec2(), b in vec2(), c in vec2()) {
        let l = (a + b) + c;
        let r = a + (b + c);
        prop_assert!(approx_eq_eps(l.x, r.x, 1e-9));
        prop_assert!(approx_eq_eps(l.y, r.y, 1e-9));
    }

    #[test]
    fn scalar_distributes(a in vec2(), b in vec2(), k in -100.0..100.0f64) {
        let l = (a + b) * k;
        let r = a * k + b * k;
        prop_assert!(approx_eq_eps(l.x, r.x, 1e-6));
        prop_assert!(approx_eq_eps(l.y, r.y, 1e-6));
    }

    #[test]
    fn norm_triangle_inequality(a in vec2(), b in vec2()) {
        prop_assert!((a + b).norm() <= a.norm() + b.norm() + 1e-9);
    }

    #[test]
    fn norm_scales(a in vec2(), k in -100.0..100.0f64) {
        prop_assert!(approx_eq_eps((a * k).norm(), a.norm() * k.abs(), 1e-6));
    }

    #[test]
    fn normalized_has_unit_norm(a in vec2()) {
        if let Some(u) = a.try_normalize() {
            prop_assert!(approx_eq_eps(u.norm(), 1.0, 1e-9));
        } else {
            prop_assert_eq!(a, Vec2::ZERO);
        }
    }

    #[test]
    fn rotation_preserves_norm(a in vec2(), angle in -10.0..10.0f64) {
        prop_assert!(approx_eq_eps(a.rotate(angle).norm(), a.norm(), 1e-6));
    }

    #[test]
    fn perp_is_orthogonal(a in vec2()) {
        prop_assert!(approx_eq_eps(a.dot(a.perp()), 0.0, 1e-9));
    }

    // --- angles -------------------------------------------------------------

    #[test]
    fn included_cos_bounded_and_symmetric(a in vec2(), b in vec2()) {
        let c = included_cos(a, b);
        prop_assert!((-1.0..=1.0).contains(&c));
        prop_assert_eq!(c.to_bits(), included_cos(b, a).to_bits());
    }

    // --- polygon / polyline ---------------------------------------------------

    #[test]
    fn regular_polygon_area_rotation_invariant(
        cx in -100.0..100.0f64,
        cy in -100.0..100.0f64,
        r in 0.1..50.0f64,
        n in 3usize..32,
    ) {
        let poly = Polygon::regular(Vec2::new(cx, cy), r, n);
        // Translate: area unchanged.
        let moved = Polygon::new(
            poly.points.iter().map(|&p| p + Vec2::new(7.0, -3.0)).collect(),
        );
        prop_assert!(approx_eq_eps(poly.area(), moved.area(), 1e-6));
        // Perimeter below circle circumference, area below circle area.
        prop_assert!(poly.perimeter() <= core::f64::consts::TAU * r + 1e-9);
        prop_assert!(poly.area() <= core::f64::consts::PI * r * r + 1e-9);
    }

    #[test]
    fn resample_preserves_endpoints_and_length(
        pts in prop::collection::vec(vec2(), 2..12),
        n in 2usize..50,
    ) {
        let pl = Polyline::new(pts);
        let rs = pl.resample(n);
        if pl.length() > 1e-9 {
            prop_assert_eq!(rs.len(), n);
            prop_assert_eq!(rs.points[0], pl.points[0]);
            prop_assert_eq!(*rs.points.last().unwrap(), *pl.points.last().unwrap());
            // Resampling a chain can only shorten it (chords of the path).
            prop_assert!(rs.length() <= pl.length() + 1e-6);
        }
    }

    // --- spatial grid ----------------------------------------------------------

    #[test]
    fn grid_query_matches_naive(
        pts in prop::collection::vec(vec2(), 0..60),
        center in vec2(),
        radius in 0.0..200.0f64,
        cell in 0.5..50.0f64,
    ) {
        let grid = SpatialGrid::from_points(cell, pts.iter().copied().enumerate());
        let mut got = grid.ids_within(center, radius);
        got.sort_unstable();
        let mut want: Vec<usize> = pts
            .iter()
            .enumerate()
            .filter(|(_, p)| center.distance(**p) <= radius)
            .map(|(i, _)| i)
            .collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }
}
