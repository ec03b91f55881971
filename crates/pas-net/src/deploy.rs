//! Sensor deployment generators.
//!
//! The paper "set\[s\] up 30 nodes" in "a specified region" — uniform random
//! placement is the WSN default. We also provide a regular grid (for
//! worst/best-case analysis) and Poisson-disk sampling (blue noise: random
//! but with a minimum separation, closer to how real deployments avoid
//! stacking sensors).

use pas_geom::{Aabb, SpatialGrid, Vec2};
use pas_sim::Rng;

/// Uniformly random positions in `region`.
pub fn uniform(region: Aabb, n: usize, rng: &mut Rng) -> Vec<Vec2> {
    (0..n)
        .map(|_| {
            let u = rng.next_f64();
            let v = rng.next_f64();
            region.lerp_point(u, v)
        })
        .collect()
}

/// A centred `cols × rows` grid filling `region`.
///
/// Nodes sit at cell centres, so no node lies on the region boundary.
pub fn grid(region: Aabb, cols: usize, rows: usize) -> Vec<Vec2> {
    assert!(cols > 0 && rows > 0, "grid needs positive dimensions");
    let mut out = Vec::with_capacity(cols * rows);
    for iy in 0..rows {
        for ix in 0..cols {
            let u = (ix as f64 + 0.5) / cols as f64;
            let v = (iy as f64 + 0.5) / rows as f64;
            out.push(region.lerp_point(u, v));
        }
    }
    out
}

/// Poisson-disk sampling by dart throwing with a spatial-hash acceptance
/// test: up to `n` points with pairwise separation ≥ `min_dist`.
///
/// Returns fewer than `n` points if the region saturates (the caller can
/// check `len()`); `max_attempts_per_point` bounds the work.
pub fn poisson_disk(region: Aabb, n: usize, min_dist: f64, rng: &mut Rng) -> Vec<Vec2> {
    assert!(min_dist > 0.0, "min_dist must be positive");
    // A seed that places every point before the cap draws the same
    // candidates at any cap, so the cap only decides short layouts: at
    // 64, 571 of 5000 seeds of the plume-monitoring layout came up short;
    // at 4096 none do.
    const MAX_ATTEMPTS_PER_POINT: usize = 4096;
    let mut accepted: Vec<Vec2> = Vec::with_capacity(n);
    let mut grid: SpatialGrid<usize> = SpatialGrid::new(min_dist.max(1e-9));
    'outer: for _ in 0..n {
        for _ in 0..MAX_ATTEMPTS_PER_POINT {
            let cand = region.lerp_point(rng.next_f64(), rng.next_f64());
            let clash = grid.query_radius(cand, min_dist).next().is_some();
            if !clash {
                grid.insert(accepted.len(), cand);
                accepted.push(cand);
                continue 'outer;
            }
        }
        // Region saturated at this separation; stop early.
        break;
    }
    accepted
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region() -> Aabb {
        Aabb::from_size(50.0, 50.0)
    }

    #[test]
    fn uniform_inside_region_and_deterministic() {
        let mut rng = Rng::new(1);
        let pts = uniform(region(), 100, &mut rng);
        assert_eq!(pts.len(), 100);
        for p in &pts {
            assert!(region().contains(*p));
        }
        let mut rng2 = Rng::new(1);
        assert_eq!(pts, uniform(region(), 100, &mut rng2));
    }

    #[test]
    fn uniform_spreads_out() {
        let mut rng = Rng::new(2);
        let pts = uniform(region(), 400, &mut rng);
        // Quadrant counts should be roughly equal.
        let c = region().center();
        let q1 = pts.iter().filter(|p| p.x < c.x && p.y < c.y).count();
        let q2 = pts.iter().filter(|p| p.x >= c.x && p.y < c.y).count();
        assert!(q1 > 60 && q1 < 140, "q1 {q1}");
        assert!(q2 > 60 && q2 < 140, "q2 {q2}");
    }

    #[test]
    fn grid_layout() {
        let pts = grid(region(), 5, 4);
        assert_eq!(pts.len(), 20);
        // First point is the lower-left cell centre.
        assert_eq!(pts[0], Vec2::new(5.0, 6.25));
        // All strictly inside.
        for p in &pts {
            assert!(p.x > 0.0 && p.x < 50.0 && p.y > 0.0 && p.y < 50.0);
        }
        // Unique positions.
        for (i, a) in pts.iter().enumerate() {
            for b in &pts[i + 1..] {
                assert!(a.distance(*b) > 1e-9);
            }
        }
    }

    #[test]
    #[should_panic(expected = "positive dimensions")]
    fn grid_rejects_zero() {
        let _ = grid(region(), 0, 3);
    }

    #[test]
    fn poisson_disk_respects_separation() {
        let mut rng = Rng::new(3);
        let pts = poisson_disk(region(), 200, 4.0, &mut rng);
        assert!(!pts.is_empty());
        for (i, a) in pts.iter().enumerate() {
            assert!(region().contains(*a));
            for b in &pts[i + 1..] {
                assert!(
                    a.distance(*b) >= 4.0 - 1e-9,
                    "pair at distance {}",
                    a.distance(*b)
                );
            }
        }
    }

    #[test]
    fn poisson_disk_saturates_gracefully() {
        let mut rng = Rng::new(4);
        // 10x10 region cannot hold 1000 points at separation 5.
        let pts = poisson_disk(Aabb::from_size(10.0, 10.0), 1000, 5.0, &mut rng);
        assert!(pts.len() < 20, "saturated at {} points", pts.len());
        assert!(pts.len() >= 2);
    }

    #[test]
    fn poisson_disk_deterministic() {
        let a = poisson_disk(region(), 50, 3.0, &mut Rng::new(9));
        let b = poisson_disk(region(), 50, 3.0, &mut Rng::new(9));
        assert_eq!(a, b);
    }
}
