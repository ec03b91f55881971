//! Node-failure injection (the paper's §5 future work: "we plan to study
//! the impacts of sensor failure").
//!
//! A [`FailurePlan`] assigns each node an optional death time. Dead nodes
//! stop sensing, transmitting and receiving; their energy meter closes at
//! the failure instant. The delay metric counts nodes that die before
//! detecting as *misses*.

use pas_sim::{Rng, SimTime};

/// Per-node death schedule.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FailurePlan {
    /// `deaths[i]` is the failure time of node `i`, if it fails.
    deaths: Vec<Option<SimTime>>,
}

impl FailurePlan {
    /// No failures for `n` nodes.
    pub fn none(n: usize) -> Self {
        FailurePlan {
            deaths: vec![None; n],
        }
    }

    /// Each node independently fails with probability `p`, at a time
    /// uniform in `[0, horizon)`.
    ///
    /// # Panics
    /// Panics if `p` is outside `[0, 1]` or `horizon` is not positive.
    pub fn random(n: usize, p: f64, horizon_s: f64, rng: &mut Rng) -> Self {
        assert!((0.0..=1.0).contains(&p), "failure probability in [0, 1]");
        assert!(horizon_s > 0.0, "horizon must be positive");
        let deaths = (0..n)
            .map(|_| {
                rng.bernoulli(p)
                    .then(|| SimTime::from_secs(rng.range_f64(0.0, horizon_s)))
            })
            .collect();
        FailurePlan { deaths }
    }

    /// Kill exactly the listed nodes at the given times.
    ///
    /// # Panics
    /// Panics if an id is out of range.
    pub fn targeted(n: usize, kills: &[(usize, SimTime)]) -> Self {
        let mut plan = FailurePlan::none(n);
        for &(id, at) in kills {
            assert!(id < n, "node id {id} out of range (n = {n})");
            plan.deaths[id] = Some(at);
        }
        plan
    }

    /// Number of nodes covered by the plan.
    pub fn len(&self) -> usize {
        self.deaths.len()
    }

    /// `true` if the plan covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.deaths.is_empty()
    }

    /// Death time of node `i`, if scheduled.
    pub fn death_of(&self, i: usize) -> Option<SimTime> {
        self.deaths.get(i).copied().flatten()
    }

    /// Number of nodes scheduled to fail.
    pub fn failing_count(&self) -> usize {
        self.deaths.iter().filter(|d| d.is_some()).count()
    }

    /// Iterate `(node, death_time)` pairs for scheduled failures.
    pub fn iter(&self) -> impl Iterator<Item = (usize, SimTime)> + '_ {
        self.deaths
            .iter()
            .enumerate()
            .filter_map(|(i, d)| d.map(|t| (i, t)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_schedules_nothing() {
        let plan = FailurePlan::none(10);
        assert_eq!(plan.len(), 10);
        assert_eq!(plan.failing_count(), 0);
        assert_eq!(plan.iter().count(), 0);
        assert_eq!(plan.death_of(3), None);
    }

    #[test]
    fn targeted_kills_listed_nodes() {
        let plan = FailurePlan::targeted(
            5,
            &[(1, SimTime::from_secs(3.0)), (4, SimTime::from_secs(7.0))],
        );
        assert_eq!(plan.failing_count(), 2);
        assert_eq!(plan.death_of(1), Some(SimTime::from_secs(3.0)));
        assert_eq!(plan.death_of(0), None);
        let pairs: Vec<_> = plan.iter().collect();
        assert_eq!(pairs.len(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn targeted_rejects_bad_id() {
        let _ = FailurePlan::targeted(3, &[(5, SimTime::ZERO)]);
    }

    #[test]
    fn random_rate_matches_probability() {
        let mut rng = Rng::new(11);
        let plan = FailurePlan::random(10_000, 0.3, 100.0, &mut rng);
        let rate = plan.failing_count() as f64 / 10_000.0;
        assert!((rate - 0.3).abs() < 0.02, "rate {rate}");
        for (_, t) in plan.iter() {
            assert!(t < SimTime::from_secs(100.0));
        }
    }

    #[test]
    fn random_extremes() {
        let mut rng = Rng::new(12);
        assert_eq!(
            FailurePlan::random(100, 0.0, 10.0, &mut rng).failing_count(),
            0
        );
        assert_eq!(
            FailurePlan::random(100, 1.0, 10.0, &mut rng).failing_count(),
            100
        );
    }

    #[test]
    fn random_is_deterministic() {
        let a = FailurePlan::random(50, 0.5, 60.0, &mut Rng::new(7));
        let b = FailurePlan::random(50, 0.5, 60.0, &mut Rng::new(7));
        assert_eq!(a, b);
    }

    #[test]
    fn out_of_range_death_is_none() {
        let plan = FailurePlan::none(2);
        assert_eq!(plan.death_of(99), None);
    }
}
