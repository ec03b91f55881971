//! Scenario and run configuration.
//!
//! A [`Scenario`] describes the physical deployment (paper §4.2: "We set up
//! 30 nodes; and each node has a transmission range of 10m"); a
//! [`RunConfig`] describes one simulated run over it (policy, channel,
//! failures, horizon). Splitting them keeps paired comparisons honest: the
//! same `Scenario` + seed produces the identical topology for every policy.

use crate::failure::FailurePlan;
use crate::policy::Policy;
use pas_geom::{Aabb, Vec2};
use pas_net::{deploy, Topology};
use pas_sim::Rng;

/// Node placement strategy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeploymentKind {
    /// Uniform random placement (the WSN default).
    Uniform,
    /// Regular grid, `cols × rows` (must multiply to the node count).
    Grid {
        /// Grid columns.
        cols: usize,
        /// Grid rows.
        rows: usize,
    },
    /// Poisson-disk (blue noise) with the given minimum separation.
    PoissonDisk {
        /// Minimum pairwise separation in metres.
        min_dist: f64,
    },
}

/// The physical experiment arena.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scenario {
    /// Deployment region.
    pub region: Aabb,
    /// Number of sensor nodes.
    pub node_count: usize,
    /// Transmission range in metres.
    pub range_m: f64,
    /// Placement strategy.
    pub deployment: DeploymentKind,
    /// Master seed: topology, channel and node jitter derive substreams.
    pub seed: u64,
}

impl Scenario {
    /// The paper's §4 setup: 30 nodes, 10 m range, uniform placement.
    ///
    /// The paper does not state its region size; we use 40 m × 40 m, which
    /// at 30 nodes / 10 m range yields an average node degree of ≈ 5 — a
    /// connected multi-hop network, the regime every mechanism in the paper
    /// presumes (isolated nodes can never hear a REQUEST or RESPONSE).
    pub fn paper_default(seed: u64) -> Self {
        Scenario {
            region: Aabb::from_size(40.0, 40.0),
            node_count: 30,
            range_m: 10.0,
            deployment: DeploymentKind::Uniform,
            seed,
        }
    }

    /// Generate the node positions for this scenario (deterministic in the
    /// seed).
    pub fn positions(&self) -> Vec<Vec2> {
        assert!(self.node_count > 0, "scenario needs >= 1 node");
        let mut rng = Rng::substream(self.seed, super::runner::STREAM_DEPLOY);
        match self.deployment {
            DeploymentKind::Uniform => deploy::uniform(self.region, self.node_count, &mut rng),
            DeploymentKind::Grid { cols, rows } => {
                assert_eq!(
                    cols * rows,
                    self.node_count,
                    "grid dims must multiply to node_count"
                );
                deploy::grid(self.region, cols, rows)
            }
            DeploymentKind::PoissonDisk { min_dist } => {
                let pts = deploy::poisson_disk(self.region, self.node_count, min_dist, &mut rng);
                assert_eq!(
                    pts.len(),
                    self.node_count,
                    "region saturated: got {} of {} nodes at separation {}",
                    pts.len(),
                    self.node_count,
                    min_dist
                );
                pts
            }
        }
    }

    /// Build the unit-disk topology for this scenario.
    pub fn topology(&self) -> Topology {
        Topology::new(self.positions(), self.range_m)
    }
}

/// Channel model selection (serialisable mirror of `pas-net`'s models).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChannelKind {
    /// Lossless delivery (the paper's assumption).
    Perfect,
    /// Independent loss with the given probability.
    IidLoss(f64),
    /// Distance-dependent loss: `(good_fraction, edge_loss)`.
    DistanceLoss(f64, f64),
}

/// One run's full configuration.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Sleeping policy under test.
    pub policy: Policy,
    /// Channel model.
    pub channel: ChannelKind,
    /// Node failure schedule (`FailurePlan::none` for the baseline).
    pub failures: FailurePlan,
    /// Extra simulated seconds after the last ground-truth arrival, letting
    /// sleeping nodes wake and detect (bounds the miss count).
    pub grace_s: f64,
    /// Hard cap on simulated time; `None` derives it from the stimulus.
    pub horizon_override_s: Option<f64>,
    /// Record every state transition and wake/sleep edge into
    /// [`crate::Timeline`] (off by default: costs memory, not speed).
    pub record_timeline: bool,
}

impl RunConfig {
    /// Baseline config for a policy: perfect channel, no failures.
    pub fn new(policy: Policy) -> Self {
        policy.validate();
        RunConfig {
            policy,
            channel: ChannelKind::Perfect,
            failures: FailurePlan::default(),
            grace_s: 15.0,
            horizon_override_s: None,
            record_timeline: false,
        }
    }

    /// Builder: enable timeline recording.
    pub fn with_timeline(mut self) -> Self {
        self.record_timeline = true;
        self
    }

    /// Builder: set the channel model.
    pub fn with_channel(mut self, channel: ChannelKind) -> Self {
        self.channel = channel;
        self
    }

    /// Builder: set the failure plan.
    pub fn with_failures(mut self, failures: FailurePlan) -> Self {
        self.failures = failures;
        self
    }

    /// Builder: override the simulation horizon.
    pub fn with_horizon(mut self, horizon_s: f64) -> Self {
        assert!(horizon_s > 0.0, "horizon must be positive");
        self.horizon_override_s = Some(horizon_s);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_section4() {
        let s = Scenario::paper_default(1);
        assert_eq!(s.node_count, 30);
        assert_eq!(s.range_m, 10.0);
        assert_eq!(s.region, Aabb::from_size(40.0, 40.0));
        // The regime the mechanisms assume: mostly connected, mean degree
        // comfortably above 4 on typical seeds.
        let (_, mean, _) = s.topology().degree_stats();
        assert!(mean > 4.0, "mean degree {mean}");
    }

    #[test]
    fn positions_deterministic_per_seed() {
        let s = Scenario::paper_default(42);
        assert_eq!(s.positions(), s.positions());
        let other = Scenario::paper_default(43);
        assert_ne!(s.positions(), other.positions());
    }

    #[test]
    fn positions_inside_region() {
        let s = Scenario::paper_default(7);
        for p in s.positions() {
            assert!(s.region.contains(p));
        }
    }

    #[test]
    fn grid_deployment_checks_dims() {
        let s = Scenario {
            deployment: DeploymentKind::Grid { cols: 6, rows: 5 },
            ..Scenario::paper_default(1)
        };
        assert_eq!(s.positions().len(), 30);
    }

    #[test]
    #[should_panic(expected = "multiply")]
    fn grid_dims_must_match_count() {
        let s = Scenario {
            deployment: DeploymentKind::Grid { cols: 4, rows: 4 },
            ..Scenario::paper_default(1)
        };
        let _ = s.positions();
    }

    #[test]
    fn poisson_deployment_respects_separation() {
        let s = Scenario {
            deployment: DeploymentKind::PoissonDisk { min_dist: 5.0 },
            ..Scenario::paper_default(3)
        };
        let pts = s.positions();
        assert_eq!(pts.len(), 30);
        for (i, a) in pts.iter().enumerate() {
            for b in &pts[i + 1..] {
                assert!(a.distance(*b) >= 5.0 - 1e-9);
            }
        }
    }

    #[test]
    fn plume_monitoring_layout_never_saturates() {
        // The registry's plume-monitoring deployment: every seed must
        // place all 60 nodes, or `positions()` panics mid-batch.
        let region = Aabb::from_size(100.0, 40.0);
        let short: Vec<u64> = (0..5000u64)
            .filter(|&seed| {
                let mut rng = Rng::substream(seed, crate::runner::STREAM_DEPLOY);
                deploy::poisson_disk(region, 60, 6.0, &mut rng).len() < 60
            })
            .collect();
        assert!(short.is_empty(), "short deployments for seeds {short:?}");
    }

    #[test]
    fn topology_has_all_nodes() {
        let t = Scenario::paper_default(5).topology();
        assert_eq!(t.len(), 30);
        assert_eq!(t.range(), 10.0);
    }

    #[test]
    fn run_config_builders() {
        let cfg = RunConfig::new(Policy::pas_default())
            .with_channel(ChannelKind::IidLoss(0.1))
            .with_horizon(120.0);
        assert_eq!(cfg.channel, ChannelKind::IidLoss(0.1));
        assert_eq!(cfg.horizon_override_s, Some(120.0));
        assert_eq!(cfg.failures.failing_count(), 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn horizon_must_be_positive() {
        let _ = RunConfig::new(Policy::Ns).with_horizon(0.0);
    }
}
