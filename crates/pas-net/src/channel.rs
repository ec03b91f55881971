//! Per-link channel models.
//!
//! The paper assumes reliable delivery and defers "imperfect communication
//! channel" to future work (§5). We build that future work as an ablation:
//! a [`ChannelModel`] decides, per (link, frame), whether the frame arrives,
//! and how much extra latency it suffers beyond the deterministic airtime.
//!
//! Loss is sampled per *receiver* of a broadcast — independent links, the
//! standard unit-disk abstraction.

use pas_sim::Rng;

/// A stochastic per-link delivery model.
pub trait ChannelModel: Send + Sync {
    /// Does a frame on a link of length `dist` (within `range`) arrive?
    fn delivers(&self, dist: f64, range: f64, rng: &mut Rng) -> bool;

    /// Extra per-frame latency (seconds) beyond airtime: processing and MAC
    /// jitter. Defaults to a small uniform jitter to break synchronisation
    /// artefacts; deterministic models may return 0.
    fn extra_delay_s(&self, rng: &mut Rng) -> f64 {
        // 0–2 ms software/MAC latency, typical for TinyOS-class stacks.
        rng.range_f64(0.0, 2.0e-3)
    }
}

/// Every frame within range arrives (the paper's §4 assumption).
#[derive(Debug, Clone, Copy, Default)]
pub struct PerfectChannel;

impl ChannelModel for PerfectChannel {
    fn delivers(&self, _dist: f64, _range: f64, _rng: &mut Rng) -> bool {
        true
    }
}

/// Independent and identically distributed loss: every frame is dropped with
/// probability `loss`.
#[derive(Debug, Clone, Copy)]
pub struct IidLossChannel {
    loss: f64,
}

impl IidLossChannel {
    /// Create with loss probability in `[0, 1)`.
    ///
    /// # Panics
    /// Panics outside that interval (1.0 would silence the network).
    pub fn new(loss: f64) -> Self {
        assert!((0.0..1.0).contains(&loss), "loss must be in [0, 1)");
        IidLossChannel { loss }
    }

    /// The configured loss probability.
    #[inline]
    pub fn loss(&self) -> f64 {
        self.loss
    }
}

impl ChannelModel for IidLossChannel {
    fn delivers(&self, _dist: f64, _range: f64, rng: &mut Rng) -> bool {
        !rng.bernoulli(self.loss)
    }
}

/// Distance-dependent loss: reliable up to `good_fraction · range`, then
/// loss rises linearly to `edge_loss` at the range boundary — the standard
/// "grey region" observed in real 802.15.4 links.
#[derive(Debug, Clone, Copy)]
pub struct DistanceLossChannel {
    good_fraction: f64,
    edge_loss: f64,
}

impl DistanceLossChannel {
    /// Create with the reliable fraction of the range and the loss at the
    /// very edge.
    ///
    /// # Panics
    /// Panics if `good_fraction` is outside `[0, 1]` or `edge_loss` outside
    /// `[0, 1]`.
    pub fn new(good_fraction: f64, edge_loss: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&good_fraction),
            "good_fraction in [0, 1]"
        );
        assert!((0.0..=1.0).contains(&edge_loss), "edge_loss in [0, 1]");
        DistanceLossChannel {
            good_fraction,
            edge_loss,
        }
    }

    /// Loss probability at link length `dist` within `range`.
    pub fn loss_at(&self, dist: f64, range: f64) -> f64 {
        let knee = self.good_fraction * range;
        if dist <= knee {
            return 0.0;
        }
        let span = range - knee;
        if span <= 0.0 {
            return self.edge_loss;
        }
        ((dist - knee) / span).clamp(0.0, 1.0) * self.edge_loss
    }
}

impl ChannelModel for DistanceLossChannel {
    fn delivers(&self, dist: f64, range: f64, rng: &mut Rng) -> bool {
        !rng.bernoulli(self.loss_at(dist, range))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_always_delivers() {
        let mut rng = Rng::new(1);
        let c = PerfectChannel;
        for _ in 0..100 {
            assert!(c.delivers(9.99, 10.0, &mut rng));
        }
    }

    #[test]
    fn iid_loss_frequency() {
        let mut rng = Rng::new(2);
        let c = IidLossChannel::new(0.25);
        let n = 40_000;
        let delivered = (0..n).filter(|_| c.delivers(5.0, 10.0, &mut rng)).count();
        let rate = delivered as f64 / n as f64;
        assert!((rate - 0.75).abs() < 0.01, "delivery rate {rate}");
    }

    #[test]
    fn iid_zero_loss_is_perfect() {
        let mut rng = Rng::new(3);
        let c = IidLossChannel::new(0.0);
        assert!((0..1000).all(|_| c.delivers(1.0, 10.0, &mut rng)));
    }

    #[test]
    #[should_panic(expected = "[0, 1)")]
    fn iid_rejects_total_loss() {
        let _ = IidLossChannel::new(1.0);
    }

    #[test]
    fn distance_loss_curve() {
        let c = DistanceLossChannel::new(0.8, 0.5);
        assert_eq!(c.loss_at(0.0, 10.0), 0.0);
        assert_eq!(c.loss_at(8.0, 10.0), 0.0); // knee
        assert!((c.loss_at(9.0, 10.0) - 0.25).abs() < 1e-12); // halfway up
        assert!((c.loss_at(10.0, 10.0) - 0.5).abs() < 1e-12); // edge
    }

    #[test]
    fn distance_loss_sampling_matches_curve() {
        let mut rng = Rng::new(4);
        let c = DistanceLossChannel::new(0.5, 0.8);
        let n = 40_000;
        // At the edge: loss 0.8 -> delivery 0.2.
        let edge = (0..n).filter(|_| c.delivers(10.0, 10.0, &mut rng)).count();
        let rate = edge as f64 / n as f64;
        assert!((rate - 0.2).abs() < 0.01, "edge delivery {rate}");
        // Inside the knee: always delivers.
        assert!((0..1000).all(|_| c.delivers(4.9, 10.0, &mut rng)));
    }

    #[test]
    fn degenerate_knee_at_range() {
        // good_fraction = 1: the knee sits at the range boundary, so every
        // in-range link is in the reliable zone and nothing is lost.
        let c = DistanceLossChannel::new(1.0, 0.7);
        assert_eq!(c.loss_at(9.99, 10.0), 0.0);
        assert_eq!(c.loss_at(10.0, 10.0), 0.0);
        // Hypothetical beyond-range distance falls in the zero-width grey
        // zone and takes the full edge loss.
        assert_eq!(c.loss_at(10.5, 10.0), 0.7);
    }

    #[test]
    fn extra_delay_bounded_and_deterministic() {
        let c = PerfectChannel;
        let mut a = Rng::new(5);
        let mut b = Rng::new(5);
        for _ in 0..100 {
            let d1 = c.extra_delay_s(&mut a);
            let d2 = c.extra_delay_s(&mut b);
            assert_eq!(d1, d2);
            assert!((0.0..2.0e-3).contains(&d1));
        }
    }
}
