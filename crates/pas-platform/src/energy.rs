//! Per-node energy metering.
//!
//! [`EnergyMeter`] integrates `power × residency time` as the node moves
//! between [`NodeMode`]s, attributing each joule to a component bucket. The
//! paper's *average energy consumption* metric "consists of both
//! controllers' and communication energy consumption" — the breakdown keeps
//! those separable for the ablation benches.

use crate::power::{McuMode, NodeMode, PowerProfile, RadioMode};
use pas_sim::SimTime;

/// Energy attributed per component, in joules.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// MCU while active (controller energy).
    pub mcu_active_j: f64,
    /// Whole-node sleep energy.
    pub sleep_j: f64,
    /// Radio listening/receiving.
    pub radio_rx_j: f64,
    /// Radio transmitting.
    pub radio_tx_j: f64,
    /// Sleep→active transition overhead.
    pub transition_j: f64,
}

impl EnergyBreakdown {
    /// Total joules across all components.
    #[inline]
    pub fn total_j(&self) -> f64 {
        self.mcu_active_j + self.sleep_j + self.radio_rx_j + self.radio_tx_j + self.transition_j
    }

    /// Communication share (RX + TX), the paper's "communication energy".
    #[inline]
    pub fn comms_j(&self) -> f64 {
        self.radio_rx_j + self.radio_tx_j
    }

    /// Controller share (MCU active + sleep + transitions).
    #[inline]
    pub fn controller_j(&self) -> f64 {
        self.mcu_active_j + self.sleep_j + self.transition_j
    }

    /// Component-wise sum.
    pub fn add(&self, other: &EnergyBreakdown) -> EnergyBreakdown {
        EnergyBreakdown {
            mcu_active_j: self.mcu_active_j + other.mcu_active_j,
            sleep_j: self.sleep_j + other.sleep_j,
            radio_rx_j: self.radio_rx_j + other.radio_rx_j,
            radio_tx_j: self.radio_tx_j + other.radio_tx_j,
            transition_j: self.transition_j + other.transition_j,
        }
    }
}

/// Integrates a node's energy use across mode changes.
///
/// Usage: call [`EnergyMeter::set_mode`] at every state change with the
/// current simulation time; residency in the previous mode is charged at the
/// profile's wattage. [`EnergyMeter::finish`] charges the final open
/// interval.
#[derive(Debug, Clone)]
pub struct EnergyMeter {
    profile: &'static PowerProfile,
    mode: NodeMode,
    since: SimTime,
    acc: EnergyBreakdown,
    transitions: u64,
}

impl EnergyMeter {
    /// Start metering at `start`, in `initial` mode. The profile is borrowed
    /// (`&'static`): one shared profile serves every meter in a simulation,
    /// instead of a per-node copy.
    pub fn new(profile: &'static PowerProfile, initial: NodeMode, start: SimTime) -> Self {
        profile.validate();
        EnergyMeter {
            profile,
            mode: initial,
            since: start,
            acc: EnergyBreakdown::default(),
            transitions: 0,
        }
    }

    /// Current mode.
    #[inline]
    pub fn mode(&self) -> NodeMode {
        self.mode
    }

    /// Number of sleep→active transitions charged so far.
    #[inline]
    pub fn wake_transitions(&self) -> u64 {
        self.transitions
    }

    /// The platform profile being metered against.
    #[inline]
    pub fn profile(&self) -> &PowerProfile {
        self.profile
    }

    fn charge(&mut self, until: SimTime) {
        let dt = until.since(self.since);
        assert!(dt >= -1e-12, "meter time went backwards: {dt}");
        let dt = dt.max(0.0);
        let p = self.profile;
        match (self.mode.mcu(), self.mode.radio()) {
            (McuMode::Sleep, _) => self.acc.sleep_j += p.sleep_w * dt,
            (McuMode::Active, RadioMode::Off) => self.acc.mcu_active_j += p.mcu_active_w * dt,
            (McuMode::Active, RadioMode::Rx) => {
                self.acc.mcu_active_j += p.mcu_active_w * dt;
                self.acc.radio_rx_j += p.radio_rx_w * dt;
            }
            (McuMode::Active, RadioMode::Tx) => {
                self.acc.mcu_active_j += p.mcu_active_w * dt;
                self.acc.radio_tx_j += p.radio_tx_w * dt;
            }
        }
        self.since = until;
    }

    /// Transition to `mode` at time `t`, charging residency in the old mode.
    ///
    /// A sleep→active transition additionally charges the platform's wake-up
    /// overhead (`wake_transition_s` at total-active power).
    pub fn set_mode(&mut self, t: SimTime, mode: NodeMode) {
        self.charge(t);
        if self.mode.is_sleeping() && !mode.is_sleeping() {
            self.acc.transition_j += self.profile.total_active_w() * self.profile.wake_transition_s;
            self.transitions += 1;
        }
        self.mode = mode;
    }

    /// Charge the open interval up to `t` and return the running breakdown
    /// without changing mode.
    pub fn sample(&mut self, t: SimTime) -> EnergyBreakdown {
        self.charge(t);
        self.acc
    }

    /// Close the meter at `t` and return the final breakdown.
    pub fn finish(mut self, t: SimTime) -> EnergyBreakdown {
        self.charge(t);
        self.acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telos::telos_profile_ref;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn always_active_energy() {
        let mut m = EnergyMeter::new(telos_profile_ref(), NodeMode::ACTIVE_RX, t(0.0));
        let e = m.sample(t(100.0));
        // 41 mW for 100 s = 4.1 J.
        assert!((e.total_j() - 4.1).abs() < 1e-9, "{}", e.total_j());
        assert!((e.mcu_active_j - 0.3).abs() < 1e-9);
        assert!((e.radio_rx_j - 3.8).abs() < 1e-9);
        assert_eq!(e.radio_tx_j, 0.0);
        assert_eq!(e.sleep_j, 0.0);
    }

    #[test]
    fn always_sleeping_energy() {
        let mut m = EnergyMeter::new(telos_profile_ref(), NodeMode::SLEEP, t(0.0));
        let e = m.sample(t(1000.0));
        // 15 µW for 1000 s = 15 mJ.
        assert!((e.total_j() - 0.015).abs() < 1e-12);
        assert_eq!(e.comms_j(), 0.0);
    }

    #[test]
    fn duty_cycle_halves() {
        // 50 s active, 50 s sleep.
        let mut m = EnergyMeter::new(telos_profile_ref(), NodeMode::ACTIVE_RX, t(0.0));
        m.set_mode(t(50.0), NodeMode::SLEEP);
        let e = m.finish(t(100.0));
        let want = 0.041 * 50.0 + 15e-6 * 50.0;
        assert!((e.total_j() - want).abs() < 1e-9);
    }

    #[test]
    fn wake_transition_charged_once_per_wake() {
        let p = telos_profile_ref();
        let per_wake = p.total_active_w() * p.wake_transition_s;
        let mut m = EnergyMeter::new(p, NodeMode::SLEEP, t(0.0));
        m.set_mode(t(10.0), NodeMode::ACTIVE_RX); // wake 1
        m.set_mode(t(11.0), NodeMode::SLEEP);
        m.set_mode(t(20.0), NodeMode::ACTIVE_RX); // wake 2
                                                  // Active->active change is NOT a wake.
        m.set_mode(t(21.0), NodeMode::ACTIVE_TX);
        let e = m.sample(t(22.0));
        assert_eq!(m.wake_transitions(), 2);
        assert!((e.transition_j - 2.0 * per_wake).abs() < 1e-12);
    }

    #[test]
    fn tx_energy_separated() {
        let mut m = EnergyMeter::new(telos_profile_ref(), NodeMode::ACTIVE_RX, t(0.0));
        m.set_mode(t(1.0), NodeMode::ACTIVE_TX);
        m.set_mode(t(1.1), NodeMode::ACTIVE_RX);
        let e = m.sample(t(2.0));
        // TX window: 0.1 s at 35 mW.
        assert!((e.radio_tx_j - 0.0035).abs() < 1e-9);
        // RX windows: 1.9 s at 38 mW.
        assert!((e.radio_rx_j - 1.9 * 0.038).abs() < 1e-9);
        // MCU runs the whole 2 s.
        assert!((e.mcu_active_j - 2.0 * 0.003).abs() < 1e-9);
    }

    #[test]
    fn breakdown_sums() {
        let a = EnergyBreakdown {
            mcu_active_j: 1.0,
            sleep_j: 2.0,
            radio_rx_j: 3.0,
            radio_tx_j: 4.0,
            transition_j: 5.0,
        };
        let b = a.add(&a);
        assert_eq!(b.total_j(), 30.0);
        assert_eq!(a.comms_j(), 7.0);
        assert_eq!(a.controller_j(), 8.0);
    }

    #[test]
    fn sample_then_continue() {
        let mut m = EnergyMeter::new(telos_profile_ref(), NodeMode::ACTIVE_RX, t(0.0));
        let e1 = m.sample(t(10.0));
        let e2 = m.sample(t(20.0));
        assert!(e2.total_j() > e1.total_j());
        assert!((e2.total_j() - 2.0 * e1.total_j()).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn time_reversal_panics() {
        let mut m = EnergyMeter::new(telos_profile_ref(), NodeMode::ACTIVE_RX, t(10.0));
        let _ = m.sample(t(5.0));
    }
}
