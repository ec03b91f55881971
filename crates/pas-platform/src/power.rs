//! Node power states and the platform power profile.
//!
//! A mote is, for energy purposes, the product of two state machines:
//!
//! * the MCU: `Active` (sampling, computing) or `Sleep` (LPM, RAM retention);
//! * the radio: `Off`, `Rx` (listening/receiving) or `Tx` (transmitting).
//!
//! A [`PowerProfile`] maps each combination to watts. Sleep power in the
//! paper's Table 1 is the *whole-node* sleep figure (15 µW), so the radio
//! must be `Off` whenever the MCU sleeps — the type system enforces that via
//! [`NodeMode`]'s constructors.

/// MCU power mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum McuMode {
    /// Running: sensing, estimating, handling messages.
    Active,
    /// Low-power mode; only a wake-up timer runs.
    Sleep,
}

/// Radio power mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RadioMode {
    /// Radio powered down.
    Off,
    /// Listening / receiving.
    Rx,
    /// Transmitting.
    Tx,
}

/// A valid (MCU, radio) combination.
///
/// Invariant: a sleeping MCU implies the radio is off ("sleeping nodes
/// cannot receive" — the premise the whole PAS/SAS comparison rests on).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeMode {
    mcu: McuMode,
    radio: RadioMode,
}

impl NodeMode {
    /// Whole node asleep (MCU sleep, radio off).
    pub const SLEEP: NodeMode = NodeMode {
        mcu: McuMode::Sleep,
        radio: RadioMode::Off,
    };
    /// Awake and listening (MCU active, radio RX) — the paper's
    /// "total active" state at 41 mW.
    pub const ACTIVE_RX: NodeMode = NodeMode {
        mcu: McuMode::Active,
        radio: RadioMode::Rx,
    };
    /// Awake and transmitting.
    pub const ACTIVE_TX: NodeMode = NodeMode {
        mcu: McuMode::Active,
        radio: RadioMode::Tx,
    };
    /// Awake with the radio off (pure sensing/compute).
    pub const ACTIVE_RADIO_OFF: NodeMode = NodeMode {
        mcu: McuMode::Active,
        radio: RadioMode::Off,
    };

    /// Construct, enforcing the sleep ⇒ radio-off invariant.
    ///
    /// # Panics
    /// Panics if `mcu` is `Sleep` and `radio` is not `Off`.
    pub fn new(mcu: McuMode, radio: RadioMode) -> Self {
        assert!(
            !(mcu == McuMode::Sleep && radio != RadioMode::Off),
            "a sleeping MCU cannot keep the radio in {radio:?}"
        );
        NodeMode { mcu, radio }
    }

    /// MCU mode.
    #[inline]
    pub fn mcu(self) -> McuMode {
        self.mcu
    }

    /// Radio mode.
    #[inline]
    pub fn radio(self) -> RadioMode {
        self.radio
    }

    /// `true` if the node can receive a frame in this mode.
    #[inline]
    pub fn can_receive(self) -> bool {
        self.radio == RadioMode::Rx
    }

    /// `true` if the whole node is asleep.
    #[inline]
    pub fn is_sleeping(self) -> bool {
        self.mcu == McuMode::Sleep
    }
}

/// Platform power figures in watts (SI units throughout).
#[derive(Debug, Clone, PartialEq)]
pub struct PowerProfile {
    /// Platform name, for reports.
    pub name: &'static str,
    /// MCU active power (W).
    pub mcu_active_w: f64,
    /// Whole-node sleep power (W).
    pub sleep_w: f64,
    /// Radio receive/listen power (W).
    pub radio_rx_w: f64,
    /// Radio transmit power (W).
    pub radio_tx_w: f64,
    /// Radio data rate (bit/s).
    pub data_rate_bps: f64,
    /// Time to transition sleep→active (s); energy during the transition is
    /// charged at MCU-active + radio-RX power (the radio oscillator is the
    /// dominant startup cost on Telos-class hardware).
    pub wake_transition_s: f64,
}

impl PowerProfile {
    /// Validate invariants.
    ///
    /// # Panics
    /// Panics on non-positive powers/rates or sleep power above active.
    pub fn validate(&self) {
        assert!(self.mcu_active_w > 0.0, "mcu_active_w must be > 0");
        assert!(self.sleep_w > 0.0, "sleep_w must be > 0");
        assert!(self.radio_rx_w > 0.0, "radio_rx_w must be > 0");
        assert!(self.radio_tx_w > 0.0, "radio_tx_w must be > 0");
        assert!(self.data_rate_bps > 0.0, "data_rate_bps must be > 0");
        assert!(
            self.wake_transition_s >= 0.0,
            "wake_transition_s must be >= 0"
        );
        assert!(
            self.sleep_w < self.mcu_active_w,
            "sleep power must undercut active power"
        );
    }

    /// Power draw (W) of a node in `mode`.
    pub fn power_of(&self, mode: NodeMode) -> f64 {
        match (mode.mcu(), mode.radio()) {
            (McuMode::Sleep, _) => self.sleep_w,
            (McuMode::Active, RadioMode::Off) => self.mcu_active_w,
            (McuMode::Active, RadioMode::Rx) => self.mcu_active_w + self.radio_rx_w,
            (McuMode::Active, RadioMode::Tx) => self.mcu_active_w + self.radio_tx_w,
        }
    }

    /// The paper's "total active power": MCU active + radio RX.
    #[inline]
    pub fn total_active_w(&self) -> f64 {
        self.mcu_active_w + self.radio_rx_w
    }

    /// Airtime (s) of a frame of `bits` at this platform's data rate.
    #[inline]
    pub fn airtime_s(&self, bits: usize) -> f64 {
        bits as f64 / self.data_rate_bps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telos::telos_profile;

    #[test]
    fn mode_invariant_enforced() {
        let m = NodeMode::new(McuMode::Active, RadioMode::Rx);
        assert!(m.can_receive());
        assert!(!m.is_sleeping());
        assert!(NodeMode::SLEEP.is_sleeping());
        assert!(!NodeMode::SLEEP.can_receive());
    }

    #[test]
    #[should_panic(expected = "sleeping MCU")]
    fn sleeping_with_radio_rx_panics() {
        let _ = NodeMode::new(McuMode::Sleep, RadioMode::Rx);
    }

    #[test]
    fn power_mapping_matches_table1() {
        let p = telos_profile();
        // Table 1: total active = 41 mW = MCU 3 mW + RX 38 mW.
        assert!((p.power_of(NodeMode::ACTIVE_RX) - 0.041).abs() < 1e-12);
        assert!((p.power_of(NodeMode::SLEEP) - 15e-6).abs() < 1e-15);
        assert!((p.power_of(NodeMode::ACTIVE_TX) - (0.003 + 0.035)).abs() < 1e-12);
        assert!((p.power_of(NodeMode::ACTIVE_RADIO_OFF) - 0.003).abs() < 1e-12);
        assert!((p.total_active_w() - 0.041).abs() < 1e-12);
    }

    #[test]
    fn sleep_is_three_orders_below_active() {
        let p = telos_profile();
        let ratio = p.power_of(NodeMode::ACTIVE_RX) / p.power_of(NodeMode::SLEEP);
        assert!(ratio > 1000.0, "duty-cycling must pay off, ratio {ratio}");
    }

    #[test]
    fn airtime_at_250kbps() {
        let p = telos_profile();
        // 250 bits at 250 kbit/s = 1 ms.
        assert!((p.airtime_s(250) - 1e-3).abs() < 1e-12);
        assert_eq!(p.airtime_s(0), 0.0);
    }

    #[test]
    fn validate_accepts_telos() {
        telos_profile().validate();
    }

    #[test]
    #[should_panic(expected = "undercut")]
    fn validate_rejects_inverted_sleep() {
        let mut p = telos_profile();
        p.sleep_w = 1.0;
        p.validate();
    }
}
