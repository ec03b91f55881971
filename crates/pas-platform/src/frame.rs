//! Message frame sizing and airtime.
//!
//! The paper defines two messages (§3.2):
//!
//! * **REQUEST** — "does not have any payload": just headers.
//! * **RESPONSE** — "contains a sensor's location, state, the estimated
//!   spread speed and the predicted arrival time of the stimulus".
//!
//! We size them as IEEE 802.15.4 frames (the Telos radio is a CC2420):
//! 6 bytes PHY synchronisation header + 11 bytes MAC header (FCF, sequence,
//! PAN + short addresses) + payload + 2 bytes FCS. Airtime at 250 kbps then
//! sets both the transmission latency and the TX/RX energy per message.

use crate::power::PowerProfile;

/// PHY preamble + SFD + length byte (IEEE 802.15.4): 6 octets.
pub const PHY_HEADER_BYTES: usize = 6;
/// Compact MAC header (FCF 2, seq 1, PAN 2, dst 2, src 2) + LQI/FCS 2 = 11.
pub const MAC_HEADER_BYTES: usize = 11;

/// The PAS protocol message kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MessageKind {
    /// Neighbour solicitation; empty payload.
    Request,
    /// Stimulus information: location (2×f32), state (u8), velocity vector
    /// (2×f32), predicted arrival (f32), detection timestamp (f32).
    Response,
}

impl MessageKind {
    /// Application payload size in bytes.
    pub fn payload_bytes(self) -> usize {
        match self {
            MessageKind::Request => 0,
            // 8 (location) + 1 (state) + 8 (velocity) + 4 (arrival) + 4 (detect t)
            MessageKind::Response => 25,
        }
    }
}

/// Frame layout: header overhead applied to every message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameSpec {
    /// Bytes of PHY-level overhead per frame.
    pub phy_header_bytes: usize,
    /// Bytes of MAC-level overhead per frame.
    pub mac_header_bytes: usize,
}

impl Default for FrameSpec {
    fn default() -> Self {
        FrameSpec {
            phy_header_bytes: PHY_HEADER_BYTES,
            mac_header_bytes: MAC_HEADER_BYTES,
        }
    }
}

impl FrameSpec {
    /// Total on-air size of a message, in bytes.
    pub fn frame_bytes(&self, kind: MessageKind) -> usize {
        self.phy_header_bytes + self.mac_header_bytes + kind.payload_bytes()
    }

    /// Total on-air size in bits.
    #[inline]
    pub fn frame_bits(&self, kind: MessageKind) -> usize {
        self.frame_bytes(kind) * 8
    }

    /// Airtime of a message on `profile`'s radio, in seconds.
    pub fn airtime_s(&self, kind: MessageKind, profile: &PowerProfile) -> f64 {
        profile.airtime_s(self.frame_bits(kind))
    }

    /// TX energy to send one message, in joules (radio TX power × airtime;
    /// the MCU-active share is metered separately by the caller's
    /// [`crate::EnergyMeter`]).
    pub fn tx_energy_j(&self, kind: MessageKind, profile: &PowerProfile) -> f64 {
        profile.radio_tx_w * self.airtime_s(kind, profile)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telos::telos_profile;

    #[test]
    fn payload_sizes_match_paper() {
        assert_eq!(MessageKind::Request.payload_bytes(), 0, "REQUEST is empty");
        assert_eq!(MessageKind::Response.payload_bytes(), 25);
    }

    #[test]
    fn frame_sizes_include_headers() {
        let spec = FrameSpec::default();
        assert_eq!(spec.frame_bytes(MessageKind::Request), 17);
        assert_eq!(spec.frame_bytes(MessageKind::Response), 42);
        assert_eq!(spec.frame_bits(MessageKind::Request), 136);
    }

    #[test]
    fn airtime_at_telos_rate() {
        let spec = FrameSpec::default();
        let p = telos_profile();
        // 136 bits / 250 kbps = 544 µs.
        let t_req = spec.airtime_s(MessageKind::Request, &p);
        assert!((t_req - 544e-6).abs() < 1e-12);
        // 336 bits / 250 kbps = 1.344 ms.
        let t_resp = spec.airtime_s(MessageKind::Response, &p);
        assert!((t_resp - 1.344e-3).abs() < 1e-12);
        assert!(t_resp > t_req, "payload costs airtime");
    }

    #[test]
    fn tx_energy_scales_with_size() {
        let spec = FrameSpec::default();
        let p = telos_profile();
        let e_req = spec.tx_energy_j(MessageKind::Request, &p);
        let e_resp = spec.tx_energy_j(MessageKind::Response, &p);
        // 35 mW × 544 µs ≈ 19 µJ.
        assert!((e_req - 0.035 * 544e-6).abs() < 1e-12);
        assert!(e_resp > e_req);
    }

    #[test]
    fn custom_spec() {
        let spec = FrameSpec {
            phy_header_bytes: 0,
            mac_header_bytes: 0,
        };
        assert_eq!(spec.frame_bytes(MessageKind::Request), 0);
        assert_eq!(spec.frame_bytes(MessageKind::Response), 25);
    }
}
