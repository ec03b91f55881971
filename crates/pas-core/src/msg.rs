//! Protocol messages (paper §3.2).
//!
//! Two message types travel the network:
//!
//! * **REQUEST** — "a sensor sends this message to request its neighbors for
//!   stimulus information. This message does not have any payload."
//! * **RESPONSE** — "contains a sensor's location, state, the estimated
//!   spread speed and the predicted arrival time of the stimulus."
//!
//! [`Report`] is the RESPONSE payload. Its `ref_time` field is the *time
//! base* of the report: for a covered sender it is the detection time (the
//! front was at the sender's position then); for an alert sender it is the
//! sender's own predicted arrival (the front is *expected* at the sender's
//! position then). The receiving estimator extrapolates from that point —
//! see [`crate::estimate`].

use crate::state::NodeState;
use pas_geom::Vec2;
use pas_platform::MessageKind;
use pas_sim::SimTime;

/// The RESPONSE payload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Report {
    /// Sender position (the paper's "location").
    pub pos: Vec2,
    /// Sender state at send time.
    pub state: NodeState,
    /// Velocity estimate: *actual* for covered senders, *expected* for alert
    /// senders; `None` when the sender has no estimate yet (e.g. the first
    /// covered node has no covered neighbours to difference against).
    pub velocity: Option<Vec2>,
    /// Time base of the report: detection time (covered) or predicted
    /// arrival at the sender (alert). See module docs.
    pub ref_time: SimTime,
}

/// A frame on the air.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Msg {
    /// Neighbour solicitation (empty payload).
    Request {
        /// Sender node id.
        from: usize,
    },
    /// Stimulus information.
    Response {
        /// Sender node id.
        from: usize,
        /// The payload.
        report: Report,
    },
}

impl Msg {
    /// Sender id.
    pub fn from(&self) -> usize {
        match self {
            Msg::Request { from } | Msg::Response { from, .. } => *from,
        }
    }

    /// The platform-level frame kind (sets airtime and TX energy).
    pub fn kind(&self) -> MessageKind {
        match self {
            Msg::Request { .. } => MessageKind::Request,
            Msg::Response { .. } => MessageKind::Response,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sender_and_kind() {
        let req = Msg::Request { from: 3 };
        assert_eq!(req.from(), 3);
        assert_eq!(req.kind(), MessageKind::Request);

        let resp = Msg::Response {
            from: 7,
            report: Report {
                pos: Vec2::new(1.0, 2.0),
                state: NodeState::Covered,
                velocity: Some(Vec2::new(0.5, 0.0)),
                ref_time: SimTime::from_secs(12.0),
            },
        };
        assert_eq!(resp.from(), 7);
        assert_eq!(resp.kind(), MessageKind::Response);
    }
}
