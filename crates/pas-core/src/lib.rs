//! # pas-core — Prediction-based Adaptive Sleeping (PAS)
//!
//! The paper's contribution, implemented on the substrates in the sibling
//! crates: sensor nodes monitoring a diffusion stimulus coordinate their
//! sleep schedules by *predicting* the stimulus arrival time at each node
//! and keeping only the nodes inside an *alert ring* awake.
//!
//! ## The algorithm (paper §3)
//!
//! Every node is in one of three states:
//!
//! * **Covered** — has detected the stimulus. Stays awake, answers
//!   REQUESTs with its detection time and *actual velocity* estimate.
//! * **Alert** — predicted arrival within the *alert threshold*. Stays
//!   awake, relays *expected velocity* / *expected arrival* estimates.
//! * **Safe** — no stimulus expected soon. Sleeps with a linearly growing
//!   interval (+Δt per wake-up, capped at the maximum sleep interval);
//!   each wake-up probes the neighbourhood with a REQUEST.
//!
//! Estimators (§3.3, [`estimate`]):
//!
//! * actual velocity `v_X = (1/n) Σ_I IX→ / t_I` over covered neighbours;
//! * expected velocity = mean of neighbour velocity reports;
//! * expected arrival `t_X = min_I ( ref_I + |IX| cos θ_I / |v_I| )`.
//!
//! ## Predictors ([`predictor`])
//!
//! The arrival estimator is pluggable: [`AdaptiveParams::predictor`]
//! mounts a [`PredictorSpec`] variant — the paper's planar front, the
//! SAS non-directional baseline, a Kalman-filtered velocity fusion, or a
//! robust k-th-smallest quantile fusion — and the runner dispatches
//! through a plain `match` (enum dispatch, no trait objects on the hot
//! path). The default spec resolves to the policy kind's own estimator,
//! so `Policy::Pas(params)` / `Policy::Sas(params)` behave exactly as
//! before the predictor layer existed.
//!
//! ## Policies ([`policy`])
//!
//! * [`Policy::Ns`] — no sleeping: always awake (zero delay, max energy).
//! * [`Policy::Sas`] — Ngan et al.'s stimulus-based adaptive sleeping,
//!   reconstructed as the paper characterises it: the degenerate PAS with a
//!   minimal alert ring, covered-neighbour-only information and a
//!   non-directional arrival estimate.
//! * [`Policy::Pas`] — the full mechanism.
//! * [`Policy::Oracle`] — the paper's §3.1 "ideal case": wake exactly at
//!   stimulus arrival. Unimplementable in reality; the lower bound both
//!   metrics are measured against in the ablations.
//!
//! ## Running experiments
//!
//! [`runner::run`] wires a [`Scenario`] (deployment + topology), a
//! `StimulusField` ground truth, and a [`RunConfig`] into a deterministic
//! discrete-event simulation, returning the paper's two metrics plus
//! diagnostics. The full experiment set is the scenario registry's
//! manifests, run through `pas run` / `pas report`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod estimate;
pub mod failure;
pub mod msg;
pub mod node;
pub mod policy;
pub mod predictor;
pub mod runner;
pub mod state;
pub mod timeline;

pub use config::{ChannelKind, DeploymentKind, RunConfig, Scenario};
pub use failure::FailurePlan;
pub use msg::{Msg, Report};
pub use policy::{AdaptiveParams, Policy};
pub use predictor::{KalmanParams, PredictorSpec, QuantileParams, PREDICTOR_NAMES};
pub use runner::{run, RunResult};
pub use state::NodeState;
pub use timeline::Timeline;

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::config::{ChannelKind, DeploymentKind, RunConfig, Scenario};
    pub use crate::failure::FailurePlan;
    pub use crate::policy::{AdaptiveParams, Policy};
    pub use crate::predictor::{KalmanParams, PredictorSpec, QuantileParams};
    pub use crate::runner::{run, RunResult};
    pub use crate::state::NodeState;
    pub use crate::timeline::Timeline;
}
