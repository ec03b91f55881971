//! # pas-bench — bench-result history and regression gate
//!
//! The one schema every `pas bench` mode appends its results to, and the
//! throughput gate `pas bench --gate` runs over those files (see
//! [`history`]). The paper's figures are not produced here: they are
//! registry manifests run through `pas run` / `pas report`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod history;

pub use history::{
    append, civil_date, gate, throughput, throughput_by_key, BenchHistory, GateOutcome,
    HistoryEntry, HistoryError, BENCH_SCHEMA_VERSION, DEFAULT_MAX_DROP_PCT,
};
