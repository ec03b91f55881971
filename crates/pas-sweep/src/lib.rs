//! # pas-sweep — deterministic parallel parameter sweeps
//!
//! Every figure in the paper is a parameter sweep (max sleep interval,
//! alert threshold) × policies × replicate seeds. Each simulation run is
//! single-threaded and deterministic; the sweep layer fans runs out across
//! cores and reassembles results **in input order**, so a parallel sweep is
//! bit-identical to a sequential one.
//!
//! Design (per the hpc-parallel guides):
//!
//! * `std::thread::scope` scoped threads — no `'static` bounds, no channels
//!   on the hot path, work claimed from an atomic cursor (runs have similar
//!   cost, so striding beats work stealing here);
//! * results land in pre-allocated slots (`Vec<Option<R>>` behind a
//!   `parking_lot::Mutex` per slot is unnecessary — each slot is written by
//!   exactly one worker, so a mutex-free design with per-index ownership is
//!   used via `split_at_mut` chunks of a claim array… in practice we simply
//!   collect `(index, result)` pairs per worker and merge, which is simpler
//!   and still allocation-light).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod persistent;
pub mod pool;

pub use persistent::WorkerPool;
pub use pool::{parallel_map, parallel_map_progress, parallel_map_with, SweepOptions};

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::persistent::WorkerPool;
    pub use crate::pool::{parallel_map, parallel_map_progress, parallel_map_with, SweepOptions};
}
