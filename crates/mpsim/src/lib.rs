//! # bt-mpsim: SPMD message-passing runtime (the simulator backend)
//!
//! The MPI substitute for this reproduction (DESIGN.md §3): the paper ran
//! on a Cray XK7 under MPI; this crate provides the same programming model
//! — rank-based SPMD with point-to-point messages and collectives — with
//! ranks mapped to OS threads and messages to typed channels. It is the
//! virtual-clock implementation of the backend-neutral
//! [`bt_comm::CommBackend`] trait; the shared-memory `bt-shm` crate is
//! the wall-clock one.
//!
//! Three things make it a *measurement* substrate rather than a toy:
//!
//! 1. **Counters** ([`RankStats`]/[`WorldStats`]): every payload byte,
//!    message and reported flop is counted per rank, so analytic
//!    communication-volume and work bounds can be validated exactly.
//! 2. **Virtual time** ([`CostModel`]): each rank carries a clock advanced
//!    by an alpha-beta communication model and a flop-rate computation
//!    model; the modeled parallel runtime (max final clock) reproduces
//!    scaling behaviour for rank counts far beyond the host's cores.
//! 3. **Real parallelism**: ranks are genuine threads, so wall-clock
//!    timings on a multicore host are also meaningful.
//!
//! ## Example: recursive-doubling scan
//!
//! ```
//! use bt_mpsim::{run_spmd, CommBackend, CostModel};
//!
//! // Inclusive prefix sum across 8 ranks in ceil(log2 8) = 3 rounds.
//! let out = run_spmd(8, CostModel::default(), |comm| {
//!     comm.scan_inclusive(comm.rank() as u64 + 1, |a, b| a + b)
//! });
//! assert_eq!(out.results, vec![1, 3, 6, 10, 15, 21, 28, 36]);
//! assert!(out.stats.is_balanced());
//! ```

pub mod calibrate;
pub mod comm;
pub mod runner;
pub mod trace;

pub use bt_comm::{
    panel_pool_drain, CommBackend, CostModel, PanelBuf, Payload, PersistentWorld, RankStats,
    SpmdBackend, SpmdOutput, WorldStats, MAX_RANKS, USER_TAG_LIMIT,
};
pub use calibrate::calibrate;
pub use comm::Comm;
pub use runner::{run_spmd, run_spmd_default, run_spmd_traced, SimBackend, SpmdWorld};
pub use trace::{Trace, TraceEvent};
