//! The SPMD runtime of the block tridiagonal suite.
//!
//! Everything a distributed solver needs to be written once and run
//! lives here:
//!
//! * [`CommBackend`] — the per-rank communicator trait: point-to-point
//!   sends/receives, panel transport, accounting hooks, and the
//!   full collective suite as provided methods.
//! * [`Comm`], [`run_spmd`], [`SpmdWorld`] — the one runtime: `P` rank
//!   threads over a lock-free SPSC mesh ([`spsc`]), one-shot or
//!   persistent. Every envelope carries its modeled arrival time, so the
//!   modeled clock always runs; a world's clock decides only what
//!   [`CommBackend::virtual_time`] reports.
//! * [`SpmdBackend`] — the two clock selectors session/service layers
//!   are generic over: [`SimBackend`] reports the modeled clock,
//!   [`ShmBackend`] wall seconds.
//! * [`Payload`] — the wire format: any sendable value that reports its
//!   byte size.
//! * [`CostModel`] — the alpha-beta/flop-rate model that defines the
//!   modeled clock, and [`calibrate_shm`], which fits it to this host.
//! * [`RankStats`] / [`WorldStats`] — per-rank counters, and [`Trace`],
//!   the modeled-clock event timeline.
//!
//! `bt-mpsim` and `bt-shm` re-export the names their callers use. The
//! trait seam is also where a future MPI/RDMA backend would plug in.

pub mod backend;
pub mod calibrate;
pub mod comm;
pub mod model;
pub mod payload;
pub mod runner;
pub mod spsc;
pub mod stats;
pub mod trace;

pub use backend::{CommBackend, USER_TAG_LIMIT};
pub use calibrate::{calibrate_shm, measure_transport_shm, ShmCalibration};
pub use comm::Comm;
pub use model::CostModel;
pub use payload::Payload;
pub use runner::{
    run_spmd, run_spmd_traced, ShmBackend, SimBackend, SpmdBackend, SpmdOutput, SpmdWorld,
    MAX_RANKS,
};
pub use stats::{RankStats, WorldStats};
pub use trace::{Trace, TraceEvent};
