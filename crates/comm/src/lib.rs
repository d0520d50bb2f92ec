//! Backend-neutral communication layer for the block tridiagonal suite.
//!
//! Everything a distributed solver needs to be written once and run on
//! any SPMD backend lives here:
//!
//! * [`CommBackend`] — the per-rank communicator trait: point-to-point
//!   sends/receives, pooled panel transport, accounting hooks, and the
//!   full collective suite as provided methods (identical message
//!   patterns and tag sequences on every backend).
//! * [`SpmdBackend`] / [`PersistentWorld`] — how to launch rank
//!   programs: one-shot scoped runs and reusable persistent worlds.
//! * [`Payload`] / [`PanelBuf`] — the wire format, with a process-wide
//!   buffer pool shared by all backends.
//! * [`CostModel`] — the alpha-beta/flop-rate model: the simulator's
//!   clock, and the calibrated reference real backends compare against.
//! * [`RankStats`] / [`WorldStats`] — per-rank counters.
//!
//! Implementations in-tree: `bt-mpsim` (virtual-clock simulator) and
//! `bt-shm` (real shared-memory threads). The trait seam is also where a
//! future MPI/RDMA backend would plug in.

pub mod backend;
pub mod model;
pub mod payload;
pub mod spmd;
pub mod stats;

pub use backend::{CommBackend, USER_TAG_LIMIT};
pub use model::CostModel;
pub use payload::{panel_pool_drain, PanelBuf, Payload};
pub use spmd::{PersistentWorld, SpmdBackend, SpmdOutput, MAX_RANKS};
pub use stats::{RankStats, WorldStats};
