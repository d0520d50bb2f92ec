//! # bt-mpsim: the simulator's names for the SPMD runtime
//!
//! The MPI substitute for this reproduction (DESIGN.md §3): the paper ran
//! on a Cray XK7 under MPI; the runtime in `bt-comm` provides the same
//! programming model — rank-based SPMD with point-to-point messages and
//! collectives — with ranks mapped to OS threads. This crate re-exports
//! it under the names the simulator's callers use: [`run_spmd`],
//! [`SpmdWorld::new`] and [`SimBackend`] report the modeled clock.
//!
//! Three things make it a *measurement* substrate rather than a toy:
//!
//! 1. **Counters** ([`RankStats`]/[`WorldStats`]): every payload byte,
//!    message and reported flop is counted per rank, so analytic
//!    communication-volume and work bounds can be validated exactly.
//! 2. **Modeled time** ([`CostModel`]): each rank carries a clock advanced
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

pub use bt_comm::{
    run_spmd, run_spmd_traced, Comm, CommBackend, CostModel, Payload, RankStats, SimBackend,
    SpmdBackend, SpmdOutput, SpmdWorld, Trace, TraceEvent, WorldStats, MAX_RANKS, USER_TAG_LIMIT,
};
