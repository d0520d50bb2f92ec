//! # bt-shm: the wall-clock names for the SPMD runtime
//!
//! [`ShmBackend`] runs rank programs on the one runtime in `bt-comm`
//! (DESIGN.md §6.12) — `P` genuine rank threads over lock-free
//! single-producer single-consumer channels — with each rank's clock
//! reading real elapsed seconds, so an
//! [`SpmdOutput`](bt_comm::SpmdOutput) carries measured times directly
//! comparable against the modeled clock under a calibrated model
//! ([`calibrate_shm`]).
//!
//! ## Example
//!
//! ```
//! use bt_comm::{CommBackend, CostModel};
//! use bt_shm::{ShmBackend, SpmdBackend};
//!
//! let out = ShmBackend::run(4, CostModel::zero(), |comm| {
//!     comm.allreduce(comm.rank() as u64, |a, b| a + b)
//! });
//! assert_eq!(out.results, vec![6, 6, 6, 6]);
//! assert!(out.modeled_seconds > 0.0); // real seconds, not modeled
//! ```

pub use bt_comm::{calibrate_shm, measure_transport_shm, ShmBackend, ShmCalibration, SpmdBackend};
