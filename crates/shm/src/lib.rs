//! # bt-shm: real shared-memory SPMD backend
//!
//! The wall-clock implementation of the backend-neutral
//! [`bt_comm::CommBackend`] / [`bt_comm::SpmdBackend`] traits
//! (DESIGN.md §6.12): `P` genuine rank threads exchanging messages over
//! lock-free single-producer single-consumer channels ([`spsc`]), with
//! the same MPI-flavoured surface and the same pooled
//! [`bt_comm::PanelBuf`] wire format as the virtual-clock simulator
//! (`bt-mpsim`). Where the simulator *models* time, this backend
//! *measures* it: per-rank clocks are real elapsed seconds, and an
//! [`SpmdOutput`](bt_comm::SpmdOutput) from [`run_shm`] carries
//! measured solve times directly comparable against the simulator's
//! predictions under a calibrated model ([`calibrate_shm`]).
//!
//! Select it at the driver layer with `BT_BACKEND=shm`; pin rank
//! threads to cores with `BT_SHM_PIN=1` (Linux).
//!
//! ## Example
//!
//! ```
//! use bt_comm::{CommBackend, CostModel};
//! use bt_shm::run_shm;
//!
//! let out = run_shm(4, CostModel::zero(), |comm| {
//!     comm.allreduce(comm.rank() as u64, |a, b| a + b)
//! });
//! assert_eq!(out.results, vec![6, 6, 6, 6]);
//! assert!(out.modeled_seconds > 0.0); // real seconds, not modeled
//! ```

pub mod calibrate;
pub mod comm;
pub mod runner;
pub mod spsc;

pub use calibrate::{calibrate_shm, measure_transport_shm, ShmCalibration};
pub use comm::ShmComm;
pub use runner::{run_shm, ShmBackend, ShmWorld};
