//! # bt-ard: (accelerated) recursive doubling for block tridiagonal systems
//!
//! Reproduction of S. Seal, *"An Accelerated Recursive Doubling Algorithm
//! for Block Tridiagonal Systems"*, IPDPS 2014. Given a block tridiagonal
//! system with `N` block rows of order `M` on `P` ranks:
//!
//! * **Classic recursive doubling (RD)** solves one right-hand-side batch
//!   in `O(M^3 (N/P + log P))` — a prefix computation over companion
//!   matrices (Phase 1) and affine maps (Phases 2/3).
//! * **Accelerated recursive doubling (ARD)** — the paper's contribution —
//!   observes that *all* matrix-dependent scan work is independent of the
//!   right-hand sides. One `O(M^3 (N/P + log P))` [`setup`] stores the
//!   block-diagonal factorizations, the per-row elimination multipliers
//!   and the cross-rank scan matrices; each of the `R` subsequent solves
//!   then costs only `O(M^2 R (N/P + log P))` and ships `M x R` panels
//!   instead of `M x M` matrices. Over `R` right-hand sides this is an `O(R)`
//!   improvement (saturating at `O(M)`), with `R ~ 10^2..10^4` in the
//!   paper's applications.
//!
//! [`setup`]: state::ArdRankFactors::setup
//!
//! ## Module map
//!
//! * [`companion`] — Phase 1 machinery: renormalized companion/Möbius
//!   products and states;
//! * [`pairs`] — the affine scan element of Phases 2/3;
//! * [`scans`] — cross-rank Kogge-Stone scans (fresh / recorded / replay);
//! * [`state`] — rank-level setup/solve (the library's core API);
//! * [`session`] — [`RankFactors`], one rank's factors of any
//!   [`FactorKind`], and the session that keeps them between solves;
//! * [`driver`] — whole-run drivers over the `bt-mpsim` runtime;
//! * [`complexity`] — the paper's cost model with this implementation's
//!   constants, validated against measured counters.
//!
//! ## Quick example
//!
//! ```
//! use bt_ard::driver::ard_solve_dist;
//! use bt_blocktri::gen::{materialize, random_rhs, ClusteredToeplitz};
//! use bt_mpsim::CostModel;
//!
//! let src = ClusteredToeplitz::standard(64, 4, 42); // N=64 rows, 4x4 blocks
//! let batches: Vec<_> = (0..3).map(|s| random_rhs(64, 4, 8, s)).collect();
//! let out = ard_solve_dist(4, CostModel::cluster(), &src, &batches).unwrap();
//!
//! let t = materialize(&src);
//! for (x, y) in out.x.iter().zip(&batches) {
//!     assert!(t.rel_residual(x, y) < 1e-10);
//! }
//! ```

pub mod auto;
pub mod batch;
pub mod companion;
pub mod complexity;
pub mod driver;
pub mod pairs;
pub mod pcr;
pub mod refine;
pub mod scans;
pub mod service;
pub mod session;
pub mod spike;
pub mod state;
pub mod toeplitz;

pub use auto::{auto_solve, choose_strategy, AutoOutcome, Chosen, Strategy};
pub use batch::{solve_single, BatchFactorError, BatchedFactors, BatchedSystems};
pub use driver::{
    ard_solve_cfg, ard_solve_cfg_on, ard_solve_dist, pcr_solve_cfg, pcr_solve_cfg_on, rd_solve_cfg,
    rd_solve_dist, spike_solve_cfg, DistOutcome, DriverConfig, PhaseTimings,
};
pub use pcr::PcrRankFactors;
pub use refine::RefinedSolve;
pub use service::{
    MatrixKey, RowDefect, ServiceConfig, ServiceError, ServiceOn, ServiceStats, SolveResponse,
    SolveTicket, SolverService,
};
pub use session::{ArdSession, ArdSessionOn, FactorKind, RankFactors};
pub use spike::SpikeRankFactors;
pub use state::{ArdRankFactors, BoundaryMode, RankSystem, ReplayFactors};
pub use toeplitz::{detect_toeplitz, ToeplitzRankFactors};
