//! # bt-blocktri: block tridiagonal systems
//!
//! Storage, generators and sequential baselines for block tridiagonal
//! linear systems `T x = y` with `N` block rows of order `M` and `R`
//! simultaneous right-hand sides:
//!
//! * [`BlockTridiag`] / [`BlockVec`] — the matrix and multi-RHS panel
//!   types ([`matrix`]);
//! * [`gen`] — deterministic per-row system generators (Poisson,
//!   convection-diffusion, random dominant, Toeplitz), so distributed
//!   ranks materialize only their own rows;
//! * [`ThomasFactors`] — the `O(N M^3)` sequential block LU baseline with
//!   a factor-once / solve-many API ([`thomas`]);
//! * [`cyclic_reduction_solve`] — sequential block cyclic reduction, the
//!   BCYCLIC-style related-work baseline ([`cyclic_reduction`]);
//! * [`RowPartition`] — contiguous block-row distribution over ranks
//!   ([`partition`]).
//!
//! ## Quick example
//!
//! ```
//! use bt_blocktri::gen::{materialize, random_rhs, Poisson2D};
//! use bt_blocktri::thomas::thomas_solve;
//!
//! let t = materialize(&Poisson2D::new(32, 8)); // 32 block rows, 8x8 blocks
//! let y = random_rhs(32, 8, 4, 0);             // 4 right-hand sides
//! let x = thomas_solve(&t, &y).unwrap();
//! assert!(t.rel_residual(&x, &y) < 1e-12);
//! ```

pub mod cyclic_reduction;
pub mod gen;
pub mod matrix;
pub mod partition;
pub mod thomas;

pub use cyclic_reduction::cyclic_reduction_solve;
pub use matrix::{BlockRow, BlockRowSource, BlockTridiag, BlockVec};
pub use partition::RowPartition;
pub use thomas::{
    thomas_factor_flops, thomas_solve, thomas_solve_flops, FactorError, ThomasFactors,
};
