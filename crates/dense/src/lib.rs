//! # bt-dense: dense linear algebra kernels for the block tridiagonal suite
//!
//! Self-contained `f64` dense linear algebra — the BLAS/LAPACK substitute
//! this reproduction builds on (see DESIGN.md §3). Provides:
//!
//! * [`Mat`] — owned column-major matrix ([`mat`]);
//! * [`MatRef`]/[`MatMut`] — borrowed column-major views ([`view`]);
//! * [`gemm()`]/[`matmul`]/[`gemv`] — blocked matrix multiply (module [`mod@gemm`]),
//!   dispatched over runtime-detected SIMD kernels ([`simd`]);
//! * [`LuFactors`] — partially pivoted LU with factor-once / solve-many
//!   panel solves ([`lu`]);
//! * [`CholFactors`] — Cholesky for SPD blocks ([`cholesky`]);
//! * norms and condition estimates ([`norms`]);
//! * seeded random matrix generators ([`random`]).
//!
//! Everything is pure Rust with no external BLAS. The only `unsafe` in
//! the crate is the explicit-SIMD kernel layer ([`simd`]): runtime
//! CPU-feature dispatch (AVX2+FMA on x86_64, NEON on aarch64, portable
//! scalar fallback, `BT_DENSE_SIMD=0` override) behind length-checked
//! safe wrappers. Flop-count helpers (`gemm_flops`, `lu_flops`, ...)
//! feed the virtual-time cost model in `bt-mpsim`.
//!
//! ## Quick example
//!
//! ```
//! use bt_dense::{matmul, invert, Mat};
//!
//! let a = Mat::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
//! let inv = invert(&a).unwrap();
//! let prod = matmul(&a, &inv);
//! assert!(prod.sub(&Mat::identity(2)).max_abs() < 1e-12);
//! ```

pub mod batch;
pub mod cholesky;
pub mod gemm;
pub mod lu;
pub mod mat;
pub mod norms;
pub mod random;
pub mod simd;
pub mod threading;
pub mod view;

pub use batch::{batch_gemm, batch_lu_factor, batch_lu_solve, BatchMat, BatchSingularError};
pub use cholesky::{cholesky_flops, CholFactors};
pub use gemm::{gemm, gemm_axpy, gemm_flops, gemm_packed, gemm_small, gemv, matmul, matvec, Trans};
pub use lu::{invert, lu_flops, lu_solve_flops, solve, LuFactors, SingularError};
pub use mat::Mat;
pub use norms::{cond_1, fro_norm, inf_norm, one_norm, rel_diff, vec_norm2};
pub use simd::Isa;
pub use threading::{current_threads, set_thread_budget, with_thread_budget};
pub use view::{MatMut, MatRef};
