//! LU factorization with partial (row) pivoting, and solvers built on it.
//!
//! [`LuFactors`] stores the packed factorization `P A = L U` of a square
//! matrix. A factorization is computed once and then reused for any number
//! of right-hand sides — which is exactly the access pattern the
//! accelerated recursive doubling algorithm depends on: all
//! matrix-dependent work happens at factorization time, and each
//! right-hand-side panel solve is an `O(n^2 r)` triangular sweep.

use crate::mat::Mat;
use crate::view::{MatMut, MatRef};
use crate::{gemm, simd};
use std::fmt;

/// Observability instruments for the multi-RHS panel solves (no-ops
/// unless `BT_OBS` is on): call count plus a nanosecond histogram, the
/// measured side of the `O(n^2 r)` triangular-sweep cost claim.
static OBS_LU_PANEL_SOLVES: bt_obs::Counter = bt_obs::Counter::new("bt_dense.lu.panel_solves");
static OBS_LU_PANEL_NS: bt_obs::Histogram = bt_obs::Histogram::new("bt_dense.lu.panel_solve_ns");

/// Minimum panel width for the row-oriented sweep
/// ([`LuFactors::solve_block_rowwise`]): every AXPY fills at least two
/// 4-lane `f64` AVX2 vectors. Narrower panels stay on the per-column
/// sweep.
const WIDE_SOLVE_MIN_COLS: usize = 8;

/// Error returned when a factorization or solve encounters a singular (or
/// numerically singular) matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct SingularError {
    /// Elimination step at which the zero pivot appeared.
    pub step: usize,
    /// Magnitude of the offending pivot.
    pub pivot: f64,
}

impl fmt::Display for SingularError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "matrix is singular to working precision: pivot {:.3e} at elimination step {}",
            self.pivot, self.step
        )
    }
}

impl std::error::Error for SingularError {}

/// Packed `P A = L U` factorization of a square matrix.
///
/// `L` is unit lower triangular and stored below the diagonal of `lu`; `U`
/// is upper triangular and stored on and above the diagonal. `piv[k]` is
/// the row swapped with row `k` at step `k`.
///
/// # Examples
///
/// ```
/// use bt_dense::{LuFactors, Mat};
///
/// let a: Mat = Mat::from_rows(&[&[4.0, 3.0], &[6.0, 3.0]]);
/// let lu = LuFactors::factor(&a).unwrap();
/// let b = Mat::from_rows(&[&[10.0], &[12.0]]);
/// let x = lu.solve(&b);
/// // A * x == b
/// assert!((4.0 * x[(0, 0)] + 3.0 * x[(1, 0)] - 10.0).abs() < 1e-12);
/// assert!((6.0 * x[(0, 0)] + 3.0 * x[(1, 0)] - 12.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct LuFactors {
    lu: Mat,
    piv: Vec<usize>,
    /// +1.0 or -1.0: parity of the row permutation (used by `det`).
    sign: f64,
}

impl LuFactors {
    /// Factors a square matrix with partial pivoting.
    ///
    /// Returns [`SingularError`] if a pivot is exactly zero or smaller in
    /// magnitude than `n * eps * max|A|` (numerically singular), with
    /// `eps` the working precision's epsilon.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not square.
    pub fn factor(a: &Mat) -> Result<Self, SingularError> {
        assert!(
            a.is_square(),
            "LU of non-square {}x{} matrix",
            a.rows(),
            a.cols()
        );
        let n = a.rows();
        let mut lu = a.clone();
        let mut piv = Vec::with_capacity(n);
        let mut sign = 1.0;
        let tiny = n as f64 * f64::EPSILON * a.max_abs();

        for k in 0..n {
            // Find pivot: largest |value| in column k at or below the diagonal.
            let col = lu.col(k);
            let mut p = k;
            let mut pmax = col[k].abs();
            for (off, v) in col[k..].iter().enumerate().skip(1) {
                let av = v.abs();
                if av > pmax {
                    pmax = av;
                    p = k + off;
                }
            }
            if pmax <= tiny || !pmax.is_finite() {
                return Err(SingularError {
                    step: k,
                    pivot: pmax,
                });
            }
            piv.push(p);
            if p != k {
                sign = -sign;
                swap_rows(&mut lu, k, p);
            }

            // Eliminate below the pivot, updating the trailing submatrix
            // column by column (column-major friendly rank-1 update).
            let pivot = lu.get(k, k);
            let inv_pivot = 1.0 / pivot;
            // Scale multipliers in column k.
            {
                let colk = lu.col_mut(k);
                for v in &mut colk[k + 1..] {
                    *v *= inv_pivot;
                }
            }
            // Trailing update: for each column j > k:
            //   lu[i, j] -= lu[i, k] * lu[k, j]  for i > k
            let m_rows = n;
            let (head, tail) = lu.as_mut_slice().split_at_mut((k + 1) * m_rows);
            let mults = &head[k * m_rows + k + 1..k * m_rows + m_rows];
            for (jc, colj) in tail.chunks_exact_mut(m_rows).enumerate() {
                let _ = jc;
                let ukj = colj[k];
                if ukj == 0.0 {
                    continue;
                }
                // Rank-1 update of column j: colj[k+1..] -= ukj * mults,
                // through the SIMD AXPY primitive.
                simd::axpy(-ukj, mults, &mut colj[k + 1..]);
            }
        }

        Ok(Self { lu, piv, sign })
    }

    /// Order of the factored matrix.
    #[inline]
    pub fn order(&self) -> usize {
        self.lu.rows()
    }

    /// Pivot indices (`piv[k]` was swapped with row `k`).
    pub fn pivots(&self) -> &[usize] {
        &self.piv
    }

    /// The packed LU storage (L strictly below diagonal, U on/above).
    pub fn packed(&self) -> &Mat {
        &self.lu
    }

    /// Determinant of the original matrix.
    pub fn det(&self) -> f64 {
        let mut d = self.sign;
        for k in 0..self.order() {
            d *= self.lu.get(k, k);
        }
        d
    }

    /// Smallest |diagonal entry of U| — a cheap conditioning indicator.
    pub fn min_pivot(&self) -> f64 {
        (0..self.order())
            .map(|k| self.lu.get(k, k).abs())
            .fold(f64::INFINITY, f64::min)
    }

    /// Solves `A X = B` in place: `b` holds `B` on entry, `X` on exit.
    /// `B` may have any number of columns (multi-RHS panel); wide panels
    /// are split across the intra-rank thread budget
    /// ([`crate::threading`]), each column being an independent
    /// triangular sweep. Contiguous panels at least
    /// `WIDE_SOLVE_MIN_COLS` wide take the row-oriented sweep, which is
    /// bit-identical to the per-column one for finite data up to the sign
    /// of zero results; warm calls allocate nothing either way.
    ///
    /// # Panics
    ///
    /// Panics if `b.rows() != self.order()`.
    pub fn solve_in_place<'b>(&self, b: impl Into<MatMut<'b>>) {
        let mut b = b.into();
        let n = self.order();
        assert_eq!(b.rows(), n, "solve rhs row count mismatch");
        OBS_LU_PANEL_SOLVES.incr();
        let _span = bt_obs::span("bt_dense", "lu.solve_panel");
        let t0 = bt_obs::enabled().then(std::time::Instant::now);
        // Apply the row permutation to B (sequential: touches all columns).
        for (k, &p) in self.piv.iter().enumerate() {
            if p != k {
                swap_rows_view(&mut b, k, p);
            }
        }
        if b.is_contiguous() && b.cols() >= WIDE_SOLVE_MIN_COLS {
            crate::threading::for_each_column_block_parallel(b, 2 * n * n, |block, w| {
                self.solve_block_rowwise(block, w);
            });
        } else {
            crate::threading::for_each_column_parallel(b, 2 * n * n, |x| self.solve_column(x));
        }
        if let Some(t0) = t0 {
            OBS_LU_PANEL_NS.record_duration(t0.elapsed());
        }
    }

    /// Solves `A X = B` into caller-provided storage: copies `b` into
    /// `out`, then solves in place — no allocation.
    ///
    /// # Panics
    ///
    /// Panics if shapes mismatch.
    pub fn solve_into<'b, 'o>(&self, b: impl Into<MatRef<'b>>, out: impl Into<MatMut<'o>>) {
        let mut out = out.into();
        out.copy_from(b.into());
        self.solve_in_place(out);
    }

    /// One forward + backward triangular sweep on a single permuted RHS
    /// column. Both substitutions are column-oriented AXPY updates, so
    /// they run on the SIMD dispatch path ([`crate::simd`]).
    fn solve_column(&self, x: &mut [f64]) {
        let n = self.order();
        // Forward substitution with unit lower triangular L.
        for k in 0..n {
            let xk = x[k];
            if xk == 0.0 {
                continue;
            }
            let lcol = self.lu.col(k);
            simd::axpy(-xk, &lcol[k + 1..], &mut x[k + 1..]);
        }
        // Backward substitution with U.
        for k in (0..n).rev() {
            let ucol = self.lu.col(k);
            let xk = x[k] / ucol[k];
            x[k] = xk;
            if xk == 0.0 {
                continue;
            }
            simd::axpy(-xk, &ucol[..k], &mut x[..k]);
        }
    }

    /// Row-oriented multi-RHS sweep over a contiguous column-major block
    /// of `w` permuted RHS columns. The block is transposed into
    /// row-major scratch so each elimination step works on whole *rows*
    /// of `w` columns, then transposed back; the two `O(n w)` transposes
    /// are noise next to the `O(n^2 w)` sweep. The sweep is
    /// left-looking: row `i` takes all of its updates in one
    /// `simd::fma_rows` call (forward: `-L[i,k] * row_k` for
    /// `k = 0..i`; backward: `-U[i,k] * row_k` for `k = n-1` down to
    /// `i+1`, then the divide by `U[i,i]`), so a strip of the row stays
    /// in registers instead of being reloaded and stored once per term.
    /// Per element the arithmetic is the same fused multiply-add and
    /// divide sequence, in the same order, as [`Self::solve_column`] —
    /// the multiplier and vector swap roles, and IEEE products commute
    /// exactly — so the orientation is a pure layout change. The two
    /// sweeps skip exact zeros on different operands (a zero RHS entry
    /// there, a zero factor entry here), which can only flip the sign of
    /// a zero result or, for an infinite RHS entry, decide whether a
    /// `0 * inf` NaN appears. The row-major scratch and the gathered
    /// factor row are the calling thread's reused kernel buffers
    /// (`gemm::with_pack_bufs`), so warm calls allocate nothing.
    fn solve_block_rowwise(&self, data: &mut [f64], w: usize) {
        let n = self.order();
        debug_assert_eq!(data.len(), n * w);
        gemm::with_pack_bufs(|buf, coef| {
            if buf.len() < n * w {
                buf.resize(n * w, 0.0);
            }
            if coef.len() < n {
                coef.resize(n, 0.0);
            }
            let z = &mut buf[..n * w];
            for (j, col) in data.chunks_exact(n).enumerate() {
                for (k, &v) in col.iter().enumerate() {
                    z[k * w + j] = v;
                }
            }
            // Forward substitution with unit lower triangular L.
            for i in 1..n {
                let (done, rest) = z.split_at_mut(i * w);
                for (k, c) in coef[..i].iter_mut().enumerate() {
                    *c = -self.lu[(i, k)];
                }
                simd::fma_rows(&coef[..i], done, w, false, None, &mut rest[..w]);
            }
            // Backward substitution with U; rows below `i` are final.
            for i in (0..n).rev() {
                let (head, tail) = z.split_at_mut((i + 1) * w);
                let terms = n - 1 - i;
                for (q, c) in coef[..terms].iter_mut().enumerate() {
                    *c = -self.lu[(i, i + 1 + q)];
                }
                let zi = &mut head[i * w..];
                simd::fma_rows(&coef[..terms], tail, w, true, Some(self.lu[(i, i)]), zi);
            }
            for (j, col) in data.chunks_exact_mut(n).enumerate() {
                for (k, v) in col.iter_mut().enumerate() {
                    *v = z[k * w + j];
                }
            }
        });
    }

    /// Solves `A X = B`, returning `X`.
    pub fn solve(&self, b: &Mat) -> Mat {
        let mut x = b.clone();
        self.solve_in_place(&mut x);
        x
    }

    /// Solves `X A = B` (right division), returning `X`.
    ///
    /// Implemented as `A^T X^T = B^T` using the identity
    /// `(X A)^T = A^T X^T`; costs one extra pair of transposes.
    pub fn solve_transposed_system(&self, b: &Mat) -> Mat {
        let mut xt = b.transpose();
        self.solve_transpose_in_place(&mut xt);
        xt.transpose()
    }

    /// Solves `A^T X = B` in place. Multi-column panels split across the
    /// intra-rank thread budget like [`Self::solve_in_place`].
    pub fn solve_transpose_in_place<'b>(&self, b: impl Into<MatMut<'b>>) {
        let mut b = b.into();
        let n = self.order();
        assert_eq!(b.rows(), n, "solve rhs row count mismatch");
        crate::threading::for_each_column_parallel(b.rb_mut(), 2 * n * n, |x| {
            self.solve_transpose_column(x);
        });
        // Undo the permutation last (sequential: touches all columns).
        for (k, &p) in self.piv.iter().enumerate().rev() {
            if p != k {
                swap_rows_view(&mut b, k, p);
            }
        }
    }

    /// One `U^T`/`L^T` sweep on a single RHS column:
    /// `A^T = (P^T L U)^T = U^T L^T P`, so solve `U^T w = b`, then
    /// `L^T v = w` (the caller applies `x = P^T v` afterwards). The
    /// inner products run on the SIMD dot-product path.
    fn solve_transpose_column(&self, x: &mut [f64]) {
        let n = self.order();
        for k in 0..n {
            let ucol = self.lu.col(k);
            let s = x[k] - simd::dot(&x[..k], &ucol[..k]);
            x[k] = s / ucol[k];
        }
        for k in (0..n).rev() {
            let lcol = self.lu.col(k);
            let s = simd::dot(&x[k + 1..], &lcol[k + 1..]);
            x[k] -= s;
        }
    }

    /// Explicit inverse of the original matrix.
    pub fn inverse(&self) -> Mat {
        let n = self.order();
        let mut inv = Mat::identity(n);
        self.solve_in_place(&mut inv);
        inv
    }
}

/// Swaps rows `i` and `j` of `m` in place.
fn swap_rows(m: &mut Mat, i: usize, j: usize) {
    if i == j {
        return;
    }
    let rows = m.rows();
    let data = m.as_mut_slice();
    let cols = data.len() / rows;
    for c in 0..cols {
        data.swap(c * rows + i, c * rows + j);
    }
}

/// Swaps rows `i` and `j` of a (possibly strided) view in place.
pub(crate) fn swap_rows_view(m: &mut MatMut<'_>, i: usize, j: usize) {
    if i == j {
        return;
    }
    for c in 0..m.cols() {
        m.col_mut(c).swap(i, j);
    }
}

/// Convenience: factors `a` and solves `a x = b` in one call.
///
/// Prefer holding on to [`LuFactors`] when the same matrix is reused.
pub fn solve(a: &Mat, b: &Mat) -> Result<Mat, SingularError> {
    Ok(LuFactors::factor(a)?.solve(b))
}

/// Convenience: explicit inverse of `a`.
pub fn invert(a: &Mat) -> Result<Mat, SingularError> {
    Ok(LuFactors::factor(a)?.inverse())
}

/// Flop count of an `n x n` LU factorization (2/3 n^3 to leading order).
#[inline]
pub const fn lu_flops(n: usize) -> u64 {
    let n = n as u64;
    (2 * n * n * n) / 3
}

/// Flop count of a triangular panel solve with `r` right-hand sides.
#[inline]
pub const fn lu_solve_flops(n: usize, r: usize) -> u64 {
    2 * (n as u64) * (n as u64) * (r as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::matmul;

    fn test_mat(n: usize, seed: f64) -> Mat {
        // Diagonally dominant => well conditioned and nonsingular.
        Mat::from_fn(n, n, |i, j| {
            let base = ((i * n + j) as f64 * 0.711 + seed).sin();
            if i == j {
                base + 2.0 * n as f64
            } else {
                base
            }
        })
    }

    #[test]
    fn factor_solve_roundtrip() {
        for n in [1, 2, 3, 5, 8, 17, 40] {
            let a = test_mat(n, 0.4);
            let lu = LuFactors::factor(&a).unwrap();
            let b = Mat::from_fn(n, 3, |i, j| (i + 2 * j) as f64);
            let x = lu.solve(&b);
            let r = matmul(&a, &x).sub(&b);
            assert!(r.max_abs() < 1e-9, "n={n} residual {}", r.max_abs());
        }
    }

    #[test]
    fn inverse_times_original_is_identity() {
        let a = test_mat(12, 1.1);
        let inv = invert(&a).unwrap();
        let prod = matmul(&a, &inv);
        assert!(prod.sub(&Mat::identity(12)).max_abs() < 1e-10);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = Mat::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let lu = LuFactors::factor(&a).unwrap();
        let b = Mat::from_rows(&[&[3.0], &[7.0]]);
        let x = lu.solve(&b);
        assert!((x[(0, 0)] - 7.0).abs() < 1e-14);
        assert!((x[(1, 0)] - 3.0).abs() < 1e-14);
    }

    #[test]
    fn singular_matrix_rejected() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(LuFactors::factor(&a).is_err());
        let z: Mat = Mat::zeros(3, 3);
        let err = LuFactors::factor(&z).unwrap_err();
        assert_eq!(err.step, 0);
    }

    #[test]
    fn determinant_known_values() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let lu = LuFactors::factor(&a).unwrap();
        assert!((lu.det() - (-2.0)).abs() < 1e-14);

        let i5: Mat = Mat::identity(5);
        assert!((LuFactors::factor(&i5).unwrap().det() - 1.0).abs() < 1e-15);

        // Permutation matrix: det = -1.
        let p = Mat::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        assert!((LuFactors::factor(&p).unwrap().det() + 1.0).abs() < 1e-15);
    }

    #[test]
    fn multi_rhs_panel_solve() {
        let n = 10;
        let a = test_mat(n, 2.2);
        let lu = LuFactors::factor(&a).unwrap();
        let b = Mat::from_fn(n, 7, |i, j| ((i * 7 + j) as f64).cos());
        let x = lu.solve(&b);
        assert!(matmul(&a, &x).sub(&b).max_abs() < 1e-10);
    }

    #[test]
    fn panel_solve_bitwise_identical_across_thread_budgets() {
        use crate::threading::with_thread_budget;
        // Wide enough panel (n^2 * r flops) to take the parallel path.
        let n = 60;
        let a = test_mat(n, 1.7);
        let lu = LuFactors::factor(&a).unwrap();
        let b = Mat::from_fn(n, 24, |i, j| ((i * 24 + j) as f64 * 0.13).cos());
        let x1 = with_thread_budget(1, || lu.solve(&b));
        for t in [2, 4, 7] {
            let xt = with_thread_budget(t, || lu.solve(&b));
            assert_eq!(x1, xt, "budget {t} changed the solve bits");
            let mut bt = b.clone();
            with_thread_budget(t, || lu.solve_transpose_in_place(&mut bt));
            let mut b1 = b.clone();
            with_thread_budget(1, || lu.solve_transpose_in_place(&mut b1));
            assert_eq!(b1, bt, "budget {t} changed the transpose-solve bits");
        }
    }

    #[test]
    fn f64_wide_panel_solve_matches_column_sweep_exactly() {
        // The row-oriented sweep is a pure layout change: per element it
        // performs the same FMA/divide sequence as the per-column sweep,
        // so it must reproduce the per-column sweep's bits (the strided
        // window forces the per-column path).
        for (n, r) in [
            (4, 8),
            (5, 8),
            (8, 24),
            (8, 37),
            (13, 24),
            (16, 64),
            (17, 9),
            (40, 16),
        ] {
            let a = test_mat(n, 0.6);
            // A tridiagonal twin puts exact zeros in L and U, which the
            // row sweep skips per factor entry and the column sweep never
            // sees as multipliers.
            let tri = Mat::from_fn(
                n,
                n,
                |i, j| if i.abs_diff(j) <= 1 { a[(i, j)] } else { 0.0 },
            );
            for a in [a, tri] {
                let lu = LuFactors::factor(&a).unwrap();
                let b = Mat::from_fn(n, r, |i, j| ((i * r + j) as f64 * 0.37).sin());
                let wide = lu.solve(&b);
                let mut scratch = Mat::zeros(n + 3, r + 2);
                lu.solve_into(&b, scratch.submatrix_mut(1, 1, n, r));
                let column = scratch.block(1, 1, n, r);
                for j in 0..r {
                    for i in 0..n {
                        assert_eq!(
                            wide[(i, j)].to_bits(),
                            column[(i, j)].to_bits(),
                            "n={n} r={r} ({i}, {j})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn transpose_solve() {
        let n = 9;
        let a = test_mat(n, 0.9);
        let lu = LuFactors::factor(&a).unwrap();
        let b = Mat::from_fn(n, 2, |i, j| (i as f64 - j as f64).tanh());
        let mut x = b.clone();
        lu.solve_transpose_in_place(&mut x);
        let r = matmul(&a.transpose(), &x).sub(&b);
        assert!(r.max_abs() < 1e-10, "residual {}", r.max_abs());
    }

    #[test]
    fn right_division_solves_xa_eq_b() {
        let n = 6;
        let a = test_mat(n, 3.3);
        let lu = LuFactors::factor(&a).unwrap();
        let b = Mat::from_fn(4, n, |i, j| ((i + j) as f64 * 0.3).sin());
        let x = lu.solve_transposed_system(&b);
        assert_eq!(x.shape(), (4, n));
        let r = matmul(&x, &a).sub(&b);
        assert!(r.max_abs() < 1e-10, "residual {}", r.max_abs());
    }

    #[test]
    fn min_pivot_reflects_conditioning() {
        let good = test_mat(6, 0.5);
        let lu = LuFactors::factor(&good).unwrap();
        assert!(lu.min_pivot() > 1.0);
    }

    #[test]
    fn flop_formulas() {
        assert_eq!(lu_flops(3), 18);
        assert_eq!(lu_solve_flops(3, 2), 36);
    }

    #[test]
    fn solve_into_matches_solve() {
        let n = 8;
        let a = test_mat(n, 0.8);
        let lu = LuFactors::factor(&a).unwrap();
        let b = Mat::from_fn(n, 3, |i, j| ((i * 3 + j) as f64 * 0.21).sin());
        let expect = lu.solve(&b);
        let mut out = Mat::zeros(n, 3);
        lu.solve_into(&b, &mut out);
        assert_eq!(out, expect);
        // Strided output window inside a larger scratch matrix.
        let mut scratch = Mat::filled(n + 4, 5, 9.0);
        lu.solve_into(&b, scratch.submatrix_mut(2, 1, n, 3));
        assert_eq!(scratch.block(2, 1, n, 3), expect);
        assert_eq!(scratch[(0, 0)], 9.0, "solve_into wrote outside window");
    }

    #[test]
    fn convenience_solve_matches_factor_solve() {
        let a = test_mat(5, 0.1);
        let b = Mat::from_fn(5, 1, |i, _| i as f64);
        let x1 = solve(&a, &b).unwrap();
        let x2 = LuFactors::factor(&a).unwrap().solve(&b);
        assert_eq!(x1, x2);
    }
}
