//! Cholesky factorization for symmetric positive definite matrices.
//!
//! `A = L L^T` with lower-triangular `L`. For SPD blocks this halves the
//! factorization flops relative to LU (`n^3/3` vs `2n^3/3`) and needs no
//! pivoting. The block diagonals `D_i` of an SPD block tridiagonal
//! matrix are themselves SPD (Schur complements), so the SPD Thomas
//! variant in `bt-blocktri` uses this factorization throughout.

use crate::lu::SingularError;
use crate::mat::Mat;
use crate::simd;
use crate::view::{MatMut, MatRef};

/// Observability instruments for the multi-RHS panel solves (no-ops
/// unless `BT_OBS` is on); see the LU counterparts in [`crate::lu`].
static OBS_CHOL_PANEL_SOLVES: bt_obs::Counter = bt_obs::Counter::new("bt_dense.chol.panel_solves");
static OBS_CHOL_PANEL_NS: bt_obs::Histogram =
    bt_obs::Histogram::new("bt_dense.chol.panel_solve_ns");

/// Packed Cholesky factor `L` (lower triangle; the strict upper triangle
/// of the storage is unused).
#[derive(Debug, Clone)]
pub struct CholFactors {
    l: Mat,
}

impl CholFactors {
    /// Factors an SPD matrix.
    ///
    /// # Errors
    ///
    /// [`SingularError`] if a diagonal pivot is non-positive or
    /// negligible — the matrix is not (numerically) positive definite.
    /// Only the lower triangle of `a` is read, so symmetry is assumed,
    /// not checked.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not square.
    pub fn factor(a: &Mat) -> Result<Self, SingularError> {
        assert!(a.is_square(), "Cholesky of non-square matrix");
        let n = a.rows();
        let mut l = a.clone();
        let tiny = n as f64 * f64::EPSILON * a.max_abs();

        for k in 0..n {
            // Left-looking column update, diagonal included: subtract the
            // contribution of every finished column j < k from rows k..n
            // of column k —
            //   l[k.., k] -= l[k, j] * l[k.., j]
            // Each term is a contiguous AXPY on the SIMD dispatch path;
            // the per-element accumulation order over j matches the old
            // row-dot formulation exactly. No zero-weight skip: non-finite
            // entries must reach the pivot check below.
            let (head, tail) = l.as_mut_slice().split_at_mut(k * n);
            let colk = &mut tail[k..n];
            for j in 0..k {
                let colj = &head[j * n + k..j * n + n];
                simd::axpy(-colj[0], colj, colk);
            }
            let d = colk[0];
            if d <= tiny || !d.is_finite() {
                return Err(SingularError { step: k, pivot: d });
            }
            let lkk = d.sqrt();
            colk[0] = lkk;
            let inv = 1.0 / lkk;
            // Column k below the diagonal.
            for v in &mut colk[1..] {
                *v *= inv;
            }
        }
        // Zero the strict upper triangle so `factor_matrix` is clean.
        for j in 1..n {
            for i in 0..j {
                l.set(i, j, 0.0);
            }
        }
        Ok(Self { l })
    }

    /// Order of the factored matrix.
    pub fn order(&self) -> usize {
        self.l.rows()
    }

    /// The lower-triangular factor `L`.
    pub fn factor_matrix(&self) -> &Mat {
        &self.l
    }

    /// `log(det A) = 2 sum log l_kk` (computed in log space to avoid
    /// overflow for large, strongly dominant blocks).
    pub fn log_det(&self) -> f64 {
        (0..self.order())
            .map(|k| self.l.get(k, k).ln())
            .sum::<f64>()
            * 2.0
    }

    /// Solves `A X = B` in place (`L` forward sweep then `L^T` backward).
    /// Multi-column panels split across the intra-rank thread budget
    /// ([`crate::threading`]), each column being an independent sweep.
    ///
    /// # Panics
    ///
    /// Panics if `b.rows() != order()`.
    pub fn solve_in_place<'b>(&self, b: impl Into<MatMut<'b>>) {
        let b = b.into();
        let n = self.order();
        assert_eq!(b.rows(), n, "solve rhs row count mismatch");
        OBS_CHOL_PANEL_SOLVES.incr();
        let _span = bt_obs::span("bt_dense", "chol.solve_panel");
        let t0 = bt_obs::enabled().then(std::time::Instant::now);
        crate::threading::for_each_column_parallel(b, 2 * n * n, |x| self.solve_column(x));
        if let Some(t0) = t0 {
            OBS_CHOL_PANEL_NS.record_duration(t0.elapsed());
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

    /// Forward (`L`) then backward (`L^T`) sweep on a single RHS column.
    /// The forward sweep is a column AXPY, the backward sweep a dot
    /// product — both on the SIMD dispatch path ([`crate::simd`]).
    fn solve_column(&self, x: &mut [f64]) {
        let n = self.order();
        // L w = b
        for k in 0..n {
            let lcol = self.l.col(k);
            let xk = x[k] / lcol[k];
            x[k] = xk;
            if xk != 0.0 {
                simd::axpy(-xk, &lcol[k + 1..], &mut x[k + 1..]);
            }
        }
        // L^T x = w
        for k in (0..n).rev() {
            let lcol = self.l.col(k);
            let s = x[k] - simd::dot(&x[k + 1..], &lcol[k + 1..]);
            x[k] = s / lcol[k];
        }
    }

    /// Solves `A X = B`, returning `X`.
    pub fn solve(&self, b: &Mat) -> Mat {
        let mut x = b.clone();
        self.solve_in_place(&mut x);
        x
    }

    /// Solves `X A = B` (right division; `A` is symmetric so this is
    /// `(A X^T = B^T)^T`).
    pub fn solve_transposed_system(&self, b: &Mat) -> Mat {
        let mut xt = b.transpose();
        self.solve_in_place(&mut xt);
        xt.transpose()
    }
}

/// Flop count of an `n x n` Cholesky factorization (`n^3/3` to leading
/// order — half of LU).
#[inline]
pub const fn cholesky_flops(n: usize) -> u64 {
    let n = n as u64;
    n * n * n / 3
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::matmul;
    use crate::random::{rng, spd};

    #[test]
    fn factor_reconstructs_matrix() {
        let a = spd(8, &mut rng(1));
        let ch = CholFactors::factor(&a).unwrap();
        let l = ch.factor_matrix();
        let rec = matmul(l, &l.transpose());
        assert!(rec.sub(&a).max_abs() < 1e-10 * a.max_abs());
    }

    #[test]
    fn solve_residual_small() {
        let a = spd(10, &mut rng(2));
        let ch = CholFactors::factor(&a).unwrap();
        let b = Mat::from_fn(10, 3, |i, j| ((i + j) as f64).sin());
        let x = ch.solve(&b);
        assert!(matmul(&a, &x).sub(&b).max_abs() < 1e-10);
    }

    #[test]
    fn panel_solve_bitwise_identical_across_thread_budgets() {
        use crate::threading::with_thread_budget;
        let a = spd(50, &mut rng(9));
        let ch = CholFactors::factor(&a).unwrap();
        let b = Mat::from_fn(50, 16, |i, j| ((i * 16 + j) as f64 * 0.21).sin());
        let x1 = with_thread_budget(1, || ch.solve(&b));
        for t in [2, 5] {
            let xt = with_thread_budget(t, || ch.solve(&b));
            assert_eq!(x1, xt, "budget {t} changed the solve bits");
        }
    }

    #[test]
    fn right_division() {
        let a = spd(6, &mut rng(3));
        let ch = CholFactors::factor(&a).unwrap();
        let b = Mat::from_fn(4, 6, |i, j| (i * 6 + j) as f64 * 0.1);
        let x = ch.solve_transposed_system(&b);
        assert!(matmul(&x, &a).sub(&b).max_abs() < 1e-10);
    }

    #[test]
    fn solve_into_matches_solve() {
        let a = spd(9, &mut rng(11));
        let ch = CholFactors::factor(&a).unwrap();
        let b = Mat::from_fn(9, 4, |i, j| ((i * 4 + j) as f64 * 0.17).cos());
        let expect = ch.solve(&b);
        let mut out = Mat::zeros(9, 4);
        ch.solve_into(&b, &mut out);
        assert_eq!(out, expect);
    }

    #[test]
    fn matches_lu_solution() {
        let a = spd(7, &mut rng(4));
        let b = Mat::from_fn(7, 2, |i, _| i as f64 + 1.0);
        let x_ch = CholFactors::factor(&a).unwrap().solve(&b);
        let x_lu = crate::lu::LuFactors::factor(&a).unwrap().solve(&b);
        assert!(x_ch.sub(&x_lu).max_abs() < 1e-10);
    }

    #[test]
    fn rejects_indefinite() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        let err = CholFactors::factor(&a).unwrap_err();
        assert_eq!(err.step, 1);
        assert!(CholFactors::factor(&Mat::zeros(3, 3)).is_err());
    }

    #[test]
    fn identity_factors_to_identity() {
        let ch = CholFactors::factor(&Mat::identity(5)).unwrap();
        assert!(ch.factor_matrix().sub(&Mat::identity(5)).max_abs() < 1e-15);
        assert!((ch.log_det() - 0.0).abs() < 1e-15);
    }

    #[test]
    fn log_det_matches_lu_det() {
        let a = spd(5, &mut rng(6));
        let ch = CholFactors::factor(&a).unwrap();
        let lu_det = crate::lu::LuFactors::factor(&a).unwrap().det();
        assert!((ch.log_det() - lu_det.ln()).abs() < 1e-9);
    }

    #[test]
    fn only_lower_triangle_is_read() {
        let mut a = spd(4, &mut rng(7));
        let ch_clean = CholFactors::factor(&a).unwrap();
        // Garbage in the strict upper triangle must not matter.
        a.set(0, 3, 999.0);
        a.set(1, 2, -999.0);
        let ch_dirty = CholFactors::factor(&a).unwrap();
        assert!(
            ch_clean
                .factor_matrix()
                .sub(ch_dirty.factor_matrix())
                .max_abs()
                < 1e-14
        );
    }

    #[test]
    fn flop_formula() {
        assert_eq!(cholesky_flops(3), 9);
        assert!(cholesky_flops(8) * 2 <= crate::lu::lu_flops(8) + 8);
    }
}
