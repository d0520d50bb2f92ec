//! Block Thomas algorithm: the sequential block LU baseline.
//!
//! This is the `O(N M^3)` sweep every parallel solver is measured
//! against, exposed with the factor-once / solve-many split so the
//! sequential comparator for multi-RHS workloads is fair:
//!
//! * [`ThomasFactors::factor`] — `O(N M^3)`, matrix only;
//! * [`ThomasFactors::solve`] — `O(N M^2 R)` per `R`-column panel.

use crate::matrix::{BlockTridiag, BlockVec};
use bt_dense::{gemm, LuFactors, Mat, SingularError, Trans};
use std::fmt;

/// Error from factoring a block tridiagonal matrix: a pivot block `D_i`
/// was singular.
#[derive(Debug, Clone, PartialEq)]
pub struct FactorError {
    /// Block row at which factorization broke down.
    pub row: usize,
    /// The underlying dense-LU failure.
    pub source: SingularError,
}

impl fmt::Display for FactorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "block LU breakdown at block row {}: {}",
            self.row, self.source
        )
    }
}

impl std::error::Error for FactorError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// Block LU factorization `T = L U` (no inter-block pivoting):
/// `D_0 = B_0`, `D_i = B_i - L_i C_{i-1}` with `L_i = A_i D_{i-1}^{-1}`.
#[derive(Debug, Clone)]
pub struct ThomasFactors {
    n: usize,
    m: usize,
    /// LU of each block diagonal `D_i`.
    d_lu: Vec<LuFactors>,
    /// `L_i = A_i D_{i-1}^{-1}` for `i >= 1` (index 0 unused, zero-sized).
    l: Vec<Mat>,
    /// Copies of the superdiagonal blocks for back substitution.
    c: Vec<Mat>,
}

impl ThomasFactors {
    /// Factors `t`. Fails with [`FactorError`] if any `D_i` is singular —
    /// which cannot happen for block diagonally dominant or symmetric
    /// positive definite systems.
    pub fn factor(t: &BlockTridiag) -> Result<Self, FactorError> {
        let n = t.n();
        let m = t.m();
        let mut d_lu: Vec<LuFactors> = Vec::with_capacity(n);
        let mut l: Vec<Mat> = Vec::with_capacity(n);
        let mut c: Vec<Mat> = Vec::with_capacity(n);

        for i in 0..n {
            let row = t.row(i);
            c.push(row.c.clone());
            let d = if i == 0 {
                l.push(Mat::empty());
                row.b.clone()
            } else {
                // L_i solves L_i * D_{i-1} = A_i  (right division).
                let li = d_lu[i - 1].solve_transposed_system(&row.a);
                // D_i = B_i - L_i C_{i-1}
                let mut d = row.b.clone();
                gemm(-1.0, &li, Trans::No, &c[i - 1], Trans::No, 1.0, &mut d);
                l.push(li);
                d
            };
            let lu = LuFactors::factor(&d).map_err(|source| FactorError { row: i, source })?;
            d_lu.push(lu);
        }
        Ok(Self { n, m, d_lu, l, c })
    }

    /// Number of block rows.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Block order.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Access to the factored block diagonals (used by diagnostics and by
    /// tests cross-checking the parallel solvers' Phase 1).
    pub fn d_factor(&self, i: usize) -> &LuFactors {
        &self.d_lu[i]
    }

    /// Solves `T X = Y` for a panel of `R` right-hand sides.
    ///
    /// # Panics
    ///
    /// Panics if `y`'s shape does not match the factored matrix.
    pub fn solve(&self, y: &BlockVec) -> BlockVec {
        assert_eq!(y.n(), self.n, "rhs block count mismatch");
        assert_eq!(y.m(), self.m, "rhs block order mismatch");
        let r = y.r();

        // Forward sweep: z_i = y_i - L_i z_{i-1}.
        let mut z: Vec<Mat> = Vec::with_capacity(self.n);
        for i in 0..self.n {
            let mut zi = y.blocks[i].clone();
            if i > 0 {
                gemm(
                    -1.0,
                    &self.l[i],
                    Trans::No,
                    &z[i - 1],
                    Trans::No,
                    1.0,
                    &mut zi,
                );
            }
            z.push(zi);
        }

        // Backward sweep: x_i = D_i^{-1} (z_i - C_i x_{i+1}).
        let mut x = BlockVec::zeros(self.n, self.m, r);
        for i in (0..self.n).rev() {
            let mut rhs = z[i].clone();
            if i + 1 < self.n {
                gemm(
                    -1.0,
                    &self.c[i],
                    Trans::No,
                    &x.blocks[i + 1],
                    Trans::No,
                    1.0,
                    &mut rhs,
                );
            }
            self.d_lu[i].solve_in_place(&mut rhs);
            x.blocks[i] = rhs;
        }
        x
    }
}

/// One-shot convenience: factor and solve in a single call.
pub fn thomas_solve(t: &BlockTridiag, y: &BlockVec) -> Result<BlockVec, FactorError> {
    Ok(ThomasFactors::factor(t)?.solve(y))
}

/// Leading-order flop count of [`ThomasFactors::factor`]:
/// per interior row, one `M x M` LU (2/3 M^3), one `M`-RHS triangular
/// solve (2 M^3) and one GEMM (2 M^3).
pub fn thomas_factor_flops(n: usize, m: usize) -> u64 {
    let (n, m) = (n as u64, m as u64);
    n * (2 * m * m * m / 3 + 4 * m * m * m)
}

/// Leading-order flop count of [`ThomasFactors::solve`] for `R` columns:
/// per row, two `M x M * M x R` GEMMs and one factored solve.
pub fn thomas_solve_flops(n: usize, m: usize, r: usize) -> u64 {
    let (n, m, r) = (n as u64, m as u64, r as u64);
    n * (6 * m * m * r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{materialize, random_rhs, Helmholtz2D, Poisson2D, RandomDominant};
    use bt_dense::solve as dense_solve;

    #[test]
    fn matches_dense_solver_small() {
        let t = materialize(&RandomDominant::new(6, 3, 1.2, 7));
        let y = random_rhs(6, 3, 2, 9);
        let x = thomas_solve(&t, &y).unwrap();
        let xd = dense_solve(&t.to_dense(), &y.to_dense()).unwrap();
        assert!(x.to_dense().sub(&xd).max_abs() < 1e-10);
    }

    #[test]
    fn residual_small_on_poisson() {
        let t = materialize(&Poisson2D::new(50, 8));
        let y = random_rhs(50, 8, 4, 3);
        let x = thomas_solve(&t, &y).unwrap();
        assert!(t.rel_residual(&x, &y) < 1e-12);
    }

    #[test]
    fn matches_dense_solver_on_poisson() {
        let t = materialize(&Poisson2D::new(40, 6));
        let y = random_rhs(40, 6, 3, 2);
        let x = thomas_solve(&t, &y).unwrap();
        let xd = dense_solve(&t.to_dense(), &y.to_dense()).unwrap();
        assert!(x.to_dense().sub(&xd).max_abs() < 1e-12 * xd.max_abs());
        assert!(t.rel_residual(&x, &y) < 1e-13);
    }

    #[test]
    fn log_det_from_diagonal_factors_matches_dense() {
        // det T = prod_i det D_i for the block LU factorization, so an
        // SPD matrix's log det is the sum of ln det D_i.
        let t = materialize(&Poisson2D::new(6, 3));
        let f = ThomasFactors::factor(&t).unwrap();
        let log_det: f64 = (0..t.n()).map(|i| f.d_factor(i).det().ln()).sum();
        let dense_det = bt_dense::LuFactors::factor(&t.to_dense()).unwrap().det();
        assert!((log_det - dense_det.ln()).abs() < 1e-9);
    }

    #[test]
    fn solves_mildly_indefinite_helmholtz() {
        // Block LU handles a symmetric indefinite matrix as long as no
        // D_i is exactly singular.
        let t = materialize(&Helmholtz2D::new(24, 6, 3.2));
        let y = random_rhs(24, 6, 2, 1);
        let x = thomas_solve(&t, &y).unwrap();
        assert!(t.rel_residual(&x, &y) < 1e-9);
    }

    #[test]
    fn factor_once_solve_many() {
        let t = materialize(&RandomDominant::new(20, 4, 1.5, 1));
        let f = ThomasFactors::factor(&t).unwrap();
        for seed in 0..3 {
            let y = random_rhs(20, 4, 5, seed);
            let x = f.solve(&y);
            assert!(t.rel_residual(&x, &y) < 1e-12, "seed {seed}");
        }
    }

    #[test]
    fn single_block_row_system() {
        let t = materialize(&RandomDominant::new(1, 5, 1.5, 2));
        let y = random_rhs(1, 5, 3, 0);
        let x = thomas_solve(&t, &y).unwrap();
        assert!(t.rel_residual(&x, &y) < 1e-13);
    }

    #[test]
    fn scalar_blocks_reduce_to_scalar_thomas() {
        // M = 1: ordinary tridiagonal system.
        let t = materialize(&RandomDominant::new(30, 1, 2.0, 11));
        let y = random_rhs(30, 1, 1, 4);
        let x = thomas_solve(&t, &y).unwrap();
        assert!(t.rel_residual(&x, &y) < 1e-13);
    }

    #[test]
    fn singular_diagonal_reported_with_row() {
        use crate::matrix::{BlockRow, BlockTridiag};
        let z = Mat::zeros(2, 2);
        // B_1 singular (zero) and decoupled so D_1 = 0.
        let t = BlockTridiag::new(vec![
            BlockRow::new(z.clone(), Mat::identity(2), z.clone()),
            BlockRow::new(z.clone(), Mat::zeros(2, 2), z.clone()),
            BlockRow::new(z.clone(), Mat::identity(2), z),
        ]);
        let err = ThomasFactors::factor(&t).unwrap_err();
        assert_eq!(err.row, 1);
        let msg = err.to_string();
        assert!(msg.contains("block row 1"), "{msg}");
    }

    #[test]
    fn flop_formulas_scale() {
        assert!(thomas_factor_flops(10, 4) > thomas_factor_flops(10, 2));
        assert_eq!(
            thomas_solve_flops(10, 4, 2) * 2,
            thomas_solve_flops(10, 4, 4)
        );
    }
}
