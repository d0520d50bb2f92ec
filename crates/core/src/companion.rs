//! Companion-matrix (Möbius) machinery for Phase 1 of recursive doubling.
//!
//! The block-LU diagonal recurrence `D_i = B_i - A_i D_{i-1}^{-1} C_{i-1}`
//! does **not** linearize directly (its coefficients multiply `D_{i-1}`
//! from both sides), but the substitution `D_i = C_i Z_i` yields a matrix
//! Möbius recurrence whose coefficients act from the left only:
//!
//! ```text
//! Z_i = (C_i^{-1} B_i · Z_{i-1}  -  C_i^{-1} A_i) · Z_{i-1}^{-1}
//!
//!        | C_i^{-1} B_i   -C_i^{-1} A_i |
//! W_i =  | I               0            |
//! ```
//!
//! Representing `Z_i` in homogeneous coordinates `Z_i = U_i V_i^{-1}`,
//! the state `S_i = [U_i; V_i]` (a `2M x M` panel) evolves by plain
//! matrix products `S_i = W_i S_{i-1}` with `S_0 = [C_0^{-1} B_0; I]` —
//! and matrix products are associative, which is what the cross-rank
//! recursive-doubling scan exploits. The diagonal is recovered as
//! `D_i = C_i U_i V_i^{-1}`.
//!
//! Two standing assumptions of this algorithm family (shared with the
//! paper's BCYCLIC lineage) follow from the formulation:
//!
//! 1. the superdiagonal blocks `C_i` (`i <= N-2`) must be invertible;
//! 2. states/products are only defined up to a scalar (homogeneous
//!    coordinates admit right-multiplication by any invertible factor),
//!    so every operation here renormalizes by the max-abs entry — the
//!    standard guard against the geometric growth of `U_i` overflowing.

use bt_blocktri::BlockRow;
use bt_dense::{gemm, gemm_flops, lu_flops, lu_solve_flops, LuFactors, Mat, SingularError, Trans};

/// The top block row `[C_i^{-1} B_i, -C_i^{-1} A_i]` of a companion
/// matrix `W_i`; the bottom block row is always `[I, 0]`.
#[derive(Debug, Clone, PartialEq)]
pub struct CompanionW {
    /// `C_i^{-1} B_i`.
    pub p: Mat,
    /// `-C_i^{-1} A_i`.
    pub q: Mat,
}

impl CompanionW {
    /// Builds `W_i` from block row `i >= 1`.
    ///
    /// # Errors
    ///
    /// [`SingularError`] if `C_i` is singular — recursive doubling
    /// requires invertible superdiagonal blocks.
    pub fn from_row(row: &BlockRow) -> Result<Self, SingularError> {
        let c_lu = LuFactors::factor(&row.c)?;
        let p = c_lu.solve(&row.b);
        let mut q = c_lu.solve(&row.a);
        q.negate();
        Ok(Self { p, q })
    }

    /// Flops of [`CompanionW::from_row`] (one LU + two `M`-wide solves).
    pub fn build_flops(m: usize) -> u64 {
        lu_flops(m) + 2 * lu_solve_flops(m, m)
    }
}

/// A `2M x 2M` product of companion matrices `W_j ... W_i`, stored as two
/// `M x 2M` block rows (`top` = rows `0..M`, `bot` = rows `M..2M`),
/// renormalized by a scalar.
#[derive(Debug, Clone, PartialEq)]
pub struct CompanionProduct {
    /// Top `M x 2M` block row.
    pub top: Mat,
    /// Bottom `M x 2M` block row.
    pub bot: Mat,
}

impl CompanionProduct {
    /// Block order `M`.
    pub fn m(&self) -> usize {
        self.top.rows()
    }

    /// The multiplicative identity (`I_{2M}`).
    pub fn identity(m: usize) -> Self {
        let mut top = Mat::zeros(m, 2 * m);
        let mut bot = Mat::zeros(m, 2 * m);
        for k in 0..m {
            top[(k, k)] = 1.0;
            bot[(k, m + k)] = 1.0;
        }
        Self { top, bot }
    }

    /// Divides both rows by the product's max-abs entry (scalar
    /// renormalization; ratios are invariant). No-op for zero or
    /// non-finite scales.
    pub fn renormalize(&mut self) {
        let s = self.top.max_abs().max(self.bot.max_abs());
        if s > 0.0 && s.is_finite() {
            let inv = 1.0 / s;
            self.top.scale(inv);
            self.bot.scale(inv);
        }
    }

    /// Left-multiplies by a companion matrix: `self <- W_i * self`.
    /// Exploits the `[P, Q; I, 0]` structure: the new bottom row is the
    /// old top row.
    ///
    /// Costs `2 * gemm(M, M, 2M)` = `8 M^3` flops.
    pub fn apply_left(&mut self, w: &CompanionW) {
        let mut new_top = Mat::zeros(self.m(), 2 * self.m());
        gemm(
            1.0,
            &w.p,
            Trans::No,
            &self.top,
            Trans::No,
            0.0,
            &mut new_top,
        );
        gemm(
            1.0,
            &w.q,
            Trans::No,
            &self.bot,
            Trans::No,
            1.0,
            &mut new_top,
        );
        // Rotate: bot <- old top, top <- new product.
        self.bot = std::mem::replace(&mut self.top, new_top);
        self.renormalize();
    }

    /// Dense product `later * self` (both `2M x 2M`), used by the
    /// cross-rank scan where companion structure is lost.
    ///
    /// Costs `2 * gemm(M, 2M, 2M)` = `16 M^3` flops.
    pub fn compose_after(&self, later: &CompanionProduct) -> CompanionProduct {
        let m = self.m();
        let full = Mat::vstack(&self.top, &self.bot);
        let mut top = Mat::zeros(m, 2 * m);
        let mut bot = Mat::zeros(m, 2 * m);
        gemm(1.0, &later.top, Trans::No, &full, Trans::No, 0.0, &mut top);
        gemm(1.0, &later.bot, Trans::No, &full, Trans::No, 0.0, &mut bot);
        let mut out = CompanionProduct { top, bot };
        out.renormalize();
        out
    }

    /// Flops of [`CompanionProduct::apply_left`].
    pub fn apply_left_flops(m: usize) -> u64 {
        2 * gemm_flops(m, m, 2 * m)
    }

    /// Flops of [`CompanionProduct::compose_after`].
    pub fn compose_flops(m: usize) -> u64 {
        2 * gemm_flops(m, 2 * m, 2 * m)
    }
}

/// A `2M x M` homogeneous state `S_i = [U_i; V_i]` with `Z_i = U_i V_i^{-1}`,
/// renormalized by a scalar.
#[derive(Debug, Clone, PartialEq)]
pub struct CompanionState {
    /// `U_i` (numerator).
    pub u: Mat,
    /// `V_i` (denominator).
    pub v: Mat,
}

impl CompanionState {
    /// The initial state `S_0 = [C_0^{-1} B_0; I]`.
    ///
    /// # Errors
    ///
    /// [`SingularError`] if `C_0` is singular.
    pub fn initial(row0: &BlockRow) -> Result<Self, SingularError> {
        let c_lu = LuFactors::factor(&row0.c)?;
        let mut s = Self {
            u: c_lu.solve(&row0.b),
            v: Mat::identity(row0.b.rows()),
        };
        s.renormalize();
        Ok(s)
    }

    /// Flops of [`CompanionState::initial`].
    pub fn initial_flops(m: usize) -> u64 {
        lu_flops(m) + lu_solve_flops(m, m)
    }

    /// Block order `M`.
    pub fn m(&self) -> usize {
        self.u.rows()
    }

    /// Scalar renormalization (ratio-invariant).
    pub fn renormalize(&mut self) {
        let s = self.u.max_abs().max(self.v.max_abs());
        if s > 0.0 && s.is_finite() {
            let inv = 1.0 / s;
            self.u.scale(inv);
            self.v.scale(inv);
        }
    }

    /// Advances the state by one row: `S_i = W_i S_{i-1}`.
    /// Costs `2 * gemm(M, M, M)` = `4 M^3` flops.
    pub fn advance(&mut self, w: &CompanionW) {
        let mut new_u = Mat::zeros(self.m(), self.m());
        gemm(1.0, &w.p, Trans::No, &self.u, Trans::No, 0.0, &mut new_u);
        gemm(1.0, &w.q, Trans::No, &self.v, Trans::No, 1.0, &mut new_u);
        self.v = std::mem::replace(&mut self.u, new_u);
        self.renormalize();
    }

    /// Applies an accumulated product: `S = G * S`. Costs
    /// `2 * gemm(M, 2M, M)` = `8 M^3` flops.
    pub fn apply_product(&mut self, g: &CompanionProduct) {
        let full = Mat::vstack(&self.u, &self.v);
        gemm(1.0, &g.top, Trans::No, &full, Trans::No, 0.0, &mut self.u);
        gemm(1.0, &g.bot, Trans::No, &full, Trans::No, 0.0, &mut self.v);
        self.renormalize();
    }

    /// Extracts the block diagonal `D_i = C_i U_i V_i^{-1}` given this
    /// state's row superdiagonal block `C_i` (invariant under the scalar
    /// renormalization).
    ///
    /// # Errors
    ///
    /// [`SingularError`] if the denominator `V_i` is singular, signalling
    /// breakdown of the underlying block LU.
    pub fn extract_diag(&self, c_i: &Mat) -> Result<Mat, SingularError> {
        let lu = LuFactors::factor(&self.v)?;
        let z = lu.solve_transposed_system(&self.u);
        Ok(bt_dense::matmul(c_i, &z))
    }

    /// Flops of [`CompanionState::advance`].
    pub fn advance_flops(m: usize) -> u64 {
        2 * gemm_flops(m, m, m)
    }

    /// Flops of [`CompanionState::apply_product`].
    pub fn apply_product_flops(m: usize) -> u64 {
        2 * gemm_flops(m, 2 * m, m)
    }

    /// Flops of [`CompanionState::extract_diag`] (LU + right division +
    /// final product).
    pub fn extract_flops(m: usize) -> u64 {
        lu_flops(m) + lu_solve_flops(m, m) + gemm_flops(m, m, m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bt_blocktri::gen::{materialize, RandomDominant};
    use bt_blocktri::BlockTridiag;
    use bt_dense::rel_diff;

    /// Sequential block-LU diagonals `D_i` computed by the direct (Thomas)
    /// recurrence, for cross-checking the prefix formulation.
    fn thomas_diags(t: &BlockTridiag) -> Vec<Mat> {
        let mut out = Vec::new();
        let mut d_prev: Option<Mat> = None;
        for i in 0..t.n() {
            let row = t.row(i);
            let d = match &d_prev {
                None => row.b.clone(),
                Some(dp) => {
                    let lu = LuFactors::factor(dp).unwrap();
                    let l = lu.solve_transposed_system(&row.a);
                    let mut d = row.b.clone();
                    gemm(-1.0, &l, Trans::No, &t.row(i - 1).c, Trans::No, 1.0, &mut d);
                    d
                }
            };
            out.push(d.clone());
            d_prev = Some(d);
        }
        out
    }

    /// Runs the state recurrence against the Thomas diagonals, returning
    /// the worst relative difference over all rows.
    fn worst_diag_error(t: &bt_blocktri::BlockTridiag) -> f64 {
        let expect = thomas_diags(t);
        let mut state = CompanionState::initial(t.row(0)).unwrap();
        let mut worst = rel_diff(&state.extract_diag(&t.row(0).c).unwrap(), &expect[0]);
        // W_i defined for 1 <= i <= N-2 (C_{N-1} = 0).
        for (i, expected) in expect.iter().enumerate().take(t.n() - 1).skip(1) {
            let w = CompanionW::from_row(t.row(i)).unwrap();
            state.advance(&w);
            let d = state.extract_diag(&t.row(i).c).unwrap();
            worst = worst.max(rel_diff(&d, expected));
        }
        worst
    }

    #[test]
    fn state_recurrence_matches_thomas_diagonals() {
        // Random-dominant systems have per-row spectral spread, so the
        // homogeneous state's conditioning degrades geometrically with N
        // (DESIGN.md §7): accept a modest envelope over 40 rows.
        let t = materialize(&RandomDominant::new(16, 3, 1.3, 17));
        let worst = worst_diag_error(&t);
        assert!(worst < 1e-4, "random dominant worst rel diff {worst}");
    }

    #[test]
    fn state_recurrence_precise_on_clustered_spectra() {
        // Clustered spectra (the paper's application regime): the state
        // stays well conditioned over hundreds of rows.
        use bt_blocktri::gen::ClusteredToeplitz;
        let t = materialize(&ClusteredToeplitz::standard(500, 3, 9));
        let worst = worst_diag_error(&t);
        assert!(worst < 1e-10, "clustered worst rel diff {worst}");
    }

    #[test]
    fn renormalization_keeps_entries_bounded() {
        // Clustered spectra, |Z| ~ d per step: without renormalization the
        // state would overflow around row ~200 (8^200); with it, entries
        // stay in [0, 1] and extraction succeeds after 2000 rows.
        use bt_blocktri::gen::ClusteredToeplitz;
        let src = ClusteredToeplitz::standard(2000, 3, 3);
        let t = materialize(&src);
        let mut state = CompanionState::initial(t.row(0)).unwrap();
        for i in 1..t.n() - 1 {
            let w = CompanionW::from_row(t.row(i)).unwrap();
            state.advance(&w);
            assert!(state.u.all_finite() && state.v.all_finite(), "row {i}");
            assert!(state.u.max_abs().max(state.v.max_abs()) <= 1.0 + 1e-12);
        }
        let d = state.extract_diag(&t.row(t.n() - 2).c).unwrap();
        assert!(d.all_finite());
        // The diagonal converges to a fixed point near B (dominance).
        assert!((d[(0, 0)] - 8.0).abs() < 1.0);
    }

    #[test]
    fn product_identity_is_neutral() {
        let src = RandomDominant::new(3, 3, 1.5, 2);
        let t = materialize(&src);
        let id = CompanionProduct::identity(3);
        let mut st = CompanionState::initial(t.row(0)).unwrap();
        let before = st.clone();
        st.apply_product(&id);
        let c0 = &t.row(0).c;
        assert!(
            rel_diff(
                &st.extract_diag(c0).unwrap(),
                &before.extract_diag(c0).unwrap()
            ) < 1e-14
        );
    }

    #[test]
    fn product_composition_matches_stepwise_states() {
        // Applying the product W_3 W_2 W_1 to S_0 must equal advancing the
        // state three times, checked via the extracted diagonal.
        let src = RandomDominant::new(6, 3, 1.5, 5);
        let t = materialize(&src);

        let mut prod = CompanionProduct::identity(3);
        let mut state = CompanionState::initial(t.row(0)).unwrap();
        for i in 1..4 {
            let w = CompanionW::from_row(t.row(i)).unwrap();
            prod.apply_left(&w);
            state.advance(&w);
        }
        let mut via_product = CompanionState::initial(t.row(0)).unwrap();
        via_product.apply_product(&prod);
        let c3 = &t.row(3).c;
        let d1 = state.extract_diag(c3).unwrap();
        let d2 = via_product.extract_diag(c3).unwrap();
        assert!(
            rel_diff(&d2, &d1) < 1e-11,
            "rel diff {}",
            rel_diff(&d2, &d1)
        );
    }

    #[test]
    fn compose_after_is_associative_on_ratios() {
        let src = RandomDominant::new(7, 2, 1.4, 8);
        let t = materialize(&src);
        let w = |i: usize| {
            let mut p = CompanionProduct::identity(2);
            p.apply_left(&CompanionW::from_row(t.row(i)).unwrap());
            p
        };
        // ((w3 w2) w1) vs (w3 (w2 w1)) acting on S_0.
        let left = w(1).compose_after(&w(2)).compose_after(&w(3));
        let right = w(1).compose_after(&w(2).compose_after(&w(3)));
        let mut s1 = CompanionState::initial(t.row(0)).unwrap();
        let mut s2 = s1.clone();
        s1.apply_product(&left);
        s2.apply_product(&right);
        let c3 = &t.row(3).c;
        let d1 = s1.extract_diag(c3).unwrap();
        let d2 = s2.extract_diag(c3).unwrap();
        assert!(rel_diff(&d1, &d2) < 1e-11);
    }

    #[test]
    fn singular_superdiagonal_rejected() {
        let z = Mat::zeros(2, 2);
        let row = BlockRow::new(Mat::identity(2), Mat::identity(2), z);
        assert!(CompanionW::from_row(&row).is_err());
    }

    #[test]
    fn extract_diag_reports_singular_denominator() {
        let st = CompanionState {
            u: Mat::identity(2),
            v: Mat::zeros(2, 2),
        };
        assert!(st.extract_diag(&Mat::identity(2)).is_err());
    }

    #[test]
    fn flop_formulas_positive() {
        assert_eq!(CompanionProduct::apply_left_flops(4), 2 * 2 * 4 * 4 * 8);
        assert_eq!(CompanionProduct::compose_flops(4), 2 * 2 * 4 * 8 * 8);
        assert_eq!(CompanionState::advance_flops(4), 2 * 2 * 64);
        assert!(CompanionState::extract_flops(4) > 0);
        assert!(CompanionW::build_flops(4) > 0);
    }
}
