//! Affine pairs: the scan element of Phases 2 and 3.
//!
//! A pair `(M, v)` represents the affine map `t -> M t + v`. The forward
//! recurrence `z_i = F_i z_{i-1} + y_i` and the backward recurrence
//! `x_i = G_i x_{i+1} + h_i` are compositions of such maps, and map
//! composition is associative — which is what recursive doubling scans.
//!
//! The key structural fact the *accelerated* algorithm exploits: under
//! composition
//!
//! ```text
//! outer ∘ inner = (M_o M_i,  M_o v_i + v_o)
//! ```
//!
//! the matrix component evolves independently of the vector component.
//! All matrix products can therefore be computed once per coefficient
//! matrix ([`AffinePair::compose`] in setup) and replayed against fresh
//! vectors ([`AffinePair::apply_to_vec`] per right-hand-side batch).

use bt_dense::{gemm, gemm_flops, Mat, Trans};

/// An affine map `t -> mat * t + vec`, with `mat` of shape `M x M` and
/// `vec` of shape `M x R` (`R` = number of simultaneous right-hand sides).
#[derive(Debug, Clone, PartialEq)]
pub struct AffinePair {
    /// The linear part.
    pub mat: Mat,
    /// The offset panel.
    pub vec: Mat,
}

impl AffinePair {
    /// The identity map with an `M x R` zero offset.
    pub fn identity(m: usize, r: usize) -> Self {
        Self {
            mat: Mat::identity(m),
            vec: Mat::zeros(m, r),
        }
    }

    /// Block order `M`.
    pub fn m(&self) -> usize {
        self.mat.rows()
    }

    /// Panel width `R`.
    pub fn r(&self) -> usize {
        self.vec.cols()
    }

    /// Composition `outer ∘ inner` (apply `inner` first):
    /// `(M_o M_i, M_o v_i + v_o)`.
    ///
    /// Costs `gemm(M,M,M) + gemm(M,M,R)` flops.
    pub fn compose(outer: &AffinePair, inner: &AffinePair) -> AffinePair {
        let m = outer.m();
        let mut mat = Mat::zeros(m, m);
        gemm(
            1.0,
            &outer.mat,
            Trans::No,
            &inner.mat,
            Trans::No,
            0.0,
            &mut mat,
        );
        let mut vec = outer.vec.clone();
        gemm(
            1.0,
            &outer.mat,
            Trans::No,
            &inner.vec,
            Trans::No,
            1.0,
            &mut vec,
        );
        AffinePair { mat, vec }
    }

    /// Vector-only composition for the replay (accelerated) path:
    /// given this pair's stored matrix and vector, computes the composed
    /// vector `mat * inner_vec + vec` — the `O(M^2 R)` part of
    /// [`AffinePair::compose`], skipping the `O(M^3)` matrix product.
    pub fn apply_to_vec(&self, inner_vec: &Mat) -> Mat {
        let mut out = self.vec.clone();
        gemm(
            1.0,
            &self.mat,
            Trans::No,
            inner_vec,
            Trans::No,
            1.0,
            &mut out,
        );
        out
    }

    /// Flops of [`AffinePair::compose`].
    pub fn compose_flops(m: usize, r: usize) -> u64 {
        gemm_flops(m, m, m) + gemm_flops(m, m, r)
    }

    /// Flops of [`AffinePair::apply_to_vec`].
    pub fn apply_flops(m: usize, r: usize) -> u64 {
        gemm_flops(m, m, r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bt_dense::{matvec, rel_diff};

    fn seq(m: usize, r: usize, s: f64) -> AffinePair {
        AffinePair {
            mat: Mat::from_fn(m, m, |i, j| ((i * m + j) as f64 * 0.7 + s).sin()),
            vec: Mat::from_fn(m, r, |i, j| ((i * r + j) as f64 * 0.3 + s).cos()),
        }
    }

    /// Applies the map to a concrete vector.
    fn apply(p: &AffinePair, t: &[f64]) -> Vec<f64> {
        let mut out = matvec(&p.mat, t);
        for (o, v) in out.iter_mut().zip(p.vec.col(0)) {
            *o += v;
        }
        out
    }

    #[test]
    fn compose_is_function_composition() {
        let a = seq(3, 1, 0.1);
        let b = seq(3, 1, 0.9);
        let t = vec![1.0, -2.0, 0.5];
        let via_compose = apply(&AffinePair::compose(&a, &b), &t);
        let stepwise = apply(&a, &apply(&b, &t));
        for (x, y) in via_compose.iter().zip(&stepwise) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn compose_associative() {
        let (a, b, c) = (seq(4, 2, 0.2), seq(4, 2, 0.5), seq(4, 2, 0.8));
        let left = AffinePair::compose(&AffinePair::compose(&a, &b), &c);
        let right = AffinePair::compose(&a, &AffinePair::compose(&b, &c));
        assert!(rel_diff(&left.mat, &right.mat) < 1e-13);
        assert!(rel_diff(&left.vec, &right.vec) < 1e-12);
    }

    #[test]
    fn identity_neutral() {
        let a = seq(3, 2, 0.4);
        let id = AffinePair::identity(3, 2);
        let l = AffinePair::compose(&a, &id);
        let r = AffinePair::compose(&id, &a);
        assert!(rel_diff(&l.mat, &a.mat) < 1e-14 && rel_diff(&l.vec, &a.vec) < 1e-14);
        assert!(rel_diff(&r.mat, &a.mat) < 1e-14 && rel_diff(&r.vec, &a.vec) < 1e-14);
    }

    #[test]
    fn apply_to_vec_matches_compose_vector_part() {
        let outer = seq(5, 3, 0.3);
        let inner = seq(5, 3, 0.6);
        let full = AffinePair::compose(&outer, &inner);
        let fast = outer.apply_to_vec(&inner.vec);
        assert!(rel_diff(&fast, &full.vec) < 1e-13);
    }

    #[test]
    fn zero_matrix_pair_erases_history() {
        // A pair with M = 0 makes the composition independent of anything
        // applied earlier — this is how the chain is seeded at row 0.
        let seed = AffinePair {
            mat: Mat::zeros(2, 2),
            vec: Mat::filled(2, 1, 7.0),
        };
        let later = seq(2, 1, 0.2);
        let anything = seq(2, 1, 0.9);
        let w1 = AffinePair::compose(&later, &AffinePair::compose(&seed, &anything));
        let w2 = AffinePair::compose(&later, &seed);
        assert!(rel_diff(&w1.vec, &w2.vec) < 1e-13);
    }

    #[test]
    fn flop_counts() {
        assert_eq!(AffinePair::compose_flops(4, 2), 128 + 64);
        assert_eq!(AffinePair::apply_flops(4, 2), 64);
    }
}
