//! Property-based tests for the dense kernels: algebraic identities that
//! must hold (to rounding) for arbitrary well-scaled inputs, plus
//! packed-vs-naive GEMM equivalence at blocking boundaries.

use bt_dense::random::{rng, uniform};
use bt_dense::{
    fro_norm, gemm, gemm_axpy, gemm_packed, inf_norm, matmul, one_norm, LuFactors, Mat, Trans,
};
use proptest::prelude::*;

/// Strategy: an `r x c` matrix with entries in [-10, 10].
fn mat_strategy(r: usize, c: usize) -> impl Strategy<Value = Mat> {
    proptest::collection::vec(-10.0f64..10.0, r * c).prop_map(move |v| Mat::from_col_major(r, c, v))
}

/// Strategy: a well-conditioned n x n matrix (diagonally dominated).
fn dd_mat_strategy(n: usize) -> impl Strategy<Value = Mat> {
    proptest::collection::vec(-1.0f64..1.0, n * n).prop_map(move |v| {
        let mut m = Mat::from_col_major(n, n, v);
        for i in 0..n {
            let boost = 2.0 * n as f64;
            let d = m.get(i, i);
            m.set(i, i, d + if d >= 0.0 { boost } else { -boost });
        }
        m
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matmul_associative((a, b, c) in (mat_strategy(4, 5), mat_strategy(5, 3), mat_strategy(3, 6))) {
        let left = matmul(&matmul(&a, &b), &c);
        let right = matmul(&a, &matmul(&b, &c));
        let scale = fro_norm(&left).max(1.0);
        prop_assert!(fro_norm(&left.sub(&right)) / scale < 1e-12);
    }

    #[test]
    fn matmul_distributes_over_add((a, b, c) in (mat_strategy(4, 4), mat_strategy(4, 4), mat_strategy(4, 4))) {
        let lhs = matmul(&a, &b.add(&c));
        let rhs = matmul(&a, &b).add(&matmul(&a, &c));
        let scale = fro_norm(&lhs).max(1.0);
        prop_assert!(fro_norm(&lhs.sub(&rhs)) / scale < 1e-12);
    }

    #[test]
    fn transpose_of_product((a, b) in (mat_strategy(3, 5), mat_strategy(5, 4))) {
        let lhs = matmul(&a, &b).transpose();
        let rhs = matmul(&b.transpose(), &a.transpose());
        prop_assert!(fro_norm(&lhs.sub(&rhs)) < 1e-11);
    }

    #[test]
    fn gemm_trans_flags_match_explicit_transpose((a, b) in (mat_strategy(6, 4), mat_strategy(6, 3))) {
        // A^T (4x6) * B (6x3)
        let mut c1 = Mat::zeros(4, 3);
        gemm(1.0, &a, Trans::Yes, &b, Trans::No, 0.0, &mut c1);
        let c2 = matmul(&a.transpose(), &b);
        prop_assert!(fro_norm(&c1.sub(&c2)) < 1e-12);
    }

    #[test]
    fn lu_solve_residual_small(a in dd_mat_strategy(8), rhs in mat_strategy(8, 3)) {
        let lu = LuFactors::factor(&a).unwrap();
        let x = lu.solve(&rhs);
        let resid = matmul(&a, &x).sub(&rhs);
        let scale = fro_norm(&rhs).max(1.0);
        prop_assert!(fro_norm(&resid) / scale < 1e-10);
    }

    #[test]
    fn lu_det_multiplicative((a, b) in (dd_mat_strategy(5), dd_mat_strategy(5))) {
        let da = LuFactors::factor(&a).unwrap().det();
        let db = LuFactors::factor(&b).unwrap().det();
        let dab = LuFactors::factor(&matmul(&a, &b)).unwrap().det();
        prop_assert!((dab - da * db).abs() / dab.abs().max(1.0) < 1e-9);
    }

    #[test]
    fn inverse_is_two_sided(a in dd_mat_strategy(6)) {
        let inv = LuFactors::factor(&a).unwrap().inverse();
        let i = Mat::identity(6);
        prop_assert!(fro_norm(&matmul(&a, &inv).sub(&i)) < 1e-10);
        prop_assert!(fro_norm(&matmul(&inv, &a).sub(&i)) < 1e-10);
    }

    #[test]
    fn norm_triangle_inequality((a, b) in (mat_strategy(5, 5), mat_strategy(5, 5))) {
        let sum = a.add(&b);
        prop_assert!(fro_norm(&sum) <= fro_norm(&a) + fro_norm(&b) + 1e-12);
        prop_assert!(one_norm(&sum) <= one_norm(&a) + one_norm(&b) + 1e-12);
        prop_assert!(inf_norm(&sum) <= inf_norm(&a) + inf_norm(&b) + 1e-12);
    }

    #[test]
    fn norm_submultiplicative((a, b) in (mat_strategy(4, 4), mat_strategy(4, 4))) {
        let p = matmul(&a, &b);
        prop_assert!(one_norm(&p) <= one_norm(&a) * one_norm(&b) + 1e-12);
        prop_assert!(inf_norm(&p) <= inf_norm(&a) * inf_norm(&b) + 1e-12);
    }

    #[test]
    fn block_roundtrip(a in mat_strategy(7, 9)) {
        let blk = a.block(2, 3, 4, 5);
        let mut copy = a.clone();
        copy.set_block(2, 3, &blk);
        prop_assert_eq!(copy, a);
    }

    #[test]
    fn vstack_hstack_consistent_with_blocks((a, b) in (mat_strategy(3, 4), mat_strategy(2, 4))) {
        let v = Mat::vstack(&a, &b);
        prop_assert_eq!(v.block(0, 0, 3, 4), a);
        prop_assert_eq!(v.block(3, 0, 2, 4), b);
        let h = Mat::hstack(&v.transpose(), &Mat::identity(4));
        prop_assert_eq!(h.block(0, 5, 4, 4), Mat::identity(4));
    }
}

/// Dimensions straddling every blocking edge of the packed kernel:
/// NB = 64 (63..65) and KC = 128 (127..130), plus MR/NR ragged tails.
const BOUNDARY_DIMS: [usize; 7] = [63, 64, 65, 127, 128, 129, 130];

/// Strategy: one of the boundary-straddling dimensions.
fn boundary_dim() -> impl Strategy<Value = usize> {
    (0usize..BOUNDARY_DIMS.len()).prop_map(|i| BOUNDARY_DIMS[i])
}

/// Reference triple-loop product (no blocking, no packing).
fn naive_matmul(a: &Mat, b: &Mat) -> Mat {
    let mut c = Mat::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let mut s = 0.0;
            for k in 0..a.cols() {
                s += a.get(i, k) * b.get(k, j);
            }
            c.set(i, j, s);
        }
    }
    c
}

proptest! {
    // Each case multiplies ~128^3-sized operands; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn packed_matches_naive_at_boundaries_all_trans(
        (m, k, n, seed) in (boundary_dim(), boundary_dim(), boundary_dim(), 0u64..1000)
    ) {
        let a0 = uniform(m, k, &mut rng(seed));
        let b0 = uniform(k, n, &mut rng(seed.wrapping_add(1)));
        let tol = 1e-12 * k as f64;
        let expect = naive_matmul(&a0, &b0);
        for (ta, tb) in [
            (Trans::No, Trans::No),
            (Trans::Yes, Trans::No),
            (Trans::No, Trans::Yes),
            (Trans::Yes, Trans::Yes),
        ] {
            // Store operands so op(A) is m x k and op(B) is k x n.
            let a = if ta == Trans::Yes { a0.transpose() } else { a0.clone() };
            let b = if tb == Trans::Yes { b0.transpose() } else { b0.clone() };
            let mut c = Mat::zeros(m, n);
            gemm(1.0, &a, ta, &b, tb, 0.0, &mut c);
            prop_assert!(
                c.sub(&expect).max_abs() <= tol,
                "gemm({ta:?},{tb:?}) {m}x{k}x{n}: err {}",
                c.sub(&expect).max_abs()
            );
        }
    }

    #[test]
    fn packed_and_axpy_agree(
        (m, k, n, seed) in (boundary_dim(), boundary_dim(), boundary_dim(), 0u64..1000)
    ) {
        let a = uniform(m, k, &mut rng(seed));
        let b = uniform(k, n, &mut rng(seed ^ 0x9e37));
        let mut c_axpy = Mat::zeros(m, n);
        gemm_axpy(1.0, &a, &b, &mut c_axpy);
        let mut c_packed = Mat::zeros(m, n);
        gemm_packed(1.0, &a, &b, &mut c_packed);
        prop_assert!(c_packed.sub(&c_axpy).max_abs() <= 1e-12 * k as f64);
    }

    #[test]
    fn non_finite_inputs_propagate(
        (m, k, n, i, j, seed) in (boundary_dim(), boundary_dim(), boundary_dim(), 0usize..63, 0usize..63, 0u64..1000)
    ) {
        // Poison one entry of A; every C entry in row i must be non-finite
        // even when B columns contain zeros (0 * NaN == NaN).
        let mut a = uniform(m, k, &mut rng(seed));
        let mut b = uniform(k, n, &mut rng(seed ^ 0x51));
        b.set(j % k, 0, 0.0);
        a.set(i % m, j % k, f64::NAN);
        let c = matmul(&a, &b);
        for jj in 0..n {
            prop_assert!(c.get(i % m, jj).is_nan(), "C[{},{jj}] finite", i % m);
        }
        let mut cp = Mat::zeros(m, n);
        gemm_packed(1.0, &a, &b, &mut cp);
        prop_assert!(cp.get(i % m, 0).is_nan());
    }
}
