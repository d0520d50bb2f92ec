//! Matrix and vector norms, and relative-error helpers used by the
//! accuracy experiments (Table III) and the test suites.

use crate::lu::LuFactors;
use crate::mat::Mat;

/// Frobenius norm `sqrt(sum a_ij^2)`.
pub fn fro_norm(a: &Mat) -> f64 {
    a.as_slice().iter().map(|v| v * v).sum::<f64>().sqrt()
}

/// 1-norm: maximum absolute column sum.
pub fn one_norm(a: &Mat) -> f64 {
    (0..a.cols())
        .map(|j| a.col(j).iter().map(|v| v.abs()).sum::<f64>())
        .fold(0.0, f64::max)
}

/// Infinity norm: maximum absolute row sum.
pub fn inf_norm(a: &Mat) -> f64 {
    let mut sums = vec![0.0; a.rows()];
    for j in 0..a.cols() {
        for (s, v) in sums.iter_mut().zip(a.col(j)) {
            *s += v.abs();
        }
    }
    sums.into_iter().fold(0.0, f64::max)
}

/// Euclidean norm of a vector.
pub fn vec_norm2(x: &[f64]) -> f64 {
    x.iter().map(|v| v * v).sum::<f64>().sqrt()
}

/// `||a - b||_F / max(||b||_F, floor)` — relative difference with a floor
/// that avoids division by zero for zero references.
pub fn rel_diff(a: &Mat, b: &Mat) -> f64 {
    let denom = fro_norm(b).max(f64::MIN_POSITIVE.sqrt());
    fro_norm(&a.sub(b)) / denom
}

/// 1-norm condition number estimate via the explicit inverse.
///
/// Exact (not an estimator); intended for the modest block orders (`M` up
/// to a few hundred) this suite works with, where the `O(M^3)` inverse is
/// cheap. Returns `f64::INFINITY` for singular matrices. The inverse is
/// computed at the matrix's own precision.
pub fn cond_1(a: &Mat) -> f64 {
    match LuFactors::factor(a) {
        Ok(lu) => one_norm(a) * one_norm(&lu.inverse()),
        Err(_) => f64::INFINITY,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fro_norm_known() {
        let a = Mat::from_rows(&[&[3.0, 0.0], &[0.0, 4.0]]);
        assert!((fro_norm(&a) - 5.0).abs() < 1e-14);
        assert_eq!(fro_norm(&Mat::zeros(3, 3)), 0.0);
    }

    #[test]
    fn one_and_inf_norms() {
        let a = Mat::from_rows(&[&[1.0, -2.0], &[-3.0, 4.0]]);
        assert_eq!(one_norm(&a), 6.0); // col 1: |−2|+|4| = 6
        assert_eq!(inf_norm(&a), 7.0); // row 1: |−3|+|4| = 7
    }

    #[test]
    fn one_norm_of_transpose_is_inf_norm() {
        let a = Mat::from_fn(4, 6, |i, j| ((i * 6 + j) as f64 * 0.3).sin());
        assert!((one_norm(&a.transpose()) - inf_norm(&a)).abs() < 1e-14);
    }

    #[test]
    fn vec_norm2_known() {
        assert!((vec_norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
        assert_eq!(vec_norm2(&[]), 0.0);
    }

    #[test]
    fn rel_diff_zero_for_equal() {
        let a: Mat = Mat::identity(3);
        assert_eq!(rel_diff(&a, &a), 0.0);
    }

    #[test]
    fn rel_diff_scales() {
        let a = Mat::identity(2);
        let b = a.scaled(1.0 + 1e-8);
        let d = rel_diff(&b, &a);
        assert!(d > 1e-9 && d < 1e-7);
    }

    #[test]
    fn cond_identity_is_one() {
        assert!((cond_1(&Mat::identity(7)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cond_diag_matches_ratio() {
        let a = Mat::from_diag(&[10.0, 1.0, 0.1]);
        assert!((cond_1(&a) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn cond_singular_is_infinite() {
        let a = Mat::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]);
        assert!(cond_1(&a).is_infinite());
    }
}
