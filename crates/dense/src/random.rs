//! Seeded random matrix generators.
//!
//! Everything in the suite that involves randomness takes an explicit
//! seed so experiments and tests are exactly reproducible.

use crate::mat::Mat;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Returns a seeded RNG. All suite randomness flows through this so the
/// generator can be swapped in one place.
pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// `rows x cols` matrix with i.i.d. entries uniform in `[-1, 1)`.
pub fn uniform(rows: usize, cols: usize, rng: &mut StdRng) -> Mat {
    let mut m = Mat::zeros(rows, cols);
    for v in m.as_mut_slice() {
        *v = rng.gen_range(-1.0..1.0);
    }
    m
}

/// Random square matrix with the diagonal boosted so the matrix is
/// strictly row diagonally dominant: `|a_ii| > sum_{j != i} |a_ij| * margin`.
///
/// `margin >= 1.0`; larger margins give better conditioning.
///
/// # Panics
///
/// Panics if `margin < 1.0`.
pub fn diag_dominant(n: usize, margin: f64, rng: &mut StdRng) -> Mat {
    assert!(margin >= 1.0, "dominance margin must be >= 1, got {margin}");
    let mut m = uniform(n, n, rng);
    for i in 0..n {
        let off: f64 = (0..n).filter(|&j| j != i).map(|j| m.get(i, j).abs()).sum();
        let sign = if m.get(i, i) >= 0.0 { 1.0 } else { -1.0 };
        m.set(i, i, sign * (off * margin + 1.0));
    }
    m
}

/// Random vector with entries uniform in `[-1, 1)`.
pub fn uniform_vec(n: usize, rng: &mut StdRng) -> Vec<f64> {
    (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lu::LuFactors;

    #[test]
    fn seeded_generation_is_deterministic() {
        let a = uniform(4, 4, &mut rng(42));
        let b = uniform(4, 4, &mut rng(42));
        assert_eq!(a, b);
        let c = uniform(4, 4, &mut rng(43));
        assert_ne!(a, c);
    }

    #[test]
    fn uniform_entries_in_range() {
        let m = uniform(20, 20, &mut rng(7));
        assert!(m.as_slice().iter().all(|&v| (-1.0..1.0).contains(&v)));
    }

    #[test]
    fn diag_dominant_really_is() {
        let m = diag_dominant(15, 1.5, &mut rng(11));
        for i in 0..15 {
            let off: f64 = (0..15).filter(|&j| j != i).map(|j| m.get(i, j).abs()).sum();
            assert!(m.get(i, i).abs() > off, "row {i} not dominant");
        }
        // Dominant matrices must factor without trouble.
        assert!(LuFactors::factor(&m).is_ok());
    }

    #[test]
    #[should_panic(expected = "dominance margin")]
    fn diag_dominant_rejects_small_margin() {
        let _ = diag_dominant(3, 0.5, &mut rng(0));
    }

    #[test]
    fn uniform_vec_len_and_determinism() {
        let v = uniform_vec(9, &mut rng(5));
        assert_eq!(v.len(), 9);
        assert_eq!(v, uniform_vec(9, &mut rng(5)));
    }
}
