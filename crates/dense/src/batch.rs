//! Interleaved (structure-of-arrays) batched small-matrix kernels.
//!
//! The serving workloads behind the batched-small fast path are
//! thousands of *independent* systems whose blocks are tiny (`M` in
//! {4, 8, 16}). Inside one such block there is not enough work to fill
//! a SIMD vector — `gemm_small` at `M = 4` fits a single SSE register —
//! so instead of vectorizing *within* a block, [`BatchMat`] stores `K`
//! same-shaped matrices interleaved: element `(i, j)` of every system
//! is contiguous in memory (`data[(i * cols + j) * k + s]` for system
//! `s`). Every kernel below then runs its innermost loop over the batch
//! lane `s` with unit stride and no cross-lane dependencies, routed
//! through the runtime-dispatched lane kernels in [`crate::simd`]
//! (`lane_fma` / `lane_fnma` / `lane_mul`) for full-width FMA streams
//! (4 `f64` lanes per AVX2 vector) — the batch dimension supplies the
//! SIMD parallelism the block dimension cannot.
//!
//! The LU kernel deliberately does **not** pivot: per-system pivot
//! choices would diverge the lanes and serialize the batch. Instead
//! [`batch_lu_factor`] watches every lane's pivot against a
//! scaled-epsilon threshold and reports the first system that would
//! need pivoting, so callers can retry that batch on the robust
//! per-system (pivoted) path. The intended operands — diagonal blocks
//! of diagonally dominant tridiagonal systems — never trip it.

use crate::mat::Mat;
use crate::simd;

/// `K` same-shaped matrices in an interleaved SoA layout: lane `s` of
/// entry `(r, c)` lives at `data[(r * cols + c) * k + s]`.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchMat {
    rows: usize,
    cols: usize,
    k: usize,
    data: Vec<f64>,
}

/// A batched pivot breakdown: system `system` hit a pivot below the
/// scaled-epsilon threshold at elimination step `step`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchSingularError {
    /// Index of the offending system within the batch.
    pub system: usize,
    /// Elimination step at which its pivot collapsed.
    pub step: usize,
}

impl std::fmt::Display for BatchSingularError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "batched LU: system {} needs pivoting at step {}",
            self.system, self.step
        )
    }
}

impl std::error::Error for BatchSingularError {}

impl BatchMat {
    /// A zero-filled batch of `k` `rows x cols` matrices.
    pub fn zeros(rows: usize, cols: usize, k: usize) -> Self {
        Self {
            rows,
            cols,
            k,
            data: vec![0.0; rows * cols * k],
        }
    }

    /// Interleaves a slice of same-shaped matrices into one batch.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice or mismatched shapes.
    pub fn from_mats(mats: &[Mat]) -> Self {
        assert!(!mats.is_empty(), "empty batch");
        let (rows, cols) = mats[0].shape();
        let mut out = Self::zeros(rows, cols, mats.len());
        for (s, m) in mats.iter().enumerate() {
            out.load_system(s, m);
        }
        out
    }

    /// Per-matrix row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Per-matrix column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Batch width `K`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Entry `(r, c)` of system `s`.
    #[inline]
    pub fn get(&self, r: usize, c: usize, s: usize) -> f64 {
        self.data[(r * self.cols + c) * self.k + s]
    }

    /// Sets entry `(r, c)` of system `s`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, s: usize, v: f64) {
        self.data[(r * self.cols + c) * self.k + s] = v;
    }

    /// The contiguous `K`-wide lane of entry `(r, c)`.
    #[inline]
    pub fn lane(&self, r: usize, c: usize) -> &[f64] {
        let at = (r * self.cols + c) * self.k;
        &self.data[at..at + self.k]
    }

    /// Mutable lane of entry `(r, c)`.
    #[inline]
    pub fn lane_mut(&mut self, r: usize, c: usize) -> &mut [f64] {
        let at = (r * self.cols + c) * self.k;
        &mut self.data[at..at + self.k]
    }

    /// Scatters one dense matrix into lane `s`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch or `s >= k`.
    pub fn load_system(&mut self, s: usize, m: &Mat) {
        assert_eq!(m.shape(), (self.rows, self.cols), "batch member shape");
        assert!(s < self.k, "lane out of range");
        for r in 0..self.rows {
            for c in 0..self.cols {
                self.set(r, c, s, m[(r, c)]);
            }
        }
    }

    /// Gathers lane `s` back into a dense matrix.
    pub fn extract_system(&self, s: usize) -> Mat {
        assert!(s < self.k, "lane out of range");
        Mat::from_fn(self.rows, self.cols, |r, c| self.get(r, c, s))
    }

    /// Interleaves `k` same-shaped matrices in one sequential write
    /// pass: the bulk-load path of the batched solver, where `k` strided
    /// [`Self::load_system`] scatters — or even a zero-fill before an
    /// in-place load — would dominate the solve.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice or shape mismatch.
    pub fn interleaved(rows: usize, cols: usize, srcs: &[&Mat]) -> Self {
        let k = srcs.len();
        assert!(k > 0, "empty batch");
        let slices: Vec<&[f64]> = srcs
            .iter()
            .map(|m| {
                assert_eq!(m.shape(), (rows, cols), "batch member shape");
                m.as_slice()
            })
            .collect();
        let mut data = Vec::with_capacity(rows * cols * k);
        for r in 0..rows {
            for c in 0..cols {
                let at = c * rows + r; // Mat is column-major
                data.extend(slices.iter().map(|src| src[at]));
            }
        }
        Self {
            rows,
            cols,
            k,
            data,
        }
    }

    /// Gathers all `k` lanes back into same-shaped matrices in one
    /// sequential pass (the inverse of [`Self::interleaved`]).
    ///
    /// # Panics
    ///
    /// Panics on lane-count or shape mismatch.
    pub fn extract_all(&self, dsts: &mut [&mut Mat]) {
        assert_eq!(dsts.len(), self.k, "lane count mismatch");
        let mut slices: Vec<&mut [f64]> = dsts
            .iter_mut()
            .map(|m| {
                assert_eq!(m.shape(), (self.rows, self.cols), "batch member shape");
                m.as_mut_slice()
            })
            .collect();
        let mut lanes = self.data.chunks_exact(self.k);
        for r in 0..self.rows {
            for c in 0..self.cols {
                let lane = lanes.next().expect("lane per entry");
                let at = c * self.rows + r; // Mat is column-major
                for (v, dst) in lane.iter().zip(&mut slices) {
                    dst[at] = *v;
                }
            }
        }
    }

    /// Bytes of interleaved storage.
    pub fn storage_bytes(&self) -> u64 {
        (self.data.len() * std::mem::size_of::<f64>()) as u64
    }
}

/// Batched GEMM `C <- alpha * A . B + beta * C`, elementwise across the
/// batch lane: each system's product is independent, so the inner loop
/// runs over `K` contiguous lanes (`c[s] += a[s] * b[s]`) and
/// autovectorizes to full-width FMA.
///
/// # Panics
///
/// Panics on shape or batch-width mismatch.
pub fn batch_gemm(alpha: f64, a: &BatchMat, b: &BatchMat, beta: f64, c: &mut BatchMat) {
    let (m, p) = (a.rows(), a.cols());
    let n = b.cols();
    assert_eq!(b.rows(), p, "inner dimension mismatch");
    assert_eq!((c.rows(), c.cols()), (m, n), "output shape mismatch");
    let k = a.k();
    assert!(b.k() == k && c.k() == k, "batch width mismatch");
    // `C -= A . B` (alpha = -1, beta = 1) is the shape of every block
    // Thomas coupling update; fuse each output lane's whole inner
    // product so the partial sums stay in registers instead of
    // re-streaming `c` once per inner-dimension term.
    if alpha == -1.0 && beta == 1.0 {
        for i in 0..m {
            let arow = &a.data[i * p * k..(i * p + p) * k];
            for j in 0..n {
                let cl = c.lane_mut(i, j);
                simd::lane_dot_sub(arow, &b.data[j * k..], n * k, cl);
            }
        }
        return;
    }
    for i in 0..m {
        for j in 0..n {
            let cl = c.lane_mut(i, j);
            if beta == 0.0 {
                cl.fill(0.0);
            } else if beta != 1.0 {
                for v in cl.iter_mut() {
                    *v *= beta;
                }
            }
            for l in 0..p {
                let al = a.lane(i, l);
                let bl = b.lane(l, j);
                let cl = c.lane_mut(i, j);
                // Unit-stride independent lanes, dispatched to the
                // full-width lane FMA kernels. `alpha` is almost always
                // ±1 in the block Thomas sweeps — peel those so the hot
                // loop is a single fused multiply-add per lane.
                if alpha == 1.0 {
                    simd::lane_fma(al, bl, cl);
                } else if alpha == -1.0 {
                    simd::lane_fnma(al, bl, cl);
                } else {
                    for ((cv, &av), &bv) in cl.iter_mut().zip(al).zip(bl) {
                        *cv += alpha * av * bv;
                    }
                }
            }
        }
    }
}

/// Batched in-place unpivoted LU: on return, each lane of `a` holds its
/// system's `L` (unit diagonal, below) and `U` (above), with the `U`
/// diagonal stored as its *reciprocal* (see the in-body comment — the
/// solves multiply by it, so [`batch_lu_solve`] is division-free).
///
/// # Errors
///
/// [`BatchSingularError`] naming the first system whose pivot falls
/// below `rows * epsilon` times that system's max-abs entry — the batch
/// is left partially eliminated and must be discarded; re-run the
/// offending workload on the pivoted per-system path.
///
/// # Panics
///
/// Panics if `a` is not square.
pub fn batch_lu_factor(a: &mut BatchMat) -> Result<(), BatchSingularError> {
    let m = a.rows();
    assert_eq!(a.cols(), m, "batched LU needs square matrices");
    let k = a.k();

    // Per-system magnitude scale for the relative pivot threshold.
    let mut scale = vec![0.0; k];
    for r in 0..m {
        for c in 0..m {
            let lane = a.lane(r, c);
            for s in 0..k {
                let v = lane[s].abs();
                if v > scale[s] {
                    scale[s] = v;
                }
            }
        }
    }
    let eps = m as f64 * f64::EPSILON;

    for step in 0..m {
        // Lane-wise pivot check, then store the pivot's *reciprocal* in
        // place of the diagonal: both the L column below and every later
        // solve multiply by it instead of dividing, and vector divides
        // cost an order of magnitude more than FMAs on every SIMD ISA.
        {
            let piv = a.lane_mut(step, step);
            for (s, v) in piv.iter_mut().enumerate() {
                // `>` written positively so a NaN pivot (incomparable)
                // also lands in the singular branch.
                let ok = matches!(
                    v.abs().partial_cmp(&(scale[s] * eps)),
                    Some(std::cmp::Ordering::Greater)
                );
                if !ok {
                    return Err(BatchSingularError { system: s, step });
                }
                *v = 1.0 / *v;
            }
        }
        // L column: a[r][step] *= 1/pivot, for r > step.
        for r in step + 1..m {
            let at_piv = (step * m + step) * k;
            let at_l = (r * m + step) * k;
            // `r > step` puts the L entry strictly after the pivot lane.
            debug_assert!(at_piv + k <= at_l);
            let (head, tail) = a.data.split_at_mut(at_l);
            let piv = &head[at_piv..at_piv + k];
            let dst = &mut tail[..k];
            simd::lane_mul(piv, dst);
        }
        // Trailing update: a[r][c] -= a[r][step] * a[step][c].
        for r in step + 1..m {
            for c in step + 1..m {
                let at_l = (r * m + step) * k;
                let at_u = (step * m + c) * k;
                let at_t = (r * m + c) * k;
                // `r > step` puts the target row strictly after the U row,
                // and `c != step` separates it from the L entry.
                debug_assert!(at_t > at_u && at_t != at_l);
                let (head, tail) = a.data.split_at_mut(at_t);
                let t = &mut tail[..k];
                let lcol = &head[at_l..at_l + k];
                let urow = &head[at_u..at_u + k];
                simd::lane_fnma(lcol, urow, t);
            }
        }
    }
    Ok(())
}

/// Batched LU solve: overwrites each lane of `x` (an `m x r x K` batch
/// of right-hand-side panels) with its system's solution, using the
/// factors produced by [`batch_lu_factor`].
///
/// # Panics
///
/// Panics on shape or batch-width mismatch.
pub fn batch_lu_solve(lu: &BatchMat, x: &mut BatchMat) {
    let m = lu.rows();
    assert_eq!(lu.cols(), m, "LU batch must be square");
    assert_eq!(x.rows(), m, "rhs row count mismatch");
    let k = lu.k();
    assert_eq!(x.k(), k, "batch width mismatch");
    let r = x.cols();

    // Forward: L y = b (unit diagonal). Each row's eliminations fuse
    // into one lane reduction over the columns left of the diagonal —
    // the L row prefix is contiguous in the interleaved layout, and the
    // already-solved rhs rows are `r * k` apart.
    for row in 1..m {
        let lrow = &lu.data[row * m * k..(row * m + row) * k];
        for j in 0..r {
            let at_dst = (row * r + j) * k;
            let (head, tail) = x.data.split_at_mut(at_dst);
            let dst = &mut tail[..k];
            simd::lane_dot_sub(lrow, &head[j * k..], r * k, dst);
        }
    }
    // Backward: U x = y, the same fused reduction over the columns
    // right of the diagonal. The stored diagonal is the pivot's
    // reciprocal (see `batch_lu_factor`), so the scaling is a multiply.
    for row in (0..m).rev() {
        if row + 1 < m {
            let urow = &lu.data[(row * m + row + 1) * k..(row * m + m) * k];
            let (head, tail) = x.data.split_at_mut((row + 1) * r * k);
            for j in 0..r {
                let at_dst = (row * r + j) * k;
                let dst = &mut head[at_dst..at_dst + k];
                simd::lane_dot_sub(urow, &tail[j * k..], r * k, dst);
            }
        }
        let d = lu.lane(row, row);
        for j in 0..r {
            let dst = x.lane_mut(row, j);
            simd::lane_mul(d, dst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lu::LuFactors;
    use crate::random::diag_dominant;
    use crate::{gemm, rel_diff, Trans};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn batch_of(m: usize, k: usize, seed: u64) -> (Vec<Mat>, BatchMat) {
        let mats: Vec<Mat> = (0..k)
            .map(|s| {
                let mut rng = StdRng::seed_from_u64(seed + s as u64);
                diag_dominant(m, 1.4, &mut rng)
            })
            .collect();
        let b = BatchMat::from_mats(&mats);
        (mats, b)
    }

    #[test]
    fn roundtrip_preserves_every_lane() {
        let (mats, b) = batch_of(5, 7, 1);
        for (s, m) in mats.iter().enumerate() {
            assert_eq!(&b.extract_system(s), m);
        }
        assert_eq!(b.storage_bytes(), (5 * 5 * 7 * 8) as u64);
    }

    #[test]
    fn batch_gemm_matches_per_system_gemm() {
        let (am, ab) = batch_of(4, 9, 10);
        let (bm, bb) = batch_of(4, 9, 20);
        let mut cb = BatchMat::zeros(4, 4, 9);
        batch_gemm(1.0, &ab, &bb, 0.0, &mut cb);
        for s in 0..9 {
            let mut want = Mat::zeros(4, 4);
            gemm(1.0, &am[s], Trans::No, &bm[s], Trans::No, 0.0, &mut want);
            assert!(rel_diff(&cb.extract_system(s), &want) < 1e-14, "lane {s}");
        }
        // Accumulating form: C <- 2 A B + C doubles then adds.
        let mut acc = cb.clone();
        batch_gemm(2.0, &ab, &bb, 1.0, &mut acc);
        for s in 0..9 {
            assert!(rel_diff(&acc.extract_system(s), &cb.extract_system(s).scaled(3.0)) < 1e-14);
        }
    }

    #[test]
    fn batch_lu_solves_every_lane() {
        let (mats, mut lu) = batch_of(8, 6, 33);
        batch_lu_factor(&mut lu).unwrap();
        let rhs: Vec<Mat> = (0..6)
            .map(|s| Mat::from_fn(8, 2, |r, c| ((r + 2 * c + s) as f64).sin()))
            .collect();
        let mut xb = BatchMat::from_mats(&rhs);
        batch_lu_solve(&lu, &mut xb);
        for s in 0..6 {
            let want = LuFactors::factor(&mats[s]).unwrap().solve(&rhs[s]);
            assert!(
                rel_diff(&xb.extract_system(s), &want) < 1e-12,
                "lane {s}: {}",
                rel_diff(&xb.extract_system(s), &want)
            );
        }
    }

    #[test]
    fn singular_lane_is_named() {
        let good = Mat::identity(3);
        let mut bad = Mat::identity(3);
        bad[(1, 1)] = 0.0;
        let mut lu = BatchMat::from_mats(&[good.clone(), bad, good]);
        let err = batch_lu_factor(&mut lu).unwrap_err();
        assert_eq!(err.system, 1);
        assert_eq!(err.step, 1);
        assert!(err.to_string().contains("system 1"));
    }
}
