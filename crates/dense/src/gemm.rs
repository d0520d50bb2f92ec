//! General matrix-matrix and matrix-vector multiplication kernels.
//!
//! The workhorse is [`gemm`], a BLAS-3-style update
//! `C <- alpha * op(A) * op(B) + beta * C` with optional transposition of
//! either operand, dispatched over three kernels by measured crossover
//! (see `PACKED_MIN_FLOPS_*`):
//!
//! * [`gemm_small`] — unrolled small-block panel kernels for
//!   `M x M · M x R` products with `M` in {4, 8, 16} and any `R`, the
//!   shapes of every ARD replay and setup update. No packing, no
//!   blocking loops; taken whenever `A` is such a block, whatever `R`.
//! * [`gemm_axpy`] — a lean cache-blocked j-k-i kernel whose AXPY inner
//!   loops go through the runtime-dispatched SIMD primitives
//!   ([`crate::simd`]).
//! * [`gemm_packed`] — a BLIS-style packed kernel: operand panels are
//!   repacked into contiguous `MR`-tall / `NR`-wide micro-panels
//!   and multiplied by a register-tiled microkernel (in [`crate::simd`],
//!   FMA-vectorized where the CPU allows).
//!
//! The packed-vs-AXPY crossover only decides between packed and AXPY for
//! `A` operands that are not small blocks.
//!
//! Every public kernel accepts `impl Into<MatRef>` / `impl Into<MatMut>`
//! operands, so both owned matrices (`&Mat` / `&mut Mat`) and borrowed
//! [`MatRef`]/[`MatMut`] views (including strided submatrix windows)
//! work without copies. Packing scratch lives in thread-local buffers
//! (`with_pack_bufs`), so warm calls on a given thread allocate nothing.
//!
//! Every kernel accumulates every term unconditionally (no zero
//! short-circuits), so non-finite inputs propagate into the output as
//! IEEE-754 dictates. Every kernel also fixes the per-element summation
//! order independently of blocking and column tiling. Every kernel runs
//! on the calling thread. The small-block and packed kernels share one
//! per-element chain for `k <= KC` (accumulate from zero in `k` order,
//! then add `alpha` times the sum into C), so at `alpha = ±1` they agree
//! bit for bit.

use crate::mat::Mat;
use crate::simd::{self, Isa, MR, NR};
use crate::view::{MatMut, MatRef};
use std::cell::RefCell;

/// Observability counters (no-ops unless `BT_OBS` is on): dispatch counts
/// for the small/packed/AXPY split, how many dispatches ran on a SIMD
/// instruction set, total flops issued through this module, and
/// nanoseconds spent repacking operand panels — the raw inputs for
/// checking the CostModel's compute term against real kernel behaviour.
static OBS_PACKED_CALLS: bt_obs::Counter = bt_obs::Counter::new("bt_dense.gemm.packed_calls");
static OBS_AXPY_CALLS: bt_obs::Counter = bt_obs::Counter::new("bt_dense.gemm.axpy_calls");
static OBS_SMALL_CALLS: bt_obs::Counter = bt_obs::Counter::new("bt_dense.gemm.small_calls");
static OBS_SIMD_CALLS: bt_obs::Counter = bt_obs::Counter::new("bt_dense.gemm.simd_calls");
static OBS_GEMV_CALLS: bt_obs::Counter = bt_obs::Counter::new("bt_dense.gemm.gemv_calls");
static OBS_GEMM_FLOPS: bt_obs::Counter = bt_obs::Counter::new("bt_dense.gemm.flops");
static OBS_PACK_NS: bt_obs::Counter = bt_obs::Counter::new("bt_dense.gemm.pack_ns");
/// Last-dispatched instruction set, encoded per [`Isa::index`]
/// (0 = scalar, 1 = avx2+fma, 2 = neon).
static OBS_DISPATCH_ISA: bt_obs::Gauge = bt_obs::Gauge::new("bt_dense.gemm.dispatch_isa");

/// Operand transposition selector for [`gemm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trans {
    /// Use the operand as stored.
    No,
    /// Use the transpose of the operand.
    Yes,
}

impl Trans {
    /// Effective `(rows, cols)` of `op(m)`.
    fn dims(self, m: MatRef<'_>) -> (usize, usize) {
        match self {
            Trans::No => (m.rows(), m.cols()),
            Trans::Yes => (m.cols(), m.rows()),
        }
    }
}

/// Column block width of the AXPY kernel (`NC` in BLIS terms): a
/// `KC x NB` panel of B plus a column stripe of A stay cache-resident.
const NB: usize = 64;
/// Inner (k) blocking depth (`KC`).
const KC: usize = 128;
/// Row block height of the packed kernel's `ic` macro-loop (`MC`): one
/// packed `MC x KC` A-panel is 256 KiB (sized for outer-cache
/// residency).
const MC: usize = 256;

/// Packed-vs-AXPY crossover on SIMD dispatch paths, in flops (`2 m k n`).
/// Measured on the AVX2+FMA reference host (`cargo bench -p bt-bench
/// --bench kernels`, see `BENCH_gemm.json`): the FMA microkernel beats
/// the (also FMA-vectorized) AXPY kernel at every swept size from
/// m = k = n = 8 (1 kflop, 1.08x) through m = 256 (3.7x), while AXPY
/// wins at m = 4 (128 flop, 2.2x — the pack pass dominates). 512 flops
/// splits that gap. Only `A` operands outside the small-block orders
/// {4, 8, 16} consult it: those always take the panel kernel.
const PACKED_MIN_FLOPS_SIMD: usize = 512;

/// Packed-vs-AXPY crossover on the scalar fallback path. The same sweep
/// under `BT_DENSE_SIMD=0` shows the autovectorized AXPY loop winning
/// through m = 48 and the scalar microkernel taking over from m = 63;
/// the crossover sits right at `2 * 63^3`.
const PACKED_MIN_FLOPS_SCALAR: usize = 500_000;

/// `C <- alpha * op(A) * op(B) + beta * C`.
///
/// Operands may be `&Mat`, `&mut Mat`, or borrowed views
/// ([`MatRef`]/[`MatMut`], including strided submatrix windows).
///
/// # Panics
///
/// Panics if the operand shapes are not conformable with `C`.
///
/// # Examples
///
/// ```
/// use bt_dense::{gemm, Mat, Trans};
///
/// let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Mat::identity(2);
/// let mut c = Mat::zeros(2, 2);
/// gemm(1.0, &a, Trans::No, &b, Trans::No, 0.0, &mut c);
/// assert_eq!(c, a);
/// ```
pub fn gemm<'a, 'b, 'c>(
    alpha: f64,
    a: impl Into<MatRef<'a>>,
    ta: Trans,
    b: impl Into<MatRef<'b>>,
    tb: Trans,
    beta: f64,
    c: impl Into<MatMut<'c>>,
) {
    gemm_ref(alpha, a.into(), ta, b.into(), tb, beta, c.into());
}

fn gemm_ref(
    alpha: f64,
    a: MatRef<'_>,
    ta: Trans,
    b: MatRef<'_>,
    tb: Trans,
    beta: f64,
    mut c: MatMut<'_>,
) {
    let (m, ka) = ta.dims(a);
    let (kb, n) = tb.dims(b);
    assert_eq!(ka, kb, "gemm inner dimension mismatch: {ka} vs {kb}");
    assert_eq!(
        c.shape(),
        (m, n),
        "gemm output shape mismatch: expected {m}x{n}, got {}x{}",
        c.rows(),
        c.cols()
    );
    let k = ka;

    // Scale C by beta once up front.
    if beta == 0.0 {
        c.fill_zero();
    } else if beta != 1.0 {
        c.scale(beta);
    }
    if alpha == 0.0 || m == 0 || n == 0 || k == 0 {
        return;
    }

    match (ta, tb) {
        (Trans::No, Trans::No) => gemm_nn(alpha, a, b, c),
        _ => {
            // Pack op(A)/op(B) into plain column-major temporaries, then use
            // the fast no-transpose kernel. Packing is O(mk + kn), negligible
            // next to the O(mnk) multiply for the sizes we care about.
            let ap;
            let bp;
            let a_eff = match ta {
                Trans::No => a,
                Trans::Yes => {
                    ap = transpose_of(a);
                    ap.as_ref()
                }
            };
            let b_eff = match tb {
                Trans::No => b,
                Trans::Yes => {
                    bp = transpose_of(b);
                    bp.as_ref()
                }
            };
            gemm_nn(alpha, a_eff, b_eff, c);
        }
    }
}

/// Materializes the transpose of a view (for the `Trans::Yes` paths).
fn transpose_of(v: MatRef<'_>) -> Mat {
    let mut t = Mat::zeros(v.cols(), v.rows());
    for j in 0..v.cols() {
        for i in 0..v.rows() {
            t.set(j, i, v.get(i, j));
        }
    }
    t
}

/// `C += alpha * A * B` for plain column-major operands: small-block
/// `A` operands take the panel kernel at any width; everything else
/// picks packed vs. AXPY by size (measured crossover — see
/// `PACKED_MIN_FLOPS_*`).
fn gemm_nn(alpha: f64, a: MatRef<'_>, b: MatRef<'_>, c: MatMut<'_>) {
    if bt_obs::enabled() {
        let isa = simd::active();
        OBS_DISPATCH_ISA.set(f64::from(isa.index()));
        if isa != Isa::Scalar {
            OBS_SIMD_CALLS.incr();
        }
    }
    match choose_kernel(a.rows(), a.cols(), b.cols()) {
        Kernel::Small => {
            let shapes = (a.shape(), b.shape(), c.shape());
            assert!(
                gemm_small(alpha, a, b, c),
                "gemm shape mismatch: {:?} x {:?} into {:?}",
                shapes.0,
                shapes.1,
                shapes.2
            );
        }
        Kernel::Packed => gemm_packed_ref(alpha, a, b, c),
        Kernel::Axpy => gemm_axpy_ref(alpha, a, b, c),
    }
}

/// Small-block panel `C += alpha * A * B`: `A` is `M x M` with `M` in
/// {4, 8, 16}, `B` and `C` are `M x R` for any `R` (strided views
/// welcome). Output columns are produced a few at a time straight from
/// the operands — no packing, no scratch — with one FMA chain per
/// element that matches [`gemm_packed`]'s, so at `alpha = ±1` the two
/// agree bit for bit. [`gemm`] routes every such shape here. Returns
/// `false` without touching `C` for any other shape; exposed so benches
/// can time it against the other kernels directly.
pub fn gemm_small<'a, 'b, 'c>(
    alpha: f64,
    a: impl Into<MatRef<'a>>,
    b: impl Into<MatRef<'b>>,
    c: impl Into<MatMut<'c>>,
) -> bool {
    let (a, b, mut c) = (a.into(), b.into(), c.into());
    let hit = simd::gemm_small(alpha, a, b, &mut c);
    if hit {
        OBS_SMALL_CALLS.incr();
        OBS_GEMM_FLOPS.add(gemm_flops(a.rows(), a.rows(), b.cols()));
    }
    hit
}

/// The kernels [`gemm`] dispatches between.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernel {
    Small,
    Packed,
    Axpy,
}

/// The kernel for an `(m, k, n)` product: the small-block panel kernel
/// for square `A` of order 4, 8 or 16 at any `n`, else packed vs. AXPY
/// by the measured crossover for the active ISA.
fn choose_kernel(m: usize, k: usize, n: usize) -> Kernel {
    let packed_min = if simd::active() == Isa::Scalar {
        PACKED_MIN_FLOPS_SCALAR
    } else {
        PACKED_MIN_FLOPS_SIMD
    };
    if simd::is_small_block(m, k) {
        Kernel::Small
    } else if 2 * m * k * n >= packed_min {
        Kernel::Packed
    } else {
        Kernel::Axpy
    }
}

/// Cache-blocked `C += alpha * A * B` with AXPY inner loops (j-k-i loop
/// order). The small-problem kernel; exposed for benchmarking against
/// [`gemm_packed`].
///
/// # Panics
///
/// Panics if shapes are not conformable.
pub fn gemm_axpy<'a, 'b, 'c>(
    alpha: f64,
    a: impl Into<MatRef<'a>>,
    b: impl Into<MatRef<'b>>,
    c: impl Into<MatMut<'c>>,
) {
    gemm_axpy_ref(alpha, a.into(), b.into(), c.into());
}

fn gemm_axpy_ref(alpha: f64, a: MatRef<'_>, b: MatRef<'_>, mut c: MatMut<'_>) {
    let m = a.rows();
    let k = a.cols();
    let n = b.cols();
    assert_eq!(k, b.rows(), "gemm inner dimension mismatch");
    assert_eq!(c.shape(), (m, n), "gemm output shape mismatch");
    OBS_AXPY_CALLS.incr();
    OBS_GEMM_FLOPS.add(gemm_flops(m, k, n));

    for j0 in (0..n).step_by(NB) {
        let jb = NB.min(n - j0);
        for k0 in (0..k).step_by(KC) {
            let kb = KC.min(k - k0);
            for j in j0..j0 + jb {
                let b_col = b.col(j);
                let c_col = c.col_mut(j);
                for (kk, bk) in b_col.iter().enumerate().skip(k0).take(kb) {
                    // No skip on zero weights: 0 * inf and 0 * NaN must
                    // reach C as NaN, matching IEEE-754 and the packed
                    // kernel.
                    let w = alpha * *bk;
                    // AXPY: c_col += w * a_col — contiguous columns through
                    // the runtime-dispatched SIMD primitive (FMA per
                    // element where the CPU allows).
                    simd::axpy(w, a.col(kk), c_col);
                }
            }
        }
    }
}

/// BLIS-style packed `C += alpha * A * B` for plain column-major
/// operands.
///
/// A and B panels are repacked into contiguous `MR x KC` /
/// `KC x NR` micro-panels (zero-padded at the edges) and combined by
/// a register-tiled microkernel. Packing scratch is checked out of
/// thread-local buffers, so warm calls allocate nothing. Per-element
/// summation order is fixed by the `KC` partition of `k` alone.
///
/// # Panics
///
/// Panics if shapes are not conformable.
pub fn gemm_packed<'a, 'b, 'c>(
    alpha: f64,
    a: impl Into<MatRef<'a>>,
    b: impl Into<MatRef<'b>>,
    c: impl Into<MatMut<'c>>,
) {
    gemm_packed_ref(alpha, a.into(), b.into(), c.into());
}

fn gemm_packed_ref(alpha: f64, a: MatRef<'_>, b: MatRef<'_>, c: MatMut<'_>) {
    let m = a.rows();
    let k = a.cols();
    let n = b.cols();
    assert_eq!(k, b.rows(), "gemm inner dimension mismatch");
    assert_eq!(c.shape(), (m, n), "gemm output shape mismatch");
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    OBS_PACKED_CALLS.incr();
    OBS_GEMM_FLOPS.add(gemm_flops(m, k, n));

    let (lda, ldb, ldc) = (a.col_stride(), b.col_stride(), c.col_stride());
    let c = c.data;
    with_pack_bufs(|packed_a, packed_b| {
        packed_b.clear();
        packed_b.resize(KC * n.next_multiple_of(NR), 0.0);
        packed_a.clear();
        packed_a.resize(MC.min(m).next_multiple_of(MR) * KC, 0.0);
        // Pack-time accounting: accumulate locally, publish once per call
        // so the hot loop touches no shared state.
        let obs = bt_obs::enabled();
        let mut pack_ns = 0u64;
        let mut timed = |work: &mut dyn FnMut()| {
            if obs {
                let t0 = std::time::Instant::now();
                work();
                pack_ns += u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            } else {
                work();
            }
        };

        for pc in (0..k).step_by(KC) {
            let kb = KC.min(k - pc);
            timed(&mut || pack_b(b.data, ldb, pc, kb, n, packed_b));
            for ic in (0..m).step_by(MC) {
                let mbb = MC.min(m - ic);
                timed(&mut || pack_a(a.data, lda, ic, mbb, pc, kb, packed_a));
                let n_jr = n.div_ceil(NR);
                let n_ir = mbb.div_ceil(MR);
                for jr in 0..n_jr {
                    let jb = NR.min(n - jr * NR);
                    let pb = &packed_b[jr * kb * NR..][..kb * NR];
                    for ir in 0..n_ir {
                        let ib = MR.min(mbb - ir * MR);
                        let pa = &packed_a[ir * kb * MR..][..kb * MR];
                        let mut acc = [0.0; MR * NR];
                        simd::microkernel(kb, pa, pb, &mut acc);
                        // Writeback the valid ib x jb corner of the tile.
                        for jj in 0..jb {
                            let dst = &mut c[(jr * NR + jj) * ldc + ic + ir * MR..][..ib];
                            let src = &acc[jj * MR..jj * MR + ib];
                            for (ci, &av) in dst.iter_mut().zip(src) {
                                *ci += alpha * av;
                            }
                        }
                    }
                }
            }
        }
        if obs {
            OBS_PACK_NS.add(pack_ns);
        }
    });
}

/// Hands the caller this thread's kernel scratch `(packed_a, packed_b)`:
/// the packing panels of [`gemm_packed`], whose first buffer doubles as
/// the row-major transpose of [`crate::LuFactors`]'s wide panel solve
/// (the two never nest).
pub(crate) fn with_pack_bufs<R>(f: impl FnOnce(&mut Vec<f64>, &mut Vec<f64>) -> R) -> R {
    thread_local! {
        /// Per-thread packing scratch `(packed_a, packed_b)`: warm
        /// `gemm_packed` calls on a given OS thread reuse these instead
        /// of allocating.
        static PACK_BUFS: RefCell<(Vec<f64>, Vec<f64>)> =
            const { RefCell::new((Vec::new(), Vec::new())) };
    }
    PACK_BUFS.with(|bufs| {
        let mut bufs = bufs.borrow_mut();
        let (pa, pb) = &mut *bufs;
        f(pa, pb)
    })
}

/// Packs rows `[row0, row0 + mb)` of the `KC`-deep A panel at `pc` into
/// `MR`-tall micro-panels: `out[ir * kb * MR + p * MR + ii]`,
/// zero-padded to full MR height.
fn pack_a(a: &[f64], lda: usize, row0: usize, mb: usize, pc: usize, kb: usize, out: &mut [f64]) {
    let n_ir = mb.div_ceil(MR);
    out[..n_ir * kb * MR].fill(0.0);
    for ir in 0..n_ir {
        let ib = MR.min(mb - ir * MR);
        let dst_base = ir * kb * MR;
        for p in 0..kb {
            let src = &a[(pc + p) * lda + row0 + ir * MR..][..ib];
            out[dst_base + p * MR..dst_base + p * MR + ib].copy_from_slice(src);
        }
    }
}

/// Packs the `KC`-deep B panel at `pc` into `NR`-wide micro-panels:
/// `out[jr * kb * NR + p * NR + jj]`, zero-padded to full NR width.
fn pack_b(b: &[f64], ldb: usize, pc: usize, kb: usize, ncols: usize, out: &mut [f64]) {
    let n_jr = ncols.div_ceil(NR);
    out[..n_jr * kb * NR].fill(0.0);
    for jr in 0..n_jr {
        let jb = NR.min(ncols - jr * NR);
        let dst_base = jr * kb * NR;
        for jj in 0..jb {
            let src = &b[(jr * NR + jj) * ldb + pc..][..kb];
            for (p, &v) in src.iter().enumerate() {
                out[dst_base + p * NR + jj] = v;
            }
        }
    }
}

/// Returns `a * b` as a freshly allocated matrix.
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`.
pub fn matmul(a: &Mat, b: &Mat) -> Mat {
    let mut c = Mat::zeros(a.rows(), b.cols());
    gemm(1.0, a, Trans::No, b, Trans::No, 0.0, &mut c);
    c
}

/// `y <- alpha * A * x + beta * y` (matrix-vector product).
///
/// # Panics
///
/// Panics if `x.len() != a.cols()` or `y.len() != a.rows()`.
pub fn gemv<'a>(alpha: f64, a: impl Into<MatRef<'a>>, x: &[f64], beta: f64, y: &mut [f64]) {
    let a = a.into();
    assert_eq!(x.len(), a.cols(), "gemv x length mismatch");
    assert_eq!(y.len(), a.rows(), "gemv y length mismatch");
    OBS_GEMV_CALLS.incr();
    OBS_GEMM_FLOPS.add(gemm_flops(a.rows(), a.cols(), 1));
    if beta == 0.0 {
        y.fill(0.0);
    } else if beta != 1.0 {
        for v in y.iter_mut() {
            *v *= beta;
        }
    }
    for (j, &xj) in x.iter().enumerate() {
        // No skip on zero weights (see gemm_axpy): non-finite entries of
        // A must propagate even when the matching x entry is zero.
        let w = alpha * xj;
        simd::axpy(w, a.col(j), y);
    }
}

/// Returns `a * x` for a vector `x`.
pub fn matvec(a: &Mat, x: &[f64]) -> Vec<f64> {
    let mut y = vec![0.0; a.rows()];
    gemv(1.0, a, x, 0.0, &mut y);
    y
}

/// Floating point operation count of `gemm` on `m x k` by `k x n` operands
/// (multiply-add counted as 2 flops). Used by the virtual-time cost model.
#[inline]
pub const fn gemm_flops(m: usize, k: usize, n: usize) -> u64 {
    2 * (m as u64) * (k as u64) * (n as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx_eq(a: &Mat, b: &Mat, tol: f64) -> bool {
        a.shape() == b.shape() && a.sub(b).max_abs() <= tol
    }

    /// Naive reference multiply for cross-checking the blocked kernels.
    fn naive_matmul(a: &Mat, b: &Mat) -> Mat {
        let mut c = Mat::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut s = 0.0;
                for kk in 0..a.cols() {
                    s += a.get(i, kk) * b.get(kk, j);
                }
                c.set(i, j, s);
            }
        }
        c
    }

    fn seq_mat(rows: usize, cols: usize, seed: f64) -> Mat {
        Mat::from_fn(rows, cols, |i, j| {
            ((i * cols + j) as f64 * 0.37 + seed).sin()
        })
    }

    #[test]
    fn matmul_identity() {
        let a = seq_mat(5, 5, 1.0);
        assert!(approx_eq(&matmul(&a, &Mat::identity(5)), &a, 0.0));
        assert!(approx_eq(&matmul(&Mat::identity(5), &a), &a, 0.0));
    }

    #[test]
    fn matmul_matches_naive_rectangular() {
        for &(m, k, n) in &[(1, 1, 1), (3, 4, 5), (7, 2, 9), (16, 16, 16), (65, 130, 67)] {
            let a = seq_mat(m, k, 0.3);
            let b = seq_mat(k, n, 0.7);
            assert!(
                approx_eq(&matmul(&a, &b), &naive_matmul(&a, &b), 1e-12 * (k as f64)),
                "mismatch for {m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn packed_matches_naive_at_blocking_boundaries() {
        // Sizes straddling MR (8), NR (4), NB (64) and KC (128) edges,
        // including deliberately ragged tails.
        for &(m, k, n) in &[
            (63, 64, 65),
            (64, 63, 64),
            (65, 65, 63),
            (127, 128, 129),
            (130, 127, 128),
            (9, 200, 5),
            (200, 9, 3),
            (1, 129, 1),
        ] {
            let a = seq_mat(m, k, 0.21);
            let b = seq_mat(k, n, 0.83);
            let mut c = Mat::zeros(m, n);
            gemm_packed(1.0, &a, &b, &mut c);
            assert!(
                approx_eq(&c, &naive_matmul(&a, &b), 1e-12 * (k as f64)),
                "packed mismatch for {m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn packed_accumulates_with_alpha() {
        let a = seq_mat(70, 40, 0.5);
        let b = seq_mat(40, 70, 0.6);
        let c0 = seq_mat(70, 70, 0.7);
        let mut c = c0.clone();
        gemm_packed(-1.5, &a, &b, &mut c);
        let expect = c0.add(&naive_matmul(&a, &b).scaled(-1.5));
        assert!(approx_eq(&c, &expect, 1e-11));
    }

    #[test]
    fn axpy_and_packed_agree() {
        let a = seq_mat(80, 90, 0.2);
        let b = seq_mat(90, 70, 0.4);
        let mut cp = Mat::zeros(80, 70);
        let mut cx = Mat::zeros(80, 70);
        gemm_packed(1.0, &a, &b, &mut cp);
        gemm_axpy(1.0, &a, &b, &mut cx);
        assert!(approx_eq(&cp, &cx, 1e-12 * 90.0));
    }

    #[test]
    fn gemm_alpha_beta() {
        let a = seq_mat(4, 4, 0.1);
        let b = seq_mat(4, 4, 0.2);
        let c0 = seq_mat(4, 4, 0.9);
        let mut c = c0.clone();
        gemm(2.0, &a, Trans::No, &b, Trans::No, 3.0, &mut c);
        let expect = naive_matmul(&a, &b).scaled(2.0).add(&c0.scaled(3.0));
        assert!(approx_eq(&c, &expect, 1e-12));
    }

    #[test]
    fn gemm_transpose_paths() {
        let a = seq_mat(6, 3, 0.4);
        let b = seq_mat(6, 5, 0.5);
        // C = A^T * B : 3x5
        let mut c = Mat::zeros(3, 5);
        gemm(1.0, &a, Trans::Yes, &b, Trans::No, 0.0, &mut c);
        assert!(approx_eq(&c, &naive_matmul(&a.transpose(), &b), 1e-12));

        // C = A^T * B^T where B is 5x6
        let b2 = seq_mat(5, 6, 0.8);
        let mut c2 = Mat::zeros(3, 5);
        gemm(1.0, &a, Trans::Yes, &b2, Trans::Yes, 0.0, &mut c2);
        assert!(approx_eq(
            &c2,
            &naive_matmul(&a.transpose(), &b2.transpose()),
            1e-12
        ));

        // C = A * B^T where A is 6x3, B is 5x3
        let b3 = seq_mat(5, 3, 0.2);
        let mut c3 = Mat::zeros(6, 5);
        gemm(1.0, &a, Trans::No, &b3, Trans::Yes, 0.0, &mut c3);
        assert!(approx_eq(&c3, &naive_matmul(&a, &b3.transpose()), 1e-12));
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn gemm_shape_mismatch_panics() {
        let a: Mat = Mat::zeros(2, 3);
        let b: Mat = Mat::zeros(2, 3);
        let mut c: Mat = Mat::zeros(2, 3);
        gemm(1.0, &a, Trans::No, &b, Trans::No, 0.0, &mut c);
    }

    #[test]
    fn gemv_matches_matmul() {
        let a = seq_mat(5, 4, 0.6);
        let x: Vec<f64> = (0..4).map(|i| i as f64 + 0.5).collect();
        let y = matvec(&a, &x);
        let xm = Mat::from_col_major(4, 1, x);
        let ym = matmul(&a, &xm);
        for i in 0..5 {
            assert!((y[i] - ym[(i, 0)]).abs() < 1e-13);
        }
    }

    #[test]
    fn gemv_beta_accumulates() {
        let a = Mat::identity(3);
        let x = vec![1.0, 2.0, 3.0];
        let mut y = vec![10.0, 10.0, 10.0];
        gemv(2.0, &a, &x, 1.0, &mut y);
        assert_eq!(y, vec![12.0, 14.0, 16.0]);
    }

    #[test]
    fn nonfinite_propagates_through_zero_weights() {
        // A NaN in A must reach C even when the matching B entry is 0.0
        // (0 * NaN == NaN); the old kernels skipped zero weights and
        // silently produced finite garbage instead.
        let mut a = Mat::identity(3);
        a.set(1, 0, f64::NAN);
        let b = Mat::zeros(3, 2);
        let c = matmul(&a, &b);
        assert!(c[(1, 0)].is_nan(), "gemm dropped 0 * NaN");

        let mut y = vec![0.0; 3];
        gemv(1.0, &a, &[0.0, 0.0, 0.0], 0.0, &mut y);
        assert!(y[1].is_nan(), "gemv dropped 0 * NaN");

        // Same through the packed kernel.
        let mut ap = Mat::identity(64);
        ap.set(3, 2, f64::INFINITY);
        let bp = Mat::zeros(64, 64);
        let mut cp = Mat::zeros(64, 64);
        gemm_packed(1.0, &ap, &bp, &mut cp);
        assert!(cp[(3, 2)].is_nan(), "packed dropped 0 * inf");
    }

    #[test]
    fn empty_dims_are_noops() {
        let a: Mat = Mat::zeros(0, 3);
        let b: Mat = Mat::zeros(3, 2);
        let c = matmul(&a, &b);
        assert_eq!(c.shape(), (0, 2));

        let a: Mat = Mat::zeros(2, 0);
        let b: Mat = Mat::zeros(0, 2);
        let mut c = Mat::filled(2, 2, 5.0);
        gemm(1.0, &a, Trans::No, &b, Trans::No, 1.0, &mut c);
        assert_eq!(c, Mat::filled(2, 2, 5.0));
    }

    #[test]
    fn strided_views_match_owned_blocks() {
        // Kernels on submatrix views must agree with the same product on
        // materialized blocks, for both dispatch paths.
        let big_a = seq_mat(40, 40, 0.13);
        let big_b = seq_mat(40, 40, 0.77);
        let a_blk = big_a.block(3, 5, 20, 12);
        let b_blk = big_b.block(7, 1, 12, 16);
        let mut expect = Mat::zeros(20, 16);
        gemm_axpy(1.0, &a_blk, &b_blk, &mut expect);

        let mut got = Mat::zeros(20, 16);
        gemm_axpy(
            1.0,
            big_a.submatrix(3, 5, 20, 12),
            big_b.submatrix(7, 1, 12, 16),
            &mut got,
        );
        assert_eq!(got, expect, "axpy strided mismatch");

        let mut got_p = Mat::zeros(20, 16);
        gemm_packed(
            1.0,
            big_a.submatrix(3, 5, 20, 12),
            big_b.submatrix(7, 1, 12, 16),
            &mut got_p,
        );
        let mut expect_p = Mat::zeros(20, 16);
        gemm_packed(1.0, &a_blk, &b_blk, &mut expect_p);
        assert_eq!(got_p, expect_p, "packed strided mismatch");

        // Strided output window: C written through a submatrix view only
        // touches the window.
        let mut big_c = seq_mat(30, 30, 0.5);
        let orig_c = big_c.clone();
        gemm(
            1.0,
            &a_blk,
            Trans::No,
            &b_blk,
            Trans::No,
            0.0,
            big_c.submatrix_mut(2, 4, 20, 16),
        );
        assert_eq!(big_c.block(2, 4, 20, 16), expect);
        big_c
            .as_mut()
            .submatrix_mut(2, 4, 20, 16)
            .copy_from(orig_c.submatrix(2, 4, 20, 16));
        assert_eq!(big_c, orig_c, "gemm wrote outside the output window");
    }

    #[test]
    fn packed_strided_views_match_naive_across_blocks() {
        // Non-unit strides (ldc > rows) on all three operands, at shapes
        // that cross the KC depth and MC row-block edges; the window is
        // the only part of C written.
        let big_a = seq_mat(420, 320, 0.31);
        let big_b = seq_mat(320, 220, 0.61);
        for &(m, k, n) in &[(400, 300, 200), (400, 150, 40)] {
            let mut big_c = Mat::zeros(410, 210);
            gemm_packed(
                1.0,
                big_a.submatrix(9, 11, m, k),
                big_b.submatrix(5, 7, k, n),
                big_c.submatrix_mut(3, 2, m, n),
            );
            let expect = naive_matmul(&big_a.block(9, 11, m, k), &big_b.block(5, 7, k, n));
            assert!(
                approx_eq(&big_c.block(3, 2, m, n), &expect, 1e-12 * (k as f64)),
                "strided packed mismatch for {m}x{k}x{n}"
            );
            big_c.submatrix_mut(3, 2, m, n).fill_zero();
            assert_eq!(big_c, Mat::zeros(410, 210), "wrote outside the window");
        }
    }

    #[test]
    fn gemv_on_submatrix_view() {
        let big = seq_mat(10, 10, 0.9);
        let x: Vec<f64> = (0..4).map(|i| i as f64 - 1.5).collect();
        let mut y_view = vec![0.0; 5];
        gemv(1.0, big.submatrix(2, 3, 5, 4), &x, 0.0, &mut y_view);
        let y_blk = matvec(&big.block(2, 3, 5, 4), &x);
        assert_eq!(y_view, y_blk);
    }

    #[test]
    fn flop_count_formula() {
        assert_eq!(gemm_flops(2, 3, 4), 48);
        assert_eq!(gemm_flops(0, 3, 4), 0);
    }

    #[test]
    fn kernel_choice_matches_dispatch_threshold() {
        // Tiny problem: AXPY side of the crossover on every ISA.
        assert_eq!(choose_kernel(2, 2, 2), Kernel::Axpy);
        // Huge problem: packed on every ISA (2 * 128^3 > 500k).
        assert_eq!(choose_kernel(128, 128, 128), Kernel::Packed);
        // Small blocks take the panel kernel at every width, on every ISA.
        for m in [4, 8, 16] {
            for n in [1, 3, 64, 4096] {
                assert_eq!(choose_kernel(m, m, n), Kernel::Small, "{m}x{m}x{n}");
            }
        }
        // Non-square or other orders never do.
        assert_ne!(choose_kernel(8, 4, 64), Kernel::Small);
        assert_ne!(choose_kernel(5, 5, 64), Kernel::Small);
    }
}
