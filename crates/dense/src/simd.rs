//! Runtime-dispatched SIMD primitives for the dense kernels.
//!
//! Every flop in the suite funnels through a handful of inner loops: the
//! packed GEMM microkernel, the AXPY update (`y += w * x`) shared by
//! `gemm_axpy`/`gemv`/the LU sweeps, the dot product of the
//! transpose/backward sweeps, the left-looking row update of the LU
//! panel sweep (`fma_rows`), and the small-block panel GEMM
//! (`M x M · M x R`, `M` in {4, 8, 16}). This module provides one
//! explicitly vectorized `f64` implementation of each, selected **at
//! runtime** from the CPU:
//!
//! * **x86_64** — AVX2 + FMA (`_mm256_fmadd_pd`, 4 lanes of `f64`),
//!   detected with `is_x86_feature_detected!`;
//! * **aarch64** — NEON (`vfmaq_f64`, 2 lanes), always present on
//!   aarch64 but still routed through the same dispatch point;
//! * **fallback** — portable scalar loops with hoisted bounds checks,
//!   identical in summation order to the pre-SIMD kernels.
//!
//! A thread runs exactly one [`active`] ISA at a time, and
//! `BT_DENSE_SIMD=0` forces the scalar path.
//!
//! The decision is made once, cached in an atomic, and exposed as
//! [`detected`]. The `BT_DENSE_SIMD` environment variable overrides it:
//! `0` forces the scalar path (CI runs the whole workspace this way),
//! any other value — or unset — keeps hardware detection. Tests and
//! benches can pin a path for one closure on the calling thread with
//! [`with_isa`]; [`active`] reports that scoped override where one is in
//! force and the detected ISA everywhere else. The override is
//! thread-local (concurrent tests cannot flip each other's kernels) and
//! restored on unwind. The dense kernels run on the calling thread, so a
//! pin covers every kernel called inside its closure.
//!
//! # Safety invariants
//!
//! All `unsafe` here is confined to `#[target_feature]` kernels and is
//! justified by exactly two obligations, both discharged by safe code:
//!
//! 1. **CPU features** — a feature-gated kernel is only reachable through
//!    a dispatch `match` on [`active`], which returns [`Isa::Avx2Fma`] /
//!    [`Isa::Neon`] only after the corresponding runtime detection:
//!    [`with_isa`] refuses any ISA but [`Isa::Scalar`] and the
//!    [`detected`] one.
//! 2. **In-bounds pointers** — every kernel receives plain slices and the
//!    safe wrappers assert the length contracts up front (`pa.len() >=
//!    kb * MR`, equal `x`/`y` lengths, `4 | 8 | 16`-row columns). The
//!    packed-panel contract is guaranteed by `pack_a`/`pack_b`, which
//!    zero-pad every micro-panel to full `MR`/`NR` size; the small-M
//!    kernels rely on [`crate::view`] columns being contiguous
//!    `rows`-long slices whatever the column stride.
//!
//! FMA contracts `a * b + c` into one rounding, so SIMD results differ
//! from the scalar path by well-understood ULP-level amounts; the
//! proptests in `tests/simd_kernels.rs` pin the two paths together under
//! a `k`-scaled tolerance. Within one process the selected path is
//! fixed, so results remain bitwise deterministic across repeat runs.

use crate::view::{MatMut, MatRef};
use std::cell::Cell;
use std::sync::atomic::{AtomicU8, Ordering::Relaxed};

/// Microkernel tile height/width: one cache line of C per register
/// column (8 `f64`, two AVX2 vectors) by four columns.
pub(crate) const MR: usize = 8;
pub(crate) const NR: usize = 4;

/// Instruction set the dense kernels dispatch to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Isa {
    /// Portable scalar loops (also the `BT_DENSE_SIMD=0` path).
    Scalar = 0,
    /// AVX2 + FMA on x86_64 (4 x f64 per vector).
    Avx2Fma = 1,
    /// NEON on aarch64 (2 x f64 per vector).
    Neon = 2,
}

impl Isa {
    /// Human-readable name (used by benches and the metrics gauge docs).
    pub fn name(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Avx2Fma => "avx2+fma",
            Isa::Neon => "neon",
        }
    }

    /// Stable numeric encoding for the `bt_dense.gemm.dispatch_isa`
    /// gauge: 0 = scalar, 1 = avx2+fma, 2 = neon.
    #[inline]
    pub fn index(self) -> u8 {
        self as u8
    }
}

/// Cached detection result: `UNRESOLVED` until first use.
static DETECTED: AtomicU8 = AtomicU8::new(UNRESOLVED);
const UNRESOLVED: u8 = u8::MAX;

thread_local! {
    /// The calling thread's scoped override ([`with_isa`]), encoded per
    /// [`Isa::index`]; `UNRESOLVED` when none is in force.
    static OVERRIDE: Cell<u8> = const { Cell::new(UNRESOLVED) };
}

fn decode(v: u8) -> Isa {
    match v {
        1 => Isa::Avx2Fma,
        2 => Isa::Neon,
        _ => Isa::Scalar,
    }
}

/// Hardware + environment detection (no caching; see [`detected`]).
fn detect() -> Isa {
    // BT_DENSE_SIMD=0 forces the scalar path; anything else (including
    // unset or `1`) keeps hardware detection.
    if std::env::var("BT_DENSE_SIMD").is_ok_and(|v| v.trim() == "0") {
        return Isa::Scalar;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            return Isa::Avx2Fma;
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if std::arch::is_aarch64_feature_detected!("neon") {
            return Isa::Neon;
        }
    }
    Isa::Scalar
}

/// The process-wide dispatch decision: the `BT_DENSE_SIMD` override,
/// then CPU features. First call runs detection and caches the result;
/// later calls are one relaxed atomic load.
#[inline]
pub fn detected() -> Isa {
    let v = DETECTED.load(Relaxed);
    if v == UNRESOLVED {
        let isa = detect();
        DETECTED.store(isa.index(), Relaxed);
        isa
    } else {
        decode(v)
    }
}

/// The instruction set every dispatched kernel on the calling thread
/// currently uses: the innermost [`with_isa`] override, else
/// [`detected`].
#[inline]
pub fn active() -> Isa {
    let v = OVERRIDE.with(Cell::get);
    if v == UNRESOLVED {
        detected()
    } else {
        decode(v)
    }
}

/// Runs `f` with the calling thread's kernels pinned to `isa`, restoring
/// the previous choice afterwards (also on unwind). Other threads are
/// unaffected.
///
/// # Panics
///
/// Panics if `isa` is neither [`Isa::Scalar`] (always available) nor the
/// [`detected`] ISA — pinning an instruction set the CPU (or the
/// `BT_DENSE_SIMD` override) did not report would execute unsupported
/// instructions.
pub fn with_isa<R>(isa: Isa, f: impl FnOnce() -> R) -> R {
    let det = detected();
    assert!(
        isa == Isa::Scalar || isa == det,
        "cannot pin {} kernels: detection reported {}",
        isa.name(),
        det.name()
    );
    scoped(isa, f)
}

/// [`with_isa`] without the availability check: sets the calling
/// thread's override to `isa` for the duration of `f`.
fn scoped<R>(isa: Isa, f: impl FnOnce() -> R) -> R {
    struct Restore(u8);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let _restore = Restore(OVERRIDE.with(|o| o.replace(isa.index())));
    f()
}

// ---------------------------------------------------------------------
// AXPY: y[i] += w * x[i]
// ---------------------------------------------------------------------

/// `y += w * x`, elementwise over equal-length slices.
///
/// Never skips `w == 0.0` (`0 * NaN` must reach `y`), matching the
/// non-finite propagation contract of the GEMM kernels. On SIMD paths
/// each element is one fused multiply-add; lanes never reassociate
/// across elements, so the result per element is independent of the
/// vector width.
///
/// # Panics
///
/// Panics if `x.len() != y.len()`.
#[inline]
pub fn axpy(w: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    match active() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `active()` only reports Avx2Fma after runtime AVX2+FMA
        // detection; slice lengths were just checked equal.
        Isa::Avx2Fma => unsafe { x86::axpy(w, x, y) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: `active()` only reports Neon after runtime detection.
        Isa::Neon => unsafe { neon::axpy(w, x, y) },
        _ => {
            for (yi, xi) in y.iter_mut().zip(x) {
                *yi += w * *xi;
            }
        }
    }
}

// ---------------------------------------------------------------------
// ROW UPDATE: acc += sum_q w[q] * rows[q], one AXPY chain in registers
// ---------------------------------------------------------------------

/// Left-looking row update of the row-oriented triangular sweep:
/// `acc[j] += w[q] * rows[q * stride + j]` for every term `q` — in
/// ascending `q` order, or descending when `rev` — skipping terms whose
/// weight is exactly zero, then `acc[j] /= d` when `d` is given.
///
/// Per element this is exactly the chain of [`axpy`] calls it replaces
/// (one fused multiply-add per term on SIMD paths, separate rounding on
/// the scalar one, then one IEEE division), so results are bitwise equal
/// to the sequential AXPY formulation on the same ISA. The AVX2 kernel
/// keeps a strip of `acc` in registers across all the terms: each FMA
/// costs one load instead of an AXPY's two loads and a store. Other ISAs
/// run the AXPY chain itself.
///
/// # Panics
///
/// Panics if `acc` is longer than `stride` or `rows` is too short for
/// `w.len()` rows.
#[inline]
pub(crate) fn fma_rows(
    w: &[f64],
    rows: &[f64],
    stride: usize,
    rev: bool,
    d: Option<f64>,
    acc: &mut [f64],
) {
    let nt = w.len();
    assert!(acc.len() <= stride, "fma_rows: row longer than its stride");
    assert!(
        nt == 0 || rows.len() >= (nt - 1) * stride + acc.len(),
        "fma_rows: rows too short for {nt} terms"
    );
    match active() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2Fma implies runtime-detected AVX2+FMA; the layout
        // contract was just asserted.
        Isa::Avx2Fma => unsafe { x86::fma_rows(w, rows, stride, rev, d, acc) },
        _ => {
            let n = acc.len();
            for t in 0..nt {
                let q = if rev { nt - 1 - t } else { t };
                if w[q] != 0.0 {
                    axpy(w[q], &rows[q * stride..q * stride + n], acc);
                }
            }
            if let Some(d) = d {
                for v in acc.iter_mut() {
                    *v /= d;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// DOT: sum_i x[i] * y[i]
// ---------------------------------------------------------------------

/// Dot product of equal-length slices.
///
/// SIMD paths keep independent per-lane accumulators and combine them
/// once at the end, so the summation order differs from the scalar
/// sweep (and from the pre-SIMD kernels) by ULP-level reassociation;
/// for a fixed dispatch path the order is fixed, keeping results
/// deterministic run to run.
///
/// # Panics
///
/// Panics if `x.len() != y.len()`.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot length mismatch");
    match active() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2Fma implies runtime-detected AVX2+FMA; lengths equal.
        Isa::Avx2Fma => unsafe { x86::dot(x, y) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: Neon implies runtime-detected NEON; lengths equal.
        Isa::Neon => unsafe { neon::dot(x, y) },
        _ => x.iter().zip(y).map(|(a, b)| a * b).sum(),
    }
}

// ---------------------------------------------------------------------
// Lane kernels for the interleaved batched (SoA) layout
// ---------------------------------------------------------------------

/// `y[i] += a[i] * b[i]`, elementwise over equal-length slices — the
/// lane-wise product accumulation of the interleaved batched kernels
/// (`crate::batch`), where every slice is one `K`-wide batch lane and
/// consecutive elements belong to *independent* systems. One fused
/// multiply-add per element on SIMD paths; lanes never reassociate.
///
/// # Panics
///
/// Panics if the slice lengths differ.
#[inline]
pub fn lane_fma(a: &[f64], b: &[f64], y: &mut [f64]) {
    assert_eq!(a.len(), y.len(), "lane_fma length mismatch");
    assert_eq!(b.len(), y.len(), "lane_fma length mismatch");
    match active() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2Fma implies runtime-detected AVX2+FMA; lengths equal.
        Isa::Avx2Fma => unsafe { x86::lane_fma(a, b, y) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: Neon implies runtime-detected NEON; lengths equal.
        Isa::Neon => unsafe { neon::lane_fma(a, b, y) },
        _ => {
            for ((yv, av), bv) in y.iter_mut().zip(a).zip(b) {
                *yv += *av * *bv;
            }
        }
    }
}

/// `y[i] -= a[i] * b[i]`, elementwise — the negated counterpart of
/// [`lane_fma`], used by the batched LU trailing updates and the
/// batched triangular eliminations.
///
/// # Panics
///
/// Panics if the slice lengths differ.
#[inline]
pub fn lane_fnma(a: &[f64], b: &[f64], y: &mut [f64]) {
    assert_eq!(a.len(), y.len(), "lane_fnma length mismatch");
    assert_eq!(b.len(), y.len(), "lane_fnma length mismatch");
    match active() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2Fma implies runtime-detected AVX2+FMA; lengths equal.
        Isa::Avx2Fma => unsafe { x86::lane_fnma(a, b, y) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: Neon implies runtime-detected NEON; lengths equal.
        Isa::Neon => unsafe { neon::lane_fnma(a, b, y) },
        _ => {
            for ((yv, av), bv) in y.iter_mut().zip(a).zip(b) {
                *yv -= *av * *bv;
            }
        }
    }
}

/// `y[i] *= a[i]`, elementwise — the reciprocal-pivot scaling step of
/// the batched LU factor/solve (the diagonal stores `1/pivot`, so the
/// "division" is a lane multiply).
///
/// # Panics
///
/// Panics if the slice lengths differ.
#[inline]
pub fn lane_mul(a: &[f64], y: &mut [f64]) {
    assert_eq!(a.len(), y.len(), "lane_mul length mismatch");
    match active() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2Fma implies runtime-detected AVX2+FMA; lengths equal.
        Isa::Avx2Fma => unsafe { x86::lane_mul(a, y) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: Neon implies runtime-detected NEON; lengths equal.
        Isa::Neon => unsafe { neon::lane_mul(a, y) },
        _ => {
            for (yv, av) in y.iter_mut().zip(a) {
                *yv *= *av;
            }
        }
    }
}

/// Register-fused lane reduction: `c[i] -= sum_{l < p} a[l*k + i] *
/// b[l*bstride + i]`, with `k = c.len()` and `p = a.len() / k`.
///
/// This is the whole inner product of one interleaved-batch GEMM output
/// lane (`C -= A . B` for a fixed `(row, col)`, summed over the inner
/// dimension) and of one batched triangular-solve elimination row. The
/// partial sums stay in SIMD accumulators across the `p` terms, so each
/// FMA costs two loads instead of the two-loads-plus-load/store of `p`
/// separate [`lane_fnma`] passes — on 2-load-port cores that doubles
/// the flop ceiling, and `c` is touched exactly once. The accumulator
/// is subtracted in one final rounding, so results differ from the
/// sequential formulation at ULP level (within the module's documented
/// reassociation contract).
///
/// `a`'s `p` lanes are `k`-contiguous; `b`'s are `bstride` apart
/// (`bstride >= k`), which is how a column of an interleaved
/// [`crate::BatchMat`] lays out.
///
/// # Panics
///
/// Panics if `a.len()` is not a multiple of `k`, or `b` is too short
/// for `p` strided lanes.
#[inline]
pub fn lane_dot_sub(a: &[f64], b: &[f64], bstride: usize, c: &mut [f64]) {
    let k = c.len();
    if k == 0 {
        return;
    }
    assert_eq!(a.len() % k, 0, "lane_dot_sub: a must hold whole lanes");
    let p = a.len() / k;
    if p == 0 {
        return;
    }
    assert!(
        b.len() >= (p - 1) * bstride + k,
        "lane_dot_sub: b too short for {p} strided lanes"
    );
    match active() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2Fma implies runtime-detected AVX2+FMA; lane
        // bounds were just asserted.
        Isa::Avx2Fma => unsafe { x86::lane_dot_sub(p, a, b, bstride, c) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: Neon implies runtime-detected NEON; bounds asserted.
        Isa::Neon => unsafe { neon::lane_dot_sub(p, a, b, bstride, c) },
        _ => {
            for (i, cv) in c.iter_mut().enumerate() {
                let mut s = 0.0;
                for l in 0..p {
                    s += a[l * k + i] * b[l * bstride + i];
                }
                *cv -= s;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Packed MR x NR microkernel
// ---------------------------------------------------------------------

/// Register-tiled `MR x NR` rank-`kb` update on packed micro-panels:
/// `acc[jj * MR + ii] += sum_p pa[p * MR + ii] * pb[p * NR + jj]`.
///
/// `pa`/`pb` are the zero-padded panels produced by `pack_a`/`pack_b`,
/// so every `MR`-tall / `NR`-wide stripe is fully populated — the
/// kernels run with zero bounds checks in the `kb` loop.
///
/// # Panics
///
/// Panics if a panel is shorter than `kb` full micro-rows or `acc` is
/// smaller than the `MR * NR` tile.
#[inline]
pub(crate) fn microkernel(kb: usize, pa: &[f64], pb: &[f64], acc: &mut [f64]) {
    assert!(pa.len() >= kb * MR, "packed A panel too short");
    assert!(pb.len() >= kb * NR, "packed B panel too short");
    assert!(acc.len() >= MR * NR, "accumulator tile too short");
    match active() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2Fma implies runtime-detected AVX2+FMA; the panel
        // length contracts were just asserted.
        Isa::Avx2Fma => unsafe { x86::microkernel(kb, pa, pb, acc) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: Neon implies runtime-detected NEON; lengths asserted.
        Isa::Neon => unsafe { neon::microkernel(kb, pa, pb, acc) },
        _ => microkernel_scalar(kb, pa, pb, acc),
    }
}

/// Portable microkernel: same summation order as the SIMD tiles, array
/// conversions hoisted out of the inner loops (`chunks_exact` hands the
/// compiler fixed-length panels, so the `jj`/`ii` loops are
/// bounds-check-free and autovectorize).
fn microkernel_scalar(kb: usize, pa: &[f64], pb: &[f64], acc: &mut [f64]) {
    let pa = &pa[..kb * MR];
    let pb = &pb[..kb * NR];
    for (ap, bp) in pa.chunks_exact(MR).zip(pb.chunks_exact(NR)) {
        let ap: &[f64; MR] = ap.try_into().expect("MR panel stripe");
        let bp: &[f64; NR] = bp.try_into().expect("NR panel stripe");
        for jj in 0..NR {
            let bv = bp[jj];
            for ii in 0..MR {
                acc[jj * MR + ii] += ap[ii] * bv;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Small-block panel GEMM: M x M times M x R, M in {4, 8, 16}
// ---------------------------------------------------------------------

/// Block orders served by the small-block panel kernels. These are the
/// block sizes that dominate ARD workloads (DESIGN.md §6.8); the
/// dispatcher in `gemm` routes every `M x M · M x R` product with `M` in
/// this set here, whatever the panel width `R`, skipping packing
/// entirely.
pub(crate) const SMALL_DIMS: [usize; 3] = [4, 8, 16];

/// True when an `m x k` A-operand is a small block: square, of an order
/// in [`SMALL_DIMS`]. Eligibility depends on `A` alone, so every column
/// slice of one product takes the same kernel.
#[inline]
pub(crate) fn is_small_block(m: usize, k: usize) -> bool {
    m == k && SMALL_DIMS.contains(&m)
}

/// Small-block panel `C += alpha * A * B` for an `M x M` block `A` with
/// `M` in [`SMALL_DIMS`] and `M x R` panels `B`, `C` of any width `R`.
/// Returns `false` (computing nothing) for any other shape. Operands may
/// be strided views — only columns are addressed, and view columns are
/// always contiguous.
///
/// Per output element the arithmetic is the packed kernel's for
/// `k <= KC`: accumulate `a[i, k] * b[k, j]` from zero in `k` order (one
/// FMA per term on SIMD paths), then add `alpha` times the sum into C
/// once. For `alpha = ±1` the final scaling is exact, so the result is
/// bit-identical to `gemm_packed` on the same ISA.
pub(crate) fn gemm_small(alpha: f64, a: MatRef<'_>, b: MatRef<'_>, c: &mut MatMut<'_>) -> bool {
    let m = a.rows();
    if !(is_small_block(m, a.cols()) && b.rows() == m && c.shape() == (m, b.cols())) {
        return false;
    }
    match active() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2Fma implies runtime-detected AVX2+FMA; the shape
        // gate above guarantees M-long columns with M = 4 * NV.
        Isa::Avx2Fma => unsafe {
            match a.rows() {
                4 => x86::small::<4, 1, 8>(alpha, a, b, c),
                8 => x86::small::<8, 2, 4>(alpha, a, b, c),
                _ => x86::small::<16, 4, 2>(alpha, a, b, c),
            }
        },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: Neon implies runtime-detected NEON; M = 2 * NV.
        Isa::Neon => unsafe {
            match a.rows() {
                4 => neon::small::<4, 2, 8>(alpha, a, b, c),
                8 => neon::small::<8, 4, 4>(alpha, a, b, c),
                _ => neon::small::<16, 8, 2>(alpha, a, b, c),
            }
        },
        _ => match a.rows() {
            4 => small_scalar::<4>(alpha, a, b, c),
            8 => small_scalar::<8>(alpha, a, b, c),
            _ => small_scalar::<16>(alpha, a, b, c),
        },
    }
    true
}

/// Portable small-block panel kernel: fixed-size array views make every
/// loop bound over the block a compile-time constant, so the column body
/// fully unrolls and autovectorizes without bounds checks. Same
/// separate-rounding multiply-add chain as the scalar packed
/// microkernel.
fn small_scalar<const M: usize>(alpha: f64, a: MatRef<'_>, b: MatRef<'_>, c: &mut MatMut<'_>) {
    let acols: [&[f64; M]; M] = std::array::from_fn(|k| a.col(k).try_into().expect("A column"));
    for j in 0..b.cols() {
        let bcol: &[f64; M] = b.col(j).try_into().expect("B column");
        let mut acc = [0.0; M];
        for (acol, &bkj) in acols.iter().zip(bcol) {
            for i in 0..M {
                acc[i] += acol[i] * bkj;
            }
        }
        let ccol: &mut [f64; M] = c.col_mut(j).try_into().expect("C column");
        for i in 0..M {
            ccol[i] += alpha * acc[i];
        }
    }
}

// ---------------------------------------------------------------------
// x86_64: AVX2 + FMA
// ---------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{MatMut, MatRef, MR, NR};
    use core::arch::x86_64::{
        __m256d, _mm256_add_pd, _mm256_div_pd, _mm256_fmadd_pd, _mm256_fnmadd_pd, _mm256_loadu_pd,
        _mm256_mul_pd, _mm256_set1_pd, _mm256_setzero_pd, _mm256_storeu_pd, _mm256_sub_pd,
    };

    /// f64 lanes per vector.
    const V: usize = 4;

    /// `MR x NR` packed microkernel: the 8 x 4 accumulator tile lives in
    /// eight YMM registers (two per output column), fed by two A loads
    /// and four B broadcasts per `kb` step — 32 flops per iteration with
    /// no memory traffic beyond the contiguous packed panels.
    ///
    /// # Safety
    ///
    /// Requires AVX2 + FMA, `pa.len() >= kb * MR`, `pb.len() >= kb * NR`
    /// and `acc.len() >= MR * NR`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn microkernel(kb: usize, pa: &[f64], pb: &[f64], acc: &mut [f64]) {
        debug_assert!(pa.len() >= kb * MR && pb.len() >= kb * NR && acc.len() >= MR * NR);
        let mut c00 = _mm256_setzero_pd();
        let mut c10 = _mm256_setzero_pd();
        let mut c01 = _mm256_setzero_pd();
        let mut c11 = _mm256_setzero_pd();
        let mut c02 = _mm256_setzero_pd();
        let mut c12 = _mm256_setzero_pd();
        let mut c03 = _mm256_setzero_pd();
        let mut c13 = _mm256_setzero_pd();
        let mut ap = pa.as_ptr();
        let mut bp = pb.as_ptr();
        for _ in 0..kb {
            let a0 = _mm256_loadu_pd(ap);
            let a1 = _mm256_loadu_pd(ap.add(V));
            let b0 = _mm256_set1_pd(*bp);
            c00 = _mm256_fmadd_pd(a0, b0, c00);
            c10 = _mm256_fmadd_pd(a1, b0, c10);
            let b1 = _mm256_set1_pd(*bp.add(1));
            c01 = _mm256_fmadd_pd(a0, b1, c01);
            c11 = _mm256_fmadd_pd(a1, b1, c11);
            let b2 = _mm256_set1_pd(*bp.add(2));
            c02 = _mm256_fmadd_pd(a0, b2, c02);
            c12 = _mm256_fmadd_pd(a1, b2, c12);
            let b3 = _mm256_set1_pd(*bp.add(3));
            c03 = _mm256_fmadd_pd(a0, b3, c03);
            c13 = _mm256_fmadd_pd(a1, b3, c13);
            ap = ap.add(MR);
            bp = bp.add(NR);
        }
        let out = acc.as_mut_ptr();
        _mm256_storeu_pd(out, c00);
        _mm256_storeu_pd(out.add(V), c10);
        _mm256_storeu_pd(out.add(MR), c01);
        _mm256_storeu_pd(out.add(MR + V), c11);
        _mm256_storeu_pd(out.add(2 * MR), c02);
        _mm256_storeu_pd(out.add(2 * MR + V), c12);
        _mm256_storeu_pd(out.add(3 * MR), c03);
        _mm256_storeu_pd(out.add(3 * MR + V), c13);
    }

    /// `y += w * x` with one fused multiply-add per element.
    ///
    /// # Safety
    ///
    /// Requires AVX2 + FMA and `x.len() == y.len()`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn axpy(w: f64, x: &[f64], y: &mut [f64]) {
        debug_assert_eq!(x.len(), y.len());
        let n = y.len();
        let wv = _mm256_set1_pd(w);
        let xp = x.as_ptr();
        let yp = y.as_mut_ptr();
        let mut i = 0;
        while i + 2 * V <= n {
            let y0 = _mm256_fmadd_pd(wv, _mm256_loadu_pd(xp.add(i)), _mm256_loadu_pd(yp.add(i)));
            let y1 = _mm256_fmadd_pd(
                wv,
                _mm256_loadu_pd(xp.add(i + V)),
                _mm256_loadu_pd(yp.add(i + V)),
            );
            _mm256_storeu_pd(yp.add(i), y0);
            _mm256_storeu_pd(yp.add(i + V), y1);
            i += 2 * V;
        }
        if i + V <= n {
            let y0 = _mm256_fmadd_pd(wv, _mm256_loadu_pd(xp.add(i)), _mm256_loadu_pd(yp.add(i)));
            _mm256_storeu_pd(yp.add(i), y0);
            i += V;
        }
        while i < n {
            // Scalar fused tail: same one-rounding semantics as the lanes.
            *yp.add(i) = w.mul_add(*xp.add(i), *yp.add(i));
            i += 1;
        }
    }

    /// `y += a * b` elementwise, one fused multiply-add per element.
    ///
    /// # Safety
    ///
    /// Requires AVX2 + FMA and equal slice lengths.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn lane_fma(a: &[f64], b: &[f64], y: &mut [f64]) {
        debug_assert!(a.len() == y.len() && b.len() == y.len());
        let n = y.len();
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let yp = y.as_mut_ptr();
        let mut i = 0;
        while i + 2 * V <= n {
            let y0 = _mm256_fmadd_pd(
                _mm256_loadu_pd(ap.add(i)),
                _mm256_loadu_pd(bp.add(i)),
                _mm256_loadu_pd(yp.add(i)),
            );
            let y1 = _mm256_fmadd_pd(
                _mm256_loadu_pd(ap.add(i + V)),
                _mm256_loadu_pd(bp.add(i + V)),
                _mm256_loadu_pd(yp.add(i + V)),
            );
            _mm256_storeu_pd(yp.add(i), y0);
            _mm256_storeu_pd(yp.add(i + V), y1);
            i += 2 * V;
        }
        if i + V <= n {
            let y0 = _mm256_fmadd_pd(
                _mm256_loadu_pd(ap.add(i)),
                _mm256_loadu_pd(bp.add(i)),
                _mm256_loadu_pd(yp.add(i)),
            );
            _mm256_storeu_pd(yp.add(i), y0);
            i += V;
        }
        while i < n {
            // Scalar fused tail: same one-rounding semantics as the lanes.
            *yp.add(i) = (*ap.add(i)).mul_add(*bp.add(i), *yp.add(i));
            i += 1;
        }
    }

    /// `y -= a * b` elementwise via fused negated multiply-add.
    ///
    /// # Safety
    ///
    /// Requires AVX2 + FMA and equal slice lengths.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn lane_fnma(a: &[f64], b: &[f64], y: &mut [f64]) {
        debug_assert!(a.len() == y.len() && b.len() == y.len());
        let n = y.len();
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let yp = y.as_mut_ptr();
        let mut i = 0;
        while i + 2 * V <= n {
            let y0 = _mm256_fnmadd_pd(
                _mm256_loadu_pd(ap.add(i)),
                _mm256_loadu_pd(bp.add(i)),
                _mm256_loadu_pd(yp.add(i)),
            );
            let y1 = _mm256_fnmadd_pd(
                _mm256_loadu_pd(ap.add(i + V)),
                _mm256_loadu_pd(bp.add(i + V)),
                _mm256_loadu_pd(yp.add(i + V)),
            );
            _mm256_storeu_pd(yp.add(i), y0);
            _mm256_storeu_pd(yp.add(i + V), y1);
            i += 2 * V;
        }
        if i + V <= n {
            let y0 = _mm256_fnmadd_pd(
                _mm256_loadu_pd(ap.add(i)),
                _mm256_loadu_pd(bp.add(i)),
                _mm256_loadu_pd(yp.add(i)),
            );
            _mm256_storeu_pd(yp.add(i), y0);
            i += V;
        }
        while i < n {
            // Scalar fused tail: -(a * b) + y in one rounding.
            *yp.add(i) = (-*ap.add(i)).mul_add(*bp.add(i), *yp.add(i));
            i += 1;
        }
    }

    /// `c -= sum_l a_lane(l) * b_lane(l)` with register-resident partial
    /// sums (see the safe wrapper for the layout contract).
    ///
    /// # Safety
    ///
    /// Requires AVX2 + FMA; `a` must hold `p` `c.len()`-long lanes and
    /// `b` must cover `p` `bs`-strided lanes.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn lane_dot_sub(p: usize, a: &[f64], b: &[f64], bs: usize, c: &mut [f64]) {
        let k = c.len();
        debug_assert!(a.len() >= p * k && b.len() >= (p - 1) * bs + k);
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let cp = c.as_mut_ptr();
        let mut i = 0;
        while i + 2 * V <= k {
            let mut acc0 = _mm256_setzero_pd();
            let mut acc1 = _mm256_setzero_pd();
            for l in 0..p {
                let la = ap.add(l * k + i);
                let lb = bp.add(l * bs + i);
                acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(la), _mm256_loadu_pd(lb), acc0);
                acc1 =
                    _mm256_fmadd_pd(_mm256_loadu_pd(la.add(V)), _mm256_loadu_pd(lb.add(V)), acc1);
            }
            _mm256_storeu_pd(cp.add(i), _mm256_sub_pd(_mm256_loadu_pd(cp.add(i)), acc0));
            _mm256_storeu_pd(
                cp.add(i + V),
                _mm256_sub_pd(_mm256_loadu_pd(cp.add(i + V)), acc1),
            );
            i += 2 * V;
        }
        if i + V <= k {
            let mut acc0 = _mm256_setzero_pd();
            for l in 0..p {
                acc0 = _mm256_fmadd_pd(
                    _mm256_loadu_pd(ap.add(l * k + i)),
                    _mm256_loadu_pd(bp.add(l * bs + i)),
                    acc0,
                );
            }
            _mm256_storeu_pd(cp.add(i), _mm256_sub_pd(_mm256_loadu_pd(cp.add(i)), acc0));
            i += V;
        }
        while i < k {
            let mut s = 0.0;
            for l in 0..p {
                s = (*ap.add(l * k + i)).mul_add(*bp.add(l * bs + i), s);
            }
            *cp.add(i) -= s;
            i += 1;
        }
    }

    /// `y *= a` elementwise.
    ///
    /// # Safety
    ///
    /// Requires AVX2 (FMA unused but part of the dispatch contract) and
    /// equal slice lengths.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn lane_mul(a: &[f64], y: &mut [f64]) {
        debug_assert_eq!(a.len(), y.len());
        let n = y.len();
        let ap = a.as_ptr();
        let yp = y.as_mut_ptr();
        let mut i = 0;
        while i + 2 * V <= n {
            let y0 = _mm256_mul_pd(_mm256_loadu_pd(ap.add(i)), _mm256_loadu_pd(yp.add(i)));
            let y1 = _mm256_mul_pd(
                _mm256_loadu_pd(ap.add(i + V)),
                _mm256_loadu_pd(yp.add(i + V)),
            );
            _mm256_storeu_pd(yp.add(i), y0);
            _mm256_storeu_pd(yp.add(i + V), y1);
            i += 2 * V;
        }
        if i + V <= n {
            let y0 = _mm256_mul_pd(_mm256_loadu_pd(ap.add(i)), _mm256_loadu_pd(yp.add(i)));
            _mm256_storeu_pd(yp.add(i), y0);
            i += V;
        }
        while i < n {
            *yp.add(i) *= *ap.add(i);
            i += 1;
        }
    }

    /// [`super::fma_rows`]: strips of `4 * V` columns stay in four YMM
    /// accumulators across every term (one load and one FMA per term and
    /// vector), then one-vector strips and a scalar fused tail.
    ///
    /// # Safety
    ///
    /// Requires AVX2 + FMA and the layout contract the safe wrapper
    /// asserts (`acc.len() <= stride`, `rows` covering `w.len()` rows).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn fma_rows(
        w: &[f64],
        rows: &[f64],
        stride: usize,
        rev: bool,
        d: Option<f64>,
        acc: &mut [f64],
    ) {
        let n = acc.len();
        let mut j = 0;
        while j + 4 * V <= n {
            fma_rows_strip::<4>(w, rows, stride, rev, d, acc, j);
            j += 4 * V;
        }
        while j + V <= n {
            fma_rows_strip::<1>(w, rows, stride, rev, d, acc, j);
            j += V;
        }
        let nt = w.len();
        for (jj, x) in acc.iter_mut().enumerate().skip(j) {
            let mut s = *x;
            for t in 0..nt {
                let q = if rev { nt - 1 - t } else { t };
                if w[q] != 0.0 {
                    s = w[q].mul_add(rows[q * stride + jj], s);
                }
            }
            *x = d.map_or(s, |d| s / d);
        }
    }

    /// Columns `j0..j0 + NV * V` of [`fma_rows`].
    ///
    /// # Safety
    ///
    /// As [`fma_rows`], plus `j0 + NV * V <= acc.len()`.
    #[target_feature(enable = "avx2", enable = "fma")]
    #[inline]
    unsafe fn fma_rows_strip<const NV: usize>(
        w: &[f64],
        rows: &[f64],
        stride: usize,
        rev: bool,
        d: Option<f64>,
        acc: &mut [f64],
        j0: usize,
    ) {
        let nt = w.len();
        let (rp, cp) = (rows.as_ptr(), acc.as_mut_ptr().add(j0));
        let mut a = [_mm256_setzero_pd(); NV];
        for (v, x) in a.iter_mut().enumerate() {
            *x = _mm256_loadu_pd(cp.add(V * v));
        }
        for t in 0..nt {
            let q = if rev { nt - 1 - t } else { t };
            let wq = w[q];
            if wq == 0.0 {
                continue;
            }
            let wv = _mm256_set1_pd(wq);
            let row = rp.add(q * stride + j0);
            for (v, x) in a.iter_mut().enumerate() {
                *x = _mm256_fmadd_pd(wv, _mm256_loadu_pd(row.add(V * v)), *x);
            }
        }
        if let Some(d) = d {
            let dv = _mm256_set1_pd(d);
            for x in a.iter_mut() {
                *x = _mm256_div_pd(*x, dv);
            }
        }
        for (v, &x) in a.iter().enumerate() {
            _mm256_storeu_pd(cp.add(V * v), x);
        }
    }

    /// Dot product with two independent lane accumulators.
    ///
    /// # Safety
    ///
    /// Requires AVX2 + FMA and `x.len() == y.len()`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn dot(x: &[f64], y: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), y.len());
        let n = x.len();
        let xp = x.as_ptr();
        let yp = y.as_ptr();
        let mut acc0 = _mm256_setzero_pd();
        let mut acc1 = _mm256_setzero_pd();
        let mut i = 0;
        while i + 2 * V <= n {
            acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(xp.add(i)), _mm256_loadu_pd(yp.add(i)), acc0);
            acc1 = _mm256_fmadd_pd(
                _mm256_loadu_pd(xp.add(i + V)),
                _mm256_loadu_pd(yp.add(i + V)),
                acc1,
            );
            i += 2 * V;
        }
        if i + V <= n {
            acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(xp.add(i)), _mm256_loadu_pd(yp.add(i)), acc0);
            i += V;
        }
        let acc = _mm256_add_pd(acc0, acc1);
        let mut lanes = [0.0f64; V];
        _mm256_storeu_pd(lanes.as_mut_ptr(), acc);
        let mut s = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
        while i < n {
            s = (*xp.add(i)).mul_add(*yp.add(i), s);
            i += 1;
        }
        s
    }

    /// Small-block panel `C += alpha * A * B`: `A` is `M x M` with
    /// `M = 4 * NV`, `B` and `C` are `M x n` panels of any width. Output
    /// columns go `JB` at a time — `JB * NV` YMM accumulators, every A
    /// vector loaded once per `JB` broadcasts of B — then one at a time
    /// for the `n % JB` tail. No packing, no scratch.
    ///
    /// # Safety
    ///
    /// Requires AVX2 + FMA; `a` must be an `M x M` view and `b`, `c`
    /// `M x n` views (their columns are contiguous `M`-long slices by the
    /// view invariant).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn small<const M: usize, const NV: usize, const JB: usize>(
        alpha: f64,
        a: MatRef<'_>,
        b: MatRef<'_>,
        c: &mut MatMut<'_>,
    ) {
        debug_assert!(M == 4 * NV && a.shape() == (M, M) && b.rows() == M);
        debug_assert!(c.shape() == b.shape());
        let n = b.cols();
        let mut j = 0;
        while j + JB <= n {
            small_cols::<M, NV, JB>(alpha, a, b, c, j);
            j += JB;
        }
        while j < n {
            small_cols::<M, NV, 1>(alpha, a, b, c, j);
            j += 1;
        }
    }

    /// Output columns `j0..j0 + JB` of [`small`]: per element, one FMA
    /// per `k` into a zeroed accumulator, then one FMA of `alpha` into C.
    ///
    /// # Safety
    ///
    /// As [`small`], plus `j0 + JB <= b.cols()`.
    #[target_feature(enable = "avx2", enable = "fma")]
    #[inline]
    unsafe fn small_cols<const M: usize, const NV: usize, const JB: usize>(
        alpha: f64,
        a: MatRef<'_>,
        b: MatRef<'_>,
        c: &mut MatMut<'_>,
        j0: usize,
    ) {
        // Raw column pointers come from the whole view buffer (column j
        // starts at j * col_stride), never from one column's sub-slice.
        let (ap, lda) = (a.data.as_ptr(), a.col_stride());
        let mut bp = [b.data.as_ptr(); JB];
        for (jj, p) in bp.iter_mut().enumerate() {
            *p = p.add((j0 + jj) * b.col_stride());
        }
        let mut acc = [[_mm256_setzero_pd(); NV]; JB];
        for k in 0..M {
            let acol = ap.add(k * lda);
            let mut av = [_mm256_setzero_pd(); NV];
            for (v, x) in av.iter_mut().enumerate() {
                *x = _mm256_loadu_pd(acol.add(V * v));
            }
            for (accj, p) in acc.iter_mut().zip(&bp) {
                let bv = _mm256_set1_pd(*p.add(k));
                for (accv, &x) in accj.iter_mut().zip(&av) {
                    *accv = _mm256_fmadd_pd(x, bv, *accv);
                }
            }
        }
        let alphav = _mm256_set1_pd(alpha);
        for (jj, accj) in acc.iter().enumerate() {
            let cp = c.col_mut(j0 + jj).as_mut_ptr();
            for (v, &accv) in accj.iter().enumerate() {
                let cv: __m256d = _mm256_loadu_pd(cp.add(V * v));
                _mm256_storeu_pd(cp.add(V * v), _mm256_fmadd_pd(alphav, accv, cv));
            }
        }
    }
}

// ---------------------------------------------------------------------
// aarch64: NEON
// ---------------------------------------------------------------------

#[cfg(target_arch = "aarch64")]
mod neon {
    use super::{MatMut, MatRef, MR, NR};
    use core::arch::aarch64::{
        vaddq_f64, vdupq_n_f64, vfmaq_f64, vfmsq_f64, vld1q_f64, vmulq_f64, vst1q_f64, vsubq_f64,
    };

    /// f64 lanes per vector.
    const V: usize = 2;

    /// `MR x NR` packed microkernel: 16 two-lane accumulators (four per
    /// output column).
    ///
    /// # Safety
    ///
    /// Requires NEON, `pa.len() >= kb * MR`, `pb.len() >= kb * NR` and
    /// `acc.len() >= MR * NR`.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn microkernel(kb: usize, pa: &[f64], pb: &[f64], acc: &mut [f64]) {
        debug_assert!(pa.len() >= kb * MR && pb.len() >= kb * NR && acc.len() >= MR * NR);
        let mut tile = [[vdupq_n_f64(0.0); MR / V]; NR];
        let mut ap = pa.as_ptr();
        let mut bp = pb.as_ptr();
        for _ in 0..kb {
            let a = [
                vld1q_f64(ap),
                vld1q_f64(ap.add(V)),
                vld1q_f64(ap.add(2 * V)),
                vld1q_f64(ap.add(3 * V)),
            ];
            for (jj, col) in tile.iter_mut().enumerate() {
                let bv = vdupq_n_f64(*bp.add(jj));
                for (v, accv) in col.iter_mut().enumerate() {
                    *accv = vfmaq_f64(*accv, a[v], bv);
                }
            }
            ap = ap.add(MR);
            bp = bp.add(NR);
        }
        let out = acc.as_mut_ptr();
        for (jj, col) in tile.iter().enumerate() {
            for (v, &accv) in col.iter().enumerate() {
                vst1q_f64(out.add(jj * MR + v * V), accv);
            }
        }
    }

    /// `y += w * x` with one fused multiply-add per element.
    ///
    /// # Safety
    ///
    /// Requires NEON and `x.len() == y.len()`.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn axpy(w: f64, x: &[f64], y: &mut [f64]) {
        debug_assert_eq!(x.len(), y.len());
        let n = y.len();
        let wv = vdupq_n_f64(w);
        let xp = x.as_ptr();
        let yp = y.as_mut_ptr();
        let mut i = 0;
        while i + 2 * V <= n {
            let y0 = vfmaq_f64(vld1q_f64(yp.add(i)), vld1q_f64(xp.add(i)), wv);
            let y1 = vfmaq_f64(vld1q_f64(yp.add(i + V)), vld1q_f64(xp.add(i + V)), wv);
            vst1q_f64(yp.add(i), y0);
            vst1q_f64(yp.add(i + V), y1);
            i += 2 * V;
        }
        if i + V <= n {
            let y0 = vfmaq_f64(vld1q_f64(yp.add(i)), vld1q_f64(xp.add(i)), wv);
            vst1q_f64(yp.add(i), y0);
            i += V;
        }
        while i < n {
            *yp.add(i) = w.mul_add(*xp.add(i), *yp.add(i));
            i += 1;
        }
    }

    /// `y += a * b` elementwise, one fused multiply-add per element.
    ///
    /// # Safety
    ///
    /// Requires NEON and equal slice lengths.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn lane_fma(a: &[f64], b: &[f64], y: &mut [f64]) {
        debug_assert!(a.len() == y.len() && b.len() == y.len());
        let n = y.len();
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let yp = y.as_mut_ptr();
        let mut i = 0;
        while i + V <= n {
            let y0 = vfmaq_f64(
                vld1q_f64(yp.add(i)),
                vld1q_f64(ap.add(i)),
                vld1q_f64(bp.add(i)),
            );
            vst1q_f64(yp.add(i), y0);
            i += V;
        }
        while i < n {
            *yp.add(i) = (*ap.add(i)).mul_add(*bp.add(i), *yp.add(i));
            i += 1;
        }
    }

    /// `y -= a * b` elementwise via fused multiply-subtract.
    ///
    /// # Safety
    ///
    /// Requires NEON and equal slice lengths.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn lane_fnma(a: &[f64], b: &[f64], y: &mut [f64]) {
        debug_assert!(a.len() == y.len() && b.len() == y.len());
        let n = y.len();
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let yp = y.as_mut_ptr();
        let mut i = 0;
        while i + V <= n {
            let y0 = vfmsq_f64(
                vld1q_f64(yp.add(i)),
                vld1q_f64(ap.add(i)),
                vld1q_f64(bp.add(i)),
            );
            vst1q_f64(yp.add(i), y0);
            i += V;
        }
        while i < n {
            *yp.add(i) = (-*ap.add(i)).mul_add(*bp.add(i), *yp.add(i));
            i += 1;
        }
    }

    /// `c -= sum_l a_lane(l) * b_lane(l)` with register-resident partial
    /// sums (see the safe wrapper for the layout contract).
    ///
    /// # Safety
    ///
    /// Requires NEON; `a` must hold `p` `c.len()`-long lanes and `b`
    /// must cover `p` `bs`-strided lanes.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn lane_dot_sub(p: usize, a: &[f64], b: &[f64], bs: usize, c: &mut [f64]) {
        let k = c.len();
        debug_assert!(a.len() >= p * k && b.len() >= (p - 1) * bs + k);
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let cp = c.as_mut_ptr();
        let mut i = 0;
        while i + 2 * V <= k {
            let mut acc0 = vdupq_n_f64(0.0);
            let mut acc1 = vdupq_n_f64(0.0);
            for l in 0..p {
                let la = ap.add(l * k + i);
                let lb = bp.add(l * bs + i);
                acc0 = vfmaq_f64(acc0, vld1q_f64(la), vld1q_f64(lb));
                acc1 = vfmaq_f64(acc1, vld1q_f64(la.add(V)), vld1q_f64(lb.add(V)));
            }
            vst1q_f64(cp.add(i), vsubq_f64(vld1q_f64(cp.add(i)), acc0));
            vst1q_f64(cp.add(i + V), vsubq_f64(vld1q_f64(cp.add(i + V)), acc1));
            i += 2 * V;
        }
        if i + V <= k {
            let mut acc0 = vdupq_n_f64(0.0);
            for l in 0..p {
                acc0 = vfmaq_f64(
                    acc0,
                    vld1q_f64(ap.add(l * k + i)),
                    vld1q_f64(bp.add(l * bs + i)),
                );
            }
            vst1q_f64(cp.add(i), vsubq_f64(vld1q_f64(cp.add(i)), acc0));
            i += V;
        }
        while i < k {
            let mut s = 0.0;
            for l in 0..p {
                s = (*ap.add(l * k + i)).mul_add(*bp.add(l * bs + i), s);
            }
            *cp.add(i) -= s;
            i += 1;
        }
    }

    /// `y *= a` elementwise.
    ///
    /// # Safety
    ///
    /// Requires NEON and equal slice lengths.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn lane_mul(a: &[f64], y: &mut [f64]) {
        debug_assert_eq!(a.len(), y.len());
        let n = y.len();
        let ap = a.as_ptr();
        let yp = y.as_mut_ptr();
        let mut i = 0;
        while i + V <= n {
            let y0 = vmulq_f64(vld1q_f64(ap.add(i)), vld1q_f64(yp.add(i)));
            vst1q_f64(yp.add(i), y0);
            i += V;
        }
        while i < n {
            *yp.add(i) *= *ap.add(i);
            i += 1;
        }
    }

    /// Dot product with two independent lane accumulators.
    ///
    /// # Safety
    ///
    /// Requires NEON and `x.len() == y.len()`.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn dot(x: &[f64], y: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), y.len());
        let n = x.len();
        let xp = x.as_ptr();
        let yp = y.as_ptr();
        let mut acc0 = vdupq_n_f64(0.0);
        let mut acc1 = vdupq_n_f64(0.0);
        let mut i = 0;
        while i + 2 * V <= n {
            acc0 = vfmaq_f64(acc0, vld1q_f64(xp.add(i)), vld1q_f64(yp.add(i)));
            acc1 = vfmaq_f64(acc1, vld1q_f64(xp.add(i + V)), vld1q_f64(yp.add(i + V)));
            i += 2 * V;
        }
        if i + V <= n {
            acc0 = vfmaq_f64(acc0, vld1q_f64(xp.add(i)), vld1q_f64(yp.add(i)));
            i += V;
        }
        let acc = vaddq_f64(acc0, acc1);
        let mut lanes = [0.0f64; V];
        vst1q_f64(lanes.as_mut_ptr(), acc);
        let mut s = lanes[0] + lanes[1];
        while i < n {
            s = (*xp.add(i)).mul_add(*yp.add(i), s);
            i += 1;
        }
        s
    }

    /// Small-block panel `C += alpha * A * B`: `A` is `M x M` with
    /// `M = 2 * NV`, `B` and `C` are `M x n` panels, `JB` output columns
    /// at a time (see the x86 kernel of the same name).
    ///
    /// # Safety
    ///
    /// Requires NEON; `a` must be an `M x M` view and `b`, `c` `M x n`
    /// views.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn small<const M: usize, const NV: usize, const JB: usize>(
        alpha: f64,
        a: MatRef<'_>,
        b: MatRef<'_>,
        c: &mut MatMut<'_>,
    ) {
        debug_assert!(M == 2 * NV && a.shape() == (M, M) && b.rows() == M);
        debug_assert!(c.shape() == b.shape());
        let n = b.cols();
        let mut j = 0;
        while j + JB <= n {
            small_cols::<M, NV, JB>(alpha, a, b, c, j);
            j += JB;
        }
        while j < n {
            small_cols::<M, NV, 1>(alpha, a, b, c, j);
            j += 1;
        }
    }

    /// Output columns `j0..j0 + JB` of [`small`].
    ///
    /// # Safety
    ///
    /// As [`small`], plus `j0 + JB <= b.cols()`.
    #[target_feature(enable = "neon")]
    #[inline]
    unsafe fn small_cols<const M: usize, const NV: usize, const JB: usize>(
        alpha: f64,
        a: MatRef<'_>,
        b: MatRef<'_>,
        c: &mut MatMut<'_>,
        j0: usize,
    ) {
        let (ap, lda) = (a.data.as_ptr(), a.col_stride());
        let mut bp = [b.data.as_ptr(); JB];
        for (jj, p) in bp.iter_mut().enumerate() {
            *p = p.add((j0 + jj) * b.col_stride());
        }
        let mut acc = [[vdupq_n_f64(0.0); NV]; JB];
        for k in 0..M {
            let acol = ap.add(k * lda);
            let mut av = [vdupq_n_f64(0.0); NV];
            for (v, x) in av.iter_mut().enumerate() {
                *x = vld1q_f64(acol.add(V * v));
            }
            for (accj, p) in acc.iter_mut().zip(&bp) {
                let bv = vdupq_n_f64(*p.add(k));
                for (accv, &x) in accj.iter_mut().zip(&av) {
                    *accv = vfmaq_f64(*accv, x, bv);
                }
            }
        }
        let alphav = vdupq_n_f64(alpha);
        for (jj, accj) in acc.iter().enumerate() {
            let cp = c.col_mut(j0 + jj).as_mut_ptr();
            for (v, &accv) in accj.iter().enumerate() {
                let cv = vld1q_f64(cp.add(V * v));
                vst1q_f64(cp.add(V * v), vfmaq_f64(cv, alphav, accv));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mat::Mat;

    #[test]
    fn scoped_override_is_thread_local_and_restored() {
        let det = detected();
        assert_eq!(active(), det);
        with_isa(Isa::Scalar, || {
            assert_eq!(active(), Isa::Scalar);
            // Nesting restores the outer pin, not the detected ISA.
            with_isa(det, || assert_eq!(active(), det));
            assert_eq!(active(), Isa::Scalar);
            // Threads outside the dense kernels keep the detected ISA.
            let other = std::thread::spawn(active).join().unwrap();
            assert_eq!(other, det, "the override leaked to another thread");
        });
        assert_eq!(active(), det);
        // Restored on unwind.
        let caught = std::panic::catch_unwind(|| with_isa(Isa::Scalar, || panic!("boom")));
        assert!(caught.is_err());
        assert_eq!(active(), det, "a panic left the override in force");
    }

    #[test]
    fn scoped_override_refuses_undetected_isas() {
        let det = detected();
        // At most one of the two SIMD sets can be the detected one.
        let undetected = [Isa::Avx2Fma, Isa::Neon]
            .into_iter()
            .find(|&isa| isa != det)
            .unwrap();
        let caught = std::panic::catch_unwind(|| with_isa(undetected, active));
        assert!(caught.is_err(), "pinned undetected {}", undetected.name());
        assert_eq!(active(), det);
        assert_eq!(with_isa(Isa::Scalar, active), Isa::Scalar);
        assert_eq!(with_isa(det, active), det);
    }

    #[test]
    fn axpy_matches_scalar_reference() {
        for n in [0usize, 1, 3, 4, 7, 8, 9, 31, 64, 100] {
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
            let y0: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).cos()).collect();
            let w = -1.75;
            let mut expect = y0.clone();
            for (e, xv) in expect.iter_mut().zip(&x) {
                *e += w * xv;
            }
            let mut got = y0.clone();
            axpy(w, &x, &mut got);
            for (g, e) in got.iter().zip(&expect) {
                assert!((g - e).abs() <= 1e-15 * e.abs().max(1.0), "n={n}");
            }
        }
    }

    #[test]
    fn fma_rows_matches_axpy_chain_bit_for_bit() {
        // The register-strip kernel must reproduce the sequential AXPY
        // chain it replaces exactly: every strip/vector/tail split of
        // the row, both term orders, exact-zero weights (skipped), a
        // row stride wider than the row, with and without the divide.
        let stride = 75;
        for n in [0usize, 1, 3, 4, 7, 8, 15, 16, 17, 33, 40, 64, 71] {
            for nt in [0usize, 1, 2, 5] {
                let rows: Vec<f64> = (0..nt * stride).map(|i| (i as f64 * 0.37).sin()).collect();
                let mut w: Vec<f64> = (0..nt).map(|q| (q as f64 * 1.3).cos() - 0.5).collect();
                if nt > 2 {
                    w[1] = 0.0;
                }
                let acc0: Vec<f64> = (0..n).map(|j| (j as f64 * 0.11).cos()).collect();
                for rev in [false, true] {
                    for d in [None, Some(1.7)] {
                        let mut expect = acc0.clone();
                        for t in 0..nt {
                            let q = if rev { nt - 1 - t } else { t };
                            if w[q] != 0.0 {
                                let row = &rows[q * stride..q * stride + n];
                                axpy(w[q], row, &mut expect);
                            }
                        }
                        if let Some(d) = d {
                            expect.iter_mut().for_each(|v| *v /= d);
                        }
                        let mut got = acc0.clone();
                        fma_rows(&w, &rows, stride, rev, d, &mut got);
                        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        let case = format!("n={n} nt={nt} rev={rev} d={d:?}");
                        assert_eq!(bits(&got), bits(&expect), "{case}");
                    }
                }
            }
        }
    }

    #[test]
    fn axpy_propagates_zero_times_nan() {
        let x = [f64::NAN, f64::INFINITY, 1.0];
        let mut y = [0.0; 3];
        axpy(0.0, &x, &mut y);
        assert!(y[0].is_nan() && y[1].is_nan());
        assert_eq!(y[2], 0.0);
    }

    #[test]
    fn lane_kernels_match_scalar_reference() {
        for n in [0usize, 1, 3, 4, 7, 8, 9, 31, 64, 100] {
            let a: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
            let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.5).cos() + 0.1).collect();
            let y0: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).cos()).collect();
            for (label, run, expect) in [
                (
                    "fma",
                    (|a: &[f64], b: &[f64], y: &mut [f64]| lane_fma(a, b, y))
                        as fn(&[f64], &[f64], &mut [f64]),
                    (|av: f64, bv: f64, yv: f64| yv + av * bv) as fn(f64, f64, f64) -> f64,
                ),
                ("fnma", lane_fnma, |av, bv, yv| yv - av * bv),
                ("mul", |a, _b, y| lane_mul(a, y), |av, _bv, yv| yv * av),
            ] {
                let mut got = y0.clone();
                run(&a, &b, &mut got);
                for (i, g) in got.iter().enumerate() {
                    let e = expect(a[i], b[i], y0[i]);
                    assert!(
                        (g - e).abs() <= 1e-15 * e.abs().max(1.0),
                        "{label} n={n} i={i}"
                    );
                }
            }
        }
    }

    #[test]
    fn lane_dot_sub_matches_scalar_reference() {
        for k in [0usize, 1, 4, 7, 8, 9, 24, 100] {
            for p in [0usize, 1, 3, 8] {
                let bs = k + 3;
                let a: Vec<f64> = (0..p * k).map(|i| (i as f64 * 0.7).sin()).collect();
                let b: Vec<f64> = (0..if p == 0 { 0 } else { (p - 1) * bs + k })
                    .map(|i| (i as f64 * 0.5).cos())
                    .collect();
                let c0: Vec<f64> = (0..k).map(|i| (i as f64 * 0.3).cos()).collect();
                let mut got = c0.clone();
                lane_dot_sub(&a, &b, bs, &mut got);
                for i in 0..k {
                    let mut e = c0[i];
                    for l in 0..p {
                        e -= a[l * k + i] * b[l * bs + i];
                    }
                    assert!(
                        (got[i] - e).abs() <= 1e-14 * e.abs().max(1.0),
                        "k={k} p={p} i={i}"
                    );
                }
            }
        }
    }

    #[test]
    fn dot_matches_scalar_reference() {
        for n in [0usize, 1, 2, 5, 8, 13, 16, 33, 100] {
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).sin()).collect();
            let y: Vec<f64> = (0..n).map(|i| (i as f64 * 0.23).cos()).collect();
            let expect: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
            let got = dot(&x, &y);
            assert!(
                (got - expect).abs() <= 1e-13 * expect.abs().max(1.0),
                "n={n}: {got} vs {expect}"
            );
        }
    }

    #[test]
    fn microkernel_paths_agree() {
        let kb = 37;
        let pa: Vec<f64> = (0..kb * MR).map(|i| (i as f64 * 0.17).sin()).collect();
        let pb: Vec<f64> = (0..kb * NR).map(|i| (i as f64 * 0.29).cos()).collect();
        let mut scalar = [0.0f64; MR * NR];
        with_isa(Isa::Scalar, || microkernel(kb, &pa, &pb, &mut scalar));
        let mut active_path = [0.0f64; MR * NR];
        microkernel(kb, &pa, &pb, &mut active_path);
        for (s, v) in scalar.iter().zip(&active_path) {
            assert!((s - v).abs() <= 1e-13 * s.abs().max(1.0));
        }
    }

    #[test]
    fn small_kernel_paths_agree_and_respect_alpha() {
        for m in SMALL_DIMS {
            for r in [1, 3, m, 2 * m + 5] {
                let a = Mat::from_fn(m, m, |i, j| ((i * m + j) as f64 * 0.31).sin());
                let b = Mat::from_fn(m, r, |i, j| ((i + 2 * j) as f64 * 0.17).cos());
                let c0 = Mat::from_fn(m, r, |i, j| (i as f64 - j as f64) * 0.05);
                let mut scalar = c0.clone();
                with_isa(Isa::Scalar, || {
                    assert!(gemm_small(
                        -1.5,
                        a.as_ref(),
                        b.as_ref(),
                        &mut scalar.as_mut()
                    ));
                });
                let mut active_path = c0.clone();
                assert!(gemm_small(
                    -1.5,
                    a.as_ref(),
                    b.as_ref(),
                    &mut active_path.as_mut()
                ));
                assert!(
                    scalar.sub(&active_path).max_abs() <= 1e-13 * m as f64,
                    "m={m} r={r}"
                );
            }
        }
    }

    #[test]
    fn small_kernel_rejects_unsupported_shapes() {
        fn accepts(a: (usize, usize), b: (usize, usize), c: (usize, usize)) -> bool {
            let (a, b, mut c) = (
                Mat::zeros(a.0, a.1),
                Mat::zeros(b.0, b.1),
                Mat::zeros(c.0, c.1),
            );
            gemm_small(1.0, a.as_ref(), b.as_ref(), &mut c.as_mut())
        }
        // M x M · M x R panels of any width are the supported case.
        assert!(accepts((8, 8), (8, 4), (8, 4)));
        assert!(accepts((4, 4), (4, 1), (4, 1)));
        assert!(accepts((16, 16), (16, 70), (16, 70)));
        // Orders outside {4, 8, 16}.
        assert!(!accepts((5, 5), (5, 5), (5, 5)));
        assert!(!accepts((32, 32), (32, 4), (32, 4)));
        // Non-square A.
        assert!(!accepts((8, 4), (4, 8), (8, 8)));
        assert!(!accepts((4, 8), (8, 8), (4, 8)));
        // B whose row count does not match A, or C not M x R.
        assert!(!accepts((8, 8), (4, 8), (8, 8)));
        assert!(!accepts((8, 8), (8, 4), (8, 5)));
        assert!(!accepts((8, 8), (8, 4), (4, 4)));
    }
}
