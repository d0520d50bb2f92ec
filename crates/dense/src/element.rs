//! The [`Element`] abstraction: one trait over the scalar types the
//! dense kernels are generic in (`f64` and `f32`).
//!
//! Everything in this crate used to be hardwired to `f64`. The
//! mixed-precision solve path needs the same kernels at `f32` — double
//! the SIMD width, half the wire bytes — so [`Mat`], the views, the
//! GEMM/LU/Cholesky kernels and the workspace pool are generic over
//! `E: Element` with `f64` as the default type parameter (existing
//! `Mat` call sites compile unchanged).
//!
//! The trait carries three kinds of items:
//!
//! * **scalar constants and operations** (`ZERO`, `EPSILON`, `abs`,
//!   `sqrt`, ...) so generic numerical code reads like the old `f64`
//!   code and — for `E = f64` — executes the *same operations in the
//!   same order*, keeping the f64 paths bitwise identical to the
//!   pre-generic kernels;
//! * **SIMD dispatch hooks** (`simd_axpy`, `simd_microkernel`, ...)
//!   that route to the per-type vectorized kernels in [`crate::simd`]
//!   behind the shared runtime [`crate::Isa`] dispatch;
//! * **type-erasure hooks** ([`AnyVec`] / [`AnyMat`]) so the comm layer
//!   can move panels of either precision through one non-generic wire
//!   payload type while charging `size_of::<E>()`-exact byte counts.
//!
//! Kernel-shape constants (`MR`/`NR`, packed-crossover flops) also live
//! here: the f32 microkernel tile is 16 x 4 (two AVX2 vectors of eight
//! lanes), twice the height of the 8 x 4 f64 tile.

use crate::mat::Mat;
use crate::simd;
use crate::view::{MatMut, MatRef};
use std::cell::RefCell;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// Scalar element type of the dense kernels (`f64` or `f32`).
///
/// Implemented for exactly those two types; downstream crates select
/// precision with a type parameter (`Mat<f32>`) and fall back to the
/// `f64` default everywhere else.
pub trait Element:
    Copy
    + Default
    + PartialEq
    + PartialOrd
    + fmt::Debug
    + fmt::Display
    + fmt::LowerExp
    + Send
    + Sync
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + Sum
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Machine epsilon of this precision.
    const EPSILON: Self;
    /// Canonical lowercase type name (`"f64"` / `"f32"`), used in bench
    /// schemas and error messages.
    const NAME: &'static str;
    /// Microkernel tile height for this element type (one cache line of
    /// C per register column: 8 f64 or 16 f32 — two AVX2 vectors either
    /// way).
    const MR: usize;
    /// Microkernel tile width.
    const NR: usize;
    /// Packed-vs-AXPY GEMM crossover on SIMD dispatch paths, in flops
    /// (`2 m k n`). Measured for f64 (see `BENCH_gemm.json`); the f32
    /// value starts from the same sweep methodology. Only products whose
    /// `A` is not a small block consult it: square `A` of order 4, 8 or
    /// 16 always takes the small-block panel kernel.
    const PACKED_MIN_FLOPS_SIMD: usize;
    /// Packed-vs-AXPY crossover on the scalar fallback path.
    const PACKED_MIN_FLOPS_SCALAR: usize;

    /// Conversion from `f64` (rounds for `f32`; identity for `f64`).
    fn from_f64(v: f64) -> Self;
    /// Widening conversion to `f64` (exact for both implementors).
    fn to_f64(self) -> f64;
    /// Absolute value.
    fn abs(self) -> Self;
    /// Square root.
    fn sqrt(self) -> Self;
    /// True for non-NaN, non-infinite values.
    fn is_finite(self) -> bool;
    /// True for nonzero values below this precision's smallest normal
    /// magnitude. Subnormal operands take the slow microcoded path on
    /// every mainstream CPU, so their presence in stored factors
    /// predicts a data-dependent slowdown of the replay GEMM streams —
    /// the mixed-precision layer probes for them (`f32` dynamic range
    /// bottoms out near `1e-38`, well inside what decaying scan
    /// prefixes reach).
    fn is_subnormal(self) -> bool;

    /// `y += w * x` through the runtime-dispatched SIMD path.
    fn simd_axpy(w: Self, x: &[Self], y: &mut [Self]);
    /// Dot product through the runtime-dispatched SIMD path.
    fn simd_dot(x: &[Self], y: &[Self]) -> Self;
    /// Packed `MR x NR` microkernel; `acc` must hold `MR * NR` elements.
    fn simd_microkernel(kb: usize, pa: &[Self], pb: &[Self], acc: &mut [Self]);
    /// Small-block panel GEMM (`M x M · M x R`, `M` in {4, 8, 16});
    /// returns `false` for unsupported shapes.
    fn simd_gemm_small(
        alpha: Self,
        a: MatRef<'_, Self>,
        b: MatRef<'_, Self>,
        c: &mut MatMut<'_, Self>,
    ) -> bool;
    /// `y[i] += a[i] * b[i]` over batch lanes, through the
    /// runtime-dispatched SIMD path (see [`crate::simd::lane_fma`]).
    fn simd_lane_fma(a: &[Self], b: &[Self], y: &mut [Self]);
    /// `y[i] -= a[i] * b[i]` over batch lanes.
    fn simd_lane_fnma(a: &[Self], b: &[Self], y: &mut [Self]);
    /// `y[i] *= a[i]` over batch lanes.
    fn simd_lane_mul(a: &[Self], y: &mut [Self]);
    /// Register-fused lane reduction `c[i] -= sum_l a[l*k+i] *
    /// b[l*bstride+i]` (see [`crate::simd::lane_dot_sub`]).
    fn simd_lane_dot_sub(a: &[Self], b: &[Self], bstride: usize, c: &mut [Self]);
    /// Left-looking row update of the row-oriented triangular sweep,
    /// `acc += sum_q w[q] * rows[q]` then `acc /= d` (see
    /// `simd::fma_rows`).
    fn simd_fma_rows(
        w: &[Self],
        rows: &[Self],
        stride: usize,
        rev: bool,
        d: Option<Self>,
        acc: &mut [Self],
    );
    /// Hands the caller this thread's kernel scratch `(packed_a,
    /// packed_b)`: the packing panels of [`crate::gemm_packed`], whose
    /// first buffer doubles as the row-major transpose of
    /// [`crate::LuFactors`]'s wide panel solve (the two never nest). Per
    /// element type, because a `thread_local!` cannot be generic.
    fn with_pack_bufs<R>(f: impl FnOnce(&mut Vec<Self>, &mut Vec<Self>) -> R) -> R;

    /// Wraps a buffer in the precision-erased [`AnyVec`].
    fn vec_into_any(v: Vec<Self>) -> AnyVec;
    /// Recovers a typed buffer; `None` on precision mismatch.
    fn vec_from_any(v: AnyVec) -> Option<Vec<Self>>;
    /// Wraps a matrix in the precision-erased [`AnyMat`].
    fn mat_into_any(m: Mat<Self>) -> AnyMat;
    /// Recovers a typed matrix; `None` on precision mismatch.
    fn mat_from_any(m: AnyMat) -> Option<Mat<Self>>;
}

impl Element for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const EPSILON: Self = f64::EPSILON;
    const NAME: &'static str = "f64";
    const MR: usize = 8;
    const NR: usize = 4;
    // Crossovers for A operands outside the small-block orders {4, 8,
    // 16} (those always take the panel kernel). Measured on the
    // AVX2+FMA reference host (`cargo bench -p bt-bench --bench
    // kernels`, see `BENCH_gemm.json`): the FMA microkernel beats the
    // (also FMA-vectorized) AXPY kernel at every swept size from
    // m = k = n = 8 (1 kflop, 1.08x) through m = 256 (3.7x), while AXPY
    // wins at m = 4 (128 flop, 2.2x — the pack pass dominates). 512 flops
    // splits that gap.
    const PACKED_MIN_FLOPS_SIMD: usize = 512;
    // The same sweep under `BT_DENSE_SIMD=0` shows the autovectorized
    // AXPY loop winning through m = 48 and the scalar microkernel taking
    // over from m = 63; the crossover sits right at `2 * 63^3`.
    const PACKED_MIN_FLOPS_SCALAR: usize = 500_000;

    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        v
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline(always)]
    fn abs(self) -> Self {
        f64::abs(self)
    }
    #[inline(always)]
    fn sqrt(self) -> Self {
        f64::sqrt(self)
    }
    #[inline(always)]
    fn is_finite(self) -> bool {
        f64::is_finite(self)
    }
    #[inline(always)]
    fn is_subnormal(self) -> bool {
        f64::is_subnormal(self)
    }

    #[inline]
    fn simd_axpy(w: Self, x: &[Self], y: &mut [Self]) {
        simd::axpy(w, x, y);
    }
    #[inline]
    fn simd_dot(x: &[Self], y: &[Self]) -> Self {
        simd::dot(x, y)
    }
    #[inline]
    fn simd_microkernel(kb: usize, pa: &[Self], pb: &[Self], acc: &mut [Self]) {
        simd::microkernel(kb, pa, pb, acc);
    }
    #[inline]
    fn simd_gemm_small(
        alpha: Self,
        a: MatRef<'_, Self>,
        b: MatRef<'_, Self>,
        c: &mut MatMut<'_, Self>,
    ) -> bool {
        simd::gemm_small(alpha, a, b, c)
    }
    #[inline]
    fn simd_lane_fma(a: &[Self], b: &[Self], y: &mut [Self]) {
        simd::lane_fma(a, b, y);
    }
    #[inline]
    fn simd_lane_fnma(a: &[Self], b: &[Self], y: &mut [Self]) {
        simd::lane_fnma(a, b, y);
    }
    #[inline]
    fn simd_lane_mul(a: &[Self], y: &mut [Self]) {
        simd::lane_mul(a, y);
    }
    #[inline]
    fn simd_lane_dot_sub(a: &[Self], b: &[Self], bstride: usize, c: &mut [Self]) {
        simd::lane_dot_sub(a, b, bstride, c);
    }
    #[inline]
    fn simd_fma_rows(
        w: &[Self],
        rows: &[Self],
        stride: usize,
        rev: bool,
        d: Option<Self>,
        acc: &mut [Self],
    ) {
        simd::fma_rows(w, rows, stride, rev, d, acc);
    }
    fn with_pack_bufs<R>(f: impl FnOnce(&mut Vec<Self>, &mut Vec<Self>) -> R) -> R {
        thread_local! {
            /// Per-thread packing scratch `(packed_a, packed_b)`: warm
            /// `gemm_packed` calls on a given OS thread reuse these
            /// instead of allocating.
            static PACK_BUFS_F64: RefCell<(Vec<f64>, Vec<f64>)> =
                const { RefCell::new((Vec::new(), Vec::new())) };
        }
        PACK_BUFS_F64.with(|bufs| {
            let mut bufs = bufs.borrow_mut();
            let (pa, pb) = &mut *bufs;
            f(pa, pb)
        })
    }

    #[inline]
    fn vec_into_any(v: Vec<Self>) -> AnyVec {
        AnyVec::F64(v)
    }
    #[inline]
    fn vec_from_any(v: AnyVec) -> Option<Vec<Self>> {
        match v {
            AnyVec::F64(v) => Some(v),
            AnyVec::F32(_) => None,
        }
    }
    #[inline]
    fn mat_into_any(m: Mat<Self>) -> AnyMat {
        AnyMat::F64(m)
    }
    #[inline]
    fn mat_from_any(m: AnyMat) -> Option<Mat<Self>> {
        match m {
            AnyMat::F64(m) => Some(m),
            AnyMat::F32(_) => None,
        }
    }
}

impl Element for f32 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const EPSILON: Self = f32::EPSILON;
    const NAME: &'static str = "f32";
    // Two AVX2 vectors per register column, like f64 — but 8 lanes each.
    const MR: usize = 16;
    const NR: usize = 4;
    // Same flop-count crossover as f64 to first order (and likewise
    // only for orders outside {4, 8, 16}): the pack-pass overhead and
    // the microkernel advantage both scale with element throughput. The
    // f32 rows of `BENCH_gemm.json` measure the actual per-ISA crossover.
    const PACKED_MIN_FLOPS_SIMD: usize = 512;
    const PACKED_MIN_FLOPS_SCALAR: usize = 500_000;

    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        v as f32
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        f64::from(self)
    }
    #[inline(always)]
    fn abs(self) -> Self {
        f32::abs(self)
    }
    #[inline(always)]
    fn sqrt(self) -> Self {
        f32::sqrt(self)
    }
    #[inline(always)]
    fn is_finite(self) -> bool {
        f32::is_finite(self)
    }
    #[inline(always)]
    fn is_subnormal(self) -> bool {
        f32::is_subnormal(self)
    }

    #[inline]
    fn simd_axpy(w: Self, x: &[Self], y: &mut [Self]) {
        simd::axpy_f32(w, x, y);
    }
    #[inline]
    fn simd_dot(x: &[Self], y: &[Self]) -> Self {
        simd::dot_f32(x, y)
    }
    #[inline]
    fn simd_microkernel(kb: usize, pa: &[Self], pb: &[Self], acc: &mut [Self]) {
        simd::microkernel_f32(kb, pa, pb, acc);
    }
    #[inline]
    fn simd_gemm_small(
        alpha: Self,
        a: MatRef<'_, Self>,
        b: MatRef<'_, Self>,
        c: &mut MatMut<'_, Self>,
    ) -> bool {
        simd::gemm_small_f32(alpha, a, b, c)
    }
    #[inline]
    fn simd_lane_fma(a: &[Self], b: &[Self], y: &mut [Self]) {
        simd::lane_fma_f32(a, b, y);
    }
    #[inline]
    fn simd_lane_fnma(a: &[Self], b: &[Self], y: &mut [Self]) {
        simd::lane_fnma_f32(a, b, y);
    }
    #[inline]
    fn simd_lane_mul(a: &[Self], y: &mut [Self]) {
        simd::lane_mul_f32(a, y);
    }
    #[inline]
    fn simd_lane_dot_sub(a: &[Self], b: &[Self], bstride: usize, c: &mut [Self]) {
        simd::lane_dot_sub_f32(a, b, bstride, c);
    }
    #[inline]
    fn simd_fma_rows(
        w: &[Self],
        rows: &[Self],
        stride: usize,
        rev: bool,
        d: Option<Self>,
        acc: &mut [Self],
    ) {
        simd::fma_rows_f32(w, rows, stride, rev, d, acc);
    }
    fn with_pack_bufs<R>(f: impl FnOnce(&mut Vec<Self>, &mut Vec<Self>) -> R) -> R {
        thread_local! {
            static PACK_BUFS_F32: RefCell<(Vec<f32>, Vec<f32>)> =
                const { RefCell::new((Vec::new(), Vec::new())) };
        }
        PACK_BUFS_F32.with(|bufs| {
            let mut bufs = bufs.borrow_mut();
            let (pa, pb) = &mut *bufs;
            f(pa, pb)
        })
    }

    #[inline]
    fn vec_into_any(v: Vec<Self>) -> AnyVec {
        AnyVec::F32(v)
    }
    #[inline]
    fn vec_from_any(v: AnyVec) -> Option<Vec<Self>> {
        match v {
            AnyVec::F32(v) => Some(v),
            AnyVec::F64(_) => None,
        }
    }
    #[inline]
    fn mat_into_any(m: Mat<Self>) -> AnyMat {
        AnyMat::F32(m)
    }
    #[inline]
    fn mat_from_any(m: AnyMat) -> Option<Mat<Self>> {
        match m {
            AnyMat::F32(m) => Some(m),
            AnyMat::F64(_) => None,
        }
    }
}

/// A precision-erased element buffer: the payload storage of the comm
/// layer's `PanelBuf`, which must be a single non-generic type because
/// both backends move payloads as `Box<dyn Any>`.
#[derive(Debug, Clone, PartialEq)]
pub enum AnyVec {
    /// Single-precision buffer.
    F32(Vec<f32>),
    /// Double-precision buffer.
    F64(Vec<f64>),
}

impl AnyVec {
    /// Bytes per element of the stored precision.
    #[inline]
    pub fn elem_size(&self) -> usize {
        match self {
            AnyVec::F32(_) => std::mem::size_of::<f32>(),
            AnyVec::F64(_) => std::mem::size_of::<f64>(),
        }
    }

    /// Element count.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            AnyVec::F32(v) => v.len(),
            AnyVec::F64(v) => v.len(),
        }
    }

    /// True when the buffer holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Allocated capacity, in elements.
    #[inline]
    pub fn capacity(&self) -> usize {
        match self {
            AnyVec::F32(v) => v.capacity(),
            AnyVec::F64(v) => v.capacity(),
        }
    }

    /// True when both buffers store the same precision.
    #[inline]
    pub fn same_precision(&self, other: &AnyVec) -> bool {
        matches!(
            (self, other),
            (AnyVec::F32(_), AnyVec::F32(_)) | (AnyVec::F64(_), AnyVec::F64(_))
        )
    }
}

/// A precision-erased matrix: the slot type of the comm backends'
/// in-flight receive requests, which must store either precision in one
/// non-generic request struct.
#[derive(Debug, Clone, PartialEq)]
pub enum AnyMat {
    /// Single-precision matrix.
    F32(Mat<f32>),
    /// Double-precision matrix.
    F64(Mat<f64>),
}

impl AnyMat {
    /// `(rows, cols)` of the wrapped matrix.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        match self {
            AnyMat::F32(m) => m.shape(),
            AnyMat::F64(m) => m.shape(),
        }
    }

    /// Bytes per element of the stored precision.
    #[inline]
    pub fn elem_size(&self) -> usize {
        match self {
            AnyMat::F32(_) => std::mem::size_of::<f32>(),
            AnyMat::F64(_) => std::mem::size_of::<f64>(),
        }
    }

    /// Canonical name of the stored precision (`"f32"` / `"f64"`).
    #[inline]
    pub fn precision_name(&self) -> &'static str {
        match self {
            AnyMat::F32(_) => f32::NAME,
            AnyMat::F64(_) => f64::NAME,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_match_the_primitives() {
        assert_eq!(<f64 as Element>::EPSILON, f64::EPSILON);
        assert_eq!(<f32 as Element>::EPSILON, f32::EPSILON);
        assert_eq!(f64::NAME, "f64");
        assert_eq!(f32::NAME, "f32");
        // Twice the lanes, twice the tile height.
        assert_eq!(<f32 as Element>::MR, 2 * <f64 as Element>::MR);
        assert_eq!(<f32 as Element>::NR, <f64 as Element>::NR);
    }

    #[test]
    fn conversions_roundtrip() {
        assert_eq!(f64::from_f64(1.5), 1.5);
        assert_eq!(<f32 as Element>::from_f64(1.5), 1.5f32);
        assert_eq!(1.5f32.to_f64(), 1.5);
        // f64 -> f32 rounds.
        let x = 0.1f64;
        assert_ne!(<f32 as Element>::from_f64(x).to_f64(), x);
    }

    #[test]
    fn any_vec_tracks_precision_and_size() {
        let a = f32::vec_into_any(vec![1.0f32; 6]);
        let b = f64::vec_into_any(vec![1.0f64; 6]);
        assert_eq!(a.elem_size(), 4);
        assert_eq!(b.elem_size(), 8);
        assert_eq!(a.len(), 6);
        assert!(!a.same_precision(&b));
        assert!(f32::vec_from_any(b.clone()).is_none());
        assert_eq!(f64::vec_from_any(b).unwrap().len(), 6);
    }

    #[test]
    fn any_mat_roundtrip_and_mismatch() {
        let m = Mat::<f32>::zeros(2, 3);
        let any = f32::mat_into_any(m);
        assert_eq!(any.shape(), (2, 3));
        assert_eq!(any.elem_size(), 4);
        assert_eq!(any.precision_name(), "f32");
        assert!(f64::mat_from_any(any.clone()).is_none());
        assert_eq!(f32::mat_from_any(any).unwrap().shape(), (2, 3));
    }
}
