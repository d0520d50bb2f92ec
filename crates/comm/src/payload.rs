//! The [`Payload`] trait: what can travel through the runtime.
//!
//! A payload is any `Send + 'static` value that can report its wire size.
//! Sizes feed the communication-volume counters (Figure 6) and the
//! virtual-time model; they approximate what an MPI implementation would
//! put on the wire (raw element bytes, ignoring header overhead — headers
//! are modeled by the per-message `alpha` term instead). Element bytes
//! follow the payload's own precision: an `f32` panel occupies half the
//! wire of the same-shape `f64` panel, which is what makes the
//! mixed-precision solve path's halved communication volume visible to
//! both the simulator's cost model and the shared-memory backend's
//! measured stats.

use bt_dense::{AnyVec, Element, Mat, MatMut, MatRef};
use std::sync::{Mutex, OnceLock};

/// A value that can be sent between ranks.
pub trait Payload: Send + 'static {
    /// Approximate number of bytes this value occupies on the wire.
    fn byte_size(&self) -> u64;
}

/// Pool-hit/miss counters for the [`PanelBuf`] buffer pool (no-ops
/// unless `BT_OBS` is on).
static OBS_POOL_HITS: bt_obs::Counter = bt_obs::Counter::new("bt_mpsim.panel_pool.hits");
static OBS_POOL_MISSES: bt_obs::Counter = bt_obs::Counter::new("bt_mpsim.panel_pool.misses");

/// Process-wide free list backing [`PanelBuf`]: buffers released by
/// `unpack_into` on any rank thread are recycled by later `pack` calls.
/// Holds buffers of both element widths; `pack` only checks out a buffer
/// of its own precision (matched by element size, so an `f32` panel never
/// reinterprets an `f64` allocation). (Sends cross rank threads, so
/// unlike [`bt_dense::Workspace`] this pool must be shared; a `Mutex` is
/// fine — packing happens at most once per message, never in an inner
/// loop.)
static PANEL_POOL: OnceLock<Mutex<Vec<AnyVec>>> = OnceLock::new();

fn panel_pool() -> &'static Mutex<Vec<AnyVec>> {
    PANEL_POOL.get_or_init(|| Mutex::new(Vec::new()))
}

/// Empties the [`PanelBuf`] pool, returning how many buffers were
/// dropped. For benchmarks that want a cold-allocator baseline.
pub fn panel_pool_drain() -> usize {
    let mut pool = panel_pool().lock().unwrap();
    let n = pool.len();
    pool.clear();
    n
}

/// A dense panel on the wire at either element width, packed from a
/// [`MatRef`] and unpacked into caller-provided [`MatMut`] scratch — the
/// allocation-free counterpart of sending an owned [`Mat`].
///
/// The backing buffer is checked out of a process-wide pool on `pack`
/// and returned on `unpack_into`, so a warm send/recv round-trip
/// performs no heap allocation. Wire size matches `Mat`'s
/// (`rows * cols * size_of::<E>()` bytes), keeping communication-volume
/// accounting identical whichever payload a path uses — and halved for
/// `f32` panels relative to `f64` ones of the same shape.
#[derive(Debug, Clone, PartialEq)]
pub struct PanelBuf {
    rows: usize,
    cols: usize,
    data: AnyVec,
}

impl PanelBuf {
    /// Packs a (possibly strided) view into a pooled buffer of the
    /// view's own precision.
    pub fn pack<E: Element>(src: MatRef<'_, E>) -> Self {
        let (rows, cols) = src.shape();
        let need = rows * cols;
        let mut data: Vec<E> = {
            let mut pool = panel_pool().lock().unwrap();
            // Smallest adequate same-precision pooled buffer, else a
            // fresh allocation.
            let mut best: Option<usize> = None;
            for (i, buf) in pool.iter().enumerate() {
                if buf.elem_size() == std::mem::size_of::<E>()
                    && buf.capacity() >= need
                    && best.is_none_or(|b| buf.capacity() < pool[b].capacity())
                {
                    best = Some(i);
                }
            }
            match best {
                Some(i) => {
                    OBS_POOL_HITS.incr();
                    E::vec_from_any(pool.swap_remove(i)).expect("pool entry matched by elem_size")
                }
                None => {
                    OBS_POOL_MISSES.incr();
                    Vec::with_capacity(need)
                }
            }
        };
        data.clear();
        for j in 0..cols {
            data.extend_from_slice(src.col(j));
        }
        Self {
            rows,
            cols,
            data: E::vec_into_any(data),
        }
    }

    /// `(rows, cols)` of the packed panel.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Bytes per packed element (4 for `f32` panels, 8 for `f64`).
    pub fn elem_size(&self) -> usize {
        self.data.elem_size()
    }

    /// Copies the panel into `out` and releases the backing buffer to
    /// the pool.
    ///
    /// # Panics
    ///
    /// Panics if `out`'s shape differs from the packed panel's, or if
    /// `out`'s element type differs from the precision the panel was
    /// packed at (precision on the wire is part of the message contract,
    /// like MPI datatypes).
    pub fn unpack_into<E: Element>(self, mut out: MatMut<'_, E>) {
        assert_eq!(
            out.shape(),
            (self.rows, self.cols),
            "unpack_into shape mismatch"
        );
        let data = E::vec_from_any(self.data)
            .unwrap_or_else(|| panic!("unpack_into precision mismatch: panel is not {}", E::NAME));
        for j in 0..self.cols {
            out.col_mut(j)
                .copy_from_slice(&data[j * self.rows..(j + 1) * self.rows]);
        }
        if data.capacity() > 0 {
            panel_pool().lock().unwrap().push(E::vec_into_any(data));
        }
    }

    /// Copies the panel into a freshly allocated [`Mat`] and releases
    /// the backing buffer to the pool.
    ///
    /// # Panics
    ///
    /// Panics on a precision mismatch, like [`PanelBuf::unpack_into`].
    pub fn unpack<E: Element>(self) -> Mat<E> {
        let mut out = Mat::zeros(self.rows, self.cols);
        self.unpack_into(out.as_mut());
        out
    }
}

impl Payload for PanelBuf {
    fn byte_size(&self) -> u64 {
        // Same accounting as `Mat` at the matching precision: switching a
        // path from owned to pooled panels must not change measured comm
        // volume, and dropping a path to f32 must halve it.
        (self.rows * self.cols * self.data.elem_size()) as u64
    }
}

macro_rules! scalar_payload {
    ($($t:ty),*) => {
        $(impl Payload for $t {
            fn byte_size(&self) -> u64 {
                std::mem::size_of::<$t>() as u64
            }
        })*
    };
}

scalar_payload!(f64, f32, u64, i64, u32, i32, usize, u8, bool);

impl Payload for () {
    fn byte_size(&self) -> u64 {
        // Empty payloads still occupy a (modeled) header's worth of wire;
        // we report 0 and let the alpha term account for the message.
        0
    }
}

impl<T> Payload for Vec<T>
where
    T: Send + 'static,
{
    fn byte_size(&self) -> u64 {
        (self.len() * std::mem::size_of::<T>()) as u64
    }
}

impl<E: Element> Payload for Mat<E> {
    fn byte_size(&self) -> u64 {
        (self.rows() * self.cols() * std::mem::size_of::<E>()) as u64
    }
}

impl Payload for String {
    fn byte_size(&self) -> u64 {
        self.len() as u64
    }
}

impl<T: Payload> Payload for Option<T> {
    fn byte_size(&self) -> u64 {
        match self {
            Some(v) => 1 + v.byte_size(),
            None => 1,
        }
    }
}

impl<T: Payload> Payload for Box<T> {
    fn byte_size(&self) -> u64 {
        (**self).byte_size()
    }
}

impl<A: Payload, B: Payload> Payload for (A, B) {
    fn byte_size(&self) -> u64 {
        self.0.byte_size() + self.1.byte_size()
    }
}

impl<A: Payload, B: Payload, C: Payload> Payload for (A, B, C) {
    fn byte_size(&self) -> u64 {
        self.0.byte_size() + self.1.byte_size() + self.2.byte_size()
    }
}

impl<A: Payload, B: Payload, C: Payload, D: Payload> Payload for (A, B, C, D) {
    fn byte_size(&self) -> u64 {
        self.0.byte_size() + self.1.byte_size() + self.2.byte_size() + self.3.byte_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes the tests that pack panels. The pool is process-global,
    /// so without this one test's pack or drain can empty it between
    /// another test's release of a buffer and its assertion on the pool.
    fn pool_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn scalar_sizes() {
        assert_eq!(1.0f64.byte_size(), 8);
        assert_eq!(1u32.byte_size(), 4);
        assert_eq!(true.byte_size(), 1);
        assert_eq!(().byte_size(), 0);
    }

    #[test]
    fn vec_size_counts_elements() {
        let v = vec![0.0f64; 10];
        assert_eq!(v.byte_size(), 80);
        let empty: Vec<f64> = vec![];
        assert_eq!(empty.byte_size(), 0);
    }

    #[test]
    fn mat_size_counts_entries() {
        let m = Mat::<f64>::zeros(3, 5);
        assert_eq!(m.byte_size(), 15 * 8);
        assert_eq!(Mat::<f32>::zeros(3, 5).byte_size(), 15 * 4);
    }

    #[test]
    fn composite_sizes_add_up() {
        let pair = (Mat::<f64>::zeros(2, 2), vec![0.0f64; 3]);
        assert_eq!(pair.byte_size(), 32 + 24);
        assert_eq!(Some(1.0f64).byte_size(), 9);
        assert_eq!((None as Option<f64>).byte_size(), 1);
        assert_eq!("abc".to_string().byte_size(), 3);
    }

    #[test]
    fn panel_buf_roundtrip_and_byte_size() {
        let _pool = pool_lock();
        let src = Mat::from_fn(3, 4, |i, j| (i * 4 + j) as f64);
        let p = PanelBuf::pack(src.as_ref());
        assert_eq!(p.shape(), (3, 4));
        assert_eq!(p.byte_size(), src.byte_size());
        let mut out = Mat::zeros(3, 4);
        p.unpack_into(out.as_mut());
        assert_eq!(out, src);
    }

    #[test]
    fn f32_panels_are_half_the_bytes_of_f64() {
        let _pool = pool_lock();
        // The satellite fix this PR pins down: wire accounting derives
        // from the element size instead of hardcoding `f64`.
        let src64: Mat = Mat::from_fn(6, 7, |i, j| (i * 7 + j) as f64);
        let src32 = src64.convert::<f32>();
        let p64 = PanelBuf::pack(src64.as_ref());
        let p32 = PanelBuf::pack(src32.as_ref());
        assert_eq!(p64.elem_size(), 8);
        assert_eq!(p32.elem_size(), 4);
        assert_eq!(p64.byte_size(), 6 * 7 * 8);
        assert_eq!(p32.byte_size(), p64.byte_size() / 2);
        // Round-trip at f32 stays exact for these integer-valued entries.
        let out: Mat<f32> = p32.unpack();
        assert_eq!(out, src32);
        p64.unpack_into(Mat::<f64>::zeros(6, 7).as_mut());
    }

    #[test]
    fn pool_does_not_mix_precisions() {
        let _pool = pool_lock();
        panel_pool_drain();
        // Release an f64 buffer of ample capacity into the pool...
        let big: Mat = Mat::from_fn(8, 8, |i, j| (i + j) as f64);
        PanelBuf::pack(big.as_ref()).unpack_into(Mat::<f64>::zeros(8, 8).as_mut());
        // ...then pack a small f32 panel: it must NOT reuse the f64
        // allocation even though the capacity would fit.
        let small = Mat::<f32>::from_fn(2, 2, |i, j| (i * 2 + j) as f32);
        let p = PanelBuf::pack(small.as_ref());
        assert_eq!(p.elem_size(), 4);
        let out: Mat<f32> = p.unpack();
        assert_eq!(out, small);
        // Pool now holds one buffer of each width.
        let pool = panel_pool().lock().unwrap();
        let sizes: Vec<usize> = pool.iter().map(|b| b.elem_size()).collect();
        assert!(sizes.contains(&8) && sizes.contains(&4), "sizes: {sizes:?}");
    }

    #[test]
    #[should_panic(expected = "unpack_into precision mismatch")]
    fn unpack_precision_mismatch_panics() {
        let _pool = pool_lock();
        let p = PanelBuf::pack(Mat::<f32>::zeros(2, 2).as_ref());
        p.unpack_into(Mat::<f64>::zeros(2, 2).as_mut());
    }

    #[test]
    fn panel_buf_strided_pack_and_unpack() {
        let _pool = pool_lock();
        let big = Mat::from_fn(6, 6, |i, j| (10 * i + j) as f64);
        let p = PanelBuf::pack(big.submatrix(1, 2, 3, 2));
        let mut dst = Mat::filled(5, 4, -1.0);
        p.unpack_into(dst.submatrix_mut(1, 1, 3, 2));
        assert_eq!(dst.block(1, 1, 3, 2), big.block(1, 2, 3, 2));
        assert_eq!(dst[(0, 0)], -1.0, "unpack wrote outside the window");
    }

    #[test]
    fn panel_buf_pool_recycles() {
        let _pool = pool_lock();
        panel_pool_drain();
        let src = Mat::from_fn(4, 4, |i, j| (i + j) as f64);
        let mut out: Mat = Mat::zeros(4, 4);
        PanelBuf::pack(src.as_ref()).unpack_into(out.as_mut());
        // Buffer returned to the pool; the next pack of a fitting shape
        // must recycle it rather than allocate. (`pool_lock` keeps the
        // other packing tests in this binary off the pool meanwhile.)
        assert!(!panel_pool().lock().unwrap().is_empty());
        PanelBuf::pack(src.submatrix(0, 0, 2, 2)).unpack_into(out.submatrix_mut(0, 0, 2, 2));
        assert!(panel_pool_drain() >= 1, "pool should hold the buffer");
    }

    #[test]
    #[should_panic(expected = "unpack_into shape mismatch")]
    fn panel_buf_shape_mismatch_panics() {
        let _pool = pool_lock();
        let p = PanelBuf::pack(Mat::<f64>::zeros(2, 3).as_ref());
        let mut out: Mat = Mat::zeros(3, 2);
        p.unpack_into(out.as_mut());
    }
}
