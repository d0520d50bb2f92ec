//! The [`Payload`] trait: what can travel through the runtime.
//!
//! A payload is any `Send + 'static` value that can report its wire size.
//! Sizes feed the communication-volume counters (Figure 6) and the
//! virtual-time model; they approximate what an MPI implementation would
//! put on the wire (raw element bytes, ignoring header overhead — headers
//! are modeled by the per-message `alpha` term instead).

use bt_dense::{Mat, MatMut, MatRef};
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
/// (Sends cross rank threads, so unlike [`bt_dense::Workspace`] this
/// pool must be shared; a `Mutex` is fine — packing happens at most once
/// per message, never in an inner loop.)
static PANEL_POOL: OnceLock<Mutex<Vec<Vec<f64>>>> = OnceLock::new();

fn panel_pool() -> &'static Mutex<Vec<Vec<f64>>> {
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

/// A dense `f64` panel on the wire, packed from a [`MatRef`] and
/// unpacked into caller-provided [`MatMut`] scratch — the allocation-free
/// counterpart of sending an owned [`Mat`].
///
/// The backing buffer is checked out of a process-wide pool on `pack`
/// and returned on `unpack_into`, so a warm send/recv round-trip
/// performs no heap allocation. Wire size matches `Mat`'s
/// (`rows * cols * 8` bytes), keeping communication-volume accounting
/// identical whichever payload a path uses.
#[derive(Debug, Clone, PartialEq)]
pub struct PanelBuf {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl PanelBuf {
    /// Packs a (possibly strided) view into a pooled buffer.
    pub fn pack(src: MatRef<'_>) -> Self {
        let (rows, cols) = src.shape();
        let need = rows * cols;
        let mut data = {
            let mut pool = panel_pool().lock().unwrap();
            // Smallest adequate pooled buffer, else a fresh allocation.
            let mut best: Option<usize> = None;
            for (i, buf) in pool.iter().enumerate() {
                if buf.capacity() >= need
                    && best.is_none_or(|b| buf.capacity() < pool[b].capacity())
                {
                    best = Some(i);
                }
            }
            match best {
                Some(i) => {
                    OBS_POOL_HITS.incr();
                    pool.swap_remove(i)
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
        Self { rows, cols, data }
    }

    /// `(rows, cols)` of the packed panel.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Copies the panel into `out` and releases the backing buffer to
    /// the pool.
    ///
    /// # Panics
    ///
    /// Panics if `out`'s shape differs from the packed panel's.
    pub fn unpack_into(self, mut out: MatMut<'_>) {
        assert_eq!(
            out.shape(),
            (self.rows, self.cols),
            "unpack_into shape mismatch"
        );
        for j in 0..self.cols {
            out.col_mut(j)
                .copy_from_slice(&self.data[j * self.rows..(j + 1) * self.rows]);
        }
        if self.data.capacity() > 0 {
            panel_pool().lock().unwrap().push(self.data);
        }
    }

    /// Copies the panel into a freshly allocated [`Mat`] and releases
    /// the backing buffer to the pool.
    pub fn unpack(self) -> Mat {
        let mut out = Mat::zeros(self.rows, self.cols);
        self.unpack_into(out.as_mut());
        out
    }
}

impl Payload for PanelBuf {
    fn byte_size(&self) -> u64 {
        // Same accounting as `Mat`: switching a path from owned to
        // pooled panels must not change measured comm volume.
        (self.rows * self.cols * std::mem::size_of::<f64>()) as u64
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

scalar_payload!(f64, u64, i64, u32, i32, usize, u8, bool);

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

impl Payload for Mat {
    fn byte_size(&self) -> u64 {
        (self.rows() * self.cols() * std::mem::size_of::<f64>()) as u64
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
        let m = Mat::zeros(3, 5);
        assert_eq!(m.byte_size(), 15 * 8);
    }

    #[test]
    fn composite_sizes_add_up() {
        let pair = (Mat::zeros(2, 2), vec![0.0f64; 3]);
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
        let p = PanelBuf::pack(Mat::zeros(2, 3).as_ref());
        let mut out: Mat = Mat::zeros(3, 2);
        p.unpack_into(out.as_mut());
    }
}
