//! Intra-rank thread budget for the dense kernels.
//!
//! The SPMD runtime models `P` ranks as OS threads; each rank may in turn
//! be granted `threads_per_rank` intra-rank threads for its dense kernels
//! (packed GEMM macro-loops, multi-RHS triangular panel solves). The
//! budget is **thread-local**: `bt_mpsim::run_spmd` stamps each rank
//! thread with its model's `threads_per_rank`, so concurrently simulated
//! ranks cannot observe each other's budgets.
//!
//! Outside an SPMD run (plain library use, benches), the budget defaults
//! to the `BT_DENSE_THREADS` environment variable, or 1 when unset — the
//! kernels never go parallel unless asked.
//!
//! Parallel kernels in this crate are written so the floating-point
//! summation order per output element is independent of the budget:
//! results are bitwise identical for any thread count (see DESIGN.md,
//! "Threading model"). Their worker threads run the spawning thread's
//! [`crate::simd::active`] ISA, so a scoped [`crate::simd::with_isa`]
//! pin covers the whole parallel kernel.

use crate::simd;
use crate::view::MatMut;
use std::cell::Cell;
use std::sync::OnceLock;

thread_local! {
    static BUDGET: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Process-wide default: `BT_DENSE_THREADS` (clamped to >= 1), else 1.
pub fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::env::var("BT_DENSE_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or(1)
    })
}

/// Threads the current thread's dense kernels may use (>= 1).
pub fn current_threads() -> usize {
    BUDGET.with(Cell::get).unwrap_or_else(default_threads)
}

/// Sets the calling thread's budget. `0` clears it back to the
/// process-wide default. Returns the previous explicit budget, if any.
pub fn set_thread_budget(threads: usize) -> Option<usize> {
    BUDGET.with(|b| b.replace(if threads == 0 { None } else { Some(threads) }))
}

/// Runs `f` with the calling thread's budget set to `threads`, restoring
/// the previous budget afterwards (also on unwind via a drop guard).
pub fn with_thread_budget<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            BUDGET.with(|b| b.set(self.0));
        }
    }
    let _restore = Restore(set_thread_budget(threads));
    f()
}

/// A [`rayon::Scope`] whose tasks run the spawning thread's ISA: the one
/// way the dense kernels start worker threads.
pub(crate) struct PinnedScope<'a, 'scope, 'env: 'scope> {
    scope: &'a rayon::Scope<'scope, 'env>,
    isa: simd::Isa,
}

impl<'scope> PinnedScope<'_, 'scope, '_> {
    /// Spawns `f` on the pool, re-pinned to the ISA the scope captured.
    pub(crate) fn spawn(&self, f: impl FnOnce() + Send + 'scope) {
        let isa = self.isa;
        self.scope.spawn(move |_| simd::scoped(isa, f));
    }
}

/// [`rayon::scope`] for the dense kernels: captures the calling thread's
/// [`simd::active`] ISA once, and every task spawned through the
/// [`PinnedScope`] runs under it, so a scoped [`simd::with_isa`] pin
/// covers the whole parallel kernel.
pub(crate) fn pinned_scope<'env, R: Send>(
    op: impl for<'a, 'scope> FnOnce(&PinnedScope<'a, 'scope, 'env>) -> R + Send,
) -> R {
    let isa = simd::active();
    rayon::scope(|scope| op(&PinnedScope { scope, isa }))
}

/// Minimum total flops before a panel operation is worth spreading over
/// threads; below this, spawn overhead dominates.
const PANEL_PAR_MIN_FLOPS: usize = 50_000;

/// Applies `f` to every column of the column-major panel `b`, splitting
/// the columns across the calling thread's budget when the panel is
/// multi-column and `flops_per_col * cols` clears the spawn-overhead
/// threshold. Columns are fully independent, so the result is identical
/// (bitwise) to the sequential sweep for any thread count.
pub(crate) fn for_each_column_parallel(
    mut b: MatMut<'_>,
    flops_per_col: usize,
    f: impl Fn(&mut [f64]) + Sync,
) {
    let n = b.rows();
    let r = b.cols();
    if n == 0 || r == 0 {
        return;
    }
    let t = current_threads().min(r);
    // The chunked parallel split needs back-to-back columns; strided
    // views take the sequential sweep (columns are independent either
    // way, so results are identical).
    if t > 1 && b.is_contiguous() && flops_per_col.saturating_mul(r) >= PANEL_PAR_MIN_FLOPS {
        let cols_per = r.div_ceil(t);
        let f = &f;
        pinned_scope(|s| {
            for chunk in b.data[..n * r].chunks_mut(cols_per * n) {
                s.spawn(move || {
                    for x in chunk.chunks_exact_mut(n) {
                        f(x);
                    }
                });
            }
        });
    } else {
        for j in 0..r {
            f(b.col_mut(j));
        }
    }
}

/// Applies `f` to contiguous multi-column *blocks* of the panel, one
/// block per thread: `f` receives `(block, ncols)` where `block` is
/// `ncols` back-to-back columns of `b.rows()` elements each. Requires a
/// contiguous view (callers check [`MatMut::is_contiguous`]). As with
/// [`for_each_column_parallel`], `f`'s per-element arithmetic must not
/// depend on the block width, so results stay bitwise identical for any
/// thread count.
pub(crate) fn for_each_column_block_parallel(
    b: MatMut<'_>,
    flops_per_col: usize,
    f: impl Fn(&mut [f64], usize) + Sync,
) {
    let n = b.rows();
    let r = b.cols();
    if n == 0 || r == 0 {
        return;
    }
    debug_assert!(b.is_contiguous(), "block split needs packed columns");
    let data = &mut b.data[..n * r];
    let t = current_threads().min(r);
    if t > 1 && flops_per_col.saturating_mul(r) >= PANEL_PAR_MIN_FLOPS {
        let cols_per = r.div_ceil(t);
        let f = &f;
        pinned_scope(|s| {
            for chunk in data.chunks_mut(cols_per * n) {
                s.spawn(move || f(chunk, chunk.len() / n));
            }
        });
    } else {
        f(data, r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_at_least_one() {
        assert!(current_threads() >= 1);
    }

    #[test]
    fn with_budget_scopes_and_restores() {
        let before = current_threads();
        let inside = with_thread_budget(7, current_threads);
        assert_eq!(inside, 7);
        assert_eq!(current_threads(), before);
        // Nesting restores the outer override, not the process default.
        with_thread_budget(3, || {
            with_thread_budget(5, || assert_eq!(current_threads(), 5));
            assert_eq!(current_threads(), 3);
        });
    }

    #[test]
    fn budget_is_thread_local() {
        with_thread_budget(9, || {
            let other = std::thread::spawn(current_threads).join().unwrap();
            assert_eq!(other, default_threads(), "new threads see the default");
            assert_eq!(current_threads(), 9);
        });
    }

    #[test]
    fn panel_split_covers_every_column() {
        use crate::mat::Mat;
        let mut m = Mat::from_fn(100, 7, |i, j| (i * 7 + j) as f64);
        let expect = m.scaled(2.0);
        with_thread_budget(3, || {
            // Huge per-column cost forces the parallel path.
            for_each_column_parallel(m.as_mut(), 1_000_000, |col| {
                for v in col.iter_mut() {
                    *v *= 2.0;
                }
            });
        });
        assert_eq!(m, expect);
    }

    #[test]
    fn panel_split_strided_view_falls_back_sequential() {
        use crate::mat::Mat;
        let mut m = Mat::from_fn(100, 9, |i, j| (i * 9 + j) as f64);
        let mut expect = m.clone();
        for j in 2..2 + 5 {
            for i in 1..1 + 80 {
                expect[(i, j)] *= 3.0;
            }
        }
        with_thread_budget(3, || {
            for_each_column_parallel(m.submatrix_mut(1, 2, 80, 5), 1_000_000, |col| {
                for v in col.iter_mut() {
                    *v *= 3.0;
                }
            });
        });
        assert_eq!(m, expect);
    }

    #[test]
    fn zero_clears_to_default() {
        let prev = set_thread_budget(4);
        assert_eq!(current_threads(), 4);
        set_thread_budget(0);
        assert_eq!(current_threads(), default_threads());
        // Restore whatever the test environment had.
        set_thread_budget(prev.unwrap_or(0));
    }
}
