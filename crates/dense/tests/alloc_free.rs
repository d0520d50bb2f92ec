//! Pins the "allocation-free after warm-up" contract of the dense hot
//! paths with a counting global allocator.
//!
//! Replay runs three `M x M · M x R` GEMMs and one `M x R` LU panel
//! solve per block row; once a thread has warmed its kernel scratch,
//! none of them may touch the heap. The counter is
//! per thread, so tests running concurrently in this binary cannot
//! charge each other's allocations.

use bt_dense::{gemm, gemm_packed, LuFactors, Mat, Trans};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Heap allocations (including reallocations) made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call forwards to `System` unchanged; the counter is a
// const-initialized, destructor-free thread local, so touching it can
// neither allocate nor fail.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations `f` makes on the calling thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

fn seq_mat(rows: usize, cols: usize, seed: f64) -> Mat {
    Mat::from_fn(rows, cols, |i, j| {
        ((i * cols + j) as f64 * 0.37 + seed).sin()
    })
}

/// Diagonally dominant, so the LU factorization is well conditioned.
fn dominant(n: usize) -> Mat {
    Mat::from_fn(n, n, |i, j| {
        let v = ((i * n + j) as f64 * 0.71).sin();
        if i == j {
            v + 2.0 * n as f64
        } else {
            v
        }
    })
}

/// Warm `gemm` at replay shapes: `M = 16, R = 64` (small-block panel
/// kernel) and `M = 5, R = 64` (packed kernel on SIMD hosts, AXPY on the
/// scalar leg), plus `gemm_packed` itself at the second shape.
#[test]
fn warm_gemm_at_replay_shapes_is_allocation_free() {
    for m in [16, 5] {
        let a = seq_mat(m, m, 0.3);
        let b = seq_mat(m, 64, 0.7);
        let mut c = seq_mat(m, 64, 0.1);
        let mut run = || {
            gemm(1.0, &a, Trans::No, &b, Trans::No, 1.0, &mut c);
            gemm_packed(-1.0, &a, &b, &mut c);
        };
        run();
        let n = allocations_in(|| {
            for _ in 0..5 {
                run();
            }
        });
        assert_eq!(n, 0, "warm gemm at M={m}, R=64 allocated {n} times");
    }
}

/// Warm `solve_in_place` on a contiguous `16 x 64` panel (the
/// row-oriented sweep).
#[test]
fn warm_wide_panel_solve_is_allocation_free() {
    let lu = LuFactors::factor(&dominant(16)).expect("factor");
    let b = seq_mat(16, 64, 0.5);
    let mut x = b.clone();
    lu.solve_in_place(&mut x);
    let n = allocations_in(|| {
        for _ in 0..5 {
            x.as_mut().copy_from(b.as_ref());
            lu.solve_in_place(&mut x);
        }
    });
    assert_eq!(n, 0, "warm 16x64 panel solve allocated {n} times");
}

#[test]
fn counter_sees_allocations() {
    // Guards the harness itself: a real allocation must register.
    let n = allocations_in(|| drop(std::hint::black_box(vec![0u8; 64])));
    assert!(n >= 1, "counting allocator missed an allocation");
}
