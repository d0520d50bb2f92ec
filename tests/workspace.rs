//! Replay solves into reused panels, and what a warm replay allocates.
//!
//! A replay owns its few temporaries as plain `Mat`s (DESIGN.md "Memory
//! model"): one diagonal scratch, the two local totals, one receive
//! panel per scan and one per correction window, plus one copy per scan
//! message. So solving into panels that held an earlier solution must
//! be bitwise identical to solving fresh copies (`Mat` equality is
//! element-exact), and a warm replay's heap allocations must not grow
//! with the number of rows. A per-thread counting global allocator, as
//! in `crates/dense/tests/alloc_free.rs`, counts them on each rank
//! thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use block_tridiag_suite::ard::state::{ArdRankFactors, RankSystem, ReplayFactors};
use block_tridiag_suite::blocktri::gen::{rhs_panel, ClusteredToeplitz, Poisson2D};
use block_tridiag_suite::blocktri::BlockRowSource;
use block_tridiag_suite::dense::{gemm, CholFactors, LuFactors, Mat, Trans};
use block_tridiag_suite::mpsim::{run_spmd, CommBackend, CostModel};

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

const ZERO: CostModel = CostModel {
    latency_s: 0.0,
    per_byte_s: 0.0,
    flop_rate: f64::INFINITY,
    threads_per_rank: 1,
};

/// Solving into panels that held an earlier solution is bitwise
/// identical to solving fresh copies of the right-hand side.
fn reused_panels_match_fresh_copies(src: &(impl BlockRowSource + Sync), p: usize, r: usize) {
    let m = src.m();
    let results = run_spmd(p, ZERO, |comm| {
        let sys = RankSystem::from_source(src, p, comm.rank());
        let factors = ArdRankFactors::setup(comm, &sys, true).expect("setup");
        let batch =
            |b: u64| -> Vec<Mat> { (sys.lo..sys.hi).map(|i| rhs_panel(m, r, b, i)).collect() };

        // Reference solutions of fresh copies.
        let (y0, y1) = (batch(0), batch(1));
        let mut x0_ref = y0.clone();
        factors.solve_in_place(comm, &mut x0_ref);
        let mut x1_ref = y1.clone();
        factors.solve_in_place(comm, &mut x1_ref);

        // The same batches solved in one set of panels, each holding the
        // previous batch's solution when the next right-hand side is
        // copied in.
        let mut out: Vec<Mat> = y0.iter().map(|p| Mat::zeros(p.rows(), p.cols())).collect();
        let mut solve_into = |comm: &mut _, y: &[Mat]| {
            for (o, yk) in out.iter_mut().zip(y) {
                o.as_mut().copy_from(yk.as_ref());
            }
            factors.solve_in_place(comm, &mut out);
            out.clone()
        };
        for b in 2..4 {
            solve_into(comm, &batch(b));
        }
        let x0_eq = solve_into(comm, &y0) == x0_ref;
        let x1_eq = solve_into(comm, &y1) == x1_ref;
        (x0_eq, x1_eq)
    });
    for (rank, (x0_eq, x1_eq)) in results.results.into_iter().enumerate() {
        assert!(
            x0_eq,
            "rank {rank}: replay into reused panels differs from a fresh copy's (batch 0)"
        );
        assert!(
            x1_eq,
            "rank {rank}: replay into reused panels differs from a fresh copy's (batch 1)"
        );
    }
}

#[test]
fn reused_panels_solve_bitwise_general_system() {
    // General (unsymmetric) system: the rank factors LU-factor every
    // block diagonal.
    reused_panels_match_fresh_copies(&ClusteredToeplitz::standard(48, 5, 2), 4, 3);
}

#[test]
fn reused_panels_solve_bitwise_spd_system() {
    // SPD (Poisson) system — the class a Cholesky direct solver handles.
    reused_panels_match_fresh_copies(&Poisson2D::new(32, 4), 4, 2);
}

#[test]
fn reused_panels_solve_bitwise_single_rank_and_wide_batch() {
    // Degenerate world (no scan rounds at P=1) and a wide batch.
    reused_panels_match_fresh_copies(&ClusteredToeplitz::standard(16, 4, 1), 1, 8);
    reused_panels_match_fresh_copies(&ClusteredToeplitz::standard(64, 3, 4), 8, 16);
}

/// Allocations a warm replay may differ by between two solves of the
/// same `P`, `M` and `R`: a message that arrives before its receive is
/// posted waits in a per-source queue, which may grow on either run.
const TRANSPORT_SLACK: u64 = 4;

/// Per-rank heap allocations of one warm `solve_in_place`, the largest
/// over a few solves, for an `N = p * rows_per_rank` general system.
fn warm_replay_allocations(p: usize, rows_per_rank: usize, m: usize, r: usize) -> Vec<u64> {
    let src = ClusteredToeplitz::standard(p * rows_per_rank, m, 7);
    let out = run_spmd(p, ZERO, |comm| {
        let sys = RankSystem::from_source(&src, p, comm.rank());
        let factors = ArdRankFactors::setup(comm, &sys, true).expect("setup");
        let y: Vec<Mat> = (sys.lo..sys.hi).map(|i| rhs_panel(m, r, 0, i)).collect();
        let mut x = y.clone();
        let mut most = 0;
        for warm in [false, false, true, true, true] {
            x.clone_from_slice(&y);
            let n = allocations_in(|| factors.solve_in_place(comm, &mut x));
            if warm {
                most = most.max(n);
            }
        }
        most
    });
    out.results
}

#[test]
fn warm_replay_allocations_do_not_grow_with_rows() {
    // A replay's temporaries are per solve, not per row: 16x the rows
    // must not add allocations on any rank (a per-row panel in the
    // diagonal step or a correction would add ~240 here).
    let (p, m, r) = (4, 4, 3);
    let short = warm_replay_allocations(p, 16, m, r);
    let long = warm_replay_allocations(p, 256, m, r);
    for (rank, (&a, &b)) in short.iter().zip(&long).enumerate() {
        assert!(a > 0, "rank {rank}: the counting allocator saw nothing");
        assert!(
            a.max(b) <= a.min(b) + TRANSPORT_SLACK,
            "rank {rank}: a warm replay allocates {a} times at N/P = 16 \
             but {b} times at N/P = 256"
        );
    }
}

/// The dense solver layer underneath: `solve_into` a reused panel is
/// bitwise identical to the allocating `solve`, for both LU and
/// Cholesky factorizations, and a warm loop of them never touches the
/// allocator.
#[test]
fn dense_lu_and_cholesky_solve_into_bitwise_and_allocation_free() {
    let m = 12;
    let r = 5;
    let a = Mat::from_fn(m, m, |i, j| {
        let v = ((i * 31 + j * 17) as f64 * 0.37).sin();
        if i == j {
            v + 3.0 * m as f64
        } else {
            v
        }
    });
    // SPD version for Cholesky: A A^T + m I is symmetric positive definite.
    let mut spd = Mat::zeros(m, m);
    gemm(1.0, &a, Trans::No, &a, Trans::Yes, 0.0, &mut spd);
    for k in 0..m {
        let v = spd.get(k, k);
        spd.set(k, k, v + m as f64);
    }
    let b = Mat::from_fn(m, r, |i, j| ((i * 7 + j * 13) as f64 * 0.23).cos());

    let lu = LuFactors::factor(&a).expect("lu");
    let chol = CholFactors::factor(&spd).expect("cholesky");
    let x_lu_ref = lu.solve(&b);
    let x_ch_ref = chol.solve(&b);

    let mut scratch = Mat::zeros(m, r);
    // Warm-up: the first solves may size per-thread kernel scratch.
    lu.solve_into(&b, &mut scratch);
    chol.solve_into(&b, &mut scratch);
    let mut lu_eq = true;
    let mut ch_eq = true;
    let allocs = allocations_in(|| {
        for _ in 0..10 {
            lu.solve_into(&b, &mut scratch);
            lu_eq &= scratch == x_lu_ref;
            chol.solve_into(&b, &mut scratch);
            ch_eq &= scratch == x_ch_ref;
        }
    });
    assert!(lu_eq, "LU solve_into must match solve bitwise");
    assert!(ch_eq, "Cholesky solve_into must match solve bitwise");
    assert_eq!(allocs, 0, "warm dense solve loop must not allocate");
}
