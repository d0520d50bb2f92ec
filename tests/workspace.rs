//! Allocation-regression tests for the workspace-pooled hot paths.
//!
//! The tentpole invariant of the memory model (DESIGN.md "Memory
//! model"): once warm, a replay solve performs **zero** heap
//! allocations. The rank workspace counts every pool miss in
//! `WorkspaceStats::checkouts`, so the invariant is pinned as a
//! counter delta — any new allocation on the warm path fails these
//! tests. The refactor from owned temporaries to pooled buffers must
//! also be *exact*: warm in-place solves into reused panels are compared
//! bitwise (`Mat` equality is element-exact) against solves of fresh
//! copies, which reproduce the pre-workspace call pattern.

use block_tridiag_suite::ard::state::{ArdRankFactors, RankSystem, ReplayFactors};
use block_tridiag_suite::blocktri::gen::{rhs_panel, ClusteredToeplitz, Poisson2D};
use block_tridiag_suite::blocktri::BlockRowSource;
use block_tridiag_suite::dense::{CholFactors, LuFactors, Mat, Workspace};
use block_tridiag_suite::mpsim::{run_spmd, CommBackend, CostModel};

const ZERO: CostModel = CostModel {
    latency_s: 0.0,
    per_byte_s: 0.0,
    flop_rate: f64::INFINITY,
    threads_per_rank: 1,
};

/// Core regression: after one warm-up batch, further replay solves
/// check nothing new out of the rank workspace (zero heap allocations
/// from pooled temporaries), and solving into reused panels is bitwise
/// identical to solving fresh copies.
fn warm_replay_zero_checkouts(src: &(impl BlockRowSource + Sync), p: usize, r: usize) {
    let n = src.n();
    let m = src.m();
    let results = run_spmd(p, ZERO, |comm| {
        let sys = RankSystem::from_source(src, p, comm.rank());
        let factors = ArdRankFactors::setup(comm, &sys, true).expect("setup");

        let batch =
            |b: u64| -> Vec<Mat> { (sys.lo..sys.hi).map(|i| rhs_panel(m, r, b, i)).collect() };

        // Reference solutions of fresh copies (the pre-workspace call
        // pattern: fresh output panels every call).
        let y0 = batch(0);
        let y1 = batch(1);
        let mut x0_ref = y0.clone();
        factors.solve_in_place(comm, &mut x0_ref);
        let mut x1_ref = y1.clone();
        factors.solve_in_place(comm, &mut x1_ref);

        // Warm-up done (two batches through every branch of the path).
        let warm = factors.workspace_stats();
        let mut out: Vec<Mat> = y0.iter().map(|p| Mat::zeros(p.rows(), p.cols())).collect();
        let solve_into = |comm: &mut _, y: &[Mat], out: &mut [Mat]| {
            for (o, yk) in out.iter_mut().zip(y) {
                o.as_mut().copy_from(yk.as_ref());
            }
            factors.solve_in_place(comm, out);
        };

        // Several further batches, reusing `out`: zero new checkouts.
        solve_into(comm, &y0, &mut out);
        let x0_eq = out == x0_ref;
        solve_into(comm, &y1, &mut out);
        let x1_eq = out == x1_ref;
        for b in 2..5 {
            solve_into(comm, &batch(b), &mut out);
        }
        let after = factors.workspace_stats();
        (warm, after, x0_eq, x1_eq)
    });

    for (rank, (warm, after, x0_eq, x1_eq)) in results.results.into_iter().enumerate() {
        assert_eq!(
            after.checkouts,
            warm.checkouts,
            "rank {rank}: warm replay allocated ({} new checkouts) on N={n} M={m} R={r}",
            after.checkouts - warm.checkouts
        );
        assert!(
            after.reuses > warm.reuses,
            "rank {rank}: warm replay did not exercise the pool"
        );
        assert!(
            x0_eq,
            "rank {rank}: in-place replay differs from a fresh copy's (batch 0)"
        );
        assert!(
            x1_eq,
            "rank {rank}: in-place replay differs from a fresh copy's (batch 1)"
        );
    }
}

#[test]
fn warm_replay_is_allocation_free_general_system() {
    // General (unsymmetric) system: the rank factors LU-factor every
    // block diagonal.
    warm_replay_zero_checkouts(&ClusteredToeplitz::standard(48, 5, 2), 4, 3);
}

#[test]
fn warm_replay_is_allocation_free_spd_system() {
    // SPD (Poisson) system — the class a Cholesky direct solver handles;
    // the replay path must be allocation-free regardless of symmetry.
    warm_replay_zero_checkouts(&Poisson2D::new(32, 4), 4, 2);
}

#[test]
fn warm_replay_is_allocation_free_single_rank_and_wide_batch() {
    // Degenerate world (no scan rounds at P=1) and a wide batch.
    warm_replay_zero_checkouts(&ClusteredToeplitz::standard(16, 4, 1), 1, 8);
    warm_replay_zero_checkouts(&ClusteredToeplitz::standard(64, 3, 4), 8, 16);
}

/// The dense solver layer underneath: `solve_into` on workspace-pooled
/// scratch is bitwise identical to the allocating `solve`, for both LU
/// and Cholesky factorizations, and a warm take/put loop never touches
/// the allocator.
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
    block_tridiag_suite::dense::gemm(
        1.0,
        &a,
        block_tridiag_suite::dense::Trans::No,
        &a,
        block_tridiag_suite::dense::Trans::Yes,
        0.0,
        &mut spd,
    );
    for k in 0..m {
        let v = spd.get(k, k);
        spd.set(k, k, v + m as f64);
    }
    let b = Mat::from_fn(m, r, |i, j| ((i * 7 + j * 13) as f64 * 0.23).cos());

    let lu = LuFactors::factor(&a).expect("lu");
    let chol = CholFactors::factor(&spd).expect("cholesky");
    let x_lu_ref = lu.solve(&b);
    let x_ch_ref = chol.solve(&b);

    let mut ws = Workspace::new();
    // Warm-up.
    let scratch = ws.take(m, r);
    ws.put(scratch);
    let warm = ws.stats();
    for _ in 0..10 {
        let mut scratch = ws.take(m, r);
        lu.solve_into(&b, &mut scratch);
        assert_eq!(scratch, x_lu_ref, "LU solve_into must match solve bitwise");
        chol.solve_into(&b, &mut scratch);
        assert_eq!(
            scratch, x_ch_ref,
            "Cholesky solve_into must match solve bitwise"
        );
        ws.put(scratch);
    }
    assert_eq!(
        ws.stats().checkouts,
        warm.checkouts,
        "warm dense solve loop must not allocate"
    );
    assert_eq!(ws.stats().reuses, warm.reuses + 10);
}
