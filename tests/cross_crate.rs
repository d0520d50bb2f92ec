//! Workspace-level integration tests: every solver in the suite against
//! every generator, cross-checked against the dense LU reference.

use block_tridiag_suite::ard::driver::{
    ard_solve_cfg, ard_solve_cfg_on, ard_solve_dist, rd_solve_dist, DriverConfig,
};
use block_tridiag_suite::ard::BoundaryMode;
use block_tridiag_suite::blocktri::cyclic_reduction::cyclic_reduction_solve;
use block_tridiag_suite::blocktri::gen::{
    materialize, random_rhs, BlockToeplitz, ClusteredToeplitz, ConvectionDiffusion, Poisson2D,
    RandomDominant,
};
use block_tridiag_suite::blocktri::{thomas_solve, BlockRowSource, BlockVec};
use block_tridiag_suite::dense::{solve as dense_solve, Mat};
use block_tridiag_suite::mpsim::{CostModel, SimBackend};

const ZERO: CostModel = CostModel {
    latency_s: 0.0,
    per_byte_s: 0.0,
    flop_rate: f64::INFINITY,
    threads_per_rank: 1,
};

/// All solvers on one system, all answers must agree with the dense LU
/// solution of the expanded matrix.
fn all_solvers_agree_with_dense(src: &(impl BlockRowSource + Sync), p: usize, r: usize, tol: f64) {
    let t = materialize(src);
    let y = random_rhs(src.n(), src.m(), r, 77);
    let x_dense = {
        let xd = dense_solve(&t.to_dense(), &y.to_dense()).expect("dense solve");
        BlockVec::from_dense(&xd, src.m())
    };

    let x_thomas = thomas_solve(&t, &y).expect("thomas");
    assert!(
        x_thomas.rel_diff(&x_dense) < tol,
        "thomas vs dense: {}",
        x_thomas.rel_diff(&x_dense)
    );

    let x_bcr = cyclic_reduction_solve(&t, &y).expect("bcr");
    assert!(
        x_bcr.rel_diff(&x_dense) < tol,
        "bcr vs dense: {}",
        x_bcr.rel_diff(&x_dense)
    );

    let rd = rd_solve_dist(p, ZERO, src, std::slice::from_ref(&y)).expect("rd");
    assert!(
        rd.x[0].rel_diff(&x_dense) < tol,
        "rd vs dense: {}",
        rd.x[0].rel_diff(&x_dense)
    );

    let ard = ard_solve_dist(p, ZERO, src, std::slice::from_ref(&y)).expect("ard");
    assert!(
        ard.x[0].rel_diff(&x_dense) < tol,
        "ard vs dense: {}",
        ard.x[0].rel_diff(&x_dense)
    );

    let cfg = DriverConfig::new(p)
        .with_model(ZERO)
        .with_boundary(BoundaryMode::Windowed(32));
    let win = ard_solve_cfg(&cfg, src, std::slice::from_ref(&y)).expect("windowed");
    assert!(
        win.x[0].rel_diff(&x_dense) < tol,
        "windowed vs dense: {}",
        win.x[0].rel_diff(&x_dense)
    );
}

#[test]
fn clustered_toeplitz_against_dense() {
    all_solvers_agree_with_dense(&ClusteredToeplitz::standard(24, 4, 1), 4, 3, 1e-10);
}

#[test]
fn poisson_against_dense() {
    all_solvers_agree_with_dense(&Poisson2D::new(20, 4), 4, 2, 1e-7);
}

#[test]
fn convection_diffusion_against_dense() {
    all_solvers_agree_with_dense(&ConvectionDiffusion::new(18, 3, 0.4), 3, 2, 1e-8);
}

#[test]
fn random_dominant_against_dense() {
    all_solvers_agree_with_dense(&RandomDominant::new(14, 3, 1.5, 8), 2, 2, 1e-8);
}

#[test]
fn toeplitz_dominant_against_dense() {
    all_solvers_agree_with_dense(&BlockToeplitz::dominant(16, 4, 4.0, 3), 4, 2, 1e-9);
}

#[test]
fn scalar_blocks_m1() {
    // M = 1 degenerates to an ordinary tridiagonal system.
    all_solvers_agree_with_dense(&ClusteredToeplitz::new(30, 1, 4.0, 0.5, 2), 5, 2, 1e-10);
}

#[test]
fn solution_independent_of_world_size() {
    // The parallel decomposition must not change the answer: compare all
    // world sizes against p = 1 (bitwise equality is not required —
    // different summation orders — but agreement to ~1e-12 is).
    let src = ClusteredToeplitz::standard(60, 5, 4);
    let y = vec![random_rhs(60, 5, 4, 3)];
    let base = ard_solve_dist(1, ZERO, &src, &y).unwrap();
    for p in [2, 3, 4, 5, 6, 10, 60] {
        let out = ard_solve_dist(p, ZERO, &src, &y).unwrap();
        let d = out.x[0].rel_diff(&base.x[0]);
        assert!(d < 1e-12, "p={p}: {d}");
    }
}

#[test]
fn modeled_time_decreases_with_ranks_until_latency_bound() {
    let src = ClusteredToeplitz::standard(256, 8, 6);
    let y = vec![random_rhs(256, 8, 8, 1)];
    let model = CostModel::hpc();
    // A modeled-clock scaling claim: 16 ranks oversubscribe small hosts,
    // so only the modeled clock can show it.
    let cfg2 = DriverConfig::new(2)
        .with_model(model)
        .with_threads_per_rank(1);
    let cfg16 = DriverConfig::new(16)
        .with_model(model)
        .with_threads_per_rank(1);
    let t2 = ard_solve_cfg_on::<SimBackend, _>(&cfg2, &src, &y)
        .unwrap()
        .timings
        .total_modeled();
    let t16 = ard_solve_cfg_on::<SimBackend, _>(&cfg16, &src, &y)
        .unwrap()
        .timings
        .total_modeled();
    assert!(
        t16 < t2,
        "modeled time must shrink 2 -> 16 ranks ({t2} vs {t16})"
    );
}

#[test]
fn counters_scale_with_log_p() {
    // Per-rank scan traffic must grow like log P, not P.
    let src = ClusteredToeplitz::standard(512, 8, 2);
    let y = vec![random_rhs(512, 8, 4, 4)];
    let bytes_per_rank = |p: usize| {
        let out = ard_solve_dist(p, ZERO, &src, &y).unwrap();
        out.stats.max_bytes_sent()
    };
    let b4 = bytes_per_rank(4);
    let b64 = bytes_per_rank(64);
    // log2(64)/log2(4) = 3: allow generous slack but far below 16x.
    assert!(b64 < 5 * b4, "per-rank bytes grew too fast: {b4} -> {b64}");
}

#[test]
fn rhs_panel_distribution_matches_blockvec() {
    // The per-row deterministic RHS generation used by embedded SPMD
    // programs must agree with the assembled BlockVec.
    use block_tridiag_suite::blocktri::gen::rhs_panel;
    let bv = random_rhs(10, 3, 4, 9);
    for i in 0..10 {
        assert_eq!(bv.blocks[i], rhs_panel(3, 4, 9, i));
    }
}

#[test]
fn dense_expansion_roundtrip() {
    let src = ClusteredToeplitz::standard(6, 3, 5);
    let t = materialize(&src);
    let dense = t.to_dense();
    assert_eq!(dense.rows(), 18);
    // Block structure: C_0 sits in the adjacent block column, and
    // everything beyond the tridiagonal band is zero.
    assert!(
        dense.block(0, 3, 3, 3).max_abs() > 0.0,
        "C_0 must be populated"
    );
    assert_eq!(
        dense.block(0, 6, 3, 3).max_abs(),
        0.0,
        "outside band must be zero"
    );
    assert_eq!(
        dense.block(9, 0, 3, 3).max_abs(),
        0.0,
        "outside band must be zero"
    );
}

#[test]
fn stats_balanced_across_all_drivers() {
    let src = ClusteredToeplitz::standard(32, 3, 7);
    let y = vec![random_rhs(32, 3, 2, 2); 2];
    for p in [1, 3, 8] {
        let rd = rd_solve_dist(p, ZERO, &src, &y).unwrap();
        let ard = ard_solve_dist(p, ZERO, &src, &y).unwrap();
        assert!(rd.stats.is_balanced(), "p={p} rd");
        assert!(ard.stats.is_balanced(), "p={p} ard");
    }
}

#[test]
fn wide_panel_solve_matches_column_by_column() {
    let src = ClusteredToeplitz::standard(40, 4, 8);
    let y = random_rhs(40, 4, 6, 5);
    let panel = ard_solve_dist(4, ZERO, &src, std::slice::from_ref(&y)).unwrap();
    for j in 0..6 {
        let yj = y.column(j);
        let xj = ard_solve_dist(4, ZERO, &src, std::slice::from_ref(&yj)).unwrap();
        let d = panel.x[0].column(j).rel_diff(&xj.x[0]);
        assert!(d < 1e-13, "column {j}: {d}");
    }
}

#[test]
fn umbrella_reexports_work() {
    // The umbrella crate exposes all members under stable names.
    let _m: Mat = block_tridiag_suite::dense::Mat::identity(2);
    let _c = block_tridiag_suite::mpsim::CostModel::default();
    let _g = block_tridiag_suite::blocktri::gen::Poisson2D::new(2, 2);
    let _b = block_tridiag_suite::ard::BoundaryMode::ExactScan;
}
