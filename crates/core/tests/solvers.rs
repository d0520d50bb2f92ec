//! End-to-end tests of the distributed RD and ARD solvers: correctness
//! against the sequential baselines, equivalence of RD and ARD, counters,
//! timings, and the numerical envelope documented in DESIGN.md §7.

use bt_ard::driver::{
    ard_solve_cfg, ard_solve_cfg_on, ard_solve_dist, rd_solve_cfg, rd_solve_dist, DriverConfig,
};
use bt_ard::state::{ArdRankFactors, BoundaryMode, RankSystem, ReplayFactors};
use bt_blocktri::gen::{
    materialize, random_rhs, ClusteredToeplitz, ConvectionDiffusion, Poisson2D, RandomDominant,
};
use bt_blocktri::thomas::{thomas_solve, ThomasFactors};
use bt_blocktri::{BlockRowSource, RowPartition};
use bt_dense::{gemm_flops, Mat};
use bt_mpsim::{run_spmd, CommBackend, CostModel, SimBackend};

const ZERO: CostModel = CostModel {
    latency_s: 0.0,
    per_byte_s: 0.0,
    flop_rate: f64::INFINITY,
    threads_per_rank: 1,
};

/// Solve with both RD and ARD on `p` ranks and check residuals and
/// cross-solver agreement against Thomas.
fn check_solvers<S: BlockRowSource + Sync>(src: &S, p: usize, r: usize, tol: f64) {
    let n = src.n();
    let m = src.m();
    let t = materialize(src);
    let batches: Vec<_> = (0..2).map(|s| random_rhs(n, m, r, 100 + s)).collect();

    let rd = rd_solve_dist(p, ZERO, src, &batches).unwrap();
    let ard = ard_solve_dist(p, ZERO, src, &batches).unwrap();

    for (bi, y) in batches.iter().enumerate() {
        let x_th = thomas_solve(&t, y).unwrap();
        let rd_res = t.rel_residual(&rd.x[bi], y);
        let ard_res = t.rel_residual(&ard.x[bi], y);
        assert!(
            rd_res < tol,
            "RD residual {rd_res} (n={n} m={m} p={p} batch={bi})"
        );
        assert!(
            ard_res < tol,
            "ARD residual {ard_res} (n={n} m={m} p={p} batch={bi})"
        );
        assert!(
            rd.x[bi].rel_diff(&x_th) < tol * 10.0,
            "RD vs Thomas diff {} (n={n} m={m} p={p})",
            rd.x[bi].rel_diff(&x_th)
        );
        assert!(
            ard.x[bi].rel_diff(&rd.x[bi]) < tol,
            "ARD vs RD diff {}",
            ard.x[bi].rel_diff(&rd.x[bi])
        );
    }
    assert!(rd.stats.is_balanced());
    assert!(ard.stats.is_balanced());
}

#[test]
fn clustered_toeplitz_all_world_sizes() {
    let src = ClusteredToeplitz::standard(96, 4, 5);
    for p in [1, 2, 3, 4, 7, 8] {
        check_solvers(&src, p, 3, 1e-9);
    }
}

#[test]
fn clustered_toeplitz_large_n() {
    // The paper's regime: long chains, clustered spectra. The prefix
    // products' conditioning grows only slowly (spread ~ 1 + eps/d per
    // row), so residuals stay small even for N in the thousands.
    let src = ClusteredToeplitz::standard(2048, 4, 11);
    check_solvers(&src, 8, 2, 1e-6);
}

#[test]
fn poisson_within_exact_scan_envelope() {
    // Poisson's transfer products have per-row spectral spread up to
    // ~3.5 (for M = 6), so exact-scan boundary extraction degrades
    // geometrically with N; N = 16 stays accurate (DESIGN.md §7,
    // Table III quantifies the envelope).
    let src = Poisson2D::new(16, 6);
    for p in [1, 3, 4] {
        check_solvers(&src, p, 2, 1e-8);
    }
}

#[test]
fn poisson_large_n_with_windowed_boundary() {
    // The windowed extension recovers boundary diagonals locally; the
    // warm-start error contracts like ~0.39^w per mode for Poisson, so a
    // 64-row window is exact to machine precision at any N.
    let src = Poisson2D::new(512, 6);
    let t = materialize(&src);
    let batches = vec![random_rhs(512, 6, 3, 1)];
    let cfg = DriverConfig::new(8)
        .with_model(ZERO)
        .with_boundary(BoundaryMode::Windowed(64));
    let rd = rd_solve_cfg(&cfg, &src, &batches).unwrap();
    let ard = ard_solve_cfg(&cfg, &src, &batches).unwrap();
    assert!(t.rel_residual(&rd.x[0], &batches[0]) < 1e-10);
    assert!(t.rel_residual(&ard.x[0], &batches[0]) < 1e-10);
    let x_th = thomas_solve(&t, &batches[0]).unwrap();
    assert!(ard.x[0].rel_diff(&x_th) < 1e-10);
}

#[test]
fn windowed_matches_exact_scan_on_clustered() {
    let src = ClusteredToeplitz::standard(128, 4, 3);
    let batches = vec![random_rhs(128, 4, 2, 5)];
    let exact = ard_solve_dist(4, ZERO, &src, &batches).unwrap();
    let cfg = DriverConfig::new(4)
        .with_model(ZERO)
        .with_boundary(BoundaryMode::Windowed(48));
    let windowed = ard_solve_cfg(&cfg, &src, &batches).unwrap();
    assert!(windowed.x[0].rel_diff(&exact.x[0]) < 1e-11);
    // Windowed Phase 1 sends nothing; only the affine scans communicate,
    // so total setup traffic is strictly smaller.
    assert!(windowed.stats.total().bytes_sent < exact.stats.total().bytes_sent);
}

#[test]
fn random_dominant_large_n_with_windowed_boundary() {
    // Outside the exact-scan envelope (N = 256 random dominant), the
    // windowed mode still solves to near machine precision.
    let src = RandomDominant::new(256, 4, 1.5, 13);
    let t = materialize(&src);
    let batches = vec![random_rhs(256, 4, 2, 9)];
    let cfg = DriverConfig::new(8)
        .with_model(ZERO)
        .with_boundary(BoundaryMode::Windowed(64));
    let ard = ard_solve_cfg(&cfg, &src, &batches).unwrap();
    assert!(t.rel_residual(&ard.x[0], &batches[0]) < 1e-10);
}

#[test]
fn random_dominant_within_envelope() {
    let src = RandomDominant::new(16, 4, 1.5, 3);
    for p in [1, 2, 4] {
        check_solvers(&src, p, 2, 1e-6);
    }
}

#[test]
fn convection_diffusion_nonsymmetric() {
    let src = ConvectionDiffusion::new(40, 4, 0.5);
    check_solvers(&src, 4, 2, 1e-6);
}

#[test]
fn single_rhs_and_wide_panels() {
    let src = ClusteredToeplitz::standard(64, 3, 2);
    check_solvers(&src, 4, 1, 1e-10);
    check_solvers(&src, 4, 16, 1e-10);
}

#[test]
fn uneven_partitions() {
    // N not divisible by P: partitions differ by one row.
    let src = ClusteredToeplitz::standard(67, 3, 8);
    for p in [3, 5, 8, 13] {
        check_solvers(&src, p, 2, 1e-9);
    }
}

#[test]
fn minimal_rows_per_rank() {
    // Exactly one row per rank: every local scan is a single pair.
    let src = ClusteredToeplitz::standard(8, 3, 4);
    check_solvers(&src, 8, 2, 1e-10);
}

#[test]
fn ard_matches_rd_bit_for_bit_costs_less() {
    let src = ClusteredToeplitz::standard(128, 6, 6);
    let batches: Vec<_> = (0..4).map(|s| random_rhs(128, 6, 4, s)).collect();
    let rd = rd_solve_dist(8, ZERO, &src, &batches).unwrap();
    let ard = ard_solve_dist(8, ZERO, &src, &batches).unwrap();

    // Identical math => tiny divergence.
    for bi in 0..4 {
        assert!(ard.x[bi].rel_diff(&rd.x[bi]) < 1e-12);
    }
    // Flop counters: RD redoes matrix work per batch; ARD amortizes.
    let rd_flops = rd.stats.total().flops;
    let ard_flops = ard.stats.total().flops;
    assert!(
        (ard_flops as f64) < 0.5 * rd_flops as f64,
        "ARD flops {ard_flops} vs RD {rd_flops}"
    );
    // Byte traffic: same direction.
    let rd_bytes = rd.stats.total().bytes_sent;
    let ard_bytes = ard.stats.total().bytes_sent;
    assert!(
        (ard_bytes as f64) < 0.75 * rd_bytes as f64,
        "ARD bytes {ard_bytes} vs RD {rd_bytes}"
    );
    // ARD pays memory for the stored factors.
    assert!(ard.factor_bytes > 0);
    assert_eq!(rd.factor_bytes, 0);
}

#[test]
fn modeled_time_favors_ard_across_batches() {
    let src = ClusteredToeplitz::standard(256, 8, 1);
    let batches: Vec<_> = (0..8).map(|s| random_rhs(256, 8, 8, s)).collect();
    let model = CostModel::cluster();
    let rd = rd_solve_dist(4, model, &src, &batches).unwrap();
    let ard = ard_solve_dist(4, model, &src, &batches).unwrap();
    let rd_total = rd.timings.total_modeled();
    let ard_total = ard.timings.total_modeled();
    assert!(
        ard_total < rd_total,
        "ARD modeled {ard_total} should beat RD {rd_total} over 8 batches"
    );
    // Per-solve modeled time: ARD solves are much cheaper than RD solves.
    let rd_solve_avg: f64 = rd.timings.solve_modeled.iter().sum::<f64>() / 8.0;
    let ard_solve_avg: f64 = ard.timings.solve_modeled.iter().sum::<f64>() / 8.0;
    assert!(ard_solve_avg * 2.0 < rd_solve_avg);
}

#[test]
fn singular_superdiagonal_surfaces_as_error() {
    use bt_blocktri::{BlockRow, BlockTridiag, BlockVec};
    use bt_dense::Mat;

    // A system whose C_1 is singular: RD cannot form W_1 on ranks > 1.
    struct BadC;
    impl BlockRowSource for BadC {
        fn n(&self) -> usize {
            6
        }
        fn m(&self) -> usize {
            2
        }
        fn row(&self, i: usize) -> BlockRow {
            let z = Mat::zeros(2, 2);
            let b = Mat::from_diag(&[8.0, 8.0]);
            let a = if i == 0 {
                z.clone()
            } else {
                Mat::identity(2).scaled(-1.0)
            };
            let c = if i + 1 == 6 {
                z.clone()
            } else if i == 1 {
                Mat::zeros(2, 2) // singular superdiagonal
            } else {
                Mat::identity(2).scaled(-1.0)
            };
            BlockRow::new(a, b, c)
        }
    }
    // Sanity: the matrix itself is fine (Thomas solves it).
    let t = BlockTridiag::from_source(&BadC);
    let y = BlockVec::from_dense(&Mat::from_fn(12, 1, |i, _| i as f64), 2);
    assert!(thomas_solve(&t, &y).is_ok());

    // RD (which needs C_i^{-1}) reports the failing row instead of
    // deadlocking or panicking.
    let y2 = random_rhs(6, 2, 1, 0);
    let err = rd_solve_dist(3, ZERO, &BadC, &[y2]).unwrap_err();
    assert_eq!(err.row, 1);
}

/// A singular `D_i` detected on rank 1, at LU elimination step 1: every
/// entry point reports the row, step and pivot `LuFactors::factor` gives
/// on that block, not a placeholder from a rank that did not see it.
#[test]
fn singular_diagonal_reports_the_detecting_ranks_pivot() {
    use bt_ard::{ArdSession, ServiceConfig, ServiceError, SolverService};
    use bt_blocktri::BlockRow;
    use bt_dense::LuFactors;

    const BAD: usize = 21; // rank 1 of 4 owns rows 16..32
    struct SingularRow(ClusteredToeplitz);
    impl BlockRowSource for SingularRow {
        fn n(&self) -> usize {
            self.0.n()
        }
        fn m(&self) -> usize {
            self.0.m()
        }
        fn row(&self, i: usize) -> BlockRow {
            let mut row = self.0.row(i);
            if i == BAD {
                // A zero sub-diagonal makes D_i = B_i, and B_i's second
                // pivot is 2^-52, below LU's singularity threshold.
                row.a = Mat::zeros(3, 3);
                row.b = Mat::from_fn(3, 3, |r, c| match (r, c) {
                    (0, 0) | (0, 1) | (1, 0) | (2, 2) => 1.0,
                    (1, 1) => 1.0 + f64::EPSILON,
                    _ => 0.0,
                });
            }
            row
        }
    }
    let src = SingularRow(ClusteredToeplitz::standard(64, 3, 4));
    let expected = LuFactors::factor(&src.row(BAD).b).unwrap_err();
    assert!(expected.step >= 1 && expected.pivot > 0.0, "{expected:?}");
    let p = 4;
    let check = |err: bt_blocktri::FactorError, path: &str| {
        assert_eq!(err.row, BAD, "{path}");
        assert_eq!(err.source, expected, "{path}");
    };

    let y = random_rhs(64, 3, 2, 1);
    check(ard_solve_dist(p, ZERO, &src, &[y]).unwrap_err(), "driver");
    check(
        ArdSession::create(p, ZERO, &src).err().expect("singular"),
        "session",
    );
    let svc = SolverService::start(ServiceConfig::new(p, ZERO));
    match svc.register(&src) {
        Err(ServiceError::Factorization(err)) => check(err, "service"),
        other => panic!("service: expected a factorization error, got {other:?}"),
    }
}

#[test]
fn companion_exscan_minimal_shrink_case() {
    // Pinned from crates/core/tests/proptests.proptest-regressions: the
    // smallest shrink of `companion_exscan_matches_sequential_products`
    // (p = 2, rows_per_rank = 1, m = 1, seed = 0). The shrink exercises
    // the tightest boundary layout: one row per rank, scalar blocks, and
    // rank 1's exclusive product covering exactly one W application.
    use bt_ard::companion::{CompanionProduct, CompanionState, CompanionW};
    use bt_ard::scans::companion_exscan;
    use bt_dense::rel_diff;
    use bt_mpsim::run_spmd;

    let (p, rows_per_rank, m, seed) = (2usize, 1usize, 1usize, 0u64);
    let n = p * rows_per_rank + 1;
    let src = ClusteredToeplitz::standard(n, m, seed);
    let t = materialize(&src);

    // Sequential reference: the rank-1 boundary diagonal is row 0's,
    // extracted from the initial state before any advance.
    let mut state = CompanionState::initial(t.row(0)).unwrap();
    let mut expected = vec![None; p];
    for (q, slot) in expected.iter_mut().enumerate().skip(1) {
        if q * rows_per_rank == 1 {
            *slot = Some(state.extract_diag(&t.row(0).c).unwrap());
        }
    }
    for i in 1..n - 1 {
        let w = CompanionW::from_row(t.row(i)).unwrap();
        state.advance(&w);
        for (q, slot) in expected.iter_mut().enumerate().skip(1) {
            if q * rows_per_rank == i + 1 {
                *slot = Some(state.extract_diag(&t.row(i).c).unwrap());
            }
        }
    }

    let src2 = src.clone();
    let out = run_spmd(p, ZERO, move |comm| {
        let rank = comm.rank();
        let lo = rank * rows_per_rank;
        let hi = lo + rows_per_rank;
        let mut total = CompanionProduct::identity(m);
        for i in lo.max(1)..hi {
            let w = CompanionW::from_row(&src2.row(i)).unwrap();
            total.apply_left(&w);
        }
        let excl = companion_exscan(comm, 0, total);
        excl.map(|g| {
            let mut s = CompanionState::initial(&src2.row(0)).unwrap();
            s.apply_product(&g);
            s.extract_diag(&src2.row(lo - 1).c).unwrap()
        })
    });
    assert!(out.results[0].is_none(), "rank 0 has no exclusive product");
    for (q, (got, want)) in out.results.iter().zip(&expected).enumerate().skip(1) {
        let got = got.as_ref().expect("non-first rank has exclusive");
        let want = want.as_ref().expect("recorded");
        let d = rel_diff(got, want);
        assert!(d < 1e-9, "rank {q}: rel_diff {d}");
    }
}

#[test]
fn deterministic_across_runs() {
    let src = ClusteredToeplitz::standard(64, 4, 9);
    let batches = vec![random_rhs(64, 4, 2, 7)];
    // Solution and counters must be deterministic through the default
    // drivers and through the explicitly chosen modeled clock.
    let a = ard_solve_dist(4, ZERO, &src, &batches).unwrap();
    let b = ard_solve_dist(4, ZERO, &src, &batches).unwrap();
    assert_eq!(a.x[0], b.x[0], "solver must be run-to-run deterministic");
    assert_eq!(a.stats, b.stats, "counters must be deterministic");
    let cfg = DriverConfig::new(4)
        .with_model(ZERO)
        .with_threads_per_rank(1);
    let a = ard_solve_cfg_on::<SimBackend, _>(&cfg, &src, &batches).unwrap();
    let b = ard_solve_cfg_on::<SimBackend, _>(&cfg, &src, &batches).unwrap();
    assert_eq!(a.x[0], b.x[0], "solver must be run-to-run deterministic");
    assert_eq!(a.stats, b.stats, "counters must be deterministic");
}

/// Receive events of a Kogge-Stone exclusive scan at logical index
/// `logical` of `p`: one per doubling distance it reaches back over.
/// Each records one `M x M` trace matrix.
fn scan_receives(logical: usize, p: usize) -> usize {
    (0..usize::BITS)
        .map(|s| 1usize << s)
        .take_while(|&d| d < p)
        .filter(|&d| logical >= d)
        .count()
}

#[test]
fn replay_matches_thomas_and_stores_three_blocks_per_row() {
    let (n, m) = (96, 5);
    let src = ClusteredToeplitz::standard(n, m, 12);
    let t = materialize(&src);
    let thomas = ThomasFactors::factor(&t).unwrap();
    let batches: Vec<_> = (0..3).map(|s| random_rhs(n, m, 3, s)).collect();
    for p in [1, 2, 4, 7] {
        let out = ard_solve_dist(p, ZERO, &src, &batches).unwrap();
        for (b, y) in batches.iter().enumerate() {
            let d = out.x[b].rel_diff(&thomas.solve(y));
            assert!(d < 1e-12, "p={p} batch={b}: {d}");
        }
        // The store is E_i = D_i^{-1}, F_i and G_i per owned row plus the
        // two recorded scan traces — nothing else.
        let part = RowPartition::new(n, p);
        let expect = (0..p)
            .map(|rank| {
                let blocks = 3 * part.range(rank).len()
                    + scan_receives(rank, p)
                    + scan_receives(p - 1 - rank, p);
                (blocks * m * m * std::mem::size_of::<f64>()) as u64
            })
            .max()
            .unwrap();
        assert_eq!(out.factor_bytes, expect, "p={p}");
    }
}

/// The replay is work-efficient: every rank runs exactly three
/// `M x M · M x R` passes over its rows (the forward sweep, the diagonal
/// step and the backward sweep), plus one GEMM and one `M x R` add per
/// row of each correction window it has a boundary for, plus one panel
/// combine per scan receive. A rank that re-ran a recurrence from its
/// scanned boundary value would pay up to two more passes. Clustered
/// spectra contract fast, so both windows stay short.
#[test]
fn replay_is_work_efficient() {
    let (n, m, r) = (256, 8, 4);
    let src = ClusteredToeplitz::standard(n, m, 3);
    let y = random_rhs(n, m, r, 9);
    let gemm = gemm_flops(m, m, r);
    for p in [2, 4] {
        let out = run_spmd(p, ZERO, |comm| {
            let sys = RankSystem::from_source(&src, p, comm.rank());
            let factors = ArdRankFactors::setup(comm, &sys, true).unwrap();
            let mut x: Vec<Mat> = (sys.lo..sys.hi).map(|i| y.blocks[i].clone()).collect();
            let before = comm.stats().flops;
            factors.solve_in_place(comm, &mut x);
            (
                sys.local_len() as u64,
                factors.windows(),
                comm.stats().flops - before,
            )
        });
        for (rank, &(nl, (w_fwd, w_bwd), flops)) in out.results.iter().enumerate() {
            let (first, last) = (rank == 0, rank + 1 == p);
            // No boundary on a side, no influence to correct: F_0 = 0 and
            // G_{N-1} = 0 zero every product.
            assert_eq!(
                first,
                w_fwd == 0,
                "p={p} rank={rank}: forward window {w_fwd}"
            );
            assert_eq!(
                last,
                w_bwd == 0,
                "p={p} rank={rank}: backward window {w_bwd}"
            );
            assert!(
                w_fwd <= 32 && w_bwd <= 32,
                "p={p} rank={rank}: windows ({w_fwd}, {w_bwd})"
            );
            let passes = (3 * nl - 2) * gemm;
            let windows = (w_fwd + w_bwd) as u64 * (gemm + (m * r) as u64);
            let combines = (scan_receives(rank, p) + scan_receives(p - 1 - rank, p)) as u64 * gemm;
            assert_eq!(
                flops,
                passes + windows + combines,
                "p={p} rank={rank}: windows ({w_fwd}, {w_bwd})"
            );
        }
    }
}

/// Right-hand sides whose scale jumps by 1e8 between neighbouring rank
/// blocks. Each term the correction window drops is at most `u` times
/// the *boundary* value, which here can be 1e8 times the rank's own
/// data, so the guarantee is normwise: the normwise residual stays at
/// roundoff whether the window is short (clustered spectra, exact scan)
/// or the whole slice (windowed Poisson, whose products decay too slowly
/// to truncate). The worst blockwise error is printed, not bounded.
#[test]
fn rhs_scale_jumps_across_ranks_keep_normwise_residual_at_roundoff() {
    let (m, r) = (6, 3);
    // Poisson's products need ~80 rows to fall to `u` at M = 6, so its
    // 112 rows keep every rank's window at N/P.
    let cells: [(&str, Box<dyn BlockRowSource + Sync>, BoundaryMode); 2] = [
        (
            "clustered",
            Box::new(ClusteredToeplitz::standard(224, m, 2014)),
            BoundaryMode::ExactScan,
        ),
        (
            "poisson",
            Box::new(Poisson2D::new(112, m)),
            BoundaryMode::Windowed(64),
        ),
    ];
    for (name, src, mode) in cells {
        let n = src.n();
        let t = materialize(&src);
        let thomas = ThomasFactors::factor(&t).unwrap();
        for p in [2, 4, 7] {
            let part = RowPartition::new(n, p);
            let mut y = random_rhs(n, m, r, 77);
            for rank in (0..p).step_by(2) {
                for i in part.range(rank) {
                    y.blocks[i].scale(1e8);
                }
            }
            let cfg = DriverConfig::new(p).with_model(ZERO).with_boundary(mode);
            let out = ard_solve_cfg(&cfg, &src, std::slice::from_ref(&y)).unwrap();
            if name == "poisson" {
                assert_eq!(out.correction_window, n / p, "{name} p={p}");
            } else {
                assert!(out.correction_window < n / p, "{name} p={p}");
            }
            let res = t.rel_residual(&out.x[0], &y);
            assert!(res <= 1e-15, "{name} p={p}: relative residual {res:.2e}");
            let x_ref = thomas.solve(&y);
            let worst_block = (0..n)
                .map(|i| bt_dense::rel_diff(&out.x[0].blocks[i], &x_ref.blocks[i]))
                .fold(0.0, f64::max);
            println!(
                "{name} p={p} window={}: residual {res:.2e}, worst blockwise relative error {worst_block:.2e}",
                out.correction_window
            );
        }
    }
}

/// Table III's machine-precision cells: exact-scan ARD on clustered
/// spectra and windowed-64 ARD on the other generators stay at
/// roundoff, far below the looser tolerances above — so a replay that
/// lost accuracy (say, from badly conditioned stored inverses) fails
/// here. Generators, seed and right-hand side are `table3_accuracy`'s.
#[test]
fn table3_machine_precision_envelope() {
    const SEED: u64 = 2014;
    let (m, p, r) = (6, 8, 4);
    for n in [64, 512] {
        let y = random_rhs(n, m, r, SEED ^ 1);
        let cells: [(&str, Box<dyn BlockRowSource + Sync>, BoundaryMode); 4] = [
            (
                "clustered",
                Box::new(ClusteredToeplitz::standard(n, m, SEED)),
                BoundaryMode::ExactScan,
            ),
            (
                "poisson",
                Box::new(Poisson2D::new(n, m)),
                BoundaryMode::Windowed(64),
            ),
            (
                "convdiff",
                Box::new(ConvectionDiffusion::new(n, m, 0.5)),
                BoundaryMode::Windowed(64),
            ),
            (
                "random",
                Box::new(RandomDominant::new(n, m, 1.5, SEED)),
                BoundaryMode::Windowed(64),
            ),
        ];
        for (name, src, mode) in cells {
            let cfg = DriverConfig::new(p).with_model(ZERO).with_boundary(mode);
            let out = ard_solve_cfg(&cfg, &src, std::slice::from_ref(&y)).unwrap();
            let res = materialize(&src).rel_residual(&out.x[0], &y);
            assert!(res <= 1e-15, "{name} N={n}: relative residual {res:.2e}");
        }
    }
}

#[test]
fn replay_single_row_per_rank() {
    let src = ClusteredToeplitz::standard(6, 4, 2);
    let batches = vec![random_rhs(6, 4, 2, 1)];
    let out = ard_solve_cfg(&DriverConfig::new(6).with_model(ZERO), &src, &batches).unwrap();
    let t = materialize(&src);
    assert!(t.rel_residual(&out.x[0], &batches[0]) < 1e-12);
}

#[test]
fn threads_per_rank_speeds_model_without_changing_answer_or_counters() {
    let (n, m, p, r) = (256, 8, 8, 4);
    let src = ClusteredToeplitz::standard(n, m, 3);
    let batches = vec![random_rhs(n, m, r, 7)];
    let model = CostModel::cluster();
    let cfg1 = DriverConfig::new(p)
        .with_model(model)
        .with_threads_per_rank(1);
    let cfg4 = DriverConfig::new(p)
        .with_model(model)
        .with_threads_per_rank(4);
    // Modeled-time claims read the modeled clock.
    let out1 = ard_solve_cfg_on::<SimBackend, _>(&cfg1, &src, &batches).unwrap();
    let out4 = ard_solve_cfg_on::<SimBackend, _>(&cfg4, &src, &batches).unwrap();
    // Same solution bits and identical exact counters (Table I is
    // thread-count independent)...
    assert_eq!(out1.x[0].to_dense(), out4.x[0].to_dense());
    assert_eq!(out1.stats.total().flops, out4.stats.total().flops);
    assert_eq!(out1.stats.total().bytes_sent, out4.stats.total().bytes_sent);
    // ...but a faster modeled runtime: compute divides by the budget.
    assert!(
        out4.timings.setup_modeled < out1.timings.setup_modeled,
        "4-thread setup {} !< 1-thread {}",
        out4.timings.setup_modeled,
        out1.timings.setup_modeled
    );
    assert!(out4.timings.solve_modeled[0] < out1.timings.solve_modeled[0]);
}

#[test]
fn modeled_times_match_analytic_prediction() {
    // The driver's measured virtual times must track the analytic
    // critical-path model (complexity.rs) within a modest factor: the
    // model ignores barrier rounds, the error-check allreduce and rank
    // imbalance, so allow 40% slack.
    use bt_ard::complexity::{predicted_ard_solve_seconds, predicted_setup_seconds, Config};
    let model = CostModel::cluster();
    for (n, m, p, r) in [(512, 16, 8, 8), (1024, 8, 16, 4), (256, 32, 4, 16)] {
        let src = ClusteredToeplitz::standard(n, m, 5);
        let batches = vec![random_rhs(n, m, r, 1); 2];
        let cfg = DriverConfig::new(p).with_model(model);
        // Modeled clocks vs the analytic model.
        let out = ard_solve_cfg_on::<SimBackend, _>(&cfg, &src, &batches).unwrap();
        let c = Config { n, m, p, r };

        let setup_pred = predicted_setup_seconds(&c, &model);
        let setup_meas = out.timings.setup_modeled;
        let ratio = setup_meas / setup_pred;
        assert!(
            (0.6..1.4).contains(&ratio),
            "setup n={n} m={m} p={p}: measured {setup_meas:.2e} vs predicted {setup_pred:.2e}"
        );

        let solve_pred = predicted_ard_solve_seconds(&c, out.correction_window, &model);
        let solve_meas = out.timings.solve_modeled[1];
        let ratio = solve_meas / solve_pred;
        assert!(
            (0.6..1.6).contains(&ratio),
            "solve n={n} m={m} p={p}: measured {solve_meas:.2e} vs predicted {solve_pred:.2e}"
        );
    }
}
