//! Bitwise pin of the simulator backend: exact modeled clocks (as `f64`
//! bit patterns), FNV hashes of the solution bytes, and the
//! message/byte/flop counters of representative runs, through the
//! `SimBackend` entry points.
//!
//! Modeled clocks and counters depend only on problem shape, so those
//! pins hold on every kernel path. The solution-byte hashes were
//! captured on the AVX2+FMA kernels — fused rounding differs from the
//! scalar/NEON paths — so they are asserted only when that ISA is the
//! active dispatch target.
//!
//! The scalar fallback (`BT_DENSE_SIMD=0`, CI's scalar leg) has solution
//! pins of its own, captured on that path and asserted when it is the
//! active one. NEON has none.
//!
//! The ARD, raw-world replay and Toeplitz solution hashes, solve clocks
//! and flop counts are those of the work-efficient replay: one in-place
//! sweep per direction, then a boundary correction over the window setup
//! derives from the matrix. They were re-taken when it replaced
//! re-running each recurrence from the scanned boundary value. On the
//! same inputs each new solution agrees with the previous replay's to a
//! relative difference of at most 1.5e-16, and with block Thomas
//! (`ThomasFactors`) to at most 2.1e-16, on the AVX2 and scalar paths
//! alike. The ARD pin's setup clock and every message and byte count did
//! not move. The ARD pin's windows span every rank's 8 rows, so it runs
//! the same GEMMs as before plus one panel add per corrected row. The
//! Toeplitz pin's windows are short, so its clock fell, though its setup
//! now also pays the tail powers that size them.
//!
//! The replay's diagonal step is a small-block GEMM over stored
//! inverses `E_i = D_i^{-1}`, and every replay scan round sends one
//! `M x R` panel.

use bt_ard::batch::BatchedSystems;
use bt_ard::driver::{ard_solve_cfg_on, pcr_solve_cfg_on, DriverConfig};
use bt_ard::state::{ArdRankFactors, RankSystem, ReplayFactors};
use bt_ard::toeplitz::ToeplitzRankFactors;
use bt_blocktri::gen::RandomDominant;
use bt_blocktri::gen::{random_rhs, rhs_panel, ClusteredToeplitz};
use bt_blocktri::BlockVec;
use bt_dense::simd::{active, Isa};
use bt_dense::Mat;
use bt_mpsim::{run_spmd, CommBackend, CostModel, SimBackend};

/// True when the kernel dispatch matches the path the solution-byte
/// pins were captured on.
fn pinned_isa() -> bool {
    active() == Isa::Avx2Fma
}

/// True when the kernels run the portable scalar fallback, the path the
/// scalar solution-byte pins were captured on.
fn scalar_isa() -> bool {
    active() == Isa::Scalar
}

fn hash_mat(h: &mut u64, m: &Mat) {
    let mut acc = *h;
    for j in 0..m.cols() {
        for &v in m.col(j) {
            for b in v.to_bits().to_le_bytes() {
                acc ^= u64::from(b);
                acc = acc.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    *h = acc;
}

fn hash_blockvecs(xs: &[BlockVec]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for x in xs {
        for blk in &x.blocks {
            hash_mat(&mut h, blk);
        }
    }
    h
}

/// The full ARD driver path (setup + replay solves) under the cluster
/// model: modeled clocks, solution bytes, and world counters.
#[test]
fn ard_driver_is_bitwise_pinned() {
    let src = ClusteredToeplitz::standard(32, 3, 7);
    let batches: Vec<BlockVec> = (0..2).map(|s| random_rhs(32, 3, 5, 40 + s)).collect();
    let cfg = DriverConfig::new(4)
        .with_model(CostModel::cluster())
        .with_threads_per_rank(1);
    let out = ard_solve_cfg_on::<SimBackend, _>(&cfg, &src, &batches).unwrap();

    let x_hash = hash_blockvecs(&out.x);
    let setup_bits = out.timings.setup_modeled.to_bits();
    let solve_bits: Vec<u64> = out
        .timings
        .solve_modeled
        .iter()
        .map(|s| s.to_bits())
        .collect();
    let total = out.stats.total();

    if pinned_isa() {
        assert_eq!(x_hash, 0x6916_c5df_6325_9ee7, "ARD solution bytes drifted");
    }
    if scalar_isa() {
        assert_eq!(
            x_hash, 0x7c5a_b9bf_42de_4750,
            "scalar ARD solution bytes drifted"
        );
    }
    assert_eq!(
        setup_bits, 0x3f00_8b52_28f8_b9e9,
        "modeled setup clock drifted"
    );
    assert_eq!(
        solve_bits,
        vec![0x3eeb_03f8_993f_92b0, 0x3eeb_03f8_993f_92b0],
        "modeled solve clocks drifted"
    );
    assert_eq!(
        (total.msgs_sent, total.bytes_sent),
        (100, 6960),
        "message/byte counters drifted"
    );
    assert_eq!(total.flops, 50148, "flop counter drifted");
}

/// A 12-column replay on a raw `run_spmd` world: one panel per scan
/// round.
#[test]
fn raw_world_replay_is_bitwise_pinned() {
    let (n, m, p, r) = (16, 3, 4, 12);
    let src = ClusteredToeplitz::standard(n, m, 1);
    let out = run_spmd(p, CostModel::cluster(), |comm| {
        let sys = RankSystem::from_source(&src, p, comm.rank());
        let factors = ArdRankFactors::setup(comm, &sys, true).expect("setup");
        let mut x: Vec<Mat> = (sys.lo..sys.hi).map(|i| rhs_panel(m, r, 3, i)).collect();
        factors.solve_in_place(comm, &mut x);
        x
    });

    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for panels in &out.results {
        for panel in panels {
            hash_mat(&mut h, panel);
        }
    }
    if pinned_isa() {
        assert_eq!(
            h, 0x2569_3b50_5897_dd95,
            "raw-world replay solution bytes drifted"
        );
    }
    if scalar_isa() {
        assert_eq!(
            h, 0x16b8_fba1_e67d_5f10,
            "scalar raw-world replay solution bytes drifted"
        );
    }
    assert_eq!(
        out.modeled_seconds.to_bits(),
        0x3f03_00f6_908e_afbd,
        "modeled wall clock drifted"
    );
    let total = out.stats.total();
    assert_eq!(
        (total.msgs_sent, total.bytes_sent),
        (52, 7728),
        "replay counters drifted"
    );
}

/// The Toeplitz factor layout (head on rank 0, shared tail elsewhere)
/// through the shared replay body. Where the head ends depends on
/// rounding (the stationarity test compares consecutive diagonals), so
/// the split, the correction windows, the setup's flop count and the
/// modeled clock are pinned with the solution bytes on the capture ISA
/// only; the message pattern holds everywhere.
#[test]
fn toeplitz_replay_is_bitwise_pinned() {
    let (n, m, p, r) = (160, 3, 4, 6);
    let src = ClusteredToeplitz::standard(n, m, 5);
    let out = run_spmd(p, CostModel::cluster(), |comm| {
        let sys = RankSystem::from_source(&src, p, comm.rank());
        let factors = ToeplitzRankFactors::setup(comm, &sys).expect("setup");
        let mut x: Vec<Mat> = (sys.lo..sys.hi).map(|i| rhs_panel(m, r, 9, i)).collect();
        factors.solve_in_place(comm, &mut x);
        (factors.head_len(), factors.windows(), x)
    });

    let total = out.stats.total();
    assert_eq!(
        (total.msgs_sent, total.bytes_sent),
        (52, 5424),
        "Toeplitz message/byte counters drifted"
    );
    if pinned_isa() {
        let heads: Vec<usize> = out.results.iter().map(|(h, _, _)| *h).collect();
        assert_eq!(heads, vec![8, 0, 0, 0], "head/tail split drifted");
        let windows: Vec<(usize, usize)> = out.results.iter().map(|(_, w, _)| *w).collect();
        assert_eq!(
            windows,
            vec![(0, 17), (17, 17), (17, 17), (17, 0)],
            "correction windows drifted"
        );
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for (_, _, panels) in &out.results {
            for panel in panels {
                hash_mat(&mut h, panel);
            }
        }
        assert_eq!(
            h, 0xce74_02d0_2be0_b191,
            "Toeplitz replay solution bytes drifted"
        );
        assert_eq!(
            out.modeled_seconds.to_bits(),
            0x3f04_b735_fb7e_54e1,
            "modeled Toeplitz clock drifted"
        );
        assert_eq!(total.flops, 91746, "Toeplitz flop counter drifted");
    }
    if scalar_isa() {
        let heads: Vec<usize> = out.results.iter().map(|(h, _, _)| *h).collect();
        assert_eq!(heads, vec![8, 0, 0, 0], "scalar head/tail split drifted");
        let windows: Vec<(usize, usize)> = out.results.iter().map(|(_, w, _)| *w).collect();
        assert_eq!(
            windows,
            vec![(0, 17), (17, 17), (17, 17), (17, 0)],
            "scalar correction windows drifted"
        );
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for (_, _, panels) in &out.results {
            for panel in panels {
                hash_mat(&mut h, panel);
            }
        }
        assert_eq!(
            h, 0x7508_704a_39da_092f,
            "scalar Toeplitz replay solution bytes drifted"
        );
        assert_eq!(
            out.modeled_seconds.to_bits(),
            0x3f04_b735_fb7e_54e1,
            "scalar modeled Toeplitz clock drifted"
        );
        assert_eq!(total.flops, 91746, "scalar Toeplitz flop counter drifted");
    }
}

/// The PCR comparator (halo exchanges + allreduce coordination).
#[test]
fn pcr_driver_is_bitwise_pinned() {
    let src = ClusteredToeplitz::standard(24, 2, 3);
    let batches = vec![random_rhs(24, 2, 4, 77)];
    let cfg = DriverConfig::new(4)
        .with_model(CostModel::hpc())
        .with_threads_per_rank(1);
    let out = pcr_solve_cfg_on::<SimBackend, _>(&cfg, &src, &batches).unwrap();

    if pinned_isa() {
        assert_eq!(
            hash_blockvecs(&out.x),
            0x72eb_1958_84f9_82b6,
            "PCR solution bytes drifted"
        );
    }
    if scalar_isa() {
        assert_eq!(
            hash_blockvecs(&out.x),
            0x1ed2_8227_45a2_2c05,
            "scalar PCR solution bytes drifted"
        );
    }
    assert_eq!(
        out.timings.solve_modeled[0].to_bits(),
        0x3ef0_20c0_871c_a8ff,
        "PCR modeled solve clock drifted"
    );
    let total = out.stats.total();
    assert_eq!(
        (total.msgs_sent, total.bytes_sent),
        (98, 14448),
        "PCR counters drifted"
    );
}

/// The batched-small path: `K = 300` independent systems interleaved
/// across the lane kernels. The lane chunk is 256 systems at `M = 4` and
/// 128 at `M = 8`, so both orders end in a partial tail chunk (2 and 3
/// chunks). The factor store's size holds on every path; the solution
/// bytes are pinned per ISA.
#[test]
fn batched_small_is_bitwise_pinned() {
    let (k, n, r) = (300u64, 6, 2);
    for (m, avx2_hash, scalar_hash, storage) in [
        (4, 0x9ec4_726f_7815_bf99, 0x845f_7da0_6ad8_cf36, 652_800),
        (8, 0x7b22_9de5_b594_328e, 0x4b4d_d88a_b95d_c6e5, 2_611_200),
    ] {
        let srcs: Vec<RandomDominant> = (0..k)
            .map(|s| RandomDominant::new(n, m, 1.5, 1000 + s))
            .collect();
        let ys: Vec<BlockVec> = (0..k).map(|s| random_rhs(n, m, r, 50 + s)).collect();
        let yrefs: Vec<&BlockVec> = ys.iter().collect();
        let factors = BatchedSystems::from_sources(&srcs)
            .factor()
            .expect("batched factor");
        assert_eq!(
            factors.storage_bytes(),
            storage,
            "M={m} batched factor bytes drifted"
        );
        let h = hash_blockvecs(&factors.solve_blockvecs(&yrefs));
        if pinned_isa() {
            assert_eq!(h, avx2_hash, "M={m} batched solution bytes drifted");
        }
        if scalar_isa() {
            assert_eq!(
                h, scalar_hash,
                "M={m} scalar batched solution bytes drifted"
            );
        }
    }
}

/// Collective tag/clock sequences: a mixed collective workload on the
/// hpc model must reproduce the exact virtual clock it had before the
/// collectives moved into trait default methods.
#[test]
fn collective_clock_is_bitwise_pinned() {
    let out = run_spmd(8, CostModel::hpc(), |comm| {
        comm.barrier();
        let s = comm.scan_inclusive(comm.rank() as u64 + 1, |a, b| a + b);
        let e = comm.scan_exclusive(s, |a, b| a + b).unwrap_or(0);
        let m = comm.allreduce(e, |a, b| (*a).max(*b));
        let g = comm.allgather(m + comm.rank() as u64);
        let sum: u64 = g.iter().sum();
        let all: Vec<u64> = comm.alltoall((0..8).map(|i| sum + i).collect());
        comm.reduce(3, all.iter().sum::<u64>(), |a, b| a + b)
            .unwrap_or(0)
    });
    assert_eq!(out.results[7], 0, "non-root reduce result drifted");
    assert_eq!(out.results[3], 45024, "collective data path drifted");
    assert_eq!(
        out.modeled_seconds.to_bits(),
        0x3ef7_1a2b_82ee_3a0e,
        "collective virtual clock drifted"
    );
}
