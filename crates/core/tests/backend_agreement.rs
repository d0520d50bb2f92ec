//! The clock never feeds the arithmetic: the same solve reporting the
//! modeled clock (`SimBackend`, `run_spmd`) and reporting wall seconds
//! (`ShmBackend`) must produce bitwise-identical solutions and equal
//! per-rank counters. Both run on the one runtime, so the message
//! pattern, the collectives and the wire format are shared; what differs
//! is only what `virtual_time` reports to the solvers, so any divergence
//! — a branch on the clock, a reordered reduction, a truncated panel —
//! shows up as a differing bit pattern, not a tolerance miss.

use bt_ard::driver::{ard_solve_cfg_on, pcr_solve_cfg_on, DriverConfig};
use bt_ard::state::{ArdRankFactors, RankSystem, ReplayFactors};
use bt_blocktri::gen::{random_rhs, rhs_panel, ClusteredToeplitz};
use bt_blocktri::{BlockRowSource, BlockVec};
use bt_dense::Mat;
use bt_mpsim::{run_spmd, CommBackend, CostModel, SimBackend};
use bt_shm::{ShmBackend, SpmdBackend};
use proptest::prelude::*;

const ZERO: CostModel = CostModel {
    latency_s: 0.0,
    per_byte_s: 0.0,
    flop_rate: f64::INFINITY,
    threads_per_rank: 1,
};

fn bits_of_mat(m: &Mat) -> Vec<u64> {
    let mut bits = Vec::with_capacity(m.rows() * m.cols());
    for j in 0..m.cols() {
        bits.extend(m.col(j).iter().map(|v| v.to_bits()));
    }
    bits
}

fn bits_of_blockvecs(xs: &[BlockVec]) -> Vec<u64> {
    xs.iter()
        .flat_map(|x| x.blocks.iter().flat_map(bits_of_mat))
        .collect()
}

/// Runs the full ARD driver on both backends and asserts bitwise-equal
/// solutions for every batch and equal per-rank counters.
fn assert_ard_agreement<S: BlockRowSource + Sync>(
    cfg: &DriverConfig,
    src: &S,
    batches: &[BlockVec],
) {
    let sim = ard_solve_cfg_on::<SimBackend, _>(cfg, src, batches).unwrap();
    let shm = ard_solve_cfg_on::<ShmBackend, _>(cfg, src, batches).unwrap();
    assert_eq!(
        bits_of_blockvecs(&sim.x),
        bits_of_blockvecs(&shm.x),
        "sim and shm ARD solutions diverged (p={})",
        cfg.p
    );
    // Every counter (messages, bytes, flops) is clock-independent, so
    // the whole per-rank record must match.
    assert_eq!(
        sim.stats, shm.stats,
        "sim and shm ARD counters diverged (p={})",
        cfg.p
    );
    // Setup derives the correction windows from the matrix alone.
    assert_eq!(
        sim.correction_window, shm.correction_window,
        "sim and shm correction windows diverged (p={})",
        cfg.p
    );
}

#[test]
fn ard_driver_agrees_across_backends() {
    let src = ClusteredToeplitz::standard(64, 3, 7);
    let batches: Vec<BlockVec> = (0..2).map(|s| random_rhs(64, 3, 5, 40 + s)).collect();
    for p in [1, 2, 4, 8] {
        let cfg = DriverConfig::new(p).with_model(ZERO);
        assert_ard_agreement(&cfg, &src, &batches);
    }
}

#[test]
fn replay_agrees_across_backends_at_eight_ranks() {
    // Eight ranks of six rows each: every rank but the logically first
    // in each direction sweeps from a zero boundary, scans, and corrects
    // its window with the scanned boundary value.
    let src = ClusteredToeplitz::standard(48, 4, 11);
    let batches = vec![random_rhs(48, 4, 3, 5)];
    let cfg = DriverConfig::new(8).with_model(ZERO);
    assert_ard_agreement(&cfg, &src, &batches);
}

#[test]
fn raw_world_replay_agrees_across_backends() {
    // A 12-column replay on raw worlds: solution bits, per-rank
    // correction windows and per-rank counters must match across
    // backends.
    let (n, m, p, r) = (16, 3, 4, 12);
    let src = ClusteredToeplitz::standard(n, m, 1);
    let sim = run_spmd(p, ZERO, |comm| {
        let sys = RankSystem::from_source(&src, p, comm.rank());
        let factors = ArdRankFactors::setup(comm, &sys, true).expect("setup");
        let mut x: Vec<Mat> = (sys.lo..sys.hi).map(|i| rhs_panel(m, r, 3, i)).collect();
        factors.solve_in_place(comm, &mut x);
        let bits = x.iter().flat_map(bits_of_mat).collect::<Vec<u64>>();
        (factors.windows(), bits)
    });
    let shm = ShmBackend::run(p, ZERO, |comm| {
        let sys = RankSystem::from_source(&src, p, comm.rank());
        let factors = ArdRankFactors::setup(comm, &sys, true).expect("setup");
        let mut x: Vec<Mat> = (sys.lo..sys.hi).map(|i| rhs_panel(m, r, 3, i)).collect();
        factors.solve_in_place(comm, &mut x);
        let bits = x.iter().flat_map(bits_of_mat).collect::<Vec<u64>>();
        (factors.windows(), bits)
    });
    assert_eq!(sim.results, shm.results, "replay diverged across backends");
    assert_eq!(
        sim.stats, shm.stats,
        "replay counters diverged across backends"
    );
}

#[test]
fn pcr_driver_agrees_across_backends() {
    // PCR's halo exchanges (sendrecv pairs at doubling distances) plus
    // the allreduce coordination rounds.
    let src = ClusteredToeplitz::standard(24, 2, 3);
    let batches = vec![random_rhs(24, 2, 4, 77)];
    for p in [2, 4, 8] {
        let cfg = DriverConfig::new(p).with_model(ZERO);
        let sim = pcr_solve_cfg_on::<SimBackend, _>(&cfg, &src, &batches).unwrap();
        let shm = pcr_solve_cfg_on::<ShmBackend, _>(&cfg, &src, &batches).unwrap();
        assert_eq!(
            bits_of_blockvecs(&sim.x),
            bits_of_blockvecs(&shm.x),
            "sim and shm PCR solutions diverged (p={p})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random shapes, world sizes, and batch counts: the driver solution
    /// is bitwise backend-independent.
    #[test]
    fn ard_solution_is_backend_independent(
        p in 1usize..9,
        m in 2usize..5,
        r in 1usize..5,
        salt in 0u64..1000,
    ) {
        let n = 8 * p.max(2); // a few rows per rank at every world size
        let src = ClusteredToeplitz::standard(n, m, salt);
        let batches = vec![random_rhs(n, m, r, salt ^ 0x5a5a)];
        let cfg = DriverConfig::new(p).with_model(ZERO);
        let sim = ard_solve_cfg_on::<SimBackend, _>(&cfg, &src, &batches).unwrap();
        let shm = ard_solve_cfg_on::<ShmBackend, _>(&cfg, &src, &batches).unwrap();
        prop_assert_eq!(
            bits_of_blockvecs(&sim.x),
            bits_of_blockvecs(&shm.x),
            "p={} m={} r={} salt={}", p, m, r, salt
        );
    }
}
