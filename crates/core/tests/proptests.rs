//! Property-based tests for the scan machinery: for random pair values,
//! world sizes and panel widths, the distributed scans must agree with
//! the sequential reference composition, and replay must agree with
//! fresh.

use bt_ard::companion::{CompanionProduct, CompanionState, CompanionW};
use bt_ard::pairs::AffinePair;
use bt_ard::scans::{
    affine_exscan_fresh, affine_exscan_replay, companion_exscan, Direction, ScanTrace,
};
use bt_blocktri::gen::{materialize, ClusteredToeplitz};
use bt_blocktri::BlockRowSource;
use bt_dense::{rel_diff, Mat};
use bt_mpsim::{run_spmd, CommBackend, CostModel};
use proptest::prelude::*;

const ZERO: CostModel = CostModel {
    latency_s: 0.0,
    per_byte_s: 0.0,
    flop_rate: f64::INFINITY,
    threads_per_rank: 1,
};

/// Deterministic pseudo-random pair per (rank, dims, salt).
fn rank_pair(rank: usize, m: usize, r: usize, salt: u64) -> AffinePair {
    let base = (rank as u64).wrapping_mul(0x9E37_79B9).wrapping_add(salt);
    AffinePair {
        mat: Mat::from_fn(m, m, |i, j| {
            (((base.wrapping_add((i * m + j) as u64)) % 1000) as f64 / 1000.0 - 0.5) * 1.6
        }),
        vec: Mat::from_fn(m, r, |i, j| {
            ((base.wrapping_add((i * r + j + 7) as u64) % 1000) as f64) / 500.0 - 1.0
        }),
    }
}

/// Sequential exclusive composition (later-rank-outer), per logical rank.
fn reference_exscan(pairs: &[AffinePair]) -> Vec<Option<AffinePair>> {
    let mut out = vec![None];
    let mut acc: Option<AffinePair> = None;
    for pair in &pairs[..pairs.len() - 1] {
        acc = Some(match &acc {
            None => pair.clone(),
            Some(a) => AffinePair::compose(pair, a),
        });
        out.push(acc.clone());
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn fresh_scan_matches_reference(
        p in 1usize..10,
        m in 1usize..5,
        r in 1usize..4,
        salt in 0u64..1000,
        backward in proptest::bool::ANY,
    ) {
        let dir = if backward { Direction::Backward } else { Direction::Forward };
        // Logical ordering: pair for logical index l sits on physical rank
        // dir.physical(l, p).
        let logical_pairs: Vec<AffinePair> = (0..p).map(|l| rank_pair(l, m, r, salt)).collect();
        let expect = reference_exscan(&logical_pairs);
        let lp = logical_pairs.clone();
        let out = run_spmd(p, ZERO, move |comm| {
            let l = dir.logical(comm.rank(), p);
            affine_exscan_fresh(comm, dir, 0, lp[l].clone(), None)
        });
        for rank in 0..p {
            let l = dir.logical(rank, p);
            match (&out.results[rank], &expect[l]) {
                (None, None) => {}
                (Some(v), Some(e)) => {
                    prop_assert!(rel_diff(v, &e.vec) < 1e-10, "p={p} rank={rank}");
                }
                other => prop_assert!(false, "p={p} rank={rank}: {other:?}"),
            }
        }
    }

    #[test]
    fn replay_always_matches_fresh(
        p in 1usize..10,
        m in 1usize..5,
        r in 1usize..4,
        salt in 0u64..1000,
    ) {
        let pairs: Vec<AffinePair> = (0..p).map(|l| rank_pair(l, m, r, salt)).collect();
        let lp = pairs.clone();
        let out = run_spmd(p, ZERO, move |comm| {
            let rk = comm.rank();
            let mut trace = ScanTrace::default();
            let setup = AffinePair { mat: lp[rk].mat.clone(), vec: Mat::zero_width(m) };
            let _ = affine_exscan_fresh(comm, Direction::Forward, 0, setup, Some(&mut trace));
            let replayed =
                affine_exscan_replay(comm, Direction::Forward, 100, lp[rk].vec.clone(), &trace);
            let fresh = affine_exscan_fresh(comm, Direction::Forward, 200, lp[rk].clone(), None);
            (replayed, fresh)
        });
        for (rank, (replayed, fresh)) in out.results.iter().enumerate() {
            match (replayed, fresh) {
                (None, None) => {}
                (Some(a), Some(b)) => prop_assert!(rel_diff(a, b) < 1e-11, "rank={rank}"),
                other => prop_assert!(false, "rank={rank}: {other:?}"),
            }
        }
    }

    #[test]
    fn companion_exscan_matches_sequential_products(
        p in 2usize..8,
        rows_per_rank in 1usize..4,
        m in 1usize..4,
        seed in 0u64..500,
    ) {
        // Build a clustered system with one W-range per rank and compare
        // the scanned exclusive products (applied to S_0 and extracted)
        // against the sequentially advanced state.
        let n = p * rows_per_rank + 1; // +1 so the last W index stays valid
        let src = ClusteredToeplitz::standard(n, m, seed);
        let t = materialize(&src);

        // Sequential reference: advance the state row by row; record the
        // diagonal at each rank boundary lo-1 (lo = rank * rows_per_rank).
        let mut state = CompanionState::initial(t.row(0)).unwrap();
        let mut expected = vec![None; p]; // boundary diag for rank q > 0
        // Rank q's boundary is row q*rows_per_rank - 1; row 0's diagonal
        // comes from the initial state before any advance.
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
        for (q, (got, want)) in out.results.iter().zip(&expected).enumerate().skip(1) {
            let got = got.as_ref().expect("non-first rank has exclusive");
            let want = want.as_ref().expect("recorded");
            prop_assert!(rel_diff(got, want) < 1e-9, "rank {q}: {}", rel_diff(got, want));
        }
        prop_assert!(out.results[0].is_none());
    }
}
