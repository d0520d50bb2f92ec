//! Cross-rank recursive-doubling (Kogge-Stone) scans.
//!
//! These are the `log P` communication rounds of the algorithm. Three
//! variants share the same message pattern:
//!
//! * [`companion_exscan`] — Phase 1: exclusive scan of companion-matrix
//!   products (`2M x 2M` payloads, matrix-matrix combines);
//! * [`affine_exscan_fresh`] — Phases 2/3 of *classic* recursive
//!   doubling: full affine pairs travel (`M^2 + M R` words per step) and
//!   each combine pays the `O(M^3)` matrix product. Optionally records
//!   the accumulator matrices into a [`ScanTrace`];
//! * [`affine_exscan_replay`] — Phases 2/3 of the *accelerated*
//!   algorithm: only the `M x R` vector panels travel and each combine is
//!   the `O(M^2 R)` matrix-panel product against the recorded trace.
//!
//! The fresh-vs-replay split is the entire acceleration: per solve, both
//! the per-step payload and the per-step work drop by a factor of `M/R`
//! on the matrix side.
//!
//! Scans support both directions; the *backward* scan (Phase 3) runs the
//! identical algorithm on reversed logical ranks.

use bt_comm::CommBackend;
use bt_dense::{gemm, Mat, Trans};

use crate::companion::CompanionProduct;
use crate::pairs::AffinePair;

/// Scan direction: which physical rank is "logically first".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Logical order equals rank order (row 0 lives on the logical first
    /// rank). Used by the forward substitution scan.
    Forward,
    /// Logical order is reversed (row `N-1` lives on the logical first
    /// rank). Used by the backward substitution scan.
    Backward,
}

impl Direction {
    /// Logical index of `rank` in a world of `p`.
    #[inline]
    pub fn logical(self, rank: usize, p: usize) -> usize {
        match self {
            Direction::Forward => rank,
            Direction::Backward => p - 1 - rank,
        }
    }

    /// Physical rank of `logical` index in a world of `p`.
    #[inline]
    pub fn physical(self, logical: usize, p: usize) -> usize {
        // The mapping is an involution.
        self.logical(logical, p)
    }
}

/// Recorded accumulator matrices from a fresh scan, enabling replays.
///
/// `mats[k]` is the accumulator's matrix component *before* the `k`-th
/// receive-combine of the scan (in receive order). These depend only on
/// the coefficient matrix, never on right-hand sides.
#[derive(Debug, Clone, Default)]
pub struct ScanTrace {
    /// Pre-combine accumulator matrices, one per receive event.
    pub mats: Vec<Mat>,
}

impl ScanTrace {
    /// Bytes of storage held by the trace.
    pub fn storage_bytes(&self) -> u64 {
        let elem = std::mem::size_of::<f64>() as u64;
        self.mats
            .iter()
            .map(|m| (m.rows() * m.cols()) as u64 * elem)
            .sum()
    }
}

/// Exclusive scan of companion products across ranks.
///
/// Rank `r` contributes the product of its local `W` matrices; the result
/// on rank `r` is the product of all contributions of ranks `< r`
/// (`None` on rank 0, meaning identity). Combines are performed in rank
/// order (matrix products do not commute).
pub fn companion_exscan<C: CommBackend>(
    comm: &mut C,
    tag_base: u64,
    total: CompanionProduct,
) -> Option<CompanionProduct> {
    let p = comm.size();
    let me = comm.rank();
    let m = total.m();
    let mut acc = total;
    let mut dist = 1usize;
    let mut step = 0u64;
    while dist < p {
        let _round = bt_obs::span_with("scan", "companion_exscan.round", || {
            format!("{{\"step\":{step},\"dist\":{dist}}}")
        });
        let tag = tag_base + step;
        if me + dist < p {
            comm.send(me + dist, tag, (acc.top.clone(), acc.bot.clone()));
        }
        if me >= dist {
            let (top, bot): (Mat, Mat) = comm.recv(me - dist, tag);
            let earlier = CompanionProduct { top, bot };
            // `earlier` covers lower-ranked W's: acc = acc * earlier.
            acc = earlier.compose_after(&acc);
            comm.compute(CompanionProduct::compose_flops(m));
        }
        dist <<= 1;
        step += 1;
    }
    // Shift the inclusive result right by one rank to make it exclusive.
    let tag = tag_base + step;
    if me + 1 < p {
        comm.send(me + 1, tag, (acc.top, acc.bot));
    }
    if me > 0 {
        let (top, bot): (Mat, Mat) = comm.recv(me - 1, tag);
        Some(CompanionProduct { top, bot })
    } else {
        None
    }
}

/// Exclusive affine scan with full pairs (classic recursive doubling).
///
/// `total` is this rank's composition of its local affine pairs (in row
/// order along `dir`). Returns the *vector component* of the exclusive
/// composition — the only part the per-row fixup needs — or `None` on the
/// logically first rank. If `record` is given, the accumulator matrices
/// are pushed for later [`affine_exscan_replay`] calls.
pub fn affine_exscan_fresh<C: CommBackend>(
    comm: &mut C,
    dir: Direction,
    tag_base: u64,
    total: AffinePair,
    mut record: Option<&mut ScanTrace>,
) -> Option<Mat> {
    let p = comm.size();
    let me = dir.logical(comm.rank(), p);
    let m = total.m();
    let r = total.r();
    let mut acc = total;
    let mut dist = 1usize;
    let mut step = 0u64;
    while dist < p {
        let _round = bt_obs::span_with("scan", "affine_fresh.round", || {
            format!("{{\"step\":{step},\"dist\":{dist}}}")
        });
        let tag = tag_base + step;
        if me + dist < p {
            comm.send(
                dir.physical(me + dist, p),
                tag,
                (acc.mat.clone(), acc.vec.clone()),
            );
        }
        if me >= dist {
            let (mat, vec): (Mat, Mat) = comm.recv(dir.physical(me - dist, p), tag);
            if let Some(trace) = record.as_deref_mut() {
                trace.mats.push(acc.mat.clone());
            }
            acc = AffinePair::compose(&acc, &AffinePair { mat, vec });
            comm.compute(AffinePair::compose_flops(m, r));
        }
        dist <<= 1;
        step += 1;
    }
    let tag = tag_base + step;
    if me + 1 < p {
        comm.send(dir.physical(me + 1, p), tag, acc.vec);
    }
    if me > 0 {
        Some(comm.recv(dir.physical(me - 1, p), tag))
    } else {
        None
    }
}

/// Exclusive affine scan replaying a recorded trace (accelerated path).
///
/// `total_vec` is the vector component of this rank's local composition
/// for the current right-hand-side batch; `trace` must come from an
/// [`affine_exscan_fresh`] run on the same world size, direction, and
/// coefficient matrix. Only `M x R` panels travel, one per round (a
/// zero-width batch sends one empty panel); combines cost `O(M^2 R)`.
///
/// This is the per-solve hot path. Besides one message per round, it
/// allocates one `M x R` receive panel, which also receives the
/// exclusive shift and is returned as the result.
pub fn affine_exscan_replay<C: CommBackend>(
    comm: &mut C,
    dir: Direction,
    tag_base: u64,
    total_vec: Mat,
    trace: &ScanTrace,
) -> Option<Mat> {
    let p = comm.size();
    let me = dir.logical(comm.rank(), p);
    let (m, r) = total_vec.shape();
    let mut v_acc = total_vec;
    let mut v_in = Mat::zeros(m, r);
    let mut dist = 1usize;
    let mut step = 0u64;
    let mut combine_idx = 0usize;
    while dist < p {
        let _round = bt_obs::span_with("scan", "affine_replay.round", || {
            format!("{{\"step\":{step},\"dist\":{dist}}}")
        });
        let tag = tag_base + step;
        if me + dist < p {
            // Eager-buffered sends snapshot the payload at the call, so
            // the combine below may update v_acc in place.
            comm.send_panel(dir.physical(me + dist, p), tag, v_acc.as_ref());
        }
        if me >= dist {
            let m_acc = trace
                .mats
                .get(combine_idx)
                .unwrap_or_else(|| panic!("scan trace too short at combine {combine_idx}"));
            combine_idx += 1;
            comm.recv_panel_into(dir.physical(me - dist, p), tag, v_in.as_mut());
            // v_acc += m_acc * v_in: the O(M^2 R) combine.
            gemm(1.0, m_acc, Trans::No, &v_in, Trans::No, 1.0, &mut v_acc);
            comm.compute(AffinePair::apply_flops(m, r));
        }
        dist <<= 1;
        step += 1;
    }
    // Exclusive shift: one paired exchange with the logical neighbours.
    let tag = tag_base + step;
    let send_to = (me + 1 < p).then(|| (dir.physical(me + 1, p), v_acc.as_ref()));
    let recv_from = (me > 0).then(|| (dir.physical(me - 1, p), v_in.as_mut()));
    comm.exchange_panel(tag, send_to, recv_from);
    (me > 0).then_some(v_in)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bt_mpsim::{run_spmd, CostModel};

    const ZERO: CostModel = CostModel {
        latency_s: 0.0,
        per_byte_s: 0.0,
        flop_rate: f64::INFINITY,
        threads_per_rank: 1,
    };

    /// Reference: sequential exclusive composition of per-rank pairs.
    fn reference_exscan(pairs: &[AffinePair]) -> Vec<Option<AffinePair>> {
        let mut out = vec![None];
        let mut acc: Option<AffinePair> = None;
        for pair in &pairs[..pairs.len() - 1] {
            acc = Some(match &acc {
                None => pair.clone(),
                // pair is later than everything in acc.
                Some(a) => AffinePair::compose(pair, a),
            });
            out.push(acc.clone());
        }
        out
    }

    fn rank_pair(rank: usize, m: usize, r: usize) -> AffinePair {
        AffinePair {
            mat: Mat::from_fn(m, m, |i, j| {
                ((rank * 31 + i * m + j) as f64 * 0.17).sin() * 0.8
            }),
            vec: Mat::from_fn(m, r, |i, j| ((rank * 17 + i * r + j) as f64 * 0.23).cos()),
        }
    }

    #[test]
    fn fresh_forward_matches_reference() {
        for p in [1, 2, 3, 4, 5, 8, 13] {
            let pairs: Vec<AffinePair> = (0..p).map(|rk| rank_pair(rk, 3, 2)).collect();
            let expect = reference_exscan(&pairs);
            let pairs2 = pairs.clone();
            let out = run_spmd(p, ZERO, move |comm| {
                affine_exscan_fresh(
                    comm,
                    Direction::Forward,
                    0,
                    pairs2[comm.rank()].clone(),
                    None,
                )
            });
            for (rk, (result, expected)) in out.results.iter().zip(&expect).enumerate() {
                match (result, expected) {
                    (None, None) => {}
                    (Some(v), Some(e)) => {
                        assert!(bt_dense::rel_diff(v, &e.vec) < 1e-11, "p={p} rank={rk}")
                    }
                    other => panic!("p={p} rank={rk}: mismatch {other:?}"),
                }
            }
        }
    }

    #[test]
    fn fresh_backward_is_mirror_of_forward() {
        let p = 6;
        let pairs: Vec<AffinePair> = (0..p).map(|rk| rank_pair(rk, 2, 1)).collect();
        // Backward exclusive on rank r == forward exclusive with reversed
        // rank/pair order.
        let reversed: Vec<AffinePair> = pairs.iter().rev().cloned().collect();
        let expect = reference_exscan(&reversed);
        let pairs2 = pairs.clone();
        let out = run_spmd(p, ZERO, move |comm| {
            affine_exscan_fresh(
                comm,
                Direction::Backward,
                0,
                pairs2[comm.rank()].clone(),
                None,
            )
        });
        for (rk, result) in out.results.iter().enumerate() {
            let logical = p - 1 - rk;
            match (result, &expect[logical]) {
                (None, None) => {}
                (Some(v), Some(e)) => {
                    assert!(bt_dense::rel_diff(v, &e.vec) < 1e-11, "rank={rk}")
                }
                other => panic!("rank={rk}: mismatch {other:?}"),
            }
        }
    }

    #[test]
    fn replay_matches_fresh() {
        for p in [1, 2, 4, 7, 9] {
            for dir in [Direction::Forward, Direction::Backward] {
                let pairs: Vec<AffinePair> = (0..p).map(|rk| rank_pair(rk, 3, 2)).collect();
                let pairs2 = pairs.clone();
                let out = run_spmd(p, ZERO, move |comm| {
                    let rk = comm.rank();
                    // Setup: record trace with zero-width vectors.
                    let mut trace = ScanTrace::default();
                    let setup_pair = AffinePair {
                        mat: pairs2[rk].mat.clone(),
                        vec: Mat::zero_width(3),
                    };
                    let _ = affine_exscan_fresh(comm, dir, 0, setup_pair, Some(&mut trace));
                    // Solve: replay with real vectors.
                    let replayed =
                        affine_exscan_replay(comm, dir, 100, pairs2[rk].vec.clone(), &trace);
                    // Reference: fresh scan with full pairs.
                    let fresh = affine_exscan_fresh(comm, dir, 200, pairs2[rk].clone(), None);
                    (replayed, fresh)
                });
                for (rk, (replayed, fresh)) in out.results.iter().enumerate() {
                    match (replayed, fresh) {
                        (None, None) => {}
                        (Some(a), Some(b)) => assert!(
                            bt_dense::rel_diff(a, b) < 1e-12,
                            "p={p} dir={dir:?} rank={rk}"
                        ),
                        other => panic!("p={p} dir={dir:?} rank={rk}: {other:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn replay_moves_fewer_bytes_than_fresh() {
        let p = 8;
        let m = 8;
        let r = 2;
        let fresh_bytes = {
            let out = run_spmd(p, ZERO, move |comm| {
                let _ = affine_exscan_fresh(
                    comm,
                    Direction::Forward,
                    0,
                    rank_pair(comm.rank(), m, r),
                    None,
                );
            });
            out.stats.total().bytes_sent
        };
        let replay_bytes = {
            let out = run_spmd(p, ZERO, move |comm| {
                let mut trace = ScanTrace::default();
                let pair = rank_pair(comm.rank(), m, r);
                let setup = AffinePair {
                    mat: pair.mat.clone(),
                    vec: Mat::zero_width(m),
                };
                let _ = affine_exscan_fresh(comm, Direction::Forward, 0, setup, Some(&mut trace));
                let before = comm.stats().bytes_sent;
                let _ = affine_exscan_replay(comm, Direction::Forward, 100, pair.vec, &trace);
                comm.stats().bytes_sent - before
            });
            out.results.iter().sum::<u64>()
        };
        // Fresh messages carry M^2 + M R words; replay only M R.
        assert!(
            replay_bytes * 2 < fresh_bytes,
            "replay {replay_bytes} vs fresh {fresh_bytes}"
        );
    }

    #[test]
    fn direction_mapping_is_involution() {
        for p in [1, 2, 5, 8] {
            for r in 0..p {
                for dir in [Direction::Forward, Direction::Backward] {
                    assert_eq!(dir.physical(dir.logical(r, p), p), r);
                }
            }
        }
    }

    #[test]
    fn trace_storage_accounting() {
        let mut t = ScanTrace::default();
        t.mats.push(Mat::zeros(4, 4));
        t.mats.push(Mat::zeros(4, 4));
        // Cross-check against the element type's actual size rather than
        // a hardcoded 8, and against the matrices' true element count.
        let elems: usize = t.mats.iter().map(|m| m.as_slice().len()).sum();
        assert_eq!(
            t.storage_bytes(),
            (elems * std::mem::size_of::<f64>()) as u64
        );
        assert_eq!(t.storage_bytes(), 2 * 16 * 8);
        // Rectangular panels count exactly too.
        t.mats.push(Mat::zeros(3, 5));
        assert_eq!(t.storage_bytes(), (2 * 16 + 15) * 8);
    }
}
