//! Iterative refinement on top of any rank factors' solve.
//!
//! Refinement is the classic production technique: with any factorization
//! `T ≈ F`, iterate `x <- x + F^{-1}(y - T x)`. Each sweep costs one
//! distributed residual (a halo exchange plus three GEMMs per row) and
//! one solve with the stored factors — for the replay, both `O(M^2 R)`
//! per row — and contracts the error by the factorization's relative
//! accuracy. [`crate::session::RankFactors::solve_refined`] runs it on a
//! rank; [`crate::session::ArdSessionOn::solve_refined`] on a session.
//!
//! For this suite it has a special role (Figure A5): the exact-scan
//! boundary recovery degrades gracefully before it breaks down
//! (DESIGN.md §7), and inside that gray zone its factors are still a
//! *contraction* — a few refinement sweeps push residuals from ~1e-3
//! back to machine precision, extending the paper's algorithm's usable
//! range at pure `O(M^2 R)` per-solve cost.

use bt_comm::CommBackend;
use bt_dense::{gemm, gemm_flops, Mat, MatMut, MatRef, Trans};

use crate::session::RankFactors;
use crate::state::RankSystem;

/// Tags for the residual halo exchange.
mod tags {
    pub const HALO_RIGHT: u64 = 520; // panel travelling to rank+1
    pub const HALO_LEFT: u64 = 521; // panel travelling to rank-1
}

/// Accepted refinement sweeps per refined solve (`history.len() - 1`).
/// Exported as `bt_ard.refine.iters` by the Prometheus endpoint;
/// `BT_OBS`-gated.
static REFINE_ITERS: bt_obs::Histogram = bt_obs::Histogram::new("bt_ard.refine.iters");

/// Exchanges boundary panels with both neighbours: sends this rank's
/// first/last panels, returns `(x_{lo-1}, x_{hi})` (zero panels at the
/// domain boundaries). Collective.
pub fn halo_exchange<C: CommBackend>(comm: &mut C, first: &Mat, last: &Mat) -> (Mat, Mat) {
    let (m, r) = first.shape();
    let mut left_in = Mat::zeros(m, r);
    let mut right_in = Mat::zeros(m, r);
    halo_exchange_into(
        comm,
        first.as_ref(),
        last.as_ref(),
        left_in.as_mut(),
        right_in.as_mut(),
    );
    (left_in, right_in)
}

/// [`halo_exchange`] into caller-provided panels (zero-filled at the
/// domain boundaries), so a sweep loop can reuse its two halo panels.
/// Each message is one panel copy. Collective.
pub fn halo_exchange_into<C: CommBackend>(
    comm: &mut C,
    first: MatRef<'_>,
    last: MatRef<'_>,
    mut left_out: MatMut<'_>,
    mut right_out: MatMut<'_>,
) {
    let rank = comm.rank();
    let p = comm.size();
    if rank + 1 < p {
        comm.send_panel(rank + 1, tags::HALO_RIGHT, last);
    }
    if rank > 0 {
        comm.send_panel(rank - 1, tags::HALO_LEFT, first);
    }
    if rank > 0 {
        comm.recv_panel_into(rank - 1, tags::HALO_RIGHT, left_out.rb_mut());
    } else {
        left_out.fill_zero();
    }
    if rank + 1 < p {
        comm.recv_panel_into(rank + 1, tags::HALO_LEFT, right_out.rb_mut());
    } else {
        right_out.fill_zero();
    }
}

/// Local part of the residual `r = y - T x`, given the halo panels.
/// Costs ~`6 M^2 R` flops per row.
pub fn local_residual<C: CommBackend>(
    comm: &mut C,
    sys: &RankSystem,
    x_local: &[Mat],
    halo: (&Mat, &Mat),
    y_local: &[Mat],
) -> Vec<Mat> {
    let mut out: Vec<Mat> = y_local
        .iter()
        .map(|p| Mat::zeros(p.rows(), p.cols()))
        .collect();
    local_residual_into(
        comm,
        sys,
        x_local,
        (halo.0.as_ref(), halo.1.as_ref()),
        y_local,
        &mut out,
    );
    out
}

/// [`local_residual`] into caller-provided panels — the allocation-free
/// body of the refinement sweep.
pub fn local_residual_into<C: CommBackend>(
    comm: &mut C,
    sys: &RankSystem,
    x_local: &[Mat],
    halo: (MatRef<'_>, MatRef<'_>),
    y_local: &[Mat],
    out: &mut [Mat],
) {
    let m = sys.m;
    let nl = sys.local_len();
    let r = y_local[0].cols();
    assert_eq!(out.len(), nl, "residual panel count mismatch");
    let (left_in, right_in) = halo;
    for k in 0..nl {
        let row = &sys.rows[k];
        let res = &mut out[k];
        res.as_mut().copy_from(y_local[k].as_ref());
        gemm(
            -1.0,
            &row.b,
            Trans::No,
            &x_local[k],
            Trans::No,
            1.0,
            &mut *res,
        );
        let x_prev = if k == 0 {
            left_in
        } else {
            x_local[k - 1].as_ref()
        };
        gemm(-1.0, &row.a, Trans::No, x_prev, Trans::No, 1.0, &mut *res);
        let x_next = if k + 1 == nl {
            right_in
        } else {
            x_local[k + 1].as_ref()
        };
        gemm(-1.0, &row.c, Trans::No, x_next, Trans::No, 1.0, &mut *res);
        comm.compute(3 * gemm_flops(m, m, r));
    }
}

/// Squared Frobenius norm of a panel list (local part).
fn sq_norm(panels: &[Mat]) -> f64 {
    panels
        .iter()
        .map(|p| p.as_slice().iter().map(|v| v * v).sum::<f64>())
        .sum()
}

/// Result of a refined solve.
#[derive(Debug, Clone)]
pub struct RefinedSolve {
    /// The refined local solution panels.
    pub x_local: Vec<Mat>,
    /// Global relative residual after each sweep, starting with the
    /// unrefined solve's residual (`history[0]`) — identical on every
    /// rank.
    pub history: Vec<f64>,
}

/// Body of [`RankFactors::solve_refined`] for every factor kind: one
/// solve, then up to `max_sweeps` iterative-refinement sweeps. Stops
/// early once the global relative residual drops below `tol` or stops
/// improving. Collective; all ranks receive the same `history`.
pub(crate) fn solve_refined<C: CommBackend>(
    factors: &RankFactors,
    comm: &mut C,
    sys: &RankSystem,
    y_local: &[Mat],
    max_sweeps: usize,
    tol: f64,
) -> RefinedSolve {
    let mut x = y_local.to_vec();
    factors.solve_in_place(comm, &mut x);
    let y_norm2 = comm
        .allreduce(sq_norm(y_local), |a, b| a + b)
        .max(f64::MIN_POSITIVE);

    // One set of sweep buffers, reused every iteration: residual and
    // correction panels plus the two halo panels.
    let nl = x.len();
    let (m, r) = x[0].shape();
    let mut res: Vec<Mat> = (0..nl).map(|_| Mat::zeros(m, r)).collect();
    let mut dx: Vec<Mat> = (0..nl).map(|_| Mat::zeros(m, r)).collect();
    let mut halo_l = Mat::zeros(m, r);
    let mut halo_r = Mat::zeros(m, r);
    let mut history = Vec::with_capacity(max_sweeps + 1);

    let mut residual = |comm: &mut C, x: &[Mat], res: &mut [Mat]| -> f64 {
        halo_exchange_into(
            comm,
            x[0].as_ref(),
            x[nl - 1].as_ref(),
            halo_l.as_mut(),
            halo_r.as_mut(),
        );
        local_residual_into(
            comm,
            sys,
            x,
            (halo_l.as_ref(), halo_r.as_ref()),
            y_local,
            res,
        );
        (comm.allreduce(sq_norm(res), |a, b| a + b) / y_norm2).sqrt()
    };

    let mut rel = residual(comm, &x, &mut res);
    history.push(rel);

    for sweep in 0..max_sweeps {
        if rel <= tol {
            break;
        }
        let _span = bt_obs::span_with("solver", "refine.sweep", || {
            format!("{{\"sweep\":{sweep},\"rel_residual\":{rel:e}}}")
        });
        // Correction: dx = F^{-1} res, solved in the residual's own
        // panels (the old correction's buffers take the next residual);
        // x += dx.
        std::mem::swap(&mut res, &mut dx);
        factors.solve_in_place(comm, &mut dx);
        for (xk, dk) in x.iter_mut().zip(&dx) {
            xk.add_assign(dk);
        }
        let new_rel = residual(comm, &x, &mut res);
        if !new_rel.is_finite() || new_rel >= rel {
            // Diverging or stagnant: undo the last correction and stop.
            for (xk, dk) in x.iter_mut().zip(&dx) {
                xk.sub_assign(dk);
            }
            break;
        }
        rel = new_rel;
        history.push(rel);
    }
    REFINE_ITERS.record((history.len() - 1) as u64);
    RefinedSolve {
        x_local: x,
        history,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::ArdSession;
    use bt_blocktri::gen::{materialize, random_rhs, ClusteredToeplitz, Poisson2D};
    use bt_blocktri::{BlockRowSource, BlockVec};
    use bt_mpsim::CostModel;

    const ZERO: CostModel = CostModel {
        latency_s: 0.0,
        per_byte_s: 0.0,
        flop_rate: f64::INFINITY,
        threads_per_rank: 1,
    };

    /// An exact-scan session's refined solve of `y`.
    fn refined(
        p: usize,
        src: &(impl BlockRowSource + Sync),
        y: &BlockVec,
        max_sweeps: usize,
        tol: f64,
    ) -> (BlockVec, Vec<f64>) {
        let session = ArdSession::create(p, ZERO, src).unwrap();
        session.solve_refined(src, y, max_sweeps, tol).unwrap()
    }

    #[test]
    fn refinement_keeps_good_solutions_good() {
        let src = ClusteredToeplitz::standard(64, 4, 3);
        let t = materialize(&src);
        let y = random_rhs(64, 4, 3, 1);
        let (x, history) = refined(4, &src, &y, 3, 1e-14);
        assert!(t.rel_residual(&x, &y) < 1e-12);
        // Already at machine precision: at most one sweep recorded.
        assert!(history[0] < 1e-12, "history {history:?}");
    }

    #[test]
    fn refinement_rescues_the_gray_zone() {
        // Poisson N=32, M=6: the exact scan's boundary is degraded
        // (residual ~1e-3, Table III) but still a contraction — a few
        // sweeps recover machine precision. This extends the paper's
        // algorithm's usable envelope at O(M^2 R) per sweep. The sweep
        // budget leaves headroom over the ~13x-per-sweep contraction:
        // the exact count to cross 1e-12 shifts by one with kernel
        // rounding (FMA vs scalar dispatch), and the loop stops early
        // at `tol` anyway.
        let src = Poisson2D::new(32, 6);
        let t = materialize(&src);
        let y = random_rhs(32, 6, 2, 5);
        let (x, history) = refined(8, &src, &y, 11, 1e-13);
        assert!(
            history[0] > 1e-8,
            "premise: unrefined solve is degraded, got {:.1e}",
            history[0]
        );
        let final_res = t.rel_residual(&x, &y);
        assert!(
            final_res < 1e-12,
            "refined residual {final_res:.1e}, history {history:?}"
        );
        // Contraction: each sweep improves by orders of magnitude.
        assert!(history.len() >= 2 && history[1] < history[0] * 1e-1);
    }

    #[test]
    fn halo_exchange_moves_boundary_panels() {
        let out = bt_mpsim::run_spmd(3, ZERO, |comm| {
            let first = Mat::filled(2, 1, comm.rank() as f64 * 10.0);
            let last = Mat::filled(2, 1, comm.rank() as f64 * 10.0 + 1.0);
            let (l, r) = halo_exchange(comm, &first, &last);
            (l[(0, 0)], r[(0, 0)])
        });
        // rank 0: left = 0 (boundary), right = rank1.first = 10
        assert_eq!(out.results[0], (0.0, 10.0));
        // rank 1: left = rank0.last = 1, right = rank2.first = 20
        assert_eq!(out.results[1], (1.0, 20.0));
        // rank 2: left = rank1.last = 11, right = 0 (boundary)
        assert_eq!(out.results[2], (11.0, 0.0));
    }

    #[test]
    fn residual_history_is_monotone() {
        let src = Poisson2D::new(24, 4);
        let y = random_rhs(24, 4, 2, 7);
        let (_, history) = refined(4, &src, &y, 6, 0.0);
        for w in history.windows(2) {
            assert!(w[1] <= w[0], "history not monotone: {history:?}");
        }
    }
}
