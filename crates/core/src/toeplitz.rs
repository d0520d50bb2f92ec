//! Toeplitz fast path: structure-exploiting setup for constant-block
//! systems.
//!
//! The paper's PDE examples discretize constant-coefficient operators on
//! uniform grids, so every interior block row carries the *same* three
//! blocks `(A, B, C)`. The general [`crate::state::ArdRankFactors`]
//! setup ignores that: it applies `N/P` distinct companion matrices in
//! Phase 1a and stores three `M x M` matrices per owned row
//! (`E_i = D_i^{-1}`, `F_i`, `G_i`).
//!
//! With constant blocks, both costs collapse:
//!
//! * **Phase 1a** — every interior companion matrix is the same `W`, so
//!   the rank's local product is `W^count`, computed by repeated
//!   squaring in `O(log(N/P))` companion composes instead of `N/P`
//!   applies.
//! * **Factor storage** — the block-LU diagonal recurrence
//!   `D_i = B - A D_{i-1}^{-1} C` is a fixed-point iteration that
//!   contracts geometrically for the diagonally dominant systems the
//!   exact scan handles. After a short *head* (a few dozen rows at
//!   machine precision), `E_i = D_i^{-1}`, `F_i = -A E_{i-1}` and
//!   `G_i = -E_i C` are constant: one shared *tail* triple serves
//!   every remaining row, so factor storage drops from `3 * N/P`
//!   matrices to `3 * head + 3` — and the replay's working set fits in
//!   cache instead of streaming `O(N/P)` matrices from memory per
//!   solve. The local prefix totals the cross-rank scans need become
//!   head products times `tail^t` powers, again by repeated squaring.
//!
//! The head plus shared tail is a factor layout, nothing more:
//! [`ToeplitzRankFactors`] implements [`ReplayFactors`], so solves run
//! the general path's replay body (scan replay, correction windows,
//! tags, refinement) with only the factor lookup differing.
//! Detection ([`detect_toeplitz`]) is exact block equality, so the fast
//! path is never entered on a system it would silently approximate
//! beyond the head-convergence tolerance (a few hundred ulps, the same
//! envelope as the general path's accumulated roundoff).

use bt_blocktri::{BlockRowSource, FactorError};
use bt_comm::CommBackend;
use bt_dense::{gemm, gemm_flops, one_norm, Mat, Trans};

use crate::companion::{CompanionProduct, CompanionState, CompanionW};
use crate::pairs::AffinePair;
use crate::scans::{affine_exscan_fresh, companion_exscan, Direction, ScanTrace};
use crate::state::{
    agree_on_setup, exceeds, exceeds_roundoff, invert_diag, neg_product, tags, RankSystem,
    ReplayFactors, UNIT_ROUNDOFF,
};

/// Head-convergence tolerance, relative to `max_abs(D)`: the recurrence
/// is declared stationary once consecutive diagonals agree to a few
/// hundred ulps. Loose enough to converge in tens of rows on dominant
/// systems, tight enough that swapping in the shared tail factors
/// perturbs the solve at the roundoff level the general path already
/// carries.
const HEAD_TOL_ULPS: f64 = 256.0;

/// Exact constant-block detection: `true` iff every interior row of
/// `src` carries identical `(A, B, C)` blocks, the first row matches on
/// `(B, C)` (its `A` is structurally zero), and the last row matches on
/// `(A, B)` (its `C` is structurally zero). Requires `n >= 4` so the
/// interior is non-trivial; smaller systems gain nothing from the fast
/// path anyway.
///
/// Bitwise equality, not approximate: near-Toeplitz systems take the
/// general path rather than an silently perturbed fast one.
pub fn detect_toeplitz(src: &dyn BlockRowSource) -> bool {
    let n = src.n();
    if n < 4 {
        return false;
    }
    let tpl = src.row(1);
    let eq = |x: &Mat, y: &Mat| x.as_slice() == y.as_slice();
    let first = src.row(0);
    if !eq(&first.b, &tpl.b) || !eq(&first.c, &tpl.c) {
        return false;
    }
    let last = src.row(n - 1);
    if !eq(&last.a, &tpl.a) || !eq(&last.b, &tpl.b) {
        return false;
    }
    (2..n - 1).all(|i| {
        let r = src.row(i);
        eq(&r.a, &tpl.a) && eq(&r.b, &tpl.b) && eq(&r.c, &tpl.c)
    })
}

/// Toeplitz-specialized rank factors: head rows stored per-row, one
/// shared tail triple for the stationary remainder, and the recorded
/// cross-rank scan traces (identical wire format to the general path).
#[derive(Debug)]
pub struct ToeplitzRankFactors {
    /// Global block-row count.
    pub n: usize,
    /// Block order.
    pub m: usize,
    /// First owned global row.
    pub lo: usize,
    /// One past the last owned global row.
    pub hi: usize,
    /// Per-row `E_i = D_i^{-1}` for the pre-convergence head (local rows
    /// `0..head_len`).
    head_d_inv: Vec<Mat>,
    /// Per-row `F_i` for the head (`F_0 = 0` on rank 0).
    head_f: Vec<Mat>,
    /// Per-row `G_i` for the head.
    head_g: Vec<Mat>,
    /// Shared `E = D^{-1}` for local rows `head_len..`.
    tail_d_inv: Mat,
    /// Shared `F` for the tail.
    tail_f: Mat,
    /// Shared `G` for the tail.
    tail_g: Mat,
    /// `G_{N-1} = 0` override, present only on the rank owning the last
    /// global row.
    g_zero: Option<Mat>,
    /// Recorded forward cross-rank scan matrices.
    fwd_trace: ScanTrace,
    /// Recorded backward cross-rank scan matrices.
    bwd_trace: ScanTrace,
    /// `(forward, backward)` correction windows (see
    /// [`ReplayFactors::windows`]).
    windows: (usize, usize),
    /// Worst boundary-extraction condition estimate across ranks.
    boundary_cond: f64,
}

/// `out = a * b` for square factors, charging the cost model.
fn matmul_sq<C: CommBackend>(comm: &mut C, a: &Mat, b: &Mat) -> Mat {
    let m = a.rows();
    let mut p = Mat::zeros(m, m);
    gemm(1.0, a, Trans::No, b, Trans::No, 0.0, &mut p);
    comm.compute(gemm_flops(m, m, m));
    p
}

/// `base^t * acc` by repeated squaring: `O(log t)` square-matrix
/// products. Powers of one matrix commute, so left-application order is
/// immaterial.
fn pow_mul_left<C: CommBackend>(comm: &mut C, base: &Mat, mut t: usize, acc: Mat) -> Mat {
    let mut result = acc;
    let mut sq = base.clone();
    while t > 0 {
        if t & 1 == 1 {
            result = matmul_sq(comm, &sq, &result);
        }
        t >>= 1;
        if t > 0 {
            sq = matmul_sq(comm, &sq, &sq);
        }
    }
    result
}

/// `acc * base^t`, the right-sided mirror of [`pow_mul_left`].
fn pow_mul_right<C: CommBackend>(comm: &mut C, acc: Mat, base: &Mat, mut t: usize) -> Mat {
    let mut result = acc;
    let mut sq = base.clone();
    while t > 0 {
        if t & 1 == 1 {
            result = matmul_sq(comm, &result, &sq);
        }
        t >>= 1;
        if t > 0 {
            sq = matmul_sq(comm, &sq, &sq);
        }
    }
    result
}

/// Forward correction window once the head's prefix products are known:
/// `head_window` covers the head rows, and the tail rows `from..nl`
/// continue the product `F_k ... F_lo` with the shared tail factor, one
/// charged product per row, until it falls to unit roundoff
/// (`head_product` is `None` for an empty head). Every later power is no
/// larger when `||tail||_1 <= 1`. Otherwise the products need not decay,
/// and the window is `nl`.
fn fwd_tail_window<C: CommBackend>(
    comm: &mut C,
    tail: &Mat,
    head_product: Option<&Mat>,
    head_window: usize,
    from: usize,
    nl: usize,
) -> usize {
    if from == nl {
        return head_window;
    }
    if exceeds(one_norm(tail), 1.0) {
        return nl;
    }
    let mut window = head_window;
    let mut acc = head_product.cloned();
    for k in from..nl {
        if acc.as_ref().is_some_and(|p| !exceeds_roundoff(p)) {
            break;
        }
        let next = match &acc {
            Some(p) => matmul_sq(comm, tail, p),
            None => tail.clone(),
        };
        if exceeds_roundoff(&next) {
            window = k + 1;
        }
        acc = Some(next);
    }
    window
}

/// Backward correction window of a non-last rank, counted back from its
/// last row. The suffix products `G_k ... G_{hi-1}` begin with powers of
/// the shared tail factor (the tail holds the rows nearest `hi`), stepped
/// as in [`fwd_tail_window`]. Once a power falls to unit roundoff, each
/// head row is bounded by that power's 1-norm, times `||tail||_1` for
/// every tail row still ahead, times the head factors' 1-norms: one norm
/// per head row, no product. Without such a power (an all-head slice, or
/// a tail that never decays that far) the head products are formed
/// exactly.
fn bwd_window<C: CommBackend>(comm: &mut C, head_g: &[Mat], tail_g: &Mat, nl: usize) -> usize {
    let head_len = head_g.len();
    let t = nl - head_len;
    let tail_norm = one_norm(tail_g);
    if t > 0 && exceeds(tail_norm, 1.0) {
        return nl;
    }
    let mut window = 0;
    let mut acc: Option<Mat> = None;
    let mut bound: Option<f64> = None;
    for j in 1..=t {
        let next = match &acc {
            Some(p) => matmul_sq(comm, tail_g, p),
            None => tail_g.clone(),
        };
        if !exceeds_roundoff(&next) {
            let ahead = i32::try_from(t - j).unwrap_or(i32::MAX);
            bound = Some(one_norm(&next) * tail_norm.powi(ahead));
            break;
        }
        window = j;
        acc = Some(next);
    }
    for (k, gk) in head_g.iter().enumerate().rev() {
        let above = match &mut bound {
            Some(b) => {
                *b *= one_norm(gk);
                exceeds(*b, UNIT_ROUNDOFF)
            }
            None => {
                let next = match &acc {
                    Some(p) => matmul_sq(comm, gk, p),
                    None => gk.clone(),
                };
                let above = exceeds_roundoff(&next);
                acc = Some(next);
                above
            }
        };
        if above {
            window = nl - k;
        }
    }
    window
}

impl ToeplitzRankFactors {
    /// Runs the structure-exploiting setup. Collective; every rank must
    /// call it together, and the global system **must** satisfy
    /// [`detect_toeplitz`] — callers gate on detection, this only
    /// debug-checks the owned slice.
    ///
    /// # Errors
    ///
    /// [`FactorError`] (agreed on every rank) if a block diagonal or the
    /// interior superdiagonal is singular.
    pub fn setup<C: CommBackend>(comm: &mut C, sys: &RankSystem) -> Result<Self, FactorError> {
        let m = sys.m;
        let nl = sys.local_len();
        debug_assert!(
            (1..nl).all(|k| {
                let interior = sys.lo + k < sys.n - 1;
                sys.rows[k].b.as_slice() == sys.rows[0].b.as_slice()
                    && (!interior || sys.rows[k].c.as_slice() == sys.row0.c.as_slice())
            }),
            "ToeplitzRankFactors::setup on a non-Toeplitz slice"
        );

        // ---- Phase 1a: local companion total = W^count. -----------------
        // Every row this rank contributes is interior, so all companion
        // matrices equal the W of the first contributed row; repeated
        // squaring replaces the general path's count applications.
        let mut pending_err: Option<FactorError> = None;
        let mut total = CompanionProduct::identity(m);
        let span_companion = bt_obs::span("solver", "phase1.toeplitz_power");
        if comm.rank() + 1 < comm.size() {
            let start = sys.lo.max(1);
            let count = sys.hi - start;
            if count > 0 {
                match CompanionW::from_row(&sys.rows[start - sys.lo]) {
                    Ok(w) => {
                        comm.compute(CompanionW::build_flops(m));
                        let mut base = CompanionProduct::identity(m);
                        base.apply_left(&w);
                        comm.compute(CompanionProduct::apply_left_flops(m));
                        let mut t = count;
                        let mut sq = base;
                        while t > 0 {
                            if t & 1 == 1 {
                                total = total.compose_after(&sq);
                                comm.compute(CompanionProduct::compose_flops(m));
                            }
                            t >>= 1;
                            if t > 0 {
                                sq = sq.compose_after(&sq);
                                comm.compute(CompanionProduct::compose_flops(m));
                            }
                        }
                    }
                    Err(source) => {
                        pending_err = Some(FactorError { row: start, source });
                        total = CompanionProduct::identity(m);
                    }
                }
            }
        }
        drop(span_companion);

        // ---- Phase 1b: cross-rank exclusive scan (unchanged). -----------
        let excl = {
            let _span = bt_obs::span("solver", "phase1.exscan");
            companion_exscan(comm, tags::PHASE1, total)
        };

        // ---- Phase 1c/1d: boundary + head/tail recurrence. --------------
        let span_factor = bt_obs::span("solver", "phase1.toeplitz_factor");
        let local = match pending_err {
            Some(e) => Err(e),
            None => Self::local_factor_pass(comm, sys, excl.as_ref()),
        };
        drop(span_factor);

        // Ranks agree before the next collective, exactly like the general
        // path, so nobody deadlocks in a scan.
        let (head_d_inv, head_f, head_g, tail_d_inv, tail_f, tail_g, my_cond) =
            agree_on_setup(comm, local)?;
        let boundary_cond = comm.allreduce(
            if my_cond.is_finite() {
                my_cond
            } else {
                f64::MAX
            },
            |a, b| a.max(*b),
        );

        // ---- Scan totals from head products and tail powers. ------------
        // Forward total F_{hi-1} ... F_lo: head factors occupy the low
        // local indices, so the total is tail^t applied left of the head
        // product (new factors multiply on the LEFT as the index grows).
        // The correction windows come with them: the head's prefix
        // products are formed here anyway, and the stationary tail needs
        // only the few powers of its shared factor that stay above `u`.
        let span_totals = bt_obs::span("solver", "setup.toeplitz_totals");
        let head_len = head_d_inv.len();
        let t = nl - head_len;
        let (fwd_total, w_fwd) = {
            let mut acc = if head_len == 0 {
                Mat::identity(m)
            } else {
                head_f[0].clone()
            };
            let mut window = usize::from(head_len > 0 && exceeds_roundoff(&acc));
            for (k, fk) in head_f.iter().enumerate().skip(1) {
                acc = matmul_sq(comm, fk, &acc);
                if exceeds_roundoff(&acc) {
                    window = k + 1;
                }
            }
            let head_product = (head_len > 0).then_some(&acc);
            let window = fwd_tail_window(comm, &tail_f, head_product, window, head_len, nl);
            (pow_mul_left(comm, &tail_f, t, acc), window)
        };
        // Backward total G_lo ... G_{hi-1}: on the last rank the final
        // factor G_{N-1} is zero, so the whole product is zero, and so is
        // every product the window would correct with.
        let (bwd_total, w_bwd) = if sys.hi == sys.n {
            (Mat::zeros(m, m), 0)
        } else {
            let mut acc = if head_len == 0 {
                Mat::identity(m)
            } else {
                head_g[0].clone()
            };
            for gk in head_g.iter().skip(1) {
                acc = matmul_sq(comm, &acc, gk);
            }
            let window = bwd_window(comm, &head_g, &tail_g, nl);
            (pow_mul_right(comm, acc, &tail_g, t), window)
        };
        drop(span_totals);

        // ---- Record the cross-rank scan traces (wire-identical to the
        // general path: zero-width vectors, same tags). -------------------
        let mut fwd_trace = ScanTrace::default();
        let mut bwd_trace = ScanTrace::default();
        {
            let _span = bt_obs::span("solver", "setup.record_scans");
            let _ = affine_exscan_fresh(
                comm,
                Direction::Forward,
                tags::FWD_SETUP,
                AffinePair {
                    mat: fwd_total,
                    vec: Mat::zero_width(m),
                },
                Some(&mut fwd_trace),
            );
            let _ = affine_exscan_fresh(
                comm,
                Direction::Backward,
                tags::BWD_SETUP,
                AffinePair {
                    mat: bwd_total,
                    vec: Mat::zero_width(m),
                },
                Some(&mut bwd_trace),
            );
        }

        Ok(Self {
            n: sys.n,
            m,
            lo: sys.lo,
            hi: sys.hi,
            head_d_inv,
            head_f,
            head_g,
            tail_d_inv,
            tail_f,
            tail_g,
            g_zero: (sys.hi == sys.n).then(|| Mat::zeros(m, m)),
            fwd_trace,
            bwd_trace,
            windows: (w_fwd, w_bwd),
            boundary_cond,
        })
    }

    /// Boundary recovery (identical to the general exact scan) followed
    /// by the diagonal recurrence with stationarity detection: rows are
    /// stored per-row until consecutive diagonals agree to
    /// [`HEAD_TOL_ULPS`], after which the loop exits and one shared tail
    /// triple is built from that row's inverse.
    #[allow(clippy::type_complexity)]
    fn local_factor_pass<C: CommBackend>(
        comm: &mut C,
        sys: &RankSystem,
        excl: Option<&CompanionProduct>,
    ) -> Result<(Vec<Mat>, Vec<Mat>, Vec<Mat>, Mat, Mat, Mat, f64), FactorError> {
        let m = sys.m;
        let nl = sys.local_len();
        let tol = HEAD_TOL_ULPS * f64::EPSILON;
        let mut boundary_cond = 1.0f64;

        let boundary_diag = if sys.lo == 0 {
            sys.rows[0].b.clone()
        } else {
            let mut state = CompanionState::initial(&sys.row0)
                .map_err(|source| FactorError { row: 0, source })?;
            comm.compute(CompanionState::initial_flops(m));
            if let Some(g_excl) = excl {
                state.apply_product(g_excl);
                comm.compute(CompanionState::apply_product_flops(m));
            }
            boundary_cond = bt_dense::cond_1(&state.v);
            let d = state
                .extract_diag(&sys.c_prev)
                .map_err(|source| FactorError {
                    row: sys.lo - 1,
                    source,
                })?;
            comm.compute(CompanionState::extract_flops(m));
            d
        };
        // The interior blocks every row shares.
        let no_interior;
        let a_tpl: &Mat = if sys.lo == 0 {
            if nl > 1 {
                &sys.rows[1].a
            } else {
                no_interior = Mat::zeros(m, m);
                &no_interior
            }
        } else {
            &sys.rows[0].a
        };
        let c_tpl: &Mat = &sys.row0.c;

        let mut head_d_inv: Vec<Mat> = Vec::new();
        let mut head_f: Vec<Mat> = Vec::new();
        // E_{lo-1}, the left neighbour's inverse: forms F_lo on ranks
        // that do not own row 0.
        let e_before = match sys.lo {
            0 => None,
            lo => Some(invert_diag(comm, &boundary_diag, lo - 1)?),
        };
        // The diagonal the stationarity test compares against: the
        // boundary diagonal continues the same recurrence, so on
        // non-first ranks row `lo` can converge immediately (it usually
        // does — convergence happened inside rank 0's head).
        let mut prev_d = boundary_diag;
        let start_k = if sys.lo == 0 {
            head_d_inv.push(invert_diag(comm, &prev_d, 0)?);
            head_f.push(Mat::zeros(m, m)); // F_0 = 0
            1
        } else {
            0
        };

        let mut stationary_e = None;
        for k in start_k..nl {
            let i = sys.lo + k;
            let e_prev = head_d_inv
                .last()
                .or(e_before.as_ref())
                .expect("row 0 or the boundary was inverted above");
            // F_i = -A E_{i-1}; D_i = B + F_i C.
            let f_i = neg_product(comm, a_tpl, e_prev);
            let mut d_i = sys.rows[k].b.clone();
            gemm(1.0, &f_i, Trans::No, c_tpl, Trans::No, 1.0, &mut d_i);
            comm.compute(gemm_flops(m, m, m));
            let e_i = invert_diag(comm, &d_i, i)?;
            if d_i.sub(&prev_d).max_abs() <= tol * d_i.max_abs() {
                // Row k (and everything after) uses the shared tail.
                stationary_e = Some(e_i);
                break;
            }
            head_d_inv.push(e_i);
            head_f.push(f_i);
            prev_d = d_i;
        }
        // Never went stationary (short slice or weak dominance): the
        // whole slice is head, and the tail triple — built from the last
        // diagonal, exponent zero in every power — is dead weight kept
        // for struct uniformity.
        let tail_e = stationary_e.unwrap_or_else(|| {
            head_d_inv
                .last()
                .expect("a rank owns at least one row")
                .clone()
        });
        let tail_f = neg_product(comm, a_tpl, &tail_e);
        let tail_g = neg_product(comm, &tail_e, c_tpl);
        // Head G_i from each row's actual superdiagonal, so the last
        // global row's zero C yields G = 0 when it lands in the head.
        let head_g = head_d_inv
            .iter()
            .zip(&sys.rows)
            .map(|(e, row)| neg_product(comm, e, &row.c))
            .collect();
        Ok((
            head_d_inv,
            head_f,
            head_g,
            tail_e,
            tail_f,
            tail_g,
            boundary_cond,
        ))
    }

    /// Number of owned rows.
    pub fn local_len(&self) -> usize {
        self.hi - self.lo
    }

    /// Rows stored per-row before the recurrence went stationary.
    pub fn head_len(&self) -> usize {
        self.head_d_inv.len()
    }

    /// Worst boundary-extraction condition estimate across ranks (see
    /// [`crate::state::ArdRankFactors::boundary_condition`]).
    pub fn boundary_condition(&self) -> f64 {
        self.boundary_cond
    }

    /// Bytes of factor state: `3 * head + 3` matrices plus the recorded
    /// scan traces — versus the general path's `3 * N/P` matrices.
    pub fn storage_bytes(&self) -> u64 {
        let mat_bytes = (self.m * self.m * std::mem::size_of::<f64>()) as u64;
        (3 * self.head_len() as u64 + 3) * mat_bytes
            + self.fwd_trace.storage_bytes()
            + self.bwd_trace.storage_bytes()
    }
}

impl ReplayFactors for ToeplitzRankFactors {
    fn rows(&self) -> usize {
        self.local_len()
    }

    fn d_inv(&self, k: usize) -> &Mat {
        self.head_d_inv.get(k).unwrap_or(&self.tail_d_inv)
    }

    fn f(&self, k: usize) -> &Mat {
        self.head_f.get(k).unwrap_or(&self.tail_f)
    }

    /// Zero at the last global row.
    fn g(&self, k: usize) -> &Mat {
        if self.lo + k == self.n - 1 {
            self.g_zero.as_ref().expect("last rank stores g_zero")
        } else {
            self.head_g.get(k).unwrap_or(&self.tail_g)
        }
    }

    fn traces(&self) -> (&ScanTrace, &ScanTrace) {
        (&self.fwd_trace, &self.bwd_trace)
    }

    fn windows(&self) -> (usize, usize) {
        self.windows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{ArdSession, FactorKind};
    use crate::state::BoundaryMode;
    use bt_blocktri::gen::{materialize, random_rhs, BlockToeplitz, ClusteredToeplitz, Poisson2D};
    use bt_comm::CostModel;

    const ZERO: CostModel = CostModel {
        latency_s: 0.0,
        per_byte_s: 0.0,
        flop_rate: f64::INFINITY,
        threads_per_rank: 1,
    };

    fn toeplitz_session(p: usize, src: &ClusteredToeplitz) -> ArdSession {
        ArdSession::create_with(p, ZERO, FactorKind::Toeplitz, src).unwrap()
    }

    fn general_session(p: usize, src: &ClusteredToeplitz) -> ArdSession {
        let kind = FactorKind::General(BoundaryMode::ExactScan);
        ArdSession::create_with(p, ZERO, kind, src).unwrap()
    }

    #[test]
    fn detection_accepts_constant_blocks_only() {
        assert!(detect_toeplitz(&BlockToeplitz::dominant(64, 4, 2.5, 7)));
        // The clustered generator perturbs the template once, then
        // repeats it every row — constant blocks, hence Toeplitz. Same
        // for the Poisson operator on a uniform grid.
        assert!(detect_toeplitz(&ClusteredToeplitz::standard(64, 4, 7)));
        assert!(detect_toeplitz(&Poisson2D::new(64, 4)));
        // Per-row random systems are not.
        assert!(!detect_toeplitz(&bt_blocktri::gen::RandomDominant::new(
            64, 4, 1.5, 7
        )));
        // Below the minimum size the fast path is pointless.
        assert!(!detect_toeplitz(&BlockToeplitz::dominant(3, 4, 2.5, 7)));
    }

    #[test]
    fn toeplitz_session_matches_general_path() {
        let src = ClusteredToeplitz::standard(96, 4, 3);
        assert!(detect_toeplitz(&src));
        let t = materialize(&src);
        let fast = toeplitz_session(4, &src);
        let general = general_session(4, &src);
        for seed in 0..3 {
            let y = random_rhs(96, 4, 3, seed);
            let xf = fast.solve(&y).unwrap();
            let xg = general.solve(&y).unwrap();
            assert!(t.rel_residual(&xf, &y) < 1e-11, "seed {seed}");
            assert!(
                xf.rel_diff(&xg) < 1e-10,
                "seed {seed}: {}",
                xf.rel_diff(&xg)
            );
        }
    }

    /// The layout sizes its windows from head products and tail powers,
    /// the general layout from every row's exact prefix product. Where
    /// products contract, the two agree to a row; where they never fall
    /// to `u` (weak dominance on short slices) both cover whole slices.
    #[test]
    fn windows_match_the_general_layout() {
        let windows = |src: &ClusteredToeplitz, p: usize| {
            let out = bt_mpsim::run_spmd(p, ZERO, |comm| {
                let sys = RankSystem::from_source(src, p, comm.rank());
                let fast = ToeplitzRankFactors::setup(comm, &sys).unwrap();
                let general = crate::state::ArdRankFactors::setup(comm, &sys, true).unwrap();
                (fast.windows(), general.windows())
            });
            out.results
        };
        for (rank, (fast, general)) in windows(&ClusteredToeplitz::standard(512, 4, 1), 4)
            .into_iter()
            .enumerate()
        {
            assert!(
                fast.0.abs_diff(general.0) <= 1 && fast.1.abs_diff(general.1) <= 1,
                "rank {rank}: toeplitz {fast:?} vs general {general:?}"
            );
            assert!(fast.0 < 128 && fast.1 < 128, "rank {rank}: {fast:?}");
        }
        let weak = windows(&ClusteredToeplitz::new(64, 6, 2.1, 0.01, 9), 4);
        assert_eq!(
            weak.iter().map(|w| w.0).collect::<Vec<_>>(),
            vec![(0, 16), (16, 16), (16, 16), (16, 0)]
        );
        assert_eq!(
            weak.iter().map(|w| w.1).collect::<Vec<_>>(),
            vec![(0, 16), (16, 16), (16, 16), (16, 0)]
        );
    }

    #[test]
    fn factor_memory_collapses_on_long_slices() {
        // n/p = 128 rows per rank: the head is a few dozen rows, so the
        // Toeplitz store must be several times smaller.
        let src = ClusteredToeplitz::standard(512, 4, 1);
        let fast = toeplitz_session(4, &src);
        let general = general_session(4, &src);
        let reduction = general.factor_bytes() as f64 / fast.factor_bytes() as f64;
        assert!(
            reduction >= 3.0,
            "memory reduction {reduction:.2}x (fast {} vs general {})",
            fast.factor_bytes(),
            general.factor_bytes()
        );
    }

    #[test]
    fn weak_dominance_still_solves() {
        // d just above the dominance floor contracts at ~0.64/row, so
        // 16-row slices never go stationary; correctness must not depend
        // on the head terminating early.
        let src = ClusteredToeplitz::new(64, 6, 2.1, 0.01, 9);
        let t = materialize(&src);
        let session = toeplitz_session(4, &src);
        let y = random_rhs(64, 6, 2, 4);
        let x = session.solve(&y).unwrap();
        assert!(t.rel_residual(&x, &y) < 1e-10);
    }

    #[test]
    fn single_rank_world_works() {
        let src = ClusteredToeplitz::standard(32, 4, 5);
        let t = materialize(&src);
        let session = toeplitz_session(1, &src);
        let y = random_rhs(32, 4, 2, 1);
        let x = session.solve(&y).unwrap();
        assert!(t.rel_residual(&x, &y) < 1e-11);
    }

    #[test]
    fn refined_replay_reaches_machine_precision() {
        let src = ClusteredToeplitz::standard(80, 4, 2);
        let t = materialize(&src);
        let y = random_rhs(80, 4, 2, 6);
        let (x, history) = toeplitz_session(4, &src)
            .solve_refined(&src, &y, 4, 1e-14)
            .unwrap();
        assert!(t.rel_residual(&x, &y) < 1e-13, "history {history:?}");
        assert!(!history.is_empty());
    }
}
