//! Rank-level solver state: the setup/solve split at the heart of the
//! accelerated recursive doubling algorithm.
//!
//! [`RankSystem`] holds a rank's contiguous slice of the block
//! tridiagonal matrix. [`ArdRankFactors::setup`] runs all
//! matrix-dependent work — Phase 1 (block diagonals via the companion
//! scan) plus the matrix components of the Phase 2/3 affine scans — in
//! `O(M^3 (N/P + log P))` time. Each subsequent replay
//! ([`ReplayFactors::solve_in_place`]) handles an `R`-column
//! right-hand-side batch in `O(M^2 R (N/P + log P))` time, exchanging
//! only `M x R` panels.
//!
//! Every replay runs one in-place body over the [`ReplayFactors`]
//! accessor: a rank's `E_i = D_i^{-1}`, `F_i` and `G_i` by local row,
//! plus the recorded scan traces, so every per-row step of a replay is a
//! small-block GEMM. [`ArdRankFactors`] stores them per row;
//! [`crate::toeplitz::ToeplitzRankFactors`] stores a short head plus one
//! shared tail triple.
//!
//! Classic recursive doubling is the same machinery without reuse: it
//! builds the factors with `record_traces = false` and runs
//! [`ArdRankFactors::solve_fresh`] for every batch, which is what makes
//! it `O(R)` slower over `R` right-hand sides.

use bt_blocktri::{BlockRow, BlockRowSource, FactorError, RowPartition};
use bt_comm::CommBackend;
use bt_dense::{
    gemm, gemm_flops, lu_flops, lu_solve_flops, one_norm, LuFactors, Mat, SingularError, Trans,
};

use crate::companion::{CompanionProduct, CompanionState, CompanionW};
use crate::pairs::AffinePair;
use crate::scans::{
    affine_exscan_fresh, affine_exscan_replay, companion_exscan, Direction, ScanTrace,
};

/// Tag bases for the point-to-point scans (each scan uses `base + step`);
/// shared by every factor layout, since a world runs one solver family.
pub(crate) mod tags {
    pub const PHASE1: u64 = 0;
    pub const FWD_SETUP: u64 = 64;
    pub const BWD_SETUP: u64 = 128;
    pub const FWD_SOLVE: u64 = 192;
    pub const BWD_SOLVE: u64 = 256;
}

/// How a rank recovers its boundary block diagonal `D_{lo-1}` in Phase 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundaryMode {
    /// The paper's algorithm: a cross-rank recursive-doubling scan of
    /// companion-matrix products, exact in `O(M^3 log P)` communication.
    /// Accuracy depends on the conditioning of the accumulated products,
    /// which grows with the per-row spectral spread of the transfer
    /// matrices (DESIGN.md §7).
    ExactScan,
    /// Windowed recovery (extension, not in the paper): run the plain
    /// block-LU diagonal recurrence over the `w` rows preceding `lo`,
    /// warm-started from `D = B_{lo-w}`. For contracting systems
    /// (diagonally dominant / SPD), the warm-start error decays
    /// geometrically, so a window of a few dozen rows reproduces
    /// `D_{lo-1}` to machine precision — with **zero** Phase 1
    /// communication and `O(M^3 (N/P + w))` work. The rank system must be
    /// built with [`RankSystem::from_source_windowed`].
    Windowed(usize),
}

/// A rank's slice of the global system.
#[derive(Debug, Clone)]
pub struct RankSystem {
    /// Global block-row count.
    pub n: usize,
    /// Block order.
    pub m: usize,
    /// Owned global row range start (inclusive).
    pub lo: usize,
    /// Owned global row range end (exclusive).
    pub hi: usize,
    /// Owned rows, `rows[k]` = global row `lo + k`.
    pub rows: Vec<BlockRow>,
    /// `C_{lo-1}` — the left neighbour's superdiagonal block (zeros when
    /// `lo == 0`), needed by the boundary-diagonal extraction and the
    /// first local `D` update.
    pub c_prev: Mat,
    /// Global row 0, seeding the companion state
    /// `S_0 = [C_0^{-1} B_0; I]` on every rank.
    pub row0: BlockRow,
    /// Rows `lo - w .. lo` for [`BoundaryMode::Windowed`] (empty unless
    /// built by [`RankSystem::from_source_windowed`]).
    pub window_rows: Vec<BlockRow>,
    /// The Phase 1 boundary mode this slice was built for, and the one
    /// [`ArdRankFactors::setup`] runs: [`BoundaryMode::ExactScan`] from
    /// [`RankSystem::from_source`], [`BoundaryMode::Windowed`] from
    /// [`RankSystem::from_source_windowed`]. Private, so a slice is only
    /// ever built by those two, with the rows its mode needs.
    pub(crate) boundary: BoundaryMode,
}

impl RankSystem {
    /// Materializes rank `rank`-of-`p`'s slice of `src`.
    ///
    /// # Panics
    ///
    /// Panics if `n < p` (every rank must own at least one block row) or
    /// `rank >= p`.
    pub fn from_source(src: &dyn BlockRowSource, p: usize, rank: usize) -> Self {
        let n = src.n();
        let m = src.m();
        assert!(
            n >= p,
            "need at least one block row per rank (N={n}, P={p})"
        );
        let part = RowPartition::new(n, p);
        let range = part.range(rank);
        let (lo, hi) = (range.start, range.end);
        let rows: Vec<BlockRow> = (lo..hi).map(|i| src.row(i)).collect();
        let c_prev = if lo == 0 {
            Mat::zeros(m, m)
        } else {
            src.row(lo - 1).c.clone()
        };
        let row0 = if lo == 0 { rows[0].clone() } else { src.row(0) };
        Self {
            n,
            m,
            lo,
            hi,
            rows,
            c_prev,
            row0,
            window_rows: Vec::new(),
            boundary: BoundaryMode::ExactScan,
        }
    }

    /// Like [`RankSystem::from_source`], additionally materializing the
    /// `min(w, lo)` rows preceding the owned range for
    /// [`BoundaryMode::Windowed`]`(w)` boundary recovery, the mode it
    /// records.
    pub fn from_source_windowed(src: &dyn BlockRowSource, p: usize, rank: usize, w: usize) -> Self {
        let mut sys = Self::from_source(src, p, rank);
        sys.boundary = BoundaryMode::Windowed(w);
        let w = w.min(sys.lo);
        sys.window_rows = (sys.lo - w..sys.lo).map(|i| src.row(i)).collect();
        sys
    }

    /// Number of owned rows.
    pub fn local_len(&self) -> usize {
        self.hi - self.lo
    }

    /// The superdiagonal block of global row `i - 1`, for owned `i`.
    fn c_before(&self, i: usize) -> &Mat {
        debug_assert!(i >= self.lo && i < self.hi);
        if i == self.lo {
            &self.c_prev
        } else {
            &self.rows[i - self.lo - 1].c
        }
    }
}

/// Row-indexed access to a rank's stored replay factors — the one thing
/// that differs between factor layouts. The replay body reads every
/// factor through it, so each layout runs the same arithmetic in the
/// same order: [`ArdRankFactors`] stores every owned row,
/// [`crate::toeplitz::ToeplitzRankFactors`] a pre-convergence head plus
/// one shared tail triple.
pub trait ReplayFactors {
    /// Number of owned rows.
    fn rows(&self) -> usize;

    /// `E_i = D_i^{-1}` of local row `k` (global row `lo + k`).
    fn d_inv(&self, k: usize) -> &Mat;

    /// `F_i = -A_i E_{i-1}` of local row `k` (`F_0 = 0`).
    fn f(&self, k: usize) -> &Mat;

    /// `G_i = -E_i C_i` of local row `k` (`G_{N-1} = 0`).
    fn g(&self, k: usize) -> &Mat;

    /// The recorded forward and backward cross-rank scan traces.
    fn traces(&self) -> (&ScanTrace, &ScanTrace);

    /// The `(forward, backward)` correction windows: how many owned rows
    /// nearest each boundary the scanned boundary value still reaches
    /// above unit roundoff. The forward window counts rows from `lo`,
    /// the backward one rows back from `hi - 1`. Setup derives both from
    /// the 1-norms of the prefix products `F_k ... F_lo` and
    /// `G_k ... G_{hi-1}`, never from a right-hand side, so every backend
    /// and every batch replays the same arithmetic. A window is 0 on the
    /// rank that has no boundary on that side, and `rows()` for products
    /// that never fall to unit roundoff.
    fn windows(&self) -> (usize, usize);

    /// Solves one right-hand-side batch in place by **replaying** the
    /// recorded scans — the accelerated path, `O(M^2 R (N/P + log P))`.
    /// `x[k]` holds the `M x R` right-hand-side panel of global row
    /// `lo + k` on entry and its solution on return. Each scan round
    /// sends one `M x R` panel. Collective.
    ///
    /// # Panics
    ///
    /// Panics on panel count or shape mismatch.
    fn solve_in_place<C: CommBackend>(&self, comm: &mut C, x: &mut [Mat]) {
        let (fwd, bwd) = self.traces();
        solve_in_place_with(self, comm, x, Scans::Replay { fwd, bwd });
    }
}

/// The cross-rank scans one solve runs.
#[derive(Clone, Copy)]
enum Scans<'a> {
    /// The accelerated replay: only `M x R` panels travel, combined
    /// against the recorded traces.
    Replay {
        fwd: &'a ScanTrace,
        bwd: &'a ScanTrace,
    },
    /// Classic recursive doubling: fresh affine pairs travel, built
    /// from the local prefix totals `F_{hi-1} ... F_lo` and
    /// `G_lo ... G_{hi-1}`, and every combine pays the `O(M^3)` product.
    Fresh {
        fwd_total: &'a Mat,
        bwd_total: &'a Mat,
    },
}

impl Scans<'_> {
    /// Exclusive scan of this rank's local total along `dir`: the
    /// boundary value `z_{lo-1}` (forward) or `x_hi` (backward), or
    /// `None` on the logically first rank.
    fn exclusive<C: CommBackend>(self, comm: &mut C, dir: Direction, total: Mat) -> Option<Mat> {
        let forward = dir == Direction::Forward;
        let tag = if forward {
            tags::FWD_SOLVE
        } else {
            tags::BWD_SOLVE
        };
        match self {
            Scans::Replay { fwd, bwd } => {
                let trace = if forward { fwd } else { bwd };
                affine_exscan_replay(comm, dir, tag, total, trace)
            }
            Scans::Fresh {
                fwd_total,
                bwd_total,
            } => {
                let mat = if forward { fwd_total } else { bwd_total }.clone();
                affine_exscan_fresh(comm, dir, tag, AffinePair { mat, vec: total }, None)
            }
        }
    }
}

/// Unit roundoff `u` of `f64`: the correction window ends where the
/// boundary's influence falls to this relative size.
pub(crate) const UNIT_ROUNDOFF: f64 = f64::EPSILON / 2.0;

/// True when `norm` exceeds `limit` or is NaN, so a non-finite factor
/// keeps its rows in the window (and its propagation).
pub(crate) fn exceeds(norm: f64, limit: f64) -> bool {
    norm > limit || norm.is_nan()
}

/// True while a product of transfer factors can still move a solution
/// row by more than `u` times the boundary value: its 1-norm exceeds
/// [`UNIT_ROUNDOFF`].
pub(crate) fn exceeds_roundoff(product: &Mat) -> bool {
    exceeds(one_norm(product), UNIT_ROUNDOFF)
}

/// One boundary correction pass: `δ_k = T_k δ_{k-1}` from `δ = boundary`,
/// added into `x[k]` for each row `rows` yields (nearest the boundary
/// first), with `T_k` from `factor`. Each row costs one
/// `M x M · M x R` GEMM plus an `M x R` add; the two `δ` panels (the
/// boundary and one scratch) swap roles every row.
fn correct<'a, C: CommBackend>(
    comm: &mut C,
    x: &mut [Mat],
    rows: impl Iterator<Item = usize>,
    factor: impl Fn(usize) -> &'a Mat,
    boundary: Mat,
) {
    let (m, r) = boundary.shape();
    let mut delta = boundary;
    let mut next = Mat::zeros(m, r);
    for k in rows {
        gemm(1.0, factor(k), Trans::No, &delta, Trans::No, 0.0, &mut next);
        x[k].add_assign(&next);
        comm.compute(gemm_flops(m, m, r) + (m * r) as u64);
        std::mem::swap(&mut delta, &mut next);
    }
}

/// The one solve body: forward substitution `z_i = F_i z_{i-1} + y_i`,
/// the diagonal step `h_i = E_i z_i`, backward substitution
/// `x_i = G_i x_{i+1} + h_i`, all in place in `x` (`y -> z -> h -> x`).
///
/// Each substitution makes one in-place sweep, then a truncated
/// boundary correction. Every rank runs the recurrence from a zero
/// boundary directly in `x`; its last value is the local total the
/// cross-rank scan combines. The scan's exclusive vector *is* the
/// boundary value `z_{lo-1}` (`x_hi` backward), and its influence on row
/// `k` is `(F_k ... F_lo) z_{lo-1}`. So a non-first rank adds
/// `δ_k = F_k δ_{k-1}` (with `δ_{lo-1} = z_{lo-1}`) over the forward
/// window only, and a non-last rank mirrors it with `G_k` over the
/// backward window ([`ReplayFactors::windows`]). Beyond a window every
/// product has 1-norm at most `u`, so each dropped term is at most
/// `u ||z_{lo-1}||` per column. The only per-row factors are `E_i`,
/// `F_i` and `G_i`, and every per-row step is one `M x M · M x R` GEMM.
/// Besides the scans' panels, a solve allocates one diagonal scratch,
/// the two local totals and one scratch per correction window, none of
/// them per row.
fn solve_in_place_with<C: CommBackend, L: ReplayFactors + ?Sized>(
    factors: &L,
    comm: &mut C,
    x: &mut [Mat],
    scans: Scans<'_>,
) {
    let nl = factors.rows();
    assert_eq!(x.len(), nl, "rhs panel count mismatch");
    let (m, r) = x[0].shape();
    for (k, p) in x.iter().enumerate() {
        assert_eq!(p.shape(), (m, r), "rhs panel {k} shape mismatch");
    }
    let (w_fwd, w_bwd) = factors.windows();

    // ---- Phase 2: forward substitution. ---------------------------------
    let span_fwd = bt_obs::span("solver", "solve.forward");
    for k in 1..nl {
        let (done, rest) = x.split_at_mut(k);
        gemm(
            1.0,
            factors.f(k),
            Trans::No,
            &done[k - 1],
            Trans::No,
            1.0,
            &mut rest[0],
        );
        comm.compute(gemm_flops(m, m, r));
    }
    let total = x[nl - 1].clone();
    if let Some(z_before) = scans.exclusive(comm, Direction::Forward, total) {
        correct(comm, x, 0..w_fwd, |k| factors.f(k), z_before);
    }
    drop(span_fwd);

    // ---- h_i = E_i z_i: a GEMM may not write the panel it reads, so
    // the product lands in one scratch panel that is swapped into `x`;
    // the replaced panel is the next row's scratch. -------------------------
    {
        let _span = bt_obs::span("solver", "solve.diag");
        let mut h = Mat::zeros(m, r);
        for (k, xk) in x.iter_mut().enumerate() {
            gemm(
                1.0,
                factors.d_inv(k),
                Trans::No,
                &*xk,
                Trans::No,
                0.0,
                &mut h,
            );
            comm.compute(lu_solve_flops(m, r));
            std::mem::swap(xk, &mut h);
        }
    }

    // ---- Phase 3: backward substitution, the mirror image. --------------
    let _span_bwd = bt_obs::span("solver", "solve.backward");
    for k in (0..nl - 1).rev() {
        let (head, tail) = x.split_at_mut(k + 1);
        gemm(
            1.0,
            factors.g(k),
            Trans::No,
            &tail[0],
            Trans::No,
            1.0,
            &mut head[k],
        );
        comm.compute(gemm_flops(m, m, r));
    }
    let total = x[0].clone();
    if let Some(x_after) = scans.exclusive(comm, Direction::Backward, total) {
        let rows = (nl - w_bwd..nl).rev();
        correct(comm, x, rows, |k| factors.g(k), x_after);
    }
}

/// `chain[last] ... chain[1] chain[0]`: each factor multiplies the
/// running product on the left, charging the cost model per product.
/// Setup folds the two local prefix totals the cross-rank scans need
/// with it, `F_{hi-1} ... F_lo` and `G_lo ... G_{hi-1}`.
///
/// Also returns the chain's correction window: one past the last prefix
/// product `chain[k] ... chain[0]` whose 1-norm exceeds unit roundoff
/// (0 if none does). It costs one 1-norm per product and no GEMM.
fn left_product<'a, C: CommBackend>(
    comm: &mut C,
    mut chain: impl Iterator<Item = &'a Mat>,
) -> (Mat, usize) {
    let mut acc = chain.next().expect("a rank owns at least one row").clone();
    let m = acc.rows();
    let mut next = Mat::zeros(m, m);
    let mut window = usize::from(exceeds_roundoff(&acc));
    for (k, factor) in chain.enumerate() {
        gemm(1.0, factor, Trans::No, &acc, Trans::No, 0.0, &mut next);
        comm.compute(gemm_flops(m, m, m));
        std::mem::swap(&mut acc, &mut next);
        if exceeds_roundoff(&acc) {
            window = k + 2;
        }
    }
    (acc, window)
}

/// Matrix-dependent state produced by setup and reused across solves:
/// per owned row `E_i = D_i^{-1}`, `F_i` and `G_i`, plus the recorded
/// cross-rank scan traces. The source system, Phase 1's companion scan
/// and the boundary extraction, and every factor are `f64`.
#[derive(Debug)]
pub struct ArdRankFactors {
    /// Owned range and sizes (copied from the [`RankSystem`]).
    pub n: usize,
    /// Block order.
    pub m: usize,
    /// First owned global row.
    pub lo: usize,
    /// One past the last owned global row.
    pub hi: usize,
    /// `E_i = D_i^{-1}` for each owned row.
    d_inv: Vec<Mat>,
    /// `F_i = -A_i E_{i-1}` for each owned row (`F_0 = 0`).
    f: Vec<Mat>,
    /// `G_i = -E_i C_i` for each owned row (`G_{N-1} = 0`).
    g: Vec<Mat>,
    /// Classic recursive doubling only: the local prefix totals
    /// `(F_{hi-1} ... F_lo, G_lo ... G_{hi-1})` every fresh scan starts
    /// from. `None` when traces were recorded (accelerated mode).
    fresh_totals: Option<(Mat, Mat)>,
    /// Recorded forward cross-rank scan matrices (empty for classic
    /// recursive doubling, which re-scans fresh every solve).
    fwd_trace: ScanTrace,
    /// Backward counterpart of `fwd_trace`.
    bwd_trace: ScanTrace,
    /// `(forward, backward)` correction windows (see
    /// [`ReplayFactors::windows`]).
    windows: (usize, usize),
    /// Worst boundary-extraction 1-norm condition estimate across ranks
    /// (1.0 for windowed mode / single-rank worlds).
    boundary_cond: f64,
}

impl ArdRankFactors {
    /// Runs the full matrix-dependent setup: Phase 1 and the matrix
    /// components of the Phase 2/3 scans. Collective: every rank must
    /// call it together.
    ///
    /// Phase 1 recovers the boundary diagonal in the mode the slice was
    /// built for ([`RankSystem::from_source`] or
    /// [`RankSystem::from_source_windowed`]); every rank's slice must be
    /// built the same way. `record_traces = true` (the accelerated
    /// algorithm) additionally records the cross-rank scan matrices so
    /// later solves can replay them; `false` builds the transient state
    /// classic recursive doubling computes per solve.
    ///
    /// # Errors
    ///
    /// [`FactorError`] — on **every** rank (failure is agreed upon
    /// collectively, so no rank deadlocks) — if some block diagonal `D_i`
    /// is singular.
    pub fn setup<C: CommBackend>(
        comm: &mut C,
        sys: &RankSystem,
        record_traces: bool,
    ) -> Result<Self, FactorError> {
        let m = sys.m;

        // ---- Phase 1a: local companion product total. -------------------
        // Rank p contributes the product of W_i over i in
        // [max(lo, 1), hi - 1]; the last rank's contribution is never
        // consumed by the exclusive scan (and would need the undefined
        // C_{N-1}^{-1}), so it stays the identity. Failures here (singular
        // C_i) are deferred until after the collective phases so no peer
        // deadlocks mid-scan.
        let mut pending_err: Option<FactorError> = None;
        let mut total = CompanionProduct::identity(m);
        let scanning = sys.boundary == BoundaryMode::ExactScan;
        let span_companion = bt_obs::span("solver", "phase1.local_companion");
        if scanning && comm.rank() + 1 < comm.size() {
            for i in sys.lo.max(1)..sys.hi {
                let row = &sys.rows[i - sys.lo];
                match CompanionW::from_row(row) {
                    Ok(w) => {
                        comm.compute(CompanionW::build_flops(m));
                        total.apply_left(&w);
                        comm.compute(CompanionProduct::apply_left_flops(m));
                    }
                    Err(source) => {
                        pending_err = Some(FactorError { row: i, source });
                        total = CompanionProduct::identity(m);
                        break;
                    }
                }
            }
        }

        drop(span_companion);

        // ---- Phase 1b: cross-rank exclusive scan of the products. -------
        // Windowed mode needs no Phase 1 communication at all.
        let excl = {
            let _span = bt_obs::span("solver", "phase1.exscan");
            if scanning {
                companion_exscan(comm, tags::PHASE1, total)
            } else {
                None
            }
        };

        // ---- Phase 1c/1d: boundary diagonal and local factor pass. ------
        let span_factor = bt_obs::span("solver", "phase1.local_factor");
        let local = match pending_err {
            Some(e) => Err(e),
            None => Self::local_factor_pass(comm, sys, excl.as_ref()),
        };
        drop(span_factor);

        // ---- All ranks agree before the next collective phase, so a
        // singular diagonal cannot deadlock peers blocked in a scan. ----
        let (d_inv, f, g, my_cond) = agree_on_setup(comm, local)?;
        // Agree on the worst boundary-extraction conditioning: the suite's
        // self-diagnostic for the prefix method's accuracy envelope.
        let boundary_cond = comm.allreduce(
            if my_cond.is_finite() {
                my_cond
            } else {
                f64::MAX
            },
            |a, b| a.max(*b),
        );

        // ---- Phase 2/3 matrix components: the local prefix totals. ------
        let span_prefixes = bt_obs::span("solver", "setup.local_prefixes");
        let (fwd_total, w_fwd) = left_product(comm, f.iter());
        let (bwd_total, w_bwd) = left_product(comm, g.iter().rev());
        drop(span_prefixes);

        let mut fwd_trace = ScanTrace::default();
        let mut bwd_trace = ScanTrace::default();
        let fresh_totals = if record_traces {
            let _span = bt_obs::span("solver", "setup.record_scans");
            // Zero-width vectors: the scans run their full matrix work and
            // message pattern while carrying no right-hand-side data.
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
            None
        } else {
            Some((fwd_total, bwd_total))
        };

        Ok(Self {
            n: sys.n,
            m,
            lo: sys.lo,
            hi: sys.hi,
            d_inv,
            f,
            g,
            fresh_totals,
            fwd_trace,
            bwd_trace,
            windows: (w_fwd, w_bwd),
            boundary_cond,
        })
    }

    /// Worst 1-norm condition estimate of the Phase 1 boundary
    /// extraction across all ranks (identical on every rank).
    ///
    /// The extraction's relative error is roughly
    /// `machine_eps * boundary_condition()`, so values approaching
    /// `1/eps ~ 1e16` predict the accuracy degradation (and eventual
    /// breakdown) quantified in Table III; values near 1 mean the exact
    /// scan is operating at full precision. Windowed-mode factors report
    /// 1.0 (no extraction).
    pub fn boundary_condition(&self) -> f64 {
        self.boundary_cond
    }

    /// Phase 1c/1d: recover the boundary diagonal `D_{lo-1}` from the
    /// scanned companion product, then run the local Thomas-style pass.
    /// Produces, per owned row, `E_i = D_i^{-1}`, `F_i` and `G_i`, plus a
    /// conditioning estimate of the boundary extraction (1.0 where no
    /// extraction happened).
    #[allow(clippy::type_complexity)]
    fn local_factor_pass<C: CommBackend>(
        comm: &mut C,
        sys: &RankSystem,
        excl: Option<&CompanionProduct>,
    ) -> Result<(Vec<Mat>, Vec<Mat>, Vec<Mat>, f64), FactorError> {
        let m = sys.m;
        let nl = sys.local_len();
        let mut d_inv: Vec<Mat> = Vec::with_capacity(nl);
        let mut f: Vec<Mat> = Vec::with_capacity(nl);
        let mut boundary_cond = 1.0f64;

        // Rank 0 owns row 0: D_0 = B_0 directly, no companion needed.
        // Other ranks reconstruct D_{lo-1}: from the scanned companion
        // product (exact), or by the windowed warm-started recurrence.
        let boundary_diag = if sys.lo == 0 {
            sys.rows[0].b.clone()
        } else {
            match sys.boundary {
                BoundaryMode::ExactScan => {
                    let mut state = CompanionState::initial(&sys.row0)
                        .map_err(|source| FactorError { row: 0, source })?;
                    comm.compute(CompanionState::initial_flops(m));
                    if let Some(g_excl) = excl {
                        state.apply_product(g_excl);
                        comm.compute(CompanionState::apply_product_flops(m));
                    }
                    // Extraction error amplifies by cond(V): record it so
                    // callers can predict the accuracy envelope
                    // (DESIGN.md §7) before ever solving.
                    boundary_cond = bt_dense::cond_1(&state.v);
                    let d = state
                        .extract_diag(&sys.c_prev)
                        .map_err(|source| FactorError {
                            row: sys.lo - 1,
                            source,
                        })?;
                    comm.compute(CompanionState::extract_flops(m));
                    d
                }
                BoundaryMode::Windowed(_) => Self::windowed_boundary(comm, sys)?,
            }
        };

        // E_{lo-1}, the left neighbour's inverse: needed only to form
        // F_lo on ranks that do not own row 0.
        let e_before = match sys.lo {
            0 => None,
            lo => Some(invert_diag(comm, &boundary_diag, lo - 1)?),
        };
        for k in 0..nl {
            let i = sys.lo + k;
            let row = &sys.rows[k];
            if i == 0 {
                // boundary_diag IS D_0 = B_0, and F_0 = 0 (A_0 = 0).
                d_inv.push(invert_diag(comm, &boundary_diag, 0)?);
                f.push(Mat::zeros(m, m));
                continue;
            }
            let e_prev = d_inv
                .last()
                .or(e_before.as_ref())
                .expect("row 0 or the boundary was inverted above");
            // F_i = -A_i E_{i-1}.
            let f_i = neg_product(comm, &row.a, e_prev);
            // D_i = B_i + F_i C_{i-1}.
            let mut d_i = row.b.clone();
            gemm(
                1.0,
                &f_i,
                Trans::No,
                sys.c_before(i),
                Trans::No,
                1.0,
                &mut d_i,
            );
            comm.compute(gemm_flops(m, m, m));
            d_inv.push(invert_diag(comm, &d_i, i)?);
            f.push(f_i);
        }

        // G_i = -E_i C_i (automatically zero at i = N-1).
        let g = d_inv
            .iter()
            .zip(&sys.rows)
            .map(|(e, row)| neg_product(comm, e, &row.c))
            .collect();

        Ok((d_inv, f, g, boundary_cond))
    }

    /// Windowed boundary recovery: runs the plain block-LU diagonal
    /// recurrence over `sys.window_rows`, warm-started from the window's
    /// first diagonal block. Returns `D_{lo-1}` up to the geometrically
    /// small warm-start residue.
    fn windowed_boundary<C: CommBackend>(
        comm: &mut C,
        sys: &RankSystem,
    ) -> Result<Mat, FactorError> {
        assert!(
            !sys.window_rows.is_empty(),
            "BoundaryMode::Windowed needs a window of at least one row"
        );
        let m = sys.m;
        let w = sys.window_rows.len();
        let first_row = sys.lo - w;
        let mut d = sys.window_rows[0].b.clone();
        for j in 1..w {
            let lu = LuFactors::factor(&d).map_err(|source| FactorError {
                row: first_row + j - 1,
                source,
            })?;
            comm.compute(lu_flops(m));
            let row = &sys.window_rows[j];
            // L = A_j D_{j-1}^{-1}; D_j = B_j - L C_{j-1}.
            let l = lu.solve_transposed_system(&row.a);
            comm.compute(lu_solve_flops(m, m));
            let mut next = row.b.clone();
            gemm(
                -1.0,
                &l,
                Trans::No,
                &sys.window_rows[j - 1].c,
                Trans::No,
                1.0,
                &mut next,
            );
            comm.compute(gemm_flops(m, m, m));
            d = next;
        }
        // The window ends at row lo - 1, so `d` is D_{lo-1}.
        Ok(d)
    }

    /// Number of owned rows.
    pub fn local_len(&self) -> usize {
        self.hi - self.lo
    }

    /// Bytes of matrix-dependent state stored on this rank (the memory
    /// price of acceleration; Table II): `E_i = D_i^{-1}`, `F_i` and `G_i` per
    /// owned row plus the recorded scan traces (classic-RD factors hold
    /// the two fresh-scan prefix totals instead of traces).
    pub fn storage_bytes(&self) -> u64 {
        let mat_bytes = (self.m * self.m * std::mem::size_of::<f64>()) as u64;
        let totals = if self.fresh_totals.is_some() { 2 } else { 0 };
        (3 * self.local_len() as u64 + totals) * mat_bytes
            + self.fwd_trace.storage_bytes()
            + self.bwd_trace.storage_bytes()
    }

    /// Solves one batch in place with **fresh** scans (classic recursive
    /// doubling's per-solve Phase 2/3): full pairs travel and every scan
    /// combine pays the `O(M^3)` product. Collective.
    ///
    /// # Panics
    ///
    /// Panics if setup was run with `record_traces = true`, or on panel
    /// shape mismatch.
    pub fn solve_fresh<C: CommBackend>(&self, comm: &mut C, x: &mut [Mat]) {
        let (fwd_total, bwd_total) = self
            .fresh_totals
            .as_ref()
            .expect("solve_fresh requires setup(record_traces = false)");
        solve_in_place_with(
            self,
            comm,
            x,
            Scans::Fresh {
                fwd_total,
                bwd_total,
            },
        );
    }
}

impl ReplayFactors for ArdRankFactors {
    fn rows(&self) -> usize {
        self.local_len()
    }

    fn d_inv(&self, k: usize) -> &Mat {
        &self.d_inv[k]
    }

    fn f(&self, k: usize) -> &Mat {
        &self.f[k]
    }

    fn g(&self, k: usize) -> &Mat {
        &self.g[k]
    }

    fn traces(&self) -> (&ScanTrace, &ScanTrace) {
        assert!(
            self.fresh_totals.is_none(),
            "a replay requires setup(record_traces = true)"
        );
        (&self.fwd_trace, &self.bwd_trace)
    }

    fn windows(&self) -> (usize, usize) {
        self.windows
    }
}

/// `D^{-1}` of block diagonal `d` (global row `row`): factored once with
/// partial pivoting, so a singular `D_i` fails with the same
/// [`FactorError`] the factorization reports, then inverted. Charges the
/// factorization plus the inverse's `M`-column panel solve.
pub(crate) fn invert_diag<C: CommBackend>(
    comm: &mut C,
    d: &Mat,
    row: usize,
) -> Result<Mat, FactorError> {
    let m = d.rows();
    let lu = LuFactors::factor(d).map_err(|source| FactorError { row, source })?;
    comm.compute(lu_flops(m));
    let inv = lu.inverse();
    comm.compute(lu_solve_flops(m, m));
    Ok(inv)
}

/// `-a b` for square `M x M` factors, charging the cost model: how setup
/// forms `F_i = -A_i E_{i-1}` and `G_i = -E_i C_i`.
pub(crate) fn neg_product<C: CommBackend>(comm: &mut C, a: &Mat, b: &Mat) -> Mat {
    let m = a.rows();
    let mut p = Mat::zeros(m, m);
    gemm(-1.0, a, Trans::No, b, Trans::No, 0.0, &mut p);
    comm.compute(gemm_flops(m, m, m));
    p
}

/// Agrees on one setup outcome across ranks before the next collective,
/// so no rank deadlocks waiting on a peer that failed. A success costs
/// one `u64` allreduce of each rank's failing row (`u64::MAX` for none).
/// On failure every rank returns the lowest failing row, with the
/// elimination step and pivot of the rank that detected it.
pub(crate) fn agree_on_setup<T, C: CommBackend>(
    comm: &mut C,
    local: Result<T, FactorError>,
) -> Result<T, FactorError> {
    let mine = local.as_ref().err().map_or(u64::MAX, |e| e.row as u64);
    let first = comm.allreduce(mine, |a, b| (*a).min(*b));
    agree_on_row(comm, local, first)
}

/// [`agree_on_setup`] once every rank knows the first failing row
/// `first` (`u64::MAX` for none). Only a failure pays a collective here:
/// one allreduce carries the lowest detecting rank's step and pivot to
/// everyone. Owning the row does not identify that rank, since rank `r`
/// extracts row `lo - 1` from its own scan.
pub(crate) fn agree_on_row<T, C: CommBackend>(
    comm: &mut C,
    local: Result<T, FactorError>,
    first: u64,
) -> Result<T, FactorError> {
    if first == u64::MAX {
        return local;
    }
    let mine = match &local {
        Err(e) if e.row as u64 == first => {
            (comm.rank() as u64, e.source.step as u64, e.source.pivot)
        }
        _ => (u64::MAX, 0, 0.0),
    };
    let (_, step, pivot) = comm.allreduce(mine, |a, b| if b.0 < a.0 { *b } else { *a });
    Err(FactorError {
        row: first as usize,
        source: SingularError {
            step: step as usize,
            pivot,
        },
    })
}
