//! Persistent solve sessions: factor once, solve whenever.
//!
//! The drivers in [`crate::driver`] run setup and all solves inside one
//! SPMD world, which requires every right-hand side to be known up
//! front. Real applications (implicit time steppers, optimizers) produce
//! right-hand sides one at a time, often *computed from previous
//! solutions*. An [`ArdSession`] holds the per-rank factor state between
//! calls: `create` runs the collective setup once, and each
//! [`ArdSession::solve`] launches an SPMD world that reuses the stored
//! factors — `O(M^2 R (N/P + log P))` per call, no matrix work ever
//! again.
//!
//! ## One factor type
//!
//! Every parallel solver in the suite splits the same way: a
//! right-hand-side-independent setup, then cheap solves. [`RankFactors`]
//! holds one rank's factors of any [`FactorKind`] — the paper's general
//! layout in either boundary mode, the constant-block Toeplitz layout,
//! PCR or SPIKE — so the drivers, a session
//! ([`ArdSession::create_with`]) and refinement each run one code path
//! for all of them.
//!
//! ## Concurrency semantics
//!
//! A session is its factors: one read-only [`RankFactors`] per rank,
//! shared by every solve through an `Arc`, so concurrent solves on
//! fresh worlds run at the same time, solves on a persistent world take
//! turns on that world, and a panicking solve loses nothing. Batching
//! right-hand sides into one wide panel (see [`crate::service`]) is
//! still the faster shape, by the paper's `O(R)` amortization argument.
//!
//! ## World reuse
//!
//! By default each solve launches a fresh SPMD world (tens of
//! microseconds of thread spawn per rank). For high-call-rate use —
//! thousands of small replay solves per second through a
//! [`crate::service::SolverService`] — [`ArdSession::set_world_reuse`]
//! keeps a persistent [`SpmdWorld`] alive between calls, removing the
//! spawn cost from every solve. Results are identical either way.

use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use bt_blocktri::{BlockRowSource, BlockVec, FactorError, RowPartition};
use bt_comm::{Comm, CommBackend, CostModel, SimBackend, SpmdBackend, SpmdOutput, SpmdWorld};
use bt_dense::Mat;

use crate::pcr::PcrRankFactors;
use crate::refine::RefinedSolve;
use crate::spike::SpikeRankFactors;
use crate::state::{ArdRankFactors, BoundaryMode, RankSystem, ReplayFactors};
use crate::toeplitz::ToeplitzRankFactors;

/// Which factorization [`RankFactors::setup`] builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FactorKind {
    /// The paper's accelerated recursive doubling with per-row factors
    /// ([`ArdRankFactors`]), recovering Phase 1's boundary in the given
    /// mode.
    General(BoundaryMode),
    /// The constant-block layout ([`ToeplitzRankFactors`]): a short head
    /// plus one shared tail, so factor storage is `O(head)` instead of
    /// `O(N/P)` per rank. Only for sources that pass
    /// [`crate::detect_toeplitz`]: setup debug-asserts constancy but does
    /// not re-verify it in release builds.
    Toeplitz,
    /// Amortized parallel cyclic reduction ([`PcrRankFactors`]).
    Pcr,
    /// SPIKE partitioning ([`SpikeRankFactors`]).
    Spike,
}

impl FactorKind {
    /// Short algorithm label for trace span arguments.
    pub(crate) fn name(self) -> &'static str {
        match self {
            FactorKind::General(_) => "ard",
            FactorKind::Toeplitz => "toeplitz",
            FactorKind::Pcr => "pcr",
            FactorKind::Spike => "spike",
        }
    }

    /// Rank `rank`-of-`p`'s slice of `src`, with the window rows a
    /// windowed general kind recovers its boundary from.
    pub(crate) fn rank_system(self, src: &dyn BlockRowSource, p: usize, rank: usize) -> RankSystem {
        match self {
            FactorKind::General(BoundaryMode::Windowed(w)) => {
                RankSystem::from_source_windowed(src, p, rank, w)
            }
            _ => RankSystem::from_source(src, p, rank),
        }
    }
}

/// One rank's factors of any [`FactorKind`]: what the drivers, a session
/// and refinement set up once and then solve with. The general and
/// Toeplitz layouts run the one replay body ([`ReplayFactors`]); PCR and
/// SPIKE run their own solves.
#[derive(Debug)]
pub enum RankFactors {
    /// [`FactorKind::General`].
    General(ArdRankFactors),
    /// [`FactorKind::Toeplitz`].
    Toeplitz(ToeplitzRankFactors),
    /// [`FactorKind::Pcr`].
    Pcr(PcrRankFactors),
    /// [`FactorKind::Spike`].
    Spike(SpikeRankFactors),
}

impl RankFactors {
    /// Runs `kind`'s collective setup on this rank's slice.
    ///
    /// # Errors
    ///
    /// [`FactorError`], agreed on by every rank, when the matrix violates
    /// the kind's requirements.
    ///
    /// # Panics
    ///
    /// Panics if a general kind's boundary mode is not the one `sys` was
    /// built for: [`BoundaryMode::ExactScan`] by
    /// [`RankSystem::from_source`], [`BoundaryMode::Windowed`]`(w)` by
    /// [`RankSystem::from_source_windowed`]`(.., w)`.
    pub fn setup<C: CommBackend>(
        comm: &mut C,
        sys: &RankSystem,
        kind: FactorKind,
    ) -> Result<Self, FactorError> {
        Ok(match kind {
            FactorKind::General(mode) => {
                assert_eq!(sys.boundary, mode, "slice built for another boundary mode");
                RankFactors::General(ArdRankFactors::setup(comm, sys, true)?)
            }
            FactorKind::Toeplitz => RankFactors::Toeplitz(ToeplitzRankFactors::setup(comm, sys)?),
            FactorKind::Pcr => RankFactors::Pcr(PcrRankFactors::setup(comm, sys)?),
            FactorKind::Spike => RankFactors::Spike(SpikeRankFactors::setup(comm, sys)?),
        })
    }

    /// Solves one right-hand-side batch in place: `x[k]` holds the
    /// `M x R` panel of global row `lo + k` on entry and its solution on
    /// return. Collective.
    ///
    /// # Panics
    ///
    /// Panics on panel count or shape mismatch.
    pub fn solve_in_place<C: CommBackend>(&self, comm: &mut C, x: &mut [Mat]) {
        match self {
            RankFactors::General(f) => f.solve_in_place(comm, x),
            RankFactors::Toeplitz(f) => f.solve_in_place(comm, x),
            RankFactors::Pcr(f) => f.solve_in_place(comm, x),
            RankFactors::Spike(f) => f.solve_in_place(comm, x),
        }
    }

    /// Solves `y_local` followed by up to `max_sweeps`
    /// iterative-refinement sweeps against `sys`, stopping at relative
    /// residual `tol`; see [`crate::refine`]. Collective; all ranks
    /// receive the same `history`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn solve_refined<C: CommBackend>(
        &self,
        comm: &mut C,
        sys: &RankSystem,
        y_local: &[Mat],
        max_sweeps: usize,
        tol: f64,
    ) -> RefinedSolve {
        crate::refine::solve_refined(self, comm, sys, y_local, max_sweeps, tol)
    }

    /// Bytes of factor state stored on this rank.
    pub fn storage_bytes(&self) -> u64 {
        match self {
            RankFactors::General(f) => f.storage_bytes(),
            RankFactors::Toeplitz(f) => f.storage_bytes(),
            RankFactors::Pcr(f) => f.storage_bytes(),
            RankFactors::Spike(f) => f.storage_bytes(),
        }
    }

    /// Worst boundary-extraction condition estimate across ranks (see
    /// [`ArdRankFactors::boundary_condition`]); 1.0 for PCR and SPIKE,
    /// which extract no boundary.
    pub fn boundary_condition(&self) -> f64 {
        match self {
            RankFactors::General(f) => f.boundary_condition(),
            RankFactors::Toeplitz(f) => f.boundary_condition(),
            RankFactors::Pcr(_) | RankFactors::Spike(_) => 1.0,
        }
    }

    /// The replay's `(forward, backward)` correction windows (see
    /// [`ReplayFactors::windows`]); `(0, 0)` for PCR and SPIKE.
    pub fn windows(&self) -> (usize, usize) {
        match self {
            RankFactors::General(f) => f.windows(),
            RankFactors::Toeplitz(f) => f.windows(),
            RankFactors::Pcr(_) | RankFactors::Spike(_) => (0, 0),
        }
    }
}

/// A reusable accelerated-solver session.
///
/// # Examples
///
/// ```
/// use bt_ard::session::ArdSession;
/// use bt_blocktri::gen::{materialize, random_rhs, ClusteredToeplitz};
/// use bt_mpsim::CostModel;
///
/// let src = ClusteredToeplitz::standard(48, 4, 1);
/// let session = ArdSession::create(4, CostModel::cluster(), &src).unwrap();
///
/// // Right-hand sides arrive one at a time; each solve reuses the
/// // factors computed in `create`.
/// let t = materialize(&src);
/// let mut y = random_rhs(48, 4, 2, 9);
/// for _ in 0..3 {
///     let x = session.solve(&y).unwrap();
///     assert!(t.rel_residual(&x, &y) < 1e-10);
///     y = x; // feed the solution back in (a crude time stepper)
/// }
/// ```
pub struct ArdSessionOn<B: SpmdBackend> {
    p: usize,
    n: usize,
    m: usize,
    model: CostModel,
    part: RowPartition,
    /// Rank `r`'s factors at index `r`: read by every solve, written by
    /// none.
    factors: Arc<[RankFactors]>,
    /// When world reuse is on, the persistent world (built lazily).
    world: Mutex<Option<SpmdWorld>>,
    /// Whether solves run on `world` (see [`ArdSessionOn::set_world_reuse`]).
    reuse_world: AtomicBool,
    /// The clock solves report (`fn() -> B` keeps the session `Send` and
    /// `Sync` whatever the selector type).
    clock: PhantomData<fn() -> B>,
}

/// The session reporting the modeled clock — the spelling almost all
/// code uses; the generic [`ArdSessionOn`] runs the same factors and
/// worlds under either [`SpmdBackend`] clock (e.g. `bt_shm::ShmBackend`
/// for wall-clock serving).
pub type ArdSession = ArdSessionOn<SimBackend>;

/// The per-rank slices of a refined solve's source, shared with the
/// ranks alongside its sweep budget and tolerance.
type Refinement = (Arc<[RankSystem]>, usize, f64);

impl<B: SpmdBackend> ArdSessionOn<B> {
    /// Runs the collective exact-scan setup of the paper's algorithm on
    /// `p` ranks and captures the factors.
    ///
    /// # Errors
    ///
    /// [`FactorError`] if setup breaks down.
    ///
    /// # Panics
    ///
    /// Panics if `src.n() < p`.
    pub fn create<S: BlockRowSource + Sync>(
        p: usize,
        model: CostModel,
        src: &S,
    ) -> Result<Self, FactorError> {
        Self::create_with(p, model, FactorKind::General(BoundaryMode::ExactScan), src)
    }

    /// [`ArdSession::create`] with factors of any [`FactorKind`]. Every
    /// kind solves through the same worlds and refinement. Each rank's
    /// slice of `src` is dropped once its setup returns: the session
    /// keeps only the factors.
    ///
    /// # Errors
    ///
    /// [`FactorError`] if setup breaks down.
    ///
    /// # Panics
    ///
    /// Panics if `src.n() < p`.
    pub fn create_with<S: BlockRowSource + Sync>(
        p: usize,
        model: CostModel,
        kind: FactorKind,
        src: &S,
    ) -> Result<Self, FactorError> {
        let n = src.n();
        let m = src.m();
        assert!(
            n >= p,
            "need at least one block row per rank (N={n}, P={p})"
        );
        let out = B::run(p, model, |comm| {
            RankFactors::setup(comm, &kind.rank_system(src, p, comm.rank()), kind)
        });
        Ok(Self {
            p,
            n,
            m,
            model,
            part: RowPartition::new(n, p),
            factors: out.results.into_iter().collect::<Result<_, _>>()?,
            world: Mutex::new(None),
            reuse_world: AtomicBool::new(false),
            clock: PhantomData,
        })
    }

    /// World size.
    pub fn ranks(&self) -> usize {
        self.p
    }

    /// Number of block rows `N`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Block order `M`.
    pub fn m(&self) -> usize {
        self.m
    }

    /// The cost model solves run under.
    pub fn model(&self) -> CostModel {
        self.model
    }

    /// Total stored factor bytes across ranks: all the per-rank state a
    /// session holds.
    pub fn factor_bytes(&self) -> u64 {
        self.factors.iter().map(RankFactors::storage_bytes).sum()
    }

    /// Switches persistent-world reuse on or off. When on, solves run on
    /// a lazily built, long-lived [`SpmdWorld`] instead of spawning `P`
    /// threads per call; when switched off, any persistent world is torn
    /// down. Results are identical either way.
    pub fn set_world_reuse(&self, on: bool) {
        self.reuse_world.store(on, Ordering::Relaxed);
        if !on {
            *self
                .world
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner) = None;
        }
    }

    /// Solves one right-hand-side batch with the stored factors. Costs
    /// one copy of `y`: the copy's panels move to the ranks, are solved
    /// in place and move back as the solution.
    ///
    /// # Errors
    ///
    /// Never fails today (the factorization already succeeded); the
    /// `Result` is kept for API stability.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch. The factors survive the panic: the
    /// next solve runs as if it had not happened.
    pub fn solve(&self, y: &BlockVec) -> Result<BlockVec, FactorError> {
        Ok(self.solve_owned(y.clone()))
    }

    /// [`ArdSession::solve`] on an owned batch, with no copy: the
    /// service dispatcher hands over each request's own panels.
    pub(crate) fn solve_owned(&self, y: BlockVec) -> BlockVec {
        self.solve_inner(y, None).0
    }

    /// Solves with up to `max_sweeps` iterative-refinement sweeps against
    /// `src`, the matrix the session was created from (stopping at
    /// relative residual `tol`); returns the solution and the residual
    /// history (empty when `max_sweeps == 0`). The residuals read the
    /// matrix's rows, which the session does not keep: each call slices
    /// `src` again, on the caller's thread.
    ///
    /// # Errors
    ///
    /// Never fails today; kept for API stability.
    ///
    /// # Panics
    ///
    /// Panics if `src` is not `N x M` like the session, and on the
    /// conditions of [`ArdSession::solve`].
    pub fn solve_refined<S: BlockRowSource>(
        &self,
        src: &S,
        y: &BlockVec,
        max_sweeps: usize,
        tol: f64,
    ) -> Result<(BlockVec, Vec<f64>), FactorError> {
        assert_eq!(
            (src.n(), src.m()),
            (self.n, self.m),
            "source shape mismatch"
        );
        let refine = (max_sweeps > 0).then(|| {
            let slices = (0..self.p).map(|rank| RankSystem::from_source(src, self.p, rank));
            (slices.collect(), max_sweeps, tol)
        });
        Ok(self.solve_inner(y.clone(), refine))
    }

    fn solve_inner(&self, y: BlockVec, refine: Option<Refinement>) -> (BlockVec, Vec<f64>) {
        assert_eq!(y.n(), self.n, "rhs block count mismatch");
        assert_eq!(y.m(), self.m, "rhs block order mismatch");

        // Split the right-hand side into per-rank slices by moving its
        // panels (no copies), so the job closure can be `'static` for a
        // persistent world.
        let mut blocks = y.blocks;
        let mut slices: Vec<parking_lot::Mutex<Option<Vec<Mat>>>> = (0..self.p)
            .rev()
            .map(|rank| {
                let lo = self.part.range(rank).start;
                parking_lot::Mutex::new(Some(blocks.split_off(lo)))
            })
            .collect();
        slices.reverse();
        let factors = Arc::clone(&self.factors);

        // The caller's trace context (e.g. the service dispatcher's
        // batch/request ids) does not cross thread spawns by itself;
        // carry it into each rank's closure so per-rank replay and scan
        // spans stay attributable to the requests they serve.
        let ctx = bt_obs::ctx::current();
        let job = move |comm: &mut Comm| {
            let _ctx_guard = ctx.clone().map(bt_obs::ctx::enter);
            let _span = bt_obs::span("session", "replay.solve");
            let rank = comm.rank();
            let f = &factors[rank];
            let mut y_local = slices[rank].lock().take().expect("rhs slice present");
            // The replay runs in place in the rank's own panels;
            // refinement keeps `y_local` for its residuals.
            match &refine {
                None => {
                    f.solve_in_place(comm, &mut y_local);
                    (y_local, Vec::new())
                }
                Some((sys, sweeps, tol)) => {
                    let refined = f.solve_refined(comm, &sys[rank], &y_local, *sweeps, *tol);
                    (refined.x_local, refined.history)
                }
            }
        };

        // Reassemble by moving each rank's panels back, in rank order.
        let mut blocks = Vec::with_capacity(self.n);
        let mut history = Vec::new();
        for (panels, h) in self.run_world(job).results {
            blocks.extend(panels);
            history = h;
        }
        (BlockVec::from_blocks(blocks), history)
    }

    /// Runs `job` on the persistent world when reuse is on, else on a
    /// fresh world. A world that a panicking job killed is dropped here,
    /// and the next solve builds a new one.
    fn run_world<T, F>(&self, job: F) -> SpmdOutput<T>
    where
        T: Send + 'static,
        F: Fn(&mut Comm) -> T + Send + Sync + 'static,
    {
        if self.reuse_world.load(Ordering::Relaxed) {
            let mut wg = self
                .world
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let world = wg.get_or_insert_with(|| B::world(self.p, self.model));
            let out = catch_unwind(AssertUnwindSafe(|| world.run(job)));
            match out {
                Ok(out) => out,
                Err(e) => {
                    *wg = None;
                    drop(wg);
                    resume_unwind(e);
                }
            }
        } else {
            B::run(self.p, self.model, job)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bt_blocktri::gen::{materialize, random_rhs, ClusteredToeplitz, Poisson2D};
    use bt_mpsim::CostModel;

    const ZERO: CostModel = CostModel {
        latency_s: 0.0,
        per_byte_s: 0.0,
        flop_rate: f64::INFINITY,
        threads_per_rank: 1,
    };

    #[test]
    fn session_solves_many_batches() {
        let src = ClusteredToeplitz::standard(60, 4, 2);
        let t = materialize(&src);
        let session = ArdSession::create(4, ZERO, &src).unwrap();
        assert_eq!(session.ranks(), 4);
        assert_eq!((session.n(), session.m()), (60, 4));
        assert!(session.factor_bytes() > 0);
        for seed in 0..5 {
            let y = random_rhs(60, 4, 3, seed);
            let x = session.solve(&y).unwrap();
            assert!(t.rel_residual(&x, &y) < 1e-11, "seed {seed}");
        }
    }

    #[test]
    fn session_feedback_loop() {
        // Solutions feed back as right-hand sides — impossible with the
        // batch drivers, natural with a session.
        let src = ClusteredToeplitz::standard(32, 3, 4);
        let t = materialize(&src);
        let session = ArdSession::create(3, ZERO, &src).unwrap();
        let mut y = random_rhs(32, 3, 1, 0);
        for step in 0..4 {
            let x = session.solve(&y).unwrap();
            assert!(t.rel_residual(&x, &y) < 1e-11, "step {step}");
            y = x;
        }
    }

    #[test]
    fn session_refinement() {
        let src = Poisson2D::new(28, 5);
        let t = materialize(&src);
        let session = ArdSession::create(4, ZERO, &src).unwrap();
        let y = random_rhs(28, 5, 2, 3);
        let (x, history) = session.solve_refined(&src, &y, 6, 1e-13).unwrap();
        assert!(t.rel_residual(&x, &y) < 1e-12);
        assert!(!history.is_empty());
    }

    #[test]
    fn windowed_session() {
        let src = Poisson2D::new(200, 4);
        let t = materialize(&src);
        let kind = FactorKind::General(BoundaryMode::Windowed(64));
        let session = ArdSession::create_with(4, ZERO, kind, &src).unwrap();
        let y = random_rhs(200, 4, 2, 8);
        let x = session.solve(&y).unwrap();
        assert!(t.rel_residual(&x, &y) < 1e-11);
    }

    /// Every kind, one per row.
    const KINDS: [FactorKind; 5] = [
        FactorKind::General(BoundaryMode::ExactScan),
        FactorKind::General(BoundaryMode::Windowed(16)),
        FactorKind::Toeplitz,
        FactorKind::Pcr,
        FactorKind::Spike,
    ];

    #[test]
    fn every_kind_solves_and_agrees() {
        let src = ClusteredToeplitz::standard(48, 4, 5);
        let t = materialize(&src);
        let y = random_rhs(48, 4, 3, 2);
        let reference = ArdSession::create(4, ZERO, &src)
            .unwrap()
            .solve(&y)
            .unwrap();
        assert!(t.rel_residual(&reference, &y) < 1e-11);
        for kind in KINDS {
            let session = ArdSession::create_with(4, ZERO, kind, &src).unwrap();
            let x = session.solve(&y).unwrap();
            assert!(x.rel_diff(&reference) < 1e-10, "{kind:?}");
            // Same batch, same factors, same answer.
            assert_eq!(session.solve(&y).unwrap(), x, "{kind:?}");
        }
    }

    #[test]
    fn pcr_session_on_wide_spectrum() {
        // PCR sessions work where ARD's exact scan cannot.
        let src = Poisson2D::new(200, 5);
        let t = materialize(&src);
        let session = ArdSession::create_with(4, ZERO, FactorKind::Pcr, &src).unwrap();
        for seed in 0..3 {
            let y = random_rhs(200, 5, 2, seed);
            let x = session.solve(&y).unwrap();
            assert!(t.rel_residual(&x, &y) < 1e-11, "seed {seed}");
        }
        assert!(session.factor_bytes() > 0);
        assert_eq!(session.ranks(), 4);
    }

    /// A session and the driver run the same setup and solve for every
    /// kind, so their solutions agree bit for bit. The driver reports
    /// the largest rank's factor bytes, the session the sum over ranks.
    #[test]
    fn session_matches_driver() {
        use crate::driver::{run_driver_cfg_on, DriverConfig, Mode};
        let (n, m) = (64, 3);
        let src = ClusteredToeplitz::standard(n, m, 12);
        let batches = vec![random_rhs(n, m, 2, 1), random_rhs(n, m, 5, 2)];
        for p in [1, 3, 4] {
            let cfg = DriverConfig::new(p)
                .with_model(ZERO)
                .with_threads_per_rank(1);
            for kind in KINDS {
                let driver =
                    run_driver_cfg_on::<SimBackend, _>(&cfg, &src, &batches, Mode::Factored(kind))
                        .unwrap();
                let session = ArdSession::create_with(p, ZERO, kind, &src).unwrap();
                for (y, x) in batches.iter().zip(&driver.x) {
                    assert_eq!(&session.solve(y).unwrap(), x, "P={p} {kind:?}");
                }
                let per_rank = SimBackend::run(p, ZERO, |comm| {
                    let sys = kind.rank_system(&src, p, comm.rank());
                    RankFactors::setup(comm, &sys, kind)
                        .unwrap()
                        .storage_bytes()
                })
                .results;
                let widest = per_rank.iter().copied().max().unwrap();
                assert_eq!(driver.factor_bytes, widest, "P={p} {kind:?}");
                assert_eq!(
                    session.factor_bytes(),
                    per_rank.iter().sum::<u64>(),
                    "P={p} {kind:?}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "rhs block count mismatch")]
    fn shape_mismatch_rejected() {
        let src = ClusteredToeplitz::standard(16, 3, 1);
        let session = ArdSession::create(2, ZERO, &src).unwrap();
        let bad = random_rhs(8, 3, 1, 0);
        let _ = session.solve(&bad);
    }

    #[test]
    fn concurrent_solves_from_two_threads() {
        // Fresh-world solves share the factors and overlap; each answer
        // must equal the serial one bit for bit.
        let src = ClusteredToeplitz::standard(48, 4, 11);
        let session = ArdSession::create(4, ZERO, &src).unwrap();
        let ys: Vec<Vec<BlockVec>> = (0..2)
            .map(|tid| {
                (0..4)
                    .map(|round| random_rhs(48, 4, 2, 100 * tid + round))
                    .collect()
            })
            .collect();
        let serial: Vec<Vec<BlockVec>> = ys
            .iter()
            .map(|batches| batches.iter().map(|y| session.solve(y).unwrap()).collect())
            .collect();
        std::thread::scope(|scope| {
            for (batches, expect) in ys.iter().zip(&serial) {
                let session = &session;
                scope.spawn(move || {
                    for (y, x) in batches.iter().zip(expect) {
                        assert_eq!(&session.solve(y).unwrap(), x);
                    }
                });
            }
        });
    }

    #[test]
    fn concurrent_solves_with_world_reuse() {
        let src = ClusteredToeplitz::standard(36, 3, 5);
        let t = materialize(&src);
        let session = ArdSession::create(3, ZERO, &src).unwrap();
        session.set_world_reuse(true);
        std::thread::scope(|scope| {
            for tid in 0..3 {
                let (session, t) = (&session, &t);
                scope.spawn(move || {
                    for round in 0..3 {
                        let y = random_rhs(36, 3, 1, 7 * tid + round);
                        let x = session.solve(&y).unwrap();
                        assert!(t.rel_residual(&x, &y) < 1e-11);
                    }
                });
            }
        });
        session.set_world_reuse(false); // tears the world down cleanly
        let y = random_rhs(36, 3, 1, 42);
        assert!(t.rel_residual(&session.solve(&y).unwrap(), &y) < 1e-11);
    }

    #[test]
    fn world_reuse_matches_fresh_worlds() {
        let src = ClusteredToeplitz::standard(40, 4, 3);
        let session = ArdSession::create(4, ZERO, &src).unwrap();
        let y = random_rhs(40, 4, 5, 17);
        let fresh = session.solve(&y).unwrap();
        session.set_world_reuse(true);
        let reused = session.solve(&y).unwrap();
        assert_eq!(fresh, reused, "world reuse must not change results");
    }

    /// A solve that panics inside a rank leaves the factors as they
    /// were, on fresh and persistent worlds alike.
    #[test]
    fn a_panicking_solve_keeps_the_factors() {
        let src = ClusteredToeplitz::standard(24, 3, 9);
        let y = random_rhs(24, 3, 2, 0);
        let mut ragged = y.clone();
        ragged.blocks[1] = Mat::zeros(3, 3);
        for reuse in [false, true] {
            let session = ArdSession::create(4, ZERO, &src).unwrap();
            session.set_world_reuse(reuse);
            let before = session.solve(&y).unwrap();
            let payload = catch_unwind(AssertUnwindSafe(|| session.solve(&ragged)))
                .expect_err("a ragged panel must panic");
            let msg = payload.downcast_ref::<String>().expect("string payload");
            assert!(msg.contains("rhs panel 1 shape mismatch"), "got: {msg}");
            assert_eq!(session.solve(&y).unwrap(), before, "reuse={reuse}");
        }
    }
}
