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
//! A session is `Sync`; any number of threads may call
//! [`ArdSession::solve`] concurrently. The per-rank factors exist in one
//! copy, so concurrent solves **queue**: each call checks the factors
//! out under a short lock (microseconds), runs the whole SPMD solve
//! *unlocked*, and returns them through an RAII lease that restores the
//! state — and wakes the next waiter — even if the solve panics. The
//! session's internal lock is therefore never held across a solve, and a
//! panicking solve can never leave the state empty: either every rank's
//! factors come back (the session stays usable) or a rank died holding
//! them, in which case the session enters a terminal *lost* state whose
//! subsequent solves panic with a descriptive message instead of
//! deadlocking. Callers wanting true solve parallelism should batch
//! right-hand sides into one wide panel (see [`crate::service`]) — that
//! is also the faster shape by the paper's `O(R)` amortization argument.
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
use std::sync::{Condvar, Mutex};

use bt_blocktri::{BlockRowSource, BlockVec, FactorError, RowPartition};
use bt_comm::{Comm, CommBackend, CostModel, SimBackend, SpmdBackend, SpmdOutput, SpmdWorld};
use bt_dense::Mat;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

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

/// Per-rank state checked out by a solve: the rank's system slice and
/// its factors.
type RankState = (RankSystem, RankFactors);

/// The factor store a session guards.
enum FactorStore {
    /// Factors at rest; a solve may check them out.
    Available(Vec<RankState>),
    /// A solve is running with the factors.
    CheckedOut,
    /// A panicked solve took a rank's factors down with it; the session
    /// is permanently unusable (but callers get a message, not a hang).
    Lost,
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
    /// Total stored factor bytes, captured at creation (so the getter
    /// never has to touch the factor lock).
    factor_bytes: u64,
    /// Per-rank factors, handed out to worlds on each solve and returned
    /// afterwards. Held only for checkout/restore — never across a solve.
    state: Mutex<FactorStore>,
    /// Wakes solves queued behind a checked-out store.
    state_cv: Condvar,
    /// When world reuse is on, the persistent world (built lazily).
    world: Mutex<Option<SpmdWorld>>,
    /// Whether solves run on `world` (see [`ArdSessionOn::set_world_reuse`]).
    reuse_world: AtomicBool,
    /// The clock solves report (`fn() -> B` keeps the session `Send` and
    /// `Sync` whatever the selector type).
    clock: PhantomData<fn() -> B>,
}

/// The session reporting the modeled clock — the spelling almost all
/// code uses; the generic [`ArdSessionOn`] runs the same factor-lease
/// machinery under either [`SpmdBackend`] clock (e.g.
/// `bt_shm::ShmBackend` for wall-clock serving).
pub type ArdSession = ArdSessionOn<SimBackend>;

/// RAII checkout of a session's per-rank factors.
///
/// Holds the state as `Arc`'d per-rank slots so an SPMD world (possibly
/// a persistent one requiring `'static` jobs) can take and return each
/// rank's share. On drop — **including unwinds** — whatever came back is
/// restored to the session and waiters are notified; if any rank's
/// factors were destroyed mid-solve the store transitions to
/// [`FactorStore::Lost`] instead of silently shrinking.
struct FactorLease<'a, B: SpmdBackend> {
    session: &'a ArdSessionOn<B>,
    slots: Option<Arc<Vec<parking_lot::Mutex<Option<RankState>>>>>,
}

impl<'a, B: SpmdBackend> FactorLease<'a, B> {
    /// Blocks until the factors are available, then checks them out.
    ///
    /// # Panics
    ///
    /// Panics if an earlier solve lost the factors.
    fn checkout(session: &'a ArdSessionOn<B>) -> Self {
        let mut guard = session
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        loop {
            match &*guard {
                FactorStore::Available(_) => break,
                FactorStore::CheckedOut => {
                    guard = session
                        .state_cv
                        .wait(guard)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
                FactorStore::Lost => panic!(
                    "ArdSession factors were lost by an earlier panicked solve; \
                     recreate the session"
                ),
            }
        }
        let state = match std::mem::replace(&mut *guard, FactorStore::CheckedOut) {
            FactorStore::Available(state) => state,
            _ => unreachable!("loop above exits only on Available"),
        };
        drop(guard);
        let slots: Vec<parking_lot::Mutex<Option<RankState>>> = state
            .into_iter()
            .map(|s| parking_lot::Mutex::new(Some(s)))
            .collect();
        Self {
            session,
            slots: Some(Arc::new(slots)),
        }
    }

    /// The per-rank slots, for handing to an SPMD world.
    fn slots(&self) -> &Arc<Vec<parking_lot::Mutex<Option<RankState>>>> {
        self.slots.as_ref().expect("slots present until drop")
    }
}

impl<B: SpmdBackend> Drop for FactorLease<'_, B> {
    fn drop(&mut self) {
        let slots = self.slots.take().expect("dropped once");
        // All world jobs have completed (run_spmd/SpmdWorld::run join all
        // ranks before returning, even when propagating a panic), so this
        // lease holds the only reference — unless a rank died between
        // taking its slot and restoring it, in which case its factors are
        // gone and the session is lost.
        let restored: Option<Vec<RankState>> = Arc::try_unwrap(slots)
            .ok()
            .map(|v| v.into_iter().map(parking_lot::Mutex::into_inner).collect())
            .and_then(|v: Vec<Option<RankState>>| v.into_iter().collect());
        let mut guard = self
            .session
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        *guard = match restored {
            Some(state) if state.len() == self.session.p => FactorStore::Available(state),
            _ => FactorStore::Lost,
        };
        drop(guard);
        self.session.state_cv.notify_all();
    }
}

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
    /// kind solves through the same lease, worlds and refinement.
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
        let out = B::run(p, model, |comm| -> Result<RankState, FactorError> {
            let sys = kind.rank_system(src, p, comm.rank());
            let factors = RankFactors::setup(comm, &sys, kind)?;
            Ok((sys, factors))
        });
        let state: Vec<RankState> = out.results.into_iter().collect::<Result<_, _>>()?;
        let factor_bytes = state.iter().map(|(_, f)| f.storage_bytes()).sum();
        Ok(Self {
            p,
            n,
            m,
            model,
            part: RowPartition::new(n, p),
            factor_bytes,
            state: Mutex::new(FactorStore::Available(state)),
            state_cv: Condvar::new(),
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

    /// Total stored factor bytes across ranks (captured at creation).
    pub fn factor_bytes(&self) -> u64 {
        self.factor_bytes
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

    /// Test hook: marks the factors as lost, exactly as if an earlier
    /// solve had panicked mid-flight with the factors checked out. The
    /// next solve panics loudly (see the module docs). Used by the
    /// service layer's panic-containment regression tests.
    #[doc(hidden)]
    pub fn lose_factors_for_test(&self) {
        *self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = FactorStore::Lost;
        self.state_cv.notify_all();
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
    /// Panics on shape mismatch, or if an earlier panicked solve lost
    /// the factors (see the module docs on concurrency).
    pub fn solve(&self, y: &BlockVec) -> Result<BlockVec, FactorError> {
        self.solve_owned(y.clone())
    }

    /// [`ArdSession::solve`] on an owned batch, with no copy: the
    /// service dispatcher hands over each request's own panels.
    pub(crate) fn solve_owned(&self, y: BlockVec) -> Result<BlockVec, FactorError> {
        Ok(self.solve_inner(y, 0, 0.0)?.0)
    }

    /// Solves with up to `max_sweeps` iterative-refinement sweeps
    /// (stopping at relative residual `tol`); returns the solution and
    /// the residual history (empty when `max_sweeps == 0`).
    ///
    /// # Errors
    ///
    /// Never fails today; kept for API stability.
    ///
    /// # Panics
    ///
    /// Same conditions as [`ArdSession::solve`].
    pub fn solve_refined(
        &self,
        y: &BlockVec,
        max_sweeps: usize,
        tol: f64,
    ) -> Result<(BlockVec, Vec<f64>), FactorError> {
        self.solve_inner(y.clone(), max_sweeps, tol)
    }

    fn solve_inner(
        &self,
        y: BlockVec,
        max_sweeps: usize,
        tol: f64,
    ) -> Result<(BlockVec, Vec<f64>), FactorError> {
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
        let y_slices = Arc::new(slices);

        // Short lock: factors leave the session here and come back when
        // `lease` drops — even if the solve below unwinds.
        let lease = FactorLease::checkout(self);
        let slots = Arc::clone(lease.slots());

        // The caller's trace context (e.g. the service dispatcher's
        // batch/request ids) does not cross thread spawns by itself;
        // carry it into each rank's closure so per-rank replay and scan
        // spans stay attributable to the requests they serve.
        let ctx = bt_obs::ctx::current();
        let job = move |comm: &mut Comm| {
            let _ctx_guard = ctx.clone().map(bt_obs::ctx::enter);
            let _span = bt_obs::span("session", "replay.solve");
            let (sys, factors) = slots[comm.rank()].lock().take().expect("state present");
            let mut y_local = y_slices[comm.rank()]
                .lock()
                .take()
                .expect("rhs slice present");
            // The replay runs in place in the rank's own panels;
            // refinement keeps `y_local` for its residuals.
            let solved = if max_sweeps == 0 {
                factors.solve_in_place(comm, &mut y_local);
                (y_local, Vec::new())
            } else {
                let refined = factors.solve_refined(comm, &sys, &y_local, max_sweeps, tol);
                (refined.x_local, refined.history)
            };
            *slots[comm.rank()].lock() = Some((sys, factors));
            solved
        };

        let out = self.run_world(job);
        drop(lease); // factors restored; waiters wake

        // Reassemble by moving each rank's panels back, in rank order.
        let mut blocks = Vec::with_capacity(self.n);
        let mut history = Vec::new();
        for (panels, h) in out.results {
            blocks.extend(panels);
            history = h;
        }
        Ok((BlockVec::from_blocks(blocks), history))
    }

    /// Runs `job` on the persistent world when reuse is on (rebuilding a
    /// dead one is pointless — a panic loses factors anyway), else on a
    /// fresh `run_spmd` world.
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
                    // The world is dead; drop it so a future session user
                    // (after recreating factors) does not trip over it.
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
        let (x, history) = session.solve_refined(&y, 6, 1e-13).unwrap();
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
        // Regression for the lock-across-the-solve bug: concurrent
        // callers queue on the factor checkout (short lock + condvar),
        // not on a mutex held for the whole SPMD solve, and both get
        // correct answers.
        let src = ClusteredToeplitz::standard(48, 4, 11);
        let t = materialize(&src);
        let session = ArdSession::create(4, ZERO, &src).unwrap();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|tid| {
                    let session = &session;
                    let t = &t;
                    scope.spawn(move || {
                        for round in 0..4 {
                            let y = random_rhs(48, 4, 2, 100 * tid + round);
                            let x = session.solve(&y).unwrap();
                            assert!(t.rel_residual(&x, &y) < 1e-11, "thread {tid} round {round}");
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
        // The session is still healthy afterwards.
        let y = random_rhs(48, 4, 1, 999);
        assert!(t.rel_residual(&session.solve(&y).unwrap(), &y) < 1e-11);
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

    #[test]
    fn lease_restores_factors_on_unwind() {
        // A panic between checkout and restore must put the factors back
        // (RAII), so the next solve succeeds instead of hanging or
        // finding an empty state.
        let src = ClusteredToeplitz::standard(24, 3, 9);
        let t = materialize(&src);
        let session = ArdSession::create(2, ZERO, &src).unwrap();
        let unwound = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let _lease = FactorLease::checkout(&session);
            panic!("simulated failure while the factors are checked out");
        }));
        assert!(unwound.is_err());
        let y = random_rhs(24, 3, 2, 0);
        let x = session.solve(&y).unwrap();
        assert!(t.rel_residual(&x, &y) < 1e-11, "factors were not restored");
    }

    #[test]
    fn lost_factors_fail_loudly_not_silently() {
        // If a rank's factors are destroyed while checked out (a panic
        // inside the SPMD solve), later solves must panic with a clear
        // message — not deadlock on the condvar or see an empty vec.
        let src = ClusteredToeplitz::standard(16, 3, 1);
        let session = ArdSession::create(2, ZERO, &src).unwrap();
        let unwound = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let lease = FactorLease::checkout(&session);
            lease.slots()[0].lock().take(); // rank 0's factors die with the "world"
            panic!("simulated mid-solve rank death");
        }));
        assert!(unwound.is_err());
        let y = random_rhs(16, 3, 1, 0);
        let next = std::panic::catch_unwind(AssertUnwindSafe(|| session.solve(&y)));
        let payload = next.expect_err("lost factors must not look healthy");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .or(payload.downcast_ref::<String>().map(String::as_str))
            .expect("string payload");
        assert!(msg.contains("lost"), "got: {msg}");
    }
}
