//! The [`RankSolver`] abstraction: one interface over every
//! setup/solve-split parallel solver in the suite, and a generic
//! [`Session`] that keeps any of them alive across solve calls.
//!
//! Three solvers share the "factor once, replay per right-hand side"
//! structure with very different internals:
//!
//! * [`ArdRankFactors`] — the paper's accelerated recursive doubling;
//! * [`SpikeRankFactors`] — SPIKE partitioning with a gathered reduced
//!   system;
//! * [`PcrRankFactors`] — amortized parallel cyclic reduction.
//!
//! `Session<S>` generalizes [`crate::session::ArdSession`]: pick the
//! solver by type parameter, keep the `ArdSession` type when you need
//! ARD-specific extras (boundary modes, refinement).

use bt_blocktri::{BlockRowSource, BlockVec, FactorError, RowPartition};
use bt_comm::{CommBackend, CostModel};
use bt_dense::Mat;
use bt_mpsim::run_spmd;
use parking_lot::Mutex;

use crate::pcr::PcrRankFactors;
use crate::spike::SpikeRankFactors;
use crate::state::{ArdRankFactors, RankSystem};

/// A distributed solver with right-hand-side-independent setup.
///
/// Both methods are collective: every rank of the world must call them
/// together, in the same order.
pub trait RankSolver: Send + Sized + 'static {
    /// Human-readable solver name (for reports).
    const NAME: &'static str;

    /// Builds the matrix-dependent state for this rank's slice.
    ///
    /// # Errors
    ///
    /// [`FactorError`], agreed upon by every rank, when the matrix
    /// violates the solver's requirements.
    fn setup<C: CommBackend>(comm: &mut C, sys: &RankSystem) -> Result<Self, FactorError>;

    /// Solves one batch of local right-hand-side panels.
    fn solve<C: CommBackend>(&self, comm: &mut C, y_local: &[Mat]) -> Vec<Mat>;

    /// Bytes of factor state stored on this rank.
    fn storage_bytes(&self) -> u64;
}

impl RankSolver for ArdRankFactors {
    const NAME: &'static str = "accelerated-recursive-doubling";

    fn setup<C: CommBackend>(comm: &mut C, sys: &RankSystem) -> Result<Self, FactorError> {
        ArdRankFactors::setup(comm, sys, true)
    }

    fn solve<C: CommBackend>(&self, comm: &mut C, y_local: &[Mat]) -> Vec<Mat> {
        self.solve_replay(comm, y_local)
    }

    fn storage_bytes(&self) -> u64 {
        ArdRankFactors::storage_bytes(self)
    }
}

impl RankSolver for SpikeRankFactors {
    const NAME: &'static str = "spike-partitioned";

    fn setup<C: CommBackend>(comm: &mut C, sys: &RankSystem) -> Result<Self, FactorError> {
        SpikeRankFactors::setup(comm, sys)
    }

    fn solve<C: CommBackend>(&self, comm: &mut C, y_local: &[Mat]) -> Vec<Mat> {
        SpikeRankFactors::solve(self, comm, y_local)
    }

    fn storage_bytes(&self) -> u64 {
        SpikeRankFactors::storage_bytes(self)
    }
}

impl RankSolver for PcrRankFactors {
    const NAME: &'static str = "parallel-cyclic-reduction";

    fn setup<C: CommBackend>(comm: &mut C, sys: &RankSystem) -> Result<Self, FactorError> {
        PcrRankFactors::setup(comm, sys)
    }

    fn solve<C: CommBackend>(&self, comm: &mut C, y_local: &[Mat]) -> Vec<Mat> {
        PcrRankFactors::solve(self, comm, y_local)
    }

    fn storage_bytes(&self) -> u64 {
        PcrRankFactors::storage_bytes(self)
    }
}

/// A persistent session over any [`RankSolver`]: factor once with
/// [`Session::create`], then [`Session::solve`] arbitrary batches later.
pub struct Session<S: RankSolver> {
    p: usize,
    n: usize,
    m: usize,
    model: CostModel,
    part: RowPartition,
    state: Mutex<Vec<S>>,
}

impl<S: RankSolver> Session<S> {
    /// Runs the collective setup on `p` ranks and captures the factors.
    ///
    /// # Errors
    ///
    /// [`FactorError`] if setup breaks down.
    ///
    /// # Panics
    ///
    /// Panics if `src.n() < p`.
    pub fn create<Src: BlockRowSource + Sync>(
        p: usize,
        model: CostModel,
        src: &Src,
    ) -> Result<Self, FactorError> {
        let n = src.n();
        let m = src.m();
        assert!(
            n >= p,
            "need at least one block row per rank (N={n}, P={p})"
        );
        let out = run_spmd(p, model, |comm| -> Result<S, FactorError> {
            let sys = RankSystem::from_source(src, p, comm.rank());
            S::setup(comm, &sys)
        });
        let state: Vec<S> = out.results.into_iter().collect::<Result<_, _>>()?;
        Ok(Self {
            p,
            n,
            m,
            model,
            part: RowPartition::new(n, p),
            state: Mutex::new(state),
        })
    }

    /// Solver name.
    pub fn solver_name(&self) -> &'static str {
        S::NAME
    }

    /// World size.
    pub fn ranks(&self) -> usize {
        self.p
    }

    /// Total stored factor bytes across ranks.
    pub fn factor_bytes(&self) -> u64 {
        self.state.lock().iter().map(S::storage_bytes).sum()
    }

    /// Solves one batch with the stored factors.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn solve(&self, y: &BlockVec) -> BlockVec {
        assert_eq!(y.n(), self.n, "rhs block count mismatch");
        assert_eq!(y.m(), self.m, "rhs block order mismatch");
        let mut guard = self.state.lock();
        let state = std::mem::take(&mut *guard);
        let slots: Vec<Mutex<Option<S>>> = state.into_iter().map(|s| Mutex::new(Some(s))).collect();

        let part = &self.part;
        let out = run_spmd(self.p, self.model, |comm| {
            let factors = slots[comm.rank()].lock().take().expect("state present");
            let y_local: Vec<Mat> = part
                .range(comm.rank())
                .map(|i| y.blocks[i].clone())
                .collect();
            let x = factors.solve(comm, &y_local);
            *slots[comm.rank()].lock() = Some(factors);
            x
        });
        *guard = slots
            .into_iter()
            .map(|s| s.into_inner().expect("state returned"))
            .collect();

        let mut x = BlockVec::zeros(self.n, self.m, y.r());
        for (rank, panels) in out.results.into_iter().enumerate() {
            let lo = self.part.range(rank).start;
            for (k, panel) in panels.into_iter().enumerate() {
                x.blocks[lo + k] = panel;
            }
        }
        x
    }
}

/// Session over the accelerated recursive doubling solver (exact scan).
/// For boundary modes / refinement, use
/// [`crate::session::ArdSession`].
pub type ArdGenericSession = Session<ArdRankFactors>;
/// Session over the SPIKE partitioned solver.
pub type SpikeSession = Session<SpikeRankFactors>;
/// Session over amortized parallel cyclic reduction.
pub type PcrSession = Session<PcrRankFactors>;

#[cfg(test)]
mod tests {
    use super::*;
    use bt_blocktri::gen::{materialize, random_rhs, ClusteredToeplitz, Poisson2D};

    const ZERO: CostModel = CostModel {
        latency_s: 0.0,
        per_byte_s: 0.0,
        flop_rate: f64::INFINITY,
        threads_per_rank: 1,
    };

    #[test]
    fn all_three_sessions_agree() {
        let src = ClusteredToeplitz::standard(48, 4, 5);
        let t = materialize(&src);
        let y = random_rhs(48, 4, 3, 2);

        let ard = ArdGenericSession::create(4, ZERO, &src).unwrap();
        let spike = SpikeSession::create(4, ZERO, &src).unwrap();
        let pcr = PcrSession::create(4, ZERO, &src).unwrap();
        assert_eq!(ard.solver_name(), "accelerated-recursive-doubling");
        assert_eq!(spike.solver_name(), "spike-partitioned");
        assert_eq!(pcr.solver_name(), "parallel-cyclic-reduction");

        let xa = ard.solve(&y);
        let xs = spike.solve(&y);
        let xp = pcr.solve(&y);
        assert!(t.rel_residual(&xa, &y) < 1e-11);
        assert!(xs.rel_diff(&xa) < 1e-10);
        assert!(xp.rel_diff(&xa) < 1e-10);
    }

    #[test]
    fn pcr_session_on_wide_spectrum() {
        // PCR sessions work where ARD's exact scan cannot.
        let src = Poisson2D::new(200, 5);
        let t = materialize(&src);
        let session = PcrSession::create(4, ZERO, &src).unwrap();
        for seed in 0..3 {
            let y = random_rhs(200, 5, 2, seed);
            let x = session.solve(&y);
            assert!(t.rel_residual(&x, &y) < 1e-11, "seed {seed}");
        }
        assert!(session.factor_bytes() > 0);
        assert_eq!(session.ranks(), 4);
    }

    #[test]
    fn session_reuse_is_cheap() {
        // The second solve must not redo matrix work: time it via flops
        // by comparing against a fresh create+solve.
        let src = ClusteredToeplitz::standard(64, 6, 1);
        let session = SpikeSession::create(4, ZERO, &src).unwrap();
        let y = random_rhs(64, 6, 2, 3);
        let x1 = session.solve(&y);
        let x2 = session.solve(&y);
        assert_eq!(x1, x2, "same batch, same factors, same answer");
    }
}
