//! Backend-neutral SPMD launch surface: the [`SpmdOutput`] every runner
//! returns, and the [`SpmdBackend`]/[`PersistentWorld`] traits that let
//! the session/service layers run the same rank program on the
//! simulator or on a real backend.

use std::time::Duration;

use crate::backend::CommBackend;
use crate::model::CostModel;
use crate::stats::WorldStats;

/// Hard cap on world size: ranks are OS threads that mostly block on
/// channels, so thousands are fine, but an unbounded request is almost
/// certainly a bug.
pub const MAX_RANKS: usize = 4096;

/// Everything produced by one SPMD run.
#[derive(Debug)]
pub struct SpmdOutput<T> {
    /// Per-rank return values, indexed by rank.
    pub results: Vec<T>,
    /// Per-rank communication/computation counters.
    pub stats: WorldStats,
    /// Real elapsed wall-clock time of the whole run.
    pub wall: Duration,
    /// Modeled parallel runtime: the maximum final clock over all ranks.
    /// On the simulator this is virtual time per the run's [`CostModel`];
    /// on real backends it is the slowest rank's measured seconds.
    pub modeled_seconds: f64,
}

/// A **reusable** SPMD world: `P` rank threads spawned once, each
/// running jobs dispatched through [`PersistentWorld::run`] with the
/// same semantics as the backend's one-shot runner (per-rank state is
/// reset before every job).
///
/// Constraints inherited from reuse:
///
/// * Jobs must be `'static` (they are boxed and shipped to long-lived
///   threads) — capture shared state via `Arc`, not borrows.
/// * A program must receive every message it is sent; leftovers would
///   corrupt the next job.
/// * A panicking job kills the world: the panic is propagated to the
///   caller (catchable) and the world refuses further jobs
///   ([`PersistentWorld::is_dead`]) — peers may have been left
///   mid-protocol, so the only safe move is to rebuild.
pub trait PersistentWorld {
    /// The communicator handed to each rank's job.
    type Comm: CommBackend;

    /// World size.
    fn ranks(&self) -> usize;

    /// The cost model jobs run under.
    fn model(&self) -> CostModel;

    /// True once a job has panicked; the world no longer accepts jobs.
    fn is_dead(&self) -> bool;

    /// Runs `f` on every rank on the persistent threads. Blocks until
    /// all ranks finish.
    ///
    /// # Panics
    ///
    /// Panics if the world is dead, or if any rank's job panics (the
    /// panic is propagated to this caller and the world is marked dead).
    fn run<T, F>(&mut self, f: F) -> SpmdOutput<T>
    where
        T: Send + 'static,
        F: Fn(&mut Self::Comm) -> T + Send + Sync + 'static;
}

/// One SPMD execution backend: a communicator type plus the two ways to
/// launch a rank program on it — a one-shot scoped run and a persistent
/// reusable world. The type itself is a zero-sized selector
/// (`SimBackend`, `ShmBackend`), so session/service layers can be
/// generic over the backend with no runtime cost.
pub trait SpmdBackend: 'static {
    /// The per-rank communicator.
    type Comm: CommBackend;
    /// The reusable-world runner.
    type World: PersistentWorld<Comm = Self::Comm> + Send;

    /// Short stable name for diagnostics and env selection
    /// (`"sim"`, `"shm"`).
    fn name() -> &'static str;

    /// Runs `f` as an SPMD program on `p` ranks under `model`, one rank
    /// per thread, returning when every rank has finished.
    ///
    /// # Panics
    ///
    /// Panics if `p == 0` or `p > MAX_RANKS`, or if any rank panics (the
    /// panic is propagated).
    fn run<T, F>(p: usize, model: CostModel, f: F) -> SpmdOutput<T>
    where
        T: Send,
        F: Fn(&mut Self::Comm) -> T + Sync;

    /// Spawns a persistent `p`-rank world for repeated jobs.
    ///
    /// # Panics
    ///
    /// Panics if `p == 0` or `p > MAX_RANKS`.
    fn world(p: usize, model: CostModel) -> Self::World;
}
