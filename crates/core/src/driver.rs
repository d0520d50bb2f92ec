//! Whole-run drivers: launch an SPMD world, scatter the system, run the
//! solvers, gather solutions and per-phase timings.
//!
//! These are the entry points the examples, tests and the experiment
//! harness use. The `*_solve_dist` and `*_solve_cfg` drivers report the
//! modeled clock (`SimBackend`); [`ard_solve_cfg_on`] and
//! [`pcr_solve_cfg_on`] take the clock as a type argument. For embedding
//! in an existing SPMD program, use the rank-level API ([`crate::state`])
//! directly.

use std::time::{Duration, Instant};

use bt_blocktri::{BlockRowSource, BlockVec, FactorError, RowPartition};
use bt_comm::{Comm, CommBackend, CostModel, SimBackend, SpmdBackend, WorldStats};
use bt_dense::Mat;

use crate::session::{FactorKind, RankFactors};
use crate::state::{ArdRankFactors, BoundaryMode, ReplayFactors};

/// Per-phase timing of one run, aggregated over ranks (maximum).
#[derive(Debug, Clone, Default)]
pub struct PhaseTimings {
    /// Wall-clock time of setup (zero for classic RD, which has none).
    pub setup_wall: Duration,
    /// Modeled (virtual) time of setup.
    pub setup_modeled: f64,
    /// Wall-clock time of each solve batch.
    pub solve_wall: Vec<Duration>,
    /// Modeled time of each solve batch.
    pub solve_modeled: Vec<f64>,
}

impl PhaseTimings {
    /// Total wall time (setup plus all solves).
    pub fn total_wall(&self) -> Duration {
        self.setup_wall + self.solve_wall.iter().sum::<Duration>()
    }

    /// Total modeled time (setup plus all solves).
    pub fn total_modeled(&self) -> f64 {
        self.setup_modeled + self.solve_modeled.iter().sum::<f64>()
    }
}

/// Result of a distributed solve over one or more right-hand-side batches.
#[derive(Debug)]
pub struct DistOutcome {
    /// One solution block vector per input batch.
    pub x: Vec<BlockVec>,
    /// Communication/computation counters, per rank.
    pub stats: WorldStats,
    /// Max-over-ranks per-phase timings.
    pub timings: PhaseTimings,
    /// Peak per-rank stored factor bytes (0 for classic RD).
    pub factor_bytes: u64,
    /// Worst boundary-extraction condition estimate (ARD exact-scan runs
    /// only; 1.0 otherwise). See `ArdRankFactors::boundary_condition`.
    pub boundary_condition: f64,
    /// Widest correction window any rank replays, in rows, over both
    /// directions (accelerated and classic RD runs; 0 otherwise). See
    /// [`ReplayFactors::windows`].
    pub correction_window: usize,
    /// Kernel/solver counter deltas attributable to this run (counter
    /// name -> increment), captured from the `bt-obs` metrics registry.
    /// `None` when observability is off (`BT_OBS` unset); zero-delta
    /// counters are omitted.
    pub obs_counters: Option<std::collections::BTreeMap<String, u64>>,
}

/// Per-rank raw output carried back from the SPMD closure.
struct RankOutput {
    boundary_condition: f64,
    correction_window: usize,
    x_local: Vec<Vec<Mat>>, // [batch][local row]
    setup_wall: Duration,
    setup_vt: f64,
    solve_wall: Vec<Duration>,
    solve_vt: Vec<f64>,
    factor_bytes: u64,
}

/// Gathers the per-rank outputs (in rank order, so each batch's panels
/// concatenate in row order) into solutions and max-over-ranks timings,
/// factor bytes, boundary condition and correction window, moving every
/// solution panel.
fn assemble(
    n: usize,
    batches: usize,
    outputs: Vec<Result<RankOutput, FactorError>>,
) -> Result<(Vec<BlockVec>, PhaseTimings, u64, f64, usize), FactorError> {
    // Surface the first error (all ranks agree on it).
    let outputs: Vec<RankOutput> = outputs.into_iter().collect::<Result<_, _>>()?;

    let mut blocks: Vec<Vec<Mat>> = (0..batches).map(|_| Vec::with_capacity(n)).collect();
    let mut t = PhaseTimings {
        setup_wall: Duration::ZERO,
        setup_modeled: 0.0,
        solve_wall: vec![Duration::ZERO; batches],
        solve_modeled: vec![0.0; batches],
    };
    let mut factor_bytes = 0u64;
    let mut boundary_condition = 1.0f64;
    let mut correction_window = 0usize;
    for out in outputs {
        t.setup_wall = t.setup_wall.max(out.setup_wall);
        t.setup_modeled = t.setup_modeled.max(out.setup_vt);
        for bi in 0..batches {
            t.solve_wall[bi] = t.solve_wall[bi].max(out.solve_wall[bi]);
            t.solve_modeled[bi] = t.solve_modeled[bi].max(out.solve_vt[bi]);
        }
        factor_bytes = factor_bytes.max(out.factor_bytes);
        boundary_condition = boundary_condition.max(out.boundary_condition);
        correction_window = correction_window.max(out.correction_window);
        for (batch, panels) in blocks.iter_mut().zip(out.x_local) {
            batch.extend(panels);
        }
    }
    let xs = blocks.into_iter().map(BlockVec::from_blocks).collect();
    Ok((xs, t, factor_bytes, boundary_condition, correction_window))
}

/// Copies rank `rank`'s local panels of a global block vector.
fn local_panels(part: &RowPartition, rank: usize, y: &BlockVec) -> Vec<Mat> {
    part.range(rank).map(|i| y.blocks[i].clone()).collect()
}

/// Solves every batch with **classic recursive doubling**: all
/// matrix-dependent work is redone per batch —
/// `O(M^3 (N/P + log P))` each.
///
/// # Errors
///
/// [`FactorError`] if a block diagonal is singular.
///
/// # Panics
///
/// Panics if `batches` is empty, shapes are inconsistent, or `N < P`.
pub fn rd_solve_dist<S: BlockRowSource + Sync>(
    p: usize,
    model: CostModel,
    src: &S,
    batches: &[BlockVec],
) -> Result<DistOutcome, FactorError> {
    rd_solve_cfg(&DriverConfig::new(p).with_model(model), src, batches)
}

/// Solves every batch with the **accelerated recursive doubling**
/// algorithm: one `O(M^3 (N/P + log P))` setup, then
/// `O(M^2 R (N/P + log P))` per batch.
///
/// # Errors
///
/// [`FactorError`] if a block diagonal is singular.
///
/// # Panics
///
/// Panics if `batches` is empty, shapes are inconsistent, or `N < P`.
pub fn ard_solve_dist<S: BlockRowSource + Sync>(
    p: usize,
    model: CostModel,
    src: &S,
    batches: &[BlockVec],
) -> Result<DistOutcome, FactorError> {
    ard_solve_cfg(&DriverConfig::new(p).with_model(model), src, batches)
}

/// What a driver run does on each rank.
#[derive(Clone, Copy)]
pub(crate) enum Mode {
    /// Classic recursive doubling, with the boundary recovered in the
    /// given mode: re-factors for every batch, by design.
    ClassicRd(BoundaryMode),
    /// Factor once, then solve every batch with the stored factors.
    Factored(FactorKind),
}

/// Full driver configuration; the `*_solve_dist` helpers use
/// [`BoundaryMode::ExactScan`] (the paper's algorithm).
#[derive(Debug, Clone, Copy)]
pub struct DriverConfig {
    /// World size (ranks).
    pub p: usize,
    /// Cost model for the virtual-time engine.
    pub model: CostModel,
    /// Phase 1 boundary recovery mode.
    pub boundary: BoundaryMode,
}

impl DriverConfig {
    /// Default configuration: cluster cost model, exact-scan boundary.
    pub fn new(p: usize) -> Self {
        Self {
            p,
            model: CostModel::cluster(),
            boundary: BoundaryMode::ExactScan,
        }
    }

    /// Sets the cost model.
    pub fn with_model(mut self, model: CostModel) -> Self {
        self.model = model;
        self
    }

    /// Sets the model's `threads_per_rank` ([`CostModel::threads_per_rank`]):
    /// modeled compute time divides by it; answers and counters do not
    /// change.
    pub fn with_threads_per_rank(mut self, threads: usize) -> Self {
        self.model.threads_per_rank = threads;
        self
    }

    /// Sets the boundary mode.
    pub fn with_boundary(mut self, boundary: BoundaryMode) -> Self {
        self.boundary = boundary;
        self
    }
}

/// SPIKE-style partitioned solver under an explicit [`DriverConfig`]
/// (the stability-oriented parallel baseline; `boundary` is ignored).
///
/// # Errors
///
/// [`FactorError`] if a local pivot block or the reduced system is
/// singular.
pub fn spike_solve_cfg<S: BlockRowSource + Sync>(
    cfg: &DriverConfig,
    src: &S,
    batches: &[BlockVec],
) -> Result<DistOutcome, FactorError> {
    run_driver_cfg_on::<SimBackend, S>(cfg, src, batches, Mode::Factored(FactorKind::Spike))
}

/// Amortized parallel cyclic reduction under an explicit
/// [`DriverConfig`] (the BCYCLIC-style comparator; `boundary` is
/// ignored).
///
/// # Errors
///
/// [`FactorError`] if a diagonal block is singular at some elimination
/// level.
pub fn pcr_solve_cfg<S: BlockRowSource + Sync>(
    cfg: &DriverConfig,
    src: &S,
    batches: &[BlockVec],
) -> Result<DistOutcome, FactorError> {
    pcr_solve_cfg_on::<SimBackend, S>(cfg, src, batches)
}

/// Classic recursive doubling under an explicit [`DriverConfig`].
///
/// # Errors
///
/// [`FactorError`] if a block diagonal (or, in exact-scan mode, a
/// superdiagonal block) is singular.
pub fn rd_solve_cfg<S: BlockRowSource + Sync>(
    cfg: &DriverConfig,
    src: &S,
    batches: &[BlockVec],
) -> Result<DistOutcome, FactorError> {
    run_driver_cfg_on::<SimBackend, S>(cfg, src, batches, Mode::ClassicRd(cfg.boundary))
}

/// Accelerated recursive doubling under an explicit [`DriverConfig`].
///
/// # Errors
///
/// [`FactorError`] if a block diagonal (or, in exact-scan mode, a
/// superdiagonal block) is singular.
pub fn ard_solve_cfg<S: BlockRowSource + Sync>(
    cfg: &DriverConfig,
    src: &S,
    batches: &[BlockVec],
) -> Result<DistOutcome, FactorError> {
    ard_solve_cfg_on::<SimBackend, S>(cfg, src, batches)
}

/// [`ard_solve_cfg`] on an explicitly chosen clock `B`: wall-clock
/// callers pass `ShmBackend`, benchmarks and agreement tests pick both
/// in one process this way.
///
/// # Errors
///
/// [`FactorError`] if a block diagonal (or, in exact-scan mode, a
/// superdiagonal block) is singular.
pub fn ard_solve_cfg_on<B: SpmdBackend, S: BlockRowSource + Sync>(
    cfg: &DriverConfig,
    src: &S,
    batches: &[BlockVec],
) -> Result<DistOutcome, FactorError> {
    let kind = FactorKind::General(cfg.boundary);
    run_driver_cfg_on::<B, S>(cfg, src, batches, Mode::Factored(kind))
}

/// [`pcr_solve_cfg`] on an explicitly chosen backend `B` (see
/// [`ard_solve_cfg_on`]).
///
/// # Errors
///
/// [`FactorError`] if a diagonal block is singular at some elimination
/// level.
pub fn pcr_solve_cfg_on<B: SpmdBackend, S: BlockRowSource + Sync>(
    cfg: &DriverConfig,
    src: &S,
    batches: &[BlockVec],
) -> Result<DistOutcome, FactorError> {
    run_driver_cfg_on::<B, S>(cfg, src, batches, Mode::Factored(FactorKind::Pcr))
}

/// One driver run reporting clock `B`: every rank builds its slice, then
/// runs `mode`'s setup and solves over all `batches`.
pub(crate) fn run_driver_cfg_on<B: SpmdBackend, S: BlockRowSource + Sync>(
    cfg: &DriverConfig,
    src: &S,
    batches: &[BlockVec],
    mode: Mode,
) -> Result<DistOutcome, FactorError> {
    let p = cfg.p;
    let n = src.n();
    let m = src.m();
    assert!(
        !batches.is_empty(),
        "need at least one right-hand-side batch"
    );
    assert!(
        n >= p,
        "need at least one block row per rank (N={n}, P={p})"
    );
    for (bi, y) in batches.iter().enumerate() {
        assert_eq!(y.n(), n, "batch {bi}: block count mismatch");
        assert_eq!(y.m(), m, "batch {bi}: block order mismatch");
        assert!(
            y.r() >= 1,
            "batch {bi}: needs at least one right-hand-side column"
        );
    }
    let part = RowPartition::new(n, p);

    // Counter baseline: the delta across the SPMD run is what this solve
    // (all ranks, all batches) actually did in the instrumented kernels.
    let counters_before = bt_obs::enabled().then(bt_obs::counters_snapshot);

    let spmd = B::run(
        p,
        cfg.model,
        |comm: &mut Comm| -> Result<RankOutput, FactorError> {
            let rank = comm.rank();
            let sys = match mode {
                Mode::ClassicRd(boundary) => FactorKind::General(boundary),
                Mode::Factored(kind) => kind,
            }
            .rank_system(src, p, rank);
            let y_locals: Vec<Vec<Mat>> = batches
                .iter()
                .map(|y| local_panels(&part, rank, y))
                .collect();

            let mut out = RankOutput {
                boundary_condition: 1.0,
                correction_window: 0,
                x_local: Vec::with_capacity(batches.len()),
                setup_wall: Duration::ZERO,
                setup_vt: 0.0,
                solve_wall: Vec::with_capacity(batches.len()),
                solve_vt: Vec::with_capacity(batches.len()),
                factor_bytes: 0,
            };

            match mode {
                Mode::Factored(kind) => {
                    comm.barrier();
                    let vt0 = comm.virtual_time();
                    let t0 = Instant::now();
                    let algo = kind.name();
                    let span_setup =
                        bt_obs::span_with("solver", "setup", || format!("{{\"algo\":\"{algo}\"}}"));
                    let factors = RankFactors::setup(comm, &sys, kind)?;
                    comm.barrier();
                    drop(span_setup);
                    out.setup_wall = t0.elapsed();
                    out.setup_vt = comm.virtual_time() - vt0;
                    out.factor_bytes = factors.storage_bytes();
                    out.boundary_condition = factors.boundary_condition();
                    out.correction_window = widest(factors.windows());
                    for (bi, mut x) in y_locals.into_iter().enumerate() {
                        let vt0 = comm.virtual_time();
                        let t0 = Instant::now();
                        let _span = bt_obs::span_with("solver", "solve_batch", || {
                            format!("{{\"algo\":\"{algo}\",\"batch\":{bi}}}")
                        });
                        factors.solve_in_place(comm, &mut x);
                        comm.barrier();
                        out.solve_wall.push(t0.elapsed());
                        out.solve_vt.push(comm.virtual_time() - vt0);
                        out.x_local.push(x);
                    }
                }
                Mode::ClassicRd(_) => {
                    comm.barrier();
                    for (bi, mut x) in y_locals.into_iter().enumerate() {
                        let vt0 = comm.virtual_time();
                        let t0 = Instant::now();
                        let _span = bt_obs::span_with("solver", "solve_batch", || {
                            format!("{{\"algo\":\"rd\",\"batch\":{bi}}}")
                        });
                        let factors = ArdRankFactors::setup(comm, &sys, false)?;
                        out.correction_window = widest(factors.windows());
                        factors.solve_fresh(comm, &mut x);
                        comm.barrier();
                        out.solve_wall.push(t0.elapsed());
                        out.solve_vt.push(comm.virtual_time() - vt0);
                        out.x_local.push(x);
                    }
                }
            }
            Ok(out)
        },
    );

    let obs_counters = counters_before.map(|before| bt_obs::counters_diff(&before));
    let (x, timings, factor_bytes, boundary_condition, correction_window) =
        assemble(n, batches.len(), spmd.results)?;
    Ok(DistOutcome {
        x,
        stats: spmd.stats,
        timings,
        factor_bytes,
        boundary_condition,
        correction_window,
        obs_counters,
    })
}

/// The wider of a rank's two correction windows.
fn widest((fwd, bwd): (usize, usize)) -> usize {
    fwd.max(bwd)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bt_blocktri::gen::{random_rhs, RandomDominant};

    #[test]
    fn timings_total_adds_phases() {
        let t = PhaseTimings {
            setup_wall: Duration::from_millis(5),
            setup_modeled: 1.0,
            solve_wall: vec![Duration::from_millis(2), Duration::from_millis(3)],
            solve_modeled: vec![0.25, 0.5],
        };
        assert_eq!(t.total_wall(), Duration::from_millis(10));
        assert!((t.total_modeled() - 1.75).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one block row per rank")]
    fn too_many_ranks_rejected() {
        let src = RandomDominant::new(2, 2, 1.5, 0);
        let y = random_rhs(2, 2, 1, 0);
        let _ = ard_solve_dist(4, CostModel::zero(), &src, &[y]);
    }

    #[test]
    #[should_panic(expected = "at least one right-hand-side batch")]
    fn empty_batches_rejected() {
        let src = RandomDominant::new(4, 2, 1.5, 0);
        let _ = ard_solve_dist(2, CostModel::zero(), &src, &[]);
    }
}
