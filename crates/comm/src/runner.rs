//! SPMD launcher: runs the same closure on `P` ranks (one OS thread
//! each) and collects results, counters, wall-clock time and the
//! world's clock.
//!
//! There is one runtime. Every world runs its ranks as OS threads over
//! the lock-free SPSC mesh ([`crate::spsc`]) and keeps the modeled clock
//! (see [`crate::comm`]); the launcher decides only which clock the
//! ranks' [`CommBackend::virtual_time`] — and so
//! [`SpmdOutput::modeled_seconds`] — reports. [`run_spmd`],
//! [`run_spmd_traced`], [`SpmdWorld::new`] and [`SimBackend`] report the
//! modeled clock; [`ShmBackend`] reports wall seconds.

use std::any::Any;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::backend::CommBackend;
use crate::comm::{Clock, Comm};
use crate::model::CostModel;
use crate::spsc::spsc_channel;
use crate::stats::{RankStats, WorldStats};
use crate::trace::{Trace, TraceEvent};

/// Hard cap on world size: ranks are OS threads that mostly wait on
/// their receive channels (spinning briefly, then yielding), so
/// hundreds run fine on a few cores, but an unbounded request is almost
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
    /// The maximum final clock over all ranks: modeled time per the
    /// run's [`CostModel`] on modeled worlds, the slowest rank's
    /// measured seconds on wall-clock worlds ([`ShmBackend`]).
    pub modeled_seconds: f64,
}

/// Runs `f` as an SPMD program on `p` ranks under `model`, reporting the
/// modeled clock.
///
/// Each rank gets its own [`Comm`]; `f(&mut comm)` is executed once per
/// rank on its own thread. Returns when every rank has finished.
///
/// # Panics
///
/// Panics if `p == 0` or `p > MAX_RANKS`, or if any rank panics (the
/// panic is propagated; ranks blocked on the dead rank's messages panic
/// with a "terminated" message of their own).
///
/// # Examples
///
/// ```
/// use bt_comm::{run_spmd, CommBackend, CostModel};
///
/// let out = run_spmd(4, CostModel::default(), |comm| {
///     comm.allreduce(comm.rank() as u64, |a, b| a + b)
/// });
/// assert_eq!(out.results, vec![6, 6, 6, 6]);
/// ```
pub fn run_spmd<T, F>(p: usize, model: CostModel, f: F) -> SpmdOutput<T>
where
    T: Send,
    F: Fn(&mut Comm) -> T + Sync,
{
    launch(p, model, Clock::Modeled, false, f).0
}

/// Like [`run_spmd`], but every rank records its virtual-time events;
/// the returned [`Trace`] serializes to Chrome trace JSON
/// ([`Trace::write_chrome_json`]).
pub fn run_spmd_traced<T, F>(p: usize, model: CostModel, f: F) -> (SpmdOutput<T>, Trace)
where
    T: Send,
    F: Fn(&mut Comm) -> T + Sync,
{
    let (out, trace) = launch(p, model, Clock::Modeled, true, f);
    (out, trace.expect("tracing enabled"))
}

/// Builds the all-to-all SPSC mesh and one [`Comm`] per rank.
fn build_comms(p: usize, model: CostModel, clock: Clock, traced: bool) -> Vec<Comm> {
    assert!(p >= 1, "world size must be at least 1");
    assert!(
        p <= MAX_RANKS,
        "world size {p} exceeds MAX_RANKS ({MAX_RANKS})"
    );
    // One channel per ordered pair (src, dst): exactly one producer and
    // one consumer each, so the SPSC restriction is structural.
    let mut receivers: Vec<Vec<_>> = (0..p).map(|_| Vec::with_capacity(p)).collect();
    let senders: Vec<Vec<_>> = (0..p)
        .map(|_| {
            receivers
                .iter_mut()
                .map(|row| {
                    let (tx, rx) = spsc_channel();
                    row.push(rx);
                    tx
                })
                .collect()
        })
        .collect();
    senders
        .into_iter()
        .zip(receivers)
        .enumerate()
        .map(|(rank, (tx, rx))| Comm::new(rank, tx, rx, model, clock, traced))
        .collect()
}

/// Labels the calling rank thread for observability.
fn init_rank_thread(rank: usize) {
    if bt_obs::enabled() {
        bt_obs::set_thread_label(format!("rank {rank}"));
    }
}

/// What one rank hands back after a job: its result, counters, final
/// clock and (traced worlds only) its events.
type RankOut<T> = (T, RankStats, f64, Option<Vec<TraceEvent>>);

/// Runs `comm`'s rank of a job and collects its [`RankOut`].
fn run_rank<T>(comm: &mut Comm, f: impl FnOnce(&mut Comm) -> T) -> RankOut<T> {
    comm.start_job();
    let result = f(comm);
    (
        result,
        comm.stats(),
        comm.virtual_time(),
        comm.tracer.take(),
    )
}

/// Folds per-rank outputs (in rank order) into an [`SpmdOutput`] and the
/// ranks' event lists.
fn collect<T>(
    outs: impl Iterator<Item = RankOut<T>>,
    wall: Duration,
) -> (SpmdOutput<T>, Vec<Vec<TraceEvent>>) {
    let mut results = Vec::new();
    let mut per_rank = Vec::new();
    let mut events = Vec::new();
    let mut modeled = 0.0f64;
    for (result, stats, clock, ev) in outs {
        results.push(result);
        per_rank.push(stats);
        modeled = modeled.max(clock);
        events.push(ev.unwrap_or_default());
    }
    let out = SpmdOutput {
        results,
        stats: WorldStats { per_rank },
        wall,
        modeled_seconds: modeled,
    };
    (out, events)
}

fn launch<T, F>(
    p: usize,
    model: CostModel,
    clock: Clock,
    traced: bool,
    f: F,
) -> (SpmdOutput<T>, Option<Trace>)
where
    T: Send,
    F: Fn(&mut Comm) -> T + Sync,
{
    let comms = build_comms(p, model, clock, traced);
    let start = Instant::now();
    let f = &f;
    let outs: Vec<RankOut<T>> = std::thread::scope(|scope| {
        let handles: Vec<_> = comms
            .into_iter()
            .map(|mut comm| {
                scope.spawn(move || {
                    let rank = comm.rank();
                    init_rank_thread(rank);
                    let _span =
                        bt_obs::span_with("spmd", "rank", || format!("{{\"rank\":{rank}}}"));
                    // `comm` drops when this thread ends, closing its
                    // channels, so peers waiting on it panic instead of
                    // hanging.
                    run_rank(&mut comm, f)
                })
            })
            .collect();
        handles
            .into_iter()
            .enumerate()
            .map(|(rank, h)| {
                h.join().unwrap_or_else(|e| {
                    std::panic::panic_any(format!("rank {rank} panicked: {}", panic_msg(&*e)))
                })
            })
            .collect()
    });
    let (out, events) = collect(outs.into_iter(), start.elapsed());
    (out, traced.then_some(Trace { events }))
}

/// A persistent rank's [`RankOut`], with the job's result type erased.
type JobOut = RankOut<Box<dyn Any + Send>>;

/// One dispatched unit of work for a persistent rank thread.
type Job = Box<dyn FnOnce(&mut Comm) -> JobOut + Send>;

/// A **reusable** SPMD world: `P` rank threads spawned once, each running
/// jobs dispatched through [`SpmdWorld::run`].
///
/// [`run_spmd`] pays one thread spawn + channel-mesh build per call —
/// tens of microseconds per rank, irrelevant for a benchmark sweep but a
/// real tax on a solve *service* dispatching thousands of small replay
/// solves per second. A `SpmdWorld` keeps the rank threads and their
/// channel mesh alive between calls; [`SpmdWorld::run`] has the same
/// semantics as a one-shot run (per-rank [`Comm`] state — clocks,
/// counters, link occupancy, collective sequence — is reset before every
/// job, so results are identical to a fresh world).
///
/// Constraints inherited from reuse:
///
/// * Jobs must be `'static` (they are boxed and shipped to long-lived
///   threads) — capture shared state via `Arc`, not borrows.
/// * A program must receive every message it is sent; leftovers would
///   corrupt the next job (the per-job reset `debug_assert`s the
///   out-of-order buffers are empty).
/// * A panicking job kills the world: the panic is propagated to the
///   [`SpmdWorld::run`] caller (catchable, as with [`run_spmd`]) and the
///   world refuses further jobs ([`SpmdWorld::is_dead`]) — peers may
///   have been left mid-protocol, so the only safe move is to rebuild.
/// * Tracing is opt-in at construction ([`SpmdWorld::new_traced`]):
///   every job's events accumulate — offset onto one shared virtual
///   timeline — and [`SpmdWorld::take_trace`] yields the merged
///   [`Trace`]. Worlds built with [`SpmdWorld::new`] are untraced (use
///   [`run_spmd_traced`] for one-shot Chrome traces).
pub struct SpmdWorld {
    p: usize,
    job_txs: Vec<mpsc::Sender<Job>>,
    /// Each rank's report: its output, or its panic message.
    done_rx: mpsc::Receiver<(usize, Result<JobOut, String>)>,
    handles: Vec<std::thread::JoinHandle<()>>,
    dead: bool,
    traced: bool,
    /// Merged trace of every completed job (traced worlds only).
    trace: Trace,
    /// Cumulative modeled seconds of completed jobs: each per-rank clock
    /// restarts at zero per job ([`Comm::start_job`]), so job `k`'s
    /// events are shifted by the summed modeled time of jobs `0..k` when
    /// merged. This keeps per-rank timestamps monotone in the merged
    /// Chrome JSON and — because occurrence counting in
    /// [`Trace::to_chrome_json`] walks events in merged order — gives
    /// every send→recv flow arrow a distinct pairing instead of
    /// colliding with the equivalent message of an earlier job.
    trace_base_s: f64,
}

impl SpmdWorld {
    /// Spawns the `p` persistent rank threads of a world that reports
    /// the modeled clock.
    ///
    /// # Panics
    ///
    /// Panics if `p == 0` or `p > MAX_RANKS`.
    pub fn new(p: usize, model: CostModel) -> Self {
        Self::build(p, model, Clock::Modeled, false)
    }

    /// Like [`SpmdWorld::new`], but every job records virtual-time trace
    /// events; [`SpmdWorld::take_trace`] returns the merged timeline.
    ///
    /// # Panics
    ///
    /// Panics if `p == 0` or `p > MAX_RANKS`.
    pub fn new_traced(p: usize, model: CostModel) -> Self {
        Self::build(p, model, Clock::Modeled, true)
    }

    fn build(p: usize, model: CostModel, clock: Clock, traced: bool) -> Self {
        let comms = build_comms(p, model, clock, traced);
        let (done_tx, done_rx) = mpsc::channel();
        let mut job_txs = Vec::with_capacity(p);
        let mut handles = Vec::with_capacity(p);
        for mut comm in comms {
            let (job_tx, job_rx) = mpsc::channel::<Job>();
            job_txs.push(job_tx);
            let done_tx = done_tx.clone();
            handles.push(std::thread::spawn(move || {
                let rank = comm.rank();
                init_rank_thread(rank);
                while let Ok(job) = job_rx.recv() {
                    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job(&mut comm)))
                    {
                        Ok(out) => {
                            if done_tx.send((rank, Ok(out))).is_err() {
                                return; // world dropped mid-job
                            }
                        }
                        Err(e) => {
                            // Report, then die: dropping this rank's Comm
                            // closes its channels, so peers waiting on it
                            // panic with "terminated", every rank reports
                            // and `run` can propagate a catchable panic.
                            let _ = done_tx.send((rank, Err(panic_msg(&*e))));
                            std::panic::resume_unwind(e);
                        }
                    }
                }
            }));
        }
        Self {
            p,
            job_txs,
            done_rx,
            handles,
            dead: false,
            traced,
            trace: Trace {
                events: vec![Vec::new(); p],
            },
            trace_base_s: 0.0,
        }
    }

    /// World size.
    #[inline]
    pub fn ranks(&self) -> usize {
        self.p
    }

    /// True once a job has panicked; the world no longer accepts jobs.
    #[inline]
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// Runs `f` on every rank, exactly like a one-shot run but on the
    /// persistent threads. Blocks until all ranks finish.
    ///
    /// # Panics
    ///
    /// Panics if the world is dead, or if any rank's job panics (the
    /// panic is propagated to this caller and the world is marked dead).
    pub fn run<T, F>(&mut self, f: F) -> SpmdOutput<T>
    where
        T: Send + 'static,
        F: Fn(&mut Comm) -> T + Send + Sync + 'static,
    {
        assert!(!self.dead, "SpmdWorld is dead after a panicked job");
        let f = Arc::new(f);
        let start = Instant::now();
        for tx in &self.job_txs {
            let f = Arc::clone(&f);
            let job: Job = Box::new(move |comm| {
                let (result, stats, clock, events) = run_rank(comm, |c| f(c));
                (
                    Box::new(result) as Box<dyn Any + Send>,
                    stats,
                    clock,
                    events,
                )
            });
            if tx.send(job).is_err() {
                self.dead = true;
                panic!("SpmdWorld rank thread is gone (earlier panic?)");
            }
        }
        let mut slots: Vec<Option<JobOut>> = (0..self.p).map(|_| None).collect();
        let mut first_panic: Option<(usize, String)> = None;
        for _ in 0..self.p {
            match self.done_rx.recv() {
                Ok((rank, Ok(out))) => slots[rank] = Some(out),
                Ok((rank, Err(msg))) => {
                    first_panic.get_or_insert((rank, msg));
                }
                Err(_) => {
                    // A rank died without reporting — only possible if its
                    // thread was torn down outside the job protocol.
                    self.dead = true;
                    panic!("SpmdWorld rank thread died without reporting");
                }
            }
        }
        let wall = start.elapsed();
        if let Some((rank, msg)) = first_panic {
            self.dead = true;
            std::panic::panic_any(format!("rank {rank} panicked: {msg}"));
        }

        let outs = slots.into_iter().map(|slot| {
            let (result, stats, clock, events) = slot.expect("all ranks reported");
            let result = *result
                .downcast::<T>()
                .expect("job result type fixed by run's signature");
            (result, stats, clock, events)
        });
        let (out, events) = collect(outs, wall);
        if self.traced {
            let base = self.trace_base_s;
            for (merged, job) in self.trace.events.iter_mut().zip(events) {
                merged.extend(job.iter().map(|e| e.shifted(base)));
            }
            // Lay the next job after this one on the shared timeline.
            self.trace_base_s += out.modeled_seconds;
        }
        out
    }

    /// Takes the merged trace accumulated so far (traced worlds only),
    /// leaving an empty trace behind; the virtual-time offset keeps
    /// running, so later jobs still land after earlier ones if traces
    /// are concatenated externally.
    ///
    /// Returns an empty per-rank trace for untraced worlds.
    pub fn take_trace(&mut self) -> Trace {
        std::mem::replace(
            &mut self.trace,
            Trace {
                events: vec![Vec::new(); self.p],
            },
        )
    }
}

impl Drop for SpmdWorld {
    fn drop(&mut self) {
        // Closing the job channels ends each worker's loop; dead threads
        // (panicked jobs) report join errors we deliberately swallow —
        // their panic was already propagated by `run`.
        self.job_txs.clear();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn panic_msg(e: &(dyn Any + Send)) -> String {
    if let Some(s) = e.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = e.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// How to launch a rank program: the two ways to run it on the one
/// runtime — a one-shot scoped run and a persistent reusable world —
/// under one choice of reported clock. The implementors are zero-sized
/// selectors ([`SimBackend`], [`ShmBackend`]), so session/service layers
/// can be generic over the clock with no runtime cost.
pub trait SpmdBackend: 'static {
    /// Short stable name for diagnostics (`"sim"`, `"shm"`).
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
        F: Fn(&mut Comm) -> T + Sync;

    /// Spawns a persistent `p`-rank world for repeated jobs.
    ///
    /// # Panics
    ///
    /// Panics if `p == 0` or `p > MAX_RANKS`.
    fn world(p: usize, model: CostModel) -> SpmdWorld;
}

/// The simulator: worlds report the modeled clock, so modeled times
/// reproduce scaling behaviour for world sizes far beyond the host's
/// cores. [`run_spmd`] and [`SpmdWorld::new`] are its two launchers.
pub struct SimBackend;

impl SpmdBackend for SimBackend {
    fn name() -> &'static str {
        "sim"
    }

    fn run<T, F>(p: usize, model: CostModel, f: F) -> SpmdOutput<T>
    where
        T: Send,
        F: Fn(&mut Comm) -> T + Sync,
    {
        run_spmd(p, model, f)
    }

    fn world(p: usize, model: CostModel) -> SpmdWorld {
        SpmdWorld::new(p, model)
    }
}

/// Wall-clock runs on the same runtime: each rank's clock reads real
/// seconds since its job started, so `modeled_seconds` is the slowest
/// rank's measured time, directly comparable against the simulator's
/// prediction under a model calibrated with [`crate::calibrate_shm`].
/// Compute and advance charges still count, but never move this clock.
pub struct ShmBackend;

impl SpmdBackend for ShmBackend {
    fn name() -> &'static str {
        "shm"
    }

    fn run<T, F>(p: usize, model: CostModel, f: F) -> SpmdOutput<T>
    where
        T: Send,
        F: Fn(&mut Comm) -> T + Sync,
    {
        launch(p, model, Clock::Wall, false, f).0
    }

    fn world(p: usize, model: CostModel) -> SpmdWorld {
        SpmdWorld::build(p, model, Clock::Wall, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A ring exchange, then charges far larger than the run's real
    /// duration.
    fn ring_then_charges(comm: &mut Comm) -> u64 {
        let (me, p) = (comm.rank(), comm.size());
        comm.send((me + 1) % p, 1, me as u64);
        let got: u64 = comm.recv((me + p - 1) % p, 1);
        comm.compute(10u64.pow(15));
        comm.advance_time(1e3);
        got
    }

    #[test]
    fn both_clocks_run_the_same_program() {
        let model = CostModel::cluster();
        let sim = SimBackend::run(4, model, ring_then_charges);
        let shm = ShmBackend::run(4, model, ring_then_charges);
        assert_eq!(sim.results, vec![3, 0, 1, 2]);
        assert_eq!(sim.results, shm.results);
        assert_eq!(sim.stats, shm.stats);
        // The modeled clock is the alpha-beta-gamma value of the charges:
        // one 8-byte message, then the compute, then the advance.
        let charged = model.msg_time(8) + model.compute_time(10u64.pow(15)) + 1e3;
        assert_eq!(sim.modeled_seconds.to_bits(), charged.to_bits());
        // The wall clock ignores the charges (2e5 modeled seconds).
        assert!(
            shm.modeled_seconds <= shm.wall.as_secs_f64(),
            "wall clock {} s exceeds the run's {:?}",
            shm.modeled_seconds,
            shm.wall
        );
    }
}
