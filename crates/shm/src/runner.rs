//! Shared-memory SPMD launcher: `P` real rank threads, wall-clock stats.
//!
//! The shape mirrors `bt_mpsim`'s runner — one-shot [`run_shm`] and the
//! persistent [`ShmWorld`] — but everything timed is real: the
//! `modeled_seconds` of an [`SpmdOutput`] from this backend is the
//! maximum per-rank wall time (each rank's `virtual_time` is its real
//! elapsed seconds), directly comparable against the virtual clock the
//! simulator produces for the same program under a calibrated
//! [`CostModel`].
//!
//! Rank threads can be pinned to cores with `BT_SHM_PIN=1` (Linux only;
//! rank `r` goes to core `r % ncores` via a raw `sched_setaffinity`
//! call). Pinning tightens wall-clock variance on dedicated hosts but
//! hurts on shared/oversubscribed ones, so it is opt-in.

use std::time::Instant;

use bt_comm::{CostModel, PersistentWorld, SpmdBackend, SpmdOutput, WorldStats, MAX_RANKS};

use crate::comm::{Envelope, ShmComm};
use crate::spsc::spsc_channel;

/// True when `BT_SHM_PIN` asks for core pinning (`1`/`true`/`on`).
fn pin_requested() -> bool {
    static PIN: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *PIN.get_or_init(|| {
        std::env::var("BT_SHM_PIN")
            .map(|v| matches!(v.as_str(), "1" | "true" | "on"))
            .unwrap_or(false)
    })
}

/// Pins the calling thread to `core` (best effort, Linux only).
#[cfg(target_os = "linux")]
fn pin_to_core(core: usize) {
    // Raw syscall wrapper: the container has no `libc` crate, but the
    // symbol is always in the platform C library we already link.
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // cpu_set_t is 1024 bits on Linux; one u64 word per 64 cores.
    let mut mask = [0u64; 16];
    let word = core / 64;
    if word < mask.len() {
        mask[word] = 1u64 << (core % 64);
        // Failure (e.g. restricted affinity) is non-fatal: stay unpinned.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    }
}

#[cfg(not(target_os = "linux"))]
fn pin_to_core(_core: usize) {}

/// Prepares the calling rank thread: intra-rank kernel thread budget,
/// optional core pinning, observability labels.
fn init_rank_thread(rank: usize, model: CostModel) {
    bt_dense::threading::set_thread_budget(model.threads_per_rank.max(1));
    if pin_requested() {
        let ncores = std::thread::available_parallelism().map_or(1, usize::from);
        pin_to_core(rank % ncores);
    }
    if bt_obs::enabled() {
        bt_obs::set_thread_label(format!("shm rank {rank}"));
    }
}

/// Builds the all-to-all SPSC mesh and one [`ShmComm`] per rank.
fn build_comms(p: usize, model: CostModel) -> Vec<ShmComm> {
    assert!(p >= 1, "world size must be at least 1");
    assert!(
        p <= MAX_RANKS,
        "world size {p} exceeds MAX_RANKS ({MAX_RANKS})"
    );
    // chans[src][dst]: exactly one producer (src) and consumer (dst)
    // per channel — the SPSC restriction is structural.
    let mut txs: Vec<Vec<Option<crate::spsc::SpscSender<Envelope>>>> =
        (0..p).map(|_| (0..p).map(|_| None).collect()).collect();
    let mut rx_rows: Vec<Vec<Option<crate::spsc::SpscReceiver<Envelope>>>> =
        (0..p).map(|_| (0..p).map(|_| None).collect()).collect();
    for (src, row) in txs.iter_mut().enumerate() {
        for (dst, slot) in row.iter_mut().enumerate() {
            let (tx, rx) = spsc_channel();
            *slot = Some(tx);
            rx_rows[dst][src] = Some(rx);
        }
    }
    txs.into_iter()
        .zip(rx_rows)
        .enumerate()
        .map(|(rank, (send_row, recv_row))| {
            let senders = send_row
                .into_iter()
                .map(|s| s.expect("sender built"))
                .collect();
            let receivers = recv_row
                .into_iter()
                .map(|r| r.expect("receiver built"))
                .collect();
            ShmComm::new(rank, p, senders, receivers, model)
        })
        .collect()
}

/// Runs `f` as an SPMD program on `p` real rank threads.
///
/// Same contract as `bt_mpsim::run_spmd`, with measured time: each rank
/// gets its own [`ShmComm`], `modeled_seconds` is the maximum per-rank
/// wall clock. `model` is attached to the communicators (for
/// model-consulting call sites and modeled comparisons) but never
/// advances any clock.
///
/// # Panics
///
/// Panics if `p == 0` or `p > MAX_RANKS`, or if any rank panics (the
/// panic is propagated; peers blocked on the dead rank panic with a
/// "terminated" message of their own).
pub fn run_shm<T, F>(p: usize, model: CostModel, f: F) -> SpmdOutput<T>
where
    T: Send,
    F: Fn(&mut ShmComm) -> T + Sync,
{
    let comms = build_comms(p, model);
    let start = Instant::now();
    let f = &f;
    let rank_outputs: Vec<(T, bt_comm::RankStats, f64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = comms
            .into_iter()
            .map(|mut comm| {
                scope.spawn(move || {
                    init_rank_thread(bt_comm::CommBackend::rank(&comm), model);
                    let _span = bt_obs::span_with("shm", "rank", || {
                        format!("{{\"rank\":{}}}", bt_comm::CommBackend::rank(&comm))
                    });
                    comm.epoch = Instant::now();
                    let result = f(&mut comm);
                    (
                        result,
                        bt_comm::CommBackend::stats(&comm),
                        bt_comm::CommBackend::virtual_time(&comm),
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .enumerate()
            .map(|(rank, h)| match h.join() {
                Ok(out) => out,
                Err(e) => {
                    std::panic::panic_any(format!("rank {rank} panicked: {}", panic_msg(&*e)))
                }
            })
            .collect()
    });
    let wall = start.elapsed();

    let mut results = Vec::with_capacity(p);
    let mut per_rank = Vec::with_capacity(p);
    let mut elapsed = 0.0f64;
    for (result, stats, clock) in rank_outputs {
        results.push(result);
        per_rank.push(stats);
        elapsed = elapsed.max(clock);
    }
    SpmdOutput {
        results,
        stats: WorldStats { per_rank },
        wall,
        modeled_seconds: elapsed,
    }
}

fn panic_msg(e: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = e.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = e.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One dispatched unit of work for a persistent rank thread.
type Job = Box<dyn FnOnce(&mut ShmComm) -> Box<dyn std::any::Any + Send> + Send>;

/// What a persistent rank reports back after a job.
enum RankDone {
    Ok {
        result: Box<dyn std::any::Any + Send>,
        stats: bt_comm::RankStats,
        clock: f64,
    },
    Panicked(String),
}

/// A **reusable** shared-memory world: `P` rank threads spawned (and
/// pinned) once, serving jobs through [`PersistentWorld::run`] with the
/// same per-job reset semantics as the simulator's `SpmdWorld`. Keeping
/// the threads warm matters more here than in the simulator — core
/// pinning, kernel thread budgets and the panel pool all stay hot
/// between solves.
pub struct ShmWorld {
    p: usize,
    model: CostModel,
    job_txs: Vec<std::sync::mpsc::Sender<Job>>,
    done_rx: std::sync::mpsc::Receiver<(usize, RankDone)>,
    handles: Vec<std::thread::JoinHandle<()>>,
    dead: bool,
}

impl ShmWorld {
    /// Spawns the `p` persistent rank threads.
    ///
    /// # Panics
    ///
    /// Panics if `p == 0` or `p > MAX_RANKS`.
    pub fn new(p: usize, model: CostModel) -> Self {
        let comms = build_comms(p, model);
        let (done_tx, done_rx) = std::sync::mpsc::channel::<(usize, RankDone)>();
        let mut job_txs = Vec::with_capacity(p);
        let mut handles = Vec::with_capacity(p);
        for mut comm in comms {
            let (job_tx, job_rx) = std::sync::mpsc::channel::<Job>();
            job_txs.push(job_tx);
            let done_tx = done_tx.clone();
            handles.push(std::thread::spawn(move || {
                let rank = bt_comm::CommBackend::rank(&comm);
                init_rank_thread(rank, model);
                while let Ok(job) = job_rx.recv() {
                    comm.reset_for_reuse();
                    let outcome =
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job(&mut comm)));
                    match outcome {
                        Ok(result) => {
                            let done = RankDone::Ok {
                                result,
                                stats: bt_comm::CommBackend::stats(&comm),
                                clock: bt_comm::CommBackend::virtual_time(&comm),
                            };
                            if done_tx.send((rank, done)).is_err() {
                                return; // world dropped mid-job
                            }
                        }
                        Err(e) => {
                            let _ = done_tx.send((rank, RankDone::Panicked(panic_msg(&*e))));
                            std::panic::resume_unwind(e);
                        }
                    }
                }
            }));
        }
        Self {
            p,
            model,
            job_txs,
            done_rx,
            handles,
            dead: false,
        }
    }
}

impl PersistentWorld for ShmWorld {
    type Comm = ShmComm;

    #[inline]
    fn ranks(&self) -> usize {
        self.p
    }

    #[inline]
    fn model(&self) -> CostModel {
        self.model
    }

    #[inline]
    fn is_dead(&self) -> bool {
        self.dead
    }

    fn run<T, F>(&mut self, f: F) -> SpmdOutput<T>
    where
        T: Send + 'static,
        F: Fn(&mut ShmComm) -> T + Send + Sync + 'static,
    {
        assert!(!self.dead, "ShmWorld is dead after a panicked job");
        let f = std::sync::Arc::new(f);
        let start = Instant::now();
        for tx in &self.job_txs {
            let f = std::sync::Arc::clone(&f);
            let job: Job = Box::new(move |comm| Box::new(f(comm)));
            if tx.send(job).is_err() {
                self.dead = true;
                panic!("ShmWorld rank thread is gone (earlier panic?)");
            }
        }
        let mut slots: Vec<Option<RankDone>> = (0..self.p).map(|_| None).collect();
        let mut first_panic: Option<(usize, String)> = None;
        for _ in 0..self.p {
            match self.done_rx.recv() {
                Ok((rank, done)) => {
                    if let RankDone::Panicked(msg) = &done {
                        if first_panic.is_none() {
                            first_panic = Some((rank, msg.clone()));
                        }
                    }
                    slots[rank] = Some(done);
                }
                Err(_) => {
                    self.dead = true;
                    panic!("ShmWorld rank thread died without reporting");
                }
            }
        }
        let wall = start.elapsed();
        if let Some((rank, msg)) = first_panic {
            self.dead = true;
            std::panic::panic_any(format!("rank {rank} panicked: {msg}"));
        }

        let mut results = Vec::with_capacity(self.p);
        let mut per_rank = Vec::with_capacity(self.p);
        let mut elapsed = 0.0f64;
        for done in slots.into_iter() {
            match done.expect("all ranks reported") {
                RankDone::Ok {
                    result,
                    stats,
                    clock,
                } => {
                    results.push(
                        *result
                            .downcast::<T>()
                            .expect("job result type fixed by run's signature"),
                    );
                    per_rank.push(stats);
                    elapsed = elapsed.max(clock);
                }
                RankDone::Panicked(_) => unreachable!("panics returned above"),
            }
        }
        SpmdOutput {
            results,
            stats: WorldStats { per_rank },
            wall,
            modeled_seconds: elapsed,
        }
    }
}

impl Drop for ShmWorld {
    fn drop(&mut self) {
        self.job_txs.clear();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// The shared-memory runtime as an [`SpmdBackend`]: the zero-sized
/// selector that the generic driver/session/service layers use to run
/// rank programs on real threads instead of the simulator.
pub struct ShmBackend;

impl SpmdBackend for ShmBackend {
    type Comm = ShmComm;
    type World = ShmWorld;

    fn name() -> &'static str {
        "shm"
    }

    fn run<T, F>(p: usize, model: CostModel, f: F) -> SpmdOutput<T>
    where
        T: Send,
        F: Fn(&mut ShmComm) -> T + Sync,
    {
        run_shm(p, model, f)
    }

    fn world(p: usize, model: CostModel) -> ShmWorld {
        ShmWorld::new(p, model)
    }
}
