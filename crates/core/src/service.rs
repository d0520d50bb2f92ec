//! # Long-lived solver service: factor cache + RHS coalescing
//!
//! [`crate::session::ArdSession`] answers "factor once, replay many" for a *single*
//! matrix owned by a single caller. A real workload (the paper's driving
//! applications — tracking, Kalman smoothing, spectral embarrassments of
//! independent solves) looks different: many clients submit single
//! right-hand-side solves against a *set* of recurring matrices, and the
//! `O(M^2 R)` replay bound only pays off if those single-column requests
//! are batched into wide panels before they hit the SPMD solver.
//!
//! [`SolverService`] is that layer:
//!
//! * **Factorization cache** — matrices are identified by a content
//!   fingerprint ([`MatrixKey`]: a four-lane word hash over `N`, `M`
//!   and every block entry's bit pattern). [`SolverService::register`]
//!   returns the cached [`crate::session::ArdSession`]'s key on a hit
//!   and factors on a miss; entries are evicted least-recently-used
//!   once stored factor bytes exceed the configured budget (the most
//!   recent entry is never evicted, and in-flight solves keep their
//!   entry alive via `Arc`, so eviction can never invalidate a queued
//!   request).
//! * **RHS coalescer** — [`SolverService::submit`] enqueues a request
//!   and returns a [`SolveTicket`]; a dispatcher thread groups queued
//!   requests by matrix and flushes a group when its total width reaches
//!   `max_batch` **or** the oldest request has waited `max_delay`,
//!   whichever comes first. The group is stacked into one wide panel,
//!   solved with a single replay, and split back per request — so `k`
//!   concurrent single-RHS clients pay one `O(M^2 k)` replay instead of
//!   `k` serialized `O(M^2)` solves, each with its own `O(log P)` latency
//!   chain.
//!
//! Metrics (under `BT_OBS=1`): `bt_service.cache.{hit,miss,evict}`,
//! `bt_service.cache.bytes`, `bt_service.batch.dispatches`,
//! `bt_service.batch.width`. Queue waits go to the always-on
//! `bt_service.queue_wait_ns` recorder below. Unconditional counters are
//! available via [`SolverService::stats`].
//!
//! ## Telemetry (always on)
//!
//! Three facilities run regardless of `BT_OBS`, because latency numbers
//! and crash forensics are only useful if they were being collected
//! *before* anyone thought to ask:
//!
//! * **Request ids** — [`SolverService::submit`] mints a process-unique
//!   id per request ([`SolveTicket::request_id`]); the dispatcher mints
//!   a batch id per coalesced dispatch and installs a
//!   [`bt_obs::TraceCtx`] for the whole solve, so under `BT_OBS=1` every
//!   span the dispatch touches — queue wait, batch assembly, the replay
//!   solve, each rank's scan rounds — carries the request ids in one
//!   merged Chrome trace.
//! * **Latency recorders** — per-stage HDR histograms
//!   (`bt_service.{queue_wait,solve,request_total,batch_assemble,factor}_ns`,
//!   see [`bt_obs::hdr`]) feed p50/p95/p99 by stage; scrape them live via
//!   [`bt_obs::exporter`] (`BT_OBS_ADDR`).
//! * **Flight recorder** — every submit, reject, registration, eviction,
//!   dispatch and solve outcome lands in the [`bt_obs::flight`] ring.
//!   When a dispatched solve panics the ring is dumped to
//!   [`ServiceConfig::flight_dump_dir`] (default from `BT_FLIGHT_DIR`),
//!   so a `SolveFailed` ticket always has the events leading up to it.
//!
//! A dispatch that panics anywhere past the queue (assembling the wide
//! panel, the SPMD solve, splitting the answer, or a batched-small
//! solve) is contained: the batch's tickets all resolve to
//! [`ServiceError::SolveFailed`], the dispatcher survives, and every
//! entry, the panicked one included, keeps serving (a panic cannot lose
//! a session's factors; see [`crate::session`]).

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use bt_blocktri::{BlockRow, BlockRowSource, BlockVec, FactorError};
use bt_mpsim::CostModel;
use crossbeam::channel::{unbounded, Receiver, Sender};

use bt_comm::{SimBackend, SpmdBackend};

use crate::auto::{choose_strategy, Strategy};
use crate::batch::{solve_single, BatchedSystems};
use crate::session::{ArdSessionOn, FactorKind};
use crate::state::BoundaryMode;

static OBS_CACHE_HIT: bt_obs::Counter = bt_obs::Counter::new("bt_service.cache.hit");
static OBS_CACHE_MISS: bt_obs::Counter = bt_obs::Counter::new("bt_service.cache.miss");
static OBS_CACHE_EVICT: bt_obs::Counter = bt_obs::Counter::new("bt_service.cache.evict");
static OBS_CACHE_BYTES: bt_obs::Gauge = bt_obs::Gauge::new("bt_service.cache.bytes");
static OBS_DISPATCHES: bt_obs::Counter = bt_obs::Counter::new("bt_service.batch.dispatches");
static OBS_BATCH_WIDTH: bt_obs::Histogram = bt_obs::Histogram::new("bt_service.batch.width");

// Structured fast-path metrics (see `crate::toeplitz` / `crate::batch`):
// registrations routed onto each specialized path, and batched-small
// dispatch shape.
static OBS_TOEPLITZ_REG: bt_obs::Counter =
    bt_obs::Counter::new("bt_ard.structured.toeplitz_registrations");
static OBS_SMALL_REG: bt_obs::Counter =
    bt_obs::Counter::new("bt_ard.structured.small_registrations");
static OBS_SMALL_DISPATCHES: bt_obs::Counter =
    bt_obs::Counter::new("bt_ard.structured.batched_dispatches");

// Always-on per-stage latency recorders (not BT_OBS-gated; see the
// module docs). Nanosecond units throughout.
static LAT_QUEUE_WAIT: bt_obs::Latency = bt_obs::Latency::new("bt_service.queue_wait_ns");
static LAT_SOLVE: bt_obs::Latency = bt_obs::Latency::new("bt_service.solve_ns");
static LAT_REQUEST_TOTAL: bt_obs::Latency = bt_obs::Latency::new("bt_service.request_total_ns");
static LAT_BATCH_ASSEMBLE: bt_obs::Latency = bt_obs::Latency::new("bt_service.batch_assemble_ns");
static LAT_FACTOR: bt_obs::Latency = bt_obs::Latency::new("bt_service.factor_ns");

/// Content fingerprint identifying a registered matrix.
///
/// A 64-bit hash of `(N, M)` and every block entry's `f64` bit pattern,
/// in row order (`A`, `B`, `C` of each row, column-major). Two matrices
/// with identical contents hash to the same key regardless of how their
/// [`BlockRowSource`] is implemented; distinct matrices collide with
/// probability ~2^-64, which the service treats as negligible (a
/// collision would silently reuse the wrong factors). That bound is for
/// accidental collisions only: the key does not resist crafted ones, so
/// a tenant choosing matrix entries can build two matrices with one key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MatrixKey(u64);

impl MatrixKey {
    /// Fingerprints a matrix by content, a word at a time. `O(N M^2)` —
    /// cheap next to the `O(M^3 N / P)` factorization it deduplicates.
    pub fn fingerprint<S: BlockRowSource + ?Sized>(src: &S) -> Self {
        Self::scan(src).0
    }

    /// One pass over every entry: the fingerprint, and the first block
    /// (in the fingerprint's order) that is not `M x M` or holds a
    /// non-finite entry, as a [`ServiceError::MalformedRow`].
    fn scan<S: BlockRowSource + ?Sized>(src: &S) -> (Self, Option<ServiceError>) {
        let m = src.m();
        let mut h = WordHash::new();
        let mut malformed = None;
        for row in 0..src.n() {
            let r = src.row(row);
            for (block, blk) in [('A', &r.a), ('B', &r.b), ('C', &r.c)] {
                let words = blk.as_slice();
                let finite = h.write(words);
                if malformed.is_none() {
                    let defect = if blk.shape() != (m, m) {
                        Some(RowDefect::Shape(blk.shape()))
                    } else if finite {
                        None
                    } else {
                        words
                            .iter()
                            .position(|v| !v.is_finite())
                            .map(|k| RowDefect::NonFinite {
                                entry: (k % m, k / m),
                                value: words[k],
                            })
                    };
                    malformed =
                        defect.map(|defect| ServiceError::MalformedRow { row, block, defect });
                }
            }
        }
        (Self(h.finish(src.n() as u64, m as u64)), malformed)
    }

    /// The raw 64-bit fingerprint.
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

/// The word hash behind [`MatrixKey::fingerprint`], after xxHash64: four
/// lanes each fold every fourth word of a block with a multiply-rotate
/// round (so the four multiply chains run in parallel), the merge mixes
/// in the word count and `(N, M)`, and the finalizer avalanches every
/// input bit into every output bit.
struct WordHash {
    lanes: [u64; 4],
    words: u64,
}

impl WordHash {
    const P1: u64 = 0x9e37_79b1_85eb_ca87;
    const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
    const P3: u64 = 0x1656_67b1_9e37_79f9;
    const P4: u64 = 0x85eb_ca77_c2b2_ae63;

    fn new() -> Self {
        Self {
            lanes: [
                Self::P1.wrapping_add(Self::P2),
                Self::P2,
                0,
                Self::P1.wrapping_neg(),
            ],
            words: 0,
        }
    }

    /// One lane step; a bijection of `acc` for a fixed word and of the
    /// word for a fixed `acc`, so no single-word change cancels out.
    #[inline]
    fn round(acc: u64, word: u64) -> u64 {
        acc.wrapping_add(word.wrapping_mul(Self::P2))
            .rotate_left(31)
            .wrapping_mul(Self::P1)
    }

    /// Folds one block's entries; a block's tail past a multiple of four
    /// goes to the first lanes. Returns whether every entry is finite,
    /// read off the words the hash loads anyway.
    fn write(&mut self, block: &[f64]) -> bool {
        // Adding one to an all-ones exponent field (a NaN or an infinity)
        // carries into the sign bit, which the mask cleared.
        let carry = |v: &f64| (v.to_bits() & 0x7ff0_0000_0000_0000) + (1 << 52);
        let [mut l0, mut l1, mut l2, mut l3] = self.lanes;
        let mut carries = 0;
        let mut quads = block.chunks_exact(4);
        for q in &mut quads {
            l0 = Self::round(l0, q[0].to_bits());
            l1 = Self::round(l1, q[1].to_bits());
            l2 = Self::round(l2, q[2].to_bits());
            l3 = Self::round(l3, q[3].to_bits());
            carries |= carry(&q[0]) | carry(&q[1]) | carry(&q[2]) | carry(&q[3]);
        }
        self.lanes = [l0, l1, l2, l3];
        for (lane, v) in self.lanes.iter_mut().zip(quads.remainder()) {
            *lane = Self::round(*lane, v.to_bits());
            carries |= carry(v);
        }
        self.words += block.len() as u64;
        carries >> 63 == 0
    }

    fn finish(self, n: u64, m: u64) -> u64 {
        let [l0, l1, l2, l3] = self.lanes;
        let mut h = l0
            .rotate_left(1)
            .wrapping_add(l1.rotate_left(7))
            .wrapping_add(l2.rotate_left(12))
            .wrapping_add(l3.rotate_left(18));
        for v in [l0, l1, l2, l3, self.words, n, m] {
            h = (h ^ Self::round(0, v))
                .rotate_left(27)
                .wrapping_mul(Self::P1)
                .wrapping_add(Self::P4);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(Self::P2);
        h ^= h >> 29;
        h = h.wrapping_mul(Self::P3);
        h ^ (h >> 32)
    }
}

impl fmt::Display for MatrixKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Configuration for a [`SolverService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// SPMD world size every cached session is factored for.
    pub ranks: usize,
    /// Cost model for factorization and replay.
    pub model: CostModel,
    /// Factor-byte budget for the cache. The least-recently-used entry
    /// is evicted while the total exceeds this, but the most recently
    /// touched entry always stays (one matrix must remain servable).
    pub cache_bytes: u64,
    /// Width trigger: a per-matrix group of queued requests is flushed
    /// as soon as its total RHS column count reaches this.
    pub max_batch: usize,
    /// Deadline trigger: a queued request is dispatched at most this
    /// long after it was submitted, batched with whatever same-matrix
    /// requests have accumulated behind it.
    pub max_delay: Duration,
    /// Directory the flight-recorder ring is dumped to when a dispatched
    /// solve panics (one `bt-flight-batch<id>.json` per panicked batch).
    /// `None` disables dumping; [`ServiceConfig::new`] seeds it from the
    /// `BT_FLIGHT_DIR` environment variable when set.
    pub flight_dump_dir: Option<std::path::PathBuf>,
}

impl ServiceConfig {
    /// Defaults: 256 MiB factor cache, width-32 batches, 2 ms deadline,
    /// flight dumps to `$BT_FLIGHT_DIR` when that variable is set.
    pub fn new(ranks: usize, model: CostModel) -> Self {
        Self {
            ranks,
            model,
            cache_bytes: 256 << 20,
            max_batch: 32,
            max_delay: Duration::from_millis(2),
            flight_dump_dir: std::env::var_os("BT_FLIGHT_DIR").map(std::path::PathBuf::from),
        }
    }
}

/// Error from the service layer.
#[derive(Debug, Clone)]
pub enum ServiceError {
    /// Factorization failed while registering a matrix.
    Factorization(FactorError),
    /// The matrix has fewer block rows than the configured world size.
    TooFewRows {
        /// Block rows in the offending matrix.
        n: usize,
        /// Configured world size.
        p: usize,
    },
    /// The key was never registered or its entry has been evicted.
    UnknownKey(MatrixKey),
    /// The right-hand side's `(N, M)` does not match the registered
    /// matrix. Mismatched requests are rejected at submit time — they
    /// are never silently batched with compatible ones.
    ShapeMismatch {
        /// `(N, M)` of the registered matrix.
        expected: (usize, usize),
        /// `(N, M)` of the submitted right-hand side.
        got: (usize, usize),
    },
    /// A panel of the right-hand side is not `M x R` like the block
    /// vector claims (its `blocks` are public, so any shape can be put
    /// there). Rejected at submit time, like [`Self::ShapeMismatch`].
    RaggedRhs {
        /// Block row of the first bad panel.
        row: usize,
        /// `(M, R)` of the submitted block vector.
        expected: (usize, usize),
        /// Shape of that panel.
        got: (usize, usize),
    },
    /// A block of the matrix is not `M x M`, or holds a NaN or an
    /// infinity. Rejected at register time, before any setup.
    MalformedRow {
        /// Block row of the first bad block.
        row: usize,
        /// Which block of that row: `'A'`, `'B'` or `'C'`.
        block: char,
        /// What is wrong with it.
        defect: RowDefect,
    },
    /// The dispatch panicked; the message is the panic payload. The
    /// matrix stays cached and its next request is served as usual.
    SolveFailed(String),
    /// The service dropped before this request completed.
    ShuttingDown,
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Factorization(e) => write!(f, "factorization failed: {e}"),
            Self::TooFewRows { n, p } => {
                write!(
                    f,
                    "matrix has {n} block rows but the service runs {p} ranks"
                )
            }
            Self::UnknownKey(k) => write!(f, "matrix key {k} is not cached"),
            Self::ShapeMismatch { expected, got } => write!(
                f,
                "rhs shape (N, M) = {got:?} does not match registered matrix {expected:?}"
            ),
            Self::RaggedRhs { row, expected, got } => {
                write!(f, "rhs panel {row} is {got:?}, not (M, R) = {expected:?}")
            }
            Self::MalformedRow { row, block, defect } => match defect {
                RowDefect::Shape((r, c)) => {
                    write!(f, "block row {row}: {block} is {r} x {c}, not M x M")
                }
                RowDefect::NonFinite { entry, value } => {
                    write!(
                        f,
                        "block row {row}: {block}{entry:?} = {value} is not finite"
                    )
                }
            },
            Self::SolveFailed(msg) => write!(f, "solve failed: {msg}"),
            Self::ShuttingDown => write!(f, "service is shutting down"),
        }
    }
}

/// What [`ServiceError::MalformedRow`] found wrong with a block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RowDefect {
    /// The block's `(rows, cols)`, which is not `(M, M)`.
    Shape((usize, usize)),
    /// The block's first non-finite entry in column-major order.
    NonFinite {
        /// `(i, j)` of the entry within the block.
        entry: (usize, usize),
        /// The entry: NaN or an infinity.
        value: f64,
    },
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Factorization(e) => Some(e),
            _ => None,
        }
    }
}

/// Completed solve handed back through a [`SolveTicket`].
#[derive(Debug)]
pub struct SolveResponse {
    /// The solution panel for this request's right-hand side.
    pub x: BlockVec,
    /// The request id minted at submit (same as the ticket's).
    pub request_id: u64,
    /// Id of the coalesced dispatch this request rode in.
    pub batch_id: u64,
    /// Total column count of the coalesced batch this request rode in.
    pub batch_width: usize,
    /// Time the request spent queued before its batch dispatched.
    pub queue_wait: Duration,
    /// Wall time of the batched solve (shared by the whole batch).
    pub solve_time: Duration,
}

/// Handle to an in-flight solve; redeem with [`SolveTicket::wait`].
#[derive(Debug)]
pub struct SolveTicket {
    rx: Receiver<Result<SolveResponse, ServiceError>>,
    enqueued: Instant,
    request_id: u64,
}

impl SolveTicket {
    /// Blocks until the batched solve completes.
    ///
    /// # Errors
    ///
    /// [`ServiceError::SolveFailed`] if the dispatch panicked,
    /// [`ServiceError::ShuttingDown`] if the service dropped first.
    pub fn wait(self) -> Result<SolveResponse, ServiceError> {
        self.rx.recv().unwrap_or(Err(ServiceError::ShuttingDown))
    }

    /// When the request entered the queue.
    pub fn enqueued_at(&self) -> Instant {
        self.enqueued
    }

    /// The process-unique request id minted at submit — the id this
    /// request's trace spans and flight events carry.
    pub fn request_id(&self) -> u64 {
        self.request_id
    }
}

/// Unconditional counters (independent of `BT_OBS`), snapshot via
/// [`SolverService::stats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// `register` calls answered from the cache.
    pub cache_hits: u64,
    /// `register` calls that factored a new session.
    pub cache_misses: u64,
    /// Entries evicted under the byte budget.
    pub evictions: u64,
    /// Requests accepted by `submit`.
    pub requests: u64,
    /// Batches dispatched to the SPMD solver.
    pub dispatches: u64,
    /// Total RHS columns dispatched (sum of batch widths).
    pub dispatched_columns: u64,
    /// Widest batch dispatched so far.
    pub max_batch_width: u64,
    /// Factor bytes currently cached.
    pub cache_bytes: u64,
    /// Entries currently cached.
    pub cached_entries: u64,
    /// Registrations routed onto the constant-block Toeplitz fast path.
    pub toeplitz_registrations: u64,
    /// Batched-small dispatches (interleaved multi-system solves).
    pub batched_dispatches: u64,
    /// Total systems solved across batched-small dispatches.
    pub batched_systems: u64,
}

#[derive(Default)]
struct AtomicCounters {
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    evictions: AtomicU64,
    requests: AtomicU64,
    dispatches: AtomicU64,
    dispatched_columns: AtomicU64,
    max_batch_width: AtomicU64,
    toeplitz_registrations: AtomicU64,
    batched_dispatches: AtomicU64,
    batched_systems: AtomicU64,
}

/// What a cache entry is backed by: a factored SPMD session (general or
/// Toeplitz), or the raw block rows of a small
/// system held for interleaved batched solves (`crate::batch`) — small
/// systems are cheaper to re-factor per dispatch across the whole
/// batch than to replay one at a time through an SPMD world.
enum Backing<B: SpmdBackend> {
    Spmd(Box<ArdSessionOn<B>>),
    Small(Vec<BlockRow>),
}

struct CacheEntry<B: SpmdBackend> {
    key: MatrixKey,
    n: usize,
    m: usize,
    backing: Backing<B>,
    bytes: u64,
}

struct CacheSlot<B: SpmdBackend> {
    entry: Arc<CacheEntry<B>>,
    last_use: u64,
}

struct CacheState<B: SpmdBackend> {
    map: HashMap<MatrixKey, CacheSlot<B>>,
    seq: u64,
    bytes: u64,
}

// Manual impl: `derive` would demand `B: Default` for a marker type.
impl<B: SpmdBackend> Default for CacheState<B> {
    fn default() -> Self {
        Self {
            map: HashMap::new(),
            seq: 0,
            bytes: 0,
        }
    }
}

struct Pending<B: SpmdBackend> {
    entry: Arc<CacheEntry<B>>,
    rhs: BlockVec,
    enqueued: Instant,
    /// Submit time in trace-epoch ns, for the retroactive queue-wait span.
    t_submit_ns: u64,
    request_id: u64,
    tx: Sender<Result<SolveResponse, ServiceError>>,
}

struct QueueState<B: SpmdBackend> {
    pending: VecDeque<Pending<B>>,
    shutdown: bool,
}

impl<B: SpmdBackend> Default for QueueState<B> {
    fn default() -> Self {
        Self {
            pending: VecDeque::new(),
            shutdown: false,
        }
    }
}

struct Inner<B: SpmdBackend> {
    cfg: ServiceConfig,
    cache: Mutex<CacheState<B>>,
    queue: Mutex<QueueState<B>>,
    queue_cv: Condvar,
    counters: AtomicCounters,
}

/// Long-lived solver front end: factorization cache plus asynchronous
/// right-hand-side coalescer. See the [module docs](self).
pub struct ServiceOn<B: SpmdBackend> {
    inner: Arc<Inner<B>>,
    dispatcher: Option<std::thread::JoinHandle<()>>,
}

/// The service reporting the modeled clock — the spelling almost all
/// code uses; the generic [`ServiceOn`] serves the same cache +
/// coalescer under either [`SpmdBackend`] clock (e.g.
/// `bt_shm::ShmBackend` for wall-clock serving).
pub type SolverService = ServiceOn<SimBackend>;

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl<B: SpmdBackend> ServiceOn<B> {
    /// Starts the service (spawns the dispatcher thread).
    ///
    /// # Panics
    ///
    /// Panics if `cfg.ranks == 0` or `cfg.max_batch == 0`.
    pub fn start(cfg: ServiceConfig) -> Self {
        assert!(cfg.ranks > 0, "service needs at least one rank");
        assert!(cfg.max_batch > 0, "max_batch must be positive");
        let inner = Arc::new(Inner {
            cfg,
            cache: Mutex::new(CacheState::default()),
            queue: Mutex::new(QueueState::default()),
            queue_cv: Condvar::new(),
            counters: AtomicCounters::default(),
        });
        let worker = Arc::clone(&inner);
        let dispatcher = std::thread::Builder::new()
            .name("bt-service-dispatch".into())
            .spawn(move || dispatcher_loop(&worker))
            .expect("spawn service dispatcher");
        Self {
            inner,
            dispatcher: Some(dispatcher),
        }
    }

    /// Ensures `src` is factored and cached; returns its key.
    ///
    /// On a cache hit this costs one fingerprint pass. On a miss the
    /// matrix is factored **outside** the cache lock (other threads keep
    /// hitting the cache meanwhile); if two threads race to register the
    /// same matrix, one factorization wins and the other is dropped.
    ///
    /// # Errors
    ///
    /// [`ServiceError::MalformedRow`] if a block is not `M x M` or has a
    /// non-finite entry (checked in the fingerprint's pass, so a
    /// malformed matrix is never cached), [`ServiceError::TooFewRows`]
    /// if `src.n() < ranks`, [`ServiceError::Factorization`] if setup
    /// breaks down.
    pub fn register<S: BlockRowSource + Sync>(&self, src: &S) -> Result<MatrixKey, ServiceError> {
        let (key, malformed) = MatrixKey::scan(src);
        if let Some(err) = malformed {
            return Err(err);
        }
        {
            let mut cache = lock(&self.inner.cache);
            cache.seq += 1;
            let seq = cache.seq;
            if let Some(slot) = cache.map.get_mut(&key) {
                slot.last_use = seq;
                self.inner.counters.cache_hits.fetch_add(1, Relaxed);
                OBS_CACHE_HIT.incr();
                return Ok(key);
            }
        }
        self.inner.counters.cache_misses.fetch_add(1, Relaxed);
        OBS_CACHE_MISS.incr();
        // Structure detection may route onto a specialized path.
        let strategy = choose_strategy(src, self.inner.cfg.ranks);
        if strategy == Strategy::BatchedSmall {
            // Small systems skip the SPMD session entirely (so they are
            // exempt from the one-row-per-rank floor): the raw rows are
            // cached and each dispatch re-factors them interleaved with
            // every other queued small system of the same shape.
            let rows: Vec<BlockRow> = (0..src.n()).map(|i| src.row(i)).collect();
            let m = src.m() as u64;
            let bytes = rows.len() as u64 * 3 * m * m * std::mem::size_of::<f64>() as u64;
            OBS_SMALL_REG.incr();
            bt_obs::flight::record(
                "register",
                0,
                0,
                key.as_u64(),
                format!("bytes={bytes} path=batched-small"),
            );
            let entry = Arc::new(CacheEntry {
                key,
                n: src.n(),
                m: src.m(),
                backing: Backing::Small(rows),
                bytes,
            });
            self.inner.insert(entry);
            return Ok(key);
        }
        if src.n() < self.inner.cfg.ranks {
            return Err(ServiceError::TooFewRows {
                n: src.n(),
                p: self.inner.cfg.ranks,
            });
        }
        let factor_start = Instant::now();
        let kind = if strategy == Strategy::Toeplitz {
            self.inner
                .counters
                .toeplitz_registrations
                .fetch_add(1, Relaxed);
            OBS_TOEPLITZ_REG.incr();
            FactorKind::Toeplitz
        } else {
            FactorKind::General(BoundaryMode::ExactScan)
        };
        let (ranks, model) = (self.inner.cfg.ranks, self.inner.cfg.model);
        let session = ArdSessionOn::<B>::create_with(ranks, model, kind, src)
            .map_err(ServiceError::Factorization)?;
        LAT_FACTOR.record_duration(factor_start.elapsed());
        // Cached sessions keep persistent rank threads, so a dispatch
        // never spawns a world.
        session.set_world_reuse(true);
        let bytes = session.factor_bytes();
        bt_obs::flight::record(
            "register",
            0,
            0,
            key.as_u64(),
            format!(
                "bytes={bytes} path={}",
                match strategy {
                    Strategy::Toeplitz => "toeplitz",
                    _ => "general",
                }
            ),
        );
        let entry = Arc::new(CacheEntry {
            key,
            n: src.n(),
            m: src.m(),
            backing: Backing::Spmd(Box::new(session)),
            bytes,
        });
        self.inner.insert(entry);
        Ok(key)
    }

    /// Enqueues one solve request; the dispatcher batches it with other
    /// requests against the same matrix. Returns immediately.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownKey`] if `key` is not cached (never
    /// registered, or evicted — re-[`register`](Self::register)),
    /// [`ServiceError::ShapeMismatch`] if `y` does not match the
    /// registered matrix and [`ServiceError::RaggedRhs`] if one of its
    /// panels is not `M x R` (checked here, so a bad request can never
    /// corrupt a batch), [`ServiceError::ShuttingDown`] after drop began.
    pub fn submit(&self, key: MatrixKey, y: &BlockVec) -> Result<SolveTicket, ServiceError> {
        let request_id = bt_obs::ctx::next_request_id();
        let checked = self
            .inner
            .lookup(key)
            .ok_or(ServiceError::UnknownKey(key))
            .and_then(|entry| check_shape(&entry, y).map(|()| entry));
        let entry = match checked {
            Ok(entry) => entry,
            Err(err) => {
                bt_obs::flight::record("reject", request_id, 0, key.as_u64(), err.to_string());
                return Err(err);
            }
        };
        let (tx, rx) = unbounded();
        let enqueued = Instant::now();
        let t_submit_ns = bt_obs::tracer::now_ns();
        bt_obs::flight::record(
            "submit",
            request_id,
            0,
            key.as_u64(),
            format!("r={}", y.r()),
        );
        {
            let mut q = lock(&self.inner.queue);
            if q.shutdown {
                return Err(ServiceError::ShuttingDown);
            }
            q.pending.push_back(Pending {
                entry,
                rhs: y.clone(),
                enqueued,
                t_submit_ns,
                request_id,
                tx,
            });
        }
        self.inner.counters.requests.fetch_add(1, Relaxed);
        self.inner.queue_cv.notify_all();
        Ok(SolveTicket {
            rx,
            enqueued,
            request_id,
        })
    }

    /// [`submit`](Self::submit) + [`SolveTicket::wait`]: blocks until
    /// the batched solve completes.
    ///
    /// # Errors
    ///
    /// Union of the submit- and wait-side errors.
    pub fn solve(&self, key: MatrixKey, y: &BlockVec) -> Result<SolveResponse, ServiceError> {
        self.submit(key, y)?.wait()
    }

    /// Whether `key` currently has a cached factorization.
    pub fn contains(&self, key: MatrixKey) -> bool {
        lock(&self.inner.cache).map.contains_key(&key)
    }

    /// Snapshot of the service counters.
    pub fn stats(&self) -> ServiceStats {
        let c = &self.inner.counters;
        let (cache_bytes, cached_entries) = {
            let cache = lock(&self.inner.cache);
            (cache.bytes, cache.map.len() as u64)
        };
        ServiceStats {
            cache_hits: c.cache_hits.load(Relaxed),
            cache_misses: c.cache_misses.load(Relaxed),
            evictions: c.evictions.load(Relaxed),
            requests: c.requests.load(Relaxed),
            dispatches: c.dispatches.load(Relaxed),
            dispatched_columns: c.dispatched_columns.load(Relaxed),
            max_batch_width: c.max_batch_width.load(Relaxed),
            cache_bytes,
            cached_entries,
            toeplitz_registrations: c.toeplitz_registrations.load(Relaxed),
            batched_dispatches: c.batched_dispatches.load(Relaxed),
            batched_systems: c.batched_systems.load(Relaxed),
        }
    }

    /// The configuration the service was started with.
    pub fn config(&self) -> &ServiceConfig {
        &self.inner.cfg
    }
}

impl<B: SpmdBackend> Drop for ServiceOn<B> {
    /// Flushes every queued request (none are abandoned), then joins the
    /// dispatcher.
    fn drop(&mut self) {
        lock(&self.inner.queue).shutdown = true;
        self.inner.queue_cv.notify_all();
        if let Some(h) = self.dispatcher.take() {
            let _ = h.join();
        }
    }
}

impl<B: SpmdBackend> Inner<B> {
    /// Cache lookup that refreshes LRU order.
    fn lookup(&self, key: MatrixKey) -> Option<Arc<CacheEntry<B>>> {
        let mut cache = lock(&self.cache);
        cache.seq += 1;
        let seq = cache.seq;
        let slot = cache.map.get_mut(&key)?;
        slot.last_use = seq;
        Some(Arc::clone(&slot.entry))
    }

    /// Inserts a freshly factored entry and evicts LRU entries over
    /// budget. If a racing `register` already inserted the same key, the
    /// existing entry is kept and the newcomer dropped.
    fn insert(&self, entry: Arc<CacheEntry<B>>) {
        let mut cache = lock(&self.cache);
        cache.seq += 1;
        let seq = cache.seq;
        let key = entry.key;
        if !cache.map.contains_key(&key) {
            cache.bytes += entry.bytes;
            cache.map.insert(
                key,
                CacheSlot {
                    entry,
                    last_use: seq,
                },
            );
        } else {
            cache.map.get_mut(&key).expect("just checked").last_use = seq;
        }
        while cache.bytes > self.cfg.cache_bytes && cache.map.len() > 1 {
            let victim = cache
                .map
                .iter()
                .min_by_key(|(_, slot)| slot.last_use)
                .map(|(k, _)| *k)
                .expect("non-empty cache");
            if victim == key {
                break; // never evict the entry just inserted/touched
            }
            let slot = cache.map.remove(&victim).expect("victim exists");
            cache.bytes -= slot.entry.bytes;
            self.counters.evictions.fetch_add(1, Relaxed);
            OBS_CACHE_EVICT.incr();
            bt_obs::flight::record(
                "evict",
                0,
                0,
                victim.as_u64(),
                format!("bytes={}", slot.entry.bytes),
            );
            // An in-flight solve may still hold the Arc; the factors are
            // freed when the last pending request against them drains.
        }
        OBS_CACHE_BYTES.set(cache.bytes as f64);
    }
}

/// Rejects a right-hand side that is not `N` panels of `M x R` for
/// `entry`'s matrix.
fn check_shape<B: SpmdBackend>(entry: &CacheEntry<B>, y: &BlockVec) -> Result<(), ServiceError> {
    if (entry.n, entry.m) != (y.n(), y.m()) {
        return Err(ServiceError::ShapeMismatch {
            expected: (entry.n, entry.m),
            got: (y.n(), y.m()),
        });
    }
    match y
        .blocks
        .iter()
        .position(|panel| panel.shape() != (y.m(), y.r()))
    {
        Some(row) => Err(ServiceError::RaggedRhs {
            row,
            expected: (y.m(), y.r()),
            got: y.blocks[row].shape(),
        }),
        None => Ok(()),
    }
}

/// Dispatcher thread body: pull a flushable batch, solve, respond.
fn dispatcher_loop<B: SpmdBackend>(inner: &Inner<B>) {
    while let Some(batch) = next_batch(inner) {
        dispatch(inner, batch);
    }
}

/// How a flushable group of queued requests is identified: SPMD-backed
/// requests coalesce per matrix key (one session, one wide panel);
/// small-backed requests coalesce per `(n, m, r)` shape **across**
/// matrix keys (one interleaved batched solve over many matrices).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum GroupSel {
    Key(MatrixKey),
    Small((usize, usize, usize)),
}

fn group_of<B: SpmdBackend>(p: &Pending<B>) -> GroupSel {
    match &p.entry.backing {
        Backing::Spmd(_) => GroupSel::Key(p.entry.key),
        Backing::Small(_) => GroupSel::Small((p.entry.n, p.entry.m, p.rhs.r())),
    }
}

/// Blocks until some group of queued requests is flushable: its load
/// reached `max_batch` (RHS columns for per-matrix groups, systems for
/// small shape groups), the oldest queued request aged past
/// `max_delay`, or shutdown began (which flushes everything left).
/// Returns `None` only when the queue is empty *and* shut down.
fn next_batch<B: SpmdBackend>(inner: &Inner<B>) -> Option<Vec<Pending<B>>> {
    let mut q = lock(&inner.queue);
    loop {
        if q.pending.is_empty() {
            if q.shutdown {
                return None;
            }
            q = inner
                .queue_cv
                .wait(q)
                .unwrap_or_else(PoisonError::into_inner);
            continue;
        }
        if let Some(sel) = full_group(&q, inner.cfg.max_batch) {
            return Some(extract_group(&mut q, sel, inner.cfg.max_batch));
        }
        let oldest = q.pending.front().expect("non-empty queue");
        let deadline = oldest.enqueued + inner.cfg.max_delay;
        let now = Instant::now();
        if q.shutdown || now >= deadline {
            let sel = group_of(oldest);
            return Some(extract_group(&mut q, sel, inner.cfg.max_batch));
        }
        let (guard, _) = inner
            .queue_cv
            .wait_timeout(q, deadline - now)
            .unwrap_or_else(PoisonError::into_inner);
        q = guard;
    }
}

/// First group whose queued load reaches `max_batch` (columns for
/// per-matrix groups, systems for small shape groups), if any.
fn full_group<B: SpmdBackend>(q: &QueueState<B>, max_batch: usize) -> Option<GroupSel> {
    let mut loads: HashMap<GroupSel, usize> = HashMap::new();
    for p in &q.pending {
        let sel = group_of(p);
        let w = loads.entry(sel).or_insert(0);
        *w += match sel {
            GroupSel::Key(_) => p.rhs.r(),
            GroupSel::Small(_) => 1,
        };
        if *w >= max_batch {
            return Some(sel);
        }
    }
    None
}

/// Removes the FIFO prefix of `sel`'s group, up to `max_batch` load
/// units (a single wider-than-budget request still dispatches alone).
/// Stops at the first same-group request that does not fit, preserving
/// per-group FIFO order.
fn extract_group<B: SpmdBackend>(
    q: &mut QueueState<B>,
    sel: GroupSel,
    max_batch: usize,
) -> Vec<Pending<B>> {
    let mut taken = Vec::new();
    let mut load = 0;
    let mut closed = false;
    let mut rest = VecDeque::with_capacity(q.pending.len());
    for p in q.pending.drain(..) {
        let unit = match sel {
            GroupSel::Key(_) => p.rhs.r(),
            GroupSel::Small(_) => 1,
        };
        let fits = taken.is_empty() || load + unit <= max_batch;
        if group_of(&p) == sel && !closed && fits {
            load += unit;
            taken.push(p);
            closed = load >= max_batch;
        } else {
            closed |= group_of(&p) == sel;
            rest.push_back(p);
        }
    }
    q.pending = rest;
    taken
}

/// Solves one coalesced batch and answers its tickets. Both backings
/// share the prologue (ids, trace context, counters, queue waits) and
/// the responses; their own work runs inside one `catch_unwind`, so a
/// panic anywhere in it fails this batch's tickets and nothing else.
fn dispatch<B: SpmdBackend>(inner: &Inner<B>, mut batch: Vec<Pending<B>>) {
    let entry = Arc::clone(&batch[0].entry);
    let small = matches!(entry.backing, Backing::Small(_));
    let key = entry.key.as_u64();
    let k = batch.len();
    let widths: Vec<usize> = batch.iter().map(|p| p.rhs.r()).collect();
    let total: usize = widths.iter().sum();
    let dispatched_at = Instant::now();
    let t_dispatch_ns = bt_obs::tracer::now_ns();

    // Identity of this dispatch: one batch id covering every coalesced
    // request. Installed on the dispatcher thread for the whole solve,
    // so assembly, the session replay and every rank's scan spans all
    // carry the request ids (the session hands the context to its rank
    // threads; see `ArdSession::solve_inner`).
    let batch_id = bt_obs::ctx::next_batch_id();
    let request_ids: Vec<u64> = batch.iter().map(|p| p.request_id).collect();
    let _ctx_guard = bt_obs::ctx::enter(bt_obs::TraceCtx::batch(batch_id, &request_ids));
    let (event, detail) = if small {
        ("dispatch_small", format!("systems={k} width={total}"))
    } else {
        ("dispatch", format!("width={total} reqs={k}"))
    };
    bt_obs::flight::record(event, 0, batch_id, key, detail);

    let c = &inner.counters;
    c.dispatches.fetch_add(1, Relaxed);
    c.dispatched_columns.fetch_add(total as u64, Relaxed);
    c.max_batch_width.fetch_max(total as u64, Relaxed);
    OBS_DISPATCHES.incr();
    OBS_BATCH_WIDTH.record(total as u64);
    if small {
        c.batched_dispatches.fetch_add(1, Relaxed);
        c.batched_systems.fetch_add(k as u64, Relaxed);
        OBS_SMALL_DISPATCHES.incr();
    }
    for p in &batch {
        LAT_QUEUE_WAIT.record_duration(dispatched_at.duration_since(p.enqueued));
        // Retroactive span covering submit -> dispatch, tagged with the
        // waiting request's own id (not the whole batch).
        bt_obs::complete_span(
            "service",
            "queue.wait",
            p.t_submit_ns,
            t_dispatch_ns,
            Some(&bt_obs::TraceCtx::request(p.request_id)),
            None,
        );
    }

    let span = if small {
        bt_obs::span_with("service", "batch_small.dispatch", || {
            format!("{{\"systems\":{k},\"width\":{total}}}")
        })
    } else {
        bt_obs::span_with("service", "batch.dispatch", || {
            format!("{{\"width\":{total},\"key\":\"{key:016x}\"}}")
        })
    };
    // The solve time is read once the answers are in hand, before a
    // wide answer is split.
    let solved = catch_unwind(AssertUnwindSafe(|| match &entry.backing {
        Backing::Spmd(session) => {
            let x_wide = solve_spmd(session, &mut batch, batch_id, key);
            let solve_time = dispatched_at.elapsed();
            if k == 1 {
                (vec![Ok(x_wide)], solve_time, None)
            } else {
                let parts = split(&x_wide, &widths).into_iter().map(Ok).collect();
                (parts, solve_time, Some(x_wide))
            }
        }
        Backing::Small(_) => (
            solve_small(&batch, batch_id, key),
            dispatched_at.elapsed(),
            None,
        ),
    }));
    drop(span);

    let (results, solve_time, wide) = solved.unwrap_or_else(|payload| {
        let solve_time = dispatched_at.elapsed();
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "solve panicked".into());
        bt_obs::flight::record("solve_panic", 0, batch_id, key, msg.clone());
        for p in &batch {
            bt_obs::flight::record("solve_failed", p.request_id, batch_id, key, "");
        }
        // Dump before resolving the tickets, so a caller seeing
        // `SolveFailed` can immediately read the black box.
        if let Some(dir) = &inner.cfg.flight_dump_dir {
            let path = dir.join(format!("bt-flight-batch{batch_id}.json"));
            if let Err(e) = bt_obs::flight::dump_to_file(&path) {
                eprintln!("bt-service: flight dump to {} failed: {e}", path.display());
            }
        }
        (
            vec![Err(ServiceError::SolveFailed(msg)); k],
            solve_time,
            None,
        )
    });
    LAT_SOLVE.record_duration(solve_time);
    debug_assert_eq!(results.len(), k, "one result per request");
    // Every batch is answered newest first, and a split batch's wide
    // answer is freed after answering: on `structured-mix`, answering
    // oldest first (0.90x) or freeing the wide answer first (0.96x)
    // measured lower throughput (EXPERIMENTS.md, "Shared factors").
    for (p, result) in batch.into_iter().zip(results).rev() {
        let queue_wait = dispatched_at.duration_since(p.enqueued);
        let response = result.map(|x| {
            LAT_REQUEST_TOTAL.record_duration(queue_wait + solve_time);
            SolveResponse {
                x,
                request_id: p.request_id,
                batch_id,
                batch_width: total,
                queue_wait,
                solve_time,
            }
        });
        let _ = p.tx.send(response);
    }
    drop(wide);
}

/// Runs a dispatch's assembly step under the `batch.assemble` span and
/// latency recorder.
fn assemble<T>(build: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let span = bt_obs::span("service", "batch.assemble");
    let built = build();
    drop(span);
    LAT_BATCH_ASSEMBLE.record_duration(start.elapsed());
    built
}

/// The `Spmd` backing's work: stack the group's right-hand sides into
/// one wide panel and replay it once over the cached session.
fn solve_spmd<B: SpmdBackend>(
    session: &ArdSessionOn<B>,
    batch: &mut [Pending<B>],
    batch_id: u64,
    key: u64,
) -> BlockVec {
    let y = assemble(|| {
        if let [lone] = batch {
            // A lone request's own panels go to the solver by value.
            BlockVec::from_blocks(std::mem::take(&mut lone.rhs.blocks))
        } else {
            hstack(batch)
        }
    });
    let x_wide = session.solve_owned(y);
    bt_obs::flight::record("solve_ok", 0, batch_id, key, "");
    x_wide
}

/// The `Small` backing's work: interleave every request's matrix into
/// one SoA batch, factor and solve all of them in a single pass
/// (`crate::batch`), one lane per request. A pivot breakdown in the
/// unpivoted interleaved factorization falls back to per-system pivoted
/// Thomas solves, so one singular lane only fails its own request.
fn solve_small<B: SpmdBackend>(
    batch: &[Pending<B>],
    batch_id: u64,
    key: u64,
) -> Vec<Result<BlockVec, ServiceError>> {
    fn rows<B: SpmdBackend>(p: &Pending<B>) -> &[BlockRow] {
        match &p.entry.backing {
            Backing::Small(rows) => rows,
            Backing::Spmd(_) => unreachable!("small dispatch over spmd entry"),
        }
    }
    let row_sets: Vec<&[BlockRow]> = batch.iter().map(rows).collect();
    let systems = assemble(|| BatchedSystems::from_row_sets(&row_sets));
    match systems.factor() {
        Ok(factors) => {
            let ys: Vec<&BlockVec> = batch.iter().map(|p| &p.rhs).collect();
            let xs = factors.solve_blockvecs(&ys);
            bt_obs::flight::record("solve_ok", 0, batch_id, key, "");
            xs.into_iter().map(Ok).collect()
        }
        Err(e) => {
            // The interleaved LU is unpivoted (pivoting would break the
            // shared elimination order across lanes); one hard lane is
            // rare but must not sink the whole batch.
            bt_obs::flight::record("batch_small_fallback", 0, batch_id, key, e.to_string());
            batch
                .iter()
                .map(|p| solve_single(rows(p), &p.rhs).map_err(ServiceError::Factorization))
                .collect()
        }
    }
}

/// Stacks the batch's right-hand sides into one `M x total` panel per
/// block row, in batch order.
fn hstack<B: SpmdBackend>(batch: &[Pending<B>]) -> BlockVec {
    let n = batch[0].rhs.n();
    let m = batch[0].rhs.m();
    let total: usize = batch.iter().map(|p| p.rhs.r()).sum();
    let mut wide = BlockVec::zeros(n, m, total);
    for i in 0..n {
        let mut c0 = 0;
        for p in batch {
            wide.blocks[i].set_block(0, c0, &p.rhs.blocks[i]);
            c0 += p.rhs.r();
        }
    }
    wide
}

/// Splits a wide solution panel back into per-request block vectors.
fn split(wide: &BlockVec, widths: &[usize]) -> Vec<BlockVec> {
    let m = wide.m();
    let mut out = Vec::with_capacity(widths.len());
    let mut c0 = 0;
    for &w in widths {
        let blocks = wide
            .blocks
            .iter()
            .map(|panel| panel.block(0, c0, m, w))
            .collect();
        out.push(BlockVec::from_blocks(blocks));
        c0 += w;
    }
    out
}
