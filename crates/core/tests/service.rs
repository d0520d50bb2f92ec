//! Integration tests for the [`bt_ard::SolverService`] layer: cache
//! hit/miss/eviction semantics, fingerprint sensitivity, batching
//! triggers (width and deadline), shape rejection, eviction racing
//! in-flight solves, panic containment in the dispatcher, and bitwise
//! agreement of service answers with direct session solves.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use bt_ard::{
    ArdSession, FactorKind, MatrixKey, ServiceConfig, ServiceError, ServiceOn, SolverService,
};
use bt_blocktri::gen::{materialize, random_rhs, ClusteredToeplitz, RandomDominant};
use bt_blocktri::{BlockRow, BlockRowSource, BlockVec};
use bt_comm::{Comm, SimBackend, SpmdBackend, SpmdOutput, SpmdWorld};
use bt_dense::Mat;
use bt_mpsim::CostModel;

const N: usize = 24;
const M: usize = 3;
const P: usize = 4;

fn src(seed: u64) -> ClusteredToeplitz {
    ClusteredToeplitz::standard(N, M, seed)
}

fn cfg() -> ServiceConfig {
    ServiceConfig::new(P, CostModel::default())
}

#[test]
fn register_is_idempotent_and_solve_round_trips() {
    let svc = SolverService::start(ServiceConfig {
        max_delay: Duration::from_millis(5),
        ..cfg()
    });
    let a = src(7);
    let key = svc.register(&a).unwrap();
    let key2 = svc.register(&a).unwrap();
    assert_eq!(key, key2, "same contents must fingerprint identically");

    let y = random_rhs(N, M, 2, 11);
    let resp = svc.solve(key, &y).unwrap();
    let t = materialize(&a);
    assert!(t.rel_residual(&resp.x, &y) < 1e-10);

    let stats = svc.stats();
    assert_eq!(stats.cache_hits, 1);
    assert_eq!(stats.cache_misses, 1);
    assert_eq!(stats.requests, 1);
    assert_eq!(stats.dispatches, 1);
    assert_eq!(stats.cached_entries, 1);
    assert!(stats.cache_bytes > 0);
}

#[test]
fn distinct_matrices_get_distinct_keys() {
    let ka = MatrixKey::fingerprint(&src(1));
    let kb = MatrixKey::fingerprint(&src(2));
    assert_ne!(ka, kb);
}

#[test]
fn deadline_flush_dispatches_a_single_queued_request() {
    // Width trigger unreachable (max_batch huge): only the deadline can
    // flush, and it must fire even with a single queued request.
    let svc = SolverService::start(ServiceConfig {
        max_batch: 1_000,
        max_delay: Duration::from_millis(25),
        ..cfg()
    });
    let a = src(3);
    let key = svc.register(&a).unwrap();
    let y = random_rhs(N, M, 1, 5);

    let t0 = Instant::now();
    let resp = svc.solve(key, &y).unwrap();
    let elapsed = t0.elapsed();

    assert_eq!(resp.batch_width, 1);
    assert!(
        resp.queue_wait >= Duration::from_millis(20),
        "single request should wait out the deadline, waited {:?}",
        resp.queue_wait
    );
    assert!(
        elapsed < Duration::from_secs(5),
        "deadline flush too slow: {elapsed:?}"
    );
    assert!(materialize(&a).rel_residual(&resp.x, &y) < 1e-10);
}

#[test]
fn width_flush_coalesces_concurrent_single_rhs_requests() {
    const K: usize = 8;
    // Deadline far away: only the width trigger can flush this fast.
    let svc = SolverService::start(ServiceConfig {
        max_batch: K,
        max_delay: Duration::from_secs(10),
        ..cfg()
    });
    let a = src(9);
    let key = svc.register(&a).unwrap();
    let t = materialize(&a);

    let rhss: Vec<BlockVec> = (0..K as u64)
        .map(|s| random_rhs(N, M, 1, 100 + s))
        .collect();
    let t0 = Instant::now();
    let tickets: Vec<_> = rhss.iter().map(|y| svc.submit(key, y).unwrap()).collect();
    for (ticket, y) in tickets.into_iter().zip(&rhss) {
        let resp = ticket.wait().unwrap();
        assert_eq!(
            resp.batch_width, K,
            "all {K} single-RHS requests should ride one coalesced dispatch"
        );
        assert!(t.rel_residual(&resp.x, y) < 1e-10);
    }
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_secs(5),
        "width flush should beat the 10 s deadline, took {elapsed:?}"
    );
    let stats = svc.stats();
    assert_eq!(stats.dispatches, 1);
    assert_eq!(stats.dispatched_columns, K as u64);
    assert_eq!(stats.max_batch_width, K as u64);
}

#[test]
fn mismatched_shapes_are_rejected_not_silently_batched() {
    let svc = SolverService::start(ServiceConfig {
        max_delay: Duration::from_millis(5),
        ..cfg()
    });
    let a = src(13);
    let key = svc.register(&a).unwrap();

    // Wrong block count N.
    let bad_n = random_rhs(N - 1, M, 1, 1);
    match svc.submit(key, &bad_n) {
        Err(ServiceError::ShapeMismatch { expected, got }) => {
            assert_eq!(expected, (N, M));
            assert_eq!(got, (N - 1, M));
        }
        other => panic!(
            "expected ShapeMismatch, got {other:?}",
            other = other.map(|_| ())
        ),
    }

    // Wrong block order M.
    let bad_m = random_rhs(N, M + 1, 1, 1);
    assert!(matches!(
        svc.submit(key, &bad_m),
        Err(ServiceError::ShapeMismatch { .. })
    ));

    // Unknown key.
    let never = MatrixKey::fingerprint(&src(999));
    assert!(matches!(
        svc.submit(never, &random_rhs(N, M, 1, 1)),
        Err(ServiceError::UnknownKey(_))
    ));

    // A well-shaped request still works after the rejections.
    let y = random_rhs(N, M, 1, 2);
    let resp = svc.solve(key, &y).unwrap();
    assert!(materialize(&a).rel_residual(&resp.x, &y) < 1e-10);

    // Ragged panels: an extra column, a missing column, an extra row.
    for (row, shape) in [(7, (M, 3)), (N - 1, (M, 1)), (0, (M + 1, 2))] {
        let mut ragged = random_rhs(N, M, 2, 3);
        ragged.blocks[row] = Mat::zeros(shape.0, shape.1);
        let err = svc.submit(key, &ragged).map(|_| ()).unwrap_err();
        assert!(
            matches!(err, ServiceError::RaggedRhs { row: r, expected: (M, 2), got }
                if (r, got) == (row, shape)),
            "got {err:?}"
        );
        let resp = svc.solve(key, &y).unwrap();
        assert!(materialize(&a).rel_residual(&resp.x, &y) < 1e-10);
    }
}

#[test]
fn requests_against_different_matrices_never_share_a_batch() {
    // Two matrices with the same shape queued together: the coalescer
    // groups by key, so each dispatch must carry exactly one matrix.
    let svc = SolverService::start(ServiceConfig {
        max_batch: 4,
        max_delay: Duration::from_millis(50),
        ..cfg()
    });
    let a = src(21);
    let b = src(22);
    let ka = svc.register(&a).unwrap();
    let kb = svc.register(&b).unwrap();
    let ta = materialize(&a);
    let tb = materialize(&b);

    let ys: Vec<BlockVec> = (0..4u64).map(|s| random_rhs(N, M, 1, 200 + s)).collect();
    let tickets: Vec<_> = ys
        .iter()
        .enumerate()
        .map(|(i, y)| {
            let key = if i % 2 == 0 { ka } else { kb };
            (i, svc.submit(key, y).unwrap())
        })
        .collect();
    for (i, ticket) in tickets {
        let resp = ticket.wait().unwrap();
        let t = if i % 2 == 0 { &ta } else { &tb };
        assert!(
            t.rel_residual(&resp.x, &ys[i]) < 1e-10,
            "request {i} solved against the wrong matrix"
        );
        assert!(
            resp.batch_width <= 2,
            "batch mixed matrices: width {}",
            resp.batch_width
        );
    }
}

#[test]
fn eviction_racing_an_inflight_solve_is_safe() {
    // Cache budget of one byte: any second registration evicts the
    // LRU entry. Queue a request against A (long deadline so it stays
    // queued), evict A by registering B, then check the queued request
    // still completes against A's factors (pinned by its Arc).
    let svc = SolverService::start(ServiceConfig {
        cache_bytes: 1,
        max_batch: 1_000,
        max_delay: Duration::from_millis(300),
        ..cfg()
    });
    let a = src(31);
    let b = src(32);
    let ka = svc.register(&a).unwrap();

    let y = random_rhs(N, M, 1, 3);
    let ticket = svc.submit(ka, &y).unwrap();

    let kb = svc.register(&b).unwrap();
    assert!(!svc.contains(ka), "A should have been evicted by B");
    assert!(svc.contains(kb));
    assert_eq!(svc.stats().evictions, 1);

    // The in-flight request still resolves correctly against A.
    let resp = ticket.wait().unwrap();
    assert!(materialize(&a).rel_residual(&resp.x, &y) < 1e-10);

    // New submissions against the evicted key are refused.
    assert!(matches!(
        svc.submit(ka, &y),
        Err(ServiceError::UnknownKey(_))
    ));
}

/// Set while [`FaultyWorlds`] refuses to start a persistent world.
static WORLDS_FAIL: AtomicBool = AtomicBool::new(false);

/// The simulator, except that starting a persistent world panics while
/// [`WORLDS_FAIL`] is set. A cached session builds its world on its
/// first solve, so that solve panics inside the dispatch.
struct FaultyWorlds;

impl SpmdBackend for FaultyWorlds {
    fn name() -> &'static str {
        "faulty"
    }

    fn run<T, F>(p: usize, model: CostModel, f: F) -> SpmdOutput<T>
    where
        T: Send,
        F: Fn(&mut Comm) -> T + Sync,
    {
        SimBackend::run(p, model, f)
    }

    fn world(p: usize, model: CostModel) -> SpmdWorld {
        assert!(
            !WORLDS_FAIL.load(Ordering::SeqCst),
            "injected world failure"
        );
        SimBackend::world(p, model)
    }
}

#[test]
fn solve_panic_is_contained_to_the_batch() {
    let svc = ServiceOn::<FaultyWorlds>::start(ServiceConfig {
        max_delay: Duration::from_millis(5),
        ..cfg()
    });
    let a = src(41);
    let b = src(42);
    let ka = svc.register(&a).unwrap();
    let kb = svc.register(&b).unwrap();
    let y = random_rhs(N, M, 1, 4);
    // B's world starts before the fault; A's first solve will panic.
    svc.solve(kb, &y).unwrap();
    WORLDS_FAIL.store(true, Ordering::SeqCst);

    match svc.solve(ka, &y) {
        Err(ServiceError::SolveFailed(msg)) => {
            assert!(msg.contains("injected world failure"), "got: {msg}");
        }
        other => panic!(
            "expected SolveFailed, got {other:?}",
            other = other.map(|_| ())
        ),
    }

    // The dispatcher survived; other cached matrices are unaffected.
    let resp = svc.solve(kb, &y).unwrap();
    assert!(materialize(&b).rel_residual(&resp.x, &y) < 1e-10);

    // Once worlds start again, A is answered without re-registering.
    WORLDS_FAIL.store(false, Ordering::SeqCst);
    let resp = svc.solve(ka, &y).unwrap();
    assert!(materialize(&a).rel_residual(&resp.x, &y) < 1e-10);
    assert_eq!(svc.stats().cache_misses, 2);
}

#[test]
fn drop_flushes_queued_requests_instead_of_abandoning_them() {
    let svc = SolverService::start(ServiceConfig {
        max_batch: 1_000,
        max_delay: Duration::from_secs(10),
        ..cfg()
    });
    let a = src(51);
    let key = svc.register(&a).unwrap();
    let y = random_rhs(N, M, 1, 6);
    let ticket = svc.submit(key, &y).unwrap();
    drop(svc); // shutdown flushes the queue before joining
    let resp = ticket.wait().unwrap();
    assert!(materialize(&a).rel_residual(&resp.x, &y) < 1e-10);
}

#[test]
fn small_systems_batch_across_matrices() {
    // K distinct small matrices (M = 4, N = 16 => the batched-small
    // strategy) each with one queued RHS of the same width: the
    // dispatcher must group them by shape into ONE interleaved batched
    // dispatch, and every ticket must get its own matrix's answer.
    const K: usize = 6;
    let svc = SolverService::start(ServiceConfig {
        max_batch: K,
        max_delay: Duration::from_secs(10),
        ..cfg()
    });
    let mats: Vec<ClusteredToeplitz> = (0..K as u64)
        .map(|s| ClusteredToeplitz::standard(16, 4, 70 + s))
        .collect();
    let keys: Vec<MatrixKey> = mats.iter().map(|a| svc.register(a).unwrap()).collect();

    let ys: Vec<BlockVec> = (0..K as u64)
        .map(|s| random_rhs(16, 4, 2, 300 + s))
        .collect();
    let tickets: Vec<_> = keys
        .iter()
        .zip(&ys)
        .map(|(k, y)| svc.submit(*k, y).unwrap())
        .collect();
    let mut batch_ids = Vec::new();
    for ((ticket, a), y) in tickets.into_iter().zip(&mats).zip(&ys) {
        let resp = ticket.wait().unwrap();
        assert!(
            materialize(a).rel_residual(&resp.x, y) < 1e-10,
            "request answered with the wrong matrix's solution"
        );
        batch_ids.push(resp.batch_id);
    }
    batch_ids.dedup();
    assert_eq!(batch_ids.len(), 1, "all systems should share one dispatch");
    let stats = svc.stats();
    assert_eq!(stats.batched_dispatches, 1);
    assert_eq!(stats.batched_systems, K as u64);
}

#[test]
fn small_systems_are_exempt_from_the_rank_floor() {
    // N = 3 < P = 4 used to be TooFewRows; the batched-small path never
    // enters an SPMD world, so it can serve it.
    let svc = SolverService::start(ServiceConfig {
        max_delay: Duration::from_millis(5),
        ..cfg()
    });
    let a = ClusteredToeplitz::standard(3, 4, 77);
    let key = svc.register(&a).unwrap();
    let y = random_rhs(3, 4, 2, 1);
    let resp = svc.solve(key, &y).unwrap();
    assert!(materialize(&a).rel_residual(&resp.x, &y) < 1e-10);
}

#[test]
fn toeplitz_registration_routes_to_fast_path() {
    // Constant-block matrix with >= 32 rows per rank: registration must
    // route to the Toeplitz session and still solve correctly.
    let svc = SolverService::start(ServiceConfig {
        max_delay: Duration::from_millis(5),
        ..cfg()
    });
    let a = ClusteredToeplitz::standard(128, 5, 81);
    let key = svc.register(&a).unwrap();
    assert_eq!(svc.stats().toeplitz_registrations, 1);
    let y = random_rhs(128, 5, 3, 2);
    let resp = svc.solve(key, &y).unwrap();
    assert!(materialize(&a).rel_residual(&resp.x, &y) < 1e-10);

    // Control: constant blocks but under the 32-rows-per-rank floor
    // where the specialized store cannot amortize — stays general.
    let b = ClusteredToeplitz::standard(96, 5, 82);
    svc.register(&b).unwrap();
    assert_eq!(svc.stats().toeplitz_registrations, 1);
}

/// A matrix served from one flat word stream: row `i` is the `3 M^2`
/// words from `i * 3 M^2`, as `A`, `B`, `C` in column-major order — the
/// order the fingerprint reads entries in. Lets a test edit single
/// entries, swap rows or reshape `(N, M)` over the same words.
struct Flat {
    n: usize,
    m: usize,
    words: Vec<f64>,
}

impl Flat {
    fn of(src: &dyn BlockRowSource) -> Self {
        let words = (0..src.n())
            .flat_map(|i| {
                let row = src.row(i);
                [row.a, row.b, row.c]
                    .into_iter()
                    .flat_map(|blk| blk.as_slice().to_vec())
            })
            .collect();
        Self {
            n: src.n(),
            m: src.m(),
            words,
        }
    }

    /// Index of entry `(0, 0)` of block `blk` (0 = A, 1 = B, 2 = C) of
    /// row `i`, plus `offset` entries.
    fn at(&self, i: usize, blk: usize, offset: usize) -> usize {
        (3 * i + blk) * self.m * self.m + offset
    }

    fn with(&self, edit: impl FnOnce(&mut Vec<f64>)) -> Self {
        let mut words = self.words.clone();
        edit(&mut words);
        Self {
            n: self.n,
            m: self.m,
            words,
        }
    }
}

impl BlockRowSource for Flat {
    fn n(&self) -> usize {
        self.n
    }

    fn m(&self) -> usize {
        self.m
    }

    fn row(&self, i: usize) -> BlockRow {
        let mm = self.m * self.m;
        let blk = |b: usize| {
            let start = (3 * i + b) * mm;
            Mat::from_col_major(self.m, self.m, self.words[start..start + mm].to_vec())
        };
        BlockRow {
            a: blk(0),
            b: blk(1),
            c: blk(2),
        }
    }
}

#[test]
fn fingerprint_separates_near_identical_matrices() {
    let base = Flat::of(&RandomDominant::new(12, 4, 1.5, 3));
    let mid = base.n / 2;
    let mut variants = vec![Flat::of(&base)];
    // Single-bit flips of one entry in the first row's B, a middle
    // row's A and the last row's C.
    for (i, blk) in [(0, 1), (mid, 0), (base.n - 1, 2)] {
        let at = base.at(i, blk, 5);
        for bit in [0, 31, 52, 63] {
            variants.push(base.with(|w| w[at] = f64::from_bits(w[at].to_bits() ^ (1 << bit))));
        }
    }
    // Two distinct rows swapped.
    let row_words = 3 * base.m * base.m;
    variants.push(base.with(|w| {
        let (lo, hi) = w.split_at_mut(base.at(mid, 0, 0));
        lo[base.at(mid - 1, 0, 0)..].swap_with_slice(&mut hi[..row_words]);
    }));
    // One entry at +0.0 versus -0.0.
    let at = base.at(mid, 1, 3);
    variants.push(base.with(|w| w[at] = 0.0));
    variants.push(base.with(|w| w[at] = -0.0));
    // Same words, reshaped: (N, M) = (12, 4) and (48, 2) both hold 576.
    variants.push(Flat {
        n: 48,
        m: 2,
        words: base.words.clone(),
    });

    let keys: Vec<MatrixKey> = variants.iter().map(MatrixKey::fingerprint).collect();
    let distinct: HashSet<MatrixKey> = keys.iter().copied().collect();
    assert_eq!(distinct.len(), keys.len(), "colliding keys: {keys:?}");
    // Identical contents through a different source type: same key.
    assert_eq!(
        MatrixKey::fingerprint(&RandomDominant::new(12, 4, 1.5, 3)),
        keys[0]
    );
}

/// Stacks block vectors column-wise, in order (the coalescer's layout).
fn hstack(ys: &[BlockVec]) -> BlockVec {
    let blocks = (0..ys[0].n())
        .map(|i| {
            let mut panel = Mat::zeros(ys[0].m(), ys.iter().map(BlockVec::r).sum());
            let mut c0 = 0;
            for y in ys {
                panel.set_block(0, c0, &y.blocks[i]);
                c0 += y.r();
            }
            panel
        })
        .collect();
    BlockVec::from_blocks(blocks)
}

/// Columns `c0..c0 + w` of a block vector.
fn columns(x: &BlockVec, c0: usize, w: usize) -> BlockVec {
    BlockVec::from_blocks(x.blocks.iter().map(|p| p.block(0, c0, x.m(), w)).collect())
}

/// Service answers against a direct session over the same matrix, bit
/// for bit: one wide request (its own panels, solved in place), then a
/// width-triggered batch of narrow ones (one stacked panel).
fn assert_service_matches_session<S: BlockRowSource + Sync>(src: &S, direct: &ArdSession) {
    const K: usize = 5;
    let (n, m) = (src.n(), src.m());
    let svc = SolverService::start(ServiceConfig {
        max_batch: K,
        max_delay: Duration::from_secs(10),
        ..cfg()
    });
    let key = svc.register(src).unwrap();

    let wide = random_rhs(n, m, 2 * K, 404);
    let resp = svc.solve(key, &wide).unwrap();
    assert_eq!(resp.batch_width, 2 * K);
    assert_eq!(resp.x, direct.solve(&wide).unwrap(), "wide request");

    let narrow: Vec<BlockVec> = (0..K as u64)
        .map(|s| random_rhs(n, m, 1, 500 + s))
        .collect();
    let tickets: Vec<_> = narrow.iter().map(|y| svc.submit(key, y).unwrap()).collect();
    let expect = direct.solve(&hstack(&narrow)).unwrap();
    for (c, ticket) in tickets.into_iter().enumerate() {
        let resp = ticket.wait().unwrap();
        assert_eq!(resp.batch_width, K, "narrow requests must coalesce");
        assert_eq!(resp.x, columns(&expect, c, 1), "narrow request {c}");
    }
}

#[test]
fn service_answers_match_direct_session_bit_for_bit() {
    let general = src(81);
    let direct = ArdSession::create(P, cfg().model, &general).unwrap();
    assert_service_matches_session(&general, &direct);

    // >= 32 rows per rank of constant blocks: the Toeplitz path.
    let toeplitz = ClusteredToeplitz::standard(32 * P, M, 82);
    let direct = ArdSession::create_with(P, cfg().model, FactorKind::Toeplitz, &toeplitz).unwrap();
    assert_service_matches_session(&toeplitz, &direct);
}
