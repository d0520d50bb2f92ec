//! Structure-exploiting fast-path benchmark: the Toeplitz constant-block
//! solver vs the general path on long slices, and batched-small
//! interleaved solves vs looped single solves. Wall clocks on the
//! shared-memory backend (Toeplitz cells) and single-threaded
//! (batched cells — the batch path is a serial cache/SIMD play).
//!
//! **Toeplitz cells** factor the same constant-block [`ClusteredToeplitz`]
//! system twice on a live shm world — the general
//! `ArdRankFactors` and the structure-exploiting
//! [`ToeplitzRankFactors`] — then time one warm replay solve each,
//! best-of-N and rank-synchronized. Three figures per cell:
//!
//! * `replay_ns` — the warm replay win from the collapsed working set
//!   (head + shared tail triple in cache vs `O(N/P)` factor matrices
//!   streamed from memory).
//! * `factor_bytes` — total factor storage across ranks (Table II's
//!   memory price, now `O(head)`).
//! * `rel_diff` plus both residuals — the cross-check that the fast
//!   path returns the general path's answer to roundoff.
//!
//! **Batched cells** solve `K` independent small-`N` systems of block
//! order `M` in {4, 8, 16} two ways: `K` looped [`solve_single`] calls
//! (pivoted block Thomas per system) and one [`BatchedSystems`]
//! factor+solve over the interleaved SoA layout where every dense
//! kernel runs `K` lanes wide. The batched time is end-to-end
//! (interleave + factor + solve, exactly the service dispatch path),
//! cross-checked per system against the looped solutions.
//!
//! Emits `BENCH_structured.json` (a `bt-bench-v1` record) at the
//! workspace root (override with `--out`). Each Toeplitz cell holds the
//! fast path's replay time and factor bytes against the general path's
//! as baselines; each batched cell the batch's time against the looped
//! one. The cross-checks are declared on the cells. On a full-scale run
//! on a SIMD path, the best cell of each kind also declares its claim
//! (1.3x replay, 3x factor memory, 2x batched). The baseline gate tracks
//! the batched `HEADLINE` cell, which the smoke run measures too:
//!
//! ```text
//! cargo run --release -p bt-bench --bin bench_structured
//! cargo run --release -p bt-bench --bin bench_structured -- --smoke 1
//! ```

use std::time::Instant;

use bt_ard::state::{ArdRankFactors, RankSystem, ReplayFactors};
use bt_ard::toeplitz::ToeplitzRankFactors;
use bt_ard::{solve_single, BatchedSystems};
use bt_bench::{Args, BenchRecord, Better::Lower};
use bt_blocktri::gen::{materialize, random_rhs, rhs_panel, ClusteredToeplitz};
use bt_blocktri::{BlockRow, BlockRowSource, BlockVec, FactorError};
use bt_comm::CommBackend;
use bt_dense::Mat;
use bt_shm::{ShmBackend, SpmdBackend};

/// The gated batched cell `(n, m, k)`: the shape `structured-mix`
/// serves, at the full run's scale.
const HEADLINE: (usize, usize, usize) = (32, 8, 1024);

fn batched_name(n: usize, m: usize, k: usize, reps: usize) -> String {
    format!("batched-n{n}-m{m}-k{k}-r1-reps{reps}")
}

/// Rank-synchronized best-of-`reps` wall seconds for one call of `f`.
fn time_best<C: CommBackend>(comm: &mut C, reps: usize, mut f: impl FnMut(&mut C)) -> f64 {
    f(comm); // warm-up: kernel scratch, page-in
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let _ = comm.allreduce(0u64, |a, b| (*a).max(*b)); // sync ranks
        let t0 = Instant::now();
        f(comm);
        best = best.min(comm.allreduce(t0.elapsed().as_secs_f64(), |a, b| a.max(*b)));
    }
    best
}

/// One rank's share of a Toeplitz cell: factor both ways, time one warm
/// replay each, sum factor storage across ranks, and return both
/// solutions' rank-local panels.
#[allow(clippy::type_complexity)]
fn toeplitz_cell<C: CommBackend>(
    comm: &mut C,
    src: &(dyn BlockRowSource + Sync),
    p: usize,
    r: usize,
    reps: usize,
) -> Result<(f64, f64, u64, u64, Vec<Mat>, Vec<Mat>), FactorError> {
    let m = src.m();
    let sys = RankSystem::from_source(src, p, comm.rank());
    let general = ArdRankFactors::setup(comm, &sys, true)?;
    let fast = ToeplitzRankFactors::setup(comm, &sys)?;
    let general_bytes = comm.allreduce(general.storage_bytes(), |a, b| a + b);
    let toeplitz_bytes = comm.allreduce(fast.storage_bytes(), |a, b| a + b);

    let y: Vec<Mat> = (sys.lo..sys.hi).map(|i| rhs_panel(m, r, 0, i)).collect();
    let mut xg: Vec<Mat> = y.iter().map(|p| Mat::zeros(p.rows(), p.cols())).collect();
    let mut xt: Vec<Mat> = xg.clone();

    let t_general = time_best(comm, reps, |comm| {
        for (xk, yk) in xg.iter_mut().zip(&y) {
            xk.as_mut().copy_from(yk.as_ref());
        }
        general.solve_in_place(comm, &mut xg)
    });
    // Copy, then solve in place, like the general side.
    let t_toeplitz = time_best(comm, reps, |comm| {
        xt.clone_from_slice(&y);
        fast.solve_in_place(comm, &mut xt)
    });

    Ok((t_general, t_toeplitz, general_bytes, toeplitz_bytes, xg, xt))
}

fn run_toeplitz_cell(
    record: &mut BenchRecord,
    src: &(dyn BlockRowSource + Sync),
    p: usize,
    r: usize,
    reps: usize,
) {
    let out = ShmBackend::run(p, bt_comm::CostModel::zero(), |comm| {
        toeplitz_cell(comm, src, p, r, reps)
    });
    let ranks: Vec<_> = out
        .results
        .into_iter()
        .map(|res| res.expect("setup"))
        .collect();
    let (tg, tt, gb, tb, ..) = ranks[0];
    let (mut xg, mut xt) = (Vec::new(), Vec::new());
    for (.., g, t) in ranks {
        xg.extend(g);
        xt.extend(t);
    }
    // Cross-check the fast path against the general one on the whole
    // system, ranks' panels in row order.
    let (xg, xt) = (BlockVec::from_blocks(xg), BlockVec::from_blocks(xt));
    let y = BlockVec::from_blocks((0..src.n()).map(|i| rhs_panel(src.m(), r, 0, i)).collect());
    let t = materialize(src);
    let (gres, tres) = (t.rel_residual(&xg, &y), t.rel_residual(&xt, &y));
    let rel_diff = xt.rel_diff(&xg);
    let name = format!("toeplitz-n{}-m{}-p{p}-r{r}-reps{reps}", src.n(), src.m());
    println!(
        "bench_structured: {name:<30} general {:>8.3} ms  toeplitz {:>8.3} ms  replay {:.2}x  \
         mem {:.1}x ({gb} -> {tb} bytes)  diff {rel_diff:.1e}  residual {tres:.1e} vs {gres:.1e}",
        tg * 1e3,
        tt * 1e3,
        tg / tt,
        gb as f64 / tb as f64,
    );
    record
        .cell(&name, "ard", "replay_ns", "ns", Lower, (tt * 1e9).round())
        .baseline((tg * 1e9).round())
        .check("rel_diff", rel_diff, 1e-8)
        .check("toeplitz_residual", tres, 1e-9f64.max(gres * 4.0));
    record
        .cell(name, "ard", "factor_bytes", "bytes", Lower, tb as f64)
        .baseline(gb as f64);
}

fn run_batched_cell(record: &mut BenchRecord, n: usize, m: usize, k: usize, reps: usize) {
    let sources: Vec<ClusteredToeplitz> = (0..k)
        .map(|s| ClusteredToeplitz::standard(n, m, 100 + s as u64))
        .collect();
    let row_sets: Vec<Vec<BlockRow>> = sources
        .iter()
        .map(|src| (0..n).map(|i| src.row(i)).collect())
        .collect();
    let ys: Vec<BlockVec> = (0..k)
        .map(|s| random_rhs(n, m, 1, 900 + s as u64))
        .collect();

    let mut looped: Vec<BlockVec> = Vec::new();
    let t_looped = bt_bench::time_best(reps, || {
        looped = row_sets
            .iter()
            .zip(&ys)
            .map(|(rows, y)| solve_single(rows, y).expect("single solve"))
            .collect();
    });

    let row_refs: Vec<&[BlockRow]> = row_sets.iter().map(Vec::as_slice).collect();
    let y_refs: Vec<&BlockVec> = ys.iter().collect();
    let mut batched: Vec<BlockVec> = Vec::new();
    let t_batched = bt_bench::time_best(reps, || {
        let systems = BatchedSystems::from_row_sets(&row_refs);
        let factors = systems.factor().expect("batched factor");
        batched = factors.solve_blockvecs(&y_refs);
    });

    let (mut rel_diff, mut max_residual) = (0.0f64, 0.0f64);
    for (s, src) in sources.iter().enumerate() {
        rel_diff = rel_diff.max(batched[s].rel_diff(&looped[s]));
        max_residual = max_residual.max(materialize(src).rel_residual(&batched[s], &ys[s]));
    }

    let name = batched_name(n, m, k, reps);
    println!(
        "bench_structured: {name:<30} looped {:>8.3} ms  batched {:>8.3} ms  \
         throughput {:.2}x  diff {rel_diff:.1e}  residual {max_residual:.1e}",
        t_looped * 1e3,
        t_batched * 1e3,
        t_looped / t_batched,
    );
    record
        .cell(
            name,
            "ard",
            "solve_ns",
            "ns",
            Lower,
            (t_batched * 1e9).round(),
        )
        .baseline((t_looped * 1e9).round())
        .check("rel_diff", rel_diff, 1e-8)
        .check("max_residual", max_residual, 1e-9);
}

fn main() {
    let args = Args::from_env();
    let smoke = args.get_usize("smoke", 0) != 0;
    let (n, p, k, small_n) = if smoke {
        (256, 2, 64, 16)
    } else {
        (32768, 4, 1024, 32)
    };
    let n = args.get_usize("n", n);
    let m = args.get_usize("m", 8);
    let p = args.get_usize("p", p);
    let k = args.get_usize("k", k);
    let small_n = args.get_usize("small_n", small_n);
    let reps = args.get_usize("reps", 5);
    let default_rs: &[usize] = if smoke { &[1] } else { &[1, 8] };
    let rs = args.get_usize_list("rs", default_rs);
    let default_ms: &[usize] = if smoke { &[8] } else { &[4, 8, 16] };
    let small_ms = args.get_usize_list("small_ms", default_ms);
    let mut record = BenchRecord::new("bench_structured", smoke, ShmBackend::name());
    record.params(&[("n", n), ("m", m), ("p", p), ("k", k), ("small_n", small_n)]);
    record.params(&[("reps", reps)]);

    // Toeplitz sweep: one long constant-block system (the paper's
    // uniform-grid case), batch width walked up. The general and fast
    // paths share the replay pipeline and do identical flops; what the
    // sweep isolates is the factor working set (5*N/P matrices streamed
    // vs head+tail in cache) and the storage collapse. Small R keeps
    // the replay memory-bound, so the factor-traffic gap shows up in
    // wall clock; at large R the shared GEMM work washes it out.
    let src = ClusteredToeplitz::standard(n, m, 1);
    for &r in &rs {
        run_toeplitz_cell(&mut record, &src, p, r, reps);
    }

    // Batched sweep: K independent small systems per block order — the
    // serving-path shape where per-call overhead and M x M kernel
    // latency dominate a looped solver and the interleaved SoA layout
    // turns both into full-width SIMD streams.
    let mut batched: Vec<(usize, usize, usize)> =
        small_ms.iter().map(|&sm| (small_n, sm, k)).collect();
    if smoke && !batched.contains(&HEADLINE) {
        batched.push(HEADLINE);
    }
    for (n, m, k) in batched {
        run_batched_cell(&mut record, n, m, k, reps);
    }
    let (hn, hm, hk) = HEADLINE;
    record.headline(&batched_name(hn, hm, hk, reps), "solve_ns");

    // The structure-exploiting paths are only worth shipping if
    // somewhere in a full-scale sweep on a SIMD path the Toeplitz
    // factors replay at least 1.3x faster and are at least 3x smaller
    // than the general path's, and the interleaved batch beats K looped
    // single solves by at least 2x.
    if !smoke && bt_dense::simd::active().name() != "scalar" {
        record.claim_best("toeplitz-", "replay_ns", 1.3);
        record.claim_best("toeplitz-", "factor_bytes", 3.0);
        record.claim_best("batched-", "solve_ns", 2.0);
    }
    let default_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_structured.json");
    record.write_or_exit(args.get_str("out").unwrap_or(default_path));
    bt_bench::emit_obs(&args);
}
