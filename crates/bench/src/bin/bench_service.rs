//! Solver-service load generator: batched dispatch vs one-solve-per-request
//! under an open-loop arrival process.
//!
//! The [`bt_ard::SolverService`] coalesces concurrently-arriving
//! single-RHS solve requests into wide panels before dispatching one
//! replay — the serving-layer form of the paper's `O(R)` amortization
//! (one `O(M^2 k)` batched replay for `k` requests instead of `k`
//! serialized `O(M^2)` solves, each paying its own `O(log P)` scan
//! latency). This bench quantifies that: requests arrive Poisson-style
//! at a configured multiple of the measured single-solve capacity, and
//! each multiple runs twice —
//!
//! * `unbatched` — `max_batch = 1`: every request dispatches alone, the
//!   one-session-per-solve baseline a naive server would implement;
//! * `batched`  — `max_batch = 32` (default): the coalescer flushes on
//!   width or deadline, whichever comes first.
//!
//! Reported per leg: end-to-end request latency percentiles (p50 / p95 /
//! p99 / max, measured submit → response), completed throughput, and the
//! mean dispatched batch width (`dispatched RHS columns / dispatches`).
//! The open-loop generator never slows down when the service queues, so
//! saturation shows up honestly as latency growth rather than as a
//! reduced offered rate.
//!
//! Emits `BENCH_service.json` (a `bt-bench-v1` record) at the workspace
//! root (override with `--out`). Each rate's cells hold the batched
//! leg's figures against the unbatched leg's as baselines; at a rate
//! where coalescing engaged (mean batch width >= 16), the throughput
//! and p99 cells claim that batching wins. The baseline gate tracks the
//! x16 throughput cell, which the smoke run measures with the full
//! run's parameters:
//!
//! ```text
//! cargo run --release -p bt-bench --bin bench_service
//! cargo run --release -p bt-bench --bin bench_service -- --smoke 1
//! ```

use std::time::{Duration, Instant};

use bt_ard::{ArdSession, MatrixKey, ServiceConfig, SolverService};
use bt_bench::{
    Args, BenchRecord,
    Better::{self, Higher, Lower},
};
use bt_blocktri::gen::{materialize, random_rhs, ClusteredToeplitz};
use bt_blocktri::BlockVec;
use bt_mpsim::{CostModel, SimBackend};
use bt_shm::SpmdBackend;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One leg's figures: `(metric, unit, better, value)`, throughput first.
type Figures = [(&'static str, &'static str, Better, f64); 9];

/// Nearest-rank percentile of an ascending-sorted sample.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Best-of-5 wall time of a single-RHS solve on a warm persistent
/// world: the capacity unit the offered rates are multiples of.
fn calibrate_solve_s(p: usize, model: CostModel, src: &ClusteredToeplitz, y: &BlockVec) -> f64 {
    let session = ArdSession::create(p, model, src).expect("calibration factor");
    session.set_world_reuse(true);
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t0 = Instant::now();
        let _ = session.solve(y).expect("calibration solve");
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

fn run_leg(
    cfg: ServiceConfig,
    srcs: &[ClusteredToeplitz],
    rhss: &[BlockVec],
    requests: usize,
    rate_rps: f64,
    seed: u64,
) -> Figures {
    let svc = SolverService::start(cfg);
    let keys: Vec<MatrixKey> = srcs
        .iter()
        .map(|s| svc.register(s).expect("register"))
        .collect();
    // A recurring matrix re-registers as a cache hit; do one so the hit
    // path (and its counter) is exercised under load too.
    assert_eq!(svc.register(&srcs[0]).expect("re-register"), keys[0]);

    // Warm each matrix's persistent world and kernel scratch before
    // the clock starts, and spot-check correctness through the service.
    for (src, &key) in srcs.iter().zip(&keys) {
        let resp = svc.solve(key, &rhss[0]).expect("warm-up solve");
        let res = materialize(src).rel_residual(&resp.x, &rhss[0]);
        assert!(res < 1e-8, "service solve residual {res} too large");
    }
    let warmed = svc.stats();

    let mut rng = StdRng::seed_from_u64(seed);
    let start = Instant::now();
    let mut t_next = 0.0f64;
    let mut tickets = Vec::with_capacity(requests);
    for i in 0..requests {
        // Exponential inter-arrival: an open-loop Poisson process.
        let u: f64 = rng.gen_range(1e-12..1.0);
        t_next += -u.ln() / rate_rps;
        let target = Duration::from_secs_f64(t_next);
        loop {
            let elapsed = start.elapsed();
            if elapsed >= target {
                break;
            }
            let rem = target - elapsed;
            if rem > Duration::from_micros(100) {
                std::thread::sleep(rem - Duration::from_micros(50));
            } else {
                std::hint::spin_loop();
            }
        }
        let key = keys[i % keys.len()];
        tickets.push(svc.submit(key, &rhss[i % rhss.len()]).expect("submit"));
    }

    let mut lat_us: Vec<f64> = Vec::with_capacity(requests);
    let mut queue_wait_us_sum = 0.0;
    for t in tickets {
        let resp = t.wait().expect("service solve");
        // queue_wait + solve_time spans submit -> batch completion.
        let lat = resp.queue_wait + resp.solve_time;
        lat_us.push(lat.as_secs_f64() * 1e6);
        queue_wait_us_sum += resp.queue_wait.as_secs_f64() * 1e6;
    }
    let makespan_s = start.elapsed().as_secs_f64();
    let stats = svc.stats();
    drop(svc);

    let dispatches = stats.dispatches - warmed.dispatches;
    let columns = stats.dispatched_columns - warmed.dispatched_columns;
    lat_us.sort_by(f64::total_cmp);
    let width = columns as f64 / dispatches.max(1) as f64;
    [
        (
            "throughput_rps",
            "req/s",
            Higher,
            requests as f64 / makespan_s,
        ),
        ("p50_us", "us", Lower, percentile(&lat_us, 0.50)),
        ("p95_us", "us", Lower, percentile(&lat_us, 0.95)),
        ("p99_us", "us", Lower, percentile(&lat_us, 0.99)),
        ("max_us", "us", Lower, percentile(&lat_us, 1.0)),
        (
            "mean_queue_wait_us",
            "us",
            Lower,
            queue_wait_us_sum / requests as f64,
        ),
        ("mean_batch_width", "cols", Higher, width),
        (
            "max_batch_width",
            "cols",
            Higher,
            stats.max_batch_width as f64,
        ),
        ("dispatches", "count", Lower, dispatches as f64),
    ]
}

fn main() {
    let args = Args::from_env();
    // Live telemetry: with BT_OBS_ADDR set, serve Prometheus text and a
    // JSON snapshot for the duration of the run (the handle's Drop stops
    // the listener at exit).
    let exporter = bt_obs::exporter::serve_from_env();
    if let Some(e) = &exporter {
        println!(
            "bench_service: live telemetry on http://{}/metrics",
            e.local_addr()
        );
    }
    let smoke = args.get_usize("smoke", 0) != 0;
    let dmults: &[usize] = if smoke { &[16] } else { &[1, 16] };
    let n = args.get_usize("n", 32);
    let m = args.get_usize("m", 6);
    let p = args.get_usize("p", 4);
    let n_matrices = args.get_usize("matrices", 2);
    let requests = args.get_usize("requests", 768);
    let max_batch = args.get_usize("max-batch", 32);
    let max_delay_us = args.get_usize("max-delay-us", 1_000);
    let model = CostModel::default();

    let srcs: Vec<ClusteredToeplitz> = (0..n_matrices as u64)
        .map(|s| ClusteredToeplitz::standard(n, m, 10 + s))
        .collect();
    let rhss: Vec<BlockVec> = (0..16u64).map(|s| random_rhs(n, m, 1, 1_000 + s)).collect();

    let solve_s = calibrate_solve_s(p, model, &srcs[0], &rhss[0]);
    let capacity_rps = 1.0 / solve_s;
    println!(
        "bench_service: N={n} M={m} P={p}, single solve {:.1} us => capacity {:.0} req/s",
        solve_s * 1e6,
        capacity_rps
    );

    let mut record = BenchRecord::new("bench_service", smoke, SimBackend::name());
    record.params(&[("n", n), ("m", m), ("p", p), ("matrices", n_matrices)]);
    record.params(&[("requests", requests), ("max_batch", max_batch)]);
    record.params(&[("max_delay_us", max_delay_us)]);
    let calib = format!("calib-n{n}-m{m}-p{p}");
    record.cell(calib, "session", "solve_us", "us", Lower, solve_s * 1e6);

    for mult in args.get_usize_list("rate-mults", dmults) {
        let rate_rps = mult as f64 * capacity_rps;
        let [unbatched, batched] = [1, max_batch].map(|batch| {
            let cfg = ServiceConfig {
                max_batch: batch,
                max_delay: Duration::from_micros(max_delay_us as u64),
                ..ServiceConfig::new(p, model)
            };
            let figures = run_leg(cfg, &srcs, &rhss, requests, rate_rps, 42);
            let line: Vec<String> = figures
                .iter()
                .map(|(metric, _, _, v)| format!("{metric} {v:.1}"))
                .collect();
            println!(
                "bench_service: x{mult} max_batch {batch}: {}",
                line.join("  ")
            );
            figures
        });
        let get = |figures: &Figures, metric: &str| {
            figures
                .iter()
                .find(|f| f.0 == metric)
                .expect("a recorded metric")
                .3
        };
        let ratio = |metric: &str| get(&batched, metric) / get(&unbatched, metric);
        println!(
            "bench_service: x{mult} batched vs unbatched: {:.2}x throughput, p99 {:.2}x",
            ratio("throughput_rps"),
            ratio("p99_us")
        );
        // The coalescer's claim holds only where it engaged: at a mean
        // batch width of 16 or more, batching must win throughput
        // without losing p99.
        let deep = get(&batched, "mean_batch_width") >= 16.0;
        let name = format!(
            "x{mult}-n{n}-m{m}-p{p}-mats{n_matrices}-req{requests}-batch{max_batch}-delay{max_delay_us}us"
        );
        for ((metric, unit, better, value), (.., base)) in batched.into_iter().zip(unbatched) {
            let cell = record.cell(&name, "service", metric, unit, better, value);
            cell.baseline(base);
            if deep && matches!(metric, "throughput_rps" | "p99_us") {
                cell.claim(1.0);
            }
        }
        if mult == 16 {
            record.headline(&name, "throughput_rps");
        }
    }
    let default_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_service.json");
    record.write_or_exit(args.get_str("out").unwrap_or(default_path));
    bt_bench::emit_obs(&args);
}
