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
//! Emits `BENCH_service.json` (`bt-bench-service-v1`) at the workspace
//! root (override with `--out`):
//!
//! ```text
//! cargo run --release -p bt-bench --bin bench_service
//! cargo run --release -p bt-bench --bin bench_service -- --smoke 1
//! ```

use std::time::{Duration, Instant};

use bt_ard::{ArdSession, MatrixKey, ServiceConfig, SolverService};
use bt_bench::Args;
use bt_blocktri::gen::{materialize, random_rhs, ClusteredToeplitz};
use bt_blocktri::BlockVec;
use bt_mpsim::CostModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct LegResult {
    leg: &'static str,
    rate_mult: f64,
    rate_rps: f64,
    requests: usize,
    throughput_rps: f64,
    mean_batch_width: f64,
    max_batch_width: u64,
    dispatches: u64,
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
    max_us: f64,
    mean_queue_wait_us: f64,
}

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

#[allow(clippy::too_many_arguments)]
fn run_leg(
    leg: &'static str,
    cfg: ServiceConfig,
    srcs: &[ClusteredToeplitz],
    rhss: &[BlockVec],
    requests: usize,
    rate_mult: f64,
    rate_rps: f64,
    seed: u64,
) -> LegResult {
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
    LegResult {
        leg,
        rate_mult,
        rate_rps,
        requests,
        throughput_rps: requests as f64 / makespan_s,
        mean_batch_width: if dispatches > 0 {
            columns as f64 / dispatches as f64
        } else {
            0.0
        },
        max_batch_width: stats.max_batch_width,
        dispatches,
        p50_us: percentile(&lat_us, 0.50),
        p95_us: percentile(&lat_us, 0.95),
        p99_us: percentile(&lat_us, 0.99),
        max_us: *lat_us.last().expect("non-empty latencies"),
        mean_queue_wait_us: queue_wait_us_sum / requests as f64,
    }
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
    let (dreq, dmults): (usize, &[f64]) = if smoke {
        (192, &[16.0])
    } else {
        (768, &[1.0, 16.0])
    };
    let n = args.get_usize("n", 32);
    let m = args.get_usize("m", 6);
    let p = args.get_usize("p", 4);
    let n_matrices = args.get_usize("matrices", 2);
    let requests = args.get_usize("requests", dreq);
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

    let mults: Vec<f64> = if args.get_str("rate-mults").is_some() {
        args.get_usize_list("rate-mults", &[])
            .into_iter()
            .map(|v| v as f64)
            .collect()
    } else {
        dmults.to_vec()
    };

    let mut results: Vec<LegResult> = Vec::new();
    for &mult in &mults {
        let rate_rps = mult * capacity_rps;
        for (leg, batch) in [("unbatched", 1), ("batched", max_batch)] {
            let cfg = ServiceConfig {
                max_batch: batch,
                max_delay: Duration::from_micros(max_delay_us as u64),
                ..ServiceConfig::new(p, model)
            };
            let rec = run_leg(leg, cfg, &srcs, &rhss, requests, mult, rate_rps, 42);
            println!(
                "bench_service: x{mult:<4} {leg:<9} tput {:>8.0} req/s  width {:>5.1} (max {:>3})  \
                 p50 {:>8.0} us  p95 {:>8.0} us  p99 {:>8.0} us",
                rec.throughput_rps,
                rec.mean_batch_width,
                rec.max_batch_width,
                rec.p50_us,
                rec.p95_us,
                rec.p99_us,
            );
            results.push(rec);
        }
        let batched = results.last().expect("just pushed");
        let unbatched = &results[results.len() - 2];
        println!(
            "bench_service: x{mult} batched vs unbatched: {:.2}x throughput, p99 {:.2}x",
            batched.throughput_rps / unbatched.throughput_rps,
            batched.p99_us / unbatched.p99_us,
        );
    }

    let rows: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                "    {{\"leg\": \"{}\", \"rate_mult\": {:.2}, \"rate_rps\": {:.1}, \
                 \"requests\": {}, \"throughput_rps\": {:.1}, \"mean_batch_width\": {:.2}, \
                 \"max_batch_width\": {}, \"dispatches\": {}, \"p50_us\": {:.1}, \
                 \"p95_us\": {:.1}, \"p99_us\": {:.1}, \"max_us\": {:.1}, \
                 \"mean_queue_wait_us\": {:.1}}}",
                r.leg,
                r.rate_mult,
                r.rate_rps,
                r.requests,
                r.throughput_rps,
                r.mean_batch_width,
                r.max_batch_width,
                r.dispatches,
                r.p50_us,
                r.p95_us,
                r.p99_us,
                r.max_us,
                r.mean_queue_wait_us,
            )
        })
        .collect();
    let generated_unix_s = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let simd = bt_dense::simd::active().name();
    let json = format!(
        "{{\n  \"bench\": \"solver_service\",\n  \"schema\": \"bt-bench-service-v1\",\n  \
         \"generated_unix_s\": {generated_unix_s},\n  \
         \"simd\": \"{simd}\",\n  \
         \"n\": {n},\n  \"m\": {m},\n  \"p\": {p},\n  \"matrices\": {n_matrices},\n  \
         \"requests\": {requests},\n  \"max_batch\": {max_batch},\n  \
         \"max_delay_us\": {max_delay_us},\n  \"single_solve_us\": {:.1},\n  \
         \"smoke\": {smoke},\n  \
         \"note\": \"open-loop Poisson arrivals at rate_mult x measured single-solve \
         capacity; latency is submit -> batched-response wall time; unbatched leg \
         pins max_batch=1 (one dispatch per request)\",\n  \
         \"results\": [\n{}\n  ]\n}}\n",
        solve_s * 1e6,
        rows.join(",\n")
    );
    let default_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_service.json");
    let path = args.get_str("out").unwrap_or(default_path).to_string();
    match std::fs::write(&path, &json) {
        Ok(()) => println!("bench_service: wrote {path}"),
        Err(e) => eprintln!("bench_service: could not write {path}: {e}"),
    }
    bt_bench::emit_obs(&args);
}
