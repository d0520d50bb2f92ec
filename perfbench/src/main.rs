//! perfbench: end-to-end benchmark of the block tridiagonal solver
//! service on the shared-memory backend, with a separate traced run that
//! times each layer. See `README.md` beside this crate.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-narrow --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod inputs;
mod layers;
mod serve;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Duration;

use inputs::{Class, Inputs, Workload};
use serve::{Check, MODEL, RANKS};
use stats::{median, percentile};
use trace::Tracer;

/// Set-ups per untraced run: at least `SETUP_MIN_REPS` and at least
/// `SETUP_MIN_SECS` of set-up in all, at most `SETUP_MAX_REPS`.
/// `setup_s` is their median, which damps the scheduling noise that a
/// single 50 ms set-up carries on a shared host.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MIN_SECS: f64 = 1.0;
const SETUP_MAX_REPS: usize = 25;
/// `register` calls of cached matrices timed in the traced run.
const HIT_PROBES: usize = 8;
/// Where the traced run writes its spans, relative to the working
/// directory.
const TRACE_DIR: &str = ".perfbench-out";

/// End-to-end metrics (`--trace 0`), in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_cols_s", "cols/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("factor_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`), in `BENCHMARK.json` order.
const PER_LAYER: [(&str, &str); 30] = [
    ("service.queue_wait_ms.p50", "ms"),
    ("service.dispatch_ms.p50", "ms"),
    ("service.client_overhead_ms.p50", "ms"),
    ("service.batch_width.mean", "cols"),
    ("service.dispatches", "count"),
    ("service.register_miss_ms.p50", "ms"),
    ("service.register_hit_ms.p50", "ms"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.evictions", "count"),
    ("session.create_ms", "ms"),
    ("session.solve_ms.w1", "ms"),
    ("session.solve_ms.wide", "ms"),
    ("ard.setup_ms", "ms"),
    ("ard.solve_ms", "ms"),
    ("ard.flops", "count"),
    ("ard.msgs", "count"),
    ("ard.bytes", "bytes"),
    ("ard.factor_bytes", "bytes"),
    ("ard.model_ratio", "ratio"),
    ("comm.latency_us", "us"),
    ("comm.per_byte_ns", "ns"),
    ("dense.gemm_gflops.w1", "Gflop/s"),
    ("dense.gemm_gflops.wide", "Gflop/s"),
    ("dense.lu_us", "us"),
    ("dense.ops_per_byte", "flop/B"),
    ("baseline.thomas_factor_ms", "ms"),
    ("baseline.thomas_solve_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("service.throughput_plain_cols_s", "cols/s"),
    ("service.throughput_traced_cols_s", "cols/s"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| format!("--seconds {value}: expected a number in (0, 600]"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err(format!(
            "--workload is required: one of {}",
            inputs::NAMES.join(", ")
        ));
    }
    Ok(args)
}

/// One reported number.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    /// Samples the value summarizes.
    n: usize,
}

fn metric(name: &'static str, value: f64, n: usize) -> Metric {
    let unit = END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .find(|(known, _)| *known == name)
        .map(|(_, unit)| *unit)
        .unwrap_or_else(|| panic!("metric {name} is not declared"));
    Metric {
        name,
        unit,
        value,
        n,
    }
}

/// What one run produced.
struct Report {
    metrics: Vec<Metric>,
    /// Extra lines for the human-readable part of the output.
    notes: Vec<String>,
    attempted: u64,
}

fn ms(samples_s: &[f64], p: f64) -> f64 {
    percentile(samples_s, p) * 1e3
}

/// Requests answered in each whole second of the measured window.
fn per_second(done: &[serve::Done]) -> Vec<usize> {
    let mut counts = Vec::new();
    for d in done {
        let k = d.at_s as usize;
        if counts.len() <= k {
            counts.resize(k + 1, 0);
        }
        counts[k] += 1;
    }
    counts
}

fn warm_up(seconds: f64) -> Duration {
    Duration::from_secs_f64((seconds / 5.0).min(1.0))
}

/// `--trace 0`: repeated set-ups, then the closed loop with no spans.
fn run_plain(a: &Args, w: &Workload, inp: &Inputs, check: &mut Check) -> Result<Report, String> {
    let mut setup_s: Vec<f64> = Vec::with_capacity(SETUP_MAX_REPS);
    let mut last = None;
    while setup_s.len() < SETUP_MIN_REPS
        || (setup_s.iter().sum::<f64>() < SETUP_MIN_SECS && setup_s.len() < SETUP_MAX_REPS)
    {
        drop(last.take()); // stop the previous service before timing the next
        let s = serve::setup(w, inp, check, None)?;
        setup_s.push(s.secs);
        last = Some(s);
    }
    let s = last.expect("at least one set-up");
    let measure = Duration::from_secs_f64(a.seconds);
    let lp = serve::run_loop(&s, w, inp, warm_up(a.seconds), measure, a.seed, check, None);
    let stats = s.svc.stats();
    let units = lp.latency_s.len();
    Ok(Report {
        metrics: vec![
            metric("setup_s", median(&setup_s), setup_s.len()),
            metric("throughput_cols_s", lp.throughput(), lp.requests.len()),
            metric("latency_p50_ms", ms(&lp.latency_s, 50.0), units),
            metric("latency_p90_ms", ms(&lp.latency_s, 90.0), units),
            metric(
                "factor_mb",
                stats.cache_bytes as f64 / f64::from(1 << 20),
                1,
            ),
        ],
        notes: vec![
            format!(
                "routing: {} toeplitz registrations, {} batched-small dispatches of {} total",
                stats.toeplitz_registrations, stats.batched_dispatches, stats.dispatches
            ),
            format!(
                "requests answered per second of the window: {:?}",
                per_second(&lp.requests)
            ),
        ],
        attempted: (setup_s.len() * inp.mats.len()) as u64 + lp.attempted,
    })
}

/// `--trace 1`: one set-up, an untraced and a traced closed loop of the
/// same length, register-hit probes, then the direct layer calls.
fn run_traced(
    a: &Args,
    w: &Workload,
    inp: &Inputs,
    check: &mut Check,
    tr: &mut Tracer,
) -> Result<Report, String> {
    let s = serve::setup(w, inp, check, Some(tr))?;
    let (warm, measure) = (warm_up(a.seconds), Duration::from_secs_f64(a.seconds));
    let plain = serve::run_loop(&s, w, inp, warm, measure, a.seed, check, None);
    let before = s.svc.stats();
    let lp = serve::run_loop(&s, w, inp, warm, measure, a.seed ^ 1, check, Some(tr));
    let after = s.svc.stats();
    let hits = serve::register_hits(&s, inp, HIT_PROBES, tr);
    let end = s.svc.stats();
    let misses: Vec<f64> = s.register_s.iter().chain(&lp.register_s).copied().collect();
    drop(s);

    let dispatches = after.dispatches - before.dispatches;
    let batch_width =
        (after.dispatched_columns - before.dispatched_columns) as f64 / dispatches as f64;
    let wide = (batch_width.round() as usize).max(1);
    let direct = layers::measure(&inp.mats[0], wide, a.seed, tr)?;
    let value = |name: &str| {
        direct
            .iter()
            .find(|m| m.name == name)
            .map_or(f64::NAN, |m| m.value)
    };

    let req = &lp.requests;
    let queue: Vec<f64> = req.iter().map(|d| d.queue_s).collect();
    let solve: Vec<f64> = req.iter().map(|d| d.solve_s).collect();
    let client: Vec<f64> = req
        .iter()
        .map(|d| d.latency_s - d.queue_s - d.solve_s)
        .collect();
    let overhead = 1.0 - lp.throughput() / plain.throughput();
    let registers = end.cache_hits + end.cache_misses;

    let mut notes = Vec::new();
    for class in [Class::General, Class::Toeplitz, Class::Small] {
        let d: Vec<f64> = req
            .iter()
            .filter(|d| d.class == class)
            .map(|d| d.solve_s)
            .collect();
        if !d.is_empty() {
            notes.push(format!(
                "service.dispatch_ms.{}.p50 = {:.4} ms (n={})",
                class.name(),
                ms(&d, 50.0),
                d.len()
            ));
        }
    }
    let (session_wide, ard_solve) = (value("session.solve_ms.wide"), value("ard.solve_ms"));
    notes.push(format!(
        "ledger: session.solve_ms.wide {session_wide:.3} - ard.solve_ms {ard_solve:.3} = {:.3} ms \
         of scatter, gather and world handoff; ard.model_ratio {:.3} (measured / modeled); \
         trace.overhead_frac {overhead:.4}",
        session_wide - ard_solve,
        value("ard.model_ratio"),
    ));
    notes.push(format!(
        "layer self time (traced run, width {wide} for direct calls):"
    ));
    for (name, t) in tr.self_times() {
        notes.push(format!(
            "  {name:<28} spans {:>7}  total {:>10.3} ms  self {:>10.3} ms",
            t.spans,
            t.total_s * 1e3,
            t.self_s * 1e3
        ));
    }

    let n = req.len();
    let hit_ratio = end.cache_hits as f64 / registers as f64;
    let mut metrics = vec![
        metric("service.queue_wait_ms.p50", ms(&queue, 50.0), n),
        metric("service.dispatch_ms.p50", ms(&solve, 50.0), n),
        metric("service.client_overhead_ms.p50", ms(&client, 50.0), n),
        metric("service.batch_width.mean", batch_width, dispatches as usize),
        metric("service.dispatches", dispatches as f64, 1),
        metric(
            "service.register_miss_ms.p50",
            ms(&misses, 50.0),
            misses.len(),
        ),
        metric("service.register_hit_ms.p50", ms(&hits, 50.0), hits.len()),
        metric("service.cache_hit_ratio", hit_ratio, registers as usize),
        metric("service.evictions", end.evictions as f64, 1),
    ];
    metrics.extend(direct);
    metrics.extend([
        metric("trace.overhead_frac", overhead, 2),
        metric(
            "service.throughput_plain_cols_s",
            plain.throughput(),
            plain.requests.len(),
        ),
        metric("service.throughput_traced_cols_s", lp.throughput(), n),
    ]);
    Ok(Report {
        metrics,
        notes,
        attempted: inp.mats.len() as u64 + plain.attempted + lp.attempted,
    })
}

/// Minimal JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The checked-out commit, read from `.git` in the working directory;
/// `unknown` outside a git checkout.
fn git_rev() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Run metadata: host, SIMD, backend, world size, thread budget, every
/// `BT_*` variable, git revision and the run's arguments.
fn meta_json(a: &Args) -> String {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut env: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("BT_"))
        .collect();
    env.sort();
    let env: Vec<String> = env
        .iter()
        .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
        .collect();
    format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"host_cores\":{cores},\
         \"simd\":{},\"backend\":\"shm\",\"ranks\":{RANKS},\"dense_threads_per_rank\":{},\
         \"env\":{{{}}},\"git_rev\":{}}}",
        json_str(&a.workload),
        a.seed,
        a.seconds,
        u8::from(a.trace),
        json_str(bt_dense::simd::active().name()),
        MODEL.threads_per_rank,
        env.join(","),
        json_str(&git_rev()),
    )
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = Workload::new(&a.workload, a.seed) else {
        eprintln!(
            "perfbench: unknown workload {:?}: expected one of {}",
            a.workload,
            inputs::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    let meta = meta_json(&a);
    println!(
        "perfbench {} seed={} seconds={} trace={}",
        w.name,
        a.seed,
        a.seconds,
        u8::from(a.trace)
    );
    println!("meta {meta}");
    let inp = Inputs::build(&w);
    let mut check = Check::default();
    let mut tr = Tracer::new();
    let report = if a.trace {
        run_traced(&a, &w, &inp, &mut check, &mut tr)
    } else {
        run_plain(&a, &w, &inp, &mut check)
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let expected: &[(&str, &str)] = if a.trace { &PER_LAYER } else { &END_TO_END };
    assert!(
        report
            .metrics
            .iter()
            .map(|m| m.name)
            .eq(expected.iter().map(|(n, _)| *n)),
        "emitted metrics differ from the declared list"
    );

    if a.trace {
        let path = format!("{TRACE_DIR}/trace-{}.json", w.name);
        let written = std::fs::create_dir_all(TRACE_DIR)
            .and_then(|()| std::fs::write(&path, tr.to_chrome_json(&meta)));
        match written {
            Ok(()) => println!("spans: {} written to {path}", tr.spans.len()),
            Err(e) => {
                eprintln!("perfbench: writing {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    for m in &report.metrics {
        println!("  {:<34} {:>16.6} {:<8} n={}", m.name, m.value, m.unit, m.n);
    }
    let failed = check.failed();
    println!(
        "  {:<34} {:>16.6} {:<8} n={}",
        "failed_frac",
        failed as f64 / report.attempted as f64,
        "ratio",
        report.attempted
    );
    for note in &report.notes {
        println!("{note}");
    }
    let correct = failed == 0 && report.metrics.iter().all(|m| m.value.is_finite());
    println!(
        "correctness: {} ({} answers checked, max residual {:.3e}, {} residual misses, {} errors{})",
        if correct { "PASS" } else { "FAIL" },
        check.checked,
        check.max_residual,
        check.misses,
        check.errors,
        check.first_problem.as_deref().map(|p| format!("; first: {p}")).unwrap_or_default()
    );

    let mut json = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{",
        report.attempted
    );
    for (i, m) in report.metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { -1.0 };
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            json,
            "{sep}{}:{{\"value\":{value},\"unit\":{}}}",
            json_str(m.name),
            json_str(m.unit)
        );
    }
    json.push_str("}}");
    println!("{json}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        for (i, name) in all.iter().enumerate() {
            assert!(
                !name.is_empty()
                    && name.len() <= 64
                    && name.starts_with(|c: char| c.is_ascii_alphanumeric())
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "bad metric name {name:?}"
            );
            assert!(!all[..i].contains(name), "duplicate metric name {name}");
        }
        for (_, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
    }

    #[test]
    fn benchmark_json_declares_every_metric_and_workload() {
        let decl = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(decl.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for name in inputs::NAMES {
            assert!(
                decl.contains(&format!("\"name\": \"{name}\"")),
                "BENCHMARK.json lacks {name}"
            );
        }
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
