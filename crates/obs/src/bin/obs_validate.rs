//! Validates emitted observability artifacts (CI gate).
//!
//! ```text
//! # Schema-dispatch validation of one or more JSON artifacts:
//! cargo run -p bt-obs --bin obs_validate -- results/obs_trace.json results/obs_metrics.json
//!
//! # Perf-regression gate: fresh bench JSON vs the committed baseline,
//! # passing when fresh_headline >= tol * committed_headline:
//! cargo run -p bt-obs --bin obs_validate -- --baseline BENCH_service.json /tmp/fresh.json --tol 0.25
//!
//! # Prometheus text exposition (the live exporter's /metrics output):
//! cargo run -p bt-obs --bin obs_validate -- --prom /tmp/scrape.txt
//! ```
//!
//! In file mode, each file is parsed with the in-tree JSON parser and
//! checked against the schema it self-identifies as: `bt-obs-metrics-v1`
//! via [`bt_obs::json::validate_metrics`], `bt-bench-service-v1` via
//! [`bt_obs::json::validate_bench_service`], `bt-bench-shm-v1` via
//! [`bt_obs::json::validate_bench_shm`], `bt-bench-structured-v1` via
//! [`bt_obs::json::validate_bench_structured`], `bt-obs-flight-v1` via
//! [`bt_obs::json::validate_flight`], `bt-obs-snapshot-v1` via
//! [`bt_obs::json::validate_snapshot`], anything shaped like Chrome
//! trace-event JSON (bare array or `{"traceEvents": [...]}`) via
//! [`bt_obs::json::validate_chrome_trace`]. Exits non-zero on the first
//! unreadable, unparsable or invalid file.

use bt_obs::json::{self, Json};

fn validate_file(path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read: {e}"))?;
    let doc = json::parse(&text)?;
    let schema = doc.get("schema").and_then(Json::as_str).unwrap_or("");
    if schema.starts_with("bt-bench-service") {
        let s = json::validate_bench_service(&doc)?;
        return Ok(format!(
            "service bench ok: {} legs, batched speedup {:.2}x at top rate",
            s.legs, s.batched_speedup
        ));
    }
    if schema.starts_with("bt-bench-shm") {
        let s = json::validate_bench_shm(&doc)?;
        return Ok(format!(
            "shm bench ok: {} cells, headline {:.0} RHS columns/s, calib fit error {:.1}%",
            s.cells,
            s.headline,
            s.fit_error * 1e2
        ));
    }
    if schema.starts_with("bt-bench-structured") {
        let s = json::validate_bench_structured(&doc)?;
        return Ok(format!(
            "structured bench ok: {} toeplitz + {} batched cells, replay {:.2}x, \
             factor memory {:.1}x smaller, batched throughput {:.2}x",
            s.toeplitz_cells,
            s.batched_cells,
            s.headline_toeplitz,
            s.headline_mem,
            s.headline_batched
        ));
    }
    if schema.starts_with("bt-obs-flight") {
        let s = json::validate_flight(&doc)?;
        return Ok(format!(
            "flight dump ok: {} events ({} recorded in total)",
            s.events, s.recorded
        ));
    }
    if schema.starts_with("bt-obs-snapshot") {
        let s = json::validate_snapshot(&doc)?;
        return Ok(format!(
            "snapshot ok: {} counters, {} gauges, {} histograms in embedded metrics",
            s.counters, s.gauges, s.histograms
        ));
    }
    let is_metrics = schema.starts_with("bt-obs-metrics");
    if is_metrics {
        let s = json::validate_metrics(&doc)?;
        Ok(format!(
            "metrics ok: {} counters, {} gauges, {} histograms",
            s.counters, s.gauges, s.histograms
        ))
    } else {
        let s = json::validate_chrome_trace(&doc)?;
        Ok(format!(
            "trace ok: {} events ({} complete, {} flow starts, {} flow finishes) on {} threads",
            s.events, s.complete_events, s.flow_starts, s.flow_finishes, s.threads
        ))
    }
}

fn read_doc(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: cannot read: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn run_baseline(committed: &str, fresh: &str, tol: f64) -> Result<(), String> {
    let summary = json::validate_baseline(&read_doc(committed)?, &read_doc(fresh)?, tol)?;
    println!(
        "baseline ok ({}): fresh headline {:.3} vs committed {:.3} ({:.2}x, tolerance {:.2}x)",
        summary.schema, summary.fresh, summary.committed, summary.ratio, tol
    );
    Ok(())
}

fn run_prom(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: cannot read: {e}"))?;
    let s = bt_obs::exporter::validate_prometheus_text(&text)?;
    println!(
        "{path}: prometheus text ok: {} samples, {} type headers",
        s.samples, s.types
    );
    Ok(())
}

const USAGE: &str = "usage: obs_validate <artifact.json>...\n       \
                     obs_validate --baseline <committed.json> <fresh.json> [--tol <ratio>]\n       \
                     obs_validate --prom <scrape.txt>";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        None => {
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
        Some("--baseline") => {
            let (Some(committed), Some(fresh)) = (args.get(1), args.get(2)) else {
                eprintln!("{USAGE}");
                std::process::exit(2);
            };
            let tol = match args.get(3).map(String::as_str) {
                Some("--tol") => match args.get(4).and_then(|v| v.parse::<f64>().ok()) {
                    Some(t) if t > 0.0 => t,
                    _ => {
                        eprintln!("--tol requires a positive ratio");
                        std::process::exit(2);
                    }
                },
                Some(other) => {
                    eprintln!("unknown baseline flag '{other}'\n{USAGE}");
                    std::process::exit(2);
                }
                None => 0.5,
            };
            if let Err(e) = run_baseline(committed, fresh, tol) {
                eprintln!("baseline: FAILED: {e}");
                std::process::exit(1);
            }
        }
        Some("--prom") => {
            let Some(path) = args.get(1) else {
                eprintln!("{USAGE}");
                std::process::exit(2);
            };
            if let Err(e) = run_prom(path) {
                eprintln!("{path}: INVALID: {e}");
                std::process::exit(1);
            }
        }
        Some(_) => {
            let mut failed = false;
            for path in &args {
                match validate_file(path) {
                    Ok(summary) => println!("{path}: {summary}"),
                    Err(e) => {
                        eprintln!("{path}: INVALID: {e}");
                        failed = true;
                    }
                }
            }
            if failed {
                std::process::exit(1);
            }
        }
    }
}
