//! Live telemetry exporter: a `std::net::TcpListener` thread serving the
//! metrics registry, the always-on latency recorders and the flight
//! recorder over plain HTTP/1.0 — zero dependencies, opt-in.
//!
//! Endpoints:
//!
//! * `GET /metrics` — Prometheus text exposition (version 0.0.4):
//!   counters and gauges verbatim, power-of-two histograms as cumulative
//!   `_bucket{le="..."}` series, [`crate::hdr`] recorders as summaries
//!   with `quantile` labels. Names are sanitized (`.` becomes `_`).
//! * `GET /json` (or `/`) — one `bt-obs-snapshot-v1` document embedding
//!   the `bt-obs-metrics-v1` dump plus latency quantiles by stage.
//! * `GET /flight` — the flight-recorder ring as `bt-obs-flight-v1`.
//!
//! Start it explicitly with [`serve`] (tests bind `127.0.0.1:0`) or let
//! [`serve_from_env`] read `BT_OBS_ADDR` — `bench_service` does the
//! latter, so a long bench run can be watched live:
//!
//! ```text
//! BT_OBS=1 BT_OBS_ADDR=127.0.0.1:9464 cargo run --release -p bt-bench --bin bench_service &
//! curl http://127.0.0.1:9464/metrics
//! ```
//!
//! The server is deliberately minimal: one thread, one connection at a
//! time, `Connection: close` on every response. Scrapes read shared
//! atomics only — they never block a recording thread.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Duration;

use crate::hdr;
use crate::registry;

/// Quantiles exposed for each latency recorder, as Prometheus summary
/// labels and `p50`/... keys in the JSON snapshot.
pub const QUANTILES: [(f64, &str); 4] = [(0.5, "50"), (0.9, "90"), (0.95, "95"), (0.99, "99")];

/// Handle to a running exporter; dropping it stops the thread.
pub struct Exporter {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Exporter {
    /// The bound address (resolves port 0 to the real port).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for Exporter {
    fn drop(&mut self) {
        self.shutdown.store(true, Relaxed);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Binds `addr` (e.g. `127.0.0.1:9464`; port 0 picks a free port) and
/// serves telemetry until the returned handle drops.
///
/// # Errors
///
/// Propagates bind failures.
pub fn serve(addr: &str) -> std::io::Result<Exporter> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&shutdown);
    let handle = std::thread::Builder::new()
        .name("bt-obs-exporter".into())
        .spawn(move || {
            for stream in listener.incoming() {
                if flag.load(Relaxed) {
                    break;
                }
                if let Ok(stream) = stream {
                    // Scrape errors only matter to the scraper.
                    let _ = handle_conn(stream);
                }
            }
        })?;
    Ok(Exporter {
        addr,
        shutdown,
        handle: Some(handle),
    })
}

/// Starts the exporter when `BT_OBS_ADDR` is set; `None` (silently) when
/// it is not, `None` with a stderr note when the bind fails.
#[must_use]
pub fn serve_from_env() -> Option<Exporter> {
    let addr = std::env::var("BT_OBS_ADDR").ok()?;
    let addr = addr.trim();
    if addr.is_empty() {
        return None;
    }
    match serve(addr) {
        Ok(exporter) => Some(exporter),
        Err(e) => {
            eprintln!("bt-obs: BT_OBS_ADDR={addr}: bind failed: {e}");
            None
        }
    }
}

fn handle_conn(mut stream: TcpStream) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    let mut buf = [0u8; 4096];
    let mut len = 0usize;
    // Read until the end of the request head (tolerate partial reads;
    // the request line is all we route on).
    while len < buf.len() {
        match stream.read(&mut buf[len..]) {
            Ok(0) => break,
            Ok(n) => {
                len += n;
                if buf[..len].windows(4).any(|w| w == b"\r\n\r\n") {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let head = String::from_utf8_lossy(&buf[..len]);
    let path = head
        .lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .unwrap_or("/");
    let path = path.split('?').next().unwrap_or("/");
    let (status, content_type, body) = match path {
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            prometheus_text(),
        ),
        "/" | "/json" => ("200 OK", "application/json", snapshot_json()),
        "/flight" => ("200 OK", "application/json", crate::flight::dump_json()),
        _ => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "not found; try /metrics, /json or /flight\n".to_string(),
        ),
    };
    write!(
        stream,
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
}

/// Maps a metric name onto the Prometheus name charset
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`): dots and other bytes become `_`.
#[must_use]
pub fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        out.push(if ok { c } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Renders the whole registry plus the latency recorders as Prometheus
/// text exposition format.
#[must_use]
#[allow(clippy::cast_precision_loss)]
pub fn prometheus_text() -> String {
    let mut out = String::new();
    for (name, v) in registry::counters_snapshot() {
        let n = sanitize_name(&name);
        out.push_str(&format!("# TYPE {n} counter\n{n} {v}\n"));
    }
    for (name, v) in registry::gauges_snapshot() {
        let n = sanitize_name(&name);
        let v = if v.is_finite() { v } else { 0.0 };
        out.push_str(&format!("# TYPE {n} gauge\n{n} {v}\n"));
    }
    for (name, h) in registry::histograms_snapshot() {
        let n = sanitize_name(&name);
        out.push_str(&format!("# TYPE {n} histogram\n"));
        let mut cum = 0u64;
        for (idx, c) in &h.buckets {
            cum += c;
            // Bucket `idx` counts v < 2^idx, i.e. v <= 2^idx - 1.
            let le = ((1u128 << idx) - 1) as f64;
            out.push_str(&format!("{n}_bucket{{le=\"{le}\"}} {cum}\n"));
        }
        out.push_str(&format!(
            "{n}_bucket{{le=\"+Inf\"}} {}\n{n}_sum {}\n{n}_count {}\n",
            h.count, h.sum, h.count
        ));
    }
    for (name, snap) in hdr::latencies_snapshot() {
        let n = sanitize_name(&name);
        out.push_str(&format!("# TYPE {n} summary\n"));
        for (q, _) in QUANTILES {
            out.push_str(&format!("{n}{{quantile=\"{q}\"}} {}\n", snap.quantile(q)));
        }
        out.push_str(&format!("{n}_sum {}\n{n}_count {}\n", snap.sum, snap.count));
    }
    out
}

/// One `bt-obs-snapshot-v1` JSON document: latency quantiles by stage,
/// the flight-ring depth, and the full `bt-obs-metrics-v1` dump.
#[must_use]
pub fn snapshot_json() -> String {
    let mut out = String::from("{\n  \"schema\": \"bt-obs-snapshot-v1\",\n  \"latency\": {");
    for (i, (name, snap)) in hdr::latencies_snapshot().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}",
            crate::json::escape(name),
            snap.count,
            snap.sum,
            snap.min,
            snap.max
        ));
        for (q, tag) in QUANTILES {
            out.push_str(&format!(", \"p{tag}\": {}", snap.quantile(q)));
        }
        out.push('}');
    }
    out.push_str(&format!(
        "\n  }},\n  \"flight_recorded\": {},\n  \"metrics\": ",
        crate::flight::recorded()
    ));
    out.push_str(crate::registry::metrics_json().trim_end());
    out.push_str("\n}\n");
    out
}

/// Summary from [`validate_prometheus_text`].
#[derive(Debug)]
pub struct PromSummary {
    /// Number of sample lines.
    pub samples: usize,
    /// Number of `# TYPE` headers.
    pub types: usize,
}

/// Validates Prometheus text exposition format (the subset this exporter
/// emits): every line is a comment, a `# TYPE name
/// counter|gauge|histogram|summary|untyped` header, or a
/// `name{labels} value` sample with a well-formed name and a float
/// value. A name may carry only one `# TYPE` header: two metric
/// families under one name are rejected by a Prometheus scrape.
///
/// # Errors
///
/// Returns a message naming the first offending line.
pub fn validate_prometheus_text(text: &str) -> Result<PromSummary, String> {
    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.chars().enumerate().all(|(i, c)| {
                c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit())
            })
    }
    let mut samples = 0usize;
    let mut typed = std::collections::HashSet::new();
    for (lineno, line) in text.lines().enumerate() {
        let lineno = lineno + 1;
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().unwrap_or("");
            let kind = parts.next().unwrap_or("");
            if !valid_name(name) {
                return Err(format!("line {lineno}: bad metric name in TYPE: {name:?}"));
            }
            if !matches!(
                kind,
                "counter" | "gauge" | "histogram" | "summary" | "untyped"
            ) {
                return Err(format!("line {lineno}: unknown metric type {kind:?}"));
            }
            if !typed.insert(name) {
                return Err(format!("line {lineno}: second TYPE header for {name:?}"));
            }
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        // Sample: name[{labels}] value
        let (name_part, value_part) = if let Some(open) = line.find('{') {
            let close = line
                .rfind('}')
                .ok_or_else(|| format!("line {lineno}: unclosed label braces"))?;
            if close < open {
                return Err(format!("line {lineno}: mismatched label braces"));
            }
            let labels = &line[open + 1..close];
            for pair in labels.split(',').filter(|p| !p.trim().is_empty()) {
                let (k, v) = pair
                    .split_once('=')
                    .ok_or_else(|| format!("line {lineno}: label without '=': {pair:?}"))?;
                if !valid_name(k.trim()) {
                    return Err(format!("line {lineno}: bad label name {k:?}"));
                }
                let v = v.trim();
                if !(v.starts_with('"') && v.ends_with('"') && v.len() >= 2) {
                    return Err(format!("line {lineno}: unquoted label value {v:?}"));
                }
            }
            (&line[..open], &line[close + 1..])
        } else {
            let sp = line
                .find(' ')
                .ok_or_else(|| format!("line {lineno}: sample without value"))?;
            (&line[..sp], &line[sp..])
        };
        if !valid_name(name_part.trim()) {
            return Err(format!(
                "line {lineno}: bad metric name {:?}",
                name_part.trim()
            ));
        }
        let value = value_part.split_whitespace().next().unwrap_or("");
        let value_ok = value.parse::<f64>().is_ok() || matches!(value, "+Inf" | "-Inf" | "NaN");
        if !value_ok {
            return Err(format!("line {lineno}: bad sample value {value:?}"));
        }
        samples += 1;
    }
    if samples == 0 {
        return Err("no samples".to_string());
    }
    Ok(PromSummary {
        samples,
        types: typed.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(stream, "GET {path} HTTP/1.0\r\nHost: test\r\n\r\n").unwrap();
        let mut resp = String::new();
        stream.read_to_string(&mut resp).expect("read");
        let (head, body) = resp.split_once("\r\n\r\n").expect("split head/body");
        (head.to_string(), body.to_string())
    }

    #[test]
    fn serves_all_endpoints() {
        let _g = crate::test_guard();
        crate::set_enabled(true);
        static C: crate::Counter = crate::Counter::new("test.exporter.hits");
        static L: crate::Latency = crate::Latency::new("test.exporter.lat_ns");
        C.incr();
        L.record(1234);
        let exporter = serve("127.0.0.1:0").expect("bind");
        let addr = exporter.local_addr();

        let (head, body) = get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.0 200"), "head: {head}");
        assert!(body.contains("test_exporter_hits"));
        assert!(body.contains("test_exporter_lat_ns{quantile=\"0.5\"}"));
        let summary = validate_prometheus_text(&body).expect("prometheus text validates");
        assert!(summary.samples > 0 && summary.types > 0);

        let (head, body) = get(addr, "/json");
        assert!(head.starts_with("HTTP/1.0 200"));
        let doc = crate::json::parse(&body).expect("snapshot parses");
        assert_eq!(
            doc.get("schema").and_then(crate::json::Json::as_str),
            Some("bt-obs-snapshot-v1")
        );
        let metrics = doc.get("metrics").expect("embedded metrics");
        crate::json::validate_metrics(metrics).expect("embedded metrics validate");

        let (head, body) = get(addr, "/flight");
        assert!(head.starts_with("HTTP/1.0 200"));
        let doc = crate::json::parse(&body).expect("flight parses");
        assert_eq!(
            doc.get("schema").and_then(crate::json::Json::as_str),
            Some("bt-obs-flight-v1")
        );

        let (head, _) = get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.0 404"));
        drop(exporter);
    }

    #[test]
    fn validator_rejects_garbage() {
        assert!(validate_prometheus_text("").is_err());
        assert!(validate_prometheus_text("9bad_name 1\n").is_err());
        assert!(validate_prometheus_text("name notanumber\n").is_err());
        assert!(validate_prometheus_text("name{le=unquoted} 1\n").is_err());
        assert!(validate_prometheus_text("# TYPE x flux\nx 1\n").is_err());
        let ok = "# TYPE a counter\na 1\nb{le=\"0.5\",q=\"x\"} 2.5\nc +Inf\n";
        let s = validate_prometheus_text(ok).expect("valid");
        assert_eq!(s.samples, 3);
        assert_eq!(s.types, 1);
    }

    #[test]
    fn validator_rejects_two_families_under_one_name() {
        // What a histogram and a latency recorder whose names sanitize
        // to the same string would emit.
        let dup = "# TYPE q_wait_ns histogram\nq_wait_ns_count 1\n\
                   # TYPE q_wait_ns summary\nq_wait_ns{quantile=\"0.5\"} 3\n";
        let err = validate_prometheus_text(dup).expect_err("duplicate family");
        assert!(err.contains("second TYPE header"), "{err}");
    }

    #[test]
    fn sanitize_maps_dots() {
        assert_eq!(
            sanitize_name("bt_service.queue_wait_ns"),
            "bt_service_queue_wait_ns"
        );
        assert_eq!(sanitize_name("9lives"), "_lives");
    }
}
