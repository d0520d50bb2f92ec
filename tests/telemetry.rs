//! End-to-end serving-path telemetry: one service run under `BT_OBS=1`
//! must produce a single merged Chrome trace in which a sampled
//! request's spans — queue wait, batch dispatch, the session replay
//! solve, and the per-rank scan rounds — all carry that request's id;
//! the live exporter must serve valid Prometheus text and a JSON
//! snapshot *during* the run; and a forced solve panic must leave a
//! flight-recorder dump containing the doomed request's events.

use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use block_tridiag_suite::ard::{ServiceConfig, ServiceError, ServiceOn};
use block_tridiag_suite::blocktri::gen::{materialize, random_rhs, ClusteredToeplitz};
use block_tridiag_suite::comm::{Comm, SimBackend, SpmdBackend, SpmdOutput, SpmdWorld};
use block_tridiag_suite::mpsim::CostModel;
use block_tridiag_suite::obs as bt_obs;

const N: usize = 24;
const M: usize = 3;
const P: usize = 4;

const ZERO: CostModel = CostModel {
    latency_s: 0.0,
    per_byte_s: 0.0,
    flop_rate: f64::INFINITY,
    threads_per_rank: 1,
};

/// One HTTP/1.0 GET against the live exporter; returns (head, body).
fn get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
    let mut stream = std::net::TcpStream::connect(addr).expect("connect exporter");
    write!(stream, "GET {path} HTTP/1.0\r\nHost: test\r\n\r\n").expect("send request");
    let mut resp = String::new();
    stream.read_to_string(&mut resp).expect("read response");
    let (head, body) = resp.split_once("\r\n\r\n").expect("head/body split");
    (head.to_string(), body.to_string())
}

/// Does this trace event's `args` attribute it to `req` — either as a
/// single-request context (`"req": id`) or as a member of a batch
/// context (`"reqs": [...]`)?
fn event_serves(ev: &bt_obs::json::Json, req: u64) -> bool {
    let Some(args) = ev.get("args") else {
        return false;
    };
    #[allow(clippy::float_cmp)] // ids are small integers, exact in f64
    let is_req = |v: &bt_obs::json::Json| v.as_f64() == Some(req as f64);
    if args.get("req").is_some_and(&is_req) {
        return true;
    }
    args.get("reqs")
        .and_then(bt_obs::json::Json::as_arr)
        .is_some_and(|ids| ids.iter().any(is_req))
}

/// Set while [`FaultyWorlds`] refuses to start a persistent world.
static WORLDS_FAIL: AtomicBool = AtomicBool::new(false);

/// The simulator, except that starting a persistent world panics while
/// [`WORLDS_FAIL`] is set, so a new matrix's first solve panics.
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

/// The observability gate, tracer, flight ring and latency registry are
/// process-global; this test owns the whole scenario in one body.
#[test]
fn serving_path_telemetry_round_trip() {
    bt_obs::set_enabled(true);
    bt_obs::clear_trace();
    bt_obs::flight::clear();
    bt_obs::hdr::reset_latencies();

    let dump_dir = std::env::temp_dir().join("bt_flight_it");
    let _ = std::fs::remove_dir_all(&dump_dir);

    let svc = ServiceOn::<FaultyWorlds>::start(ServiceConfig {
        max_batch: 4,
        max_delay: Duration::from_millis(5),
        flight_dump_dir: Some(dump_dir.clone()),
        ..ServiceConfig::new(P, ZERO)
    });
    let a = ClusteredToeplitz::standard(N, M, 7);
    let key = svc.register(&a).expect("register");
    let t = materialize(&a);

    // Live exporter up for the duration of the run.
    let exporter = bt_obs::exporter::serve("127.0.0.1:0").expect("bind exporter");
    let addr = exporter.local_addr();

    // ---- A width-4 coalesced batch; sample the first request. -------
    let ys: Vec<_> = (0..4u64).map(|s| random_rhs(N, M, 1, 50 + s)).collect();
    let tickets: Vec<_> = ys
        .iter()
        .map(|y| svc.submit(key, y).expect("submit"))
        .collect();
    let sampled_req = tickets[0].request_id();
    assert!(sampled_req >= 1, "request ids start at 1");
    let mut sampled_batch = 0;
    for (ticket, y) in tickets.into_iter().zip(&ys) {
        let req = ticket.request_id();
        let resp = ticket.wait().expect("batched solve");
        assert_eq!(resp.request_id, req, "response carries its request id");
        assert_eq!(resp.batch_width, 4, "all four requests rode one batch");
        if req == sampled_req {
            sampled_batch = resp.batch_id;
        }
        assert!(t.rel_residual(&resp.x, y) < 1e-10);
    }
    assert!(sampled_batch >= 1, "batch ids start at 1");

    // ---- Live scrape while the service is still up. -----------------
    let (head, body) = get(addr, "/metrics");
    assert!(head.starts_with("HTTP/1.0 200"), "head: {head}");
    let prom = bt_obs::exporter::validate_prometheus_text(&body).expect("prometheus validates");
    assert!(prom.samples > 0 && prom.types > 0);
    for stage in [
        "bt_service_queue_wait_ns",
        "bt_service_solve_ns",
        "bt_service_request_total_ns",
    ] {
        assert!(body.contains(stage), "scrape lacks {stage}:\n{body}");
    }

    let (head, body) = get(addr, "/json");
    assert!(head.starts_with("HTTP/1.0 200"));
    let snap = bt_obs::json::parse(&body).expect("snapshot parses");
    bt_obs::json::validate_snapshot(&snap).expect("snapshot validates");

    // The always-on recorders saw every request regardless of the gate.
    let lat = bt_obs::hdr::latencies_snapshot();
    let queue = lat
        .iter()
        .find(|(name, _)| name == "bt_service.queue_wait_ns")
        .map(|(_, s)| s)
        .expect("queue-wait recorder registered");
    assert!(queue.count >= 4, "queue-wait count {}", queue.count);

    // ---- One merged Chrome trace, spans tagged with the request. ----
    bt_obs::set_enabled(false);
    let trace = bt_obs::trace_json();
    let doc = bt_obs::json::parse(&trace).expect("trace parses");
    bt_obs::json::validate_chrome_trace(&doc).expect("trace validates");
    let events = doc
        .get("traceEvents")
        .and_then(bt_obs::json::Json::as_arr)
        .expect("traceEvents array");
    for span in [
        "queue.wait",
        "batch.dispatch",
        "replay.solve",
        "affine_replay.round",
    ] {
        assert!(
            events.iter().any(|ev| {
                ev.get("name").and_then(bt_obs::json::Json::as_str) == Some(span)
                    && event_serves(ev, sampled_req)
            }),
            "no '{span}' span attributed to request {sampled_req}"
        );
    }

    // ---- Forced solve panic leaves a flight dump. -------------------
    let b = ClusteredToeplitz::standard(N, M, 8);
    let doomed = svc.register(&b).expect("register");
    WORLDS_FAIL.store(true, Ordering::SeqCst);
    let y = random_rhs(N, M, 1, 99);
    let ticket = svc.submit(doomed, &y).expect("submit doomed request");
    let failed_req = ticket.request_id();
    match ticket.wait() {
        Err(ServiceError::SolveFailed(msg)) => {
            assert!(msg.contains("injected world failure"), "got: {msg}");
        }
        other => panic!(
            "expected SolveFailed, got {other:?}",
            other = other.map(|_| ())
        ),
    }
    let dumps: Vec<_> = std::fs::read_dir(&dump_dir)
        .expect("dump dir created")
        .map(|e| e.expect("dir entry").path())
        .collect();
    assert_eq!(dumps.len(), 1, "one dump per panicked batch: {dumps:?}");
    let text = std::fs::read_to_string(&dumps[0]).expect("read dump");
    let flight = bt_obs::json::parse(&text).expect("dump parses");
    let summary = bt_obs::json::validate_flight(&flight).expect("dump validates");
    assert!(summary.events > 0);
    let fevents = flight
        .get("events")
        .and_then(bt_obs::json::Json::as_arr)
        .expect("events array");
    #[allow(clippy::float_cmp)] // ids are small integers, exact in f64
    let has = |kind: &str, req: u64| {
        fevents.iter().any(|ev| {
            ev.get("kind").and_then(bt_obs::json::Json::as_str) == Some(kind)
                && ev.get("req").and_then(bt_obs::json::Json::as_f64) == Some(req as f64)
        })
    };
    assert!(has("submit", failed_req), "dump lacks the doomed submit");
    assert!(has("solve_failed", failed_req), "dump lacks the failure");
    assert!(
        fevents
            .iter()
            .any(|ev| ev.get("kind").and_then(bt_obs::json::Json::as_str) == Some("solve_panic")),
        "dump lacks the panic event"
    );

    // The same key is answered once worlds start again.
    WORLDS_FAIL.store(false, Ordering::SeqCst);
    let resp = svc.solve(doomed, &y).expect("solve after the panic");
    assert!(materialize(&b).rel_residual(&resp.x, &y) < 1e-10);

    drop(svc);
    drop(exporter);
    let _ = std::fs::remove_dir_all(&dump_dir);
}
