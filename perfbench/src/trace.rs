//! In-memory spans recorded by the benchmark around its own calls into
//! each layer, written out as a Chrome trace when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One timed interval. `parent == 0` marks a root span; span ids start
/// at 1 and are indices into [`Tracer::spans`] plus one.
#[derive(Debug, Clone)]
pub struct Span {
    pub parent: usize,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The service's request id, or 0 for spans that serve no request.
    pub request: u64,
}

/// Per-name aggregate of [`Tracer::self_times`].
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    pub spans: usize,
    pub total_s: f64,
    pub self_s: f64,
}

/// Span recorder; only the traced run creates one.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records `[start, end]` and returns the new span's id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: usize,
        start: Instant,
        end: Instant,
        request: u64,
    ) -> usize {
        self.spans.push(Span {
            parent,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            request,
        });
        self.spans.len()
    }

    /// Times `f` as a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, parent, start, Instant::now(), 0);
        out
    }

    /// Records one service request as seen by the client, from submit to
    /// `wait()` return, with the service's own `queue_wait` and
    /// `solve_time` as child spans laid end to end from the submit. What
    /// the children leave uncovered is client-side overhead: the submit
    /// call, the response handoff, and waiting behind earlier tickets.
    #[allow(clippy::too_many_arguments)]
    pub fn request(
        &mut self,
        parent: usize,
        sent: Instant,
        done: Instant,
        queue: Duration,
        solve: Duration,
        request: u64,
        dispatch_name: &'static str,
    ) {
        let id = self.record("service.request", parent, sent, done, request);
        let queued = (sent + queue).min(done);
        let solved = (queued + solve).min(done);
        self.record("service.queue_wait", id, sent, queued, request);
        self.record(dispatch_name, id, queued, solved, request);
    }

    /// Total and self time per span name. A span's self time is its
    /// duration minus the union of its children's intervals.
    pub fn self_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len() + 1];
        for s in &self.spans {
            children[s.parent].push((s.start_ns, s.end_ns));
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let covered = union_len(&mut children[i + 1], s.start_ns, s.end_ns);
            let e = out.entry(s.name).or_default();
            e.spans += 1;
            e.total_s += dur as f64 * 1e-9;
            e.self_s += dur.saturating_sub(covered) as f64 * 1e-9;
        }
        out
    }

    /// Chrome trace (`chrome://tracing`, Perfetto) of every span, with
    /// the run's metadata object under `"meta"`.
    pub fn to_chrome_json(&self, meta_json: &str) -> String {
        let mut s = String::with_capacity(self.spans.len() * 120 + 256);
        let _ = write!(s, "{{\"meta\":{meta_json},\"traceEvents\":[");
        for (i, sp) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":{},\"request\":{}}}}}",
                sp.name,
                sp.start_ns as f64 * 1e-3,
                sp.end_ns.saturating_sub(sp.start_ns) as f64 * 1e-3,
                i + 1,
                sp.parent,
                sp.request
            );
        }
        s.push_str("\n]}\n");
        s
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_len(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(cursor), b.min(hi));
        if b > a {
            total += b - a;
            cursor = b;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut tr = Tracer::new();
        let t = tr.epoch;
        let at = |us: u64| t + Duration::from_micros(us);
        let root = tr.record("root", 0, at(0), at(100), 0);
        // Two overlapping children cover [10, 50]; a third covers [60, 70].
        tr.record("child", root, at(10), at(40), 0);
        tr.record("child", root, at(20), at(50), 0);
        tr.record("child", root, at(60), at(70), 0);
        let times = tr.self_times();
        let r = times["root"];
        assert_eq!(r.spans, 1);
        assert!((r.total_s - 100e-6).abs() < 1e-12);
        assert!((r.self_s - 50e-6).abs() < 1e-12, "{r:?}");
        let c = times["child"];
        assert_eq!(c.spans, 3);
        assert!((c.self_s - 70e-6).abs() < 1e-12, "{c:?}");
    }

    #[test]
    fn request_children_tile_the_request() {
        let mut tr = Tracer::new();
        let t = tr.epoch;
        let sent = t + Duration::from_micros(5);
        let done = sent + Duration::from_micros(100);
        tr.request(
            0,
            sent,
            done,
            Duration::from_micros(30),
            Duration::from_micros(60),
            9,
            "service.dispatch",
        );
        let times = tr.self_times();
        assert!((times["service.request"].self_s - 10e-6).abs() < 1e-12);
        assert!((times["service.queue_wait"].total_s - 30e-6).abs() < 1e-12);
        assert!((times["service.dispatch"].total_s - 60e-6).abs() < 1e-12);
        assert!(tr.spans.iter().all(|s| s.request == 9));
        assert!(tr.to_chrome_json("{}").contains("\"parent\":1"));
    }
}
