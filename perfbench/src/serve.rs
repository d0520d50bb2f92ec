//! The system under test, driven through the public
//! `ServiceOn<ShmBackend>` API only: set-up, the closed loop, and the
//! correctness checks, which always run outside the timed intervals.

use std::collections::VecDeque;
use std::fmt::Display;
use std::time::{Duration, Instant};

use bt_ard::{MatrixKey, ServiceConfig, ServiceOn, SolveResponse, SolveTicket};
use bt_blocktri::gen::row_seed;
use bt_blocktri::BlockVec;
use bt_comm::CostModel;
use bt_shm::ShmBackend;

use crate::inputs::{Class, Inputs, Materialized, Request, Workload};
use crate::trace::Tracer;

pub type Service = ServiceOn<ShmBackend>;

/// Ranks of every SPMD world (one per core of a 2-core host; unpinned).
pub const RANKS: usize = 2;
/// Fixed cost model for every service and session. On the shared-memory
/// backend it never advances a clock, but it picks the RHS tile width,
/// so a fixed model keeps that choice identical run to run.
pub const MODEL: CostModel = CostModel::cluster();
/// Largest relative residual an answer may have.
pub const TOL: f64 = 1e-8;
/// Memory budget for timed responses kept for checking after the loop.
const SAMPLE_BYTES: usize = 64 << 20;

/// Correctness tally over every checked answer and every request error.
#[derive(Debug, Default)]
pub struct Check {
    pub checked: u64,
    pub misses: u64,
    pub errors: u64,
    pub max_residual: f64,
    pub first_problem: Option<String>,
}

impl Check {
    /// Checks one answer against the materialized matrix.
    pub fn residual(&mut self, inp: &Inputs, req: Request, x: &BlockVec) {
        let r = inp.mats[req.matrix].rel_residual(x, inp.rhs(req));
        self.checked += 1;
        self.max_residual = self.max_residual.max(r);
        if r.is_nan() || r > TOL {
            self.misses += 1;
            self.first_problem
                .get_or_insert_with(|| format!("matrix {}: residual {r:e}", req.matrix));
        }
    }

    /// Counts `requests` requests lost to one error.
    pub fn error(&mut self, e: impl Display, requests: u64) {
        self.errors += requests;
        self.first_problem.get_or_insert_with(|| e.to_string());
    }

    /// Requests that errored or answered wrongly.
    pub fn failed(&self) -> u64 {
        self.misses + self.errors
    }
}

/// A started service with every workload matrix registered.
pub struct Setup {
    pub svc: Service,
    pub keys: Vec<MatrixKey>,
    /// Service start through the last warm answer.
    pub secs: f64,
    /// Client-timed `register` calls (all misses).
    pub register_s: Vec<f64>,
}

/// Starts a service, registers every matrix and solves one warm request
/// per matrix. The timed interval ends when the last warm answer
/// arrives; the answers are checked after it.
///
/// # Errors
///
/// A message when a registration or submit fails: the workloads are
/// chosen so that none does.
pub fn setup(
    w: &Workload,
    inp: &Inputs,
    check: &mut Check,
    mut tr: Option<&mut Tracer>,
) -> Result<Setup, String> {
    let t0 = Instant::now();
    let mut cfg = ServiceConfig::new(RANKS, MODEL);
    if let Some(bytes) = w.cache_bytes {
        cfg.cache_bytes = bytes;
    }
    let svc = Service::start(cfg);
    let mut keys = Vec::with_capacity(inp.mats.len());
    let mut register_s = Vec::with_capacity(inp.mats.len());
    let mut warm = Vec::with_capacity(inp.mats.len());
    for (i, t) in inp.mats.iter().enumerate() {
        let r0 = Instant::now();
        let key = svc
            .register(&Materialized(t))
            .map_err(|e| format!("register matrix {i}: {e}"))?;
        let r1 = Instant::now();
        register_s.push((r1 - r0).as_secs_f64());
        if let Some(tr) = tr.as_deref_mut() {
            tr.record("service.register", 0, r0, r1, 0);
        }
        // Submitted straight away: a queued request keeps its entry
        // alive even when the next registration evicts it.
        let req = Request { matrix: i, rhs: i };
        let ticket = svc
            .submit(key, inp.rhs(req))
            .map_err(|e| format!("warm submit to matrix {i}: {e}"))?;
        keys.push(key);
        warm.push((req, Instant::now(), ticket));
    }
    let answers: Vec<_> = warm
        .into_iter()
        .map(|(req, sent, ticket)| (req, sent, ticket.wait(), Instant::now()))
        .collect();
    let secs = t0.elapsed().as_secs_f64();
    for (req, sent, answer, done) in answers {
        match answer {
            Ok(resp) => {
                if let Some(tr) = tr.as_deref_mut() {
                    let name = dispatch_span(w.specs[req.matrix].class);
                    tr.request(
                        0,
                        sent,
                        done,
                        resp.queue_wait,
                        resp.solve_time,
                        resp.request_id,
                        name,
                    );
                }
                check.residual(inp, req, &resp.x);
            }
            Err(e) => check.error(e, 1),
        }
    }
    Ok(Setup {
        svc,
        keys,
        secs,
        register_s,
    })
}

/// Span name of a dispatch, split by the class the benchmark generated.
pub fn dispatch_span(class: Class) -> &'static str {
    match class {
        Class::General => "service.dispatch.general",
        Class::Toeplitz => "service.dispatch.toeplitz",
        Class::Small => "service.dispatch.small",
    }
}

/// One request answered inside the measured window.
#[derive(Debug, Clone, Copy)]
pub struct Done {
    pub class: Class,
    /// When the answer arrived, in seconds into the measured window.
    pub at_s: f64,
    pub latency_s: f64,
    pub queue_s: f64,
    pub solve_s: f64,
}

/// What the closed loop measured.
#[derive(Debug, Default)]
pub struct LoopStats {
    /// Latency of each unit of work finished in the window: a request,
    /// or in job mode a whole job.
    pub latency_s: Vec<f64>,
    /// Every request answered in the window.
    pub requests: Vec<Done>,
    /// Client-timed `register` misses of jobs in the window.
    pub register_s: Vec<f64>,
    /// Right-hand-side columns answered in the window.
    pub cols: u64,
    /// From the end of the warm-up to the last answer counted.
    pub window_s: f64,
    /// Requests submitted (or, in job mode, planned), warm-up included.
    pub attempted: u64,
}

impl LoopStats {
    /// Columns answered per second of the window.
    pub fn throughput(&self) -> f64 {
        self.cols as f64 / self.window_s
    }
}

/// Timed responses kept for checking after the loop: a seeded uniform
/// sample (reservoir) of bounded size over every answered request.
struct Reservoir {
    cap: usize,
    seen: u64,
    seed: u64,
    kept: Vec<(Request, BlockVec)>,
}

impl Reservoir {
    fn new(w: &Workload, seed: u64) -> Self {
        let biggest = w.specs.iter().map(|s| s.n * s.m).max().unwrap_or(1);
        let bytes = biggest * w.width * std::mem::size_of::<f64>();
        Self {
            cap: (SAMPLE_BYTES / bytes).clamp(2, 64),
            seen: 0,
            seed: row_seed(seed, 0x7361_6d70),
            kept: Vec::new(),
        }
    }

    fn offer(&mut self, req: Request, x: BlockVec) {
        if self.kept.len() < self.cap {
            self.kept.push((req, x));
        } else {
            let j = (row_seed(self.seed, self.seen) % (self.seen + 1)) as usize;
            if j < self.cap {
                self.kept[j] = (req, x);
            }
        }
        self.seen += 1;
    }
}

/// The closed loop: `warm` unmeasured, then `measure` measured. Answers
/// count when they arrive inside the measured window.
#[allow(clippy::too_many_arguments)]
pub fn run_loop(
    s: &Setup,
    w: &Workload,
    inp: &Inputs,
    warm: Duration,
    measure: Duration,
    seed: u64,
    check: &mut Check,
    tr: Option<&mut Tracer>,
) -> LoopStats {
    let mut sample = Reservoir::new(w, seed);
    let start = Instant::now();
    let window = (start + warm, start + warm + measure);
    let mut st = if w.job_requests == 0 {
        request_loop(s, w, inp, window, check, &mut sample, tr)
    } else {
        job_loop(s, w, inp, window, check, &mut sample, tr)
    };
    for (req, x) in &sample.kept {
        check.residual(inp, *req, x);
    }
    if st.cols == 0 {
        st.window_s = f64::NAN;
    }
    st
}

struct InFlight {
    ticket: SolveTicket,
    req: Request,
    sent: Instant,
}

/// Keeps `w.outstanding` requests in flight, waiting on the oldest.
fn request_loop(
    s: &Setup,
    w: &Workload,
    inp: &Inputs,
    (t_measure, t_end): (Instant, Instant),
    check: &mut Check,
    sample: &mut Reservoir,
    mut tr: Option<&mut Tracer>,
) -> LoopStats {
    let mut st = LoopStats::default();
    let mut inflight: VecDeque<InFlight> = VecDeque::with_capacity(w.outstanding);
    let mut seq = 0u64;
    let mut last = t_measure;
    loop {
        if Instant::now() < t_end {
            for _ in inflight.len()..w.outstanding {
                let req = w.pick(seq);
                seq += 1;
                st.attempted += 1;
                let sent = Instant::now();
                match s.svc.submit(s.keys[req.matrix], inp.rhs(req)) {
                    Ok(ticket) => inflight.push_back(InFlight { ticket, req, sent }),
                    Err(e) => check.error(e, 1),
                }
            }
        }
        let Some(f) = inflight.pop_front() else {
            break;
        };
        let answer = f.ticket.wait();
        let done = Instant::now();
        match answer {
            Ok(resp) => {
                if done >= t_measure && done <= t_end {
                    let class = w.specs[f.req.matrix].class;
                    st.latency_s.push((done - f.sent).as_secs_f64());
                    st.requests
                        .push(finished(class, f.sent, done, t_measure, &resp));
                    st.cols += resp.x.r() as u64;
                    last = done;
                    if let Some(tr) = tr.as_deref_mut() {
                        let name = dispatch_span(class);
                        tr.request(
                            0,
                            f.sent,
                            done,
                            resp.queue_wait,
                            resp.solve_time,
                            resp.request_id,
                            name,
                        );
                    }
                }
                sample.offer(f.req, resp.x);
            }
            Err(e) => check.error(e, 1),
        }
    }
    st.window_s = (last - t_measure).as_secs_f64();
    st
}

fn finished(
    class: Class,
    sent: Instant,
    done: Instant,
    t_measure: Instant,
    resp: &SolveResponse,
) -> Done {
    Done {
        class,
        at_s: done.saturating_duration_since(t_measure).as_secs_f64(),
        latency_s: (done - sent).as_secs_f64(),
        queue_s: resp.queue_wait.as_secs_f64(),
        solve_s: resp.solve_time.as_secs_f64(),
    }
}

/// One job at a time: register a matrix (a miss under the workload's
/// one-entry budget), then submit its requests together and wait for
/// all of them.
fn job_loop(
    s: &Setup,
    w: &Workload,
    inp: &Inputs,
    (t_measure, t_end): (Instant, Instant),
    check: &mut Check,
    sample: &mut Reservoir,
    mut tr: Option<&mut Tracer>,
) -> LoopStats {
    let mut st = LoopStats::default();
    let per_job = w.job_requests as u64;
    let mut last = t_measure;
    let mut seq = 0u64;
    let mut job = 0u64;
    while Instant::now() < t_end {
        let matrix = w.pick(job).matrix;
        job += 1;
        st.attempted += per_job;
        let misses = s.svc.stats().cache_misses;
        let t0 = Instant::now();
        let key = match s.svc.register(&Materialized(&inp.mats[matrix])) {
            Ok(key) => key,
            Err(e) => {
                check.error(e, per_job);
                continue;
            }
        };
        let t_reg = Instant::now();
        // The cycle can repeat the cached matrix across a loop restart;
        // only misses count as miss timings.
        let missed = s.svc.stats().cache_misses > misses;
        let mut tickets = Vec::with_capacity(w.job_requests);
        for _ in 0..per_job {
            let req = Request {
                matrix,
                rhs: w.pick(seq).rhs,
            };
            seq += 1;
            let sent = Instant::now();
            match s.svc.submit(key, inp.rhs(req)) {
                Ok(ticket) => tickets.push((ticket, req, sent)),
                Err(e) => check.error(e, 1),
            }
        }
        let answers: Vec<_> = tickets
            .into_iter()
            .map(|(ticket, req, sent)| (ticket.wait(), req, sent, Instant::now()))
            .collect();
        let t1 = Instant::now();
        let in_window = t0 >= t_measure && t1 <= t_end;
        let root = match tr.as_deref_mut() {
            Some(tr) if in_window => {
                let root = tr.record("job", 0, t0, t1, 0);
                tr.record("service.register", root, t0, t_reg, 0);
                root
            }
            _ => 0,
        };
        let mut job_ok = true;
        for (answer, req, sent, done) in answers {
            match answer {
                Ok(resp) => {
                    if in_window {
                        let class = w.specs[matrix].class;
                        st.requests
                            .push(finished(class, sent, done, t_measure, &resp));
                        st.cols += resp.x.r() as u64;
                        if let Some(tr) = tr.as_deref_mut() {
                            let name = dispatch_span(class);
                            tr.request(
                                root,
                                sent,
                                done,
                                resp.queue_wait,
                                resp.solve_time,
                                resp.request_id,
                                name,
                            );
                        }
                    }
                    sample.offer(req, resp.x);
                }
                Err(e) => {
                    job_ok = false;
                    check.error(e, 1);
                }
            }
        }
        if in_window && job_ok {
            st.latency_s.push((t1 - t0).as_secs_f64());
            if missed {
                st.register_s.push((t_reg - t0).as_secs_f64());
            }
            last = t1;
        }
    }
    st.window_s = (last - t_measure).as_secs_f64();
    st
}

/// Client-timed `register` calls of matrices that are already cached:
/// up to `probes` calls cycling over the cached ones.
pub fn register_hits(s: &Setup, inp: &Inputs, probes: usize, tr: &mut Tracer) -> Vec<f64> {
    let cached: Vec<usize> = (0..s.keys.len())
        .filter(|&i| s.svc.contains(s.keys[i]))
        .collect();
    let mut out = Vec::with_capacity(probes);
    for k in 0..probes {
        let Some(&i) = cached.get(k % cached.len().max(1)) else {
            break;
        };
        let t0 = Instant::now();
        let hit = s.svc.register(&Materialized(&inp.mats[i]));
        let t1 = Instant::now();
        tr.record("service.register_hit", 0, t0, t1, 0);
        if hit.is_ok() {
            out.push((t1 - t0).as_secs_f64());
        }
    }
    out
}
