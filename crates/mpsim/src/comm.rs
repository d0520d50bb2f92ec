//! Rank-local communicator: point-to-point messaging, counters, clock.
//!
//! A [`Comm`] is handed to each rank of an SPMD program (see
//! [`crate::runner::run_spmd`]). It is the virtual-clock implementation
//! of [`CommBackend`]; semantics mirror a minimal MPI subset:
//!
//! * [`CommBackend::send`] is non-blocking (buffered, like `MPI_Isend` +
//!   eager protocol): it never waits for the receiver.
//! * [`CommBackend::recv`] blocks until a message with the requested
//!   `(source, tag)` arrives; messages with other tags from the same
//!   source are buffered and delivered to later matching `recv`s, so
//!   out-of-order tag matching behaves like MPI.
//! * Every send/recv updates the rank's [`RankStats`] and its virtual
//!   clock per the [`CostModel`].
//!
//! Misuse (type mismatch between `send` and `recv`, rank out of range,
//! receiving from a rank that panicked) panics with a descriptive
//! message — these are programming errors in the SPMD program, not
//! recoverable conditions.

use std::any::Any;
use std::collections::VecDeque;

use bt_comm::{CommBackend, CostModel, PanelBuf, Payload, RankStats, USER_TAG_LIMIT};
use crossbeam::channel::{Receiver, Sender};

use crate::trace::TraceEvent;

/// Depth of this rank's nonblocking-receive queue at each
/// [`CommBackend::irecv_panel_into`] post (no-op unless `BT_OBS` is on).
static OBS_INFLIGHT_DEPTH: bt_obs::Histogram =
    bt_obs::Histogram::new("bt_mpsim.comm.inflight_depth");

/// Handle for a posted [`CommBackend::isend_panel`]. Sends in this
/// runtime are buffered-eager (the payload is fully packed into a pooled
/// [`PanelBuf`] at post time), so the request is complete the moment it
/// exists; the handle keeps MPI-style call symmetry so SPMD programs
/// read like their MPI counterparts. Complete it with
/// [`CommBackend::send_wait`].
#[derive(Debug)]
#[must_use = "MPI-style requests should be completed with send_wait()"]
pub struct SendRequest {
    pub(crate) _private: (),
}

/// Handle for a posted [`CommBackend::irecv_panel_into`].
///
/// The request owns the destination buffer; [`CommBackend::recv_wait`]
/// blocks for the matching message, unpacks it into the buffer and
/// returns it. Requests posted on the same `(source, tag)` pair
/// complete in post order (the runtime delivers per-`(src, dst, tag)`
/// FIFO), which is what lets a software pipeline share one tag across
/// all tiles of a scan round.
///
/// Dropping a request without waiting panics — an outstanding receive
/// at rank exit is a lost message and almost certainly a pipeline bug.
#[derive(Debug)]
#[must_use = "an irecv must be completed with recv_wait() (dropping panics)"]
pub struct RecvRequest {
    pub(crate) src: usize,
    pub(crate) tag: u64,
    /// Virtual time the receive was posted.
    pub(crate) posted_at: f64,
    /// Destination buffer; `None` once waited.
    pub(crate) out: Option<bt_dense::Mat>,
}

impl RecvRequest {
    /// Virtual time at which this receive was posted.
    #[inline]
    pub fn posted_at(&self) -> f64 {
        self.posted_at
    }
}

impl Drop for RecvRequest {
    fn drop(&mut self) {
        if self.out.is_some() && !std::thread::panicking() {
            panic!(
                "RecvRequest (src {}, tag {}) dropped without recv_wait()",
                self.src, self.tag
            );
        }
    }
}

/// A message in flight.
pub(crate) struct Envelope {
    pub tag: u64,
    pub bytes: u64,
    /// Virtual time at which the payload is available at the receiver.
    pub avail_at: f64,
    pub payload: Box<dyn Any + Send>,
}

/// Per-rank communicator for an SPMD program (the simulator backend).
pub struct Comm {
    rank: usize,
    size: usize,
    pub(crate) senders: Vec<Sender<Envelope>>,
    pub(crate) receivers: Vec<Receiver<Envelope>>,
    /// Out-of-order buffer, per source rank.
    pending: Vec<VecDeque<Envelope>>,
    pub(crate) stats: RankStats,
    /// Virtual clock (seconds since program start).
    pub(crate) clock: f64,
    /// Per-destination virtual time until which this rank's outgoing
    /// link is occupied by earlier messages (the serialization term of
    /// the overlap model — see [`CostModel`]).
    link_busy: Vec<f64>,
    /// Outstanding nonblocking receives (posted, not yet waited).
    inflight_recvs: usize,
    /// Virtual seconds nonblocking receives spent in flight after their
    /// post (denominator of the overlap ratio).
    inflight_s: f64,
    /// Virtual seconds of that in-flight time hidden behind compute
    /// (numerator of the overlap ratio).
    overlap_s: f64,
    model: CostModel,
    /// Sequence number ensuring successive collectives use distinct tags.
    pub(crate) collective_seq: u64,
    /// Event recorder (None unless the world was launched traced).
    pub(crate) tracer: Option<Vec<TraceEvent>>,
    /// Whether this world records trace events: [`Comm::reset_for_reuse`]
    /// re-arms `tracer` from this, so every job on a traced persistent
    /// world gets a fresh event buffer instead of silently going dark.
    pub(crate) traced: bool,
}

impl Comm {
    pub(crate) fn new(
        rank: usize,
        size: usize,
        senders: Vec<Sender<Envelope>>,
        receivers: Vec<Receiver<Envelope>>,
        model: CostModel,
    ) -> Self {
        Self {
            rank,
            size,
            senders,
            receivers,
            pending: (0..size).map(|_| VecDeque::new()).collect(),
            stats: RankStats::default(),
            clock: 0.0,
            link_busy: vec![0.0; size],
            inflight_recvs: 0,
            inflight_s: 0.0,
            overlap_s: 0.0,
            model,
            collective_seq: 0,
            tracer: None,
            traced: false,
        }
    }

    /// This rank's id, `0 <= rank() < size()`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the world.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// The cost model this world runs under.
    #[inline]
    pub fn model(&self) -> CostModel {
        self.model
    }

    /// This rank's counters so far.
    #[inline]
    pub fn stats(&self) -> RankStats {
        self.stats
    }

    /// Current virtual time in seconds.
    #[inline]
    pub fn virtual_time(&self) -> f64 {
        self.clock
    }

    /// Number of posted-but-not-yet-waited nonblocking receives.
    #[inline]
    pub fn inflight_recvs(&self) -> usize {
        self.inflight_recvs
    }

    /// Virtual seconds nonblocking receives spent in flight between
    /// post and completion (the overlap ratio's denominator).
    #[inline]
    pub fn inflight_seconds(&self) -> f64 {
        self.inflight_s
    }

    /// Virtual seconds of in-flight communication hidden behind compute
    /// — in-flight time this rank did **not** spend blocked in `wait`.
    #[inline]
    pub fn overlap_seconds(&self) -> f64 {
        self.overlap_s
    }

    pub(crate) fn send_internal<T: Payload>(&mut self, dest: usize, tag: u64, value: T) {
        assert!(
            dest < self.size,
            "send to rank {dest} in a world of size {}",
            self.size
        );
        let bytes = value.byte_size();
        self.stats.msgs_sent += 1;
        self.stats.bytes_sent += bytes;
        if let Some(tr) = &mut self.tracer {
            tr.push(TraceEvent::Send {
                at: self.clock,
                dst: dest,
                tag,
                bytes,
            });
        }
        // Link serialization: back-to-back messages to the same
        // destination queue behind each other's *transfer* (beta) term,
        // so splitting a panel into T tiles cannot buy wire-level
        // parallelism — the last tile of a tiled burst becomes available
        // no earlier than one monolithic message would have (the alpha
        // terms of consecutive tiles do overlap, as they would under
        // MPI's pipelined rendezvous).
        let inject = self.clock.max(self.link_busy[dest]);
        let env = Envelope {
            tag,
            bytes,
            avail_at: inject + self.model.msg_time(bytes),
            payload: Box::new(value),
        };
        self.link_busy[dest] = inject + self.model.per_byte_s * bytes as f64;
        self.senders[dest]
            .send(env)
            .unwrap_or_else(|_| panic!("rank {}: send to terminated rank {dest}", self.rank));
    }

    /// Shared completion path for [`CommBackend::recv_wait`].
    pub(crate) fn complete_irecv(&mut self, req: &RecvRequest, out: bt_dense::MatMut<'_>) {
        let start = self.clock;
        let env = self.wait_for(req.src, req.tag);
        self.stats.msgs_recv += 1;
        self.stats.bytes_recv += env.bytes;
        self.stats.nb_recvs += 1;
        self.clock = self.clock.max(env.avail_at);
        let blocked = self.clock - start;
        // Time the message spent in flight after the post; the part not
        // spent blocked here was hidden behind compute.
        let in_flight = (env.avail_at - req.posted_at).max(0.0);
        let hidden = (in_flight - blocked).max(0.0);
        self.inflight_s += in_flight;
        self.overlap_s += hidden;
        self.stats.overlap_ns += (hidden * 1e9).round() as u64;
        self.inflight_recvs = self.inflight_recvs.saturating_sub(1);
        if let Some(tr) = &mut self.tracer {
            tr.push(TraceEvent::IrecvWait {
                posted: req.posted_at,
                start,
                wait: blocked,
                src: req.src,
                tag: req.tag,
                bytes: env.bytes,
            });
        }
        let buf: PanelBuf = *env.payload.downcast::<PanelBuf>().unwrap_or_else(|_| {
            panic!(
                "rank {}: type mismatch receiving tag {} from rank {}: expected PanelBuf",
                self.rank, req.tag, req.src
            )
        });
        buf.unpack_into(out);
    }

    /// True when a message matching `(src, tag)` has physically arrived
    /// and is virtually available at the current clock. Drains the
    /// channel into the pending buffer; never blocks, never consumes.
    pub(crate) fn probe(&mut self, src: usize, tag: u64) -> bool {
        let avail = |e: &Envelope, now: f64| e.tag == tag && e.avail_at <= now;
        if self.pending[src].iter().any(|e| avail(e, self.clock)) {
            return true;
        }
        while let Ok(env) = self.receivers[src].try_recv() {
            let hit = avail(&env, self.clock);
            self.pending[src].push_back(env);
            if hit {
                return true;
            }
        }
        false
    }

    pub(crate) fn recv_internal<T: Payload>(&mut self, src: usize, tag: u64) -> T {
        assert!(
            src < self.size,
            "recv from rank {src} in a world of size {}",
            self.size
        );
        let posted_at = self.clock;
        let env = self.wait_for(src, tag);
        self.stats.msgs_recv += 1;
        self.stats.bytes_recv += env.bytes;
        // Receiver cannot proceed before the message is (virtually) there.
        self.clock = self.clock.max(env.avail_at);
        if let Some(tr) = &mut self.tracer {
            tr.push(TraceEvent::Recv {
                start: posted_at,
                wait: self.clock - posted_at,
                src,
                tag,
                bytes: env.bytes,
            });
        }
        *env.payload.downcast::<T>().unwrap_or_else(|_| {
            panic!(
                "rank {}: type mismatch receiving tag {tag} from rank {src}: expected {}",
                self.rank,
                std::any::type_name::<T>()
            )
        })
    }

    fn wait_for(&mut self, src: usize, tag: u64) -> Envelope {
        if let Some(pos) = self.pending[src].iter().position(|e| e.tag == tag) {
            return self.pending[src].remove(pos).expect("position just found");
        }
        loop {
            let env = self.receivers[src].recv().unwrap_or_else(|_| {
                panic!(
                    "rank {}: rank {src} terminated before sending tag {tag}",
                    self.rank
                )
            });
            if env.tag == tag {
                return env;
            }
            self.pending[src].push_back(env);
        }
    }

    /// Resets per-run state (clock, counters, link occupancy, collective
    /// sequence) so a persistent rank can serve a fresh SPMD program with
    /// the same semantics as a newly built world. The message channels
    /// and the out-of-order buffer are kept: a well-formed program
    /// receives every message it is sent, so both are empty at the
    /// barrier between jobs (see [`crate::runner::SpmdWorld`]).
    pub(crate) fn reset_for_reuse(&mut self) {
        debug_assert!(
            self.pending.iter().all(VecDeque::is_empty),
            "rank {}: undelivered messages left over from the previous job",
            self.rank
        );
        self.stats = RankStats::default();
        self.clock = 0.0;
        self.link_busy.iter_mut().for_each(|t| *t = 0.0);
        self.inflight_recvs = 0;
        self.inflight_s = 0.0;
        self.overlap_s = 0.0;
        self.collective_seq = 0;
        // Traced worlds get a fresh event buffer per job; the runner has
        // already drained the previous job's events. Re-arming from the
        // `traced` flag (rather than clearing to None) is what keeps
        // back-to-back jobs on a persistent world traceable — and the
        // per-job buffer handoff is what lets the runner offset each
        // job's virtual times onto one merged timeline without colliding
        // send->recv flow pairings.
        self.tracer = self.traced.then(Vec::new);
    }
}

impl CommBackend for Comm {
    type SendReq = SendRequest;
    type RecvReq = RecvRequest;

    #[inline]
    fn rank(&self) -> usize {
        self.rank
    }

    #[inline]
    fn size(&self) -> usize {
        self.size
    }

    #[inline]
    fn model(&self) -> CostModel {
        self.model
    }

    #[inline]
    fn stats(&self) -> RankStats {
        self.stats
    }

    #[inline]
    fn virtual_time(&self) -> f64 {
        self.clock
    }

    #[inline]
    fn inflight_seconds(&self) -> f64 {
        self.inflight_s
    }

    #[inline]
    fn overlap_seconds(&self) -> f64 {
        self.overlap_s
    }

    /// Records `flops` floating point operations of local computation,
    /// advancing the virtual clock accordingly.
    fn compute(&mut self, flops: u64) {
        self.stats.flops += flops;
        let dur = self.model.compute_time(flops);
        if let Some(tr) = &mut self.tracer {
            tr.push(TraceEvent::Compute {
                start: self.clock,
                dur,
                flops,
            });
        }
        self.clock += dur;
    }

    /// Advances the virtual clock by `seconds` without counting flops.
    fn advance_time(&mut self, seconds: f64) {
        assert!(seconds >= 0.0, "cannot rewind the clock");
        self.clock += seconds;
    }

    fn send_raw<T: Payload>(&mut self, dest: usize, tag: u64, value: T) {
        self.send_internal(dest, tag, value);
    }

    fn recv_raw<T: Payload>(&mut self, src: usize, tag: u64) -> T {
        self.recv_internal(src, tag)
    }

    fn next_collective_tag(&mut self) -> u64 {
        let tag = USER_TAG_LIMIT + self.collective_seq;
        self.collective_seq += 1;
        tag
    }

    /// Nonblocking panel send. Identical wire behaviour to
    /// [`CommBackend::send_panel`] — sends are buffered-eager, so the
    /// payload is packed (into a pooled [`PanelBuf`]) and queued
    /// immediately and the returned request is already complete. The
    /// handle exists for MPI-call symmetry; the crossed-isend deadlock
    /// freedom MPI only *allows* is guaranteed here.
    fn isend_panel(&mut self, dest: usize, tag: u64, panel: bt_dense::MatRef<'_>) -> SendRequest {
        self.send_panel(dest, tag, panel);
        SendRequest { _private: () }
    }

    /// Posting does not advance the clock; the virtual-time charge at
    /// completion is `max(now, avail_at)`, so message transfer time that
    /// elapsed under compute issued between post and wait is charged as
    /// `max(compute, comm)` rather than `compute + comm`.
    fn irecv_panel_into(&mut self, src: usize, tag: u64, out: bt_dense::Mat) -> RecvRequest {
        assert!(
            tag < USER_TAG_LIMIT,
            "tag {tag} is reserved for collectives"
        );
        assert!(
            src < self.size,
            "irecv from rank {src} in a world of size {}",
            self.size
        );
        self.inflight_recvs += 1;
        if bt_obs::enabled() {
            OBS_INFLIGHT_DEPTH.record(self.inflight_recvs as u64);
        }
        if let Some(tr) = &mut self.tracer {
            tr.push(TraceEvent::IrecvPost {
                at: self.clock,
                src,
                tag,
            });
        }
        RecvRequest {
            src,
            tag,
            posted_at: self.clock,
            out: Some(out),
        }
    }

    /// Always true: buffered sends complete at post time.
    fn send_test(&mut self, _req: &SendRequest) -> bool {
        true
    }

    /// Completes the (already complete) send.
    fn send_wait(&mut self, _req: SendRequest) {}

    /// True when the matching message has physically arrived **and** is
    /// virtually available (`avail_at <= virtual_time()`). Does not
    /// advance the clock or consume the message.
    ///
    /// Note the physical-arrival half makes a bare `while !test {}` spin
    /// nondeterministic (and, under virtual time, potentially endless:
    /// the clock only advances through compute/wait). Use it to
    /// opportunistically drain, not to synchronize.
    fn recv_test(&mut self, req: &RecvRequest) -> bool {
        self.probe(req.src, req.tag)
    }

    fn recv_wait(&mut self, mut req: RecvRequest) -> bt_dense::Mat {
        let mut out = req.out.take().expect("request not yet waited");
        self.complete_irecv(&req, out.as_mut());
        out
    }
}
