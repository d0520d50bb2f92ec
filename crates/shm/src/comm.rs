//! Wall-clock rank communicator over shared-memory SPSC channels.
//!
//! [`ShmComm`] is the real-parallelism implementation of
//! [`CommBackend`]: the same MPI-flavoured surface as the simulator's
//! `bt_mpsim::Comm`, but messages travel over the lock-free
//! [`crate::spsc`] channels between genuinely concurrent rank threads
//! and every timing observable is measured, not modeled:
//!
//! * [`CommBackend::virtual_time`] is wall-clock seconds since the
//!   world's epoch (job start), so "modeled" aggregates computed from it
//!   are real times.
//! * [`CommBackend::compute`] only counts flops — the dense kernels
//!   already burn the real cycles.
//! * The nonblocking-receive overlap accounting reports real hidden
//!   seconds: time a posted receive spent in flight before this rank
//!   entered its wait.
//!
//! Sends are buffered-eager exactly like the simulator (payload packed
//! at the call, push never blocks), so crossed `isend`s are
//! deadlock-free by construction and the two backends accept the same
//! programs.

use std::any::Any;
use std::collections::VecDeque;
use std::time::Instant;

use bt_comm::{CommBackend, CostModel, PanelBuf, Payload, RankStats, USER_TAG_LIMIT};

use crate::spsc::{SpscReceiver, SpscSender};

/// Nanoseconds a blocking receive spent waiting on its SPSC channel.
static OBS_RECV_WAIT_NS: bt_obs::Histogram = bt_obs::Histogram::new("bt_shm.comm.recv_wait_ns");
/// Depth of the nonblocking-receive queue at each post.
static OBS_INFLIGHT_DEPTH: bt_obs::Histogram = bt_obs::Histogram::new("bt_shm.comm.inflight_depth");
/// Real nanoseconds of in-flight receive time hidden behind compute.
static OBS_OVERLAP_NS: bt_obs::Counter = bt_obs::Counter::new("bt_shm.comm.overlap_ns");

/// A message on the shared-memory wire.
pub(crate) struct Envelope {
    pub tag: u64,
    pub bytes: u64,
    pub payload: Box<dyn Any + Send>,
}

/// Handle for a posted [`CommBackend::isend_panel`]. Shared-memory sends
/// are buffered-eager (packed into a pooled [`PanelBuf`] and enqueued at
/// the call), so the request is complete the moment it exists.
#[derive(Debug)]
#[must_use = "MPI-style requests should be completed with send_wait()"]
pub struct ShmSendRequest {
    pub(crate) _private: (),
}

/// Handle for a posted [`CommBackend::irecv_panel_into`]: owns the
/// destination buffer and the real post instant used for overlap
/// accounting. Dropping one without `recv_wait` panics — an outstanding
/// receive at rank exit is a lost message.
#[derive(Debug)]
#[must_use = "an irecv must be completed with recv_wait() (dropping panics)"]
pub struct ShmRecvRequest {
    pub(crate) src: usize,
    pub(crate) tag: u64,
    /// Wall-clock instant the receive was posted.
    pub(crate) posted_at: Instant,
    /// Destination buffer; `None` once waited.
    pub(crate) out: Option<bt_dense::Mat>,
}

impl Drop for ShmRecvRequest {
    fn drop(&mut self) {
        if self.out.is_some() && !std::thread::panicking() {
            panic!(
                "ShmRecvRequest (src {}, tag {}) dropped without recv_wait()",
                self.src, self.tag
            );
        }
    }
}

/// Per-rank communicator of a shared-memory world.
pub struct ShmComm {
    rank: usize,
    size: usize,
    pub(crate) senders: Vec<SpscSender<Envelope>>,
    pub(crate) receivers: Vec<SpscReceiver<Envelope>>,
    /// Out-of-order buffer, per source rank (same tag-matching contract
    /// as the simulator: non-matching tags are buffered, per-`(src,
    /// tag)` delivery stays FIFO).
    pending: Vec<VecDeque<Envelope>>,
    pub(crate) stats: RankStats,
    /// Epoch of the current job; `virtual_time` is seconds since this.
    pub(crate) epoch: Instant,
    /// Attached cost model — not used to advance any clock, but exposed
    /// so model-consulting call sites (RHS tile auto-selection, modeled
    /// comparisons) see the calibrated machine description.
    model: CostModel,
    inflight_recvs: usize,
    /// Real seconds nonblocking receives spent in flight post→completion.
    inflight_s: f64,
    /// Real seconds of that in-flight time hidden behind compute.
    overlap_s: f64,
    pub(crate) collective_seq: u64,
}

impl ShmComm {
    pub(crate) fn new(
        rank: usize,
        size: usize,
        senders: Vec<SpscSender<Envelope>>,
        receivers: Vec<SpscReceiver<Envelope>>,
        model: CostModel,
    ) -> Self {
        Self {
            rank,
            size,
            senders,
            receivers,
            pending: (0..size).map(|_| VecDeque::new()).collect(),
            stats: RankStats::default(),
            epoch: Instant::now(),
            model,
            inflight_recvs: 0,
            inflight_s: 0.0,
            overlap_s: 0.0,
            collective_seq: 0,
        }
    }

    /// Number of posted-but-not-yet-waited nonblocking receives.
    #[inline]
    pub fn inflight_recvs(&self) -> usize {
        self.inflight_recvs
    }

    fn send_internal<T: Payload>(&mut self, dest: usize, tag: u64, value: T) {
        assert!(
            dest < self.size,
            "send to rank {dest} in a world of size {}",
            self.size
        );
        let bytes = value.byte_size();
        self.stats.msgs_sent += 1;
        self.stats.bytes_sent += bytes;
        self.senders[dest].push(Envelope {
            tag,
            bytes,
            payload: Box::new(value),
        });
    }

    /// Blocks until a message matching `(src, tag)` arrives, honouring
    /// the out-of-order buffer. Records the real wait in the
    /// `bt_shm.comm.recv_wait_ns` histogram.
    fn wait_for(&mut self, src: usize, tag: u64) -> Envelope {
        if let Some(pos) = self.pending[src].iter().position(|e| e.tag == tag) {
            return self.pending[src].remove(pos).expect("position just found");
        }
        let t0 = bt_obs::enabled().then(Instant::now);
        let env = loop {
            let env = self.receivers[src].pop_blocking().unwrap_or_else(|_| {
                panic!(
                    "rank {}: rank {src} terminated before sending tag {tag}",
                    self.rank
                )
            });
            if env.tag == tag {
                break env;
            }
            self.pending[src].push_back(env);
        };
        if let Some(t0) = t0 {
            OBS_RECV_WAIT_NS.record_duration(t0.elapsed());
        }
        env
    }

    /// True when a matching message has already arrived (drains the
    /// channel into the pending buffer; never blocks, never consumes).
    fn probe(&mut self, src: usize, tag: u64) -> bool {
        if self.pending[src].iter().any(|e| e.tag == tag) {
            return true;
        }
        while let Ok(Some(env)) = self.receivers[src].try_pop() {
            let hit = env.tag == tag;
            self.pending[src].push_back(env);
            if hit {
                return true;
            }
        }
        false
    }

    /// Resets per-job state so a persistent rank serves a fresh program
    /// with fresh counters and a fresh epoch (see [`crate::ShmWorld`]).
    pub(crate) fn reset_for_reuse(&mut self) {
        debug_assert!(
            self.pending.iter().all(VecDeque::is_empty),
            "rank {}: undelivered messages left over from the previous job",
            self.rank
        );
        self.stats = RankStats::default();
        self.epoch = Instant::now();
        self.inflight_recvs = 0;
        self.inflight_s = 0.0;
        self.overlap_s = 0.0;
        self.collective_seq = 0;
    }
}

impl CommBackend for ShmComm {
    type SendReq = ShmSendRequest;
    type RecvReq = ShmRecvRequest;

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

    /// Real seconds since the job epoch.
    #[inline]
    fn virtual_time(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    #[inline]
    fn inflight_seconds(&self) -> f64 {
        self.inflight_s
    }

    #[inline]
    fn overlap_seconds(&self) -> f64 {
        self.overlap_s
    }

    /// Counts `flops`; no clock to advance — the kernels that reported
    /// them already spent the real time.
    fn compute(&mut self, flops: u64) {
        self.stats.flops += flops;
    }

    /// No-op beyond the sign check: wall time cannot be steered.
    fn advance_time(&mut self, seconds: f64) {
        assert!(seconds >= 0.0, "cannot rewind the clock");
    }

    fn send_raw<T: Payload>(&mut self, dest: usize, tag: u64, value: T) {
        self.send_internal(dest, tag, value);
    }

    fn recv_raw<T: Payload>(&mut self, src: usize, tag: u64) -> T {
        assert!(
            src < self.size,
            "recv from rank {src} in a world of size {}",
            self.size
        );
        let env = self.wait_for(src, tag);
        self.stats.msgs_recv += 1;
        self.stats.bytes_recv += env.bytes;
        *env.payload.downcast::<T>().unwrap_or_else(|_| {
            panic!(
                "rank {}: type mismatch receiving tag {tag} from rank {src}: expected {}",
                self.rank,
                std::any::type_name::<T>()
            )
        })
    }

    fn next_collective_tag(&mut self) -> u64 {
        let tag = USER_TAG_LIMIT + self.collective_seq;
        self.collective_seq += 1;
        tag
    }

    /// Nonblocking panel send: packed into a pooled [`PanelBuf`] and
    /// enqueued immediately, so the returned request is already complete
    /// (the unbounded channel is the eager buffer).
    fn isend_panel(
        &mut self,
        dest: usize,
        tag: u64,
        panel: bt_dense::MatRef<'_>,
    ) -> ShmSendRequest {
        self.send_panel(dest, tag, panel);
        ShmSendRequest { _private: () }
    }

    fn irecv_panel_into(&mut self, src: usize, tag: u64, out: bt_dense::Mat) -> ShmRecvRequest {
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
        ShmRecvRequest {
            src,
            tag,
            posted_at: Instant::now(),
            out: Some(out),
        }
    }

    /// Always true: eager sends complete at post time.
    fn send_test(&mut self, _req: &ShmSendRequest) -> bool {
        true
    }

    /// Completes the (already complete) send.
    fn send_wait(&mut self, _req: ShmSendRequest) {}

    /// True when the matching message has physically arrived. Never
    /// blocks, never consumes.
    fn recv_test(&mut self, req: &ShmRecvRequest) -> bool {
        self.probe(req.src, req.tag)
    }

    fn recv_wait(&mut self, mut req: ShmRecvRequest) -> bt_dense::Mat {
        let mut out = req.out.take().expect("request not yet waited");
        let wait_start = Instant::now();
        let env = self.wait_for(req.src, req.tag);
        let done = Instant::now();
        self.stats.msgs_recv += 1;
        self.stats.bytes_recv += env.bytes;
        self.stats.nb_recvs += 1;
        // Real overlap accounting: of the post→completion interval, the
        // part not spent blocked right here was hidden behind whatever
        // this rank computed in between.
        let in_flight = done.duration_since(req.posted_at).as_secs_f64();
        let blocked = done.duration_since(wait_start).as_secs_f64();
        let hidden = (in_flight - blocked).max(0.0);
        self.inflight_s += in_flight;
        self.overlap_s += hidden;
        let hidden_ns = (hidden * 1e9).round() as u64;
        self.stats.overlap_ns += hidden_ns;
        if bt_obs::enabled() {
            OBS_OVERLAP_NS.add(hidden_ns);
        }
        self.inflight_recvs = self.inflight_recvs.saturating_sub(1);
        let buf: PanelBuf = *env.payload.downcast::<PanelBuf>().unwrap_or_else(|_| {
            panic!(
                "rank {}: type mismatch receiving tag {} from rank {}: expected PanelBuf",
                self.rank, req.tag, req.src
            )
        });
        buf.unpack_into(out.as_mut());
        out
    }
}
