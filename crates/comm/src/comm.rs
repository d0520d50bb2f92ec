//! Rank-local communicator: point-to-point messaging, counters, clocks.
//!
//! A [`Comm`] is handed to each rank of an SPMD program (see
//! [`crate::runner::run_spmd`]). It is the one implementation of
//! [`CommBackend`]; semantics mirror a minimal MPI subset:
//!
//! * [`CommBackend::send`] is non-blocking (buffered, like `MPI_Isend` +
//!   eager protocol): the envelope goes onto the unbounded
//!   [`crate::spsc`] channel to the destination and the call returns. A
//!   push cannot fail, so a send never notices a dead destination; a
//!   rank that terminated is detected by the peer that waits to
//!   *receive* from it.
//! * [`CommBackend::recv`] blocks until a message with the requested
//!   `(source, tag)` arrives; messages with other tags from the same
//!   source are buffered and delivered to later matching `recv`s, so
//!   out-of-order tag matching behaves like MPI.
//! * Every send/recv updates the rank's [`RankStats`] and its modeled
//!   clock per the [`CostModel`].
//!
//! ## Two clocks
//!
//! The modeled clock always runs. It reads only this rank's compute and
//! advance charges, its outgoing link occupancy and the modeled arrival
//! time every envelope carries — never how long the bytes actually took
//! to move — so it is the same on any transport and any host load. A
//! world's clock decides only what [`CommBackend::virtual_time`] reports:
//! the modeled clock, or wall seconds since the job started.
//!
//! Misuse (type mismatch between `send` and `recv`, rank out of range,
//! receiving from a rank that panicked) panics with a descriptive
//! message — these are programming errors in the SPMD program, not
//! recoverable conditions.

use std::any::Any;
use std::collections::VecDeque;
use std::time::Instant;

use crate::backend::{CommBackend, USER_TAG_LIMIT};
use crate::model::CostModel;
use crate::payload::Payload;
use crate::spsc::{SpscReceiver, SpscSender};
use crate::stats::RankStats;
use crate::trace::TraceEvent;

/// Nanoseconds a blocking receive spent waiting on its SPSC channel.
static OBS_RECV_BLOCK_NS: bt_obs::Histogram = bt_obs::Histogram::new("bt_shm.comm.recv_block_ns");

/// A message in flight.
pub(crate) struct Envelope {
    tag: u64,
    bytes: u64,
    /// Modeled time at which the payload is available at the receiver.
    avail_at: f64,
    payload: Box<dyn Any + Send>,
}

/// What a world's [`CommBackend::virtual_time`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Clock {
    /// The modeled clock.
    Modeled,
    /// Wall seconds since the current job started.
    Wall,
}

/// Per-rank communicator of an SPMD program.
pub struct Comm {
    rank: usize,
    size: usize,
    senders: Vec<SpscSender<Envelope>>,
    receivers: Vec<SpscReceiver<Envelope>>,
    /// Out-of-order buffer, per source rank.
    pending: Vec<VecDeque<Envelope>>,
    stats: RankStats,
    /// Modeled clock (seconds since the job started).
    clock: f64,
    /// Per-destination modeled time until which this rank's outgoing
    /// link is occupied by earlier messages (the serialization term of
    /// the cost model — see [`CostModel`]).
    link_busy: Vec<f64>,
    model: CostModel,
    /// Sequence number ensuring successive collectives use distinct tags.
    collective_seq: u64,
    /// Start of the current job on wall-clock worlds; `None` on worlds
    /// that report the modeled clock.
    epoch: Option<Instant>,
    /// Event recorder (None unless the world was launched traced).
    pub(crate) tracer: Option<Vec<TraceEvent>>,
    /// Whether this world records trace events: [`Comm::start_job`]
    /// re-arms `tracer` from this, so every job on a traced persistent
    /// world gets a fresh event buffer instead of silently going dark.
    traced: bool,
}

impl Comm {
    pub(crate) fn new(
        rank: usize,
        senders: Vec<SpscSender<Envelope>>,
        receivers: Vec<SpscReceiver<Envelope>>,
        model: CostModel,
        clock: Clock,
        traced: bool,
    ) -> Self {
        let size = senders.len();
        Self {
            rank,
            size,
            senders,
            receivers,
            pending: (0..size).map(|_| VecDeque::new()).collect(),
            stats: RankStats::default(),
            clock: 0.0,
            link_busy: vec![0.0; size],
            model,
            collective_seq: 0,
            epoch: (clock == Clock::Wall).then(Instant::now),
            tracer: traced.then(Vec::new),
            traced,
        }
    }

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
            OBS_RECV_BLOCK_NS.record_duration(t0.elapsed());
        }
        env
    }

    /// Resets per-job state (clocks, counters, link occupancy, collective
    /// sequence) so a rank serves a fresh SPMD program with the same
    /// semantics as a newly built world. The message channels and the
    /// out-of-order buffer are kept: a well-formed program receives
    /// every message it is sent, so both are empty between jobs (see
    /// [`crate::runner::SpmdWorld`]).
    pub(crate) fn start_job(&mut self) {
        debug_assert!(
            self.pending.iter().all(VecDeque::is_empty),
            "rank {}: undelivered messages left over from the previous job",
            self.rank
        );
        self.stats = RankStats::default();
        self.clock = 0.0;
        self.link_busy.iter_mut().for_each(|t| *t = 0.0);
        self.collective_seq = 0;
        if let Some(epoch) = &mut self.epoch {
            *epoch = Instant::now();
        }
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

    /// The modeled clock, or wall seconds since the job started on
    /// wall-clock worlds.
    #[inline]
    fn virtual_time(&self) -> f64 {
        match self.epoch {
            Some(epoch) => epoch.elapsed().as_secs_f64(),
            None => self.clock,
        }
    }

    /// Records `flops` floating point operations of local computation,
    /// advancing the modeled clock accordingly.
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

    /// Advances the modeled clock by `seconds` without counting flops.
    fn advance_time(&mut self, seconds: f64) {
        assert!(seconds >= 0.0, "cannot rewind the clock");
        self.clock += seconds;
    }

    fn send_raw<T: Payload>(&mut self, dest: usize, tag: u64, value: T) {
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
        // so T messages cannot buy wire-level parallelism — the last of
        // a burst becomes available no earlier than one combined message
        // would have (the alpha terms of consecutive messages do
        // overlap, as they would under MPI's pipelined rendezvous).
        let inject = self.clock.max(self.link_busy[dest]);
        let env = Envelope {
            tag,
            bytes,
            avail_at: inject + self.model.msg_time(bytes),
            payload: Box::new(value),
        };
        self.link_busy[dest] = inject + self.model.per_byte_s * bytes as f64;
        self.senders[dest].push(env);
    }

    fn recv_raw<T: Payload>(&mut self, src: usize, tag: u64) -> T {
        assert!(
            src < self.size,
            "recv from rank {src} in a world of size {}",
            self.size
        );
        let posted_at = self.clock;
        let env = self.wait_for(src, tag);
        self.stats.msgs_recv += 1;
        self.stats.bytes_recv += env.bytes;
        // Receiver cannot proceed before the message is (modeled) there.
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

    fn next_collective_tag(&mut self) -> u64 {
        let tag = USER_TAG_LIMIT + self.collective_seq;
        self.collective_seq += 1;
        tag
    }
}
