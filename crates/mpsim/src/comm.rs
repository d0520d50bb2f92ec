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

use bt_comm::{CommBackend, CostModel, Payload, RankStats, USER_TAG_LIMIT};
use crossbeam::channel::{Receiver, Sender};

use crate::trace::TraceEvent;

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
    /// the cost model — see [`CostModel`]).
    link_busy: Vec<f64>,
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
        self.senders[dest]
            .send(env)
            .unwrap_or_else(|_| panic!("rank {}: send to terminated rank {dest}", self.rank));
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
}
