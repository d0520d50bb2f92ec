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
//!
//! Sends are buffered-eager exactly like the simulator (payload packed
//! at the call, push never blocks), so crossed sends are deadlock-free
//! by construction and the two backends accept the same programs.

use std::any::Any;
use std::collections::VecDeque;
use std::time::Instant;

use bt_comm::{CommBackend, CostModel, Payload, RankStats, USER_TAG_LIMIT};

use crate::spsc::{SpscReceiver, SpscSender};

/// Nanoseconds a blocking receive spent waiting on its SPSC channel.
static OBS_RECV_BLOCK_NS: bt_obs::Histogram = bt_obs::Histogram::new("bt_shm.comm.recv_block_ns");

/// A message on the shared-memory wire.
pub(crate) struct Envelope {
    pub tag: u64,
    pub bytes: u64,
    pub payload: Box<dyn Any + Send>,
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
    /// so model-consulting call sites (modeled comparisons) see the
    /// calibrated machine description.
    model: CostModel,
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
            collective_seq: 0,
        }
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
    /// `bt_shm.comm.recv_block_ns` histogram.
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
        self.collective_seq = 0;
    }
}

impl CommBackend for ShmComm {
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
}
