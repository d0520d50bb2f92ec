//! Communication/computation cost model for the virtual-time engine.
//!
//! The runtime tracks, per rank, a virtual clock advanced by two rules:
//!
//! * local computation of `f` flops costs `f / flop_rate` seconds;
//! * a message of `b` bytes injected at sender-time `t_i` becomes
//!   available to the receiver at `t_i + alpha + beta * b` (the classic
//!   latency/bandwidth "alpha-beta" model, the simplification of LogGP
//!   used throughout the parallel algorithms literature — including the
//!   complexity analysis reproduced here).
//!
//! A receive charges the receiver `max(clock, avail_at)`. One refinement
//! covers back-to-back traffic: a sender's injections toward one
//! destination serialize on the outgoing link. The injection time of a
//! message is `max(clock, link_busy[dest])` and the link stays busy for
//! `beta * b` after it. Alpha overlaps with the predecessor's transfer
//! (pipelined-rendezvous semantics), so `T` back-to-back messages
//! deliver their last byte exactly when one combined message would.
//!
//! The modeled parallel runtime of an SPMD program is the maximum final
//! clock over all ranks. This lets the suite explore processor counts far
//! beyond the physical cores of the host (DESIGN.md §3) while the *same
//! program* also runs under real wall-clock timing.

/// Alpha-beta communication and flop-rate computation model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Per-message latency in seconds (`alpha`).
    pub latency_s: f64,
    /// Per-byte transfer time in seconds (`beta`, inverse bandwidth).
    pub per_byte_s: f64,
    /// Local computation rate in flop/s **per thread**.
    pub flop_rate: f64,
    /// Threads the model assumes each rank spreads its compute over: a
    /// cost-model parameter only. Modeled compute time divides by it
    /// (perfect intra-rank scaling); the exact flop/byte *counters* are
    /// unaffected, so Table I validation is thread-count independent.
    /// No kernel reads it: a rank's kernels run on the rank's own thread.
    pub threads_per_rank: usize,
}

impl CostModel {
    /// A model loosely calibrated to a commodity cluster: 2 microsecond
    /// latency, 5 GB/s effective bandwidth, 5 Gflop/s per-core DGEMM rate.
    pub const fn cluster() -> Self {
        Self {
            latency_s: 2.0e-6,
            per_byte_s: 2.0e-10,
            flop_rate: 5.0e9,
            threads_per_rank: 1,
        }
    }

    /// A model for a high-end interconnect (Cray-class: ~1 us latency,
    /// 10 GB/s, 10 Gflop/s) — the regime of the paper's testbed.
    pub const fn hpc() -> Self {
        Self {
            latency_s: 1.0e-6,
            per_byte_s: 1.0e-10,
            flop_rate: 1.0e10,
            threads_per_rank: 1,
        }
    }

    /// A free model: communication and computation cost nothing. Useful
    /// when only the counters (bytes/messages/flops) matter.
    pub const fn zero() -> Self {
        Self {
            latency_s: 0.0,
            per_byte_s: 0.0,
            flop_rate: f64::INFINITY,
            threads_per_rank: 1,
        }
    }

    /// Copy of `self` with the modeled `threads_per_rank`.
    pub const fn with_threads_per_rank(mut self, threads: usize) -> Self {
        self.threads_per_rank = threads;
        self
    }

    /// Time for a message of `bytes` bytes.
    #[inline]
    pub fn msg_time(&self, bytes: u64) -> f64 {
        self.latency_s + self.per_byte_s * bytes as f64
    }

    /// Time for `flops` floating point operations, spread over the
    /// modeled `threads_per_rank`. A zero `threads_per_rank` is treated
    /// as 1 so a field-defaulted model cannot produce infinite times.
    #[inline]
    pub fn compute_time(&self, flops: u64) -> f64 {
        flops as f64 / self.flop_rate / self.threads_per_rank.max(1) as f64
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::cluster()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn msg_time_combines_latency_and_bandwidth() {
        let m = CostModel {
            latency_s: 1.0,
            per_byte_s: 0.5,
            flop_rate: 1.0,
            threads_per_rank: 1,
        };
        assert_eq!(m.msg_time(0), 1.0);
        assert_eq!(m.msg_time(4), 3.0);
    }

    #[test]
    fn compute_time_scales_with_flops() {
        let m = CostModel {
            latency_s: 0.0,
            per_byte_s: 0.0,
            flop_rate: 2.0,
            threads_per_rank: 1,
        };
        assert_eq!(m.compute_time(10), 5.0);
    }

    #[test]
    fn zero_model_costs_nothing() {
        let m = CostModel::zero();
        assert_eq!(m.msg_time(1 << 20), 0.0);
        assert_eq!(m.compute_time(u64::MAX), 0.0);
    }

    #[test]
    fn compute_time_divides_by_threads() {
        let m = CostModel::cluster();
        let m4 = m.with_threads_per_rank(4);
        assert_eq!(m.compute_time(1000) / 4.0, m4.compute_time(1000));
        // Message time is unaffected by the intra-rank thread count.
        assert_eq!(m.msg_time(4096), m4.msg_time(4096));
        // threads_per_rank == 0 is clamped, not infinite/NaN.
        let m0 = m.with_threads_per_rank(0);
        assert_eq!(m0.compute_time(1000), m.compute_time(1000));
    }

    #[test]
    fn presets_are_ordered_sensibly() {
        assert!(CostModel::hpc().latency_s < CostModel::cluster().latency_s);
        assert!(CostModel::hpc().flop_rate > CostModel::cluster().flop_rate);
    }
}
