//! Per-rank and aggregated communication/computation counters.
//!
//! These drive the communication-volume experiment (Figure 6) and the
//! complexity-model validation (Table I): the algorithms' analytic word
//! and flop counts are checked against these measured values.

/// Counters accumulated by a single rank over one SPMD run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RankStats {
    /// Point-to-point messages sent.
    pub msgs_sent: u64,
    /// Payload bytes sent.
    pub bytes_sent: u64,
    /// Point-to-point messages received.
    pub msgs_recv: u64,
    /// Payload bytes received.
    pub bytes_recv: u64,
    /// Floating point operations reported via `Comm::compute`.
    pub flops: u64,
}

impl RankStats {
    /// Element-wise sum of two counter sets.
    pub fn merged(self, other: RankStats) -> RankStats {
        RankStats {
            msgs_sent: self.msgs_sent + other.msgs_sent,
            bytes_sent: self.bytes_sent + other.bytes_sent,
            msgs_recv: self.msgs_recv + other.msgs_recv,
            bytes_recv: self.bytes_recv + other.bytes_recv,
            flops: self.flops + other.flops,
        }
    }
}

/// Aggregated view over all ranks of a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorldStats {
    /// One entry per rank, index = rank id.
    pub per_rank: Vec<RankStats>,
}

impl WorldStats {
    /// Total counters across ranks.
    pub fn total(&self) -> RankStats {
        self.per_rank
            .iter()
            .copied()
            .fold(RankStats::default(), RankStats::merged)
    }

    /// Maximum bytes sent by any single rank (critical-path proxy).
    pub fn max_bytes_sent(&self) -> u64 {
        self.per_rank
            .iter()
            .map(|r| r.bytes_sent)
            .max()
            .unwrap_or(0)
    }

    /// Maximum flops performed by any single rank.
    pub fn max_flops(&self) -> u64 {
        self.per_rank.iter().map(|r| r.flops).max().unwrap_or(0)
    }

    /// Sanity invariant: every sent message was received.
    pub fn is_balanced(&self) -> bool {
        let t = self.total();
        t.msgs_sent == t.msgs_recv && t.bytes_sent == t.bytes_recv
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rs(s: u64, bs: u64, r: u64, br: u64, f: u64) -> RankStats {
        RankStats {
            msgs_sent: s,
            bytes_sent: bs,
            msgs_recv: r,
            bytes_recv: br,
            flops: f,
        }
    }

    #[test]
    fn merged_adds_fields() {
        let a = rs(1, 10, 2, 20, 100);
        let b = rs(3, 30, 4, 40, 200);
        assert_eq!(a.merged(b), rs(4, 40, 6, 60, 300));
    }

    #[test]
    fn world_total_and_maxima() {
        let w = WorldStats {
            per_rank: vec![rs(1, 10, 0, 0, 5), rs(0, 0, 1, 10, 9)],
        };
        assert_eq!(w.total(), rs(1, 10, 1, 10, 14));
        assert_eq!(w.max_bytes_sent(), 10);
        assert_eq!(w.max_flops(), 9);
        assert!(w.is_balanced());
    }

    #[test]
    fn unbalanced_detected() {
        let w = WorldStats {
            per_rank: vec![rs(1, 10, 0, 0, 0)],
        };
        assert!(!w.is_balanced());
    }

    #[test]
    fn empty_world() {
        let w = WorldStats::default();
        assert_eq!(w.total(), RankStats::default());
        assert_eq!(w.max_bytes_sent(), 0);
        assert!(w.is_balanced());
    }
}
