//! Deadlock and ordering stress for the runtime's SPSC transport:
//! crossed panel sends (both sides send before either receives, as every
//! scan's `exchange_panel` does), all-pairs exchanges, and FIFO ordering
//! under sustained pressure — on real threads, where a genuine deadlock
//! hangs the test rather than merely mis-modeling time.

use bt_comm::{CommBackend, CostModel};
use bt_dense::Mat;
use bt_shm::{ShmBackend, SpmdBackend};

const ZERO: CostModel = CostModel {
    latency_s: 0.0,
    per_byte_s: 0.0,
    flop_rate: f64::INFINITY,
    threads_per_rank: 1,
};

/// Both ranks send before either receives — the pattern that deadlocks
/// under synchronous (rendezvous) sends. The unbounded SPSC wire makes
/// every send eager, so this must complete regardless of scheduling;
/// repeated to give the thread scheduler chances to interleave badly.
#[test]
fn crossed_sends_do_not_deadlock() {
    let out = ShmBackend::run(2, ZERO, |comm| {
        let peer = 1 - comm.rank();
        let mut ok = 0usize;
        for round in 0..200 {
            let mine = Mat::from_fn(4, 4, |i, j| (comm.rank() * 100 + round + i * 4 + j) as f64);
            comm.send_panel(peer, 2, mine.as_ref());
            let mut got = Mat::zeros(4, 4);
            comm.recv_panel_into(peer, 2, got.as_mut());
            let want = Mat::from_fn(4, 4, |i, j| (peer * 100 + round + i * 4 + j) as f64);
            assert_eq!(got, want, "round {round}");
            ok += 1;
        }
        ok
    });
    assert_eq!(out.results, vec![200, 200]);
    assert!(out.stats.is_balanced());
}

/// Every rank sends to every other rank before receiving anything: the
/// worst case for buffered-eager semantics (P-1 crossed sends per rank,
/// all in flight at once).
#[test]
fn all_pairs_crossed_sends_complete() {
    let p = 8;
    let out = ShmBackend::run(p, ZERO, move |comm| {
        let me = comm.rank();
        let panel = Mat::from_fn(3, 3, |i, j| (me * 9 + i * 3 + j) as f64);
        for dst in (0..p).filter(|&dst| dst != me) {
            comm.send_panel(dst, 7, panel.as_ref());
        }
        let mut got = Mat::zeros(3, 3);
        let mut sum = 0.0;
        for src in (0..p).filter(|&src| src != me) {
            comm.recv_panel_into(src, 7, got.as_mut());
            sum += got.col(0)[0];
        }
        sum
    });
    // Each rank receives panel[0,0] = src * 9 from every other rank.
    for (rank, &got) in out.results.iter().enumerate() {
        let want: f64 = (0..p).filter(|&s| s != rank).map(|s| (s * 9) as f64).sum();
        assert_eq!(got, want, "rank {rank}");
    }
    assert!(out.stats.is_balanced());
}

/// Same-tag messages on one (src, dst) edge must arrive in send order
/// even when the receiver falls far behind (the unbounded queue absorbs
/// the burst, then drains FIFO).
#[test]
fn message_order_holds_under_pressure() {
    let out = ShmBackend::run(2, ZERO, |comm| {
        if comm.rank() == 0 {
            for i in 0..1000u64 {
                comm.send(1, 5, i);
            }
            0
        } else {
            let mut last = None;
            for _ in 0..1000 {
                let v: u64 = comm.recv(0, 5);
                if let Some(prev) = last {
                    assert!(v == prev + 1, "out of order: {prev} then {v}");
                }
                last = Some(v);
            }
            last.unwrap()
        }
    });
    assert_eq!(out.results[1], 999);
}
