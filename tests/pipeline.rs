//! Message pattern of the replay solve's cross-rank scans.
//!
//! Each scan round of a replay sends exactly one `M x R` panel
//! (DESIGN.md §6.9), so the number of messages a replay sends does not
//! depend on the batch width `R`, and its bytes are exactly `R` times
//! those of a one-column replay. A zero-width batch still takes part in
//! every round with one empty panel.
//!
//! A two-rank crossed-send test guards the panel transport's
//! deadlock-freedom: both ranks send before either receives, which is
//! what every scan's exclusive-shift `exchange_panel` relies on.

use block_tridiag_suite::ard::state::{ArdRankFactors, RankSystem, ReplayFactors};
use block_tridiag_suite::blocktri::gen::{rhs_panel, ClusteredToeplitz};
use block_tridiag_suite::blocktri::BlockRowSource;
use block_tridiag_suite::dense::Mat;
use block_tridiag_suite::mpsim::{run_spmd, CommBackend, CostModel};

/// Messages and bytes the replay solve alone (not the setup) sends,
/// summed over the ranks of a `p`-rank simulator world.
fn replay_traffic(src: &ClusteredToeplitz, p: usize, r: usize) -> (u64, u64) {
    let m = src.m();
    let out = run_spmd(p, CostModel::cluster(), |comm| {
        let sys = RankSystem::from_source(src, p, comm.rank());
        let factors = ArdRankFactors::setup(comm, &sys, true).expect("setup");
        let mut x: Vec<Mat> = (sys.lo..sys.hi).map(|i| rhs_panel(m, r, 7, i)).collect();
        let before = comm.stats();
        factors.solve_in_place(comm, &mut x);
        let after = comm.stats();
        (
            after.msgs_sent - before.msgs_sent,
            after.bytes_sent - before.bytes_sent,
        )
    });
    assert!(out.stats.is_balanced());
    out.results
        .iter()
        .fold((0, 0), |(msgs, bytes), (dm, db)| (msgs + dm, bytes + db))
}

#[test]
fn replay_sends_one_panel_per_scan_round() {
    let m = 8;
    for p in [2, 3, 4, 7] {
        let src = ClusteredToeplitz::standard(4 * p, m, 11);
        let (msgs_1, bytes_1) = replay_traffic(&src, p, 1);
        assert!(msgs_1 > 0, "p={p}: the replay sent nothing");
        assert_eq!(
            bytes_1,
            msgs_1 * (m * 8) as u64,
            "p={p}: one column per panel"
        );
        for r in [0usize, 1, 17, 64, 300] {
            let (msgs, bytes) = replay_traffic(&src, p, r);
            assert_eq!(msgs, msgs_1, "p={p} r={r}: message count depends on R");
            assert_eq!(
                bytes,
                r as u64 * bytes_1,
                "p={p} r={r}: bytes are not R panels"
            );
        }
    }
}

/// Deadlock regression for the panel transport: two ranks send to each
/// other before either receives. Eager buffered sends mean neither
/// blocks; a synchronous send ordered naively would hang here.
#[test]
fn crossed_sends_between_two_ranks_complete() {
    let m = 4;
    let out = run_spmd(2, CostModel::cluster(), |comm| {
        let me = comm.rank();
        let peer = 1 - me;
        let mine = Mat::from_fn(m, m, |i, j| (me * 100 + i * m + j) as f64);
        comm.send_panel(peer, 3, mine.as_ref());
        let mut got = Mat::zeros(m, m);
        comm.recv_panel_into(peer, 3, got.as_mut());
        let want = Mat::from_fn(m, m, |i, j| (peer * 100 + i * m + j) as f64);
        assert_eq!(got, want);
        comm.stats().msgs_recv
    });
    assert_eq!(out.results, vec![1, 1]);
}
