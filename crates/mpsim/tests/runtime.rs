//! Integration tests for the SPMD runtime: point-to-point semantics,
//! every collective, counters, and the virtual-time model.

use bt_dense::Mat;
use bt_mpsim::{run_spmd, CommBackend, CostModel, RankStats};

const M: CostModel = CostModel {
    latency_s: 0.0,
    per_byte_s: 0.0,
    flop_rate: f64::INFINITY,
    threads_per_rank: 1,
};

#[test]
fn rank_threads_stamped_from_model() {
    // run_spmd must hand the model's intra-rank thread budget to
    // bt_dense::threading on every rank thread.
    let out = run_spmd(3, M.with_threads_per_rank(4), |_comm| {
        bt_dense::current_threads()
    });
    assert_eq!(out.results, vec![4, 4, 4]);
    // Budget 0 is clamped to 1, never inherited from the environment.
    let out = run_spmd(2, M.with_threads_per_rank(0), |_comm| {
        bt_dense::current_threads()
    });
    assert_eq!(out.results, vec![1, 1]);
}

#[test]
fn single_rank_world() {
    let out = run_spmd(1, M, |comm| {
        assert_eq!(comm.rank(), 0);
        assert_eq!(comm.size(), 1);
        comm.barrier();
        comm.allreduce(5u64, |a, b| a + b)
    });
    assert_eq!(out.results, vec![5]);
}

#[test]
fn ring_send_recv() {
    for p in [2, 3, 5, 8] {
        let out = run_spmd(p, M, move |comm| {
            let next = (comm.rank() + 1) % comm.size();
            let prev = (comm.rank() + comm.size() - 1) % comm.size();
            comm.send(next, 7, comm.rank() as u64);
            comm.recv::<u64>(prev, 7)
        });
        for (r, v) in out.results.iter().enumerate() {
            assert_eq!(*v as usize, (r + p - 1) % p);
        }
        assert!(out.stats.is_balanced());
        assert_eq!(out.stats.total().msgs_sent, p as u64);
    }
}

#[test]
fn out_of_order_tags_are_buffered() {
    let out = run_spmd(2, M, |comm| {
        if comm.rank() == 0 {
            comm.send(1, 1, 10.0f64);
            comm.send(1, 2, 20.0f64);
            comm.send(1, 3, 30.0f64);
            0.0
        } else {
            // Receive in reverse order of sending.
            let a = comm.recv::<f64>(0, 3);
            let b = comm.recv::<f64>(0, 2);
            let c = comm.recv::<f64>(0, 1);
            a * 100.0 + b * 10.0 + c
        }
    });
    assert_eq!(out.results[1], 30.0 * 100.0 + 20.0 * 10.0 + 10.0);
}

#[test]
fn self_send_works() {
    let out = run_spmd(3, M, |comm| {
        comm.send(comm.rank(), 4, comm.rank() as u64 * 2);
        comm.recv::<u64>(comm.rank(), 4)
    });
    assert_eq!(out.results, vec![0, 2, 4]);
}

#[test]
fn sendrecv_exchanges_with_peer() {
    let out = run_spmd(4, M, |comm| {
        let peer = comm.rank() ^ 1;
        comm.sendrecv(peer, 9, comm.rank() as u64)
    });
    assert_eq!(out.results, vec![1, 0, 3, 2]);
}

#[test]
fn matrices_travel_between_ranks() {
    let out = run_spmd(2, M, |comm| {
        if comm.rank() == 0 {
            comm.send(1, 5, Mat::identity(4));
            Mat::zeros(1, 1)
        } else {
            comm.recv::<Mat>(0, 5)
        }
    });
    assert_eq!(out.results[1], Mat::identity(4));
    // 4x4 f64 = 128 bytes on the wire.
    assert_eq!(out.stats.per_rank[0].bytes_sent, 128);
}

#[test]
fn broadcast_from_every_root() {
    for p in [1, 2, 3, 4, 7, 8, 13] {
        for root in [0, p / 2, p - 1] {
            let out = run_spmd(p, M, move |comm| {
                let v = if comm.rank() == root {
                    Some(42u64 + root as u64)
                } else {
                    None
                };
                comm.broadcast(root, v)
            });
            assert!(
                out.results.iter().all(|&v| v == 42 + root as u64),
                "p={p} root={root}"
            );
        }
    }
}

#[test]
fn reduce_noncommutative_rank_order() {
    // Combine with string concatenation: order-sensitive.
    for p in [1, 2, 3, 5, 8, 9] {
        let out = run_spmd(p, M, move |comm| {
            comm.reduce(0, format!("{}.", comm.rank()), |a, b| format!("{a}{b}"))
        });
        let expect: String = (0..p).map(|r| format!("{r}.")).collect();
        assert_eq!(out.results[0].as_deref(), Some(expect.as_str()), "p={p}");
        for r in 1..p {
            assert!(out.results[r].is_none());
        }
    }
}

#[test]
fn allreduce_sum_and_max() {
    let out = run_spmd(6, M, |comm| {
        let s = comm.allreduce(comm.rank() as u64, |a, b| a + b);
        let m = comm.allreduce(comm.rank() as f64, |a, b| a.max(*b));
        (s, m)
    });
    for (s, m) in out.results {
        assert_eq!(s, 15);
        assert_eq!(m, 5.0);
    }
}

#[test]
fn gather_in_rank_order() {
    let out = run_spmd(5, M, |comm| comm.gather(2, comm.rank() as u64 * 10));
    assert_eq!(out.results[2], Some(vec![0, 10, 20, 30, 40]));
    for r in [0, 1, 3, 4] {
        assert!(out.results[r].is_none());
    }
}

#[test]
fn allgather_everyone_sees_everything() {
    let out = run_spmd(4, M, |comm| comm.allgather(comm.rank() as u64 + 100));
    for r in out.results {
        assert_eq!(r, vec![100, 101, 102, 103]);
    }
}

#[test]
fn scan_inclusive_noncommutative() {
    // Matrix products are non-commutative: verify the scan preserves
    // rank order using 2x2 shear matrices.
    for p in [1, 2, 3, 4, 6, 8, 11] {
        let out = run_spmd(p, M, move |comm| {
            let r = comm.rank();
            let m = Mat::from_rows(&[&[1.0, r as f64 + 1.0], &[0.0, 1.0]]);
            // Combine = matrix product of LATER * EARLIER (application order):
            // scan gives op(x0, op(x1, ..)) in rank order; we define
            // op(earlier, later) = later * earlier so the result is
            // x_{r} * ... * x_0.
            comm.scan_inclusive(m, |earlier, later| bt_dense::matmul(later, earlier))
        });
        for (r, m) in out.results.iter().enumerate() {
            // Product of shears: upper entry = sum of (1..=r+1).
            let expect = ((r + 1) * (r + 2) / 2) as f64;
            assert!((m[(0, 1)] - expect).abs() < 1e-12, "p={p} r={r}");
        }
    }
}

#[test]
fn scan_exclusive_shifts() {
    let out = run_spmd(6, M, |comm| {
        comm.scan_exclusive(comm.rank() as u64 + 1, |a, b| a + b)
    });
    assert_eq!(out.results[0], None);
    for r in 1..6 {
        let expect: u64 = (1..=r as u64).sum();
        assert_eq!(out.results[r], Some(expect));
    }
}

#[test]
fn barrier_then_traffic_does_not_cross_talk() {
    // Interleave barriers with tagged traffic; collectives must not steal
    // user messages and vice versa.
    let out = run_spmd(4, M, |comm| {
        let peer = comm.rank() ^ 1;
        comm.send(peer, 3, comm.rank() as u64);
        comm.barrier();
        let v = comm.recv::<u64>(peer, 3);
        comm.barrier();
        v
    });
    assert_eq!(out.results, vec![1, 0, 3, 2]);
}

#[test]
fn consecutive_collectives_use_distinct_tags() {
    let out = run_spmd(3, M, |comm| {
        let a = comm.allreduce(1u64, |x, y| x + y);
        let b = comm.allreduce(2u64, |x, y| x + y);
        let c = comm.allgather(comm.rank() as u64);
        (a, b, c)
    });
    for (a, b, c) in out.results {
        assert_eq!(a, 3);
        assert_eq!(b, 6);
        assert_eq!(c, vec![0, 1, 2]);
    }
}

#[test]
fn stats_count_bytes_and_flops() {
    let out = run_spmd(2, M, |comm| {
        if comm.rank() == 0 {
            comm.send(1, 1, vec![0.0f64; 100]); // 800 bytes
            comm.compute(12345);
        } else {
            let _ = comm.recv::<Vec<f64>>(0, 1);
        }
    });
    assert_eq!(
        out.stats.per_rank[0],
        RankStats {
            msgs_sent: 1,
            bytes_sent: 800,
            msgs_recv: 0,
            bytes_recv: 0,
            flops: 12345,
        }
    );
    assert_eq!(out.stats.per_rank[1].bytes_recv, 800);
    assert!(out.stats.is_balanced());
}

#[test]
fn virtual_time_serial_chain() {
    // A chain of dependent messages: rank 0 -> 1 -> 2 -> 3, each hop
    // costs latency 1s + 8 bytes * 0.125 s/B = 2s. Total modeled: 6s.
    let model = CostModel {
        latency_s: 1.0,
        per_byte_s: 0.125,
        flop_rate: f64::INFINITY,
        threads_per_rank: 1,
    };
    let out = run_spmd(4, model, |comm| {
        let r = comm.rank();
        if r > 0 {
            let _ = comm.recv::<u64>(r - 1, 1);
        }
        if r + 1 < comm.size() {
            comm.send(r + 1, 1, 0u64);
        }
        comm.virtual_time()
    });
    assert_eq!(out.modeled_seconds, 6.0);
    assert_eq!(out.results[3], 6.0);
    assert_eq!(out.results[0], 0.0); // rank 0 never waits
}

#[test]
fn virtual_time_compute_adds_up() {
    let model = CostModel {
        latency_s: 0.0,
        per_byte_s: 0.0,
        flop_rate: 100.0,
        threads_per_rank: 1,
    };
    let out = run_spmd(2, model, |comm| {
        comm.compute(50); // 0.5 s
        comm.compute(150); // 1.5 s
        comm.virtual_time()
    });
    assert_eq!(out.results, vec![2.0, 2.0]);
    assert_eq!(out.modeled_seconds, 2.0);
}

#[test]
fn virtual_time_parallel_vs_serial() {
    // P independent workers: modeled time = one worker's time, not the sum.
    let model = CostModel {
        latency_s: 0.0,
        per_byte_s: 0.0,
        flop_rate: 1000.0,
        threads_per_rank: 1,
    };
    let out = run_spmd(8, model, |comm| {
        comm.compute(1000);
        comm.virtual_time()
    });
    assert_eq!(out.modeled_seconds, 1.0);
}

#[test]
fn virtual_time_scan_grows_logarithmically() {
    // The Kogge-Stone scan should cost ~ceil(log2 P) message latencies on
    // the critical path, not P.
    let model = CostModel {
        latency_s: 1.0,
        per_byte_s: 0.0,
        flop_rate: f64::INFINITY,
        threads_per_rank: 1,
    };
    let t = |p: usize| {
        run_spmd(p, model, |comm| {
            comm.scan_inclusive(1u64, |a, b| a + b);
        })
        .modeled_seconds
    };
    let t16 = t(16);
    let t64 = t(64);
    assert!(t16 <= 5.0, "scan P=16 modeled {t16}");
    assert!(t64 <= 7.0, "scan P=64 modeled {t64}");
    assert!(t64 > t16, "scan must grow with P");
}

#[test]
fn larger_worlds_than_cores() {
    // 256 ranks, Fig 3's largest world, on a small host: must still
    // complete and be correct.
    let out = run_spmd(256, M, |comm| comm.allreduce(1u64, |a, b| a + b));
    assert!(out.results.iter().all(|&v| v == 256));
}

#[test]
fn advance_time_manual() {
    let out = run_spmd(1, M, |comm| {
        comm.advance_time(2.5);
        comm.virtual_time()
    });
    assert_eq!(out.results[0], 2.5);
}

#[test]
fn traced_run_records_all_event_kinds() {
    use bt_mpsim::{run_spmd_traced, TraceEvent};
    let model = CostModel {
        latency_s: 1e-3,
        per_byte_s: 0.0,
        flop_rate: 1e6,
        threads_per_rank: 1,
    };
    let (out, trace) = run_spmd_traced(2, model, |comm| {
        comm.compute(1000);
        if comm.rank() == 0 {
            comm.send(1, 1, vec![0.0f64; 4]);
        } else {
            let _: Vec<f64> = comm.recv(0, 1);
        }
        comm.rank()
    });
    assert_eq!(out.results, vec![0, 1]);
    assert_eq!(trace.events.len(), 2);
    // Rank 0: compute + send.
    assert!(matches!(
        trace.events[0][0],
        TraceEvent::Compute { flops: 1000, .. }
    ));
    assert!(matches!(
        trace.events[0][1],
        TraceEvent::Send {
            dst: 1,
            bytes: 32,
            ..
        }
    ));
    // Rank 1: compute + recv (with nonzero wait only if it posted early —
    // both computed 1ms first, message adds 1ms latency, so wait ~1ms).
    match trace.events[1][1] {
        TraceEvent::Recv {
            wait,
            src: 0,
            bytes: 32,
            ..
        } => {
            assert!((wait - 1e-3).abs() < 1e-9, "wait {wait}");
        }
        ref other => panic!("unexpected event {other:?}"),
    }
    // JSON serialization holds the four events plus metadata (process
    // name, two rank thread names) and one send->recv flow pair, all
    // valid under the Chrome trace schema.
    let json = trace.to_chrome_json();
    let doc = bt_obs::json::parse(&json).expect("trace JSON parses");
    let summary = bt_obs::json::validate_chrome_trace(&doc).expect("trace validates");
    assert_eq!(summary.events, 4 + 3 + 2);
    assert_eq!(summary.flow_starts, 1);
    assert_eq!(summary.flow_finishes, 1);
}

#[test]
fn untraced_run_records_nothing_and_behaves_identically() {
    use bt_mpsim::run_spmd_traced;
    let model = CostModel {
        latency_s: 1e-6,
        per_byte_s: 1e-9,
        flop_rate: 1e9,
        threads_per_rank: 1,
    };
    let plain = run_spmd(4, model, |comm| {
        comm.allreduce(comm.rank() as u64, |a, b| a + b)
    });
    let (traced, trace) = run_spmd_traced(4, model, |comm| {
        comm.allreduce(comm.rank() as u64, |a, b| a + b)
    });
    assert_eq!(plain.results, traced.results);
    assert_eq!(plain.stats, traced.stats);
    assert_eq!(plain.modeled_seconds, traced.modeled_seconds);
    assert!(!trace.is_empty());
}

#[test]
fn scatter_delivers_per_rank_values() {
    for root in [0, 2] {
        let out = run_spmd(4, M, move |comm| {
            let values = (comm.rank() == root).then(|| vec![10u64, 11, 12, 13]);
            comm.scatter(root, values)
        });
        assert_eq!(out.results, vec![10, 11, 12, 13], "root={root}");
    }
}

#[test]
fn alltoall_transposes_contributions() {
    let out = run_spmd(3, M, |comm| {
        // values[dst] = rank * 10 + dst
        let values: Vec<u64> = (0..3)
            .map(|dst| comm.rank() as u64 * 10 + dst as u64)
            .collect();
        comm.alltoall(values)
    });
    // received[src] on rank r == src * 10 + r
    for (r, received) in out.results.iter().enumerate() {
        let expect: Vec<u64> = (0..3).map(|src| src as u64 * 10 + r as u64).collect();
        assert_eq!(received, &expect, "rank {r}");
    }
}

#[test]
#[should_panic(expected = "scatter length mismatch")]
fn scatter_length_checked() {
    run_spmd(3, M, |comm| {
        let values = (comm.rank() == 0).then(|| vec![1u64, 2]);
        comm.scatter(0, values)
    });
}

// ---------------------------------------------------------------------
// Panel point-to-point
// ---------------------------------------------------------------------

#[test]
fn back_to_back_sends_cost_no_more_than_one_big_message() {
    // Link serialization with pipelined-rendezvous latency overlap: T
    // back-to-back sends to one destination deliver the last byte
    // at the same virtual time as a single message of the combined
    // size (latency hides under the predecessor's transfer).
    let model = CostModel {
        latency_s: 1.0,
        per_byte_s: 1e-3,
        flop_rate: f64::INFINITY,
        threads_per_rank: 1,
    };
    let whole = run_spmd(2, model, |comm| {
        if comm.rank() == 0 {
            comm.send_panel(1, 1, Mat::zeros(10, 40).as_ref());
        } else {
            let mut buf: Mat = Mat::zeros(10, 40);
            comm.recv_panel_into(0, 1, buf.as_mut());
        }
        comm.virtual_time()
    });
    let split = run_spmd(2, model, |comm| {
        if comm.rank() == 0 {
            for _ in 0..4 {
                comm.send_panel(1, 1, Mat::zeros(10, 10).as_ref());
            }
        } else {
            let mut buf: Mat = Mat::zeros(10, 10);
            for _ in 0..4 {
                comm.recv_panel_into(0, 1, buf.as_mut());
            }
        }
        comm.virtual_time()
    });
    // whole: 1 + 3200 B * 1e-3 = 4.2 s; split, the last message:
    // injections serialize at 0.8 s spacing, last avail = 3*0.8 + 1 +
    // 0.8 = 4.2 s.
    assert_eq!(whole.results[1], 4.2);
    assert_eq!(split.results[1], 4.2);
    assert_eq!(
        whole.stats.total().bytes_sent,
        split.stats.total().bytes_sent
    );
}

#[test]
fn exchange_panel_swaps_between_peers() {
    let out = run_spmd(4, M, |comm| {
        let peer = comm.rank() ^ 1;
        let mine = Mat::from_fn(2, 3, |i, j| (comm.rank() * 10 + i * 3 + j) as f64);
        let mut theirs = Mat::zeros(2, 3);
        comm.exchange_panel(
            6,
            Some((peer, mine.as_ref())),
            Some((peer, theirs.as_mut())),
        );
        theirs
    });
    for rank in 0..4 {
        let peer = rank ^ 1;
        assert_eq!(
            out.results[rank],
            Mat::from_fn(2, 3, |i, j| (peer * 10 + i * 3 + j) as f64),
            "rank {rank}"
        );
    }
    assert!(out.stats.is_balanced());
}

#[test]
fn strided_panel_window_travels_into_a_window() {
    // A window of a larger matrix travels as a copy of that window only
    // and lands in a window of another: only its bytes are counted, and
    // nothing outside the destination window changes.
    let out = run_spmd(2, M, |comm| {
        let big = Mat::from_fn(6, 6, |i, j| (10 * i + j) as f64);
        let mut dst = Mat::filled(5, 4, -1.0);
        if comm.rank() == 0 {
            comm.send_panel(1, 3, big.submatrix(1, 2, 3, 2));
        } else {
            comm.recv_panel_into(0, 3, dst.submatrix_mut(1, 1, 3, 2));
        }
        (big, dst)
    });
    let (big, dst) = &out.results[1];
    assert_eq!(dst.block(1, 1, 3, 2), big.block(1, 2, 3, 2));
    let mut outside = dst.clone();
    outside.set_block(1, 1, &Mat::filled(3, 2, -1.0));
    assert_eq!(outside, Mat::filled(5, 4, -1.0), "wrote outside the window");
    // 3x2 f64 = 48 bytes on the wire.
    assert_eq!(out.stats.per_rank[0].bytes_sent, 48);
}

#[test]
#[should_panic(expected = "recv_panel_into shape mismatch")]
fn recv_panel_into_checks_the_shape() {
    run_spmd(2, M, |comm| {
        if comm.rank() == 0 {
            comm.send_panel(1, 4, Mat::zeros(2, 3).as_ref());
        } else {
            let mut out = Mat::zeros(3, 2);
            comm.recv_panel_into(0, 4, out.as_mut());
        }
    });
}

#[test]
fn persistent_world_matches_fresh_world() {
    use bt_mpsim::SpmdWorld;
    let mut world = SpmdWorld::new(4, M.with_threads_per_rank(2));
    assert_eq!(world.ranks(), 4);
    for round in 0..3u64 {
        let reused = world.run(move |comm| {
            // Mix point-to-point, a collective and compute so clock,
            // counters and collective tags all exercise the reset path.
            let peer = comm.rank() ^ 1;
            let got: u64 = comm.sendrecv(peer, 7, comm.rank() as u64 + round);
            comm.compute(100);
            got + comm.allreduce(comm.rank() as u64, |a, b| a + b)
        });
        let fresh = run_spmd(4, M.with_threads_per_rank(2), |comm| {
            let peer = comm.rank() ^ 1;
            let got: u64 = comm.sendrecv(peer, 7, comm.rank() as u64 + round);
            comm.compute(100);
            got + comm.allreduce(comm.rank() as u64, |a, b| a + b)
        });
        assert_eq!(reused.results, fresh.results, "round {round}");
        assert_eq!(reused.modeled_seconds, fresh.modeled_seconds);
        // Per-job stats must not accumulate across jobs.
        assert_eq!(
            reused.stats.total().msgs_sent,
            fresh.stats.total().msgs_sent,
            "round {round}: stats leaked across jobs"
        );
    }
}

#[test]
fn traced_persistent_world_merges_jobs_without_flow_collisions() {
    // Two back-to-back jobs with *identical* send/recv tag patterns on a
    // traced persistent world: the merged Chrome trace must keep per-tid
    // timestamps monotone (job 2 shifted past job 1 on the virtual
    // timeline) and pair every send→recv flow arrow with its own job's
    // counterpart — the regression was reused worlds restarting clocks
    // and flow occurrences at zero, colliding arrows across jobs.
    let job = |comm: &mut bt_mpsim::Comm| {
        if comm.rank() == 0 {
            comm.send(1, 7, 42u64);
        } else {
            let _: u64 = comm.recv(0, 7);
        }
        comm.compute(1_000);
        comm.virtual_time()
    };
    let mut world = bt_mpsim::SpmdWorld::new_traced(2, M);
    let first = world.run(job);
    let second = world.run(job);
    assert_eq!(first.results, second.results, "jobs are identical");

    let trace = world.take_trace();
    let json = trace.to_chrome_json();
    let doc = bt_obs::json::parse(&json).expect("merged trace parses");
    let summary = bt_obs::json::validate_chrome_trace(&doc)
        .expect("merged trace is a valid Chrome trace (monotone ts, matched flows)");
    // One message per job, two jobs: two distinct flow arrows.
    assert_eq!(summary.flow_starts, 2, "one flow start per job's send");
    assert_eq!(summary.flow_finishes, 2, "one flow finish per job's recv");

    // After take_trace the buffer is empty but the timeline keeps
    // advancing: a third job still lands after the first two.
    let third = world.run(job);
    assert_eq!(third.results, first.results);
    let tail = world.take_trace();
    let tail_doc = bt_obs::json::parse(&tail.to_chrome_json()).expect("tail parses");
    let tail_summary = bt_obs::json::validate_chrome_trace(&tail_doc).expect("tail valid");
    assert_eq!(tail_summary.flow_starts, 1);
}

#[test]
fn persistent_world_rank_threads_stamped_from_model() {
    let mut world = bt_mpsim::SpmdWorld::new(3, M.with_threads_per_rank(4));
    let out = world.run(|_comm| bt_dense::current_threads());
    assert_eq!(out.results, vec![4, 4, 4]);
}

#[test]
fn persistent_world_panic_is_catchable_and_kills_world() {
    let mut world = bt_mpsim::SpmdWorld::new(2, M);
    let ok = world.run(|comm| comm.rank());
    assert_eq!(ok.results, vec![0, 1]);
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        world.run(|comm| {
            if comm.rank() == 1 {
                panic!("job blew up");
            }
            let _: u64 = comm.recv(1, 3); // blocks until rank 1's death unblocks it
        })
    }));
    let msg = err.expect_err("panic must propagate");
    let msg = msg.downcast_ref::<String>().expect("string payload");
    assert!(msg.contains("panicked"), "got: {msg}");
    assert!(world.is_dead());
    let again = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        world.run(|comm| comm.rank())
    }));
    assert!(again.is_err(), "dead world must refuse jobs");
}
