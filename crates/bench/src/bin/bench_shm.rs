//! Measured-vs-modeled benchmark of the shared-memory backend: the full
//! ARD replay (setup + replay solves) runs on real rank threads
//! (`bt-shm`) for wall-clock time, and on the virtual-clock simulator
//! (`bt-mpsim`) under a [`bt_comm::CostModel`] calibrated against the
//! same SPSC transport ([`bt_shm::calibrate_shm`]) for the predicted
//! time. The sweep covers system sizes, world sizes and batch widths;
//! each cell (`n<N>-m<M>-p<P>-r<R>-reps<reps>`, metric `solve_ns`) holds
//! the best-of-`reps` rank-synchronized wall clock of one replay solve on
//! the shm backend as its value, and the slowest rank's virtual-clock
//! delta for the same solve under the calibrated model as its `model`.
//! Oversubscription (P rank threads > cores) legitimately pushes the
//! measured/model ratio above 1; the `calib` cells' `fit_error` bounds
//! how much of the gap is the alpha-beta line itself.
//!
//! Solutions from the two backends are compared bitwise per cell — the
//! sweep doubles as a cross-backend agreement check at benchmark scale.
//!
//! Emits `BENCH_shm.json` (a `bt-bench-v1` record) at the workspace root
//! (override with `--out`). The baseline gate tracks the P = 2 cell
//! `HEADLINE`, which the smoke run measures too:
//!
//! ```text
//! cargo run --release -p bt-bench --bin bench_shm
//! cargo run --release -p bt-bench --bin bench_shm -- --smoke 1
//! ```

use std::time::Instant;

use bt_ard::state::{ArdRankFactors, RankSystem, ReplayFactors};
use bt_bench::{
    Args, BenchRecord,
    Better::{Higher, Lower},
};
use bt_blocktri::gen::{rhs_panel, ClusteredToeplitz};
use bt_blocktri::BlockRowSource;
use bt_comm::CommBackend;
use bt_dense::Mat;
use bt_mpsim::run_spmd;
use bt_shm::{calibrate_shm, ShmBackend, SpmdBackend};

/// The gated cell `(n, p, r)`: P = 2 stays within a 2-core host's cores.
const HEADLINE: (usize, usize, usize) = (512, 2, 256);

/// One rank's share of a (p, r) cell, backend-generic: setup once, warm
/// up, then take the best-of-`reps` rank-synchronized clock of a single
/// replay solve. On shm the per-rank clock is wall time; on
/// the simulator it is the (deterministic) virtual delta.
fn solve_cell<C: CommBackend>(
    comm: &mut C,
    src: &ClusteredToeplitz,
    p: usize,
    r: usize,
    reps: usize,
) -> (f64, Vec<Mat>) {
    let m = src.m();
    let sys = RankSystem::from_source(src, p, comm.rank());
    let factors = ArdRankFactors::setup(comm, &sys, true).expect("setup");
    let y: Vec<Mat> = (sys.lo..sys.hi).map(|i| rhs_panel(m, r, 0, i)).collect();
    let mut x = y.clone();
    factors.solve_in_place(comm, &mut x); // warm-up

    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let _ = comm.allreduce(0u64, |a, b| (*a).max(*b)); // sync ranks
        let v0 = comm.virtual_time();
        let t0 = Instant::now();
        for (xk, yk) in x.iter_mut().zip(&y) {
            xk.as_mut().copy_from(yk.as_ref());
        }
        factors.solve_in_place(comm, &mut x);
        let dv = comm.virtual_time() - v0;
        let dt = t0.elapsed().as_secs_f64();
        let d = if dv > 0.0 { dv } else { dt };
        best = best.min(comm.allreduce(d, |a, b| a.max(*b)));
    }
    (best, x)
}

/// Splits a cell's per-rank outputs into the shared clock and the
/// per-rank solution panels.
fn split(results: Vec<(f64, Vec<Mat>)>) -> (f64, Vec<Vec<Mat>>) {
    let secs = results[0].0;
    (secs, results.into_iter().map(|(_, x)| x).collect())
}

fn main() {
    let args = Args::from_env();
    let smoke = args.get_usize("smoke", 0) != 0;
    let n = args.get_usize("n", if smoke { 32 } else { 512 });
    let m = args.get_usize("m", 8);
    let default_ps: &[usize] = if smoke { &[2, 4] } else { &[2, 4, 8, 16] };
    let default_rs: &[usize] = if smoke { &[16, 64] } else { &[16, 256, 4096] };
    let ps = args.get_usize_list("ps", default_ps);
    let rs = args.get_usize_list("rs", default_rs);
    let reps = args.get_usize("reps", 3);
    let mut sweep: Vec<(usize, usize, usize)> = ps
        .iter()
        .flat_map(|&p| rs.iter().map(move |&r| (n, p, r)))
        .filter(|&(n, p, _)| p <= n)
        .collect();
    if smoke && !sweep.contains(&HEADLINE) {
        sweep.push(HEADLINE);
    }

    println!("bench_shm: calibrating the SPSC transport + GEMM rate...");
    let cal = calibrate_shm();
    let model = cal.model;
    println!(
        "bench_shm: alpha {:.1} ns, beta {:.3} ns/B, flop_rate {:.2} GF/s, fit error {:.1}%",
        model.latency_s * 1e9,
        model.per_byte_s * 1e9,
        model.flop_rate / 1e9,
        cal.fit_error * 1e2,
    );
    let mut record = BenchRecord::new("bench_shm", smoke, ShmBackend::name());
    record.params(&[("m", m), ("reps", reps)]);
    record.cell("calib", "comm", "alpha_s", "s", Lower, model.latency_s);
    record.cell(
        "calib",
        "comm",
        "beta_s_per_byte",
        "s/B",
        Lower,
        model.per_byte_s,
    );
    record.cell(
        "calib",
        "dense",
        "flop_rate",
        "flop/s",
        Higher,
        model.flop_rate,
    );
    record.cell("calib", "comm", "fit_error", "ratio", Lower, cal.fit_error);

    let name = |(n, p, r): (usize, usize, usize)| format!("n{n}-m{m}-p{p}-r{r}-reps{reps}");
    for (n, p, r) in sweep {
        let src = ClusteredToeplitz::standard(n, m, 1);
        let (wall_s, x_shm) =
            split(ShmBackend::run(p, model, |comm| solve_cell(comm, &src, p, r, reps)).results);
        let (modeled_s, x_sim) =
            split(run_spmd(p, model, |comm| solve_cell(comm, &src, p, r, reps)).results);
        assert_eq!(
            x_shm, x_sim,
            "N={n} P={p} R={r}: shm and sim solutions diverged"
        );
        println!(
            "bench_shm: N={n:<4} P={p:<3} R={r:<5} wall {:>9.3} ms  \
             modeled {:>9.3} ms  measured/model {:.2}x",
            wall_s * 1e3,
            modeled_s * 1e3,
            wall_s / modeled_s,
        );
        record
            .cell(
                name((n, p, r)),
                "ard",
                "solve_ns",
                "ns",
                Lower,
                (wall_s * 1e9).round(),
            )
            .model((modeled_s * 1e9).round());
    }
    record.headline(&name(HEADLINE), "solve_ns");
    let default_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_shm.json");
    record.write_or_exit(args.get_str("out").unwrap_or(default_path));
    bt_bench::emit_obs(&args);
}
