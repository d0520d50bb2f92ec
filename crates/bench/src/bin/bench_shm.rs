//! Measured-vs-modeled benchmark of the shared-memory backend: the full
//! ARD replay (setup + replay solves) runs on real rank threads
//! (`bt-shm`) for wall-clock time, and on the virtual-clock simulator
//! (`bt-mpsim`) under a [`bt_comm::CostModel`] calibrated against the
//! same SPSC transport ([`bt_shm::calibrate_shm`]) for the predicted
//! time. The sweep covers world sizes and batch widths; each cell
//! reports:
//!
//! * `wall_ns` — best-of-N rank-synchronized wall clock of one solve on
//!   the shm backend (real threads, real channels).
//! * `modeled_ns` — the slowest rank's virtual-clock delta for the same
//!   solve on the simulator under the calibrated model.
//! * `ratio` — `wall / modeled`: how far reality lands from the model.
//!   Oversubscription (P rank threads > cores) legitimately pushes this
//!   above 1; the calibration fit error bounds how much of the gap is
//!   the alpha-beta line itself.
//!
//! Solutions from the two backends are compared bitwise per cell — the
//! sweep doubles as a cross-backend agreement check at benchmark scale.
//!
//! Emits `BENCH_shm.json` (schema `bt-bench-shm-v1`, validated by
//! `obs_validate`) at the workspace root (override with `--out`):
//!
//! ```text
//! cargo run --release -p bt-bench --bin bench_shm
//! cargo run --release -p bt-bench --bin bench_shm -- --smoke 1
//! ```

use std::time::Instant;

use bt_ard::state::{ArdRankFactors, RankSystem, ReplayFactors};
use bt_bench::Args;
use bt_blocktri::gen::{rhs_panel, ClusteredToeplitz};
use bt_blocktri::BlockRowSource;
use bt_comm::CommBackend;
use bt_dense::Mat;
use bt_mpsim::run_spmd;
use bt_shm::{calibrate_shm, ShmBackend, SpmdBackend};

struct Record {
    p: usize,
    r: usize,
    wall_ns: f64,
    modeled_ns: f64,
}

impl Record {
    fn ratio(&self) -> f64 {
        if self.modeled_ns > 0.0 {
            self.wall_ns / self.modeled_ns
        } else {
            f64::NAN
        }
    }
}

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

#[allow(clippy::too_many_lines)]
fn main() {
    let args = Args::from_env();
    let smoke = args.get_usize("smoke", 0) != 0;
    let (dn, dreps) = if smoke { (32, 1) } else { (512, 3) };
    let n = args.get_usize("n", dn);
    let m = args.get_usize("m", 8);
    let default_ps: &[usize] = if smoke { &[2, 4] } else { &[2, 4, 8, 16] };
    let default_rs: &[usize] = if smoke { &[16, 64] } else { &[16, 256, 4096] };
    let ps = args.get_usize_list("ps", default_ps);
    let rs = args.get_usize_list("rs", default_rs);
    let reps = args.get_usize("reps", dreps);

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

    let src = ClusteredToeplitz::standard(n, m, 1);
    let mut records: Vec<Record> = Vec::new();
    for &p in &ps {
        if p > n {
            println!("bench_shm: skipping P={p} (more ranks than block rows)");
            continue;
        }
        for &r in &rs {
            let (wall_s, x_shm) =
                split(ShmBackend::run(p, model, |comm| solve_cell(comm, &src, p, r, reps)).results);
            let (modeled_s, x_sim) =
                split(run_spmd(p, model, |comm| solve_cell(comm, &src, p, r, reps)).results);
            assert_eq!(x_shm, x_sim, "P={p} R={r}: shm and sim solutions diverged");
            let rec = Record {
                p,
                r,
                wall_ns: wall_s * 1e9,
                modeled_ns: modeled_s * 1e9,
            };
            println!(
                "bench_shm: P={p:<3} R={r:<5} wall {:>9.3} ms  \
                 modeled {:>9.3} ms  ratio {:.2}x",
                wall_s * 1e3,
                modeled_s * 1e3,
                rec.ratio(),
            );
            records.push(rec);
        }
    }
    assert!(!records.is_empty(), "empty sweep");

    // Headline: RHS columns solved per wall second at the biggest cell —
    // the figure the baseline gate tracks across commits.
    let biggest = records
        .iter()
        .max_by_key(|rec| (rec.p, rec.r))
        .expect("nonempty");
    let headline = biggest.r as f64 / (biggest.wall_ns * 1e-9);
    println!(
        "bench_shm: headline {headline:.0} RHS columns/s (P={}, R={}, wall {:.3} ms)",
        biggest.p,
        biggest.r,
        biggest.wall_ns * 1e-6
    );

    let rows: Vec<String> = records
        .iter()
        .map(|rec| {
            format!(
                "    {{\"p\": {}, \"r\": {}, \"wall_ns\": {:.0}, \
                 \"modeled_ns\": {:.0}, \"ratio\": {:.4}}}",
                rec.p,
                rec.r,
                rec.wall_ns,
                rec.modeled_ns,
                rec.ratio(),
            )
        })
        .collect();
    let generated_unix_s = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let simd = bt_dense::simd::active().name();
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let json = format!(
        "{{\n  \"bench\": \"shm_replay\",\n  \"schema\": \"bt-bench-shm-v1\",\n  \
         \"generated_unix_s\": {generated_unix_s},\n  \
         \"simd\": \"{simd}\",\n  \"cores\": {cores},\n  \
         \"n\": {n},\n  \"m\": {m},\n  \"reps\": {reps},\n  \"smoke\": {smoke},\n  \
         \"calib\": {{\"alpha_s\": {:e}, \"beta_s_per_byte\": {:e}, \
         \"flop_rate\": {:e}, \"fit_error\": {:.6}}},\n  \
         \"headline_rhs_cols_per_s\": {headline:.1},\n  \
         \"note\": \"wall_ns is best-of-{reps} rank-synchronized wall clock of one \
         replay solve on the shm backend; modeled_ns is the simulator's \
         virtual-clock prediction under the calibrated model; ratio = wall/modeled \
         (> 1 under thread oversubscription: {cores} core(s) here); solutions \
         verified bitwise-identical across backends per cell\",\n  \
         \"results\": [\n{}\n  ]\n}}\n",
        model.latency_s,
        model.per_byte_s,
        model.flop_rate,
        cal.fit_error,
        rows.join(",\n")
    );
    let default_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_shm.json");
    let path = args.get_str("out").unwrap_or(default_path).to_string();
    match std::fs::write(&path, &json) {
        Ok(()) => println!("bench_shm: wrote {path}"),
        Err(e) => eprintln!("bench_shm: could not write {path}: {e}"),
    }
    bt_bench::emit_obs(&args);
}
