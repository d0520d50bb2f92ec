//! Direct calls into the layers below the service, at a workload's
//! shape, each timed from the benchmark's own code. Every call goes
//! through the generic public API (no strategy-specific entry point).

use std::hint::black_box;
use std::time::Instant;

use bt_ard::{ard_solve_cfg_on, ArdSessionOn, DriverConfig};
use bt_blocktri::gen::random_rhs;
use bt_blocktri::{BlockTridiag, BlockVec, ThomasFactors};
use bt_dense::random::{diag_dominant, rng, uniform};
use bt_dense::{gemm, LuFactors, Mat, Trans};
use bt_mpsim::SimBackend;
use bt_shm::{calibrate_shm, measure_transport_shm, ShmBackend};

use crate::inputs::Materialized;
use crate::serve::{MODEL, RANKS, TOL};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{metric, Metric};

/// Wall seconds of each of `reps` calls of `f`.
fn timed(reps: usize, mut f: impl FnMut()) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect()
}

/// Median of `samples` seconds, in milliseconds, as a metric.
fn median_ms(name: &'static str, samples: &[f64]) -> Metric {
    metric(name, median(samples) * 1e3, samples.len())
}

/// Runs every direct layer call on matrix `t` with right-hand sides of
/// width 1 and `wide`; returns the `session`, `ard`, `comm`, `dense` and
/// `baseline` metrics in `BENCHMARK.json` order.
///
/// # Errors
///
/// A message when a call fails or an answer misses the residual bound.
pub fn measure(
    t: &BlockTridiag,
    wide: usize,
    seed: u64,
    tr: &mut Tracer,
) -> Result<Vec<Metric>, String> {
    let (n, m) = (t.n(), t.m());
    let src = Materialized(t);
    let y1 = random_rhs(n, m, 1, seed ^ 1);
    let yw = random_rhs(n, m, wide, seed ^ 2);
    let verify = |what: &str, x: &BlockVec, y: &BlockVec| -> Result<(), String> {
        let r = t.rel_residual(x, y);
        if r <= TOL {
            Ok(())
        } else {
            Err(format!("{what}: residual {r:e}"))
        }
    };
    let mut out = Vec::new();

    // session: the factor-once, replay-many object the service caches.
    let mut creates = Vec::new();
    let mut session = None;
    for _ in 0..3 {
        let t0 = Instant::now();
        let s = tr.time("session.create", 0, || {
            ArdSessionOn::<ShmBackend>::create(RANKS, MODEL, &src)
        });
        creates.push(t0.elapsed().as_secs_f64());
        session = Some(s.map_err(|e| format!("session create: {e}"))?);
    }
    let session = session.expect("three creates ran");
    session.set_world_reuse(true);
    out.push(median_ms("session.create_ms", &creates));
    for (y, span, name, reps) in [
        (&y1, "session.solve.w1", "session.solve_ms.w1", 9),
        (&yw, "session.solve.wide", "session.solve_ms.wide", 5),
    ] {
        let x = session
            .solve(y)
            .map_err(|e| format!("session solve: {e}"))?;
        verify("session solve", &x, y)?;
        let secs = timed(reps, || {
            let _ = black_box(tr.time(span, 0, || session.solve(y)));
        });
        out.push(median_ms(name, &secs));
    }
    drop(session);

    // ard: one setup plus one solve per driver call, with exact counts.
    let cfg = DriverConfig::new(RANKS)
        .with_model(MODEL)
        .with_threads_per_rank(MODEL.threads_per_rank);
    let batch = std::slice::from_ref(&yw);
    let (mut setups, mut solves, mut last) = (Vec::new(), Vec::new(), None);
    for _ in 0..3 {
        let run = tr
            .time("ard.solve_cfg_on", 0, || {
                ard_solve_cfg_on::<ShmBackend, _>(&cfg, &src, batch)
            })
            .map_err(|e| format!("ard driver: {e}"))?;
        verify("ard driver", &run.x[0], &yw)?;
        setups.push(run.timings.setup_wall.as_secs_f64());
        solves.push(run.timings.solve_wall[0].as_secs_f64());
        last = Some(run);
    }
    let run = last.expect("three driver runs ran");
    let total = run.stats.total();
    out.push(median_ms("ard.setup_ms", &setups));
    out.push(median_ms("ard.solve_ms", &solves));
    out.push(metric("ard.flops", total.flops as f64, 1));
    out.push(metric("ard.msgs", total.msgs_sent as f64, 1));
    out.push(metric("ard.bytes", total.bytes_sent as f64, 1));
    out.push(metric("ard.factor_bytes", run.factor_bytes as f64, 1));
    // The cost model's prediction of the same solve: the simulator's
    // virtual clock under a model calibrated on the running host.
    let cal = tr.time("comm.calibrate", 0, calibrate_shm);
    let sim_cfg = cfg.with_model(cal.model);
    let sim = tr
        .time("ard.simulate", 0, || {
            ard_solve_cfg_on::<SimBackend, _>(&sim_cfg, &src, batch)
        })
        .map_err(|e| format!("simulated ard driver: {e}"))?;
    let ratio = median(&solves) / sim.timings.solve_modeled[0];
    out.push(metric("ard.model_ratio", ratio, 1));

    // comm: the SPSC transport's alpha-beta terms.
    let (mut lat, mut per_byte) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let (a, b) = tr.time("comm.transport", 0, measure_transport_shm);
        lat.push(a);
        per_byte.push(b);
    }
    out.push(metric("comm.latency_us", median(&lat) * 1e6, 3));
    out.push(metric("comm.per_byte_ns", median(&per_byte) * 1e9, 3));

    // dense: the GEMM shapes replay runs (M x M times M x R) and LU of
    // one diagonal block.
    let a = uniform(m, m, &mut rng(seed ^ 3));
    for (r, name) in [
        (1, "dense.gemm_gflops.w1"),
        (wide, "dense.gemm_gflops.wide"),
    ] {
        let b = uniform(m, r, &mut rng(seed ^ 4));
        let mut c = Mat::zeros(m, r);
        let flops = 2 * m * m * r;
        let reps = (20_000_000 / flops).clamp(16, 1 << 20);
        let secs = tr.time("dense.gemm", 0, || {
            timed(5, || {
                for _ in 0..reps {
                    gemm(1.0, &a, Trans::No, black_box(&b), Trans::No, 0.5, &mut c);
                }
                black_box(&c);
            })
        });
        let gflops = (flops * reps) as f64 / median(&secs) * 1e-9;
        out.push(metric(name, gflops, secs.len()));
    }
    let d = diag_dominant(m, 2.0, &mut rng(seed ^ 5));
    let reps = 2000;
    let secs = tr.time("dense.lu", 0, || {
        timed(5, || {
            for _ in 0..reps {
                black_box(LuFactors::factor(black_box(&d)).is_ok());
            }
        })
    });
    out.push(metric(
        "dense.lu_us",
        median(&secs) / f64::from(reps) * 1e6,
        5,
    ));
    // Computed, not measured: each operand read once, C read and written.
    let ops_per_byte = (2 * m * m * wide) as f64 / (8 * (m * m + 3 * m * wide)) as f64;
    out.push(metric("dense.ops_per_byte", ops_per_byte, 1));

    // baseline: single-threaded block Thomas on the same system.
    let mut factors = None;
    let secs = timed(3, || {
        factors = Some(tr.time("baseline.thomas_factor", 0, || ThomasFactors::factor(t)));
    });
    let factors = factors
        .expect("three factorizations ran")
        .map_err(|e| format!("thomas factor: {e}"))?;
    out.push(median_ms("baseline.thomas_factor_ms", &secs));
    let mut x = None;
    let secs = timed(3, || {
        x = Some(tr.time("baseline.thomas_solve", 0, || factors.solve(&yw)))
    });
    verify("thomas solve", &x.expect("three solves ran"), &yw)?;
    out.push(median_ms("baseline.thomas_solve_ms", &secs));
    Ok(out)
}
