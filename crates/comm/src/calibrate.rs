//! Alpha-beta calibration of the SPSC transport.
//!
//! The [`CostModel`] presets are nominal cluster numbers. For modeled
//! times that track *this* host, [`calibrate_shm`] measures the
//! sustained flop rate of the dense GEMM kernel and the per-message
//! latency and per-byte time of the one transport every world runs on
//! (a rank-pair ping-pong at two message sizes), so the modeled clock
//! becomes a prediction of wall-clock runs ([`crate::ShmBackend`]) on
//! this host. It also reports a fit error: the relative mismatch between
//! the fitted `alpha + beta * bytes` line and a measured mid-size
//! message, i.e. how well the linear model describes the transport it
//! was fitted to.
//!
//! Calibration takes ~100 ms and is deterministic enough for the scaling
//! *shapes* the experiments report; it is not a rigorous benchmark.

use std::time::Instant;

use bt_dense::{gemm, gemm_flops, random::rng, random::uniform, Mat, Trans};

use crate::backend::CommBackend;
use crate::model::CostModel;
use crate::runner::{ShmBackend, SpmdBackend};

/// A calibrated model plus the quality of the alpha-beta fit.
#[derive(Debug, Clone, Copy)]
pub struct ShmCalibration {
    /// Fitted cost model (`threads_per_rank` left at 1).
    pub model: CostModel,
    /// Relative error of the fitted line at a mid-size message that did
    /// not participate in the fit: `|predicted - measured| / measured`.
    pub fit_error: f64,
}

/// One-way time per message of a two-rank SPSC ping-pong with
/// `words` f64 payloads, averaged over `iters` round trips.
fn time_pingpong(words: usize, iters: usize) -> f64 {
    let out = ShmBackend::run(2, CostModel::zero(), move |comm| {
        let payload = vec![0.0f64; words];
        comm.barrier();
        let t0 = Instant::now();
        for _ in 0..iters {
            if comm.rank() == 0 {
                comm.send(1, 1, payload.clone());
                let _: Vec<f64> = comm.recv(1, 2);
            } else {
                let got: Vec<f64> = comm.recv(0, 1);
                comm.send(0, 2, got);
            }
        }
        t0.elapsed().as_secs_f64()
    });
    out.results[0] / (2 * iters) as f64
}

/// Measures SPSC transport costs: `(latency_s, per_byte_s)`.
pub fn measure_transport_shm() -> (f64, f64) {
    const SMALL: usize = 8; // one f64
    const LARGE: usize = 1 << 16; // 64 KiB of f64s
    let t_small = time_pingpong(SMALL / 8, 400);
    let t_large = time_pingpong(LARGE / 8, 100);
    let latency = t_small.max(1e-9);
    let per_byte = ((t_large - t_small) / (LARGE - SMALL) as f64).max(0.0);
    (latency, per_byte)
}

/// Calibrates a [`CostModel`] against the SPSC transport and this host's
/// GEMM rate, and scores the fit at a held-out 8 KiB message.
pub fn calibrate_shm() -> ShmCalibration {
    let (latency_s, per_byte_s) = measure_transport_shm();
    let model = CostModel {
        latency_s,
        per_byte_s,
        flop_rate: measure_flop_rate(64),
        threads_per_rank: 1,
    };
    // Held-out point: 8 KiB sits between the fit's 8 B and 64 KiB ends.
    const MID: usize = 1 << 13;
    let measured = time_pingpong(MID / 8, 200).max(1e-12);
    let predicted = model.msg_time(MID as u64);
    let fit_error = (predicted - measured).abs() / measured;
    ShmCalibration { model, fit_error }
}

/// Measures the host's GEMM flop rate (flop/s) using `m x m` operands.
fn measure_flop_rate(m: usize) -> f64 {
    let a = uniform(m, m, &mut rng(1));
    let b = uniform(m, m, &mut rng(2));
    let mut c = Mat::zeros(m, m);
    // Warm up.
    gemm(1.0, &a, Trans::No, &b, Trans::No, 0.0, &mut c);
    let reps = (200_000_000 / gemm_flops(m, m, m).max(1)).clamp(3, 2000);
    let t0 = Instant::now();
    for _ in 0..reps {
        gemm(1.0, &a, Trans::No, &b, Trans::No, 1.0, &mut c);
    }
    let secs = t0.elapsed().as_secs_f64();
    // Keep the accumulation observable.
    std::hint::black_box(c.max_abs());
    (reps * gemm_flops(m, m, m)) as f64 / secs.max(1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shm_transport_is_plausible() {
        let (latency, per_byte) = measure_transport_shm();
        assert!(latency > 0.0 && latency < 1e-2, "latency {latency}");
        assert!((0.0..1e-5).contains(&per_byte), "per_byte {per_byte}");
    }

    #[test]
    fn calibration_reports_finite_fit() {
        let cal = calibrate_shm();
        assert!(cal.model.msg_time(1024) > 0.0);
        // Anything from an embedded core to a vector monster.
        let rate = cal.model.flop_rate;
        assert!(rate > 1e7 && rate < 1e13, "measured {rate} flop/s");
        assert!(cal.fit_error.is_finite() && cal.fit_error >= 0.0);
    }
}
