//! Batch Kalman smoothing as a block tridiagonal solve.
//!
//! For a linear-Gaussian state-space model
//!
//! ```text
//! x_{t+1} = F x_t + w_t,   w ~ N(0, Q)
//! z_t     = H x_t + v_t,   v ~ N(0, S)
//! ```
//!
//! the posterior mean of the whole trajectory `x_0..x_{T-1}` given all
//! measurements solves `Omega x = b`, where the posterior *precision*
//! `Omega` is **symmetric block tridiagonal**:
//!
//! ```text
//! diag_t  = Q^{-1} + F^T Q^{-1} F + H^T S^{-1} H   (interior t)
//! off_t   = -F^T Q^{-1}                            (super-diagonal)
//! b_t     = H^T S^{-1} z_t
//! ```
//!
//! Smoothing `R` independent measurement sequences against the same model
//! is exactly the paper's workload: one matrix, many right-hand sides.
//! This example smooths 64 noisy tracks of a damped oscillator, checks
//! the result against the sequential block Thomas solver, reports the
//! model log-likelihood normalizer (`log det`, the sum of `ln det D_i`
//! over block Thomas's diagonal factors), and shows the smoother
//! actually denoises.
//!
//! ```text
//! cargo run --release --example kalman_smoother
//! ```

use block_tridiag_suite::ard::ArdSession;
use block_tridiag_suite::blocktri::{
    BlockRow, BlockRowSource, BlockTridiag, BlockVec, ThomasFactors,
};
use block_tridiag_suite::dense::random::{rng, uniform_vec};
use block_tridiag_suite::dense::{gemm, invert, matmul, matvec, Mat, Trans};
use block_tridiag_suite::mpsim::CostModel;
use rand::Rng;

/// State dimension 2 (position, velocity); a lightly damped oscillator.
const DT: f64 = 0.1;

fn model_matrices() -> (Mat, Mat, Mat, Mat) {
    // F: rotation + damping; Q: process noise; H: observe position only
    // (padded to square for block algebra); S: measurement noise.
    let f = Mat::from_rows(&[&[1.0, DT], &[-0.4 * DT, 1.0 - 0.1 * DT]]);
    let q = Mat::from_rows(&[&[1e-4, 0.0], &[0.0, 1e-3]]);
    let h = Mat::from_rows(&[&[1.0, 0.0], &[0.0, 0.0]]);
    let s = Mat::from_rows(&[&[4e-2, 0.0], &[0.0, 1.0]]); // dummy 2nd channel
    (f, q, h, s)
}

/// The posterior precision as a block row source (deterministic per row).
struct Precision {
    t_steps: usize,
    diag_first: Mat,
    diag_mid: Mat,
    diag_last: Mat,
    off: Mat, // super-diagonal block; sub-diagonal is its transpose
}

impl Precision {
    fn build(t_steps: usize) -> Self {
        let (f, q, h, s) = model_matrices();
        let qi = invert(&q).unwrap();
        let si = invert(&s).unwrap();
        // H^T S^{-1} H
        let mut hsh = Mat::zeros(2, 2);
        let hs = matmul(&h.transpose(), &si);
        gemm(1.0, &hs, Trans::No, &h, Trans::No, 0.0, &mut hsh);
        // F^T Q^{-1} F
        let fq = matmul(&f.transpose(), &qi);
        let mut fqf = Mat::zeros(2, 2);
        gemm(1.0, &fq, Trans::No, &f, Trans::No, 0.0, &mut fqf);
        // Prior on x_0: weak.
        let p0i = Mat::from_diag(&[1e-2, 1e-2]);

        let mut diag_first = p0i;
        diag_first.add_assign(&fqf);
        diag_first.add_assign(&hsh);
        let mut diag_mid = qi.clone();
        diag_mid.add_assign(&fqf);
        diag_mid.add_assign(&hsh);
        let mut diag_last = qi;
        diag_last.add_assign(&hsh);
        let off = fq.scaled(-1.0); // -F^T Q^{-1}

        Self {
            t_steps,
            diag_first,
            diag_mid,
            diag_last,
            off,
        }
    }
}

impl BlockRowSource for Precision {
    fn n(&self) -> usize {
        self.t_steps
    }
    fn m(&self) -> usize {
        2
    }
    fn row(&self, i: usize) -> BlockRow {
        let z = Mat::zeros(2, 2);
        let b = if i == 0 {
            self.diag_first.clone()
        } else if i + 1 == self.t_steps {
            self.diag_last.clone()
        } else {
            self.diag_mid.clone()
        };
        let a = if i == 0 {
            z.clone()
        } else {
            self.off.transpose()
        };
        let c = if i + 1 == self.t_steps {
            z
        } else {
            self.off.clone()
        };
        BlockRow::new(a, b, c)
    }
}

/// Simulates one noisy track; returns (true positions, information vector b).
fn simulate(t_steps: usize, seed: u64) -> (Vec<f64>, Vec<Mat>) {
    let (f, _, h, s) = model_matrices();
    let si = invert(&s).unwrap();
    let hs = matmul(&h.transpose(), &si);
    let mut rg = rng(seed);
    let mut x = vec![1.0, 0.0];
    let mut truth = Vec::with_capacity(t_steps);
    let mut b = Vec::with_capacity(t_steps);
    for _ in 0..t_steps {
        truth.push(x[0]);
        // Measurement: position + noise (2nd channel unused).
        let z = vec![x[0] + 0.2 * rg.gen_range(-1.0..1.0f64), 0.0];
        let bt = matvec(&hs, &z);
        b.push(Mat::from_col_major(2, 1, bt));
        // Advance truth with small process noise.
        let noise = uniform_vec(2, &mut rg);
        x = matvec(&f, &x);
        x[0] += 0.01 * noise[0];
        x[1] += 0.03 * noise[1];
    }
    (truth, b)
}

fn main() {
    let t_steps = 400;
    let tracks = 64;
    let p = 4;
    let precision = Precision::build(t_steps);
    let omega = BlockTridiag::from_source(&precision);

    // Simulate the tracks and stack their information vectors as one
    // multi-RHS panel.
    let mut truths = Vec::with_capacity(tracks);
    let mut rhs = BlockVec::zeros(t_steps, 2, tracks);
    for j in 0..tracks {
        let (truth, b) = simulate(t_steps, 1000 + j as u64);
        for (i, bt) in b.into_iter().enumerate() {
            rhs.blocks[i].set_block(0, j, &bt);
        }
        truths.push(truth);
    }

    // Sequential reference (block Thomas) + log-likelihood term:
    // det Omega = prod_i det D_i, and Omega is SPD, so every det D_i > 0.
    let thomas = ThomasFactors::factor(&omega).expect("posterior precision is SPD");
    let x_ref = thomas.solve(&rhs);
    let log_det: f64 = (0..t_steps).map(|i| thomas.d_factor(i).det().ln()).sum();
    println!("posterior precision: {t_steps} x {t_steps} blocks of 2x2, log det = {log_det:.2}");

    // Distributed accelerated session (the same matrix serves all tracks).
    let session = ArdSession::create(p, CostModel::cluster(), &precision)
        .expect("SPD systems cannot break down");
    let x = session.solve(&rhs).expect("solve");
    println!(
        "smoothed {tracks} tracks of {t_steps} steps on {p} ranks: vs block Thomas diff {:.1e}, residual {:.1e}",
        x.rel_diff(&x_ref),
        omega.rel_residual(&x, &rhs)
    );
    assert!(x.rel_diff(&x_ref) < 1e-9);

    // Does smoothing actually help? Compare RMS error of raw measurements
    // vs smoothed positions on track 0.
    let (truth0, _) = simulate(t_steps, 1000);
    let mut raw_se = 0.0;
    let mut smooth_se = 0.0;
    let mut rg = rng(1000);
    let mut xsim = vec![1.0, 0.0];
    let (f, ..) = model_matrices();
    for (i, truth_pos) in truth0.iter().enumerate() {
        let meas = xsim[0] + 0.2 * rg.gen_range(-1.0..1.0f64);
        raw_se += (meas - truth_pos).powi(2);
        smooth_se += (x.blocks[i][(0, 0)] - truth_pos).powi(2);
        let noise = uniform_vec(2, &mut rg);
        xsim = matvec(&f, &xsim);
        xsim[0] += 0.01 * noise[0];
        xsim[1] += 0.03 * noise[1];
    }
    let raw_rmse = (raw_se / t_steps as f64).sqrt();
    let smooth_rmse = (smooth_se / t_steps as f64).sqrt();
    println!("track 0 position RMSE: raw measurements {raw_rmse:.4}, smoothed {smooth_rmse:.4}");
    assert!(
        smooth_rmse < raw_rmse * 0.6,
        "smoother should clearly beat raw measurements"
    );
    println!("smoothing reduced the error {:.1}x", raw_rmse / smooth_rmse);
}
