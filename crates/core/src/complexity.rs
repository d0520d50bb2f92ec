//! Analytic cost model: the paper's complexity expressions with explicit
//! constants matching this implementation's kernels.
//!
//! These formulas are validated against the runtime's measured flop and
//! byte counters in Table I (`table1_complexity`) and in the integration
//! tests. All counts are **per rank** along the critical path (the most
//! loaded rank), with `nl = ceil(N/P)` local rows and
//! `L = ceil(log2 P)` scan rounds.
//!
//! | quantity | classic RD (per solve) | ARD setup | ARD solve |
//! |---|---|---|---|
//! | flops | `O(M^3 (N/P + log P))` | `O(M^3 (N/P + log P))` | `O(M^2 R (N/P + log P))` |
//! | words | `O(M^2 log P)` | `O(M^2 log P)` | `O(M R log P)` |
//!
//! The predicted `R`-RHS speedup of ARD over RD,
//! `R M^3 / (M^3 + R M^2) = R / (1 + R/M)`, is linear in `R` until it
//! saturates at `~M` — the abstract's "O(R) improvement" with
//! `R ~ 10^2..10^4`.

/// Ceil of log2 (0 for worlds of size 1).
pub fn log2_ceil(p: usize) -> u32 {
    assert!(p > 0, "log2 of zero");
    usize::BITS - (p - 1).leading_zeros()
}

/// Problem-size parameters of one experiment configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Config {
    /// Block rows.
    pub n: usize,
    /// Block order.
    pub m: usize,
    /// Ranks.
    pub p: usize,
    /// Right-hand sides per batch.
    pub r: usize,
}

impl Config {
    /// Local rows on the most loaded rank.
    pub fn nl(&self) -> usize {
        self.n.div_ceil(self.p)
    }

    /// Scan rounds.
    pub fn rounds(&self) -> u32 {
        log2_ceil(self.p)
    }
}

const fn cube(m: usize) -> f64 {
    (m * m * m) as f64
}

/// Flops of the matrix-dependent work (ARD setup; also performed by every
/// classic-RD solve).
///
/// Leading terms per local row: companion `W_i` construction (LU + two
/// solves, ~4.7M^3) + companion total update (8M^3) + the local pass
/// (LU of `D_i` 2/3 M^3, its inverse `E_i` 2M^3, and three GEMMs of
/// 2M^3 each: `F_i = -A_i E_{i-1}`, the `D_i` update and
/// `G_i = -E_i C_i`) + two prefix products (2M^3 each). Per scan round:
/// one companion compose (16M^3) + two affine matrix composes (2M^3
/// each).
pub fn setup_flops(c: &Config) -> f64 {
    let m = c.m;
    let per_row = (2.0 / 3.0 + 4.0) * cube(m) // building W_i (LU(C) + 2 solves)
        + 8.0 * cube(m)                  // companion total apply_left
        + (2.0 / 3.0) * cube(m)          // LU(D_i)
        + 2.0 * cube(m)                  // E_i = D_i^{-1} from the LU
        + 2.0 * cube(m)                  // F_i GEMM
        + 2.0 * cube(m)                  // D_i update GEMM
        + 2.0 * cube(m)                  // G_i GEMM
        + 4.0 * cube(m); // two local prefix products
    let per_round = 16.0 * cube(m)       // companion compose
        + 2.0 * 2.0 * cube(m); // two affine matrix composes
    per_row * c.nl() as f64 + per_round * c.rounds() as f64
}

/// Flops of one accelerated solve (vector work only), on a rank with
/// neighbours on both sides (the critical path) whose two correction
/// windows span `w` rows each (`w <= N/P`; setup derives it from the
/// matrix, see `ReplayFactors::windows`). Per local row: the forward
/// sweep from a zero boundary (2M^2 R), the diagonal GEMM `h_i = E_i z_i`
/// (2M^2 R) and the backward sweep (2M^2 R); per window row, in each
/// direction: the boundary correction's GEMM (2M^2 R) and its panel add
/// (M R); per scan round: two panel combines (2M^2 R each). Products
/// that never decay give `w = N/P`, i.e. `10 M^2 R` per row plus the
/// adds: the cost of re-running both recurrences from the scanned
/// boundary values.
pub fn ard_solve_flops(c: &Config, w: usize) -> f64 {
    let m2r = (c.m * c.m * c.r) as f64;
    let per_row = 6.0 * m2r;
    let per_window_row = 2.0 * (2.0 * m2r + (c.m * c.r) as f64);
    let per_round = 2.0 * 2.0 * m2r;
    per_row * c.nl() as f64 + per_window_row * w as f64 + per_round * c.rounds() as f64
}

/// Flops of one classic recursive doubling solve: the full setup plus the
/// vector work (correction windows of `w` rows, as in
/// [`ard_solve_flops`]), with the affine scans paying matrix composes
/// per round.
pub fn rd_solve_flops(c: &Config, w: usize) -> f64 {
    setup_flops(c) + ard_solve_flops(c, w)
}

/// Payload bytes sent per rank during setup / one classic RD solve's
/// matrix scans: per round, one companion product (`4 M^2` doubles) and
/// two affine matrices (`M^2` each), plus the exclusive-shift messages.
pub fn setup_bytes_per_rank(c: &Config) -> f64 {
    let m2 = (c.m * c.m * 8) as f64;
    let rounds = c.rounds() as f64;
    // companion scan: (top,bot) = 4 M^2 doubles per message; one shift.
    // affine scans: M^2 (+ zero-width vec) per message; one shift each.
    (rounds + 1.0) * (4.0 * m2) + 2.0 * (rounds + 1.0) * m2
}

/// Payload bytes sent per rank during one accelerated solve: per round,
/// two `M x R` panels (forward + backward scans), plus shifts.
pub fn ard_solve_bytes_per_rank(c: &Config) -> f64 {
    let mr = (c.m * c.r * 8) as f64;
    2.0 * (c.rounds() as f64 + 1.0) * mr
}

/// Payload bytes sent per rank during one classic RD solve: matrix scans
/// plus panels.
pub fn rd_solve_bytes_per_rank(c: &Config) -> f64 {
    setup_bytes_per_rank(c) + ard_solve_bytes_per_rank(c)
}

/// Bytes of stored factors per rank (ARD's memory price): three `M x M`
/// matrices per local row (`E_i = D_i^{-1}`, `F_i`, `G_i`) plus the
/// recorded scan traces.
pub fn ard_storage_bytes(c: &Config) -> f64 {
    let m2 = (c.m * c.m * 8) as f64;
    3.0 * m2 * c.nl() as f64 + 2.0 * m2 * c.rounds() as f64
}

/// Predicted modeled time of ARD setup under an alpha-beta/flop-rate
/// cost model: critical-path flops plus per-round message costs of the
/// three scans (companion products of `4 M^2` doubles, two affine
/// matrices of `M^2` doubles each, plus the exclusive shifts).
///
/// The compute term goes through [`bt_mpsim::CostModel::compute_time`],
/// so it divides by the model's `threads_per_rank`; the flop/byte
/// *counts* from [`setup_flops`] and friends are exact and
/// thread-count independent (Table I validation).
pub fn predicted_setup_seconds(c: &Config, model: &bt_mpsim::CostModel) -> f64 {
    let m2b = (c.m * c.m * 8) as u64;
    let rounds = c.rounds() as f64 + 1.0; // + exclusive shift
    let msg = rounds * (model.msg_time(4 * m2b) + 2.0 * model.msg_time(m2b));
    model.compute_time(setup_flops(c) as u64) + msg
}

/// Predicted modeled time of one accelerated solve with correction
/// windows of `w` rows: critical-path flops plus two `M x R` panels per
/// round.
pub fn predicted_ard_solve_seconds(c: &Config, w: usize, model: &bt_mpsim::CostModel) -> f64 {
    let mrb = (c.m * c.r * 8) as u64;
    let rounds = c.rounds() as f64 + 1.0;
    model.compute_time(ard_solve_flops(c, w) as u64) + rounds * 2.0 * model.msg_time(mrb)
}

/// Predicted speedup of ARD over classic RD for solving `r` right-hand
/// sides (in `ceil(r / batch)` batches of `batch` columns each), by the
/// flop model, with correction windows of `w` rows.
pub fn predicted_speedup(c: &Config, w: usize, total_rhs: usize, batch: usize) -> f64 {
    let batches = total_rhs.div_ceil(batch);
    let per_batch = Config { r: batch, ..*c };
    let rd = rd_solve_flops(&per_batch, w) * batches as f64;
    let ard = setup_flops(&per_batch) + ard_solve_flops(&per_batch, w) * batches as f64;
    rd / ard
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predictions_divide_compute_by_threads_but_counters_do_not() {
        let c = Config {
            n: 4096,
            m: 8,
            p: 16,
            r: 4,
        };
        let m1 = bt_mpsim::CostModel::cluster();
        let m4 = m1.with_threads_per_rank(4);
        // Pure-compute part shrinks 4x; the message part is unchanged, so
        // the total sits strictly between t1/4 and t1.
        let t1 = predicted_setup_seconds(&c, &m1);
        let t4 = predicted_setup_seconds(&c, &m4);
        assert!(t4 < t1 && t4 > t1 / 4.0, "t1={t1} t4={t4}");
        let s1 = predicted_ard_solve_seconds(&c, 16, &m1);
        let s4 = predicted_ard_solve_seconds(&c, 16, &m4);
        assert!(s4 < s1 && s4 > s1 / 4.0, "s1={s1} s4={s4}");
        // The flop *counts* feeding Table I never see the thread knob:
        // setup_flops & co. are pure functions of the problem Config, and
        // predicted_speedup is a ratio of them, so both stay exact.
        assert!(setup_flops(&c) > 0.0);
        assert!(predicted_speedup(&c, 16, 64, 4) > 1.0);
    }

    #[test]
    fn log2_ceil_values() {
        assert_eq!(log2_ceil(1), 0);
        assert_eq!(log2_ceil(2), 1);
        assert_eq!(log2_ceil(3), 2);
        assert_eq!(log2_ceil(4), 2);
        assert_eq!(log2_ceil(5), 3);
        assert_eq!(log2_ceil(1024), 10);
    }

    #[test]
    fn config_derived_quantities() {
        let c = Config {
            n: 100,
            m: 8,
            p: 8,
            r: 4,
        };
        assert_eq!(c.nl(), 13);
        assert_eq!(c.rounds(), 3);
    }

    #[test]
    fn setup_dominates_ard_solve_for_small_r() {
        let c = Config {
            n: 512,
            m: 32,
            p: 8,
            r: 1,
        };
        assert!(setup_flops(&c) > 10.0 * ard_solve_flops(&c, c.nl()));
    }

    #[test]
    fn rd_cost_flat_in_r_ard_linear_in_r() {
        let base = Config {
            n: 256,
            m: 16,
            p: 4,
            r: 1,
        };
        let big = Config { r: 16, ..base };
        // RD per-solve barely grows with R (matrix work dominates)...
        assert!(rd_solve_flops(&big, 16) < 1.6 * rd_solve_flops(&base, 16));
        // ...while ARD's per-solve cost is proportional to R.
        let ratio = ard_solve_flops(&big, 16) / ard_solve_flops(&base, 16);
        assert!((ratio - 16.0).abs() < 1e-9);
    }

    #[test]
    fn speedup_grows_linearly_then_saturates() {
        let c = Config {
            n: 1024,
            m: 64,
            p: 16,
            r: 1,
        };
        let w = c.nl();
        let s1 = predicted_speedup(&c, w, 1, 1);
        let s8 = predicted_speedup(&c, w, 8, 1);
        let s64 = predicted_speedup(&c, w, 64, 1);
        let s4096 = predicted_speedup(&c, w, 4096, 1);
        assert!(s1 < 1.05, "single RHS: no speedup, got {s1}");
        assert!(s8 > 4.0 && s8 < 9.0, "R=8 speedup ~R, got {s8}");
        assert!(s64 > 20.0, "R=64 speedup substantial, got {s64}");
        // Saturation: bounded by an O(M) constant (ratio of the setup and
        // per-RHS flop constants is ~2.5).
        assert!(s4096 < 3.0 * c.m as f64, "saturates near O(M), got {s4096}");
        assert!(s4096 > s64);
    }

    #[test]
    fn bytes_scale_as_documented() {
        let c1 = Config {
            n: 256,
            m: 8,
            p: 16,
            r: 4,
        };
        let c2 = Config { m: 16, ..c1 };
        // Setup bytes ~ M^2: doubling M quadruples them.
        let ratio = setup_bytes_per_rank(&c2) / setup_bytes_per_rank(&c1);
        assert!((ratio - 4.0).abs() < 1e-9);
        // Solve bytes ~ M R: doubling M doubles them.
        let ratio = ard_solve_bytes_per_rank(&c2) / ard_solve_bytes_per_rank(&c1);
        assert!((ratio - 2.0).abs() < 1e-9);
    }

    #[test]
    fn storage_linear_in_local_rows() {
        let c1 = Config {
            n: 256,
            m: 8,
            p: 4,
            r: 1,
        };
        let c2 = Config { n: 512, ..c1 };
        assert!(ard_storage_bytes(&c2) / ard_storage_bytes(&c1) > 1.9);
    }
}
