//! # bt-bench: the experiment harness
//!
//! Regenerates every table and figure of the reconstructed evaluation
//! (DESIGN.md §5). Each experiment is a binary under `src/bin/`:
//!
//! | binary | claim checked |
//! |---|---|
//! | `table1_complexity` | measured flops/bytes match the analytic model |
//! | `fig1_runtime_vs_r` | RD grows ~M^3 per RHS, ARD ~M^2 per RHS |
//! | `fig2_speedup_vs_r` | speedup ≈ R/(1 + R/M): the "O(R) improvement" |
//! | `fig3_strong_scaling` | both scale as N/P + log P; ARD keeps its edge |
//! | `fig4_runtime_vs_n` | linear in N at fixed P |
//! | `fig5_runtime_vs_m` | RD ~ M^3, ARD solve ~ M^2 |
//! | `table2_breakdown` | setup amortized after ~1-2 batches |
//! | `table3_accuracy` | residual envelope across generators and N |
//! | `fig6_comm_volume` | ARD per-solve traffic O(M R) vs RD O(M^2 + M R) |
//! | `fig7_crossover` | total-time crossover R* is 1-2 |
//! | `figa1_windowed_ablation` | windowed vs exact-scan boundary (extension) |
//!
//! Run any of them with `cargo run --release -p bt-bench --bin <name>`;
//! all sweep parameters can be overridden (`--n`, `--m`, `--p`, ...) and
//! `--csv <path>` writes machine-readable output. Criterion
//! microbenchmarks for the kernels live under `benches/`.

pub mod cli;
pub mod record;
pub mod table;
pub mod workloads;

pub use cli::{emit, emit_obs, Args};
pub use record::{BenchRecord, Better};
pub use table::{fmt_bytes, fmt_flops, fmt_secs, Table};
pub use workloads::{make_batches, run_ard, run_rd, run_thomas, ExpConfig, GenKind, Measured};

/// Best-of-`reps` wall seconds of one call of `f`, after one warm-up
/// call (page-in, kernel scratch).
pub fn time_best(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = std::time::Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}
