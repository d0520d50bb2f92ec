//! **Table I** — measured cost vs the analytic complexity model.
//!
//! Claim: recursive doubling costs `O(M^3 (N/P + log P))` per solve; the
//! accelerated setup costs the same once and each solve then costs
//! `O(M^2 R (N/P + log P))`. The `bt_ard::complexity` module spells out
//! the constants of this implementation; this table validates them
//! against the runtime's *measured* flop and byte counters over an
//! (N, M, P, R) grid. Ratios near 1.0 mean the model captures the
//! implementation (small excess comes from boundary work the leading
//! terms ignore). The solve model takes the run's correction window `w`
//! (the widest any rank replays, reported in its own column), which
//! setup derives from the matrix.
//!
//! The table is a gate: the binary exits nonzero when a flop ratio
//! leaves `[0.95, 1.05]`.
//!
//! ```text
//! cargo run --release -p bt-bench --bin table1_complexity [--csv out.csv]
//! ```

use bt_ard::complexity::{
    ard_solve_bytes_per_rank, ard_solve_flops, setup_bytes_per_rank, setup_flops,
};
use bt_ard::driver::{ard_solve_cfg, DriverConfig};
use bt_bench::{emit, make_batches, Args, ExpConfig, GenKind, Table};
use bt_mpsim::CostModel;

/// Flop ratios outside this band mean the model no longer describes the
/// implementation.
const FLOP_RATIO_BAND: std::ops::RangeInclusive<f64> = 0.95..=1.05;

fn main() {
    let args = Args::from_env();
    let grid: Vec<(usize, usize, usize, usize)> = vec![
        (256, 8, 4, 4),
        (256, 16, 4, 4),
        (512, 16, 8, 8),
        (512, 32, 8, 8),
        (1024, 16, 16, 16),
        (1024, 32, 16, 4),
    ];

    let mut table = Table::new(
        "Table I: measured vs modeled cost (per most-loaded rank)",
        &[
            "N",
            "M",
            "P",
            "R",
            "w",
            "setup_flops_ratio",
            "solve_flops_ratio",
            "setup_bytes_ratio",
            "solve_bytes_ratio",
        ],
    );

    let mut outside = Vec::new();
    for (n, m, p, r) in grid {
        let mut cfg = ExpConfig::default_point();
        cfg.n = n;
        cfg.m = m;
        cfg.p = p;
        cfg.r = r;
        cfg.gen = GenKind::Clustered;
        cfg.model = CostModel::zero();
        let src = cfg.source();
        let driver = DriverConfig::new(p).with_model(CostModel::zero());

        // One batch isolates setup counters from solve counters: run with
        // one batch and with two, and difference the totals.
        let b1 = make_batches(&cfg, 1);
        let b2 = make_batches(&cfg, 2);
        let out1 = ard_solve_cfg(&driver, &src, &b1).expect("solve failed");
        let out2 = ard_solve_cfg(&driver, &src, &b2).expect("solve failed");

        let max_flops_1 = out1.stats.max_flops() as f64;
        let max_flops_2 = out2.stats.max_flops() as f64;
        let solve_flops_meas = max_flops_2 - max_flops_1;
        let setup_flops_meas = max_flops_1 - solve_flops_meas;

        let max_bytes_1 = out1.stats.max_bytes_sent() as f64;
        let max_bytes_2 = out2.stats.max_bytes_sent() as f64;
        let solve_bytes_meas = max_bytes_2 - max_bytes_1;
        let setup_bytes_meas = max_bytes_1 - solve_bytes_meas;

        let c = cfg.complexity();
        let w = out1.correction_window;
        let setup_ratio = setup_flops_meas / setup_flops(&c);
        let solve_ratio = solve_flops_meas / ard_solve_flops(&c, w);
        for (what, ratio) in [("setup", setup_ratio), ("solve", solve_ratio)] {
            if !FLOP_RATIO_BAND.contains(&ratio) {
                outside.push(format!(
                    "N={n} M={m} P={p} R={r}: {what} flop ratio {ratio:.3}"
                ));
            }
        }
        table.row(&[
            n.to_string(),
            m.to_string(),
            p.to_string(),
            r.to_string(),
            w.to_string(),
            format!("{setup_ratio:.2}"),
            format!("{solve_ratio:.2}"),
            format!("{:.2}", setup_bytes_meas / setup_bytes_per_rank(&c)),
            format!("{:.2}", solve_bytes_meas / ard_solve_bytes_per_rank(&c)),
        ]);
    }
    emit(&args, &table);
    println!(
        "Expected shape: flop ratios ~1.0 (the model's constants match the\n\
         implementation); byte ratios slightly below 1.0 because the model\n\
         counts a maximal sender participating in every round of every scan,\n\
         while no single rank sends maximally in both scan directions."
    );
    if !outside.is_empty() {
        for line in &outside {
            eprintln!(
                "table1_complexity: {line} is outside [{}, {}]",
                FLOP_RATIO_BAND.start(),
                FLOP_RATIO_BAND.end()
            );
        }
        std::process::exit(1);
    }
}
