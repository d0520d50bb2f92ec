//! **Table II** — accelerated algorithm phase breakdown and memory price.
//!
//! Claim: the one-time setup dominates a single solve by a factor ~`M`
//! (so it is amortized after the first one or two right-hand-side
//! batches), at a storage cost of ~`3 M^2` doubles per local row.
//!
//! ```text
//! cargo run --release -p bt-bench --bin table2_breakdown -- \
//!     --n 512 --m 32 --p 8 --r 8 --batches 8 [--csv out.csv]
//! ```

use bt_bench::{
    emit, fmt_bytes, fmt_secs, make_batches, run_ard, run_rd, Args, ExpConfig, GenKind, Table,
};

fn main() {
    let args = Args::from_env();
    let mut cfg = ExpConfig::default_point();
    cfg.n = args.get_usize("n", 512);
    cfg.m = args.get_usize("m", 32);
    cfg.p = args.get_usize("p", 8);
    cfg.r = args.get_usize("r", 8);
    cfg.gen = GenKind::parse(args.get_str("gen").unwrap_or("clustered"));
    let nbatches = args.get_usize("batches", 8);

    let batches = make_batches(&cfg, nbatches);
    let ard = run_ard(&cfg, &batches, true);
    let rd = run_rd(&cfg, &batches, true);

    let mut table = Table::new(
        &format!(
            "Table II: ARD breakdown (N={}, M={}, P={}, R={}, {} batches)",
            cfg.n, cfg.m, cfg.p, cfg.r, nbatches
        ),
        &["quantity", "value"],
    );
    table.row(&["ard setup wall".into(), fmt_secs(ard.setup_wall)]);
    table.row(&["ard setup modeled".into(), fmt_secs(ard.setup_modeled)]);
    table.row(&[
        "ard per-batch solve wall".into(),
        fmt_secs(ard.solve_wall_mean),
    ]);
    table.row(&[
        "ard per-batch solve modeled".into(),
        fmt_secs(ard.solve_modeled_mean),
    ]);
    table.row(&[
        "setup / solve ratio (modeled)".into(),
        format!("{:.1}", ard.setup_modeled / ard.solve_modeled_mean),
    ]);
    table.row(&["rd per-batch wall".into(), fmt_secs(rd.solve_wall_mean)]);
    table.row(&[
        "rd per-batch modeled".into(),
        fmt_secs(rd.solve_modeled_mean),
    ]);
    let gain = rd.solve_modeled_mean - ard.solve_modeled_mean;
    let amortize = (ard.setup_modeled / gain).ceil();
    table.row(&["batches to amortize setup".into(), format!("{amortize:.0}")]);
    table.row(&[
        "stored factors (peak/rank)".into(),
        fmt_bytes(ard.factor_bytes),
    ]);
    table.row(&[
        "worst residual (ard)".into(),
        format!("{:.2e}", ard.residual),
    ]);
    table.row(&["worst residual (rd)".into(), format!("{:.2e}", rd.residual)]);
    emit(&args, &table);
    println!(
        "Expected shape: setup/solve ratio ~O(M/R); amortization after 1-2\n\
         batches; storage ~3 M^2 doubles per local row; residuals equal for\n\
         both algorithms (identical arithmetic)."
    );
}
