//! **Figure 7** — crossover point: how many right-hand sides before the
//! accelerated algorithm's setup pays for itself?
//!
//! Claim: because one classic-RD solve costs at least as much as the
//! accelerated setup, the crossover `R*` is 1-2 — acceleration wins
//! essentially immediately, and everything beyond `R*` is pure gain.
//!
//! `R*` is derived from measured modeled times
//! (`R* = ceil(setup / (rd_batch - ard_batch))`).
//!
//! ```text
//! cargo run --release -p bt-bench --bin fig7_crossover -- \
//!     --n 512 --p 8 --ms 4,8,16,32,64 [--csv out.csv]
//! ```

use bt_bench::{emit, fmt_secs, make_batches, run_ard, run_rd, Args, ExpConfig, GenKind, Table};

fn main() {
    let args = Args::from_env();
    let mut cfg = ExpConfig::default_point();
    cfg.n = args.get_usize("n", 512);
    cfg.p = args.get_usize("p", 8);
    cfg.r = args.get_usize("r", 1);
    cfg.gen = GenKind::parse(args.get_str("gen").unwrap_or("clustered"));
    let ms = args.get_usize_list("ms", &[4, 8, 16, 32, 64]);

    let mut table = Table::new(
        &format!(
            "Figure 7: crossover R* vs M (N={}, P={}, R={}/batch)",
            cfg.n, cfg.p, cfg.r
        ),
        &["M", "ard_setup", "ard_batch", "rd_batch", "Rstar_measured"],
    );

    for &m in &ms {
        cfg.m = m;
        let batches = make_batches(&cfg, 4);
        let rd = run_rd(&cfg, &batches, false);
        let ard = run_ard(&cfg, &batches, false);
        let gain = rd.solve_modeled_mean - ard.solve_modeled_mean;
        let rstar = if gain > 0.0 {
            (ard.setup_modeled / gain).ceil()
        } else {
            f64::INFINITY
        };
        table.row(&[
            m.to_string(),
            fmt_secs(ard.setup_modeled),
            fmt_secs(ard.solve_modeled_mean),
            fmt_secs(rd.solve_modeled_mean),
            format!("{rstar:.0}"),
        ]);
    }
    emit(&args, &table);
    println!(
        "Expected shape: R* = 1-2 for every M (one RD solve already contains\n\
         the whole setup's work), so acceleration pays off from the second\n\
         right-hand side at the latest."
    );
}
