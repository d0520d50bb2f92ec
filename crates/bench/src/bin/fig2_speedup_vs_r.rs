//! **Figure 2** — ARD-over-RD speedup vs `R`, for several block orders.
//!
//! Claim (paper abstract): solving `R` distinct right-hand sides with the
//! accelerated algorithm is `O(R)` faster than classic recursive
//! doubling. The speedup is linear in `R` until it saturates near the
//! flop-constant ratio (~`2.3 M`): `speedup ≈ R / (1 + R c2 / (c3 M))`.
//!
//! ```text
//! cargo run --release -p bt-bench --bin fig2_speedup_vs_r -- \
//!     --n 256 --p 4 --ms 8,16,32 --rs 1,4,16,64,256 [--csv out.csv]
//! ```

use bt_ard::complexity::{predicted_speedup, Config};
use bt_bench::{emit, make_batches, run_ard, run_rd, Args, ExpConfig, GenKind, Table};

fn main() {
    let args = Args::from_env();
    let mut cfg = ExpConfig::default_point();
    cfg.n = args.get_usize("n", 256);
    cfg.p = args.get_usize("p", 4);
    cfg.gen = GenKind::parse(args.get_str("gen").unwrap_or("clustered"));
    let ms = args.get_usize_list("ms", &[8, 16, 32]);
    let rs = args.get_usize_list("rs", &[1, 4, 16, 64, 256]);

    let mut table = Table::new(
        &format!(
            "Figure 2: ARD speedup over RD vs R (N={}, P={})",
            cfg.n, cfg.p
        ),
        &[
            "M",
            "R",
            "speedup_wall",
            "speedup_model",
            "predicted",
            "linear_R",
        ],
    );

    for &m in &ms {
        cfg.m = m;
        for &r_total in &rs {
            cfg.r = 1;
            let batches = make_batches(&cfg, r_total);
            let rd = run_rd(&cfg, &batches, false);
            let ard = run_ard(&cfg, &batches, false);
            let c = Config {
                n: cfg.n,
                m,
                p: cfg.p,
                r: 1,
            };
            table.row(&[
                m.to_string(),
                r_total.to_string(),
                format!("{:.2}", rd.wall / ard.wall),
                format!("{:.2}", rd.modeled / ard.modeled),
                format!(
                    "{:.2}",
                    predicted_speedup(&c, ard.correction_window, r_total, 1)
                ),
                r_total.to_string(),
            ]);
        }
    }
    emit(&args, &table);
    println!(
        "Expected shape: for R << M the measured speedup tracks the linear_R\n\
         column (the O(R) improvement); for R >> M it saturates at an O(M)\n\
         plateau — larger M saturates later and higher."
    );
}
