//! **Table IV (extension)** — the self-diagnosing strategy ladder.
//!
//! During every exact-scan setup the solver measures the conditioning of
//! its boundary extraction (`ArdRankFactors::boundary_condition`), which
//! predicts the accuracy envelope *before any right-hand side is
//! solved*. `auto_solve` uses it to escalate: exact scan → windowed
//! (verified) → parallel cyclic reduction. This table shows the
//! diagnostic value and the chosen strategy across generators and sizes,
//! with the achieved residual.
//!
//! ```text
//! cargo run --release -p bt-bench --bin table4_auto_strategy [--csv out.csv]
//! ```

use bt_ard::auto::{auto_solve, Chosen};
use bt_bench::{emit, make_batches, Args, ExpConfig, GenKind, Table};
use bt_blocktri::BlockTridiag;
use bt_mpsim::CostModel;

fn main() {
    let args = Args::from_env();
    let m = args.get_usize("m", 6);
    let p = args.get_usize("p", 8);
    let ns = args.get_usize_list("ns", &[16, 64, 256, 1024]);
    let gens = [
        GenKind::Clustered,
        GenKind::Poisson,
        GenKind::ConvDiff,
        GenKind::RandomDominant,
    ];

    let mut table = Table::new(
        &format!("Table IV: automatic strategy selection (M={m}, P={p}, R=4)"),
        &["gen", "N", "chosen", "evidence", "residual"],
    );

    for gen in gens {
        for &n in &ns {
            let mut cfg = ExpConfig::default_point();
            cfg.n = n;
            cfg.m = m;
            cfg.p = p.min(n);
            cfg.r = 4;
            cfg.gen = gen;
            let src = cfg.source();
            let t = BlockTridiag::from_source(&src);
            let batches = make_batches(&cfg, 1);
            match auto_solve(cfg.p, CostModel::zero(), &src, &batches) {
                Ok(auto) => {
                    let (chosen, evidence) = match &auto.chosen {
                        Chosen::ExactScan { boundary_condition } => (
                            "exact-scan".to_string(),
                            format!("cond {boundary_condition:.1e}"),
                        ),
                        Chosen::Windowed { reason, residual } => (
                            "windowed".to_string(),
                            format!("{} (verified {residual:.0e})", truncate(reason, 34)),
                        ),
                        Chosen::Pcr { reason } => ("pcr".to_string(), truncate(reason, 42)),
                    };
                    let res = t.rel_residual(&auto.outcome.x[0], &batches[0]);
                    table.row(&[
                        gen.name().into(),
                        n.to_string(),
                        chosen,
                        evidence,
                        format!("{res:.1e}"),
                    ]);
                }
                Err(e) => {
                    table.row(&[
                        gen.name().into(),
                        n.to_string(),
                        "none".into(),
                        format!("breakdown({})", e.row),
                        "-".into(),
                    ]);
                }
            }
        }
    }
    emit(&args, &table);
    println!(
        "Expected shape: clustered systems stay on the exact scan (cond ~1);\n\
         wide-spectrum systems trip the conditioning diagnostic and land on\n\
         windowed; every row's final residual is at machine precision —\n\
         including the 'gray zone' sizes where the raw exact scan would have\n\
         silently returned 1e-3-quality answers."
    );
}

fn truncate(s: &str, n: usize) -> String {
    if s.len() <= n {
        s.to_string()
    } else {
        format!("{}...", &s[..n])
    }
}
