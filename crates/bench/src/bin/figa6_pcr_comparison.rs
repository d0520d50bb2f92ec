//! **Figure A6 (extension)** — accelerated recursive doubling vs
//! amortized parallel cyclic reduction (the BCYCLIC-style comparator).
//!
//! Both split matrix-dependent setup from per-RHS solves. PCR carries no
//! prefix products (unconditionally stable) but pays a `log2 N`
//! multiplier on every cost: setup flops, per-solve flops, and per-solve
//! words. This sweep shows the factor directly, plus the accuracy
//! contrast on Poisson where ARD's exact scan breaks down.
//!
//! ```text
//! cargo run --release -p bt-bench --bin figa6_pcr_comparison -- \
//!     --m 8 --p 8 --r 8 --ns 128,256,512,1024,2048 [--csv out.csv]
//! ```

use bt_ard::driver::{ard_solve_cfg, pcr_solve_cfg, DriverConfig};
use bt_ard::state::BoundaryMode;
use bt_bench::{emit, fmt_secs, make_batches, Args, ExpConfig, GenKind, Table};
use bt_blocktri::BlockTridiag;
use bt_mpsim::CostModel;

fn main() {
    let args = Args::from_env();
    let mut cfg = ExpConfig::default_point();
    cfg.m = args.get_usize("m", 8);
    cfg.p = args.get_usize("p", 8);
    cfg.r = args.get_usize("r", 8);
    cfg.gen = GenKind::parse(args.get_str("gen").unwrap_or("poisson"));
    cfg.model = CostModel::cluster();
    let ns = args.get_usize_list("ns", &[128, 256, 512, 1024, 2048]);

    let mut table = Table::new(
        &format!(
            "Figure A6: windowed-ARD vs amortized PCR (gen={}, M={}, P={}, R={})",
            cfg.gen.name(),
            cfg.m,
            cfg.p,
            cfg.r
        ),
        &[
            "N",
            "ard_setup",
            "pcr_setup",
            "ard_solve",
            "pcr_solve",
            "solve_ratio",
            "ard_resid",
            "pcr_resid",
        ],
    );

    for &n in &ns {
        cfg.n = n;
        let src = cfg.source();
        let t = BlockTridiag::from_source(&src);
        let batches = make_batches(&cfg, 2);
        // ARD in windowed mode so it is accurate on Poisson at any N
        // (Figure A1); PCR needs no such help.
        let ard_cfg = DriverConfig::new(cfg.p)
            .with_model(cfg.model)
            .with_boundary(BoundaryMode::Windowed(64));
        let pcr_cfg = DriverConfig::new(cfg.p).with_model(cfg.model);
        let ard = ard_solve_cfg(&ard_cfg, &src, &batches).expect("ard");
        let pcr = pcr_solve_cfg(&pcr_cfg, &src, &batches).expect("pcr");
        let ard_solve = ard.timings.solve_modeled.iter().sum::<f64>() / 2.0;
        let pcr_solve = pcr.timings.solve_modeled.iter().sum::<f64>() / 2.0;
        table.row(&[
            n.to_string(),
            fmt_secs(ard.timings.setup_modeled),
            fmt_secs(pcr.timings.setup_modeled),
            fmt_secs(ard_solve),
            fmt_secs(pcr_solve),
            format!("{:.1}", pcr_solve / ard_solve),
            format!("{:.1e}", t.rel_residual(&ard.x[0], &batches[0])),
            format!("{:.1e}", t.rel_residual(&pcr.x[0], &batches[0])),
        ]);
    }
    emit(&args, &table);
    println!(
        "Expected shape: both residual columns at machine precision; PCR's\n\
         per-solve cost exceeds ARD's by ~0.4 * log2(N) while ARD's\n\
         correction windows span whole slices (PCR's 4 M^2 R flops per row\n\
         PER LEVEL vs ARD's 10 M^2 R per row once) and by up to\n\
         ~0.67 * log2(N) once they are short against N/P (6 M^2 R per\n\
         row), growing from ~2.5 at N=128 to ~6 at N=2048; PCR setup pays\n\
         the full log2(N) multiplier (~11x at N=2048) — the\n\
         work/robustness trade-off between cyclic-reduction and\n\
         prefix-computation methods."
    );
}
