//! Shared experiment machinery: generator selection, batch construction,
//! and a uniform measurement wrapper around the RD/ARD drivers.
//!
//! Every experiment binary builds an [`ExpConfig`] (with CLI overrides),
//! obtains batches via [`make_batches`], and runs [`run_rd`] /
//! [`run_ard`] / [`run_thomas`], all of which produce a [`Measured`] with
//! wall time, modeled time, counters and residuals — the columns the
//! tables and figures report.

use std::time::Instant;

use bt_ard::driver::{ard_solve_cfg, rd_solve_cfg, DistOutcome, DriverConfig};
use bt_ard::state::BoundaryMode;
use bt_blocktri::gen::{
    random_rhs, ClusteredToeplitz, ConvectionDiffusion, Poisson2D, RandomDominant,
};
use bt_blocktri::thomas::ThomasFactors;
use bt_blocktri::{BlockRowSource, BlockTridiag, BlockVec};
use bt_mpsim::CostModel;

/// Which system generator an experiment uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GenKind {
    /// [`ClusteredToeplitz::standard`] — the default: clustered block
    /// spectra, accurate for any `N` (the paper's application regime).
    Clustered,
    /// [`Poisson2D`] — the classic SPD model problem.
    Poisson,
    /// [`ConvectionDiffusion`] with Péclet 0.5 — nonsymmetric.
    ConvDiff,
    /// [`RandomDominant`] with margin 1.5 — random dense blocks.
    RandomDominant,
}

impl GenKind {
    /// Parses a generator name from the CLI.
    ///
    /// # Panics
    ///
    /// Panics on unknown names.
    pub fn parse(name: &str) -> Self {
        match name {
            "clustered" => Self::Clustered,
            "poisson" => Self::Poisson,
            "convdiff" => Self::ConvDiff,
            "random" => Self::RandomDominant,
            other => panic!("unknown generator '{other}' (clustered|poisson|convdiff|random)"),
        }
    }

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Clustered => "clustered",
            Self::Poisson => "poisson",
            Self::ConvDiff => "convdiff",
            Self::RandomDominant => "random",
        }
    }

    /// Builds the generator.
    pub fn build(&self, n: usize, m: usize, seed: u64) -> Box<dyn BlockRowSource + Sync> {
        match self {
            Self::Clustered => Box::new(ClusteredToeplitz::standard(n, m, seed)),
            Self::Poisson => Box::new(Poisson2D::new(n, m)),
            Self::ConvDiff => Box::new(ConvectionDiffusion::new(n, m, 0.5)),
            Self::RandomDominant => Box::new(RandomDominant::new(n, m, 1.5, seed)),
        }
    }
}

/// One experiment configuration point.
#[derive(Debug, Clone, Copy)]
pub struct ExpConfig {
    /// Block rows.
    pub n: usize,
    /// Block order.
    pub m: usize,
    /// Ranks.
    pub p: usize,
    /// Columns per right-hand-side batch.
    pub r: usize,
    /// System seed.
    pub seed: u64,
    /// Generator.
    pub gen: GenKind,
    /// Virtual-time cost model.
    pub model: CostModel,
    /// Phase 1 boundary mode.
    pub boundary: BoundaryMode,
}

impl ExpConfig {
    /// A sensible default configuration (overridden per experiment).
    pub fn default_point() -> Self {
        Self {
            n: 512,
            m: 16,
            p: 8,
            r: 1,
            seed: 2014,
            gen: GenKind::Clustered,
            model: CostModel::cluster(),
            boundary: BoundaryMode::ExactScan,
        }
    }

    /// Builds the generator for this configuration.
    pub fn source(&self) -> Box<dyn BlockRowSource + Sync> {
        self.gen.build(self.n, self.m, self.seed)
    }

    /// The driver configuration for this point.
    pub fn driver(&self) -> DriverConfig {
        DriverConfig::new(self.p)
            .with_model(self.model)
            .with_boundary(self.boundary)
    }

    /// An `bt_ard::complexity::Config` mirror of this point.
    pub fn complexity(&self) -> bt_ard::complexity::Config {
        bt_ard::complexity::Config {
            n: self.n,
            m: self.m,
            p: self.p,
            r: self.r,
        }
    }
}

/// `count` independent right-hand-side batches of width `cfg.r` each.
pub fn make_batches(cfg: &ExpConfig, count: usize) -> Vec<BlockVec> {
    (0..count)
        .map(|b| random_rhs(cfg.n, cfg.m, cfg.r, cfg.seed ^ (b as u64 + 1)))
        .collect()
}

/// Uniform measurement record for one solver run.
#[derive(Debug, Clone)]
pub struct Measured {
    /// Which solver produced this record.
    pub solver: &'static str,
    /// Total wall-clock seconds (setup + all solves, max over ranks).
    pub wall: f64,
    /// Total modeled seconds.
    pub modeled: f64,
    /// Setup-only wall seconds.
    pub setup_wall: f64,
    /// Setup-only modeled seconds.
    pub setup_modeled: f64,
    /// Mean per-batch solve wall seconds.
    pub solve_wall_mean: f64,
    /// Mean per-batch solve modeled seconds.
    pub solve_modeled_mean: f64,
    /// Total flops across ranks.
    pub flops: u64,
    /// Total payload bytes sent across ranks.
    pub bytes: u64,
    /// Worst relative residual across batches (NaN if not checked).
    pub residual: f64,
    /// Peak per-rank stored factor bytes.
    pub factor_bytes: u64,
    /// Widest correction window any rank replays (rows; 0 for Thomas).
    pub correction_window: usize,
}

fn summarize(
    solver: &'static str,
    out: &DistOutcome,
    t: Option<&BlockTridiag>,
    batches: &[BlockVec],
) -> Measured {
    let residual = match t {
        None => f64::NAN,
        Some(t) => batches
            .iter()
            .zip(&out.x)
            .map(|(y, x)| t.rel_residual(x, y))
            .fold(0.0, f64::max),
    };
    let nb = batches.len() as f64;
    Measured {
        solver,
        wall: out.timings.total_wall().as_secs_f64(),
        modeled: out.timings.total_modeled(),
        setup_wall: out.timings.setup_wall.as_secs_f64(),
        setup_modeled: out.timings.setup_modeled,
        solve_wall_mean: out
            .timings
            .solve_wall
            .iter()
            .map(|d| d.as_secs_f64())
            .sum::<f64>()
            / nb,
        solve_modeled_mean: out.timings.solve_modeled.iter().sum::<f64>() / nb,
        flops: out.stats.total().flops,
        bytes: out.stats.total().bytes_sent,
        residual,
        factor_bytes: out.factor_bytes,
        correction_window: out.correction_window,
    }
}

/// Runs classic recursive doubling over `batches`.
///
/// `check` materializes the matrix and computes residuals (skip for large
/// timing-only sweeps).
pub fn run_rd(cfg: &ExpConfig, batches: &[BlockVec], check: bool) -> Measured {
    let src = cfg.source();
    let out = rd_solve_cfg(&cfg.driver(), &src, batches).expect("rd solve failed");
    let t = check.then(|| BlockTridiag::from_source(&src));
    summarize("rd", &out, t.as_ref(), batches)
}

/// Runs accelerated recursive doubling over `batches`.
pub fn run_ard(cfg: &ExpConfig, batches: &[BlockVec], check: bool) -> Measured {
    let src = cfg.source();
    let out = ard_solve_cfg(&cfg.driver(), &src, batches).expect("ard solve failed");
    let t = check.then(|| BlockTridiag::from_source(&src));
    summarize("ard", &out, t.as_ref(), batches)
}

/// Runs the sequential block Thomas baseline (factor once, solve each
/// batch) and reports wall time; modeled time and counters are zero
/// (it does not run on the message-passing runtime).
pub fn run_thomas(cfg: &ExpConfig, batches: &[BlockVec], check: bool) -> Measured {
    let src = cfg.source();
    let t = BlockTridiag::from_source(&src);
    let t0 = Instant::now();
    let factors = ThomasFactors::factor(&t).expect("thomas factor failed");
    let setup_wall = t0.elapsed().as_secs_f64();
    let mut xs = Vec::with_capacity(batches.len());
    let mut solve_walls = Vec::with_capacity(batches.len());
    for y in batches {
        let s0 = Instant::now();
        xs.push(factors.solve(y));
        solve_walls.push(s0.elapsed().as_secs_f64());
    }
    let residual = if check {
        batches
            .iter()
            .zip(&xs)
            .map(|(y, x)| t.rel_residual(x, y))
            .fold(0.0, f64::max)
    } else {
        f64::NAN
    };
    let nb = batches.len() as f64;
    Measured {
        solver: "thomas",
        wall: setup_wall + solve_walls.iter().sum::<f64>(),
        modeled: 0.0,
        setup_wall,
        setup_modeled: 0.0,
        solve_wall_mean: solve_walls.iter().sum::<f64>() / nb,
        solve_modeled_mean: 0.0,
        flops: 0,
        bytes: 0,
        residual,
        factor_bytes: 0,
        correction_window: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn genkind_parse_roundtrip() {
        for k in [
            GenKind::Clustered,
            GenKind::Poisson,
            GenKind::ConvDiff,
            GenKind::RandomDominant,
        ] {
            assert_eq!(GenKind::parse(k.name()), k);
        }
    }

    #[test]
    #[should_panic(expected = "unknown generator")]
    fn genkind_rejects_unknown() {
        let _ = GenKind::parse("nope");
    }

    #[test]
    fn batches_have_requested_shape() {
        let mut cfg = ExpConfig::default_point();
        cfg.n = 16;
        cfg.m = 3;
        cfg.r = 5;
        let b = make_batches(&cfg, 2);
        assert_eq!(b.len(), 2);
        assert_eq!(b[0].n(), 16);
        assert_eq!(b[0].r(), 5);
        assert_ne!(b[0], b[1]);
    }

    #[test]
    fn measurement_smoke() {
        let mut cfg = ExpConfig::default_point();
        cfg.n = 32;
        cfg.m = 3;
        cfg.p = 2;
        cfg.r = 2;
        cfg.model = CostModel::zero();
        let batches = make_batches(&cfg, 2);
        let rd = run_rd(&cfg, &batches, true);
        let ard = run_ard(&cfg, &batches, true);
        let th = run_thomas(&cfg, &batches, true);
        assert!(rd.residual < 1e-8 && ard.residual < 1e-8 && th.residual < 1e-12);
        assert!(ard.flops < rd.flops);
        assert!(rd.factor_bytes == 0 && ard.factor_bytes > 0);
    }
}
