//! Seeded inputs: the general matrix generator, the workloads' matrices,
//! right-hand-side pools and request sequences. Everything here is a
//! pure function of the workload name and the `--seed` argument.

use std::collections::BTreeMap;

use bt_blocktri::gen::{materialize, random_rhs, row_seed, ClusteredToeplitz};
use bt_blocktri::{BlockRow, BlockRowSource, BlockTridiag, BlockVec};
use bt_dense::random::{rng, uniform};
use bt_dense::Mat;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = [
    "replay-wide",
    "serve-narrow",
    "setup-churn",
    "structured-mix",
];

/// Byte budget of one right-hand-side pool (per distinct `N`).
const POOL_BYTES: usize = 32 << 20;

/// Clustered blocks with a fresh seeded perturbation on every row:
/// `B_i = 8 I + eps U`, `A_i = C_i = -I + eps U` with `eps = 1e-3 / M`
/// and `U` uniform in `[-1, 1)`, redrawn per row and per block.
///
/// The library's row-varying generators lose accuracy under the exact
/// scan once `N >= 64`, and its clustered generator has exactly constant
/// blocks (so the service routes it to the Toeplitz path). This one is
/// row-varying, so it is routed to the general path, and clustered
/// tightly enough to stay accurate at every workload's shape.
#[derive(Debug, Clone)]
pub struct ClusteredRows {
    n: usize,
    m: usize,
    seed: u64,
}

impl ClusteredRows {
    /// Creates the generator.
    pub fn new(n: usize, m: usize, seed: u64) -> Self {
        assert!(n > 0 && m > 0, "empty system");
        Self { n, m, seed }
    }
}

impl BlockRowSource for ClusteredRows {
    fn n(&self) -> usize {
        self.n
    }

    fn m(&self) -> usize {
        self.m
    }

    fn row(&self, i: usize) -> BlockRow {
        assert!(i < self.n, "row {i} out of range {}", self.n);
        let m = self.m;
        let eps = 1.0e-3 / m as f64;
        let mut rg = rng(row_seed(self.seed, i as u64));
        let mut block = |diag: f64| {
            let mut b = uniform(m, m, &mut rg);
            b.scale(eps);
            for k in 0..m {
                b.set(k, k, b.get(k, k) + diag);
            }
            b
        };
        let a = block(-1.0);
        let b = block(8.0);
        let c = block(-1.0);
        BlockRow::new(
            if i == 0 { Mat::zeros(m, m) } else { a },
            b,
            if i + 1 == self.n { Mat::zeros(m, m) } else { c },
        )
    }
}

/// A materialized matrix as the service sees it: a row source over
/// stored rows, so generating inputs never counts as the program's work.
pub struct Materialized<'a>(pub &'a BlockTridiag);

impl BlockRowSource for Materialized<'_> {
    fn n(&self) -> usize {
        self.0.n()
    }

    fn m(&self) -> usize {
        self.0.m()
    }

    fn row(&self, i: usize) -> BlockRow {
        self.0.row(i).clone()
    }
}

/// The kind of system the benchmark generated, and so the service path
/// it is meant to exercise. The service picks the path itself; the
/// benchmark only labels requests by what it generated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Row-varying blocks: the general ARD path.
    General,
    /// Exactly constant blocks with `N/P >= 32`: the Toeplitz path.
    Toeplitz,
    /// Row-varying blocks with `N <= 64`: the batched-small path.
    Small,
}

impl Class {
    /// Label used in span and metric names.
    pub fn name(self) -> &'static str {
        match self {
            Class::General => "general",
            Class::Toeplitz => "toeplitz",
            Class::Small => "small",
        }
    }
}

/// One matrix of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spec {
    pub class: Class,
    pub n: usize,
    pub m: usize,
    pub seed: u64,
}

impl Spec {
    fn build(&self) -> BlockTridiag {
        match self.class {
            Class::Toeplitz => materialize(&ClusteredToeplitz::standard(self.n, self.m, self.seed)),
            Class::General | Class::Small => {
                materialize(&ClusteredRows::new(self.n, self.m, self.seed))
            }
        }
    }
}

/// How a workload's requests choose their matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pattern {
    /// Always matrix 0.
    Single,
    /// Uniformly at random.
    Uniform,
    /// Even requests go to one of the first `toeplitz` matrices, odd
    /// requests to one of the rest.
    Alternate { toeplitz: usize },
    /// Jobs walk a seeded permutation of the matrices, round and round.
    Cycle,
}

/// One request: which matrix, and which right-hand side of its pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    pub matrix: usize,
    pub rhs: usize,
}

/// A workload: its matrices and how the closed loop drives them.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub specs: Vec<Spec>,
    /// Right-hand-side columns per request.
    pub width: usize,
    /// Requests kept in flight by the closed loop (request mode).
    pub outstanding: usize,
    /// When nonzero, the unit of work is a job: one `register` followed
    /// by this many requests against the registered matrix.
    pub job_requests: usize,
    /// Factor-cache budget, when the workload overrides the default.
    pub cache_bytes: Option<u64>,
    pattern: Pattern,
    seed: u64,
    order: Vec<usize>,
}

impl Workload {
    /// The named workload at `seed`, or `None` for an unknown name.
    pub fn new(name: &str, seed: u64) -> Option<Self> {
        let spec = |class, n, m, i: u64| Spec {
            class,
            n,
            m,
            seed: row_seed(seed, 0x6d61_7472_0000 + i),
        };
        let general = |count: u64, n, m| -> Vec<Spec> {
            (0..count).map(|i| spec(Class::General, n, m, i)).collect()
        };
        let (name, specs, width, outstanding, job_requests, cache_bytes, pattern) = match name {
            "replay-wide" => (
                NAMES[0],
                general(1, 2048, 16),
                64,
                2,
                0,
                None,
                Pattern::Single,
            ),
            "serve-narrow" => (
                NAMES[1],
                general(4, 1024, 8),
                1,
                64,
                0,
                None,
                Pattern::Uniform,
            ),
            // A budget below one entry's factor bytes: the service always
            // keeps the most recent entry, so exactly one stays cached and
            // every registration of another matrix misses and evicts.
            "setup-churn" => (
                NAMES[2],
                general(8, 512, 16),
                8,
                1,
                4,
                Some(1),
                Pattern::Cycle,
            ),
            "structured-mix" => {
                let mut specs: Vec<Spec> =
                    (0..2).map(|i| spec(Class::Toeplitz, 4096, 8, i)).collect();
                specs.extend((2..258).map(|i| spec(Class::Small, 32, 8, i)));
                let pattern = Pattern::Alternate { toeplitz: 2 };
                (NAMES[3], specs, 1, 64, 0, None, pattern)
            }
            _ => return None,
        };
        // Seeded Fisher-Yates permutation for the cycling pattern.
        let mut order: Vec<usize> = (0..specs.len()).collect();
        for i in (1..order.len()).rev() {
            let j = (row_seed(seed ^ 0x0063_7963_6c65, i as u64) % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        Some(Self {
            name,
            specs,
            width,
            outstanding,
            job_requests,
            cache_bytes,
            pattern,
            seed,
            order,
        })
    }

    /// The `j`-th request of the sequence (in job mode, the `j`-th job's
    /// matrix).
    pub fn pick(&self, j: u64) -> Request {
        let h = row_seed(self.seed ^ 0x0072_6571_7565_7374, j);
        let count = self.specs.len() as u64;
        let matrix = match self.pattern {
            Pattern::Single => 0,
            Pattern::Uniform => (h % count) as usize,
            Pattern::Alternate { toeplitz } => {
                let t = toeplitz as u64;
                if j.is_multiple_of(2) {
                    (h % t) as usize
                } else {
                    (t + h % (count - t)) as usize
                }
            }
            Pattern::Cycle => self.order[(j % count) as usize],
        };
        Request {
            matrix,
            rhs: (h >> 40) as usize,
        }
    }
}

/// A workload's generated inputs: the materialized matrices and one pool
/// of right-hand sides per distinct `N`.
pub struct Inputs {
    pub mats: Vec<BlockTridiag>,
    pools: BTreeMap<usize, Vec<BlockVec>>,
}

impl Inputs {
    /// Generates every matrix and right-hand side the workload uses.
    pub fn build(w: &Workload) -> Self {
        let mats: Vec<BlockTridiag> = w.specs.iter().map(Spec::build).collect();
        let mut pools = BTreeMap::new();
        for s in &w.specs {
            pools.entry(s.n).or_insert_with(|| {
                let bytes = s.n * s.m * w.width * std::mem::size_of::<f64>();
                let count = (POOL_BYTES / bytes).clamp(2, 16);
                (0..count)
                    .map(|k| random_rhs(s.n, s.m, w.width, row_seed(w.seed ^ s.n as u64, k as u64)))
                    .collect()
            });
        }
        Self { mats, pools }
    }

    /// The right-hand side a request carries.
    pub fn rhs(&self, req: Request) -> &BlockVec {
        let pool = &self.pools[&self.mats[req.matrix].n()];
        &pool[req.rhs % pool.len()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::{MODEL, RANKS};
    use bt_ard::{choose_strategy, ArdSessionOn, Strategy};
    use bt_shm::ShmBackend;

    fn requests(w: &Workload) -> Vec<Request> {
        (0..2000).map(|j| w.pick(j)).collect()
    }

    #[test]
    fn same_seed_same_inputs_other_seed_differs() {
        for name in NAMES {
            let (a, b, c) = (
                Workload::new(name, 7).unwrap(),
                Workload::new(name, 7).unwrap(),
                Workload::new(name, 8).unwrap(),
            );
            assert_eq!(a.specs, b.specs, "{name}");
            assert_eq!(requests(&a), requests(&b), "{name}");
            assert_ne!(a.specs, c.specs, "{name}");
            // Only the first matrix and its right-hand sides are built:
            // that is enough to show the bits repeat, and stays quick.
            let one = |w: &Workload| w.specs[0].build();
            assert_eq!(one(&a), one(&b), "{name}");
            assert_ne!(one(&a), one(&c), "{name}");
            assert_ne!(requests(&a), requests(&c), "{name}");
        }
        let (a, c) = (
            Workload::new("setup-churn", 7).unwrap(),
            Workload::new("setup-churn", 8).unwrap(),
        );
        assert_ne!(a.order, c.order, "cycle order must depend on the seed");
        let (ia, ib, ic) = (
            Inputs::build(&Workload::new("serve-narrow", 7).unwrap()),
            Inputs::build(&Workload::new("serve-narrow", 7).unwrap()),
            Inputs::build(&Workload::new("serve-narrow", 8).unwrap()),
        );
        assert_eq!(ia.mats, ib.mats);
        assert_eq!(ia.pools[&1024], ib.pools[&1024]);
        assert_ne!(ia.pools[&1024], ic.pools[&1024]);
    }

    #[test]
    fn request_patterns_cover_their_matrices() {
        let mix = Workload::new("structured-mix", 3).unwrap();
        for j in 0..1000 {
            let r = mix.pick(j);
            assert_eq!(r.matrix < 2, j % 2 == 0, "request {j} went to {}", r.matrix);
        }
        let churn = Workload::new("setup-churn", 3).unwrap();
        let mut seen: Vec<usize> = (0..8).map(|j| churn.pick(j).matrix).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..8).collect::<Vec<_>>());
        assert_ne!(churn.pick(0).matrix, churn.pick(1).matrix);
    }

    #[test]
    fn general_generator_varies_by_row() {
        let g = ClusteredRows::new(16, 4, 1);
        let (r1, r2) = (g.row(1), g.row(2));
        assert_ne!(r1.a, r2.a);
        assert_ne!(r1.b, r2.b);
        assert_ne!(r1.c, r2.c);
        assert_eq!(g.row(0).a, Mat::zeros(4, 4));
        assert_eq!(g.row(15).c, Mat::zeros(4, 4));
        assert_eq!(g.row(5), g.row(5));
    }

    /// Every general shape solves accurately through the ARD session and
    /// is not mistaken for a constant-block system by the router.
    #[test]
    fn general_generator_solves_at_every_workload_shape() {
        let mut shapes: Vec<(usize, usize)> = NAMES
            .iter()
            .flat_map(|name| Workload::new(name, 11).unwrap().specs)
            .filter(|s| s.class != Class::Toeplitz)
            .map(|s| (s.n, s.m))
            .collect();
        shapes.sort_unstable();
        shapes.dedup();
        assert_eq!(shapes.len(), 4);
        for (n, m) in shapes {
            let t = materialize(&ClusteredRows::new(n, m, 11));
            let expect = if n <= 64 {
                Strategy::BatchedSmall
            } else {
                Strategy::General
            };
            assert_eq!(
                choose_strategy(&Materialized(&t), RANKS),
                expect,
                "N={n} M={m}"
            );
            let session = ArdSessionOn::<ShmBackend>::create(RANKS, MODEL, &Materialized(&t))
                .expect("factor");
            let y = random_rhs(n, m, 4, 5);
            let x = session.solve(&y).expect("solve");
            let res = t.rel_residual(&x, &y);
            assert!(res <= 1e-10, "N={n} M={m}: residual {res:e}");
        }
    }
}
