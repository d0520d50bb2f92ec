//! Batched-small fast path: `K` independent small-`N` block tridiagonal
//! systems solved in one call over an interleaved layout.
//!
//! The paper's Kalman-smoother workload is not one big system — it is
//! thousands of *independent* solves whose blocks are tiny (`M` in
//! {4, 8, 16}) and whose row counts are far below anything worth
//! distributing. The general path treats each as a standalone system:
//! per-solve `Mat` allocation, pivoted LU on blocks too small to fill a
//! SIMD vector, and per-system dispatch overhead.
//!
//! [`BatchedSystems`] instead interleaves `K` same-shaped systems into
//! [`bt_dense::BatchMat`] structure-of-arrays storage and runs one block
//! Thomas elimination whose innermost loops are lanes across the batch
//! (see `bt_dense::batch`): the SIMD width comes from the *batch*
//! dimension, so `M = 4` no longer wastes three quarters of an AVX2
//! vector.
//! The sequential-in-`N` dependency of Thomas elimination is harmless
//! here — each row step still executes `K` systems' worth of
//! independent arithmetic.
//!
//! The lane dimension is split into cache-sized *chunks* (see
//! `lane_chunk`): at `K` in the thousands one interleaved `M x M` block
//! is hundreds of kilobytes, and the rank-1 row updates of the batched
//! LU would stream it from L3 on every step. Chunks of 32–256 lanes
//! keep the active block ~64 KiB so elimination runs out of L2, while
//! each chunk-wide lane-kernel call stays long enough to amortize the
//! runtime SIMD dispatch.
//!
//! Robustness: the batched LU does not pivot (per-lane pivoting would
//! diverge the batch). [`BatchedSystems::factor`] reports the first
//! system whose pivot collapses so callers can re-run it (or the whole
//! group) through [`solve_single`], the pivoted per-system reference
//! used as the crossover baseline in `bench_structured`.

use bt_blocktri::{thomas_solve, BlockRow, BlockRowSource, BlockTridiag, BlockVec, FactorError};
use bt_dense::{batch_gemm, batch_lu_factor, batch_lu_solve, BatchMat, Mat};

/// Batched solves completed through [`BatchedFactors::solve`] (counts
/// calls, not member systems). Unconditional, like the service counters.
static BATCHED_SOLVES: bt_obs::Counter = bt_obs::Counter::new("bt_ard.structured.batched_solves");
/// Member-systems-per-call distribution of the batched path.
static BATCHED_WIDTH: bt_obs::Histogram = bt_obs::Histogram::new("bt_ard.structured.batched_width");

/// A batched factorization breakdown: system `system` (batch lane) hit
/// an unpivotable diagonal at block row `row`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchFactorError {
    /// Global block row of the offending diagonal.
    pub row: usize,
    /// Batch lane of the offending system.
    pub system: usize,
}

impl std::fmt::Display for BatchFactorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "batched factorization: system {} needs pivoting at block row {}",
            self.system, self.row
        )
    }
}

impl std::error::Error for BatchFactorError {}

/// Lane-chunk width for a block order `m`: the largest multiple of 8
/// (two AVX2 `f64` vectors) that keeps one interleaved `M x M` block at
/// or under ~64 KiB, so the row-rank-1 updates of the batched LU run
/// out of L2 instead of streaming megabyte-wide lane arrays from L3 —
/// while keeping each lane-kernel call wide enough to amortize its
/// runtime SIMD dispatch (measured: a 16 KiB / L1 target loses more to
/// dispatch overhead than it gains in locality, a 128 KiB target
/// thrashes L2). `M = 4 -> 256` (clamp), `M = 8 -> 128`, `M = 16 -> 32`
/// lanes per chunk.
fn lane_chunk(m: usize) -> usize {
    let target = 64 * 1024 / (m * m * std::mem::size_of::<f64>());
    (target / 8 * 8).clamp(8, 256)
}

/// One lane chunk of the batch: `kc <= lane_chunk(m)` systems
/// interleaved per block row.
#[derive(Debug, Clone)]
struct SystemsChunk {
    /// First global lane of this chunk.
    k0: usize,
    /// Per row `i`: the chunk's subdiagonal blocks `A_i` (zero lane
    /// content at `i = 0`), diagonals `B_i`, superdiagonals `C_i` (zero
    /// at `i = N-1`).
    a: Vec<BatchMat>,
    b: Vec<BatchMat>,
    c: Vec<BatchMat>,
}

/// `K` independent block tridiagonal systems with identical shape
/// `(N, M)`, stored row-by-row as interleaved block batches, split into
/// cache-sized lane chunks (see `lane_chunk`).
#[derive(Debug, Clone)]
pub struct BatchedSystems {
    n: usize,
    m: usize,
    k: usize,
    chunks: Vec<SystemsChunk>,
}

impl BatchedSystems {
    /// Interleaves `K` same-shaped sources.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice or mismatched `(N, M)` shapes.
    pub fn from_sources<S: BlockRowSource>(sources: &[S]) -> Self {
        assert!(!sources.is_empty(), "empty batch");
        let rows: Vec<Vec<BlockRow>> = sources
            .iter()
            .map(|s| (0..s.n()).map(|i| s.row(i)).collect())
            .collect();
        let refs: Vec<&[BlockRow]> = rows.iter().map(Vec::as_slice).collect();
        Self::from_row_sets(&refs)
    }

    /// Interleaves `K` systems given as materialized row slices (the
    /// form the serving cache stores).
    ///
    /// # Panics
    ///
    /// Panics on an empty slice or mismatched `(N, M)` shapes.
    pub fn from_row_sets(sets: &[&[BlockRow]]) -> Self {
        assert!(!sets.is_empty(), "empty batch");
        let n = sets[0].len();
        let m = sets[0][0].order();
        let k = sets.len();
        assert!(n >= 1, "systems need at least one block row");
        for (s, rows) in sets.iter().enumerate() {
            assert_eq!(rows.len(), n, "system {s} row count mismatch");
            assert_eq!(rows[0].order(), m, "system {s} block order mismatch");
        }
        let ck = lane_chunk(m);
        let chunks = sets
            .chunks(ck)
            .enumerate()
            .map(|(ci, chunk_sets)| {
                let load = |pick: fn(&BlockRow) -> &Mat| -> Vec<BatchMat> {
                    (0..n)
                        .map(|i| {
                            let srcs: Vec<&Mat> =
                                chunk_sets.iter().map(|rows| pick(&rows[i])).collect();
                            BatchMat::interleaved(m, m, &srcs)
                        })
                        .collect()
                };
                SystemsChunk {
                    k0: ci * ck,
                    a: load(|r| &r.a),
                    b: load(|r| &r.b),
                    c: load(|r| &r.c),
                }
            })
            .collect();
        Self { n, m, k, chunks }
    }

    /// Block rows per system.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Block order.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Batch width `K`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Runs the batched block Thomas factorization:
    /// `D_0 = B_0`, `D_i = B_i - A_i (D_{i-1}^{-1} C_{i-1})`, storing
    /// each `LU(D_i)` and the backward coupling `W_i = D_i^{-1} C_i` in
    /// interleaved form, plus the `A_i` needed by forward elimination.
    ///
    /// # Errors
    ///
    /// [`BatchFactorError`] naming the first system whose unpivoted LU
    /// breaks down; retry that workload through [`solve_single`].
    pub fn factor(&self) -> Result<BatchedFactors, BatchFactorError> {
        let n = self.n;
        let chunks = self
            .chunks
            .iter()
            .map(|chunk| {
                let mut d_lu: Vec<BatchMat> = Vec::with_capacity(n);
                let mut w: Vec<BatchMat> = Vec::with_capacity(n.saturating_sub(1));
                for i in 0..n {
                    let mut d = chunk.b[i].clone();
                    if i > 0 {
                        // D_i = B_i - A_i W_{i-1}.
                        batch_gemm(-1.0, &chunk.a[i], &w[i - 1], 1.0, &mut d);
                    }
                    batch_lu_factor(&mut d).map_err(|e| BatchFactorError {
                        row: i,
                        system: chunk.k0 + e.system,
                    })?;
                    if i + 1 < n {
                        // W_i = D_i^{-1} C_i (lane-wise panel solve).
                        let mut wi = chunk.c[i].clone();
                        batch_lu_solve(&d, &mut wi);
                        w.push(wi);
                    }
                    d_lu.push(d);
                }
                Ok(FactorChunk {
                    k0: chunk.k0,
                    d_lu,
                    w,
                    a: chunk.a.clone(),
                })
            })
            .collect::<Result<Vec<_>, BatchFactorError>>()?;
        Ok(BatchedFactors {
            n,
            m: self.m,
            k: self.k,
            chunks,
        })
    }
}

/// One lane chunk's worth of batched Thomas factors.
#[derive(Debug, Clone)]
struct FactorChunk {
    /// First global lane of this chunk.
    k0: usize,
    /// Interleaved `LU(D_i)` per row.
    d_lu: Vec<BatchMat>,
    /// Interleaved `W_i = D_i^{-1} C_i` for `i < N-1`.
    w: Vec<BatchMat>,
    /// Interleaved `A_i` (forward elimination operand).
    a: Vec<BatchMat>,
}

/// Reusable batched Thomas factors: solve any number of right-hand-side
/// batches against the same `K` systems.
#[derive(Debug, Clone)]
pub struct BatchedFactors {
    n: usize,
    m: usize,
    k: usize,
    chunks: Vec<FactorChunk>,
}

impl BatchedFactors {
    /// Block rows per system.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Block order.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Batch width `K`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Bytes of interleaved factor storage.
    pub fn storage_bytes(&self) -> u64 {
        self.chunks
            .iter()
            .flat_map(|c| c.d_lu.iter().chain(&c.w).chain(&c.a))
            .map(BatchMat::storage_bytes)
            .sum()
    }

    /// One chunk's forward/backward sweep, `kc` lanes wide per step:
    /// forward `h_i = D_i^{-1} (y_i - A_i h_{i-1})`, backward
    /// `x_i = h_i - W_i x_{i+1}`, in place over the interleaved rhs.
    fn sweep_chunk(&self, chunk: &FactorChunk, h: &mut [BatchMat]) {
        for i in 0..self.n {
            if i > 0 {
                let (done, rest) = h.split_at_mut(i);
                batch_gemm(-1.0, &chunk.a[i], &done[i - 1], 1.0, &mut rest[0]);
            }
            batch_lu_solve(&chunk.d_lu[i], &mut h[i]);
        }
        for i in (0..self.n.saturating_sub(1)).rev() {
            let (head, tail) = h.split_at_mut(i + 1);
            batch_gemm(-1.0, &chunk.w[i], &tail[0], 1.0, &mut head[i]);
        }
    }

    /// Solves all `K` systems for one right-hand side each: `ys[s]` is
    /// system `s`'s [`BlockVec`] (all must share `R`). The interleave at
    /// the boundary, the lane-chunked sweeps (so one chunk's rhs and
    /// factor rows stay cache-resident) and the de-interleave happen
    /// per chunk.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch or unequal `R` across the batch.
    pub fn solve_blockvecs(&self, ys: &[&BlockVec]) -> Vec<BlockVec> {
        assert_eq!(ys.len(), self.k, "batch width mismatch");
        let r = ys[0].r();
        for (s, y) in ys.iter().enumerate() {
            assert_eq!(y.n(), self.n, "system {s} rhs block count");
            assert_eq!(y.m(), self.m, "system {s} rhs block order");
            assert_eq!(y.r(), r, "system {s} rhs width (batch needs equal R)");
        }
        let mut out: Vec<BlockVec> = Vec::with_capacity(self.k);
        for chunk in &self.chunks {
            let kc = chunk.d_lu[0].k();
            let lanes = &ys[chunk.k0..chunk.k0 + kc];
            let mut h: Vec<BatchMat> = (0..self.n)
                .map(|i| {
                    let srcs: Vec<&Mat> = lanes.iter().map(|y| &y.blocks[i]).collect();
                    BatchMat::interleaved(self.m, r, &srcs)
                })
                .collect();
            self.sweep_chunk(chunk, &mut h);
            let mut xs: Vec<BlockVec> = (0..kc)
                .map(|_| BlockVec::zeros(self.n, self.m, r))
                .collect();
            for (i, p) in h.iter().enumerate() {
                let mut dsts: Vec<&mut Mat> = xs.iter_mut().map(|bv| &mut bv.blocks[i]).collect();
                p.extract_all(&mut dsts);
            }
            out.extend(xs);
        }
        BATCHED_SOLVES.incr();
        BATCHED_WIDTH.record(self.k as u64);
        out
    }
}

/// Pivoted per-system block Thomas solve — the robust reference the
/// batched path is benchmarked against and falls back to when
/// [`BatchedSystems::factor`] reports a pivot breakdown. Thin wrapper
/// over [`bt_blocktri::thomas`] taking the materialized row form the
/// serving cache stores.
///
/// # Errors
///
/// [`FactorError`] if a block diagonal `D_i` is singular even under
/// partial pivoting.
///
/// # Panics
///
/// Panics on rhs shape mismatch.
pub fn solve_single(rows: &[BlockRow], y: &BlockVec) -> Result<BlockVec, FactorError> {
    let t = BlockTridiag::new(rows.to_vec());
    thomas_solve(&t, y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bt_blocktri::gen::{materialize, random_rhs, ClusteredToeplitz, RandomDominant};

    fn sources(k: usize, n: usize, m: usize) -> Vec<RandomDominant> {
        (0..k as u64)
            .map(|s| RandomDominant::new(n, m, 1.5, 1000 + s))
            .collect()
    }

    #[test]
    fn batched_matches_single_and_materialized_residual() {
        let (k, n, m, r) = (7, 12, 4, 2);
        let srcs = sources(k, n, m);
        let ys: Vec<BlockVec> = (0..k as u64).map(|s| random_rhs(n, m, r, 50 + s)).collect();
        let yrefs: Vec<&BlockVec> = ys.iter().collect();

        let batch = BatchedSystems::from_sources(&srcs);
        assert_eq!((batch.n(), batch.m(), batch.k()), (n, m, k));
        let factors = batch.factor().unwrap();
        assert!(factors.storage_bytes() > 0);
        let xs = factors.solve_blockvecs(&yrefs);

        for s in 0..k {
            let t = materialize(&srcs[s]);
            assert!(
                t.rel_residual(&xs[s], &ys[s]) < 1e-12,
                "system {s} residual {}",
                t.rel_residual(&xs[s], &ys[s])
            );
            let rows: Vec<BlockRow> = (0..n).map(|i| srcs[s].row(i)).collect();
            let single = solve_single(&rows, &ys[s]).unwrap();
            assert!(
                xs[s].rel_diff(&single) < 1e-11,
                "system {s} batched vs single {}",
                xs[s].rel_diff(&single)
            );
        }
    }

    #[test]
    fn toeplitz_members_are_fine_batch_citizens() {
        // The batched path doesn't care about per-system structure.
        let srcs: Vec<ClusteredToeplitz> = (0..4u64)
            .map(|s| ClusteredToeplitz::standard(16, 4, 5 + s))
            .collect();
        let ys: Vec<BlockVec> = (0..4u64).map(|s| random_rhs(16, 4, 3, s)).collect();
        let yrefs: Vec<&BlockVec> = ys.iter().collect();
        let factors = BatchedSystems::from_sources(&srcs).factor().unwrap();
        let xs = factors.solve_blockvecs(&yrefs);
        for s in 0..4 {
            let t = materialize(&srcs[s]);
            assert!(t.rel_residual(&xs[s], &ys[s]) < 1e-12);
        }
    }

    #[test]
    fn pivot_breakdown_names_the_system() {
        // System 1's diagonal needs pivoting at row 0: B has a zero in
        // the (0,0) position with fill below, unpivoted LU dies at step 0.
        let good = RandomDominant::new(4, 3, 1.5, 1);
        let mut rows: Vec<BlockRow> = (0..4).map(|i| good.row(i)).collect();
        let mut b = rows[0].b.clone();
        b[(0, 0)] = 0.0;
        rows[0] = BlockRow::new(rows[0].a.clone(), b, rows[0].c.clone());
        let good_rows: Vec<BlockRow> = (0..4).map(|i| good.row(i)).collect();
        let sets: Vec<&[BlockRow]> = vec![&good_rows, &rows];
        let err = BatchedSystems::from_row_sets(&sets).factor().unwrap_err();
        assert_eq!(err.system, 1);
        assert_eq!(err.row, 0);
        // The pivoted single-system path handles the same system.
        let y = random_rhs(4, 3, 1, 9);
        let x = solve_single(&rows, &y).unwrap();
        let t = bt_blocktri::BlockTridiag::new(rows);
        assert!(t.rel_residual(&x, &y) < 1e-12);
    }

    #[test]
    fn single_row_systems_solve() {
        // N = 1 degenerates to a plain batched block solve.
        let srcs = sources(3, 1, 4);
        let ys: Vec<BlockVec> = (0..3u64).map(|s| random_rhs(1, 4, 2, s)).collect();
        let yrefs: Vec<&BlockVec> = ys.iter().collect();
        let factors = BatchedSystems::from_sources(&srcs).factor().unwrap();
        let xs = factors.solve_blockvecs(&yrefs);
        for s in 0..3 {
            let t = materialize(&srcs[s]);
            assert!(t.rel_residual(&xs[s], &ys[s]) < 1e-13);
        }
    }
}
