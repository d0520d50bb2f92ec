//! Criterion microbenchmarks for the dense and scan kernels.
//!
//! Includes the **structured-multiply ablation** (Figure A3): advancing a
//! companion product with the `[P, Q; I, 0]` structure exploited
//! (`apply_left`, `8 M^3` flops) versus the dense `2M x 2M` product
//! (`compose_after`, `16 M^3` flops) — the 2x flop saving DESIGN.md §2.5
//! calls out.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use bt_ard::companion::{CompanionProduct, CompanionW};
use bt_ard::pairs::AffinePair;
use bt_bench::{time_best, BenchRecord, Better::Lower};
use bt_blocktri::gen::ClusteredToeplitz;
use bt_blocktri::BlockRowSource;
use bt_dense::random::{rng, uniform};
use bt_dense::{gemm, gemm_axpy, gemm_packed, gemm_small, LuFactors, Mat, Trans};

fn bench_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm");
    for &m in &[16usize, 32, 64, 128] {
        let a = uniform(m, m, &mut rng(1));
        let b = uniform(m, m, &mut rng(2));
        let mut out = Mat::zeros(m, m);
        group.bench_with_input(BenchmarkId::from_parameter(m), &m, |bench, _| {
            bench.iter(|| {
                gemm(
                    1.0,
                    black_box(&a),
                    Trans::No,
                    black_box(&b),
                    Trans::No,
                    0.0,
                    &mut out,
                );
            })
        });
    }
    group.finish();
}

const SWEEP_SIZES: [usize; 15] = [
    4, 8, 16, 17, 32, 48, 63, 64, 65, 96, 127, 128, 129, 192, 256,
];

/// One `m x m x m` sweep cell: times every kernel the dispatcher can
/// pick (AXPY, packed, small-block) plus the dispatcher itself, prints
/// the per-size line, and records the cell `m<m>`: the packed and
/// small-block times against AXPY as their baseline, and the
/// dispatcher's time.
fn sweep_cell(m: usize, record: &mut BenchRecord) {
    let a = uniform(m, m, &mut rng(11));
    let b = uniform(m, m, &mut rng(12));
    let mut out = Mat::zeros(m, m);
    let flops = 2 * m * m * m;
    // Batch tiny products so one timed sample is ~0.5 Mflop; the
    // kernels accumulate into C, which costs the same per call as a
    // fresh product and keeps fill_zero out of the timed region.
    let inner = (500_000 / flops).max(1);
    let reps = (100_000_000 / (flops * inner)).clamp(3, 60);
    let timed = |f: &mut dyn FnMut()| {
        time_best(reps, || {
            for _ in 0..inner {
                f();
            }
        }) / inner as f64
    };
    let axpy_s = timed(&mut || gemm_axpy(1.0, black_box(&a), black_box(&b), &mut out));
    let packed_s = timed(&mut || gemm_packed(1.0, black_box(&a), black_box(&b), &mut out));
    let small_s = matches!(m, 4 | 8 | 16)
        .then(|| timed(&mut || assert!(gemm_small(1.0, black_box(&a), black_box(&b), &mut out))));
    let dispatched_s = timed(&mut || {
        gemm(
            1.0,
            black_box(&a),
            Trans::No,
            black_box(&b),
            Trans::No,
            1.0,
            &mut out,
        );
    });
    println!(
        "bench: gemm/{m:<4} axpy {:>9.4} ms  packed {:>9.4} ms  small {}  dispatched {:>9.4} ms",
        axpy_s * 1e3,
        packed_s * 1e3,
        small_s.map_or("      n/a".to_string(), |s| format!("{:>9.4} ms", s * 1e3)),
        dispatched_s * 1e3,
    );
    let name = format!("m{m}");
    record
        .cell(&name, "dense", "packed_s", "s", Lower, packed_s)
        .baseline(axpy_s);
    if let Some(s) = small_s {
        record
            .cell(&name, "dense", "small_s", "s", Lower, s)
            .baseline(axpy_s);
    }
    record.cell(name, "dense", "dispatched_s", "s", Lower, dispatched_s);
}

/// Kernel sweep over block orders from the small-block specializations
/// (m = 4, 8, 16, plus 17 and 32 to pin the crossover region) up through
/// sizes straddling the NB = 64 and KC = 128 blocking boundaries, on
/// the calling thread. Prints per-size lines through the criterion
/// harness and writes the cells as a `bt-bench-v1` record to
/// `BENCH_gemm.json` at the workspace root — the data the
/// `PACKED_MIN_FLOPS_*` crossover constants in `bt_dense` are checked
/// against.
fn bench_gemm_packed_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm_packed");
    group.sample_size(10);
    let mut record = BenchRecord::new("kernels", false, "none");
    for &m in &SWEEP_SIZES {
        sweep_cell(m, &mut record);
        // Keep a criterion-visible entry for the packed kernel too.
        let a = uniform(m, m, &mut rng(11));
        let b = uniform(m, m, &mut rng(12));
        let mut out = Mat::zeros(m, m);
        group.bench_with_input(BenchmarkId::new("packed", m), &m, |bench, _| {
            bench.iter(|| {
                gemm_packed(1.0, black_box(&a), black_box(&b), &mut out);
            })
        });
    }
    group.finish();
    record.write_or_exit(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_gemm.json"
    ));
}

fn bench_lu(c: &mut Criterion) {
    let mut group = c.benchmark_group("lu");
    for &m in &[16usize, 32, 64] {
        let a = {
            let mut a = uniform(m, m, &mut rng(3));
            for k in 0..m {
                let v = a.get(k, k);
                a.set(k, k, v + 2.0 * m as f64);
            }
            a
        };
        group.bench_with_input(BenchmarkId::new("factor", m), &m, |bench, _| {
            bench.iter(|| LuFactors::factor(black_box(&a)).unwrap())
        });
        let lu = LuFactors::factor(&a).unwrap();
        let rhs = uniform(m, 8, &mut rng(4));
        group.bench_with_input(BenchmarkId::new("solve_r8", m), &m, |bench, _| {
            bench.iter(|| lu.solve(black_box(&rhs)))
        });
    }
    group.finish();
}

/// Figure A3: structured vs dense companion product update.
fn bench_companion_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("companion_update");
    for &m in &[8usize, 16, 32, 64] {
        let src = ClusteredToeplitz::standard(4, m, 5);
        let w = CompanionW::from_row(&src.row(1)).unwrap();
        // A dense product representing W as a full CompanionProduct.
        let w_dense = {
            let mut p = CompanionProduct::identity(m);
            p.apply_left(&w);
            p
        };
        let base = {
            let mut p = CompanionProduct::identity(m);
            p.apply_left(&w);
            p.apply_left(&w);
            p
        };
        group.bench_with_input(BenchmarkId::new("structured_8m3", m), &m, |bench, _| {
            bench.iter(|| {
                let mut p = base.clone();
                p.apply_left(black_box(&w));
                p
            })
        });
        group.bench_with_input(BenchmarkId::new("dense_16m3", m), &m, |bench, _| {
            bench.iter(|| base.compose_after(black_box(&w_dense)))
        });
    }
    group.finish();
}

/// The fresh-vs-replay combine: the per-round work the acceleration removes.
fn bench_affine_combine(c: &mut Criterion) {
    let mut group = c.benchmark_group("affine_combine");
    for &m in &[16usize, 32, 64] {
        let r = 4;
        let outer = AffinePair {
            mat: uniform(m, m, &mut rng(7)),
            vec: uniform(m, r, &mut rng(8)),
        };
        let inner = AffinePair {
            mat: uniform(m, m, &mut rng(9)),
            vec: uniform(m, r, &mut rng(10)),
        };
        group.bench_with_input(BenchmarkId::new("fresh_m3", m), &m, |bench, _| {
            bench.iter(|| AffinePair::compose(black_box(&outer), black_box(&inner)))
        });
        group.bench_with_input(BenchmarkId::new("replay_m2r", m), &m, |bench, _| {
            bench.iter(|| outer.apply_to_vec(black_box(&inner.vec)))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_gemm, bench_gemm_packed_sweep, bench_lu, bench_companion_ablation, bench_affine_combine
}
criterion_main!(benches);
