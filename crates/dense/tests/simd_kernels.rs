//! Cross-kernel agreement and dispatch tests for the SIMD layer.
//!
//! Every GEMM kernel (AXPY, packed, small-block panel) must produce the
//! same answer — to FMA-vs-separate-rounding tolerance — whichever
//! instruction set [`bt_dense::simd`] dispatches to, across blocking
//! boundaries and on strided views; the small-block panel kernel must
//! match the packed kernel bit for bit at `alpha = ±1`; non-finite
//! inputs must propagate through every path; and the `BT_DENSE_SIMD=0`
//! override must verifiably force the scalar path (observable through
//! the `bt_dense.gemm.*` dispatch counters under `BT_OBS`).
//!
//! ISA pins are scoped and thread-local ([`simd::with_isa`]), so they
//! cannot leak between tests; the tests still serialize on one mutex
//! because the metrics registry behind the counter diffs is
//! process-global.

use bt_dense::random::{rng, uniform};
use bt_dense::simd::{self, with_isa};
use bt_dense::{gemm, gemm_axpy, gemm_packed, gemm_small, Isa, Mat, MatMut, MatRef, Trans};
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Serializes every test in this binary: the metrics registry is
/// process-global.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The environment-driven dispatch decision.
fn detected_isa() -> Isa {
    simd::detected()
}

/// Reference triple-loop product (no blocking, packing, or FMA).
fn naive_matmul(a: &Mat, b: &Mat) -> Mat {
    let mut c = Mat::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let mut s = 0.0;
            for k in 0..a.cols() {
                s += a.get(i, k) * b.get(k, j);
            }
            c.set(i, j, s);
        }
    }
    c
}

/// Small-block orders plus sizes straddling the MR/NR tails and the
/// NB = 64 / KC = 128 blocking boundaries.
const DIMS: [usize; 11] = [4, 8, 16, 17, 32, 63, 64, 65, 127, 128, 129];

fn any_dim() -> impl Strategy<Value = usize> {
    (0usize..DIMS.len()).prop_map(|i| DIMS[i])
}

fn small_dim() -> impl Strategy<Value = usize> {
    (0usize..3).prop_map(|i| [4usize, 8, 16][i])
}

proptest! {
    // Each case runs several full products per ISA; keep counts modest.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// AXPY and packed kernels agree between the scalar path and the
    /// detected SIMD path to a k-scaled tolerance (FMA fuses the
    /// multiply-add rounding; entries are in [-1, 1] so one ulp per
    /// k-term accumulation is ~1e-16 * k with plenty of headroom).
    #[test]
    fn axpy_and_packed_agree_across_isas(
        (m, k, n, seed) in (any_dim(), any_dim(), any_dim(), 0u64..1000)
    ) {
        let _g = lock();
        let a = uniform(m, k, &mut rng(seed));
        let b = uniform(k, n, &mut rng(seed ^ 0xABCD));
        let tol = 1e-13 * k as f64;
        let detected = detected_isa();
        let runs: [fn(&Mat, &Mat) -> Mat; 2] = [
            |a, b| { let mut c = Mat::zeros(a.rows(), b.cols()); gemm_axpy(1.0, a, b, &mut c); c },
            |a, b| { let mut c = Mat::zeros(a.rows(), b.cols()); gemm_packed(1.0, a, b, &mut c); c },
        ];
        for run in runs {
            let c_scalar = with_isa(Isa::Scalar, || run(&a, &b));
            let c_simd = with_isa(detected, || run(&a, &b));
            prop_assert!(
                c_scalar.sub(&c_simd).max_abs() <= tol,
                "{m}x{k}x{n} scalar vs {}: err {}",
                detected.name(),
                c_scalar.sub(&c_simd).max_abs()
            );
        }
    }

    /// The small-block panel kernels agree with the naive reference (and
    /// hence with every other kernel) on both the scalar and detected
    /// paths, at any panel width, including `alpha != 1` accumulation
    /// into non-zero C.
    #[test]
    fn small_kernels_agree_across_isas(
        (m, r, seed, alpha) in (small_dim(), 1usize..71, 0u64..1000, -2.0f64..2.0)
    ) {
        let _g = lock();
        let a = uniform(m, m, &mut rng(seed));
        let b = uniform(m, r, &mut rng(seed ^ 0x5EED));
        let c0 = uniform(m, r, &mut rng(seed ^ 0xC0));
        let expect = {
            let mut e = c0.clone();
            let p = naive_matmul(&a, &b);
            for j in 0..r {
                for i in 0..m {
                    e.set(i, j, e.get(i, j) + alpha * p.get(i, j));
                }
            }
            e
        };
        let detected = detected_isa();
        for isa in [Isa::Scalar, detected] {
            let c = with_isa(isa, || {
                let mut c = c0.clone();
                prop_assert!(gemm_small(alpha, &a, &b, &mut c), "shape rejected");
                Ok(c)
            })?;
            prop_assert!(
                c.sub(&expect).max_abs() <= 1e-13 * m as f64,
                "small m={m} r={r} on {}: err {}",
                isa.name(),
                c.sub(&expect).max_abs()
            );
        }
    }

    /// Strided submatrix views reach the same answers as contiguous
    /// operands through the dispatched `gemm` and through `gemm_small`.
    #[test]
    fn strided_views_match_contiguous(
        (m, seed) in (small_dim(), 0u64..1000)
    ) {
        let _g = lock();
        // Carve m x m windows out of larger backings, offset so the
        // column stride differs from the row count.
        let big_a = uniform(m + 7, m + 3, &mut rng(seed));
        let big_b = uniform(m + 5, m + 2, &mut rng(seed ^ 0x57));
        let av = big_a.as_ref().submatrix(3, 1, m, m);
        let bv = big_b.as_ref().submatrix(2, 1, m, m);
        let a = Mat::from_fn(m, m, |i, j| av.get(i, j));
        let b = Mat::from_fn(m, m, |i, j| bv.get(i, j));
        let expect = naive_matmul(&a, &b);
        let tol = 1e-13 * m as f64;

        // gemm_small on strided in/out views.
        let mut big_c = Mat::zeros(m + 4, m + 1);
        let cv = big_c.as_mut().submatrix_mut(4, 1, m, m);
        prop_assert!(gemm_small(1.0, av, bv, cv));
        let got = big_c.as_ref().submatrix(4, 1, m, m);
        for j in 0..m {
            for i in 0..m {
                prop_assert!((got.get(i, j) - expect.get(i, j)).abs() <= tol);
            }
        }
        // Padding around the window must stay untouched.
        for i in 0..4 {
            prop_assert_eq!(big_c.get(i, 0), 0.0);
        }

        // Dispatched gemm on the same strided views.
        let mut c2 = Mat::zeros(m, m);
        gemm(1.0, av, Trans::No, bv, Trans::No, 0.0, &mut c2);
        prop_assert!(c2.sub(&expect).max_abs() <= tol);
    }

    /// `0 * NaN == NaN` must reach C through every kernel on every ISA,
    /// in every column of a panel (the small-block kernel's column
    /// groups and its one-column tail alike): no kernel may skip zero
    /// weights (the `nonfinite_propagates_through_zero_weights`
    /// contract).
    #[test]
    fn nonfinite_propagates_on_every_path(
        (m, r, seed, poison) in (small_dim(), 1usize..71, 0u64..1000, (0usize..2).prop_map(|i| if i == 0 { f64::NAN } else { f64::INFINITY }))
    ) {
        let _g = lock();
        let mut a = uniform(m, m, &mut rng(seed));
        let mut b = uniform(m, r, &mut rng(seed ^ 0xF00));
        a.set(1, 2, poison);
        for j in 0..r {
            b.set(2, j, 0.0); // 0 * poison must still poison C[1, j]
        }
        let poisoned = |c: &Mat| (0..r).all(|j| !c.get(1, j).is_finite());
        let detected = detected_isa();
        for isa in [Isa::Scalar, detected] {
            with_isa(isa, || {
                let mut c = Mat::zeros(m, r);
                assert!(gemm_small(1.0, &a, &b, &mut c));
                assert!(poisoned(&c), "small kernel on {} skipped 0 * {poison}", isa.name());
                let mut c = Mat::zeros(m, r);
                gemm_axpy(1.0, &a, &b, &mut c);
                assert!(poisoned(&c), "axpy on {} skipped 0 * {poison}", isa.name());
                let mut c = Mat::zeros(m, r);
                gemm_packed(1.0, &a, &b, &mut c);
                assert!(poisoned(&c), "packed on {} skipped 0 * {poison}", isa.name());
            });
        }
    }
}

/// Asserts two output windows hold identical bits (signed zeros and NaN
/// payloads included).
fn assert_same_bits(got: MatRef<'_>, expect: MatRef<'_>, what: &str) {
    assert_eq!(got.shape(), expect.shape(), "{what}");
    for j in 0..got.cols() {
        for (i, (g, e)) in got.col(j).iter().zip(expect.col(j)).enumerate() {
            assert_eq!(
                g.to_bits(),
                e.to_bits(),
                "{what}: ({i}, {j}) {g:e} vs {e:e}"
            );
        }
    }
}

/// The `m x r` output window of [`panel_kernel_matches_packed_bit_for_bit`].
fn window_of(c: &mut Mat, m: usize, r: usize) -> MatMut<'_> {
    c.as_mut().submatrix_mut(1, 2, m, r)
}

/// The small-block panel kernel is a pure re-layout of the packed
/// kernel's arithmetic: at `alpha = ±1`, for every small order, panel
/// width `1..=70`, `beta` in {0, 1} and strided in/out views, the
/// dispatched `gemm` (which takes the panel kernel) and `gemm_small`
/// equal `gemm_packed` bit for bit, on the scalar and the detected ISA.
#[test]
fn panel_kernel_matches_packed_bit_for_bit() {
    let _g = lock();
    for isa in [Isa::Scalar, detected_isa()] {
        with_isa(isa, || {
            for m in [4usize, 8, 16] {
                for r in 1..=70usize {
                    let big_a = uniform(m + 3, m + 2, &mut rng((m * 100 + r) as u64));
                    let big_b = uniform(m + 5, r + 1, &mut rng((m * 100 + r) as u64 ^ 0xB));
                    let big_c0 = uniform(m + 2, r + 3, &mut rng((m * 100 + r) as u64 ^ 0xC));
                    let a = big_a.as_ref().submatrix(2, 1, m, m);
                    let b = big_b.as_ref().submatrix(4, 1, m, r);
                    for alpha in [1.0, -1.0] {
                        for beta in [0.0, 1.0] {
                            let what =
                                format!("{} m={m} r={r} alpha={alpha} beta={beta}", isa.name());
                            let mut packed = big_c0.clone();
                            if beta == 0.0 {
                                window_of(&mut packed, m, r).fill_zero();
                            }
                            gemm_packed(alpha, a, b, window_of(&mut packed, m, r));
                            let mut dispatched = big_c0.clone();
                            gemm(
                                alpha,
                                a,
                                Trans::No,
                                b,
                                Trans::No,
                                beta,
                                window_of(&mut dispatched, m, r),
                            );
                            assert_same_bits(dispatched.as_ref(), packed.as_ref(), &what);
                            let mut small = big_c0.clone();
                            if beta == 0.0 {
                                window_of(&mut small, m, r).fill_zero();
                            }
                            assert!(
                                gemm_small(alpha, a, b, window_of(&mut small, m, r)),
                                "{what}"
                            );
                            assert_same_bits(small.as_ref(), packed.as_ref(), &what);
                        }
                    }
                }
            }
        });
    }
}

/// `BT_DENSE_SIMD=0` must force the scalar path — asserted through the
/// dispatch counters with metrics live, so the CI scalar leg verifies
/// the whole chain (env var -> detection -> dispatch -> counters). On
/// other legs the same test checks detection matches the host CPU.
#[test]
fn bt_dense_simd_env_override_forces_scalar() {
    let _g = lock();
    let isa = detected_isa();
    assert_eq!(
        simd::active(),
        isa,
        "an unpinned thread runs the detected ISA"
    );
    bt_obs::set_enabled(true);

    let a = uniform(32, 32, &mut rng(7));
    let b = uniform(32, 32, &mut rng(8));
    let mut c = Mat::zeros(32, 32);
    let before = bt_obs::counters_snapshot();
    gemm(1.0, &a, Trans::No, &b, Trans::No, 0.0, &mut c);
    let diff = bt_obs::counters_diff(&before);
    let simd_calls = diff.get("bt_dense.gemm.simd_calls").copied().unwrap_or(0);

    if std::env::var("BT_DENSE_SIMD").as_deref() == Ok("0") {
        assert_eq!(isa, Isa::Scalar, "BT_DENSE_SIMD=0 did not force scalar");
        assert_eq!(simd_calls, 0, "scalar-forced gemm counted as a SIMD call");
    } else {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            assert_eq!(isa, Isa::Avx2Fma, "AVX2+FMA host detected as {isa:?}");
            assert_eq!(simd_calls, 1, "SIMD gemm did not bump simd_calls");
        }
        #[cfg(target_arch = "aarch64")]
        assert_eq!(isa, Isa::Neon);
    }
}

/// The small-block counter tracks exactly the `gemm` calls that took the
/// small path, on every ISA (forced-scalar dispatch still uses the
/// unrolled small kernels — they have a scalar body).
#[test]
fn small_call_counter_tracks_small_path() {
    let _g = lock();
    bt_obs::set_enabled(true);
    let detected = detected_isa();
    for isa in [Isa::Scalar, detected] {
        with_isa(isa, || {
            let a = uniform(8, 8, &mut rng(1));
            let b = uniform(8, 8, &mut rng(2));
            let mut c = Mat::zeros(8, 8);
            let before = bt_obs::counters_snapshot();
            gemm(1.0, &a, Trans::No, &b, Trans::No, 0.0, &mut c);
            // 17 is not a small-block order: must not count.
            let a17 = uniform(17, 17, &mut rng(3));
            let b17 = uniform(17, 17, &mut rng(4));
            let mut c17 = Mat::zeros(17, 17);
            gemm(1.0, &a17, Trans::No, &b17, Trans::No, 0.0, &mut c17);
            let diff = bt_obs::counters_diff(&before);
            assert_eq!(
                diff.get("bt_dense.gemm.small_calls").copied().unwrap_or(0),
                1,
                "small_calls on {}",
                isa.name()
            );
        });
    }
}

/// Sanity net under the proptests: one fixed case per kernel per ISA
/// against the naive reference, so a broken kernel fails loudly even if
/// proptest shrinking obscures the original failure.
#[test]
fn fixed_case_all_kernels_match_naive() {
    let _g = lock();
    let detected = detected_isa();
    for &(m, k, n) in &[(4usize, 4usize, 4usize), (16, 16, 16), (40, 65, 24)] {
        let a = uniform(m, k, &mut rng(99));
        let b = uniform(k, n, &mut rng(100));
        let expect = naive_matmul(&a, &b);
        let tol = 1e-13 * k as f64;
        for isa in [Isa::Scalar, detected] {
            with_isa(isa, || {
                let mut c = Mat::zeros(m, n);
                gemm_axpy(1.0, &a, &b, &mut c);
                assert!(
                    c.sub(&expect).max_abs() <= tol,
                    "axpy {m}x{k}x{n} {}",
                    isa.name()
                );
                let mut c = Mat::zeros(m, n);
                gemm_packed(1.0, &a, &b, &mut c);
                assert!(
                    c.sub(&expect).max_abs() <= tol,
                    "packed {m}x{k}x{n} {}",
                    isa.name()
                );
                let mut c = Mat::zeros(m, n);
                gemm(1.0, &a, Trans::No, &b, Trans::No, 0.0, &mut c);
                assert!(
                    c.sub(&expect).max_abs() <= tol,
                    "gemm {m}x{k}x{n} {}",
                    isa.name()
                );
            });
        }
    }
}
