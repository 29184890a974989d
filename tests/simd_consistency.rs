//! SIMD lane-tier identity: batched evaluation through lane groups
//! ([`SimdMode::ForceWidth`]) must be **bitwise** identical, per instance,
//! to the scalar batch path ([`SimdMode::Scalar`]) — across every
//! multi-double precision, real and complex coefficients, and batch sizes
//! that exercise full lane groups, the scalar remainder, and both together.
//! Single and system evaluations, which run one output coefficient per
//! lane, must match the scalar run just as exactly.  This is the invariant that makes the SIMD
//! tier a pure throughput optimization with no numerical footprint: the
//! lane kernels replicate the scalar error-free transformations elementwise
//! and never reassociate (see `psmd_multidouble::lanes`).

use psmd_core::{
    random_inputs, random_polynomial, ConvolutionKernel, Engine, EvalOptions, Polynomial, SimdMode,
};
use psmd_multidouble::{Coeff, Complex, Dd, Deca, Md, Qd, RandomCoeff};
use psmd_series::Series;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn engine_with(simd: SimdMode) -> Engine {
    Engine::builder()
        .threads(2)
        .options(EvalOptions::new().with_simd(simd))
        .build()
}

/// Evaluates one random batch under `ForceWidth(width)` and under `Scalar`,
/// asserting instance-by-instance bitwise identity and that the run's
/// timings report the lane width actually used.
fn check_lanes_vs_scalar<C: Coeff + RandomCoeff>(
    seed: u64,
    n: usize,
    monomials: usize,
    degree: usize,
    batch_size: usize,
    width: usize,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let p: Polynomial<C> = random_polynomial(n, monomials, n.min(6), degree, &mut rng);
    let batch: Vec<Vec<Series<C>>> = (0..batch_size)
        .map(|_| random_inputs::<C, _>(n, degree, &mut rng))
        .collect();

    let scalar_engine = engine_with(SimdMode::Scalar);
    let scalar_plan = scalar_engine.compile(p.clone());
    let scalar = scalar_plan.request(&batch).run().into_batch();
    assert_eq!(
        scalar.timings.simd_width, 1,
        "scalar batch must report width 1"
    );

    let lane_engine = engine_with(SimdMode::ForceWidth(width));
    let lane_plan = lane_engine.compile(p);
    let lanes = lane_plan.request(&batch).run().into_batch();
    assert_eq!(
        lanes.timings.simd_width, width,
        "lane batch must report its forced width"
    );

    assert_eq!(scalar.instances.len(), lanes.instances.len());
    for (i, (s, l)) in scalar
        .instances
        .iter()
        .zip(lanes.instances.iter())
        .enumerate()
    {
        assert_eq!(
            s.value, l.value,
            "instance {i} value differs (width {width}, batch {batch_size}, seed {seed})"
        );
        assert_eq!(
            s.gradient, l.gradient,
            "instance {i} gradient differs (width {width}, batch {batch_size}, seed {seed})"
        );
    }
}

/// Every supported width, at batch sizes `W-1` (remainder only), `W` (one
/// full group), `W+1` (group + remainder) and `2W+3` (several groups plus
/// remainder).
fn check_widths_and_sizes<C: Coeff + RandomCoeff>(
    seed: u64,
    n: usize,
    monomials: usize,
    degree: usize,
) {
    for (wi, &width) in SimdMode::SUPPORTED_WIDTHS.iter().enumerate() {
        for (si, size) in [width - 1, width, width + 1, 2 * width + 3]
            .into_iter()
            .enumerate()
        {
            if size == 0 {
                continue;
            }
            let case_seed = seed + (wi as u64) * 100 + si as u64;
            check_lanes_vs_scalar::<C>(case_seed, n, monomials, degree, size, width);
        }
    }
}

#[test]
fn lane_identity_low_precisions_layered() {
    check_widths_and_sizes::<Md<1>>(1_101, 5, 10, 4);
    check_widths_and_sizes::<Dd>(1_102, 5, 10, 4);
    check_widths_and_sizes::<Md<3>>(1_103, 4, 8, 3);
}

#[test]
fn lane_identity_high_precisions_layered() {
    check_widths_and_sizes::<Qd>(1_204, 4, 8, 3);
    check_widths_and_sizes::<Md<5>>(1_205, 4, 6, 3);
    check_widths_and_sizes::<Md<8>>(1_206, 3, 6, 2);
    check_widths_and_sizes::<Deca>(1_207, 3, 6, 2);
}

#[test]
fn lane_identity_complex_coefficients() {
    check_widths_and_sizes::<Complex<Dd>>(1_411, 4, 8, 3);
    check_widths_and_sizes::<Complex<Qd>>(1_412, 3, 6, 2);
    check_widths_and_sizes::<Complex<Deca>>(1_413, 3, 5, 2);
}

/// `Auto` resolves to a concrete mode at compile time and its batched runs
/// agree bitwise with both the scalar path and its own resolved width.
#[test]
fn auto_mode_matches_scalar_bitwise() {
    let mut rng = StdRng::seed_from_u64(1_500);
    let p: Polynomial<Qd> = random_polynomial(5, 10, 4, 4, &mut rng);
    let batch: Vec<Vec<Series<Qd>>> = (0..11)
        .map(|_| random_inputs::<Qd, _>(5, 4, &mut rng))
        .collect();
    let auto_engine = engine_with(SimdMode::Auto);
    let auto_plan = auto_engine.compile(p.clone());
    assert_ne!(
        auto_plan.options().simd,
        SimdMode::Auto,
        "plans must carry a resolved SIMD mode"
    );
    let auto = auto_plan.request(&batch).run().into_batch();
    let scalar_engine = engine_with(SimdMode::Scalar);
    let scalar = scalar_engine.compile(p).request(&batch).run().into_batch();
    assert_eq!(
        auto.timings.simd_width,
        auto_plan.options().simd.lane_width()
    );
    for (s, a) in scalar.instances.iter().zip(auto.instances.iter()) {
        assert_eq!(s.value, a.value);
        assert_eq!(s.gradient, a.gradient);
    }
}

/// Kernels without a lane implementation (Karatsuba, FFT) fall back to the
/// scalar batch path — same bits, width 1 in the timings.
#[test]
fn non_lane_kernels_fall_back_to_scalar() {
    let mut rng = StdRng::seed_from_u64(1_600);
    let p: Polynomial<Dd> = random_polynomial(4, 8, 4, 6, &mut rng);
    let batch: Vec<Vec<Series<Dd>>> = (0..9)
        .map(|_| random_inputs::<Dd, _>(4, 6, &mut rng))
        .collect();
    for kernel in [ConvolutionKernel::Karatsuba, ConvolutionKernel::Fft] {
        let forced = Engine::builder()
            .threads(0)
            .options(
                EvalOptions::new()
                    .with_kernel(kernel)
                    .with_simd(SimdMode::ForceWidth(4)),
            )
            .build();
        let lanes = forced.compile(p.clone()).request(&batch).run().into_batch();
        assert_eq!(
            lanes.timings.simd_width, 1,
            "{kernel:?} has no lane tier; the batch must report scalar"
        );
        let scalar = Engine::builder()
            .threads(0)
            .options(
                EvalOptions::new()
                    .with_kernel(kernel)
                    .with_simd(SimdMode::Scalar),
            )
            .build()
            .compile(p.clone())
            .request(&batch)
            .run()
            .into_batch();
        for (s, l) in scalar.instances.iter().zip(lanes.instances.iter()) {
            assert_eq!(s.value, l.value);
            assert_eq!(s.gradient, l.gradient);
        }
    }
}

/// Evaluates one single-point and one system source under `simd` and under
/// `Scalar`, asserting bitwise identity and that the lane run reports the
/// coefficient-lane width that ran: the resolved width when the series
/// fill at least one lane vector (`degree + 1 >= W`), scalar otherwise.
fn check_single_and_system_vs_scalar<C: Coeff + RandomCoeff>(seed: u64, degree: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let p: Polynomial<C> = random_polynomial(4, 8, 4, degree, &mut rng);
    let system: Vec<Polynomial<C>> = (0..3)
        .map(|_| random_polynomial(4, 6, 3, degree, &mut rng))
        .collect();
    let z = random_inputs::<C, _>(4, degree, &mut rng);
    let scalar_engine = engine_with(SimdMode::Scalar);
    let scalar_single = scalar_engine.compile(p.clone()).request(&z).run();
    let scalar_system = scalar_engine.compile(system.clone()).request(&z).run();
    assert_eq!(scalar_single.timings().simd_width, 1);
    assert_eq!(scalar_system.timings().simd_width, 1);
    for simd in [
        SimdMode::Auto,
        SimdMode::ForceWidth(2),
        SimdMode::ForceWidth(4),
        SimdMode::ForceWidth(8),
    ] {
        let width = simd.lane_width();
        let ran = if degree + 1 >= width { width } else { 1 };
        let engine = engine_with(simd);
        let single = engine.compile(p.clone()).request(&z).run();
        let sys = engine.compile(system.clone()).request(&z).run();
        assert!(
            single.bitwise_eq(&scalar_single),
            "single differs ({simd:?}, degree {degree}, seed {seed})"
        );
        assert!(
            sys.bitwise_eq(&scalar_system),
            "system differs ({simd:?}, degree {degree}, seed {seed})"
        );
        assert_eq!(
            single.timings().simd_width,
            ran,
            "single {simd:?} d={degree}"
        );
        assert_eq!(sys.timings().simd_width, ran, "system {simd:?} d={degree}");
    }
}

/// Single and system evaluations run their zero-insertion convolutions on
/// coefficient lanes (one output coefficient per lane) at every width, and
/// stay bitwise identical to the scalar run — below one full lane vector
/// (degree 0, 2) they run scalar and say so.
#[test]
fn single_and_system_coefficient_lanes_match_scalar_bitwise() {
    for degree in [0, 2, 7, 8, 19] {
        check_single_and_system_vs_scalar::<Dd>(1_700 + degree as u64, degree);
        check_single_and_system_vs_scalar::<Qd>(1_800 + degree as u64, degree);
        check_single_and_system_vs_scalar::<Complex<Dd>>(1_900 + degree as u64, degree);
    }
    check_single_and_system_vs_scalar::<Md<1>>(2_001, 9);
    check_single_and_system_vs_scalar::<Deca>(2_002, 9);
}
