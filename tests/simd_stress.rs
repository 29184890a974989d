//! Seeded stress loop for the SIMD lane tier.
//!
//! Lane-group batched evaluation shares pooled workspaces with scalar
//! batches, coefficient-lane single and system evaluations and every
//! kernel variant, and its gather /
//! convolve / scatter path re-partitions each batch into groups plus a
//! scalar remainder — exactly the kind of layout churn where a stale panel
//! size, a missed re-warm or an off-by-one in the lane partition only
//! surfaces after many mixed evaluations.  This loop cycles random
//! structures, degrees, batch sizes, lane widths and precisions over
//! long-lived engines, asserting the lane tier's hard
//! invariant every iteration: **bitwise identity with the scalar batch
//! path, per instance**.  CI runs it with `PSMD_STRESS_ITERS=200` under the
//! `PSMD_SIMD` matrix, while the default (25) keeps `cargo test`
//! affordable.

use psmd_core::{random_inputs, random_polynomial, Engine, EvalOptions, Polynomial, SimdMode};
use psmd_multidouble::{Coeff, Complex, Dd, Md, Qd, RandomCoeff};
use psmd_runtime::WorkerPool;
use psmd_series::Series;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn iterations() -> usize {
    std::env::var("PSMD_STRESS_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(25)
}

fn engine_with(simd: SimdMode) -> Engine {
    let threads = WorkerPool::threads_from_env().unwrap_or(2);
    Engine::builder()
        .threads(threads)
        .options(EvalOptions::new().with_simd(simd))
        .build()
}

/// One iteration at one coefficient type: a random plan and batch evaluated
/// under a forced lane width and under the scalar mode, on engines that
/// live across the whole loop (workspace recycling included) — then a
/// single-point and a system evaluation on the coefficient-lane axis.
fn stress_iteration<C: Coeff + RandomCoeff>(
    scalar_engine: &Engine,
    lane_engine: &Engine,
    iter: usize,
    width: usize,
    rng: &mut StdRng,
) {
    let n = rng.gen_range(2..6);
    let monomials = rng.gen_range(1..9);
    let degree = rng.gen_range(0..12);
    // Batch sizes around the lane-group boundaries: remainder-only, exact
    // groups, and groups plus remainder.
    let batch_size = rng.gen_range(1..(2 * width + 4));
    let p: Polynomial<C> = random_polynomial(n, monomials, n.min(5), degree, rng);
    let batch: Vec<Vec<Series<C>>> = (0..batch_size)
        .map(|_| random_inputs::<C, _>(n, degree, rng))
        .collect();
    let scalar = scalar_engine
        .compile(p.clone())
        .request(&batch)
        .run()
        .into_batch();
    let lanes = lane_engine.compile(p).request(&batch).run().into_batch();
    assert_eq!(
        lanes.timings.simd_width, width,
        "iteration {iter}: lane run must report width {width}"
    );
    for (i, (s, l)) in scalar
        .instances
        .iter()
        .zip(lanes.instances.iter())
        .enumerate()
    {
        assert_eq!(
            s.value, l.value,
            "iteration {iter}: width {width}, batch {batch_size}, instance {i} value"
        );
        assert_eq!(
            s.gradient, l.gradient,
            "iteration {iter}: width {width}, batch {batch_size}, instance {i} gradient"
        );
    }
    stress_single_and_system::<C>(scalar_engine, lane_engine, iter, width, rng);
}

/// The coefficient-lane rows: one single-point and one system evaluation at
/// a degree drawn across the lane-group boundaries (`0..=2W+3`: scalar
/// below one full lane vector, full groups, and a partly dead last group),
/// bitwise against the scalar mode.
fn stress_single_and_system<C: Coeff + RandomCoeff>(
    scalar_engine: &Engine,
    lane_engine: &Engine,
    iter: usize,
    width: usize,
    rng: &mut StdRng,
) {
    let n = rng.gen_range(2..6);
    let degree = rng.gen_range(0..=2 * width + 3);
    let p: Polynomial<C> = random_polynomial(n, rng.gen_range(1..9), n.min(5), degree, rng);
    let system: Vec<Polynomial<C>> = (0..rng.gen_range(1..4))
        .map(|_| random_polynomial(n, rng.gen_range(1..7), n.min(4), degree, rng))
        .collect();
    let z = random_inputs::<C, _>(n, degree, rng);
    let ran = if degree + 1 >= width { width } else { 1 };
    let single = lane_engine.compile(p.clone()).request(&z).run();
    assert_eq!(
        single.timings().simd_width,
        ran,
        "iteration {iter}: single run at degree {degree} must report width {ran}"
    );
    assert!(
        single.bitwise_eq(&scalar_engine.compile(p).request(&z).run()),
        "iteration {iter}: width {width}, single degree {degree}"
    );
    let sys = lane_engine.compile(system.clone()).request(&z).run();
    assert_eq!(
        sys.timings().simd_width,
        ran,
        "iteration {iter}: system run at degree {degree} must report width {ran}"
    );
    assert!(
        sys.bitwise_eq(&scalar_engine.compile(system).request(&z).run()),
        "iteration {iter}: width {width}, system degree {degree}"
    );
}

#[test]
fn simd_vs_scalar_stress_loop() {
    let iters = iterations();
    let mut rng = StdRng::seed_from_u64(0x51D_CAFE);
    // One engine pair per width, reused across the whole loop so pooled
    // workspaces see plans of many shapes and precisions.
    for &width in &SimdMode::SUPPORTED_WIDTHS {
        let scalar_engine = engine_with(SimdMode::Scalar);
        let lane_engine = engine_with(SimdMode::ForceWidth(width));
        for iter in 0..iters {
            match iter % 4 {
                0 => stress_iteration::<Dd>(&scalar_engine, &lane_engine, iter, width, &mut rng),
                1 => stress_iteration::<Qd>(&scalar_engine, &lane_engine, iter, width, &mut rng),
                2 => stress_iteration::<Md<8>>(&scalar_engine, &lane_engine, iter, width, &mut rng),
                _ => stress_iteration::<Complex<Dd>>(
                    &scalar_engine,
                    &lane_engine,
                    iter,
                    width,
                    &mut rng,
                ),
            }
        }
    }
}
