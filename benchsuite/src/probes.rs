//! Micro-measurements of single layer primitives, run by the traced run
//! after its ops: Md arithmetic, one convolution job, one empty pool
//! launch and one host linear solve.

use std::hint::black_box;
use std::time::{Duration, Instant};

use psmd_core::try_solve_linearized;
use psmd_multidouble::lanes::{detect_isa, SimdIsa};
use psmd_multidouble::{Coeff, Dd, MdLanes, Qd, RandomCoeff};
use psmd_runtime::WorkerPool;
use psmd_series::{convolve_panels_dyn, convolve_zero_insertion, panel_f64s, Series};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::record::Record;

/// Median over five trials of the time of one call of `f`, in
/// nanoseconds; each trial repeats `f` for at least 10 ms.
pub fn ns_per_call(mut f: impl FnMut()) -> f64 {
    let mut iters = 1u64;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        if start.elapsed() >= Duration::from_millis(10) {
            break;
        }
        iters *= 2;
    }
    let trials: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    crate::stats::median(&trials)
}

const VALUES: usize = 64;

fn random_values<C: Coeff + RandomCoeff>(rng: &mut StdRng) -> Vec<C> {
    (0..VALUES).map(|_| C::random_uniform(rng)).collect()
}

/// Nanoseconds per multiple-double multiplication.
pub fn md_mul_ns<C: Coeff + RandomCoeff>(seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let (a, b) = (random_values::<C>(&mut rng), random_values::<C>(&mut rng));
    let mut out = vec![C::zero(); VALUES];
    ns_per_call(|| {
        for ((o, x), y) in out.iter_mut().zip(&a).zip(&b) {
            *o = black_box(x).mul(y);
        }
        black_box(&out);
    }) / VALUES as f64
}

/// Nanoseconds per multiple-double addition.
pub fn md_add_ns<C: Coeff + RandomCoeff>(seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let (a, b) = (random_values::<C>(&mut rng), random_values::<C>(&mut rng));
    let mut out = vec![C::zero(); VALUES];
    ns_per_call(|| {
        for ((o, x), y) in out.iter_mut().zip(&a).zip(&b) {
            *o = black_box(x).add(y);
        }
        black_box(&out);
    }) / VALUES as f64
}

/// Nanoseconds per double-double lane multiplication through `MdLanes` at
/// the machine's natural lane width, per lane (the scalar product when the
/// machine has no vector tier).
pub fn lanes_mul_ns_dd(seed: u64) -> f64 {
    match psmd_multidouble::detected_lane_width() {
        8 => lanes_mul_ns::<8>(seed),
        4 => lanes_mul_ns::<4>(seed),
        2 => lanes_mul_ns::<2>(seed),
        _ => md_mul_ns::<Dd>(seed),
    }
}

fn lanes_mul_ns<const W: usize>(seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let groups = VALUES / W;
    let mut gather = || -> Vec<MdLanes<2, W>> {
        (0..groups)
            .map(|_| MdLanes::gather(|_| Dd::random_uniform(&mut rng)))
            .collect()
    };
    let (a, b) = (gather(), gather());
    let mut out = vec![MdLanes::<2, W>::zero(); groups];
    ns_per_call(|| {
        lanes_mul_pass(black_box(&a), &b, &mut out);
        black_box(&out);
    }) / (groups * W) as f64
}

/// One pass of lane products, compiled under the widest instruction set
/// the machine has, as the engine's lane kernels are.
fn lanes_mul_pass<const W: usize>(
    a: &[MdLanes<2, W>],
    b: &[MdLanes<2, W>],
    out: &mut [MdLanes<2, W>],
) {
    match detect_isa() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `detect_isa` reports AVX-512 only after runtime detection
        // of avx512f and avx512dq, which imply avx2 and fma on every CPU
        // that has them.
        SimdIsa::Avx512 => unsafe { lanes_mul_avx512(a, b, out) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `detect_isa` reports AVX2 only after runtime detection of
        // avx2 and fma.
        SimdIsa::Avx2 => unsafe { lanes_mul_avx2(a, b, out) },
        _ => lanes_mul_body(a, b, out),
    }
}

#[inline(always)]
fn lanes_mul_body<const W: usize>(
    a: &[MdLanes<2, W>],
    b: &[MdLanes<2, W>],
    out: &mut [MdLanes<2, W>],
) {
    for ((o, x), y) in out.iter_mut().zip(a).zip(b) {
        *o = x.mul(y);
    }
}

/// # Safety
///
/// The CPU must support avx512f, avx512dq, avx2 and fma.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx2,fma")]
unsafe fn lanes_mul_avx512<const W: usize>(
    a: &[MdLanes<2, W>],
    b: &[MdLanes<2, W>],
    out: &mut [MdLanes<2, W>],
) {
    lanes_mul_body(a, b, out);
}

/// # Safety
///
/// The CPU must support avx2 and fma.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn lanes_mul_avx2<const W: usize>(
    a: &[MdLanes<2, W>],
    b: &[MdLanes<2, W>],
    out: &mut [MdLanes<2, W>],
) {
    lanes_mul_body(a, b, out);
}

/// Microseconds of one scalar `convolve_zero_insertion` job at `degree`.
pub fn conv_us<C: Coeff + RandomCoeff>(degree: usize, seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let x: Series<C> = Series::random(&mut rng, degree);
    let y: Series<C> = Series::random(&mut rng, degree);
    let n = degree + 1;
    let mut z = vec![C::zero(); n];
    let mut scratch = vec![C::zero(); 4 * n];
    ns_per_call(|| {
        convolve_zero_insertion(black_box(x.coeffs()), y.coeffs(), &mut z, &mut scratch);
        black_box(&z);
    }) * 1e-3
}

/// Microseconds per lane of one zero-insertion `convolve_panels` job of
/// `width` lanes at `degree`.
pub fn panel_conv_us<C: Coeff + RandomCoeff>(degree: usize, width: usize, seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = degree + 1;
    let per = C::doubles_per_value();
    let mut panel = || -> Vec<f64> {
        let mut p = vec![0.0; panel_f64s::<C>(n, width)];
        let mut limbs = vec![0.0; per];
        for l in 0..width {
            for k in 0..n {
                C::random_uniform(&mut rng).write_limbs(&mut limbs);
                for (d, v) in limbs.iter().enumerate() {
                    p[k * per * width + d * width + l] = *v;
                }
            }
        }
        p
    };
    let (x, y) = (panel(), panel());
    let mut z = vec![0.0; x.len()];
    ns_per_call(|| {
        convolve_panels_dyn::<C>(width, true, black_box(&x), &y, &mut z, n);
        black_box(&z);
    }) * 1e-3
        / width as f64
}

/// Microseconds of one convolution job as a plan runs it: a panel job per
/// lane when batched evaluation runs at lane width `width > 1`, the scalar
/// zero-insertion job otherwise.
pub fn conv_job_us<C: Coeff + RandomCoeff>(degree: usize, width: usize, seed: u64) -> f64 {
    if width > 1 {
        panel_conv_us::<C>(degree, width, seed)
    } else {
        conv_us::<C>(degree, seed)
    }
}

/// Microseconds of one empty `launch_grid` over `parallelism()` blocks.
pub fn launch_us(pool: &WorkerPool) -> f64 {
    let blocks = pool.parallelism();
    ns_per_call(|| {
        pool.launch_grid(blocks, |b| {
            black_box(b);
        })
    }) * 1e-3
}

/// Microseconds of one 16×16 double-double `try_solve_linearized` at
/// degree 0 (the tracker's corrector solve), on a diagonally dominant
/// random matrix.
pub fn solve_us(seed: u64) -> f64 {
    const N: usize = 16;
    let mut rng = StdRng::seed_from_u64(seed);
    let jacobian: Vec<Vec<Series<Dd>>> = (0..N)
        .map(|i| {
            (0..N)
                .map(|j| {
                    let mut s = Series::random(&mut rng, 0);
                    if i == j {
                        s = s.add(&Series::constant(Dd::from_f64(2.0 * N as f64), 0));
                    }
                    s
                })
                .collect()
        })
        .collect();
    let rhs: Vec<Series<Dd>> = (0..N).map(|_| Series::random(&mut rng, 0)).collect();
    ns_per_call(|| {
        black_box(try_solve_linearized(black_box(&jacobian), &rhs).expect("nonsingular"));
    }) * 1e-3
}

/// Runs every primitive probe and records it.
pub fn record_all(pool: &WorkerPool, seed: u64, record: &mut Record) {
    let width = psmd_core::SimdMode::Auto.lane_width();
    record.set("md.mul_ns.qd", md_mul_ns::<Qd>(seed));
    record.set("md.add_ns.qd", md_add_ns::<Qd>(seed));
    record.set("md.mul_ns.dd", md_mul_ns::<Dd>(seed));
    record.set("md.lanes_mul_ns.dd", lanes_mul_ns_dd(seed));
    record.set("series.conv_us.qd63", conv_us::<Qd>(63, seed));
    record.set(
        "series.panel_conv_us.dd15",
        conv_job_us::<Dd>(15, width, seed),
    );
    record.set("runtime.launch_us", launch_us(pool));
    record.set("core.solve_us", solve_us(seed));
}
