//! SIMD-lane convolution kernels over structure-of-arrays coefficient
//! panels.
//!
//! Two lane axes share the kernels below:
//!
//! * **instance lanes** ([`convolve_panels`]) — lane `l` carries batch
//!   instance `l`, and one pass convolves `W` independent series pairs;
//! * **coefficient lanes** ([`convolve_coeff_lanes`]) — lane `l` carries
//!   output coefficient `k0 + l` of *one* series pair, the paper's "thread
//!   `k` computes `z_k`" mapping: zero insertion gives every output the same
//!   `d + 1` multiply-adds, so `W` outputs advance in lock step like the
//!   threads of a warp.
//!
//! A *panel* packs `W` independent series (one per batch instance) into one
//! flat `f64` buffer in lane-major order: coefficient `k` of lane `l`
//! occupies doubles `k * D * W + d * W + l` for `d < D =
//! C::doubles_per_value()`.  The kernels below run the exact scalar
//! convolution recurrences of [`crate::convolution`] with every scalar
//! coefficient operation replaced by its [`LaneVec`] counterpart — which is
//! bitwise identical per lane — so lane `l` of the output panel carries
//! exactly the bits the scalar kernel produces for instance `l`.
//!
//! ## Runtime multiversioning
//!
//! The generic kernel body is monomorphized once per coefficient type and
//! lane width, then compiled several times under different
//! `#[target_feature]` roots (AVX2+FMA and AVX-512 on x86-64, NEON on
//! AArch64).  Inside a feature-enabled root, LLVM inlines the
//! `#[inline(always)]` lane primitives and lowers the `[f64; W]` loops to
//! `vaddpd`/`vmulpd`/`vfmadd*pd` over full vector registers; the portable
//! root compiles the same body against the baseline ISA.  [`convolve_panels`]
//! picks the widest root supported by the running machine (via
//! [`psmd_multidouble::lanes::detect_isa`]).  Because every root executes
//! the identical operation sequence, the choice changes only speed, never
//! bits.

use psmd_multidouble::lanes::{detect_isa, LaneVec, SimdIsa};
use psmd_multidouble::Coeff;

/// Number of `f64` slots a panel of `n` coefficients occupies at width `W`.
pub fn panel_f64s<C: Coeff>(n: usize, width: usize) -> usize {
    n * C::doubles_per_value() * width
}

/// The shared kernel body: the direct convolution recurrence
/// (`z[k] = Σ_{i<=k} x[i] · y[k-i]`, accumulated with
/// `mul_add_assign`) or its zero-insertion variant, over `W`-lane panels.
///
/// With `zero_insert` the body replicates
/// [`crate::convolution::convolve_zero_insertion`]: the scalar kernel stages
/// `y` into a zero-padded buffer of length `2 n` and accumulates all `n`
/// products per output coefficient, including the products against staged
/// zeros.  Those staged zeros are `C::zero()` bit patterns, so synthesizing
/// a zero lane vector for the out-of-range indices reproduces the staged
/// buffer bitwise without materializing it.
#[inline(always)]
fn conv_panels_body<C: Coeff, const W: usize>(
    zero_insert: bool,
    x: &[f64],
    y: &[f64],
    z: &mut [f64],
    n: usize,
) {
    let stride = C::doubles_per_value() * W;
    debug_assert!(x.len() >= n * stride);
    debug_assert!(y.len() >= n * stride);
    debug_assert!(z.len() >= n * stride);
    for k in 0..n {
        let mut acc = <C::Lanes<W> as LaneVec<C, W>>::zero();
        if zero_insert {
            for i in 0..n {
                let xi = C::Lanes::<W>::load_from(x, i * stride);
                let yi = if i <= k {
                    C::Lanes::<W>::load_from(y, (k - i) * stride)
                } else {
                    <C::Lanes<W> as LaneVec<C, W>>::zero()
                };
                acc.mul_add_assign(&xi, &yi);
            }
        } else {
            for i in 0..=k {
                let xi = C::Lanes::<W>::load_from(x, i * stride);
                let yi = C::Lanes::<W>::load_from(y, (k - i) * stride);
                acc.mul_add_assign(&xi, &yi);
            }
        }
        acc.store_to(z, k * stride);
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn conv_panels_avx2<C: Coeff, const W: usize>(
    zero_insert: bool,
    x: &[f64],
    y: &[f64],
    z: &mut [f64],
    n: usize,
) {
    conv_panels_body::<C, W>(zero_insert, x, y, z, n);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx2,fma")]
unsafe fn conv_panels_avx512<C: Coeff, const W: usize>(
    zero_insert: bool,
    x: &[f64],
    y: &[f64],
    z: &mut [f64],
    n: usize,
) {
    conv_panels_body::<C, W>(zero_insert, x, y, z, n);
}

#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn conv_panels_neon<C: Coeff, const W: usize>(
    zero_insert: bool,
    x: &[f64],
    y: &[f64],
    z: &mut [f64],
    n: usize,
) {
    conv_panels_body::<C, W>(zero_insert, x, y, z, n);
}

/// Convolves `W`-lane panels `x` and `y` of `n` coefficients each into `z`,
/// dispatching to the widest instruction set the machine supports.
///
/// `zero_insert` selects between the bit patterns of the scalar
/// zero-insertion kernel and the direct kernel (they differ — each lane must
/// match the scalar kernel the plan resolved to).  The panels must not
/// overlap; the engine always convolves arena-gathered operand panels into a
/// separate output panel, which also makes in-place arena updates
/// (`out == in1` or `out == in2`) safe without extra staging.
pub fn convolve_panels<C: Coeff, const W: usize>(
    zero_insert: bool,
    x: &[f64],
    y: &[f64],
    z: &mut [f64],
    n: usize,
) {
    match detect_isa() {
        #[cfg(target_arch = "x86_64")]
        SimdIsa::Avx512 => unsafe { conv_panels_avx512::<C, W>(zero_insert, x, y, z, n) },
        #[cfg(target_arch = "x86_64")]
        SimdIsa::Avx2 => unsafe { conv_panels_avx2::<C, W>(zero_insert, x, y, z, n) },
        #[cfg(target_arch = "aarch64")]
        SimdIsa::Neon => unsafe { conv_panels_neon::<C, W>(zero_insert, x, y, z, n) },
        _ => conv_panels_body::<C, W>(zero_insert, x, y, z, n),
    }
}

/// Width-dynamic front end over [`convolve_panels`]: monomorphizes the
/// supported lane widths (2, 4, 8) behind one `usize` parameter.
///
/// # Panics
///
/// Panics on an unsupported width — the engine validates widths when it
/// resolves `SimdMode`, so reaching this with anything else is a bug.
pub fn convolve_panels_dyn<C: Coeff>(
    width: usize,
    zero_insert: bool,
    x: &[f64],
    y: &[f64],
    z: &mut [f64],
    n: usize,
) {
    match width {
        2 => convolve_panels::<C, 2>(zero_insert, x, y, z, n),
        4 => convolve_panels::<C, 4>(zero_insert, x, y, z, n),
        8 => convolve_panels::<C, 8>(zero_insert, x, y, z, n),
        w => panic!("unsupported SIMD lane width {w}: expected 2, 4 or 8"),
    }
}

/// Number of `f64` slots [`convolve_coeff_lanes`] stages for series of `n`
/// coefficients at width `width`: the broadcast `x` panel (`n` values of
/// `width` equal lanes), the limb-major `y` planes zero-padded to
/// `2 n + width` values, and one output lane vector.
pub fn coeff_lanes_f64s<C: Coeff>(n: usize, width: usize) -> usize {
    let d = C::doubles_per_value();
    n * d * width + d * (2 * n + width) + d * width
}

/// The coefficient-lane body: the zero-insertion convolution of one series
/// pair with output coefficients `k0..k0 + W` in the `W` lanes.
///
/// Stage 1 broadcasts every `x_i` across a lane vector and writes `y` into
/// limb-major planes at offset `d = n - 1` behind `d` zero values — the
/// paper's shared-memory `Y` with its inserted zeros, padded by `W` more so
/// the window of the last (partly dead) lane group stays in bounds.  Stage
/// 2 runs, per group, `acc.mul_add_assign(X_i, Y[d + k0 - i ..][..W])` for
/// `i in 0..n`: lane `l` performs exactly the scalar sequence of
/// [`crate::convolution::convolve_zero_insertion`] for `z[k0 + l]`, so the
/// live lanes are bitwise equal to the scalar kernel.  Dead lanes
/// (`k0 + l >= n`) read padding and are never written back.
#[inline(always)]
fn coeff_lanes_body<C: Coeff, const W: usize>(x: &[C], y: &[C], z: &mut [C], scratch: &mut [f64]) {
    let n = z.len();
    debug_assert_eq!(x.len(), n);
    debug_assert_eq!(y.len(), n);
    debug_assert!(scratch.len() >= coeff_lanes_f64s::<C>(n, W));
    let dpv = C::doubles_per_value();
    let stride = dpv * W;
    let plane = 2 * n + W;
    let d = n - 1;
    let (xp, rest) = scratch.split_at_mut(n * stride);
    let (yp, zp) = rest.split_at_mut(dpv * plane);
    let mut limbs = [0.0; 2 * psmd_multidouble::MAX_LIMBS];
    debug_assert!(dpv <= limbs.len());
    for (i, v) in x.iter().enumerate() {
        v.write_limbs(&mut limbs[..dpv]);
        for (j, limb) in limbs[..dpv].iter().enumerate() {
            xp[i * stride + j * W..i * stride + (j + 1) * W].fill(*limb);
        }
    }
    yp.fill(0.0);
    for (k, v) in y.iter().enumerate() {
        v.write_limbs(&mut limbs[..dpv]);
        for (j, limb) in limbs[..dpv].iter().enumerate() {
            yp[j * plane + d + k] = *limb;
        }
    }
    for k0 in (0..n).step_by(W) {
        let mut acc = <C::Lanes<W> as LaneVec<C, W>>::zero();
        for i in 0..n {
            let xi = C::Lanes::<W>::load_from(xp, i * stride);
            let yi = C::Lanes::<W>::load_strided(yp, d + k0 - i, plane);
            acc.mul_add_assign(&xi, &yi);
        }
        acc.store_to(zp, 0);
        for (l, out) in z[k0..n.min(k0 + W)].iter_mut().enumerate() {
            *out = C::Lanes::<W>::read_lane(zp, 0, l);
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn coeff_lanes_avx2<C: Coeff, const W: usize>(
    x: &[C],
    y: &[C],
    z: &mut [C],
    scratch: &mut [f64],
) {
    coeff_lanes_body::<C, W>(x, y, z, scratch);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx2,fma")]
unsafe fn coeff_lanes_avx512<C: Coeff, const W: usize>(
    x: &[C],
    y: &[C],
    z: &mut [C],
    scratch: &mut [f64],
) {
    coeff_lanes_body::<C, W>(x, y, z, scratch);
}

#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn coeff_lanes_neon<C: Coeff, const W: usize>(
    x: &[C],
    y: &[C],
    z: &mut [C],
    scratch: &mut [f64],
) {
    coeff_lanes_body::<C, W>(x, y, z, scratch);
}

/// Zero-insertion convolution of one series pair with `W` output
/// coefficients per lane vector, dispatching to the widest instruction set
/// the machine supports.  Bitwise identical to
/// [`crate::convolution::convolve_zero_insertion`] at every width and
/// length; `scratch` must hold [`coeff_lanes_f64s`]`::<C>(n, W)` doubles.
pub fn convolve_coeff_lanes<C: Coeff, const W: usize>(
    x: &[C],
    y: &[C],
    z: &mut [C],
    scratch: &mut [f64],
) {
    match detect_isa() {
        #[cfg(target_arch = "x86_64")]
        SimdIsa::Avx512 => unsafe { coeff_lanes_avx512::<C, W>(x, y, z, scratch) },
        #[cfg(target_arch = "x86_64")]
        SimdIsa::Avx2 => unsafe { coeff_lanes_avx2::<C, W>(x, y, z, scratch) },
        #[cfg(target_arch = "aarch64")]
        SimdIsa::Neon => unsafe { coeff_lanes_neon::<C, W>(x, y, z, scratch) },
        _ => coeff_lanes_body::<C, W>(x, y, z, scratch),
    }
}

/// Width-dynamic front end over [`convolve_coeff_lanes`] (widths 2, 4, 8).
///
/// # Panics
///
/// Panics on an unsupported width, like [`convolve_panels_dyn`].
pub fn convolve_coeff_lanes_dyn<C: Coeff>(
    width: usize,
    x: &[C],
    y: &[C],
    z: &mut [C],
    scratch: &mut [f64],
) {
    match width {
        2 => convolve_coeff_lanes::<C, 2>(x, y, z, scratch),
        4 => convolve_coeff_lanes::<C, 4>(x, y, z, scratch),
        8 => convolve_coeff_lanes::<C, 8>(x, y, z, scratch),
        w => panic!("unsupported SIMD lane width {w}: expected 2, 4 or 8"),
    }
}

/// Transposes one instance's coefficient slice into lane `lane` of a panel.
///
/// Every [`LaneVec`] lays double `j` of lane `l` at `base + j * width + l`
/// (for complex values the imaginary component simply continues the double
/// index), so the transpose is a strided copy of the exact-bit
/// [`Coeff::write_limbs`] representation.
pub fn gather_into_panel<C: Coeff>(src: &[C], panel: &mut [f64], lane: usize, width: usize) {
    let d = C::doubles_per_value();
    let stride = d * width;
    let mut limbs = [0.0; 2 * psmd_multidouble::MAX_LIMBS];
    debug_assert!(d <= limbs.len());
    for (k, v) in src.iter().enumerate() {
        v.write_limbs(&mut limbs[..d]);
        let base = k * stride;
        for (j, limb) in limbs[..d].iter().enumerate() {
            panel[base + j * width + lane] = *limb;
        }
    }
}

/// Transposes lane `lane` of a panel back into an instance's coefficient
/// slice (the inverse of [`gather_into_panel`], via [`Coeff::from_limbs`]).
pub fn scatter_from_panel<C: Coeff>(panel: &[f64], dst: &mut [C], lane: usize, width: usize) {
    let d = C::doubles_per_value();
    let stride = d * width;
    let mut limbs = [0.0; 2 * psmd_multidouble::MAX_LIMBS];
    debug_assert!(d <= limbs.len());
    for (k, v) in dst.iter_mut().enumerate() {
        let base = k * stride;
        for (j, limb) in limbs[..d].iter_mut().enumerate() {
            *limb = panel[base + j * width + lane];
        }
        *v = C::from_limbs(&limbs[..d]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convolution::{convolve_seq, convolve_zero_insertion, zero_insertion_scratch_len};
    use psmd_multidouble::{Complex, Dd, Deca, Md, Od, Pd, Qd, RandomCoeff, Td};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mill(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        }
    }

    fn series<C: Coeff>(n: usize, next: &mut impl FnMut() -> f64) -> Vec<C> {
        (0..n).map(|_| C::from_f64(next())).collect()
    }

    fn check_panels<C: Coeff, const W: usize>(n: usize, zero_insert: bool) {
        let mut next = mill(n as u64 * 31 + W as u64);
        let xs: Vec<Vec<C>> = (0..W).map(|_| series(n, &mut next)).collect();
        let ys: Vec<Vec<C>> = (0..W).map(|_| series(n, &mut next)).collect();
        let len = panel_f64s::<C>(n, W);
        let (mut xp, mut yp, mut zp) = (vec![0.0; len], vec![0.0; len], vec![0.0; len]);
        for l in 0..W {
            gather_into_panel(&xs[l], &mut xp, l, W);
            gather_into_panel(&ys[l], &mut yp, l, W);
        }
        convolve_panels::<C, W>(zero_insert, &xp, &yp, &mut zp, n);
        let mut scratch = vec![C::zero(); zero_insertion_scratch_len(n)];
        for l in 0..W {
            let mut got = vec![C::zero(); n];
            scatter_from_panel(&zp, &mut got, l, W);
            let mut want = vec![C::zero(); n];
            if zero_insert {
                convolve_zero_insertion(&xs[l], &ys[l], &mut want, &mut scratch);
            } else {
                convolve_seq(&xs[l], &ys[l], &mut want);
            }
            assert_eq!(got, want, "lane {l} W={W} n={n} zi={zero_insert}");
        }
    }

    #[test]
    fn panel_kernels_match_scalar_bitwise_all_precisions() {
        for zi in [false, true] {
            check_panels::<f64, 4>(9, zi);
            check_panels::<Dd, 4>(8, zi);
            check_panels::<Td, 2>(7, zi);
            check_panels::<Qd, 8>(6, zi);
            check_panels::<Pd, 4>(5, zi);
            check_panels::<Od, 2>(4, zi);
            check_panels::<Deca, 4>(4, zi);
            check_panels::<Md<1>, 8>(10, zi);
            check_panels::<Complex<Dd>, 4>(6, zi);
            check_panels::<Complex<Qd>, 2>(5, zi);
        }
    }

    #[test]
    fn dyn_dispatch_covers_supported_widths() {
        for w in [2usize, 4, 8] {
            let n = 5;
            let mut next = mill(w as u64);
            let xs: Vec<Vec<Dd>> = (0..w).map(|_| series(n, &mut next)).collect();
            let ys: Vec<Vec<Dd>> = (0..w).map(|_| series(n, &mut next)).collect();
            let len = panel_f64s::<Dd>(n, w);
            let (mut xp, mut yp, mut zp) = (vec![0.0; len], vec![0.0; len], vec![0.0; len]);
            for l in 0..w {
                gather_into_panel(&xs[l], &mut xp, l, w);
                gather_into_panel(&ys[l], &mut yp, l, w);
            }
            convolve_panels_dyn::<Dd>(w, false, &xp, &yp, &mut zp, n);
            for l in 0..w {
                let mut got = vec![Dd::zero(); n];
                scatter_from_panel(&zp, &mut got, l, w);
                let mut want = vec![Dd::zero(); n];
                convolve_seq(&xs[l], &ys[l], &mut want);
                assert_eq!(got, want);
            }
        }
    }

    type CoeffLaneFn<C> = fn(&[C], &[C], &mut [C], &mut [f64]);

    /// Checks the coefficient-lane kernel bitwise against the scalar
    /// zero-insertion kernel at width `W`, through the portable body, the
    /// ISA dispatcher and the width-dynamic front end.
    fn check_coeff_lanes<C: Coeff + RandomCoeff, const W: usize>() {
        let mut rng = StdRng::seed_from_u64(W as u64);
        for n in [1, 2, W - 1, W, W + 1, 2 * W + 3, 64, 153] {
            // Full-precision values: every limb of every coefficient is
            // live, so a reordered accumulation cannot hide.
            let x: Vec<C> = (0..n).map(|_| C::random_uniform(&mut rng)).collect();
            let y: Vec<C> = (0..n).map(|_| C::random_uniform(&mut rng)).collect();
            let mut want = vec![C::zero(); n];
            let mut scalar_scratch = vec![C::zero(); zero_insertion_scratch_len(n)];
            convolve_zero_insertion(&x, &y, &mut want, &mut scalar_scratch);
            // Stale scratch contents must not leak into the result.
            let mut scratch = vec![f64::NAN; coeff_lanes_f64s::<C>(n, W)];
            let runs: [(&str, CoeffLaneFn<C>); 3] = [
                ("portable", coeff_lanes_body::<C, W>),
                ("dispatch", convolve_coeff_lanes::<C, W>),
                ("dyn", |x, y, z, s| {
                    convolve_coeff_lanes_dyn::<C>(W, x, y, z, s)
                }),
            ];
            for (label, run) in runs {
                let mut got = vec![C::zero(); n];
                run(&x, &y, &mut got, &mut scratch);
                assert_eq!(got, want, "{label} W={W} n={n}");
            }
        }
    }

    fn check_coeff_lanes_all_widths<C: Coeff + RandomCoeff>() {
        check_coeff_lanes::<C, 2>();
        check_coeff_lanes::<C, 4>();
        check_coeff_lanes::<C, 8>();
    }

    #[test]
    fn coeff_lane_kernel_matches_zero_insertion_bitwise() {
        check_coeff_lanes_all_widths::<f64>();
        check_coeff_lanes_all_widths::<Md<1>>();
        check_coeff_lanes_all_widths::<Dd>();
        check_coeff_lanes_all_widths::<Td>();
        check_coeff_lanes_all_widths::<Qd>();
        check_coeff_lanes_all_widths::<Pd>();
        check_coeff_lanes_all_widths::<Od>();
        check_coeff_lanes_all_widths::<Deca>();
        check_coeff_lanes_all_widths::<Complex<Dd>>();
        check_coeff_lanes_all_widths::<Complex<Qd>>();
    }

    #[test]
    #[should_panic(expected = "unsupported SIMD lane width")]
    fn coeff_lane_dispatch_rejects_bad_width() {
        let (x, y, mut z) = ([0.0], [0.0], [0.0]);
        convolve_coeff_lanes_dyn::<f64>(3, &x, &y, &mut z, &mut [0.0; 64]);
    }

    #[test]
    #[should_panic(expected = "unsupported SIMD lane width")]
    fn dyn_dispatch_rejects_bad_width() {
        let (x, y, mut z) = (vec![0.0; 6], vec![0.0; 6], vec![0.0; 6]);
        convolve_panels_dyn::<Dd>(3, false, &x, &y, &mut z, 1);
    }
}
