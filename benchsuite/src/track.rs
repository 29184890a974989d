//! The `track-ladder` workload: `Tracker::track` over 256 paths of the
//! `examples/path_tracking.rs` family at eight blocks.
//!
//! Each block `{x + y − s, x·y − p}` has two real roots of opposite signs;
//! the start system `{x + y, x·y + 1}` has roots `±1`, so the 2^8 sign
//! patterns are the start solutions.  Sixteen variables at degree 0 and an
//! endpoint tolerance of 1e-40 make every path climb 1d → 2d → 3d: many
//! tiny launches, host LU solves and escalation recompiles.
//!
//! The eight `(s, p)` pairs come from a fixed generator; the seed assigns
//! them to the blocks in a seeded order.  Block order moves values between
//! coefficient positions without changing any path's arithmetic, so every
//! seed tracks the same 256 trajectories and an op costs the same.

use std::time::Instant;

use psmd_core::{Engine, SystemSchedule};
use psmd_multidouble::{CostModel, Md1, Precision, Qd};
use psmd_series::{addition_adds, convolution_adds, convolution_mults, ConvAlgo, Series};
use psmd_track::{
    Homotopy, HomotopySpec, MonomialSpec, PolySpec, TrackOptions, TrackOutcome, TrackStats, Tracker,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::record::Record;
use crate::trace::Tracer;
use crate::{probes, stats, Config, OpSplit};

/// Two-variable blocks.
pub const BLOCKS: usize = 8;
/// Paths per op.
pub const PATHS: usize = 1 << BLOCKS;
/// Endpoint residual every path must reach.
pub const FINAL_TOLERANCE: f64 = 1e-40;
/// Largest distance of an endpoint coordinate from its closed-form root.
pub const ROOT_TOLERANCE: f64 = 1e-40;

/// The `(s, p)` constants of every block, in block order for `seed`.
pub fn block_constants(seed: u64) -> Vec<(f64, f64)> {
    // xorshift64, fixed start: the pool of constants never changes.
    let mut state = 0x005e_ed0f_da7a_2026u64;
    let mut unit = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut pool: Vec<(f64, f64)> = (0..BLOCKS)
        .map(|_| (0.1 + 0.8 * unit(), -1.2 - 1.3 * unit()))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..pool.len()).rev() {
        pool.swap(i, rng.gen_range(0..=i));
    }
    pool
}

/// One `{x + y − s, x·y − p}` block over variables `(x, x + 1)`.
fn block(x: usize, s: f64, p: f64) -> [PolySpec; 2] {
    [
        PolySpec {
            constant: vec![-s],
            monomials: vec![
                MonomialSpec::constant_coeff(1.0, vec![x]),
                MonomialSpec::constant_coeff(1.0, vec![x + 1]),
            ],
        },
        PolySpec {
            constant: vec![-p],
            monomials: vec![MonomialSpec::constant_coeff(1.0, vec![x, x + 1])],
        },
    ]
}

/// The homotopy family for `constants`.
pub fn family(constants: &[(f64, f64)]) -> HomotopySpec {
    let mut start = Vec::new();
    let mut target = Vec::new();
    for (k, &(s, p)) in constants.iter().enumerate() {
        start.extend(block(2 * k, 0.0, -1.0));
        target.extend(block(2 * k, s, p));
    }
    HomotopySpec::new(2 * constants.len(), 0, start, target)
}

/// The `2^BLOCKS` sign patterns of the start roots.
pub fn start_solutions() -> Vec<Vec<f64>> {
    (0..PATHS)
        .map(|bits| {
            (0..BLOCKS)
                .flat_map(|k| {
                    if bits >> k & 1 == 0 {
                        [1.0, -1.0]
                    } else {
                        [-1.0, 1.0]
                    }
                })
                .collect()
        })
        .collect()
}

/// The tracker options of the workload.
pub fn options() -> TrackOptions {
    TrackOptions {
        final_tolerance: FINAL_TOLERANCE,
        ..TrackOptions::default()
    }
}

/// A coordinate of an endpoint in quad double (the sum of its limbs).
fn coordinate(limbs: &[f64]) -> Qd {
    limbs
        .iter()
        .fold(Qd::from_f64(0.0), |acc, &l| acc.add(&Qd::from_f64(l)))
}

/// Checks every path: converged with residual ≤ [`FINAL_TOLERANCE`], and
/// each block's endpoint equal to the closed-form roots
/// `(s ± √(s² − 4p)) / 2`, in either order, within [`ROOT_TOLERANCE`].
/// Returns the number of failing paths and the largest root error.
pub fn check(outcome: &TrackOutcome, constants: &[(f64, f64)]) -> (usize, f64) {
    let roots: Vec<(Qd, Qd)> = constants
        .iter()
        .map(|&(s, p)| {
            let (s, p) = (Qd::from_f64(s), Qd::from_f64(p));
            let disc = s.mul(&s).sub(&p.mul(&Qd::from_f64(4.0))).sqrt();
            let half = Qd::from_f64(0.5);
            (s.add(&disc).mul(&half), s.sub(&disc).mul(&half))
        })
        .collect();
    let mut failed = 0;
    let mut worst = 0.0f64;
    for report in &outcome.reports {
        let mut ok = report.converged()
            && report.final_residual <= FINAL_TOLERANCE
            && report.solution_limbs.len() == 2 * constants.len();
        if ok {
            for (k, (r1, r2)) in roots.iter().enumerate() {
                let x = coordinate(&report.solution_limbs[2 * k][0]);
                let y = coordinate(&report.solution_limbs[2 * k + 1][0]);
                let dist = |a: &Qd, b: &Qd| a.sub(b).abs().to_f64();
                let err = (dist(&x, r1).max(dist(&y, r2))).min(dist(&x, r2).max(dist(&y, r1)));
                worst = worst.max(err);
                ok &= err <= ROOT_TOLERANCE;
            }
        }
        if !ok {
            failed += 1;
        }
    }
    (failed, worst)
}

/// The bit patterns of every path's endpoint limbs, in path order.
fn endpoint_bits(outcome: &TrackOutcome) -> Vec<u64> {
    outcome
        .reports
        .iter()
        .flat_map(|r| r.solution_limbs.iter().flatten().flatten())
        .map(|limb| limb.to_bits())
        .collect()
}

/// The exact counters of one tracking op.
pub fn counts(stats: &TrackStats) -> [usize; 4] {
    [
        stats.corrector_launches,
        stats.steps,
        stats.newton_iterations,
        stats.escalations(),
    ]
}

/// Runs `track-ladder`.  Returns the spans of a traced run.
pub fn run(cfg: &Config, record: &mut Record) -> Option<Tracer> {
    let constants = block_constants(cfg.seed);
    let spec = family(&constants);
    let starts = start_solutions();
    let mut worst = 0.0f64;
    let mut check_op = |outcome: &Result<TrackOutcome, psmd_core::Error>| match outcome {
        Ok(o) => {
            let (failed, err) = check(o, &constants);
            worst = worst.max(err);
            failed == 0
        }
        Err(_) => false,
    };

    let mut setup_s = Vec::with_capacity(cfg.setups);
    let mut live = None;
    for _ in 0..cfg.setups {
        drop(live.take());
        let family = spec.clone();
        let start = Instant::now();
        let engine = Engine::builder().build();
        let tracker = Tracker::new(family, options()).expect("a valid family");
        let first = tracker.track(&engine, &starts);
        setup_s.push(start.elapsed().as_secs_f64());
        record.op(check_op(&first));
        live = Some((engine, tracker, first));
    }
    let (engine, tracker, first) = live.expect("at least one set-up");
    let Ok(first) = first else {
        record.note("tracking failed in set-up");
        return None;
    };

    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch);
    let mut untraced_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut rendezvous = Vec::new();
    let mut op_counts = Vec::new();
    let deadline = epoch + cfg.duration;
    let mut id = 0u64;
    loop {
        let traced = cfg.trace && id.is_multiple_of(2);
        let r0 = engine.rendezvous_count();
        let start = Instant::now();
        let outcome = if traced {
            let root = tracer.begin("op", id, None);
            let out = tracer.span("tracker.track", id, Some(root), || {
                tracker.track(&engine, &starts)
            });
            let ms = crate::ms_since(start);
            let ok = tracer.span("check", id, Some(root), || check_op(&out));
            tracer.end(root);
            traced_ms.push(ms);
            out.map(|o| (o, ok))
        } else {
            let out = tracker.track(&engine, &starts);
            let ms = crate::ms_since(start);
            untraced_ms.push(ms);
            let ok = check_op(&out);
            out.map(|o| (o, ok))
        };
        rendezvous.push((engine.rendezvous_count() - r0) as f64);
        match outcome {
            Ok((o, ok)) => {
                let same = endpoint_bits(&o) == endpoint_bits(&first);
                op_counts.push(counts(&o.stats));
                record.op(ok && same);
            }
            Err(_) => record.op(false),
        }
        id += 1;
        if Instant::now() >= deadline && (!cfg.trace || !untraced_ms.is_empty()) {
            break;
        }
    }
    record.note(format!(
        "closed-form check: worst root error {worst:.3e} (bound {ROOT_TOLERANCE:e})"
    ));

    if !cfg.trace {
        let total_s: f64 = untraced_ms.iter().sum::<f64>() * 1e-3;
        record.set("latency_ms_p50", stats::median(&untraced_ms));
        record.set(
            "throughput_per_s",
            (untraced_ms.len() * PATHS) as f64 / total_s,
        );
        record.set("setup_s", stats::median(&setup_s));
        record.head("ops", untraced_ms.len());
        record.note(format!(
            "op latencies (ms): {}",
            crate::list_ms(&untraced_ms)
        ));
        return None;
    }

    let [launches, steps, iterations, escalations] = counts(&first.stats);
    if op_counts.iter().any(|c| *c != counts(&first.stats)) {
        record.note("TrackStats differ between repeats of the same op");
        record.op(false);
    }
    record.set("track.corrector_launches", launches as f64);
    record.set("track.steps", steps as f64);
    record.set("track.newton_iterations", iterations as f64);
    record.set("track.escalations", escalations as f64);
    let all_ms: Vec<f64> = traced_ms.iter().chain(&untraced_ms).copied().collect();
    record.set(
        "track.us_per_iteration",
        stats::median(&all_ms) * 1e3 / iterations as f64,
    );
    record.set("runtime.rendezvous_per_op", stats::median(&rendezvous));
    core_probe(cfg, &spec, &starts, record);
    record.set(
        "trace.overhead_ms",
        stats::median(&traced_ms) - stats::median(&untraced_ms),
    );
    record.set("trace.call_self_ms", tracer.median_self_ms("tracker.track"));
    record.set("trace.check_self_ms", tracer.median_self_ms("check"));
    record.set("trace.spans", tracer.spans.len() as f64);
    probes::record_all(engine.pool(), cfg.seed, record);
    Some(tracer)
}

/// The core layer under the tracker: compiles the stacked `[G; F]` plan
/// at 1d on a fresh engine, then times the batched evaluation of all 256
/// start points — one corrector sweep of the first rung.
fn core_probe(cfg: &Config, spec: &HomotopySpec, starts: &[Vec<f64>], record: &mut Record) {
    let engine = Engine::builder().build();
    let start = Instant::now();
    let homotopy = Homotopy::<Md1>::compile(spec, &engine, &options()).expect("a valid family");
    record.set("core.compile_ms", crate::ms_since(start));
    let points: Vec<Vec<Series<Md1>>> = starts
        .iter()
        .map(|s| {
            s.iter()
                .map(|&v| Series::constant(Md1::from_f64(v), 0))
                .collect()
        })
        .collect();
    let plan = homotopy.plan();
    let mut splits = Vec::new();
    for _ in 0..15 {
        let start = Instant::now();
        let out = plan.request(&points).run();
        splits.push(OpSplit {
            outer_ms: crate::ms_since(start),
            timings: *out.timings(),
        });
    }
    crate::report_core_split(&splits, record);
    let width = splits[0].timings.simd_width;
    let conv_job = probes::conv_job_us::<Md1>(0, width, cfg.seed);
    crate::report_parallel_eff(conv_job, engine.pool().parallelism(), record);
    let schedule = plan.system_schedule().expect("a system plan");
    let p50_ms = stats::median(&splits.iter().map(|s| s.outer_ms).collect::<Vec<_>>());
    record.set(
        "core.gflops",
        system_gflops(schedule, Precision::D1, p50_ms / starts.len() as f64),
    );
}

/// Achieved GFLOP/s of one evaluation of a system schedule in `ms`, in the
/// paper's cost model (the count `psmd_core::achieved_gflops` makes for a
/// single-polynomial schedule).
fn system_gflops(schedule: &SystemSchedule, precision: Precision, ms: f64) -> f64 {
    let d = schedule.layout.degree;
    let (conv, add) = (schedule.convolution_jobs(), schedule.addition_jobs());
    let mults = conv * convolution_mults(ConvAlgo::ZeroInsertion, d);
    let adds = conv * convolution_adds(ConvAlgo::ZeroInsertion, d) + add * addition_adds(d);
    let ops = mults as f64 * precision.mul_ops(CostModel::Paper) as f64
        + adds as f64 * precision.add_ops(CostModel::Paper) as f64;
    ops / (ms * 1e-3) / 1e9
}
