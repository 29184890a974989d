//! The plan-evaluation workloads: `eval-deep` (one point, quad double,
//! degree 63) and `eval-batch` (64 points, double double, degree 15), both
//! over reduced p1 — 10 variables, all 210 monomials of 4 — with the
//! default options (zero-insertion kernel, layered execution, SIMD lanes
//! auto-detected).

use std::sync::Arc;
use std::time::Instant;

use psmd_core::{
    achieved_gflops, combinations, evaluate_naive, polynomial_with_supports, random_inputs, Engine,
    EvalOutput, Evaluation, Plan, Polynomial,
};
use psmd_multidouble::{Coeff, CostModel, Precision, RandomCoeff};
use psmd_series::Series;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::record::Record;
use crate::trace::Tracer;
use crate::{probes, stats, Config, OpSplit};

/// The shape of an evaluation workload; the seed never changes it.
#[derive(Debug, Clone, Copy)]
pub struct EvalSpec {
    /// Coefficient precision (must match the type parameter of [`run`]).
    pub precision: Precision,
    /// Truncation degree of every series.
    pub degree: usize,
    /// Points per op: 1 runs `Inputs::Single`, more run `Inputs::Batch`.
    pub points: usize,
}

/// `eval-deep`.
pub const DEEP: EvalSpec = EvalSpec {
    precision: Precision::D4,
    degree: 63,
    points: 1,
};

/// `eval-batch`.
pub const BATCH: EvalSpec = EvalSpec {
    precision: Precision::D2,
    degree: 15,
    points: 64,
};

/// Variables of reduced p1.
pub const P1_VARIABLES: usize = 10;

/// Reduced p1 with seeded random coefficient series.
pub fn p1<C: Coeff + RandomCoeff>(degree: usize, seed: u64) -> Polynomial<C> {
    let mut rng = StdRng::seed_from_u64(seed);
    polynomial_with_supports(
        combinations(P1_VARIABLES, 4),
        P1_VARIABLES,
        degree,
        &mut rng,
    )
}

/// `count` seeded random input vectors for reduced p1.
pub fn p1_points<C: Coeff + RandomCoeff>(
    count: usize,
    degree: usize,
    seed: u64,
) -> Vec<Vec<Series<C>>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    (0..count)
        .map(|_| random_inputs(P1_VARIABLES, degree, &mut rng))
        .collect()
}

/// The roundoff bound an evaluation must meet against the naive
/// evaluator at the same precision: `64 · u · (d+1) · (m+4)` times the
/// largest coefficient magnitude of the reference (at least 1), where `u`
/// is the unit roundoff, `d` the degree and `m` the monomial count — the
/// two evaluators associate the same products differently.
pub fn roundoff_bound<C: Coeff>(reference: &Evaluation<C>, degree: usize, monomials: usize) -> f64 {
    let scale = reference
        .gradient
        .iter()
        .map(Series::max_magnitude)
        .fold(reference.value.max_magnitude(), f64::max)
        .max(1.0);
    64.0 * C::unit_roundoff() * ((degree + 1) * (monomials + 4)) as f64 * scale
}

/// The instances of an evaluation output, in input order.
fn instances<C: Coeff>(out: &EvalOutput<C>) -> &[Evaluation<C>] {
    match out {
        EvalOutput::Single(e) => std::slice::from_ref(e),
        EvalOutput::Batch(b) => &b.instances,
        _ => &[],
    }
}

/// One op: the public entry point, timed from outside.
fn op<C: Coeff>(plan: &Plan<C>, points: &[Vec<Series<C>>]) -> EvalOutput<C> {
    if points.len() == 1 {
        plan.request(&points[0]).run()
    } else {
        plan.request(points).run()
    }
}

/// Runs an evaluation workload.  Returns the spans of a traced run.
pub fn run<C: Coeff + RandomCoeff>(
    cfg: &Config,
    spec: &EvalSpec,
    record: &mut Record,
) -> Option<Tracer> {
    let poly: Polynomial<C> = p1(spec.degree, cfg.seed);
    let points = p1_points::<C>(spec.points, spec.degree, cfg.seed);
    let monomials = poly.monomials().len();

    // The naive reference, once and outside any timing.
    let references: Vec<(Evaluation<C>, f64)> = points
        .iter()
        .map(|z| {
            let r = evaluate_naive(&poly, z);
            let bound = roundoff_bound(&r, spec.degree, monomials);
            (r, bound)
        })
        .collect();
    let mut worst = 0.0f64;
    let mut matches_naive = |out: &EvalOutput<C>| {
        let got = instances(out);
        got.len() == references.len()
            && got.iter().zip(&references).all(|(g, (r, bound))| {
                let diff = g.max_difference(r);
                worst = worst.max(diff / bound);
                diff <= *bound
            })
    };

    // Set-up: pool spawn, compile, first (cold) op — several times, each
    // on a fresh engine.
    let mut setup_s = Vec::with_capacity(cfg.setups);
    let mut compile_ms = Vec::with_capacity(cfg.setups);
    let mut live: Option<(Engine, Arc<Plan<C>>, EvalOutput<C>)> = None;
    for _ in 0..cfg.setups {
        drop(live.take());
        let source = poly.clone();
        let start = Instant::now();
        let engine = Engine::builder().build();
        let compile_start = Instant::now();
        let plan = engine.compile(source);
        compile_ms.push(crate::ms_since(compile_start));
        let first = op(&plan, &points);
        setup_s.push(start.elapsed().as_secs_f64());
        record.op(matches_naive(&first));
        live = Some((engine, plan, first));
    }
    let (engine, plan, first) = live.expect("at least one set-up");
    record.note(format!(
        "naive check: worst error {worst:.3e} of the roundoff bound"
    ));

    // The op loop: every repeat must reproduce the first result bit for
    // bit.  A traced run alternates traced and untraced ops.
    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch);
    let mut untraced_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut splits = Vec::new();
    let mut rendezvous = Vec::new();
    let deadline = epoch + cfg.duration;
    let mut id = 0u64;
    loop {
        let traced = cfg.trace && id.is_multiple_of(2);
        let r0 = engine.rendezvous_count();
        let start = Instant::now();
        let (out, outer_ms, ok) = if traced {
            let root = tracer.begin("op", id, None);
            let out = tracer.span("plan.run", id, Some(root), || op(&plan, &points));
            let outer_ms = crate::ms_since(start);
            let ok = tracer.span("check", id, Some(root), || out.bitwise_eq(&first));
            tracer.end(root);
            traced_ms.push(outer_ms);
            (out, outer_ms, ok)
        } else {
            let out = op(&plan, &points);
            let outer_ms = crate::ms_since(start);
            untraced_ms.push(outer_ms);
            let ok = out.bitwise_eq(&first);
            (out, outer_ms, ok)
        };
        rendezvous.push((engine.rendezvous_count() - r0) as f64);
        splits.push(OpSplit {
            outer_ms,
            timings: *out.timings(),
        });
        record.op(ok);
        id += 1;
        if Instant::now() >= deadline && (!cfg.trace || !untraced_ms.is_empty()) {
            break;
        }
    }

    if !cfg.trace {
        let p50 = stats::median(&untraced_ms);
        let total_s: f64 = untraced_ms.iter().sum::<f64>() * 1e-3;
        record.set("latency_ms_p50", p50);
        record.set(
            "throughput_per_s",
            (untraced_ms.len() * spec.points) as f64 / total_s,
        );
        record.set("setup_s", stats::median(&setup_s));
        let schedule = plan.schedule().expect("a single-polynomial plan");
        let gflops = achieved_gflops(
            schedule,
            spec.precision,
            CostModel::Paper,
            p50 / spec.points as f64,
        );
        record.head("ops", untraced_ms.len());
        record.note(format!(
            "op latencies (ms): {}",
            crate::list_ms(&untraced_ms)
        ));
        record.head("gflops_paper", gflops);
        return None;
    }

    // Traced run: layer split, counters and primitive probes.
    crate::report_core_split(&splits, record);
    record.set("core.compile_ms", stats::median(&compile_ms));
    record.set("runtime.rendezvous_per_op", stats::median(&rendezvous));
    let p50_all = stats::median(&splits.iter().map(|s| s.outer_ms).collect::<Vec<_>>());
    let schedule = plan.schedule().expect("a single-polynomial plan");
    record.set(
        "core.gflops",
        achieved_gflops(
            schedule,
            spec.precision,
            CostModel::Paper,
            p50_all / spec.points as f64,
        ),
    );
    let width = first.timings().simd_width;
    let conv_job = probes::conv_job_us::<C>(spec.degree, width, cfg.seed);
    crate::report_parallel_eff(conv_job, engine.pool().parallelism(), record);
    record.set(
        "trace.overhead_ms",
        stats::median(&traced_ms) - stats::median(&untraced_ms),
    );
    record.set("trace.call_self_ms", tracer.median_self_ms("plan.run"));
    record.set("trace.check_self_ms", tracer.median_self_ms("check"));
    record.set("trace.spans", tracer.spans.len() as f64);
    probes::record_all(engine.pool(), cfg.seed, record);
    Some(tracer)
}
