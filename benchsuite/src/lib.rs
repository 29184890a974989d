//! End-to-end and per-layer benchmark of psmd.
//!
//! Four workloads, each one kind of operation through one public entry
//! point, run one per process:
//!
//! * `eval-deep` — `Plan::request(&x).run()` of reduced p1 in quad double
//!   at degree 63 (the Md primitives and the convolution kernel);
//! * `eval-batch` — one 64-point `Inputs::Batch` run of reduced p1 in
//!   double double at degree 15 (the SIMD lane tier);
//! * `track-ladder` — `Tracker::track` of 256 paths climbing 1d → 2d → 3d
//!   (executor, host LU solves and escalation);
//! * `serve-coalesce` — a closed-loop client with 32 requests in flight,
//!   `Service::submit_async` then `Ticket::wait` (admission, coalescing,
//!   scatter and wake); the traced run adds two contending clients.
//!
//! The seed changes coefficient and input values only; supports, degrees,
//! batch sizes and path counts are fixed, so an op costs the same under
//! every seed.  Every op's output is checked.  An untraced run reports the
//! end-to-end metrics of [`record::END_TO_END`]; a traced run records
//! spans around every call into the library and reports the per-layer
//! metrics of [`record::PER_LAYER`].

mod eval;
mod host;
mod probes;
pub mod record;
mod serve;
mod stats;
mod trace;
mod track;

use std::time::Duration;

use psmd_runtime::KernelTimings;

use record::Record;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Single-point quad-double evaluation at degree 63.
    EvalDeep,
    /// 64-point double-double batch at degree 15.
    EvalBatch,
    /// Adaptive-precision tracking of 256 paths.
    TrackLadder,
    /// Closed-loop requests against one coalescing plan.
    ServeCoalesce,
}

impl Workload {
    /// Every workload, in catalogue order.
    pub const ALL: [Workload; 4] = [
        Workload::EvalDeep,
        Workload::EvalBatch,
        Workload::TrackLadder,
        Workload::ServeCoalesce,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::EvalDeep => "eval-deep",
            Workload::EvalBatch => "eval-batch",
            Workload::TrackLadder => "track-ladder",
            Workload::ServeCoalesce => "serve-coalesce",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One run's settings.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Which workload runs.
    pub workload: Workload,
    /// Seed of the coefficient and input values.
    pub seed: u64,
    /// How long the op loop runs.
    pub duration: Duration,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    /// Set-ups timed before the op loop; `setup_s` is their median.
    pub setups: usize,
}

impl Config {
    /// The settings the command line asks for, with the workload's
    /// default number of set-ups.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Self {
        Self {
            workload,
            seed,
            duration: Duration::from_secs_f64(seconds),
            trace,
            setups: match workload {
                Workload::ServeCoalesce => 21,
                _ => 3,
            },
        }
    }
}

/// Everything one run leaves behind: the record and, when traced, the
/// spans as JSON.
pub struct Outcome {
    /// Metrics, op counts and header.
    pub record: Record,
    /// The recorded spans (traced runs only).
    pub spans_json: Option<String>,
}

/// Runs one workload end to end.
pub fn run(cfg: &Config) -> Outcome {
    let stat0 = host::CpuTimes::now();
    let mut record = Record::new(cfg.trace);
    header(cfg, &mut record);
    let spans = match cfg.workload {
        Workload::EvalDeep => eval::run::<psmd_multidouble::Qd>(cfg, &eval::DEEP, &mut record),
        Workload::EvalBatch => eval::run::<psmd_multidouble::Dd>(cfg, &eval::BATCH, &mut record),
        Workload::TrackLadder => track::run(cfg, &mut record),
        Workload::ServeCoalesce => serve::run(cfg, &mut record),
    };
    let steal = host::CpuTimes::now().steal_pct_since(&stat0);
    let ref_loop = host::ref_loop_ms();
    record.head("host.ref_loop_ms", ref_loop);
    record.head("host.steal_pct", steal);
    if cfg.trace {
        record.set("host.ref_loop_ms", ref_loop);
        record.set("host.steal_pct", steal);
    } else {
        record.set("peak_rss_mb", host::peak_rss_mb());
        let ok = record.attempted - record.failed;
        record.set("success_ratio", ok as f64 / record.attempted.max(1) as f64);
    }
    Outcome {
        record,
        spans_json: spans.map(|t| t.to_json()),
    }
}

/// The machine and configuration header every record starts with.
fn header(cfg: &Config, record: &mut Record) {
    let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unset".to_string());
    let options = psmd_core::EvalOptions::default();
    let resolved = options.with_simd(options.simd.resolved());
    record.head("workload", cfg.workload.name());
    record.head("seed", cfg.seed);
    record.head("seconds", cfg.duration.as_secs_f64());
    record.head("trace", cfg.trace);
    record.head("cpu_model", host::cpu_model());
    record.head("nproc", host::nproc());
    record.head("isa", psmd_multidouble::detect_isa().name());
    record.head("lane_width", options.simd.lane_width());
    record.head("eval_options", format!("{resolved:?}"));
    record.head(
        "pool_parallelism",
        psmd_runtime::WorkerPool::default_worker_threads() + 1,
    );
    record.head("PSMD_THREADS", env("PSMD_THREADS"));
    record.head("PSMD_SIMD", env("PSMD_SIMD"));
    record.head("rustc", env("PSMDBENCH_RUSTC"));
    record.head("git_sha", env("PSMDBENCH_GIT_SHA"));
}

/// Milliseconds since `start`.
pub fn ms_since(start: std::time::Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Latencies as a short comma-separated list.
pub fn list_ms(ms: &[f64]) -> String {
    ms.iter()
        .map(|x| format!("{x:.1}"))
        .collect::<Vec<_>>()
        .join(", ")
}

/// One timed op's layer split: the benchmark's outer wall time and the
/// library's own `KernelTimings`.
#[derive(Debug, Clone, Copy)]
pub struct OpSplit {
    /// Wall time the benchmark measured around the call, in ms.
    pub outer_ms: f64,
    /// The library's timings of the same call.
    pub timings: KernelTimings,
}

/// Reports the `core.*` time split of the median of `splits` (at least
/// one op) and checks that the
/// layers add up to its wall time: convolution + addition + other (inside
/// the library call, outside kernels) + outside (between the benchmark's
/// clock and the library's) = outer wall.
pub fn report_core_split(splits: &[OpSplit], record: &mut Record) {
    let mut order: Vec<usize> = (0..splits.len()).collect();
    order.sort_by(|&a, &b| splits[a].outer_ms.total_cmp(&splits[b].outer_ms));
    let op = splits[order[(order.len() - 1) / 2]];
    let t = op.timings;
    let conv = t.convolution_ms() + t.graph_ms();
    let add = t.addition_ms();
    let other = t.wall_clock_ms() - conv - add;
    let outside = op.outer_ms - t.wall_clock_ms();
    let sum = conv + add + other + outside;
    let residual = op.outer_ms - sum;
    record.set("core.conv_ms", conv);
    record.set("core.add_ms", add);
    record.set("core.other_ms", other);
    record.set("core.outside_ms", outside);
    record.set("core.kernel_pct", t.kernel_percentage());
    record.set("core.conv_blocks", t.convolution_blocks as f64);
    record.set("core.add_blocks", t.addition_blocks as f64);
    record.set(
        "core.launches",
        (t.convolution_launches + t.addition_launches + t.graph_launches) as f64,
    );
    let accounted = other >= -1e-6 && outside >= -1e-6 && residual.abs() <= 1e-9 * op.outer_ms;
    record.note(format!(
        "layer accounting (median op): conv {conv:.4} + add {add:.4} + other {other:.4} \
         + outside {outside:.4} = {sum:.4} ms vs wall {:.4} ms (residual {residual:.2e} ms){}",
        op.outer_ms,
        if accounted { "" } else { " FAILED" }
    ));
    record.op(accounted);
    let counts = |s: &OpSplit| {
        let t = &s.timings;
        (
            t.convolution_blocks,
            t.addition_blocks,
            t.convolution_launches + t.addition_launches + t.graph_launches,
        )
    };
    if splits.iter().any(|s| counts(s) != counts(&op)) {
        record.note("core counts differ between repeats of the same op");
        record.op(false);
    }
}

/// Sets `core.parallel_eff`: the convolution time the blocks would take
/// one after another on one participant (`conv_job_us` each), over the
/// participant-time the launches took; notes the conv model residual,
/// `1 − core.parallel_eff`.
pub fn report_parallel_eff(conv_job_us: f64, participants: usize, record: &mut Record) {
    let blocks = record.metrics["core.conv_blocks"];
    let conv_ms = record.metrics["core.conv_ms"];
    let eff = blocks * conv_job_us * 1e-3 / (participants as f64 * conv_ms);
    record.set("core.parallel_eff", eff);
    record.note(format!(
        "conv model: {blocks} blocks x {conv_job_us:.3} us / ({participants} participants x \
         {conv_ms:.3} ms) = parallel_eff {eff:.3}; residual {:.3}",
        1.0 - eff
    ));
}
