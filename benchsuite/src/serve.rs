//! The `serve-coalesce` workload: closed-loop clients against one
//! registered reduced p1 in double double at degree 8 with the default
//! `ServeConfig`, each request timed from `Service::submit_async` to the
//! return of its `Ticket::wait`.
//!
//! The timed loop is one client keeping [`IN_FLIGHT`] requests in flight:
//! every coalesced window is full, so the figures repeat.  Two clients
//! sharing the same load ([`CONTENDED_CLIENTS`] × [`CONTENDED_IN_FLIGHT`])
//! hit the leader streak — `drain_as_leader` returns only when the queue
//! is empty, so one client leads for seconds while its own requests wait —
//! and their median swings between runs by a third.  The traced run
//! measures that contended loop too and reports its tail as per-layer
//! metrics.
//!
//! Inputs come from a seeded pool of 64 points whose direct
//! `plan.request(..).run()` results are computed before the loop; every
//! response must equal its point's direct result bit for bit.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use psmd_core::{achieved_gflops, Engine, Evaluation};
use psmd_multidouble::{CostModel, Dd, Precision};
use psmd_series::Series;
use psmd_serve::{Request, ServeConfig, ServeError, Service, Ticket};

use crate::record::Record;
use crate::trace::Tracer;
use crate::{eval, probes, stats, Config, OpSplit};

/// Truncation degree.
pub const DEGREE: usize = 8;
/// Requests the timed client keeps in flight: one default window.
pub const IN_FLIGHT: usize = 32;
/// Clients of the contended loop of the traced run.
pub const CONTENDED_CLIENTS: usize = 2;
/// Requests each contended client keeps in flight.
pub const CONTENDED_IN_FLIGHT: usize = 16;
/// Distinct input points.
pub const POOL: usize = 64;
/// Requests of the staged fixed-window probe: three full default windows,
/// inside the default admission limit.
pub const STAGED: usize = 96;
const PLAN: &str = "p1";

/// Bitwise equality of two series.
fn series_bits_eq(a: &Series<Dd>, b: &Series<Dd>) -> bool {
    a.degree() == b.degree()
        && a.coeffs().iter().zip(b.coeffs()).all(|(x, y)| {
            x.limbs()
                .iter()
                .zip(y.limbs())
                .all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

/// Bitwise equality of value and gradient.
pub fn evaluation_bits_eq(a: &Evaluation<Dd>, b: &Evaluation<Dd>) -> bool {
    series_bits_eq(&a.value, &b.value)
        && a.gradient.len() == b.gradient.len()
        && a.gradient
            .iter()
            .zip(&b.gradient)
            .all(|(x, y)| series_bits_eq(x, y))
}

/// Which pool point request `id` of client `client` uses.
fn point_of(client: usize, id: u64) -> usize {
    (client * 31 + id as usize * 7) % POOL
}

/// What the clients share: the service, the point pool and each point's
/// direct result.
struct Fixture<'a> {
    service: &'a Service,
    pool: &'a [Vec<Series<Dd>>],
    expected: &'a [Evaluation<Dd>],
}

/// What one client measured.
struct ClientLog {
    untraced_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    ok: u64,
    failed: u64,
    tracer: Tracer,
    last_response: Instant,
}

/// One closed-loop client: keeps `in_flight` requests queued, waits on
/// the oldest, checks it and submits the next until `deadline`, then
/// drains.  With `trace`, every other request is traced.
fn client(
    c: usize,
    fx: &Fixture,
    in_flight: usize,
    deadline: Instant,
    trace: bool,
    epoch: Instant,
) -> ClientLog {
    struct Pending {
        ticket: Result<Ticket<Dd>, ServeError>,
        start: Instant,
        point: usize,
        id: u64,
        root: Option<usize>,
    }
    let mut log = ClientLog {
        untraced_ms: Vec::new(),
        traced_ms: Vec::new(),
        ok: 0,
        failed: 0,
        tracer: Tracer::new(epoch),
        last_response: epoch,
    };
    let mut next = 0u64;
    let mut submit = |tracer: &mut Tracer| {
        let id = next;
        next += 1;
        let point = point_of(c, id);
        let request = Request::new(fx.pool[point].clone());
        let start = Instant::now();
        let root = (trace && id.is_multiple_of(2)).then(|| tracer.begin("op", id, None));
        let ticket = match root {
            Some(_) => tracer.span("service.submit_async", id, root, || {
                fx.service.submit_async(PLAN, request)
            }),
            None => fx.service.submit_async(PLAN, request),
        };
        Pending {
            ticket,
            start,
            point,
            id,
            root,
        }
    };
    let mut queue: VecDeque<Pending> = (0..in_flight).map(|_| submit(&mut log.tracer)).collect();
    while let Some(req) = queue.pop_front() {
        let response = match req.root {
            Some(root) => log.tracer.span("ticket.wait", req.id, Some(root), || {
                req.ticket.and_then(Ticket::wait)
            }),
            None => req.ticket.and_then(Ticket::wait),
        };
        let ms = crate::ms_since(req.start);
        log.last_response = Instant::now();
        let check = || {
            response
                .as_ref()
                .is_ok_and(|r| evaluation_bits_eq(&r.evaluation, &fx.expected[req.point]))
        };
        let ok = match req.root {
            Some(root) => {
                let ok = log.tracer.span("check", req.id, Some(root), check);
                log.tracer.end(root);
                log.traced_ms.push(ms);
                ok
            }
            None => {
                log.untraced_ms.push(ms);
                check()
            }
        };
        if ok {
            log.ok += 1;
        } else {
            log.failed += 1;
        }
        if Instant::now() < deadline {
            queue.push_back(submit(&mut log.tracer));
        }
    }
    log
}

/// The outcome of one closed loop.
struct LoopStats {
    untraced_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    /// Per-client `(requests, median ms)`.
    per_client: Vec<(usize, f64)>,
    elapsed_s: f64,
    mean_batch: f64,
    rendezvous: u64,
    tracer: Tracer,
}

impl LoopStats {
    fn all_ms(&self) -> Vec<f64> {
        self.untraced_ms
            .iter()
            .chain(&self.traced_ms)
            .copied()
            .collect()
    }
}

/// Runs `clients` closed-loop clients for `duration` on their own threads
/// and counts every checked response into `record`.
fn closed_loop(
    fx: &Fixture,
    clients: usize,
    in_flight: usize,
    duration: Duration,
    trace: bool,
    record: &mut Record,
) -> LoopStats {
    let before = fx.service.metrics(PLAN).expect("registered");
    let epoch = Instant::now();
    let deadline = epoch + duration;
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| s.spawn(move || client(c, fx, in_flight, deadline, trace, epoch)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let after = fx.service.metrics(PLAN).expect("registered");
    let mut stats = LoopStats {
        untraced_ms: Vec::new(),
        traced_ms: Vec::new(),
        per_client: Vec::new(),
        elapsed_s: logs
            .iter()
            .map(|l| l.last_response.duration_since(epoch).as_secs_f64())
            .fold(0.0, f64::max),
        mean_batch: (after.coalesced_total - before.coalesced_total) as f64
            / (after.launches - before.launches) as f64,
        rendezvous: after.pool_rendezvous.unwrap_or(0) - before.pool_rendezvous.unwrap_or(0),
        tracer: Tracer::new(epoch),
    };
    for log in logs {
        let mut own = log.untraced_ms.clone();
        own.extend(&log.traced_ms);
        stats.per_client.push((own.len(), stats::median(&own)));
        stats.untraced_ms.extend(&log.untraced_ms);
        stats.traced_ms.extend(&log.traced_ms);
        record.attempted += log.ok + log.failed;
        record.failed += log.failed;
        stats.tracer.absorb(log.tracer);
    }
    stats
}

/// Runs `serve-coalesce`.  Returns the spans of a traced run.
pub fn run(cfg: &Config, record: &mut Record) -> Option<Tracer> {
    let poly = eval::p1::<Dd>(DEGREE, cfg.seed);
    let pool = eval::p1_points::<Dd>(POOL, DEGREE, cfg.seed);

    // Set-up: pool spawn, register (compile + queue), first request.
    let mut setup_s = Vec::with_capacity(cfg.setups);
    let mut register_ms = Vec::with_capacity(cfg.setups);
    let mut first_responses = Vec::with_capacity(cfg.setups);
    let mut live = None;
    for _ in 0..cfg.setups {
        drop(live.take());
        let source = poly.clone();
        let input = pool[point_of(0, 0)].clone();
        let start = Instant::now();
        let service = Service::new(Engine::builder().build(), ServeConfig::default());
        let register_start = Instant::now();
        let registered = service.register::<Dd>(PLAN, source);
        register_ms.push(crate::ms_since(register_start));
        let response = registered
            .and_then(|_| service.submit_async(PLAN, Request::new(input)))
            .and_then(Ticket::wait);
        setup_s.push(start.elapsed().as_secs_f64());
        first_responses.push(response.map(|r| r.evaluation));
        live = Some(service);
    }
    let service = live.expect("at least one set-up");
    let Ok(plan) = service.plan::<Dd>(PLAN) else {
        record.note("registration failed");
        record.op(false);
        return None;
    };

    // Direct results of every pool point, outside any timing.
    let expected: Vec<Evaluation<Dd>> = pool
        .iter()
        .map(|z| plan.request(z).run().into_single())
        .collect();
    for response in &first_responses {
        record.op(response
            .as_ref()
            .is_ok_and(|e| evaluation_bits_eq(e, &expected[point_of(0, 0)])));
    }
    let fx = Fixture {
        service: &service,
        pool: &pool,
        expected: &expected,
    };

    // A traced run splits its time between the workload's own loop and
    // the contended loop.
    let own_time = if cfg.trace {
        cfg.duration / 2
    } else {
        cfg.duration
    };
    let own = closed_loop(&fx, 1, IN_FLIGHT, own_time, cfg.trace, record);
    let own_ms = own.all_ms();
    let p50 = stats::median(&own_ms);
    record.head("requests", own_ms.len());
    record.head("mean_batch", own.mean_batch);
    record.head(
        "latency_ms_p90",
        stats::tail_quantile(&own_ms, 0.9).unwrap_or(f64::NAN),
    );

    if !cfg.trace {
        record.set("latency_ms_p50", p50);
        record.set("throughput_per_s", own_ms.len() as f64 / own.elapsed_s);
        record.set("setup_s", stats::median(&setup_s));
        return None;
    }

    record.set(
        "runtime.rendezvous_per_op",
        own.rendezvous as f64 / own_ms.len() as f64,
    );
    record.set(
        "trace.overhead_ms",
        stats::median(&own.traced_ms) - stats::median(&own.untraced_ms),
    );
    record.set(
        "trace.call_self_ms",
        own.tracer.median_self_ms("ticket.wait"),
    );
    record.set("trace.check_self_ms", own.tracer.median_self_ms("check"));
    record.set("trace.spans", own.tracer.spans.len() as f64);

    // One window's launch, run directly at the loop's mean window size.
    let window = (own.mean_batch.round() as usize).clamp(1, ServeConfig::default().max_batch);
    let batch: Vec<Vec<Series<Dd>>> = (0..window).map(|i| pool[i % POOL].clone()).collect();
    let splits: Vec<OpSplit> = (0..15)
        .map(|_| {
            let start = Instant::now();
            let out = plan.request(&batch).run();
            OpSplit {
                outer_ms: crate::ms_since(start),
                timings: *out.timings(),
            }
        })
        .collect();
    let launch_ms = stats::median(&splits.iter().map(|s| s.outer_ms).collect::<Vec<_>>());
    record.set("serve.launch_ms", launch_ms);
    record.set("serve.overhead_ms", p50 - launch_ms);
    crate::report_core_split(&splits, record);
    record.set("core.compile_ms", stats::median(&register_ms));
    let schedule = plan.schedule().expect("a single-polynomial plan");
    record.set(
        "core.gflops",
        achieved_gflops(
            schedule,
            Precision::D2,
            CostModel::Paper,
            launch_ms / window as f64,
        ),
    );
    let width = splits[0].timings.simd_width;
    let conv_job = probes::conv_job_us::<Dd>(DEGREE, width, cfg.seed);
    crate::report_parallel_eff(conv_job, service.engine().pool().parallelism(), record);

    // The contended loop: its window and tail.
    let contended = closed_loop(
        &fx,
        CONTENDED_CLIENTS,
        CONTENDED_IN_FLIGHT,
        cfg.duration - own_time,
        false,
        record,
    );
    let ms = contended.all_ms();
    let max = stats::max(&ms);
    let p50_contended = stats::median(&ms);
    record.set("serve.mean_batch", contended.mean_batch);
    // p90 when at least ten requests lie beyond it, else the max.
    record.set(
        "serve.latency_ms_p90",
        stats::tail_quantile(&ms, 0.9).unwrap_or(max),
    );
    record.set("serve.latency_ms_max", max);
    record.set(
        "serve.tail_share",
        ms.iter().filter(|&&x| x > 10.0 * p50_contended).count() as f64 / ms.len() as f64,
    );
    let split: Vec<String> = contended
        .per_client
        .iter()
        .map(|(n, m)| format!("{n} requests at p50 {m:.1} ms"))
        .collect();
    record.note(format!(
        "contended loop ({CONTENDED_CLIENTS} clients x {CONTENDED_IN_FLIGHT} in flight): {}; \
         mean window {:.2}",
        split.join(", "),
        contended.mean_batch
    ));

    let (launches, saved) = staged_window(&fx, record);
    record.set("serve.launches", launches as f64);
    record.set("serve.launches_saved", saved as f64);
    probes::record_all(service.engine().pool(), cfg.seed, record);
    Some(own.tracer)
}

/// The fixed-window count probe: [`STAGED`] requests submitted from one
/// thread before any wait, then waited in order.  The first waiter leads
/// and drains the queue in full windows, so the launch counts are exact.
/// Returns `(launches, launches_saved)` of the probe.
fn staged_window(fx: &Fixture, record: &mut Record) -> (u64, u64) {
    let before = fx.service.metrics(PLAN).expect("registered");
    let tickets: Vec<_> = (0..STAGED)
        .map(|i| {
            let request = Request::new(fx.pool[i % POOL].clone());
            fx.service.submit_async(PLAN, request)
        })
        .collect();
    for (i, ticket) in tickets.into_iter().enumerate() {
        let response = ticket.and_then(Ticket::wait);
        record
            .op(response.is_ok_and(|r| evaluation_bits_eq(&r.evaluation, &fx.expected[i % POOL])));
    }
    let after = fx.service.metrics(PLAN).expect("registered");
    (
        after.launches - before.launches,
        after.launches_saved - before.launches_saved,
    )
}
