//! The metric catalogue and the result record one run prints.
//!
//! Every run reports every metric of its mode: all [`END_TO_END`] metrics
//! untraced, all [`PER_LAYER`] metrics traced.  The track and serve
//! metrics of a workload that never runs those layers read 0 (no tracking
//! steps in a plan evaluation, no serve launches in path tracking);
//! everything else is measured.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`.  Timed around the public entry
/// points with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("latency_ms_p50", "ms"),
    ("throughput_per_s", "1/s"),
    ("setup_s", "s"),
    ("success_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: `(name, unit)`.  Measured by the traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("host.ref_loop_ms", "ms"),
    ("host.steal_pct", "%"),
    ("md.mul_ns.qd", "ns"),
    ("md.add_ns.qd", "ns"),
    ("md.mul_ns.dd", "ns"),
    ("md.lanes_mul_ns.dd", "ns"),
    ("series.conv_us.qd63", "us"),
    ("series.panel_conv_us.dd15", "us"),
    ("runtime.launch_us", "us"),
    ("runtime.rendezvous_per_op", "count"),
    ("core.conv_ms", "ms"),
    ("core.add_ms", "ms"),
    ("core.other_ms", "ms"),
    ("core.outside_ms", "ms"),
    ("core.kernel_pct", "%"),
    ("core.conv_blocks", "count"),
    ("core.add_blocks", "count"),
    ("core.launches", "count"),
    ("core.compile_ms", "ms"),
    ("core.parallel_eff", "ratio"),
    ("core.gflops", "GFLOP/s"),
    ("core.solve_us", "us"),
    ("track.corrector_launches", "count"),
    ("track.steps", "count"),
    ("track.newton_iterations", "count"),
    ("track.escalations", "count"),
    ("track.us_per_iteration", "us"),
    ("serve.mean_batch", "count"),
    ("serve.launches", "count"),
    ("serve.launches_saved", "count"),
    ("serve.launch_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.latency_ms_p90", "ms"),
    ("serve.latency_ms_max", "ms"),
    ("serve.tail_share", "ratio"),
    ("trace.overhead_ms", "ms"),
    ("trace.call_self_ms", "ms"),
    ("trace.check_self_ms", "ms"),
    ("trace.spans", "count"),
];

/// Per-layer metrics that are exact counts: they must repeat bit for bit
/// across runs and seeds.
pub const EXACT_COUNTS: &[&str] = &[
    "core.conv_blocks",
    "core.add_blocks",
    "core.launches",
    "track.corrector_launches",
    "track.steps",
    "track.newton_iterations",
    "track.escalations",
    "serve.launches",
    "serve.launches_saved",
];

/// Metrics of the track and serve layers: zero unless the workload runs
/// the layer and fills them in.
const ZERO_UNLESS_RUN: &[&str] = &[
    "track.corrector_launches",
    "track.steps",
    "track.newton_iterations",
    "track.escalations",
    "track.us_per_iteration",
    "serve.mean_batch",
    "serve.launches",
    "serve.launches_saved",
    "serve.launch_ms",
    "serve.overhead_ms",
    "serve.latency_ms_p90",
    "serve.latency_ms_max",
    "serve.tail_share",
];

/// The outcome of one run: op counts, metric values and the run header.
#[derive(Debug, Default)]
pub struct Record {
    /// Ops whose output was checked.
    pub attempted: u64,
    /// Ops whose check failed.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Run header: machine, configuration and seed.
    pub header: Vec<(&'static str, String)>,
    /// Human-readable diagnostics printed before the result line.
    pub notes: Vec<String>,
}

impl Record {
    /// An empty record; a traced one starts with the track and serve
    /// metrics at zero.
    pub fn new(trace: bool) -> Self {
        let mut record = Record::default();
        if trace {
            for name in ZERO_UNLESS_RUN {
                record.metrics.insert(name, 0.0);
            }
        }
        record
    }

    /// Counts one checked op.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Sets a catalogued metric.
    ///
    /// # Panics
    ///
    /// On a name missing from both catalogues.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric {name} is not in the catalogue"
        );
        self.metrics.insert(name, value);
    }

    /// Adds a header field.
    pub fn head(&mut self, key: &'static str, value: impl ToString) {
        self.header.push((key, value.to_string()));
    }

    /// Adds a diagnostic line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// The header as one JSON object.
    pub fn header_json(&self) -> String {
        let fields: Vec<String> = self
            .header
            .iter()
            .map(|(k, v)| format!("{}:{}", json_string(k), json_string(v)))
            .collect();
        format!("{{\"header\":{{{}}}}}", fields.join(","))
    }

    /// The result line: `correct`, `attempted`, `failed` and every metric
    /// of the mode's catalogue.  A metric the run did not produce, or a
    /// non-finite value, is an error.
    pub fn result_json(&self, trace: bool) -> Result<String, String> {
        let catalogue = if trace { PER_LAYER } else { END_TO_END };
        let mut metrics = String::new();
        for (i, (name, unit)) in catalogue.iter().enumerate() {
            let value = *self
                .metrics
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            if i > 0 {
                metrics.push(',');
            }
            let _ = write!(
                metrics,
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_string(name),
                value,
                json_string(unit)
            );
        }
        Ok(format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics
        ))
    }
}

/// The unit of a catalogued metric.
fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// A JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
