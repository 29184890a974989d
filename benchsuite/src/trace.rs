//! In-memory spans recorded by the benchmark around its calls into the
//! library, written out when the run ends.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use crate::record::json_string;

/// One timed interval: a call into a layer, or a benchmark op enclosing
/// such calls.
#[derive(Debug, Clone)]
pub struct Span {
    /// What ran (`"op"`, `"plan.run"`, `"check"`, ...).
    pub name: &'static str,
    /// The op this span belongs to.
    pub op: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// Start, relative to the tracer's epoch.
    pub start: Duration,
    /// End, relative to the tracer's epoch (equal to `start` while open).
    pub end: Duration,
}

impl Span {
    /// The span's length.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// A single-threaded span recorder; threads keep one each and merge at the
/// end.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    /// Recorded spans, in begin order.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// An empty tracer timing from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::with_capacity(4096),
        }
    }

    /// Opens a span and returns its index.
    pub fn begin(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> usize {
        let now = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            op,
            parent,
            start: now,
            end: now,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`.
    pub fn end(&mut self, id: usize) {
        self.spans[id].end = self.epoch.elapsed();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, op, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Moves another tracer's spans into this one, re-basing their parent
    /// indices.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        let shift = other.epoch.saturating_duration_since(self.epoch);
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s.start += shift;
            s.end += shift;
            s
        }));
    }

    /// Self time of every span: its duration minus the time its children
    /// cover (children of one span never overlap: each tracer is
    /// single-threaded and closes a child before opening the next).
    pub fn self_times(&self) -> Vec<Duration> {
        let mut own: Vec<Duration> = self.spans.iter().map(Span::duration).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.duration());
            }
        }
        own
    }

    /// Median self time in milliseconds of the spans named `name`; NaN when
    /// there are none.
    pub fn median_self_ms(&self, name: &str) -> f64 {
        let own = self.self_times();
        let v: Vec<f64> = self
            .spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, d)| d.as_secs_f64() * 1e3)
            .collect();
        crate::stats::median(&v)
    }

    /// The spans as a JSON array: name, op, parent, start and end in
    /// nanoseconds, self time in nanoseconds.
    pub fn to_json(&self) -> String {
        let own = self.self_times();
        let mut out = String::from("[");
        for (i, (s, d)) in self.spans.iter().zip(own).enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":{},\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                json_string(s.name),
                s.op,
                s.start.as_nanos(),
                s.end.as_nanos(),
                d.as_nanos()
            );
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(Instant::now());
        let root = t.begin("op", 0, None);
        t.span("call", 0, Some(root), || {
            std::thread::sleep(Duration::from_millis(2))
        });
        t.end(root);
        let own = t.self_times();
        assert!(own[1] >= Duration::from_millis(2));
        assert_eq!(own[0] + own[1], t.spans[0].duration());
    }
}
