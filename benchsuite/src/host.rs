//! The machine a run measures on: identity, memory high-water mark, CPU
//! steal and a fixed reference loop that shows drift on a shared host.

use std::hint::black_box;
use std::time::Instant;

/// The CPU model name from `/proc/cpuinfo`, or `"unknown"`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size (`VmHWM`) of this process in MB; NaN when the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Aggregate CPU time counters from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTimes {
    total: u64,
    steal: u64,
}

impl CpuTimes {
    /// Reads the counters now (zeros when `/proc/stat` is unavailable).
    pub fn now() -> Self {
        let Ok(text) = std::fs::read_to_string("/proc/stat") else {
            return Self::default();
        };
        let fields: Vec<u64> = text
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        // user nice system idle iowait irq softirq steal [guest guest_nice]
        // (guest time is already inside user time).
        Self {
            total: fields.iter().take(8).sum(),
            steal: fields.get(7).copied().unwrap_or(0),
        }
    }

    /// Percentage of CPU time stolen by the hypervisor since `earlier`.
    pub fn steal_pct_since(&self, earlier: &CpuTimes) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        100.0 * self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

/// Milliseconds of a fixed dependent chain of 2^24 `f64` multiply-adds:
/// a yardstick of single-core speed that no change to the library moves.
/// Median of five timings.
pub fn ref_loop_ms() -> f64 {
    let mut samples = [0.0; 5];
    for s in &mut samples {
        let start = Instant::now();
        let mut x = black_box(0.5f64);
        for _ in 0..1u32 << 24 {
            x = x * 0.999_999_9 + 1e-9;
        }
        black_box(x);
        *s = crate::ms_since(start);
    }
    crate::stats::median(&samples)
}
