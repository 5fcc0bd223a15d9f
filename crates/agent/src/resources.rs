//! Per-job resource accounting.
//!
//! The agent samples its own procfs counters around the system-under-
//! evaluation run and attaches the deltas to the uploaded result document
//! (under `data.agent.resources`): cpu time split user/system, peak
//! resident set, and block-I/O volume. The cost of the sampling itself is
//! reported as its own metric, so the accounting overhead is visible in
//! the data rather than silently folded into the benchmark numbers.
//!
//! Block-I/O counters come from `/proc/self/io`, which kernels can
//! restrict independently of the rest of procfs (hidepid, some container
//! runtimes). A restricted read is *absence of data*, not zero I/O: the
//! sample records it as `None` and the rendered document omits the io
//! fields and sets `io_unavailable` instead, so downstream analytics
//! never average in fake zeros.
//!
//! Linux-only by nature (procfs); on other platforms capture returns
//! `None` and the result document simply omits the resources block.

use std::time::Instant;

use chronos_json::{obj, Value};

/// Kernel clock ticks per second for /proc/self/stat cpu fields. Linux has
/// reported 100 to userspace for all supported architectures since 2.6.
const USER_HZ: u64 = 100;

/// Cumulative block-layer traffic from `/proc/self/io`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoCounters {
    /// Bytes fetched from the block layer.
    pub read_bytes: u64,
    /// Bytes sent to the block layer.
    pub write_bytes: u64,
}

impl IoCounters {
    /// Total traffic in both directions.
    pub fn total(&self) -> u64 {
        self.read_bytes.saturating_add(self.write_bytes)
    }
}

/// A snapshot of this process's cumulative resource counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResourceSample {
    /// Cpu time spent in user mode, milliseconds.
    pub cpu_user_millis: u64,
    /// Cpu time spent in kernel mode, milliseconds.
    pub cpu_system_millis: u64,
    /// Peak resident set size, KiB (high-water mark, not a delta).
    pub max_rss_kib: u64,
    /// Block-layer traffic, `None` when `/proc/self/io` is restricted.
    pub io: Option<IoCounters>,
}

impl ResourceSample {
    /// Captures the current counters, or `None` when procfs is missing.
    pub fn capture() -> Option<ResourceSample> {
        let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
        // comm (field 2) may contain spaces/parens; fields resume after the
        // last ')'. utime/stime are fields 14/15 (1-indexed), i.e. index
        // 11/12 of the remainder.
        let rest = stat.rsplit_once(')')?.1;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
        let utime = ticks(11)?;
        let stime = ticks(12)?;
        let max_rss_kib = read_status_kib("VmHWM:").unwrap_or(0);
        // /proc/self/io can be restricted (hidepid, containers): that is
        // missing data, not zero traffic — keep the cpu/rss sample and
        // record the io counters as absent.
        let io = std::fs::read_to_string("/proc/self/io").ok().map(|io| {
            let field = |name: &str| {
                io.lines()
                    .find(|l| l.starts_with(name))
                    .and_then(|l| l.split_whitespace().nth(1))
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(0)
            };
            IoCounters { read_bytes: field("read_bytes:"), write_bytes: field("write_bytes:") }
        });
        Some(ResourceSample {
            cpu_user_millis: utime * 1_000 / USER_HZ,
            cpu_system_millis: stime * 1_000 / USER_HZ,
            max_rss_kib,
            io,
        })
    }

    /// Total cpu time (user + system), milliseconds.
    pub fn cpu_total_millis(&self) -> u64 {
        self.cpu_user_millis.saturating_add(self.cpu_system_millis)
    }
}

/// The *current* resident set (VmRSS), KiB — unlike the high-water mark
/// this can go down, which is what a live watchdog wants to sample.
pub fn current_rss_kib() -> Option<u64> {
    read_status_kib("VmRSS:")
}

fn read_status_kib(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with(key))
        .and_then(|line| line.split_whitespace().nth(1).and_then(|v| v.parse().ok()))
}

/// Renders the per-job deltas between two samples as the `resources` JSON
/// block. Io deltas appear only when both snapshots had readable io
/// counters; otherwise the block carries `io_unavailable: true` so the
/// absence is explicit in the data.
fn render_deltas(start: &ResourceSample, end: &ResourceSample, overhead_nanos: u64) -> Value {
    let mut doc = obj! {
        "cpu_user_millis" => end.cpu_user_millis.saturating_sub(start.cpu_user_millis),
        "cpu_system_millis" =>
            end.cpu_system_millis.saturating_sub(start.cpu_system_millis),
        "max_rss_kib" => end.max_rss_kib,
    };
    match (start.io, end.io) {
        (Some(first), Some(last)) => {
            doc.set("io_read_bytes", last.read_bytes.saturating_sub(first.read_bytes));
            doc.set("io_write_bytes", last.write_bytes.saturating_sub(first.write_bytes));
        }
        _ => {
            doc.set("io_unavailable", true);
        }
    }
    doc.set("sampling_overhead_micros", overhead_nanos / 1_000);
    doc
}

/// Brackets a job run: snapshot at start, delta at finish.
#[derive(Debug)]
pub struct ResourceTracker {
    start: Option<ResourceSample>,
    overhead_nanos: u64,
}

impl ResourceTracker {
    /// Takes the opening snapshot.
    pub fn start() -> ResourceTracker {
        let begin = Instant::now();
        let start = ResourceSample::capture();
        ResourceTracker { start, overhead_nanos: begin.elapsed().as_nanos() as u64 }
    }

    /// Takes the closing snapshot and renders the per-job deltas as the
    /// `resources` JSON block, `None` when procfs is unavailable.
    pub fn finish(mut self) -> Option<Value> {
        let begin = Instant::now();
        let end = ResourceSample::capture();
        self.overhead_nanos += begin.elapsed().as_nanos() as u64;
        let (start, end) = (self.start?, end?);
        Some(render_deltas(&start, &end, self.overhead_nanos))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(target_os = "linux")]
    fn capture_reads_procfs() {
        let sample = ResourceSample::capture().expect("procfs should exist on linux");
        assert!(sample.max_rss_kib > 0, "a running process has a resident set");
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn current_rss_is_sane() {
        let rss = current_rss_kib().expect("procfs should exist on linux");
        assert!(rss > 0, "a running process has a resident set");
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn tracker_reports_deltas_and_overhead() {
        let tracker = ResourceTracker::start();
        // Burn some user cpu so the delta can be non-zero (not asserted —
        // schedulers are fickle — but the fields must exist and be sane).
        let mut acc = 0u64;
        for i in 0..5_000_000u64 {
            acc = acc.wrapping_add(i).rotate_left(7);
        }
        assert!(acc != 1); // keep the loop alive
        let resources = tracker.finish().expect("procfs should exist on linux");
        for key in
            ["cpu_user_millis", "cpu_system_millis", "max_rss_kib", "sampling_overhead_micros"]
        {
            assert!(resources.get(key).is_some(), "missing resources key {key}");
        }
        // On a normal CI kernel /proc/self/io is readable, so the io deltas
        // are present and the unavailable marker is not.
        if resources.get("io_unavailable").is_none() {
            assert!(resources.get("io_read_bytes").is_some());
            assert!(resources.get("io_write_bytes").is_some());
        }
        assert!(resources.get("max_rss_kib").and_then(Value::as_u64).unwrap() > 0);
        // Sampling is two procfs reads: if this costs more than 50 ms the
        // accounting is no longer a rounding error — fail loudly.
        let overhead = resources.get("sampling_overhead_micros").and_then(Value::as_u64).unwrap();
        assert!(overhead < 50_000, "sampling overhead {overhead} µs is excessive");
    }

    #[test]
    fn restricted_io_is_absent_not_zero() {
        // Regression: a restricted /proc/self/io used to render as
        // io_read_bytes/io_write_bytes = 0 — indistinguishable from a
        // genuinely io-free run. It must render as absent + a marker.
        let start = ResourceSample { cpu_user_millis: 10, io: None, ..Default::default() };
        let end = ResourceSample {
            cpu_user_millis: 250,
            max_rss_kib: 4096,
            io: None,
            ..Default::default()
        };
        let doc = render_deltas(&start, &end, 5_000);
        assert!(doc.get("io_read_bytes").is_none(), "no fake zero read counter");
        assert!(doc.get("io_write_bytes").is_none(), "no fake zero write counter");
        assert_eq!(doc.get("io_unavailable").and_then(Value::as_bool), Some(true));
        assert_eq!(doc.get("cpu_user_millis").and_then(Value::as_u64), Some(240));
    }

    #[test]
    fn io_present_on_one_side_only_is_still_unavailable() {
        // A counter readable at start but restricted at finish (or vice
        // versa) cannot produce a meaningful delta.
        let start = ResourceSample {
            io: Some(IoCounters { read_bytes: 100, write_bytes: 50 }),
            ..Default::default()
        };
        let end = ResourceSample { io: None, ..Default::default() };
        let doc = render_deltas(&start, &end, 0);
        assert!(doc.get("io_read_bytes").is_none());
        assert_eq!(doc.get("io_unavailable").and_then(Value::as_bool), Some(true));
    }

    #[test]
    fn available_io_renders_deltas_without_marker() {
        let start = ResourceSample {
            io: Some(IoCounters { read_bytes: 1_000, write_bytes: 2_000 }),
            ..Default::default()
        };
        let end = ResourceSample {
            io: Some(IoCounters { read_bytes: 1_500, write_bytes: 2_200 }),
            ..Default::default()
        };
        let doc = render_deltas(&start, &end, 0);
        assert_eq!(doc.get("io_read_bytes").and_then(Value::as_u64), Some(500));
        assert_eq!(doc.get("io_write_bytes").and_then(Value::as_u64), Some(200));
        assert!(doc.get("io_unavailable").is_none());
    }

    #[test]
    fn finish_without_an_opening_snapshot_is_none() {
        let tracker = ResourceTracker { start: None, overhead_nanos: 0 };
        assert!(tracker.finish().is_none());
    }
}
