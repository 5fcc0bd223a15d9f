//! Shared harness code for the Chronos benchmark suite.
//!
//! Every experiment in `EXPERIMENTS.md` is regenerated by the
//! `chronos-bench` binary (`cargo run -p chronos-bench --release`), which
//! prints the full tables; the end-to-end gate is the separate package in
//! `benchmark/`.

use chronos_agent::{DocstoreClient, EvaluationClient, JobContext};
use chronos_json::{obj, Value};
use chronos_util::Id;

pub mod data_plane;
pub mod http_scale;
pub mod overload;

/// One measured benchmark configuration.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// `"wiredtiger"` or `"mmapv1"`.
    pub engine: &'static str,
    /// Client threads.
    pub threads: i64,
    /// YCSB core workload letter.
    pub workload: &'static str,
    /// Records loaded.
    pub record_count: i64,
    /// Operations in the measured phase.
    pub operation_count: i64,
    /// Bytes per field (10 fields per document).
    pub field_length: i64,
    /// Disk-backed with synced journal/WAL.
    pub durability: bool,
    /// Block compression (wiredTiger only).
    pub compression: bool,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            engine: "wiredtiger",
            threads: 1,
            workload: "a",
            record_count: 2_000,
            operation_count: 8_000,
            field_length: 100,
            durability: false,
            compression: true,
        }
    }
}

impl RunConfig {
    /// The parameter document handed to the evaluation client.
    pub fn to_params(&self) -> Value {
        obj! {
            "engine" => self.engine,
            "threads" => self.threads,
            "workload" => self.workload,
            "record_count" => self.record_count,
            "operation_count" => self.operation_count,
            "field_length" => self.field_length,
            "durability" => self.durability,
            "compression" => self.compression,
            "seed" => 42,
        }
    }
}

/// The measurements extracted from one run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Overall throughput.
    pub throughput_ops_per_sec: f64,
    /// Wall time of the measured phase.
    pub wall_millis: u64,
    /// p99 latency (µs) per operation kind, where present.
    pub read_p99_micros: Option<u64>,
    /// p99 update latency.
    pub update_p99_micros: Option<u64>,
    /// Engine-reported stored bytes after the run.
    pub stored_bytes: u64,
    /// Engine-reported logical bytes.
    pub logical_bytes: u64,
    /// Errors during the run.
    pub total_errors: u64,
}

/// Runs one full set-up → warm-up → execute → tear-down cycle of the demo
/// evaluation client and extracts the standard measurements.
pub fn run_docstore(config: &RunConfig) -> RunOutcome {
    let mut client = DocstoreClient::new();
    let ctx = JobContext::new(Id::generate(), config.to_params());
    client.set_up(&ctx).unwrap_or_else(|e| panic!("set_up: {e}"));
    client.warm_up(&ctx).unwrap_or_else(|e| panic!("warm_up: {e}"));
    let data = client.execute(&ctx).unwrap_or_else(|e| panic!("execute: {e}"));
    client.tear_down(&ctx);
    let p99 = |op: &str| {
        data.pointer(&format!("/operations/{op}/latency_micros/p99")).and_then(Value::as_u64)
    };
    RunOutcome {
        throughput_ops_per_sec: data
            .pointer("/throughput_ops_per_sec")
            .and_then(Value::as_f64)
            .unwrap_or(0.0),
        wall_millis: data.pointer("/wall_millis").and_then(Value::as_u64).unwrap_or(0),
        read_p99_micros: p99("read"),
        update_p99_micros: p99("update"),
        stored_bytes: data
            .pointer("/engine_stats/stored_bytes")
            .and_then(Value::as_u64)
            .unwrap_or(0),
        logical_bytes: data
            .pointer("/engine_stats/logical_bytes")
            .and_then(Value::as_u64)
            .unwrap_or(0),
        total_errors: data.pointer("/total_errors").and_then(Value::as_u64).unwrap_or(0),
    }
}

/// Stamps `host_cores` onto an experiment's `--json` document and writes
/// it to `path` in the working directory.
pub fn write_report(path: &str, mut doc: Value) {
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    doc.set("host_cores", cores as i64);
    std::fs::write(path, doc.to_pretty_string() + "\n")
        .unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("wrote {path}\n");
}

/// Renders a fixed-width table row.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(cell, width)| format!("{cell:>width$}"))
        .collect::<Vec<_>>()
        .join("  ")
}

/// Formats a number of ops/s compactly.
pub fn fmt_tp(v: f64) -> String {
    if v >= 1_000_000.0 {
        format!("{:.2}M", v / 1_000_000.0)
    } else if v >= 1_000.0 {
        format!("{:.1}k", v / 1_000.0)
    } else {
        format!("{v:.0}")
    }
}

/// Formats a byte count compactly.
pub fn fmt_bytes(v: u64) -> String {
    if v >= 1 << 20 {
        format!("{:.1}MiB", v as f64 / (1 << 20) as f64)
    } else if v >= 1 << 10 {
        format!("{:.1}KiB", v as f64 / (1 << 10) as f64)
    } else {
        format!("{v}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_docstore_smoke() {
        let outcome = run_docstore(&RunConfig {
            record_count: 100,
            operation_count: 200,
            ..RunConfig::default()
        });
        assert!(outcome.throughput_ops_per_sec > 0.0);
        assert_eq!(outcome.total_errors, 0);
        assert!(outcome.stored_bytes > 0);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_tp(532.0), "532");
        assert_eq!(fmt_tp(15_300.0), "15.3k");
        assert_eq!(fmt_tp(2_100_000.0), "2.10M");
        assert_eq!(fmt_bytes(512), "512B");
        assert_eq!(fmt_bytes(4 << 20), "4.0MiB");
    }
}
