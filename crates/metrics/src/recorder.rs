//! Per-run measurement collection and the uploaded summary.
//!
//! A [`Recorder`] lives on one worker thread (no locks on the hot path);
//! per-thread recorders are merged into a [`RunSummary`], which is the
//! JSON document every Chronos agent attaches to its job result.

use std::time::Instant;

use chronos_json::{obj, Map, Value};

use crate::{Histogram, Timeseries};

/// Statistics for one operation type (e.g. `read`, `update`, `insert`).
#[derive(Debug, Clone, Default)]
pub struct OpStats {
    /// Latency histogram in microseconds.
    pub latency_micros: Histogram,
    /// Operations that returned an error.
    pub errors: u64,
}

/// Collects measurements on a single worker thread.
#[derive(Debug)]
pub struct Recorder {
    ops: Vec<(String, OpStats)>,
    throughput: Timeseries,
    started: Instant,
}

impl Recorder {
    /// Creates a recorder; the run clock starts now. Throughput windows are
    /// one second wide.
    pub fn new() -> Self {
        Recorder { ops: Vec::new(), throughput: Timeseries::new(1000), started: Instant::now() }
    }

    fn stats_mut(&mut self, op: &str) -> &mut OpStats {
        if let Some(idx) = self.ops.iter().position(|(name, _)| name == op) {
            return &mut self.ops[idx].1;
        }
        self.ops.push((op.to_string(), OpStats::default()));
        &mut self.ops.last_mut().expect("just pushed").1
    }

    /// Records a successful operation with the given latency in microseconds.
    pub fn record_success(&mut self, op: &str, latency_micros: u64) {
        let elapsed = self.started.elapsed().as_millis() as u64;
        self.stats_mut(op).latency_micros.record(latency_micros);
        self.throughput.record_at(elapsed, 1);
    }

    /// Records a failed operation.
    pub fn record_error(&mut self, op: &str) {
        self.stats_mut(op).errors += 1;
    }

    /// Times `f` and records it under `op`, propagating its result.
    pub fn time<T, E>(&mut self, op: &str, f: impl FnOnce() -> Result<T, E>) -> Result<T, E> {
        let start = Instant::now();
        match f() {
            Ok(v) => {
                self.record_success(op, start.elapsed().as_micros() as u64);
                Ok(v)
            }
            Err(e) => {
                self.record_error(op);
                Err(e)
            }
        }
    }

    /// Total successful operations across all types.
    pub fn total_ops(&self) -> u64 {
        self.ops.iter().map(|(_, s)| s.latency_micros.count()).sum()
    }

    /// Finalizes this recorder into a summary.
    pub fn into_summary(self) -> RunSummary {
        RunSummary {
            wall_millis: self.started.elapsed().as_millis() as u64,
            ops: self.ops,
            throughput: self.throughput,
        }
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

/// The merged, finalized measurements of a benchmark run.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Wall-clock duration of the run in milliseconds, from the
    /// [`Recorder`]'s creation to [`Recorder::into_summary`]: the
    /// denominator of [`RunSummary::throughput_ops_per_sec`]. A client
    /// that generates its operations while it runs them (the YCSB client
    /// and Chronos' workload runner do) spends that generation inside this
    /// window, while each operation's latency times only the operation.
    pub wall_millis: u64,
    ops: Vec<(String, OpStats)>,
    throughput: Timeseries,
}

impl RunSummary {
    /// Merges per-thread summaries. Wall time is the maximum across threads
    /// (they ran concurrently); counts and histograms are added.
    pub fn merge_all(summaries: Vec<RunSummary>) -> RunSummary {
        let mut merged =
            RunSummary { wall_millis: 0, ops: Vec::new(), throughput: Timeseries::new(1000) };
        for summary in summaries {
            merged.wall_millis = merged.wall_millis.max(summary.wall_millis);
            merged.throughput.merge(&summary.throughput);
            for (name, stats) in summary.ops {
                match merged.ops.iter_mut().find(|(n, _)| *n == name) {
                    Some((_, existing)) => {
                        existing.latency_micros.merge(&stats.latency_micros);
                        existing.errors += stats.errors;
                    }
                    None => merged.ops.push((name, stats)),
                }
            }
        }
        merged
    }

    /// Total successful operations.
    pub fn total_ops(&self) -> u64 {
        self.ops.iter().map(|(_, s)| s.latency_micros.count()).sum()
    }

    /// Total failed operations.
    pub fn total_errors(&self) -> u64 {
        self.ops.iter().map(|(_, s)| s.errors).sum()
    }

    /// Overall throughput in operations/second. Sub-millisecond runs are
    /// clamped to 1 ms so very fast benchmark configurations report a
    /// finite (conservative) rate instead of zero.
    pub fn throughput_ops_per_sec(&self) -> f64 {
        if self.total_ops() == 0 {
            return 0.0;
        }
        self.total_ops() as f64 * 1000.0 / self.wall_millis.max(1) as f64
    }

    /// Stats for one operation type, if present.
    pub fn op(&self, name: &str) -> Option<&OpStats> {
        self.ops.iter().find(|(n, _)| n == name).map(|(_, s)| s)
    }

    /// The per-second throughput series.
    pub fn throughput_series(&self) -> &Timeseries {
        &self.throughput
    }

    /// The standard Chronos result-measurement document:
    ///
    /// ```json
    /// {
    ///   "wall_millis": ..., "total_ops": ..., "total_errors": ...,
    ///   "throughput_ops_per_sec": ...,
    ///   "operations": {"read": {"latency_micros": {...}, "errors": 0}, ...},
    ///   "throughput_series": {...}
    /// }
    /// ```
    pub fn to_json(&self) -> Value {
        let mut operations = Map::new();
        for (name, stats) in &self.ops {
            operations.insert(
                name.clone(),
                obj! {
                    "latency_micros" => stats.latency_micros.to_json(),
                    "errors" => stats.errors,
                },
            );
        }
        obj! {
            "wall_millis" => self.wall_millis,
            "total_ops" => self.total_ops(),
            "total_errors" => self.total_errors(),
            "throughput_ops_per_sec" => self.throughput_ops_per_sec(),
            "operations" => Value::Object(operations),
            "throughput_series" => self.throughput.to_json(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_summarizes() {
        let mut r = Recorder::new();
        r.record_success("read", 100);
        r.record_success("read", 200);
        r.record_success("update", 300);
        r.record_error("update");
        let s = r.into_summary();
        assert_eq!(s.total_ops(), 3);
        assert_eq!(s.total_errors(), 1);
        assert_eq!(s.op("read").unwrap().latency_micros.count(), 2);
        assert_eq!(s.op("update").unwrap().errors, 1);
        assert!(s.op("scan").is_none());
    }

    #[test]
    fn time_helper_records_both_outcomes() {
        let mut r = Recorder::new();
        let ok: Result<u32, ()> = r.time("op", || Ok(42));
        assert_eq!(ok, Ok(42));
        let err: Result<(), &str> = r.time("op", || Err("boom"));
        assert_eq!(err, Err("boom"));
        let s = r.into_summary();
        assert_eq!(s.total_ops(), 1);
        assert_eq!(s.total_errors(), 1);
    }

    #[test]
    fn merge_combines_threads() {
        let mk = |n: u64| {
            let mut r = Recorder::new();
            for i in 0..n {
                r.record_success("read", 50 + i);
            }
            r.into_summary()
        };
        let merged = RunSummary::merge_all(vec![mk(10), mk(20), mk(30)]);
        assert_eq!(merged.total_ops(), 60);
        assert_eq!(merged.op("read").unwrap().latency_micros.count(), 60);
    }

    #[test]
    fn throughput_computation() {
        let mut r = Recorder::new();
        for _ in 0..100 {
            r.record_success("read", 10);
        }
        let mut s = r.into_summary();
        s.wall_millis = 2_000; // pretend the run took 2 seconds
        assert_eq!(s.throughput_ops_per_sec(), 50.0);
    }

    #[test]
    fn zero_wall_time_is_clamped_to_one_milli() {
        let mut r = Recorder::new();
        r.record_success("read", 1);
        let mut s = r.into_summary();
        s.wall_millis = 0;
        assert_eq!(s.throughput_ops_per_sec(), 1000.0);
        // With zero ops the rate is genuinely zero.
        let empty = Recorder::new().into_summary();
        assert_eq!(empty.throughput_ops_per_sec(), 0.0);
    }

    #[test]
    fn json_document_shape() {
        let mut r = Recorder::new();
        r.record_success("insert", 500);
        let s = r.into_summary();
        let j = s.to_json();
        assert_eq!(j.pointer("/total_ops").and_then(Value::as_u64), Some(1));
        assert!(j.pointer("/operations/insert/latency_micros/p99").is_some());
        assert!(j.pointer("/throughput_series/window_millis").is_some());
    }
}
