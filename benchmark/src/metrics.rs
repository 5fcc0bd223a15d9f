//! The metric tables: what `BENCHMARK.json` declares, by name. A unit test
//! holds the two in step.

use std::collections::BTreeMap;

/// `(name, unit, better, bound)`: the end-to-end metrics, measured with
/// tracing off. Every workload reports every one of them.
pub const END_TO_END: [(&str, &str, &str, f64); 4] = [
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("op_ms_p50", "ms", "lower", 0.25),
    ("refresh_ms_p50", "ms", "lower", 0.25),
];

/// `(name, unit, better)`: the per-layer metrics of the traced run. A layer
/// a workload bypasses reports 0.
pub const PER_LAYER: [(&str, &str, &str); 86] = [
    // agent
    ("agent.run_once_ms_p50", "ms", "lower"),
    ("agent.self_ms_p50", "ms", "lower"),
    ("agent.deliver_ms_p50", "ms", "lower"),
    ("agent.toolkit_overhead_ms_p50", "ms", "lower"),
    // minidoc / workload
    ("sue.set_up_ms_p50", "ms", "lower"),
    ("sue.execute_ms_p50", "ms", "lower"),
    ("sue.ops_per_s_geomean", "1/s", "higher"),
    ("minidoc.ops_per_s.wiredtiger", "1/s", "higher"),
    ("minidoc.ops_per_s.mmapv1", "1/s", "higher"),
    ("minidoc.load_records_per_s", "1/s", "higher"),
    ("workload.generate_ns_per_op", "ns", "lower"),
    // http
    ("http.wire_us_p50.claim", "us", "lower"),
    ("http.wire_us_p50.heartbeat", "us", "lower"),
    ("http.wire_us_p50.log", "us", "lower"),
    ("http.wire_us_p50.result", "us", "lower"),
    ("http.wire_us_p50.read", "us", "lower"),
    ("http.parse_us_per_req", "us", "lower"),
    ("http.body_bytes_per_job", "bytes", "lower"),
    ("http.requests", "count", "lower"),
    ("http.shed", "count", "lower"),
    ("http.loop_iterations", "count", "lower"),
    ("http.wakeups", "count", "lower"),
    // server + api
    ("server.dispatch_us_p50.claim", "us", "lower"),
    ("server.dispatch_us_p50.heartbeat", "us", "lower"),
    ("server.dispatch_us_p50.log", "us", "lower"),
    ("server.dispatch_us_p50.result", "us", "lower"),
    ("server.dispatch_us_p50.status", "us", "lower"),
    ("server.dispatch_us_p50.stats", "us", "lower"),
    ("server.dispatch_us_p50.summary", "us", "lower"),
    ("server.dispatch_us_p50.chart", "us", "lower"),
    ("server.dispatch_us_p50.csv", "us", "lower"),
    ("server.dispatch_us_p50.jobs", "us", "lower"),
    ("server.dispatch_us_p50.trend", "us", "lower"),
    ("server.dispatch_us_p50.regressions", "us", "lower"),
    ("server.non2xx", "count", "lower"),
    ("api.codec_us_per_job", "us", "lower"),
    // json
    ("json.parse_mb_per_s", "MB/s", "higher"),
    ("json.write_mb_per_s", "MB/s", "higher"),
    ("json.us_per_job", "us", "lower"),
    // core.control
    ("core.claim_us_p50", "us", "lower"),
    ("core.claim_us_first_decile", "us", "lower"),
    ("core.claim_us_last_decile", "us", "lower"),
    ("core.claim_growth", "ratio", "lower"),
    ("core.finish_us_p50", "us", "lower"),
    ("core.finish_growth", "ratio", "lower"),
    ("core.heartbeat_us_p50", "us", "lower"),
    ("core.append_log_us_p50", "us", "lower"),
    ("core.evaluation_status_us_p50", "us", "lower"),
    ("core.check_timeouts_ms", "ms", "lower"),
    ("core.write_lock_wait_us_p50", "us", "lower"),
    // core.jobsource
    ("jobsource.plan_ms", "ms", "lower"),
    ("jobsource.pointspace_build_us", "us", "lower"),
    ("jobsource.point_at_us", "us", "lower"),
    // core.store
    ("store.put_us_p50.job", "us", "lower"),
    ("store.put_us_p50.evaluation", "us", "lower"),
    ("store.put_us_p50.result", "us", "lower"),
    ("store.wal_bytes_per_job", "bytes", "lower"),
    ("store.log_records_per_job", "count", "lower"),
    ("store.open_replay_s", "s", "lower"),
    ("store.compact_s", "s", "lower"),
    // analytics
    ("analytics.ingest_us_p50", "us", "lower"),
    ("analytics.ingest_growth", "ratio", "lower"),
    ("analytics.load_ms", "ms", "lower"),
    ("analytics.encoded_bytes_per_row", "bytes", "lower"),
    ("analytics.backfill_ms", "ms", "lower"),
    ("analytics.edivisive_ms", "ms", "lower"),
    // core.analysis / core.charts
    ("analysis.summary_table_ms", "ms", "lower"),
    ("analysis.chart_data_ms", "ms", "lower"),
    ("analysis.summary_csv_ms", "ms", "lower"),
    ("analysis.trend_ms", "ms", "lower"),
    ("analysis.regressions_ms", "ms", "lower"),
    ("charts.render_svg_ms", "ms", "lower"),
    // zip / util
    ("zip.archive_us_per_job", "us", "lower"),
    ("util.base64_us_per_job", "us", "lower"),
    // harness
    ("trace.overhead_pct", "%", "lower"),
    ("loadgen.lateness_ms_p90", "ms", "lower"),
    ("accounted_share", "ratio", "higher"),
    ("tail.op_ms_p90", "ms", "lower"),
    ("tail.refresh_ms_p90", "ms", "lower"),
    ("read.status_ms_p50", "ms", "lower"),
    ("read.stats_ms_p50", "ms", "lower"),
    ("read.summary_ms_p50", "ms", "lower"),
    ("read.chart_ms_p50", "ms", "lower"),
    ("wire.ops_per_s", "1/s", "higher"),
    ("restart_s", "s", "lower"),
    ("process.peak_rss_mib", "MiB", "lower"),
];

/// The unit declared for an end-to-end or per-layer metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.0, m.1))
        .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| unit)
}

/// The per-layer metrics of one traced run: every declared name, 0 until a
/// probe or the wire pass fills it in.
pub struct Layers(BTreeMap<&'static str, f64>);

impl Default for Layers {
    fn default() -> Self {
        Layers(PER_LAYER.iter().map(|m| (m.0, 0.0)).collect())
    }
}

impl Layers {
    /// Sets a declared metric. An undeclared name is a harness bug.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot =
            self.0.get_mut(name).unwrap_or_else(|| panic!("undeclared per-layer metric {name}"));
        *slot = if value.is_finite() { value } else { 0.0 };
    }

    /// `(name, value)` in declaration order.
    pub fn in_order(&self) -> Vec<(&'static str, f64)> {
        PER_LAYER.iter().map(|m| (m.0, self.0[m.0])).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronos_json::Value;

    /// `BENCHMARK.json` sits at the repository root, one level above this
    /// package; it declares exactly the tables above.
    #[test]
    fn benchmark_json_declares_these_tables() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        let doc = chronos_json::parse(&text).expect("BENCHMARK.json parses");
        let declared = |key: &str| -> Vec<Value> {
            doc.get(key).and_then(Value::as_array).cloned().unwrap_or_default()
        };
        let text_of =
            |v: &Value, k: &str| v.get(k).and_then(Value::as_str).unwrap_or("").to_string();
        let end_to_end = declared("end_to_end");
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (entry, (name, unit, better, bound)) in end_to_end.iter().zip(END_TO_END) {
            assert_eq!(text_of(entry, "name"), name);
            assert_eq!(text_of(entry, "unit"), unit, "{name}");
            assert_eq!(text_of(entry, "better"), better, "{name}");
            assert_eq!(entry.get("bound").and_then(Value::as_f64), Some(bound), "{name}");
            assert!(bound <= 0.25);
        }
        let per_layer = declared("per_layer");
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for (entry, (name, unit, better)) in per_layer.iter().zip(PER_LAYER) {
            assert_eq!(text_of(entry, "name"), name);
            assert_eq!(text_of(entry, "unit"), unit, "{name}");
            assert_eq!(text_of(entry, "better"), better, "{name}");
        }
        let workloads: Vec<String> =
            declared("workloads").iter().map(|w| text_of(w, "name")).collect();
        let ours: Vec<&str> = crate::workloads::Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> =
            END_TO_END.iter().map(|m| m.0).chain(PER_LAYER.iter().map(|m| m.0)).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a metric name is used twice");
        for name in names {
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{name}");
        }
        for unit in END_TO_END.iter().map(|m| m.1).chain(PER_LAYER.iter().map(|m| m.1)) {
            assert!(unit.len() <= 16);
            assert!(
                unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
    }
}
