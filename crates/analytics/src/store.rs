//! The columnar result store: one live table per evaluation plus the
//! per-experiment regression-scan cache.
//!
//! Tables are held **decoded** behind an `Arc`: nothing here is written to
//! disk or shipped by replication, and a restart rebuilds every table from
//! the row store, so there is no at-rest form to keep. An ingest appends
//! its row in place (copy-on-write: a reader still holding a snapshot keeps
//! a consistent one and the writer pays one clone only then); a load hands
//! out the `Arc`. The chunk codecs of [`crate::encoding`] are what
//! [`AnalyticsStore::encoded_size`] reports, computed on demand.
//!
//! The caller derives every table from its own committed records: a
//! table is made ([`AnalyticsStore::mark_fresh`]) before the first result
//! of its evaluation is ingested, and an ingest into an evaluation without
//! one appends nothing. The control plane runs both under its write lock,
//! from one function fed by its commit, its replication install and its
//! open.

use std::collections::HashMap;
use std::sync::Arc;

use chronos_json::Value;
use parking_lot::RwLock;

use crate::table::ResultTable;

/// The cached outcome of the last regression scan of one experiment —
/// what the experiment status body surfaces as its regression flag.
#[derive(Debug, Clone, PartialEq)]
pub struct RegressionFlag {
    /// Metric pointer the scan ran over.
    pub value_path: String,
    /// Number of detected change points.
    pub change_points: u64,
    /// True when any change point lowered the metric.
    pub regressed: bool,
    /// Number of evaluation runs scanned.
    pub runs: u64,
    /// Control-clock time of the scan (unix millis).
    pub scanned_at: u64,
}

/// In-memory columnar store, keyed by evaluation id (tables) and
/// experiment id (regression flags).
#[derive(Default)]
pub struct AnalyticsStore {
    tables: RwLock<HashMap<u128, Arc<ResultTable>>>,
    flags: RwLock<HashMap<u128, RegressionFlag>>,
}

impl AnalyticsStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Gives an evaluation an empty table, unless it has one: every result
    /// of it then flows through [`AnalyticsStore::ingest`].
    pub fn mark_fresh(&self, evaluation: u128) {
        self.tables.write().entry(evaluation).or_default();
    }

    /// Columnarizes one uploaded result into the evaluation's table, if it
    /// has one. Idempotent per job: a duplicate appends nothing.
    pub fn ingest(
        &self,
        evaluation: u128,
        job: u128,
        parameters: &Value,
        data: &Value,
        json_paths: &[&str],
    ) {
        let mut tables = self.tables.write();
        match tables.get_mut(&evaluation) {
            Some(table) if !table.contains(job) => {
                Arc::make_mut(table).append(job, parameters, data, json_paths)
            }
            _ => {}
        }
    }

    /// Loads an evaluation's table (an empty one when it has none): a
    /// snapshot that later ingests do not show through.
    pub fn load(&self, evaluation: u128) -> Arc<ResultTable> {
        self.tables.read().get(&evaluation).cloned().unwrap_or_default()
    }

    /// Size in bytes of an evaluation's table in the chunk encoding (0 when
    /// it has none or an empty one). Encodes a snapshot, outside the lock.
    pub fn encoded_size(&self, evaluation: u128) -> usize {
        let table = self.load(evaluation);
        if table.rows() == 0 {
            return 0;
        }
        table.encode().len()
    }

    /// Records the outcome of a regression scan.
    pub fn set_flag(&self, experiment: u128, flag: RegressionFlag) {
        self.flags.write().insert(experiment, flag);
    }

    /// The cached regression flag of an experiment, if ever scanned.
    pub fn flag(&self, experiment: u128) -> Option<RegressionFlag> {
        self.flags.read().get(&experiment).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronos_json::obj;

    #[test]
    fn ingest_then_load_roundtrips() {
        let store = AnalyticsStore::new();
        store.mark_fresh(1);
        store.ingest(1, 10, &obj! {"threads" => 4}, &obj! {"tp" => 100.0}, &[]);
        store.ingest(1, 11, &obj! {"threads" => 8}, &obj! {"tp" => 180.0}, &[]);
        store.ingest(1, 11, &obj! {"threads" => 8}, &obj! {"tp" => 999.0}, &[]); // dup ignored
        assert_eq!(store.load(1).rows(), 2);
        assert!(store.encoded_size(1) > 0);
        store.mark_fresh(1);
        assert_eq!(store.load(1).rows(), 2, "marking an evaluation with a table keeps it");
    }

    #[test]
    fn an_ingest_without_a_table_appends_nothing() {
        let store = AnalyticsStore::new();
        store.ingest(1, 11, &obj! {}, &obj! {"tp" => 2.0}, &[]);
        assert_eq!(store.load(1).rows(), 0);
        store.mark_fresh(1);
        assert_eq!(store.load(1).rows(), 0);
    }

    #[test]
    fn a_loaded_table_is_a_snapshot() {
        use crate::column::Cell;

        let store = AnalyticsStore::new();
        store.mark_fresh(1);
        store.ingest(1, 10, &obj! {"threads" => 4}, &obj! {"tp" => 100.0}, &[]);
        let before = store.load(1);
        // The upload lands while the reader still holds its table.
        store.ingest(1, 11, &obj! {"threads" => 8}, &obj! {"tp" => 180.0, "errors" => 2}, &[]);
        assert_eq!(before.rows(), 1);
        assert!(!before.contains(11));
        assert!(before.data_column("/errors").is_none());
        assert_eq!(before.data_column("/tp").unwrap().materialize(), [Cell::Float(100.0)]);
        let after = store.load(1);
        assert_eq!(after.rows(), 2);
        assert_eq!(
            after.data_column("/tp").unwrap().materialize(),
            [Cell::Float(100.0), Cell::Float(180.0)]
        );
    }

    #[test]
    fn encoded_size_is_the_length_of_the_chunk_encoding() {
        let store = AnalyticsStore::new();
        assert_eq!(store.encoded_size(1), 0, "absent");
        store.mark_fresh(1);
        assert_eq!(store.encoded_size(1), 0, "present but empty");
        for job in 0..20u128 {
            store.ingest(1, job, &obj! {"threads" => 4}, &obj! {"tp" => job as f64}, &[]);
        }
        assert_eq!(store.encoded_size(1), store.load(1).encode().len());
    }

    #[test]
    fn regression_flags_are_cached_per_experiment() {
        let store = AnalyticsStore::new();
        assert!(store.flag(5).is_none());
        let flag = RegressionFlag {
            value_path: "/throughput_ops_per_sec".into(),
            change_points: 1,
            regressed: true,
            runs: 50,
            scanned_at: 1_700_000_000_000,
        };
        store.set_flag(5, flag.clone());
        assert_eq!(store.flag(5), Some(flag));
    }
}
