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
//! The store holds only *complete* tables, each with every finished result
//! of its evaluation. An evaluation without one (it predates the process,
//! or replication changed its rows) is rebuilt from the row store by its
//! first reader (lazy backfill), which installs the complete table; until
//! then an ingest has no table to append to, and the rebuild reads the row
//! from the row store. The caller serializes backfills with ingests and
//! invalidations (the control plane runs all of them under its write
//! lock), so an install always stands.

use std::collections::HashMap;
use std::sync::Arc;

use chronos_json::Value;
use parking_lot::RwLock;

use crate::table::ResultTable;

/// A freshness-tracked load result: a snapshot of the table and whether
/// it is complete.
pub struct LoadedTable {
    /// The table as of the load (empty when there is none); later ingests
    /// do not show through it.
    pub table: Arc<ResultTable>,
    /// True when the entry is known complete (no backfill needed).
    pub backfilled: bool,
}

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

    /// Marks a brand-new evaluation as complete-from-birth: every future
    /// result will flow through [`AnalyticsStore::ingest`], so readers
    /// never need a backfill pass.
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

    /// Loads an evaluation's table (an empty, un-backfilled one when it has
    /// none).
    pub fn load(&self, evaluation: u128) -> LoadedTable {
        let table = self.tables.read().get(&evaluation).cloned();
        LoadedTable { backfilled: table.is_some(), table: table.unwrap_or_default() }
    }

    /// Installs a backfilled table: the complete table of the evaluation.
    pub fn install(&self, evaluation: u128, table: Arc<ResultTable>) {
        self.tables.write().insert(evaluation, table);
    }

    /// Drops every table: the row store changed underneath them (a
    /// replication install), so the next reader of each rebuilds it.
    pub fn invalidate_all(&self) {
        self.tables.write().clear();
    }

    /// Size in bytes of an evaluation's table in the chunk encoding (0 when
    /// it has none or an empty one). Encodes a snapshot, outside the lock.
    pub fn encoded_size(&self, evaluation: u128) -> usize {
        let table = self.load(evaluation).table;
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
        let loaded = store.load(1);
        assert!(loaded.backfilled);
        assert_eq!(loaded.table.rows(), 2);
        assert!(store.encoded_size(1) > 0);
    }

    #[test]
    fn missing_evaluation_needs_backfill() {
        let store = AnalyticsStore::new();
        let loaded = store.load(99);
        assert!(!loaded.backfilled);
        assert_eq!(loaded.table.rows(), 0);
    }

    #[test]
    fn install_replaces_the_table_and_marks_it_complete() {
        let store = AnalyticsStore::new();
        store.ingest(1, 11, &obj! {}, &obj! {"tp" => 2.0}, &[]);
        let loaded = store.load(1);
        assert!(!loaded.backfilled, "an ingest alone does not make a table");
        assert_eq!(loaded.table.rows(), 0, "the backfill will read the row from the row store");
        let mut rebuilt = ResultTable::new();
        rebuilt.append(10, &obj! {}, &obj! {"tp" => 1.0}, &[]);
        rebuilt.append(11, &obj! {}, &obj! {"tp" => 2.0}, &[]);
        let rebuilt = Arc::new(rebuilt);
        store.install(1, Arc::clone(&rebuilt));
        let loaded = store.load(1);
        assert!(loaded.backfilled);
        assert!(Arc::ptr_eq(&loaded.table, &rebuilt), "the installed table is the one handed in");
    }

    #[test]
    fn invalidation_empties_tables() {
        let store = AnalyticsStore::new();
        store.mark_fresh(1);
        store.ingest(1, 10, &obj! {}, &obj! {"tp" => 1.0}, &[]);
        assert!(store.load(1).backfilled);
        store.invalidate_all();
        let after = store.load(1);
        assert!(!after.backfilled, "the next reader must rebuild");
        assert_eq!((after.table.rows(), store.encoded_size(1)), (0, 0));
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
        assert_eq!(before.table.rows(), 1);
        assert!(!before.table.contains(11));
        assert!(before.table.data_column("/errors").is_none());
        assert_eq!(before.table.data_column("/tp").unwrap().materialize(), [Cell::Float(100.0)]);
        let after = store.load(1);
        assert_eq!(after.table.rows(), 2);
        assert_eq!(
            after.table.data_column("/tp").unwrap().materialize(),
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
        assert_eq!(store.encoded_size(1), store.load(1).table.encode().len());
        store.invalidate_all();
        assert_eq!(store.encoded_size(1), 0, "emptied");
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
