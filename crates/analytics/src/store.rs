//! The columnar result store: one live table per evaluation plus the
//! per-experiment regression-scan cache.
//!
//! Tables are held **decoded** behind an `Arc`: nothing here is written to
//! disk or shipped by replication, and a restart rebuilds every table from
//! the row store, so there is no at-rest form to keep. An ingest appends
//! its row in place (copy-on-write: a reader still holding a snapshot keeps
//! a consistent one and the writer pays one clone only then); a load hands
//! out the `Arc`. The chunk codecs of [`crate::encoding`] are what
//! [`AnalyticsStore::encoded_size`] reports, computed on demand. Every
//! entry carries:
//!
//! * `backfilled` — whether the entry is known to contain *every*
//!   finished result of its evaluation. Entries created lazily by upload
//!   ingestion on a store that predates the cache start out
//!   un-backfilled; the first reader rebuilds them from the row store
//!   (lazy backfill) and installs the complete table.
//! * `generation` — bumped by every ingest and every invalidation, so a
//!   backfill computed from a snapshot is dropped instead of clobbering a
//!   concurrent upload or outliving the rows it was built from.

use std::collections::HashMap;
use std::sync::Arc;

use chronos_json::Value;
use parking_lot::RwLock;

use crate::table::ResultTable;

#[derive(Default)]
struct TableEntry {
    table: Arc<ResultTable>,
    backfilled: bool,
    generation: u64,
}

/// A freshness-tracked load result: a snapshot of the table, whether it is
/// complete, and the generation to pass back to [`AnalyticsStore::install`].
pub struct LoadedTable {
    /// The table as of the load (empty when the entry is missing); later
    /// ingests do not show through it.
    pub table: Arc<ResultTable>,
    /// True when the entry is known complete (no backfill needed).
    pub backfilled: bool,
    /// Entry generation at load time.
    pub generation: u64,
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
    tables: RwLock<Tables>,
    flags: RwLock<HashMap<u128, RegressionFlag>>,
}

#[derive(Default)]
struct Tables {
    entries: HashMap<u128, TableEntry>,
    /// The generation an entry that does not exist yet loads as and is
    /// created with. Advanced by every invalidation, so a backfill that
    /// found no entry before one cannot install after it either.
    absent_generation: u64,
}

impl Tables {
    fn entry(&mut self, evaluation: u128) -> &mut TableEntry {
        let generation = self.absent_generation;
        self.entries
            .entry(evaluation)
            .or_insert_with(|| TableEntry { generation, ..TableEntry::default() })
    }
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
        self.tables.write().entry(evaluation).backfilled = true;
    }

    /// Columnarizes one uploaded result into the evaluation's table.
    /// Idempotent per job: a duplicate appends nothing and bumps nothing.
    pub fn ingest(
        &self,
        evaluation: u128,
        job: u128,
        parameters: &Value,
        data: &Value,
        json_paths: &[&str],
    ) {
        let mut tables = self.tables.write();
        let entry = tables.entry(evaluation);
        if entry.table.contains(job) {
            return;
        }
        Arc::make_mut(&mut entry.table).append(job, parameters, data, json_paths);
        entry.generation += 1;
    }

    /// Loads an evaluation's table (an empty, un-backfilled one when the
    /// entry is missing).
    pub fn load(&self, evaluation: u128) -> LoadedTable {
        let tables = self.tables.read();
        match tables.entries.get(&evaluation) {
            None => LoadedTable {
                table: Arc::default(),
                backfilled: false,
                generation: tables.absent_generation,
            },
            Some(entry) => LoadedTable {
                table: Arc::clone(&entry.table),
                backfilled: entry.backfilled,
                generation: entry.generation,
            },
        }
    }

    /// Installs a backfilled table computed from generation
    /// `loaded_generation`. Refuses (returns `false`) when an ingest
    /// raced the backfill; the next reader simply rebuilds.
    pub fn install(
        &self,
        evaluation: u128,
        table: &Arc<ResultTable>,
        loaded_generation: u64,
    ) -> bool {
        let mut tables = self.tables.write();
        let entry = tables.entry(evaluation);
        if entry.generation != loaded_generation {
            return false;
        }
        entry.table = Arc::clone(table);
        entry.backfilled = true;
        entry.generation += 1;
        true
    }

    /// Drops every table back to empty and un-backfilled: the row store
    /// changed underneath them (a replication install), so the next reader
    /// of each rebuilds it. Every generation advances, the absent one
    /// included — a backfill that loaded before the call must not install
    /// after it.
    pub fn invalidate_all(&self) {
        let mut tables = self.tables.write();
        tables.absent_generation += 1;
        for entry in tables.entries.values_mut() {
            entry.table = Arc::default();
            entry.backfilled = false;
            entry.generation += 1;
        }
    }

    /// Size in bytes of an evaluation's table in the chunk encoding (0
    /// when absent or empty). Encodes a snapshot, outside the lock.
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
    fn install_refuses_stale_generations() {
        let store = AnalyticsStore::new();
        store.ingest(1, 10, &obj! {}, &obj! {"tp" => 1.0}, &[]);
        let loaded = store.load(1);
        // A concurrent upload bumps the generation…
        store.ingest(1, 11, &obj! {}, &obj! {"tp" => 2.0}, &[]);
        // …so the backfill computed from the stale load must not clobber.
        assert!(!store.install(1, &loaded.table, loaded.generation));
        assert_eq!(store.load(1).table.rows(), 2);
        // A fresh load installs fine.
        let fresh = store.load(1);
        assert!(store.install(1, &fresh.table, fresh.generation));
        assert!(store.load(1).backfilled);
    }

    #[test]
    fn invalidation_empties_tables_and_fences_out_older_backfills() {
        let store = AnalyticsStore::new();
        store.mark_fresh(1);
        store.ingest(1, 10, &obj! {}, &obj! {"tp" => 1.0}, &[]);
        let before = store.load(1);
        assert!(before.backfilled);
        store.invalidate_all();
        let after = store.load(1);
        assert!(!after.backfilled, "the next reader must rebuild");
        assert_eq!((after.table.rows(), store.encoded_size(1)), (0, 0));
        // A backfill that loaded before the invalidation is refused.
        assert!(!store.install(1, &before.table, before.generation));
        assert!(!store.load(1).backfilled);
        assert!(store.install(1, &before.table, after.generation));
        assert!(store.load(1).backfilled);
        // So is one that found no entry at all before it.
        let absent = store.load(2);
        store.invalidate_all();
        assert!(!store.install(2, &absent.table, absent.generation));
        assert!(!store.load(2).backfilled);
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
        // Holding the older table does not keep its generation installable.
        assert!(!store.install(1, &before.table, before.generation));
        assert_eq!(store.load(1).table.rows(), 2);
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
