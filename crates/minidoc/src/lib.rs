//! # minidoc — an embedded document store with pluggable storage engines
//!
//! The Chronos paper demonstrates the toolkit by comparatively evaluating
//! two MongoDB storage engines, **wiredTiger** and **mmapv1**. Since a real
//! MongoDB cannot be embedded in a pure-Rust reproduction, `minidoc` is the
//! stand-in System under Evaluation: a document database whose two storage
//! engines reproduce the *architectural* differences that the demo's results
//! hinge on:
//!
//! | | [`WiredTigerEngine`](engine::wiredtiger::WiredTigerEngine) | [`MmapV1Engine`](engine::mmapv1::MmapV1Engine) |
//! |---|---|---|
//! | write concurrency | record-level (sharded latches) | **collection-level lock** |
//! | update strategy | out-of-place into slotted pages | in-place with power-of-2 padding |
//! | on-disk footprint | block compression (LZ+RLE) | padded raw records |
//! | durability | write-ahead log + checkpoints | journal held under the collection lock |
//!
//! Under a YCSB-style mixed workload these mechanisms produce the same
//! qualitative picture as the MongoDB demo: wiredTiger scales with client
//! threads and wins clearly on write-heavy mixes; mmapv1 stays competitive
//! on read-mostly workloads but plateaus under write concurrency and uses
//! more storage.
//!
//! A write replaces a whole document ([`Collection::insert`],
//! [`Collection::update`], [`Collection::upsert`], [`Collection::delete`]),
//! as YCSB's `update` does; there are no partial-update operators. A scan
//! ([`Collection::scan_raw`], [`StorageEngine::scan`]) lends each key and
//! encoded document to a visitor where the engine keeps them, under its
//! read lock, so a visitor must not call into the collection it visits (a
//! debug build panics, naming it, where a write would deadlock).
//!
//! ```
//! use minidoc::{Database, DbConfig, EngineKind};
//! use chronos_json::obj;
//!
//! let db = Database::open(DbConfig::in_memory(EngineKind::WiredTiger)).unwrap();
//! let coll = db.collection("usertable");
//! coll.insert("user1", &obj! {"name" => "ada", "visits" => 3}).unwrap();
//! let doc = coll.get("user1").unwrap().unwrap();
//! assert_eq!(doc.get("name").and_then(|v| v.as_str()), Some("ada"));
//! ```

pub mod compress;
pub mod doc;
pub mod engine;
pub mod error;
pub mod index;
pub mod query;
pub mod wal;

pub use engine::{EngineKind, EngineStats, SharedBytes, StorageEngine, Visitor};
pub use error::{DbError, DbResult};
pub use query::Filter;

use std::collections::{BTreeSet, HashMap};
use std::path::PathBuf;
use std::sync::Arc;

use chronos_json::Value;
use parking_lot::RwLock;

use crate::index::{range_for, FieldIndex, RangeOp};
use crate::query::lookup;

/// All secondary indexes of a database: collection → field → index.
type IndexMap = HashMap<String, HashMap<String, FieldIndex>>;

/// Database configuration.
#[derive(Debug, Clone)]
pub struct DbConfig {
    /// Which storage engine to use.
    pub engine: EngineKind,
    /// Data directory; `None` runs fully in memory (no durability).
    pub data_dir: Option<PathBuf>,
    /// Enable block compression (wiredTiger-like engine only).
    pub compression: bool,
    /// Sync the WAL/journal on every commit group.
    pub durable_writes: bool,
    /// Number of latch shards for record-level locking (wiredTiger-like
    /// engine). More shards = less contention.
    pub latch_shards: usize,
}

impl DbConfig {
    /// In-memory database with the given engine and engine-typical defaults
    /// (compression on for wiredTiger, off for mmapv1).
    pub fn in_memory(engine: EngineKind) -> Self {
        DbConfig {
            engine,
            data_dir: None,
            compression: engine == EngineKind::WiredTiger,
            durable_writes: false,
            latch_shards: 64,
        }
    }

    /// Durable database rooted at `dir`.
    pub fn at_dir(engine: EngineKind, dir: impl Into<PathBuf>) -> Self {
        DbConfig { data_dir: Some(dir.into()), durable_writes: true, ..Self::in_memory(engine) }
    }

    /// Toggles compression.
    pub fn with_compression(mut self, on: bool) -> Self {
        self.compression = on;
        self
    }
}

/// An open document database.
#[derive(Clone)]
pub struct Database {
    engine: Arc<dyn StorageEngine>,
    kind: EngineKind,
    indexes: Arc<RwLock<IndexMap>>,
}

impl Database {
    /// Opens (and, for durable configs, recovers) a database.
    pub fn open(config: DbConfig) -> DbResult<Self> {
        let kind = config.engine;
        let engine: Arc<dyn StorageEngine> = match kind {
            EngineKind::WiredTiger => Arc::new(engine::wiredtiger::WiredTigerEngine::open(config)?),
            EngineKind::MmapV1 => Arc::new(engine::mmapv1::MmapV1Engine::open(config)?),
        };
        Ok(Database { engine, kind, indexes: Arc::new(RwLock::new(HashMap::new())) })
    }

    /// The engine this database runs on.
    pub fn engine_kind(&self) -> EngineKind {
        self.kind
    }

    /// A handle to `name`'s collection (created lazily on first write).
    pub fn collection(&self, name: &str) -> Collection {
        Collection {
            engine: Arc::clone(&self.engine),
            name: name.to_string(),
            indexes: Arc::clone(&self.indexes),
        }
    }

    /// Names of all existing collections.
    pub fn collection_names(&self) -> Vec<String> {
        self.engine.collection_names()
    }

    /// Drops a collection, its data and its indexes.
    pub fn drop_collection(&self, name: &str) -> DbResult<()> {
        self.indexes.write().remove(name);
        self.engine.drop_collection(name)
    }

    /// Engine statistics (storage bytes, cache counters, lock waits).
    pub fn stats(&self) -> EngineStats {
        self.engine.stats()
    }

    /// Forces a checkpoint (flushes buffered state to the data dir).
    pub fn checkpoint(&self) -> DbResult<()> {
        self.engine.checkpoint()
    }

    /// An independent in-memory copy of this database: its records, log
    /// state, engine statistics and secondary indexes
    /// ([`StorageEngine::clone_in_memory`]). Costs memcpy and allocation,
    /// never the engine's modelled write path, so a loaded database can be
    /// branched for a run instead of loaded again. Unlike [`Clone`], which
    /// shares the database, writes to the copy leave this one unchanged.
    /// Refuses a durable database with [`DbError::Unsupported`].
    pub fn clone_in_memory(&self) -> DbResult<Database> {
        let indexes = self.indexes.read();
        let engine = self.engine.clone_in_memory()?;
        Ok(Database { engine, kind: self.kind, indexes: Arc::new(RwLock::new(indexes.clone())) })
    }
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database").field("engine", &self.kind).finish()
    }
}

/// A handle to one collection.
#[derive(Clone)]
pub struct Collection {
    engine: Arc<dyn StorageEngine>,
    name: String,
    indexes: Arc<RwLock<IndexMap>>,
}

impl Collection {
    /// The collection name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Inserts a new document. Fails with [`DbError::DuplicateKey`] if the
    /// key exists.
    pub fn insert(&self, key: &str, document: &Value) -> DbResult<()> {
        let bytes = doc::encode(document)?;
        self.engine.insert(&self.name, key.as_bytes(), &bytes)?;
        self.index_document(key, None, Some(document));
        Ok(())
    }

    /// Fetches a document by key.
    pub fn get(&self, key: &str) -> DbResult<Option<Value>> {
        match self.engine.get(&self.name, key.as_bytes())? {
            Some(bytes) => Ok(Some(doc::decode(&bytes)?)),
            None => Ok(None),
        }
    }

    /// Replaces an existing document. Fails with [`DbError::NotFound`] if
    /// the key does not exist.
    pub fn update(&self, key: &str, document: &Value) -> DbResult<()> {
        let old = if self.has_indexes() { self.get(key)? } else { None };
        let bytes = doc::encode(document)?;
        self.engine.update(&self.name, key.as_bytes(), &bytes)?;
        self.index_document(key, old.as_ref(), Some(document));
        Ok(())
    }

    /// Inserts or replaces a document.
    pub fn upsert(&self, key: &str, document: &Value) -> DbResult<()> {
        let old = if self.has_indexes() { self.get(key)? } else { None };
        let bytes = doc::encode(document)?;
        self.engine.upsert(&self.name, key.as_bytes(), &bytes)?;
        self.index_document(key, old.as_ref(), Some(document));
        Ok(())
    }

    /// Deletes a document. Returns `true` if it existed.
    pub fn delete(&self, key: &str) -> DbResult<bool> {
        let old = if self.has_indexes() { self.get(key)? } else { None };
        let existed = self.engine.delete(&self.name, key.as_bytes())?;
        if existed {
            self.index_document(key, old.as_ref(), None);
        }
        Ok(existed)
    }

    fn has_indexes(&self) -> bool {
        self.indexes.read().get(&self.name).map(|m| !m.is_empty()).unwrap_or(false)
    }

    /// Applies an index delta for one document: removes `old`'s entries and
    /// adds `new`'s, for every indexed field of this collection.
    ///
    /// Runs after the engine write, and takes the database-wide write lock
    /// only when the read lock shows an index on this collection. Nothing
    /// is lost by looking first: [`Collection::create_index`] holds the
    /// write lock for its whole backfill, so a writer that finds no index
    /// either checked before the build began, and the build's scan sees
    /// its engine write, or waited the build out and finds the index.
    fn index_document(&self, key: &str, old: Option<&Value>, new: Option<&Value>) {
        if !self.has_indexes() {
            return;
        }
        let mut indexes = self.indexes.write();
        let Some(fields) = indexes.get_mut(&self.name) else { return };
        for (field, index) in fields.iter_mut() {
            if let Some(value) = old.and_then(|d| lookup(d, field)) {
                index.remove(value, key.as_bytes());
            }
            if let Some(value) = new.and_then(|d| lookup(d, field)) {
                index.insert(value, key.as_bytes());
            }
        }
    }

    /// Creates a single-field secondary index on `field` (dotted paths
    /// allowed), backfilling it from the existing documents. Idempotent.
    ///
    /// The build is *foreground*: the index-map write lock is held for the
    /// whole backfill, so concurrent writers' index maintenance serializes
    /// behind the build and no post-build delta can be lost. A writer that
    /// raced the build's storage scan may leave a stale extra entry behind
    /// (see DESIGN.md); `find`'s residual re-check filters those out.
    pub fn create_index(&self, field: &str) -> DbResult<()> {
        let mut indexes = self.indexes.write();
        if indexes.get(&self.name).map(|m| m.contains_key(field)).unwrap_or(false) {
            return Ok(());
        }
        let mut index = FieldIndex::new();
        self.scan_raw("", usize::MAX, &mut |key, bytes| {
            // Extract just the indexed field from the encoded bytes; the
            // rest of the document is never materialized.
            if let Some(value) = doc::decode_path(bytes, field)? {
                index.insert(&value, key);
            }
            Ok(())
        })?;
        indexes.entry(self.name.clone()).or_default().insert(field.to_string(), index);
        Ok(())
    }

    /// Drops the index on `field`. Returns whether it existed.
    pub fn drop_index(&self, field: &str) -> bool {
        self.indexes.write().get_mut(&self.name).map(|m| m.remove(field).is_some()).unwrap_or(false)
    }

    /// Names of the indexed fields, sorted.
    pub fn index_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .indexes
            .read()
            .get(&self.name)
            .map(|m| m.keys().cloned().collect())
            .unwrap_or_default();
        names.sort();
        names
    }

    /// The query planner: candidate document keys for `filter` from an
    /// index, or `None` when no index applies (full scan required).
    ///
    /// Index lookups borrow key slices straight out of the posting lists and
    /// collect into a `BTreeSet` (sorted + deduplicated), so the only copy
    /// per candidate is the final one out of the locked index map.
    fn plan_candidates(&self, filter: &Filter) -> Option<Vec<Vec<u8>>> {
        let indexes = self.indexes.read();
        let fields = indexes.get(&self.name)?;
        fn plan<'a>(
            fields: &'a HashMap<String, FieldIndex>,
            filter: &Filter,
        ) -> Option<BTreeSet<&'a [u8]>> {
            match filter {
                Filter::Eq(field, operand) => {
                    fields.get(field).map(|index| index.lookup_eq_iter(operand).collect())
                }
                Filter::Gt(field, operand) => lookup_range(fields, field, RangeOp::Gt, operand),
                Filter::Gte(field, operand) => lookup_range(fields, field, RangeOp::Gte, operand),
                Filter::Lt(field, operand) => lookup_range(fields, field, RangeOp::Lt, operand),
                Filter::Lte(field, operand) => lookup_range(fields, field, RangeOp::Lte, operand),
                // For conjunctions the first indexable branch prunes; the
                // full filter still runs as a residual afterwards.
                Filter::And(children) => children.iter().find_map(|c| plan(fields, c)),
                _ => None,
            }
        }
        fn lookup_range<'a>(
            fields: &'a HashMap<String, FieldIndex>,
            field: &str,
            op: RangeOp,
            operand: &Value,
        ) -> Option<BTreeSet<&'a [u8]>> {
            let index = fields.get(field)?;
            let (low, high) = range_for(op, operand)?;
            Some(index.lookup_range_iter(&low, &high).collect())
        }
        plan(fields, filter).map(|set| set.into_iter().map(<[u8]>::to_vec).collect())
    }

    /// Ordered scan: up to `limit` documents with keys ≥ `start_key`.
    pub fn scan(&self, start_key: &str, limit: usize) -> DbResult<Vec<(String, Value)>> {
        let mut out = Vec::new();
        self.scan_raw(start_key, limit, &mut |key, bytes| {
            out.push((decode_key(key)?, doc::decode(bytes)?));
            Ok(())
        })?;
        Ok(out)
    }

    /// Visits at most `limit` raw `(key, encoded document)` records with
    /// keys ≥ `start_key` in key order, as [`StorageEngine::scan`] does:
    /// pair with [`doc::matches_encoded`]/[`doc::decode_path`] to inspect a
    /// record, or [`doc::decode`] to materialize it.
    pub fn scan_raw(&self, start_key: &str, limit: usize, visit: &mut Visitor<'_>) -> DbResult<()> {
        self.engine.scan(&self.name, start_key.as_bytes(), limit, visit)
    }

    /// Number of documents.
    pub fn count(&self) -> u64 {
        self.engine.count(&self.name)
    }

    /// Filter evaluation: returns all `(key, document)` pairs matching
    /// `filter`, in key order. Uses a secondary index when the filter (or a
    /// conjunct of it) is an equality/range predicate on an indexed field;
    /// falls back to a full collection scan otherwise.
    pub fn find(&self, filter: &Filter) -> DbResult<Vec<(String, Value)>> {
        if let Some(candidates) = self.plan_candidates(filter) {
            // One batched engine call fetches every candidate; the filter
            // re-check (residual predicate — the document may have changed
            // since the index snapshot) runs on the encoded bytes, so only
            // true matches are decoded.
            let values = self.engine.get_many(&self.name, &candidates)?;
            let mut out = Vec::with_capacity(candidates.len());
            for (key_bytes, value) in candidates.iter().zip(values) {
                let Some(bytes) = value else { continue };
                if doc::matches_encoded(&bytes, filter)? {
                    out.push((decode_key(key_bytes)?, doc::decode(&bytes)?));
                }
            }
            return Ok(out);
        }
        // Full scan with predicate pushdown: the filter is evaluated
        // directly on each record's encoded bytes where the engine holds
        // them; non-matching documents are never materialized.
        let mut out = Vec::new();
        self.scan_raw("", usize::MAX, &mut |key, bytes| {
            if doc::matches_encoded(bytes, filter)? {
                out.push((decode_key(key)?, doc::decode(bytes)?));
            }
            Ok(())
        })?;
        Ok(out)
    }
}

/// Decodes an engine key into the `String` the API hands out, rejecting
/// non-UTF-8 bytes as corruption instead of silently mangling them with a
/// lossy conversion.
fn decode_key(bytes: &[u8]) -> DbResult<String> {
    std::str::from_utf8(bytes)
        .map(str::to_owned)
        .map_err(|e| DbError::Corrupt(format!("non-UTF-8 document key: {e}")))
}

impl std::fmt::Debug for Collection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Collection").field("name", &self.name).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronos_json::obj;

    fn both_engines() -> Vec<Database> {
        vec![
            Database::open(DbConfig::in_memory(EngineKind::WiredTiger)).unwrap(),
            Database::open(DbConfig::in_memory(EngineKind::MmapV1)).unwrap(),
        ]
    }

    #[test]
    fn crud_roundtrip_on_both_engines() {
        for db in both_engines() {
            let coll = db.collection("t");
            let doc = obj! {"a" => 1, "b" => "two"};
            coll.insert("k1", &doc).unwrap();
            assert_eq!(coll.get("k1").unwrap().unwrap(), doc);
            assert_eq!(coll.get("missing").unwrap(), None);

            let doc2 = obj! {"a" => 2};
            coll.update("k1", &doc2).unwrap();
            assert_eq!(coll.get("k1").unwrap().unwrap(), doc2);

            assert!(coll.delete("k1").unwrap());
            assert!(!coll.delete("k1").unwrap());
            assert_eq!(coll.get("k1").unwrap(), None);
        }
    }

    #[test]
    fn insert_duplicate_fails() {
        for db in both_engines() {
            let coll = db.collection("t");
            coll.insert("k", &obj! {"v" => 1}).unwrap();
            assert!(matches!(coll.insert("k", &obj! {"v" => 2}), Err(DbError::DuplicateKey(_))));
        }
    }

    #[test]
    fn update_missing_fails_but_upsert_succeeds() {
        for db in both_engines() {
            let coll = db.collection("t");
            assert!(matches!(coll.update("k", &obj! {}), Err(DbError::NotFound(_))));
            coll.upsert("k", &obj! {"v" => 1}).unwrap();
            coll.upsert("k", &obj! {"v" => 2}).unwrap();
            assert_eq!(coll.get("k").unwrap().unwrap(), obj! {"v" => 2});
        }
    }

    #[test]
    fn scan_is_ordered() {
        for db in both_engines() {
            let coll = db.collection("t");
            for i in [5u32, 1, 9, 3, 7] {
                coll.insert(&format!("k{i}"), &obj! {"i" => i}).unwrap();
            }
            let rows = coll.scan("k3", 3).unwrap();
            let keys: Vec<&str> = rows.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, vec!["k3", "k5", "k7"], "engine {:?}", db.engine_kind());
        }
    }

    #[test]
    fn count_and_collections() {
        for db in both_engines() {
            let coll = db.collection("a");
            assert_eq!(coll.count(), 0);
            coll.insert("x", &obj! {}).unwrap();
            coll.insert("y", &obj! {}).unwrap();
            assert_eq!(coll.count(), 2);
            assert_eq!(db.collection_names(), vec!["a".to_string()]);
            db.drop_collection("a").unwrap();
            assert_eq!(db.collection("a").count(), 0);
        }
    }

    #[test]
    fn find_with_filter() {
        for db in both_engines() {
            let coll = db.collection("people");
            coll.insert("p1", &obj! {"age" => 30, "city" => "basel"}).unwrap();
            coll.insert("p2", &obj! {"age" => 20, "city" => "bern"}).unwrap();
            coll.insert("p3", &obj! {"age" => 40, "city" => "basel"}).unwrap();
            let hits = coll
                .find(&Filter::and(vec![Filter::eq("city", "basel"), Filter::gt("age", 25)]))
                .unwrap();
            let keys: Vec<&str> = hits.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, vec!["p1", "p3"]);
        }
    }

    #[test]
    fn non_utf8_keys_are_rejected_not_mangled() {
        for db in both_engines() {
            let coll = db.collection("t");
            coll.insert("good", &obj! {"v" => 1}).unwrap();
            // Sneak a non-UTF-8 key in at the engine layer (the public API
            // only accepts &str keys); read paths must surface it as
            // corruption, not lossy-replace it into a valid-looking key.
            let bytes = doc::encode(&obj! {"v" => 2}).unwrap();
            coll.engine.insert("t", &[0x80, 0xFF], &bytes).unwrap();
            assert!(matches!(coll.scan("", 10), Err(DbError::Corrupt(_))));
            assert!(matches!(coll.find(&Filter::exists("v")), Err(DbError::Corrupt(_))));
            // The raw scan still exposes the record for repair tooling.
            let mut records = 0;
            coll.scan_raw("", usize::MAX, &mut |_, _| {
                records += 1;
                Ok(())
            })
            .unwrap();
            assert_eq!(records, 2);
        }
    }

    #[test]
    fn find_uses_one_batched_engine_read_per_query() {
        for db in both_engines() {
            let coll = db.collection("t");
            for i in 0..50u32 {
                coll.insert(&format!("k{i:02}"), &obj! {"group" => i % 5}).unwrap();
            }
            coll.create_index("group").unwrap();
            let reads_before = db.stats().reads;
            let hits = coll.find(&Filter::eq("group", 3)).unwrap();
            assert_eq!(hits.len(), 10);
            // get_many counts one read per candidate but issues them in a
            // single engine call; no extra per-key get() round trips.
            assert_eq!(db.stats().reads - reads_before, 10, "engine {:?}", db.engine_kind());
        }
    }

    #[test]
    fn stats_track_documents() {
        for db in both_engines() {
            let coll = db.collection("t");
            for i in 0..50 {
                coll.insert(&format!("k{i:03}"), &obj! {"pad" => "x".repeat(200)}).unwrap();
            }
            let stats = db.stats();
            assert_eq!(stats.documents, 50);
            assert!(stats.logical_bytes > 0);
            assert!(stats.stored_bytes > 0, "engine {:?}", db.engine_kind());
        }
    }

    #[test]
    fn clone_in_memory_branches_records_stats_and_indexes() {
        for db in both_engines() {
            let coll = db.collection("t");
            for i in 0..40u32 {
                coll.insert(&format!("k{i:02}"), &obj! {"group" => i % 4, "pad" => "x".repeat(90)})
                    .unwrap();
            }
            coll.create_index("group").unwrap();
            let before = db.stats();
            let copy = db.clone_in_memory().unwrap();
            assert_eq!(copy.stats(), before, "engine {:?}", db.engine_kind());
            assert_eq!(copy.collection("t").index_names(), vec!["group".to_string()]);

            let branch = copy.collection("t");
            branch.update("k01", &obj! {"group" => 9}).unwrap();
            branch.delete("k02").unwrap();
            branch.insert("k99", &obj! {"group" => 9}).unwrap();
            let nines: Vec<String> =
                branch.find(&Filter::eq("group", 9)).unwrap().into_iter().map(|(k, _)| k).collect();
            assert_eq!(nines, vec!["k01", "k99"], "engine {:?}", db.engine_kind());
            let threes = branch.find(&Filter::eq("group", 3)).unwrap();
            assert_eq!(threes.len(), 10, "the copy's index holds the entries made before it");

            assert_eq!(db.stats(), before, "writes to the copy leave the original unchanged");
            assert_eq!(coll.count(), 40);
            assert_eq!(coll.get("k01").unwrap().unwrap().get("group"), Some(&Value::from(1)));
            assert!(coll.find(&Filter::eq("group", 9)).unwrap().is_empty());
        }
    }

    #[test]
    fn clone_in_memory_refuses_a_durable_database() {
        for engine in [EngineKind::WiredTiger, EngineKind::MmapV1] {
            let dir =
                std::env::temp_dir().join(format!("minidoc-clone-{}-{engine}", std::process::id()));
            let db = Database::open(DbConfig::at_dir(engine, &dir)).unwrap();
            assert!(matches!(db.clone_in_memory(), Err(DbError::Unsupported(_))), "{engine}");
            drop(db);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn wiredtiger_compression_shrinks_storage() {
        let wt = Database::open(DbConfig::in_memory(EngineKind::WiredTiger)).unwrap();
        let mm = Database::open(DbConfig::in_memory(EngineKind::MmapV1)).unwrap();
        for db in [&wt, &mm] {
            let coll = db.collection("t");
            for i in 0..200 {
                // Highly compressible payloads.
                coll.insert(&format!("k{i:05}"), &obj! {"data" => "ab".repeat(300)}).unwrap();
            }
        }
        let wt_bytes = wt.stats().stored_bytes;
        let mm_bytes = mm.stats().stored_bytes;
        assert!(
            wt_bytes * 2 < mm_bytes,
            "wiredTiger ({wt_bytes}) should store far less than mmapv1 ({mm_bytes})"
        );
    }
}
