//! The storage-engine abstraction and its two implementations.
//!
//! MongoDB's pluggable storage API is what made the paper's demo possible
//! (same database, two engines, one flag); [`StorageEngine`] plays that role
//! here. Engines store opaque record bytes under binary keys, per named
//! collection, with ordered scans.
//!
//! What the engines model, they pay on every operation: wiredTiger
//! compresses each write and accounts the compressed size, both engines
//! frame, checksum and append each mutation to their log (the in-memory
//! sink included), and mmapv1 copies each record a read or a cursor yields
//! out of its extents. What they do not model they do not pay: a write
//! frames the log record straight from the borrowed key and value, and a
//! cursor is opened with a record limit ([`StorageEngine::cursor`]), so a
//! scan fetches, clones and copies only the records it yields.
//!
//! An in-memory engine can also be copied whole
//! ([`StorageEngine::clone_in_memory`]): its record layout, log state and
//! counters, at the cost of memcpy and allocation. Nothing is recompressed
//! or re-framed, so a copy does not pay the modelled write path a load
//! pays, and it reports exactly what the original reports.

pub mod mmapv1;
pub mod wiredtiger;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::error::DbResult;

/// Record value bytes shared with the engine's cache.
///
/// The wiredTiger-like engine hands out its cache-resident copy without any
/// byte copy; the mmapv1-like engine copies out of its extents once and the
/// `Arc` is then shared by every downstream consumer (cursor batches, filter
/// pushdown, decode).
pub type SharedBytes = Arc<[u8]>;

/// A streaming cursor over one collection's records in key order.
///
/// Cursors replace the old copy-per-batch `scan` loop: the engine refills an
/// internal chunk under its own short-lived locks and yields `Arc`-shared
/// value bytes, so iterating a collection never copies record payloads and
/// never re-enters the engine with cloned sentinel resume keys. A cursor is
/// opened with a record limit and no refill reaches past it: a YCSB scan of
/// 50 records fetches 50, not the 32 + 64 of two doubling chunks. What the
/// engines model is kept — mmapv1 still copies every record it yields out
/// of its extents. Records inserted or deleted while the cursor is open may
/// or may not be observed (same snapshot semantics the batched `scan` had).
pub struct RecordCursor {
    inner: Box<dyn Iterator<Item = (Vec<u8>, SharedBytes)> + Send>,
}

impl RecordCursor {
    /// Wraps an engine-internal record iterator.
    pub(crate) fn new(
        inner: impl Iterator<Item = (Vec<u8>, SharedBytes)> + Send + 'static,
    ) -> Self {
        RecordCursor { inner: Box::new(inner) }
    }

    /// A cursor over nothing (missing collection).
    pub(crate) fn empty() -> Self {
        RecordCursor::new(std::iter::empty())
    }
}

impl Iterator for RecordCursor {
    type Item = (Vec<u8>, SharedBytes);

    fn next(&mut self) -> Option<Self::Item> {
        self.inner.next()
    }
}

impl std::fmt::Debug for RecordCursor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("RecordCursor")
    }
}

/// Which storage engine a database uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// The wiredTiger-like engine: record-level concurrency, compression,
    /// WAL + checkpoints.
    WiredTiger,
    /// The mmapv1-like engine: collection-level locking, in-place updates
    /// with power-of-2 padding, journal.
    MmapV1,
}

impl EngineKind {
    /// Parses the lowercase engine name used in experiment parameters.
    pub fn parse(s: &str) -> Option<EngineKind> {
        match s {
            "wiredtiger" | "wiredTiger" => Some(EngineKind::WiredTiger),
            "mmapv1" => Some(EngineKind::MmapV1),
            _ => None,
        }
    }

    /// The canonical lowercase name.
    pub fn as_str(&self) -> &'static str {
        match self {
            EngineKind::WiredTiger => "wiredtiger",
            EngineKind::MmapV1 => "mmapv1",
        }
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Point-in-time engine statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Live documents across all collections.
    pub documents: u64,
    /// Sum of encoded document sizes (what the user stored).
    pub logical_bytes: u64,
    /// Bytes the engine actually keeps (padding, compression, slot
    /// overhead included).
    pub stored_bytes: u64,
    /// Completed operations by type.
    pub inserts: u64,
    /// Completed updates.
    pub updates: u64,
    /// Completed deletes.
    pub deletes: u64,
    /// Completed point reads (hits and misses).
    pub reads: u64,
    /// Completed scans.
    pub scans: u64,
    /// Bytes appended to the WAL/journal.
    pub wal_bytes: u64,
    /// In-place updates (mmapv1: record fit its padding).
    pub inplace_updates: u64,
    /// Record moves (mmapv1: record outgrew its padding).
    pub record_moves: u64,
}

impl EngineStats {
    /// `stored_bytes / logical_bytes` (1.0 when empty).
    pub fn storage_amplification(&self) -> f64 {
        if self.logical_bytes == 0 {
            1.0
        } else {
            self.stored_bytes as f64 / self.logical_bytes as f64
        }
    }

    /// JSON rendering for result documents.
    pub fn to_json(&self) -> chronos_json::Value {
        chronos_json::obj! {
            "documents" => self.documents,
            "logical_bytes" => self.logical_bytes,
            "stored_bytes" => self.stored_bytes,
            "storage_amplification" => self.storage_amplification(),
            "inserts" => self.inserts,
            "updates" => self.updates,
            "deletes" => self.deletes,
            "reads" => self.reads,
            "scans" => self.scans,
            "wal_bytes" => self.wal_bytes,
            "inplace_updates" => self.inplace_updates,
            "record_moves" => self.record_moves,
        }
    }
}

/// Shared atomic counters engines update on their hot paths.
#[derive(Debug, Default)]
pub(crate) struct StatCounters {
    pub documents: AtomicU64,
    pub logical_bytes: AtomicU64,
    pub stored_bytes: AtomicU64,
    pub inserts: AtomicU64,
    pub updates: AtomicU64,
    pub deletes: AtomicU64,
    pub reads: AtomicU64,
    pub scans: AtomicU64,
    pub inplace_updates: AtomicU64,
    pub record_moves: AtomicU64,
}

impl StatCounters {
    pub(crate) fn snapshot(&self, wal_bytes: u64) -> EngineStats {
        EngineStats {
            documents: self.documents.load(Ordering::Relaxed),
            logical_bytes: self.logical_bytes.load(Ordering::Relaxed),
            stored_bytes: self.stored_bytes.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            updates: self.updates.load(Ordering::Relaxed),
            deletes: self.deletes.load(Ordering::Relaxed),
            reads: self.reads.load(Ordering::Relaxed),
            scans: self.scans.load(Ordering::Relaxed),
            wal_bytes,
            inplace_updates: self.inplace_updates.load(Ordering::Relaxed),
            record_moves: self.record_moves.load(Ordering::Relaxed),
        }
    }

    /// A copy holding every counter's current value.
    pub(crate) fn copy(&self) -> StatCounters {
        let copy = |c: &AtomicU64| AtomicU64::new(c.load(Ordering::Relaxed));
        StatCounters {
            documents: copy(&self.documents),
            logical_bytes: copy(&self.logical_bytes),
            stored_bytes: copy(&self.stored_bytes),
            inserts: copy(&self.inserts),
            updates: copy(&self.updates),
            deletes: copy(&self.deletes),
            reads: copy(&self.reads),
            scans: copy(&self.scans),
            inplace_updates: copy(&self.inplace_updates),
            record_moves: copy(&self.record_moves),
        }
    }

    pub(crate) fn add(counter: &AtomicU64, delta: u64) {
        counter.fetch_add(delta, Ordering::Relaxed);
    }

    pub(crate) fn sub(counter: &AtomicU64, delta: u64) {
        counter.fetch_sub(delta, Ordering::Relaxed);
    }
}

/// The storage-engine contract.
///
/// All methods are callable concurrently from many threads; the locking
/// granularity is the engine's defining characteristic.
pub trait StorageEngine: Send + Sync {
    /// Inserts a new record; errors on duplicate key.
    fn insert(&self, collection: &str, key: &[u8], value: &[u8]) -> DbResult<()>;

    /// Fetches a record.
    fn get(&self, collection: &str, key: &[u8]) -> DbResult<Option<SharedBytes>>;

    /// Batched point lookup: the value for each of `keys` (position-aligned,
    /// `None` for misses) fetched under one index-lock acquisition instead of
    /// one per key. The index-backed query path uses this to resolve all
    /// candidate keys of a `find` in a single engine call.
    fn get_many(&self, collection: &str, keys: &[Vec<u8>]) -> DbResult<Vec<Option<SharedBytes>>>;

    /// Replaces an existing record; errors on missing key.
    fn update(&self, collection: &str, key: &[u8], value: &[u8]) -> DbResult<()>;

    /// Inserts or replaces a record.
    fn upsert(&self, collection: &str, key: &[u8], value: &[u8]) -> DbResult<()>;

    /// Removes a record; returns whether it existed.
    fn delete(&self, collection: &str, key: &[u8]) -> DbResult<bool>;

    /// Streaming cursor over at most `limit` records, from the first key
    /// ≥ `start_key`. It yields what `.take(limit)` of an unbounded cursor
    /// would, and fetches nothing past `limit`: no index entry, no record
    /// clone, no extent copy. Full walks pass `usize::MAX`.
    fn cursor(&self, collection: &str, start_key: &[u8], limit: usize) -> DbResult<RecordCursor>;

    /// Up to `limit` records with key ≥ `start_key`, in key order.
    ///
    /// Compatibility wrapper over [`StorageEngine::cursor`] that copies the
    /// shared value bytes out; hot paths should iterate the cursor instead.
    fn scan(
        &self,
        collection: &str,
        start_key: &[u8],
        limit: usize,
    ) -> DbResult<Vec<(Vec<u8>, Vec<u8>)>> {
        Ok(self.cursor(collection, start_key, limit)?.map(|(k, v)| (k, v.to_vec())).collect())
    }

    /// Number of records in `collection` (0 if it does not exist).
    fn count(&self, collection: &str) -> u64;

    /// Existing collection names, sorted.
    fn collection_names(&self) -> Vec<String>;

    /// Drops a collection (no-op if absent).
    fn drop_collection(&self, collection: &str) -> DbResult<()>;

    /// Point-in-time statistics.
    fn stats(&self) -> EngineStats;

    /// Flushes state so a re-open recovers without the log.
    fn checkpoint(&self) -> DbResult<()>;

    /// An independent in-memory copy: the same records in the same layout,
    /// the same log state and the same counters, so every later operation
    /// does and reports on the copy what it would on the original. Writes
    /// to either leave the other unchanged. Refuses a file-backed engine
    /// ([`DbError::Unsupported`](crate::DbError::Unsupported)). A write in
    /// flight on another thread may or may not be in the copy; copy a
    /// database no one is writing.
    fn clone_in_memory(&self) -> DbResult<Arc<dyn StorageEngine>>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_kind_roundtrip() {
        assert_eq!(EngineKind::parse("wiredtiger"), Some(EngineKind::WiredTiger));
        assert_eq!(EngineKind::parse("wiredTiger"), Some(EngineKind::WiredTiger));
        assert_eq!(EngineKind::parse("mmapv1"), Some(EngineKind::MmapV1));
        assert_eq!(EngineKind::parse("rocks"), None);
        assert_eq!(EngineKind::WiredTiger.to_string(), "wiredtiger");
    }

    #[test]
    fn amplification_math() {
        let stats = EngineStats { logical_bytes: 100, stored_bytes: 250, ..Default::default() };
        assert_eq!(stats.storage_amplification(), 2.5);
        assert_eq!(EngineStats::default().storage_amplification(), 1.0);
    }

    #[test]
    fn stats_json_fields() {
        let j = EngineStats::default().to_json();
        for field in ["documents", "stored_bytes", "storage_amplification", "wal_bytes"] {
            assert!(j.get(field).is_some(), "missing {field}");
        }
    }
}
