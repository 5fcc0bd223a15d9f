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
//! sink included), and mmapv1 copies each record a read or a scan yields
//! out of its extents. What they do not model they do not pay: a write
//! frames the log record straight from the borrowed key and value, and a
//! scan ([`StorageEngine::scan`]) hands each record to its visitor where it
//! lies, as borrowed key and value slices: wiredTiger's cache-resident
//! bytes, and mmapv1's copy in one buffer reused for the whole scan. A scan
//! allocates nothing per record and reads nothing past its limit.
//!
//! An in-memory engine can also be copied whole
//! ([`StorageEngine::clone_in_memory`]): its record layout, log state and
//! counters, at the cost of memcpy and allocation. Nothing is recompressed
//! or re-framed, so a copy does not pay the modelled write path a load
//! pays, and it reports exactly what the original reports.

pub mod mmapv1;
pub mod wiredtiger;

use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::error::DbResult;

/// Record value bytes shared with the engine's cache.
///
/// The wiredTiger-like engine hands out its cache-resident copy without any
/// byte copy; the mmapv1-like engine copies out of its extents once and the
/// `Arc` is then shared by every downstream consumer (point reads, batched
/// reads, decode).
pub type SharedBytes = Arc<[u8]>;

/// What [`StorageEngine::scan`] calls with each record's key and value,
/// borrowed from the engine. An error from it stops the scan and is what
/// the scan returns.
pub type Visitor<'a> = dyn FnMut(&[u8], &[u8]) -> DbResult<()> + 'a;

/// The most records a scan visits per hold of a collection's read lock.
pub(crate) const SCAN_CHUNK: usize = 256;

/// A collection's reader-writer lock, which a scan hands to the writers
/// that queue on it: the standard library's lets a reader that releases it
/// take it again before a woken writer runs.
pub(crate) struct CollectionLock<T> {
    lock: RwLock<T>,
    /// Writers that have asked for the lock, and those of them that got it.
    asked: AtomicU64,
    got: AtomicU64,
}

impl<T> CollectionLock<T> {
    pub(crate) fn new(value: T) -> Self {
        CollectionLock { lock: RwLock::new(value), asked: 0.into(), got: 0.into() }
    }

    pub(crate) fn read(&self) -> RwLockReadGuard<'_, T> {
        self.lock.read()
    }

    pub(crate) fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.asked.fetch_add(1, Ordering::Relaxed);
        let guard = self.lock.write();
        self.got.fetch_add(1, Ordering::Relaxed);
        guard
    }

    /// How many writers wait for the lock (the two counts are read apart).
    pub(crate) fn queued(&self) -> u64 {
        self.asked.load(Ordering::Relaxed).saturating_sub(self.got.load(Ordering::Relaxed))
    }

    /// Waits until every writer that has asked for the lock by now got it.
    fn let_writers_in(&self) {
        let asked = self.asked.load(Ordering::Relaxed);
        while self.got.load(Ordering::Relaxed) < asked {
            std::thread::yield_now();
        }
    }
}

/// Runs a scan of at most `limit` records from `start_key`, handing each to
/// `visit` under `lock`'s read lock. `walk(locked, from, f)` calls `f` with
/// each record from `from` on, in key order, until `f` returns `false`. A
/// hold of the lock visits at most [`SCAN_CHUNK`] records and ends early,
/// after one, when a writer queues on the lock. The next hold lets the
/// queued writers in first and resumes after a copy of the last key.
pub(crate) fn scan_in_chunks<T>(
    lock: &CollectionLock<T>,
    start_key: &[u8],
    limit: usize,
    visit: &mut Visitor<'_>,
    mut walk: impl FnMut(
        &T,
        Bound<&[u8]>,
        &mut dyn FnMut(&[u8], &[u8]) -> DbResult<bool>,
    ) -> DbResult<()>,
) -> DbResult<()> {
    let _visiting = Visiting::enter(lock);
    let (mut remaining, mut resume, mut last) = (limit, None::<Vec<u8>>, Vec::new());
    while remaining > 0 {
        let from = match &resume {
            Some(key) => Bound::Excluded(key.as_slice()),
            None => Bound::Included(start_key),
        };
        let hold = remaining.min(SCAN_CHUNK);
        let (mut visited, mut cut) = (0, false);
        lock.let_writers_in();
        walk(&lock.read(), from, &mut |key, value| {
            visit(key, value)?;
            visited += 1;
            cut = visited == hold || lock.queued() > 0;
            if cut {
                last.clear();
                last.extend_from_slice(key);
            }
            Ok(!cut)
        })?;
        remaining -= visited;
        if !cut {
            break;
        }
        std::mem::swap(resume.get_or_insert_with(Vec::new), &mut last);
    }
    Ok(())
}

#[cfg(debug_assertions)]
thread_local! {
    /// The storage addresses of the collections this thread's scans visit.
    static VISITING: std::cell::RefCell<Vec<usize>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Marks a collection as visited by this thread's scan until dropped, for
/// [`assert_not_visiting`]. Release builds keep nothing.
struct Visiting(());

impl Visiting {
    fn enter<T>(storage: &T) -> Visiting {
        #[cfg(debug_assertions)]
        VISITING.with_borrow_mut(|visiting| visiting.push(storage as *const T as usize));
        #[cfg(not(debug_assertions))]
        let _ = storage;
        Visiting(())
    }
}

impl Drop for Visiting {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        VISITING.with_borrow_mut(|visiting| visiting.pop());
    }
}

/// Panics in a debug build when this thread is inside a scan's visitor of
/// the collection stored at `storage`, whose read lock the scan holds: a
/// write there deadlocks, and a read waits behind any queued writer.
pub(crate) fn assert_not_visiting<T>(storage: &T, collection: &str) {
    #[cfg(debug_assertions)]
    if VISITING.with_borrow(|visiting| visiting.contains(&(storage as *const T as usize))) {
        panic!(
            "a scan's visitor called into collection {collection:?}, which the scan holds locked"
        );
    }
    #[cfg(not(debug_assertions))]
    let _ = (storage, collection);
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

    /// Visits at most `limit` records with key ≥ `start_key`, in key order
    /// (`usize::MAX` walks the collection). `visit` gets each record's key
    /// and value as borrowed slices; an error from it stops the scan and is
    /// returned. The engine visits at most 256 records per hold of its
    /// read lock, fewer when a writer queues on it, and runs `visit` under
    /// it; then it lets the queued writers in and resumes after a copy of
    /// the last key. A record written between two holds may or may not be
    /// visited, one present for the whole scan always is. So `visit` must
    /// not call into the collection it visits: a write there would
    /// deadlock on that lock (a debug build panics instead, naming the
    /// collection). Nothing past `limit` is read, and no record is
    /// allocated for.
    fn scan(
        &self,
        collection: &str,
        start_key: &[u8],
        limit: usize,
        visit: &mut Visitor<'_>,
    ) -> DbResult<()>;

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
    use std::collections::BTreeSet;

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
    fn a_scan_walks_at_most_a_chunk_per_lock_hold() {
        let all: Vec<Vec<u8>> = (0..600u32).map(|i| format!("k{i:04}").into_bytes()).collect();
        let lock = CollectionLock::new(all.iter().cloned().collect::<BTreeSet<_>>());
        for start in [&b""[..], b"k0003", b"k0400", b"k0599", b"z"] {
            let expected: Vec<Vec<u8>> =
                all.iter().filter(|key| key.as_slice() >= start).cloned().collect();
            let n = expected.len();
            for limit in [0, 1, 31, 32, 33, 255, 256, 257, n, n + 1, 10_000, usize::MAX] {
                let (mut holds, mut visited) = (Vec::new(), Vec::new());
                let mut visit = |key: &[u8], _: &[u8]| {
                    visited.push(key.to_vec());
                    Ok(())
                };
                scan_in_chunks(&lock, start, limit, &mut visit, |keys, from, visit| {
                    holds.push(0);
                    for key in keys.range::<[u8], _>((from, Bound::Unbounded)) {
                        *holds.last_mut().unwrap() += 1;
                        if !visit(key, b"")? {
                            break;
                        }
                    }
                    Ok(())
                })
                .unwrap();
                assert_eq!(visited, expected[..limit.min(n)], "start {start:?}, limit {limit}");
                assert!(
                    holds.iter().all(|&n| n <= SCAN_CHUNK.min(limit)),
                    "start {start:?}, limit {limit}: holds of {holds:?} records"
                );
            }
        }
    }

    #[test]
    fn stats_json_fields() {
        let j = EngineStats::default().to_json();
        for field in ["documents", "stored_bytes", "storage_amplification", "wal_bytes"] {
            assert!(j.get(field).is_some(), "missing {field}");
        }
    }
}
