//! The storage-engine abstraction and its two implementations.
//!
//! MongoDB's pluggable storage API is what made the paper's demo possible
//! (same database, two engines, one flag); [`StorageEngine`] plays that role
//! here. Engines store opaque record bytes under binary keys, per named
//! collection, with ordered scans.
//!
//! Everything around what an engine models is written once, in [`Shell`]:
//! the named-collection map, recovery (replay the checkpoint, trim-replay
//! the log, then apply its records), the log append with its group-commit
//! sync outside the log lock, the checkpoint, a dropped collection's
//! accounting, the in-memory copy and the statistics. The engines keep
//! only what they model. wiredTiger compresses each write, frames its log
//! record outside every lock, keeps records behind sharded latches and
//! group-commits its log. mmapv1 places records in padded extent slots,
//! frames and journals each write under its collection lock, and copies
//! each record a read or a scan yields out of its extents.
//!
//! What the engines model, they pay on every operation, and what they do
//! not model they do not pay: a write frames the log record straight from
//! the borrowed key and value (the in-memory sink included), and a scan
//! ([`StorageEngine::scan`]) hands each record to its visitor where it
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

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::ops::Bound;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::error::{DbError, DbResult};
use crate::wal::{SyncPolicy, Wal, WalOp};
use crate::DbConfig;

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

    /// Counts a completed put: as an update when it replaced a record, as
    /// an insert when not.
    pub(crate) fn count_put(&self, replaced: bool) {
        Self::add(if replaced { &self.updates } else { &self.inserts }, 1);
    }

    /// Moves the live documents and their logical and stored bytes by the
    /// given amounts (negative for records that went).
    pub(crate) fn shift(&self, documents: i64, logical: i64, stored: i64) {
        let counters = [&self.documents, &self.logical_bytes, &self.stored_bytes];
        for (counter, delta) in counters.into_iter().zip([documents, logical, stored]) {
            if delta != 0 {
                counter.fetch_add(delta as u64, Ordering::Relaxed);
            }
        }
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

/// What a put asks of the key it writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Put {
    /// The key must be absent.
    Insert,
    /// The key must be present.
    Update,
    /// Either.
    Upsert,
}

/// What [`ShellCollection::records`] calls with each record's key, value
/// and stored size.
pub(crate) type RecordVisitor<'a> = dyn FnMut(&[u8], &[u8], u64) -> DbResult<()> + 'a;

/// What [`Shell`] needs of an engine's collection.
pub(crate) trait ShellCollection: Send + Sync {
    /// What the collection's lock guards.
    type Locked;

    /// The lock a scan of the collection holds and a checkpoint reads it
    /// under.
    fn lock(&self) -> &CollectionLock<Self::Locked>;

    /// Hands `f` each record in key order, with the collection's lock held
    /// as `locked`.
    fn records(&self, locked: &Self::Locked, f: &mut RecordVisitor<'_>) -> DbResult<()>;

    /// An independent copy in the same layout.
    fn copy(&self) -> Self;
}

/// What both engines keep around what they model: the named collections,
/// the log, the counters and the checkpoint's file (`None` in memory).
pub(crate) struct Shell<C> {
    collections: RwLock<BTreeMap<String, Arc<C>>>,
    log: Mutex<Wal>,
    pub(crate) stats: StatCounters,
    snapshot: Option<PathBuf>,
}

impl<C: ShellCollection> Shell<C> {
    /// Opens `config`'s files, the checkpoint and the log named by `files`,
    /// and returns the shell with what they hold, oldest first: a durable
    /// log syncs as `durable` says. The engine applies the records with
    /// [`Shell::recover`].
    pub(crate) fn open(
        config: &DbConfig,
        files: [&str; 2],
        durable: SyncPolicy,
    ) -> DbResult<(Self, Vec<WalOp>)> {
        let (log, snapshot, recovered) = match &config.data_dir {
            Some(dir) => {
                std::fs::create_dir_all(dir)?;
                let (snapshot, log) = (dir.join(files[0]), dir.join(files[1]));
                let mut ops = Wal::replay(&snapshot)?;
                ops.extend(Wal::replay_and_trim(&log)?);
                let policy = if config.durable_writes { durable } else { SyncPolicy::Never };
                (Wal::open(&log, policy)?, Some(snapshot), ops)
            }
            None => (Wal::in_memory(), None, Vec::new()),
        };
        let collections = RwLock::new(BTreeMap::new());
        let shell =
            Shell { collections, log: Mutex::new(log), stats: Default::default(), snapshot };
        Ok((shell, recovered))
    }

    /// Applies what [`Shell::open`] recovered: each put (`Some(value)`) and
    /// delete (`None`) through the engine's unlogged `apply`, each drop
    /// here.
    pub(crate) fn recover(
        &self,
        recovered: Vec<WalOp>,
        mut apply: impl FnMut(&str, &[u8], Option<&[u8]>) -> DbResult<()>,
    ) -> DbResult<()> {
        recovered.into_iter().try_for_each(|op| match op {
            WalOp::Put { collection, key, value } => apply(&collection, &key, Some(&value)),
            WalOp::Delete { collection, key } => apply(&collection, &key, None),
            WalOp::DropCollection { collection } => self.drop_collection(&collection, false),
        })
    }

    /// The collection `name`. A debug build panics when a scan of it on
    /// this thread is visiting ([`assert_not_visiting`]).
    pub(crate) fn get(&self, name: &str) -> Option<Arc<C>> {
        let coll = self.collections.read().get(name).cloned()?;
        assert_not_visiting(coll.lock(), name);
        Some(coll)
    }

    /// The collection `name`, made by `new` if there is none.
    pub(crate) fn get_or_create(&self, name: &str, new: impl FnOnce() -> C) -> Arc<C> {
        if let Some(coll) = self.get(name) {
            return coll;
        }
        let mut collections = self.collections.write();
        Arc::clone(collections.entry(name.to_string()).or_insert_with(|| Arc::new(new())))
    }

    /// Existing collection names, sorted.
    pub(crate) fn names(&self) -> Vec<String> {
        self.collections.read().keys().cloned().collect()
    }

    /// Removes the collection `name` and takes its records off the
    /// counters, logging the drop when `log` (recovery does not).
    pub(crate) fn drop_collection(&self, name: &str, log: bool) -> DbResult<()> {
        let Some(coll) = self.collections.write().remove(name) else { return Ok(()) };
        let (mut documents, mut logical, mut stored) = (0, 0, 0);
        coll.records(&coll.lock().read(), &mut |_, value, size| {
            (documents, logical, stored) = (documents + 1, logical + value.len(), stored + size);
            Ok(())
        })?;
        self.stats.shift(-documents, -(logical as i64), -(stored as i64));
        if log {
            self.log_append(&Wal::frame(&WalOp::DropCollection { collection: name.into() }))?;
        }
        Ok(())
    }

    /// Appends a framed record to the log. The log lock is held for the
    /// append alone: a group commit's sync, when one is due, runs after it
    /// is released.
    pub(crate) fn log_append(&self, framed: &[u8]) -> DbResult<()> {
        let sync = {
            let mut log = self.log.lock();
            log.append_framed(framed)?;
            log.take_sync_handle()?
        };
        if let Some(file) = sync {
            if let Some(inj) = chronos_util::fail_eval!("minidoc.wal.sync") {
                return Err(DbError::injected(inj, "wal sync"));
            }
            file.sync_data()?;
        }
        Ok(())
    }

    /// The counters, with the bytes the log took.
    pub(crate) fn stats(&self) -> EngineStats {
        self.stats.snapshot(self.log.lock().appended_bytes)
    }

    /// Writes every record to the checkpoint file and empties the log.
    ///
    /// The lock order is every writer's: collections, then the log. The
    /// checkpoint read-locks the collection map and each collection, then
    /// takes the log and holds it until the log is truncated, so a write
    /// is either in the snapshot or appended after the truncation. The
    /// snapshot goes to a temp file, synced, renamed over the checkpoint
    /// and made durable by a directory sync before the log is emptied.
    pub(crate) fn checkpoint(&self) -> DbResult<()> {
        let Some(path) = &self.snapshot else { return Ok(()) };
        let tmp = path.with_extension("tmp");
        let map = self.collections.read();
        let collections: Vec<(&String, &Arc<C>)> = map.iter().collect();
        let locked: Vec<_> = collections.iter().map(|(_, coll)| coll.lock().read()).collect();
        let mut log = self.log.lock();
        let mut out = BufWriter::new(File::create(&tmp)?);
        for ((name, coll), locked) in collections.iter().zip(&locked) {
            coll.records(locked, &mut |key, value, _| {
                Ok(out.write_all(&Wal::frame_put(name, key, value))?)
            })?;
        }
        out.into_inner().map_err(|e| e.into_error())?.sync_all()?;
        if let Some(inj) = chronos_util::fail_eval!("minidoc.checkpoint.rename") {
            return Err(DbError::injected(inj, "checkpoint rename"));
        }
        std::fs::rename(&tmp, path)?;
        let dir = path.parent().filter(|dir| !dir.as_os_str().is_empty());
        File::open(dir.unwrap_or(Path::new(".")))?.sync_all()?;
        log.truncate()
    }

    /// An in-memory copy of the collections, the log's counters and the
    /// statistics; a file-backed shell is refused.
    pub(crate) fn copy(&self) -> DbResult<Self> {
        let log = self.log.lock().clone_in_memory().ok_or_else(DbError::durable_copy)?;
        let collections = self.collections.read();
        let copies = collections.iter().map(|(name, coll)| (name.clone(), Arc::new(coll.copy())));
        let collections = RwLock::new(copies.collect());
        Ok(Shell { collections, log: Mutex::new(log), stats: self.stats.copy(), snapshot: None })
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::mmapv1::MmapV1Engine;
    use super::wiredtiger::WiredTigerEngine;
    use super::*;

    /// How many writers wait for the lock of `shell`'s collection `name`.
    fn queued<C: ShellCollection>(shell: &Shell<C>, name: &str) -> u64 {
        shell.collections.read().get(name).map_or(0, |coll| coll.lock().queued())
    }

    /// Runs `test` on a new in-memory engine of each kind, with a count of
    /// the writers queued on its collection "c".
    fn on_each_engine(test: impl Fn(EngineKind, &dyn StorageEngine, &dyn Fn() -> u64)) {
        let wt = WiredTigerEngine::open(DbConfig::in_memory(EngineKind::WiredTiger)).unwrap();
        test(EngineKind::WiredTiger, &wt, &|| queued(&wt.shell, "c"));
        let mm = MmapV1Engine::open(DbConfig::in_memory(EngineKind::MmapV1)).unwrap();
        test(EngineKind::MmapV1, &mm, &|| queued(&mm.shell, "c"));
    }

    fn open(config: DbConfig) -> Box<dyn StorageEngine> {
        match config.engine {
            EngineKind::WiredTiger => Box::new(WiredTigerEngine::open(config).unwrap()),
            EngineKind::MmapV1 => Box::new(MmapV1Engine::open(config).unwrap()),
        }
    }

    /// Every record `e.scan` visits in collection "c", copied out.
    fn scanned(e: &dyn StorageEngine, start: &[u8], limit: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut rows = Vec::new();
        e.scan("c", start, limit, &mut |k, v| {
            rows.push((k.to_vec(), v.to_vec()));
            Ok(())
        })
        .unwrap();
        rows
    }

    #[test]
    fn scan_visits_in_key_order_across_lock_holds() {
        on_each_engine(|kind, e, _| {
            for i in 0..600u32 {
                e.insert("c", format!("k{i:04}").as_bytes(), format!("v{i}").as_bytes()).unwrap();
            }
            let rows = scanned(e, b"k0003", usize::MAX);
            assert_eq!(rows.len(), 597, "{kind}: the scan crosses the {SCAN_CHUNK}-entry holds");
            assert_eq!(rows[0].0, b"k0003");
            assert!(rows.windows(2).all(|w| w[0].0 < w[1].0), "{kind}: key order");
            assert_eq!(rows[596].1, b"v599");
            for start in [&b""[..], b"k0003", b"k0400", b"k0599", b"z"] {
                let unbounded = scanned(e, start, usize::MAX);
                let n = unbounded.len();
                for limit in [0, 1, 31, 32, 33, 255, 256, 257, n, n + 1, 10_000, usize::MAX] {
                    let limited = scanned(e, start, limit);
                    let at = format!("{kind}: start {start:?}, limit {limit}");
                    assert_eq!(limited[..], unbounded[..limit.min(n)], "{at}");
                }
            }
            let (scans, mut visits) = (e.stats().scans, 0);
            e.scan("absent", b"", 10, &mut |_, _| {
                visits += 1;
                Ok(())
            })
            .unwrap();
            let counted = (visits, e.stats().scans - scans);
            assert_eq!(counted, (0, 1), "{kind}: a scan of nothing still counts");
        });
    }

    #[test]
    fn a_writer_that_queues_behind_a_scan_gets_in_at_the_next_record() {
        on_each_engine(|kind, e, queued| {
            for i in 0..2000u32 {
                e.insert("c", format!("k{i:04}").as_bytes(), b"v").unwrap();
            }
            let mut keys = Vec::new();
            std::thread::scope(|s| {
                e.scan("c", b"", usize::MAX, &mut |key, _| {
                    if keys.len() == 200 {
                        s.spawn(|| e.insert("c", b"k0200+", b"late").unwrap());
                        // The writer waits for the read lock this hold keeps.
                        while queued() == 0 {
                            std::thread::yield_now();
                        }
                    }
                    keys.push(key.to_vec());
                    Ok(())
                })
                .unwrap();
            });
            assert_eq!(keys[201], b"k0200+", "{kind}: the writer got in before the next record");
            assert_eq!(keys.len(), 2001);
            assert!(keys.windows(2).all(|w| w[0] < w[1]), "{kind}: key order");
        });
    }

    #[test]
    fn get_many_aligns_hits_and_misses() {
        on_each_engine(|kind, e, _| {
            for i in 0..20u32 {
                e.insert("c", format!("k{i:02}").as_bytes(), format!("v{i}").as_bytes()).unwrap();
            }
            let keys: Vec<Vec<u8>> =
                vec![b"k03".to_vec(), b"missing".to_vec(), b"k19".to_vec(), b"k00".to_vec()];
            let got = e.get_many("c", &keys).unwrap();
            assert_eq!(got.len(), 4, "{kind}");
            assert_eq!(got[0].as_deref(), Some(&b"v3"[..]));
            assert!(got[1].is_none(), "{kind}");
            assert_eq!(got[2].as_deref(), Some(&b"v19"[..]));
            assert_eq!(got[3].as_deref(), Some(&b"v0"[..]));
            assert!(e.get_many("absent", &keys).unwrap().iter().all(Option::is_none), "{kind}");
        });
    }

    /// Reopens recover from the log alone, then from a checkpoint and the
    /// log after it. The checkpoint replaces a temp file a failed one left.
    #[test]
    fn durable_roundtrip_with_recovery() {
        for kind in [EngineKind::WiredTiger, EngineKind::MmapV1] {
            let dir =
                std::env::temp_dir().join(format!("minidoc-engine-{kind}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let config = DbConfig::at_dir(kind, &dir);
            let get = |e: &dyn StorageEngine, key: &[u8]| e.get("c", key).unwrap();
            {
                let e = open(config.clone());
                e.insert("c", b"k1", b"v1").unwrap();
                e.insert("c", b"k2", b"v2").unwrap();
                e.update("c", b"k1", b"v1b").unwrap();
                e.delete("c", b"k2").unwrap();
                e.insert("d", b"k", b"dropped").unwrap();
                e.drop_collection("d").unwrap();
            }
            let snapshot = match kind {
                EngineKind::WiredTiger => "wt.checkpoint",
                EngineKind::MmapV1 => "mmapv1.snapshot",
            };
            let tmp = dir.join(snapshot).with_extension("tmp");
            {
                let e = open(config.clone());
                assert_eq!(get(&*e, b"k1").as_deref(), Some(&b"v1b"[..]), "{kind}: from the log");
                assert!(get(&*e, b"k2").is_none(), "{kind}");
                assert_eq!(e.collection_names(), ["c"], "{kind}");
                assert_eq!(e.stats().documents, 1, "{kind}: the drop is recovered");
                std::fs::write(&tmp, Wal::frame_put("c", b"stale", b"left by a failed one"))
                    .unwrap();
                e.checkpoint().unwrap();
                assert!(!tmp.exists(), "{kind}: the checkpoint renamed its temp file");
                e.insert("c", b"k3", b"v3").unwrap(); // lands in the log only
            }
            let e = open(config);
            assert_eq!(get(&*e, b"k1").as_deref(), Some(&b"v1b"[..]), "{kind}: from the snapshot");
            assert!(get(&*e, b"k2").is_none() && get(&*e, b"stale").is_none(), "{kind}");
            assert_eq!(get(&*e, b"k3").as_deref(), Some(&b"v3"[..]), "{kind}: from the log");
            assert_eq!(e.stats().documents, 2, "{kind}");
            drop(e);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

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
