//! The wiredTiger-like storage engine.
//!
//! Models the architecture that lets WiredTiger win the paper's demo on
//! write-heavy, multi-threaded workloads:
//!
//! * **Record-level concurrency.** Each collection keeps a key → record-id
//!   index under a `RwLock` whose critical sections are tiny (pointer
//!   lookup/insert); record payloads live in `latch_shards` independently
//!   locked slab shards, so concurrent updates to different records proceed
//!   in parallel. (Real WiredTiger uses MVCC with hazard pointers; sharded
//!   record latches reproduce the same scaling behaviour.)
//! * **Block compression with a decompressed cache.** Writes are charged
//!   the compression cost and the engine accounts the *compressed* size as
//!   its storage footprint; reads are served from the decompressed
//!   in-memory copy (WiredTiger's block cache), so read latency does not
//!   pay decompression for cache-resident data.
//! * **Out-of-place updates.** An update rewrites the record bytes in its
//!   shard slot; there is no padding, so storage is tight.
//! * **WAL + checkpoints.** Mutations append to a write-ahead log. Log
//!   records are framed (serialized + checksummed) *outside* the log lock
//!   — only the append itself is serialized — so the log does not become
//!   the scaling bottleneck the mmapv1 journal is.
//!
//! An in-memory copy ([`StorageEngine::clone_in_memory`]) copies each
//! collection's key index, its shards' slots and free lists and its next
//! placement. Records are shared through their `Arc`: a write replaces a
//! slot's [`Record`] and never writes into one, so neither copy sees the
//! other's writes.

use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use crate::compress::compress_or_store;
use crate::engine::{
    assert_not_visiting, scan_in_chunks, CollectionLock, EngineStats, SharedBytes, StatCounters,
    StorageEngine, Visitor,
};
use crate::error::{DbError, DbResult};
use crate::wal::{Wal, WalOp};
use crate::DbConfig;

/// A record's identity: shard + slot within the shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RecordId {
    shard: u32,
    slot: u32,
}

/// A cache-resident record: the raw bytes plus the size its compressed
/// block occupies "on disk". The bytes are `Arc`-shared so reads hand out
/// the cache copy without duplicating the payload.
#[derive(Debug, Clone)]
struct Record {
    raw: SharedBytes,
    stored_size: u32,
}

/// One latch shard: an independently locked slab of records.
#[derive(Debug, Default, Clone)]
struct Shard {
    slots: Vec<Option<Record>>,
    free: Vec<u32>,
}

impl Shard {
    fn insert(&mut self, record: Record) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(record);
                slot
            }
            None => {
                self.slots.push(Some(record));
                (self.slots.len() - 1) as u32
            }
        }
    }

    fn remove(&mut self, slot: u32) -> Option<Record> {
        let taken = self.slots.get_mut(slot as usize)?.take();
        if taken.is_some() {
            self.free.push(slot);
        }
        taken
    }
}

/// One collection: a key index plus sharded record storage.
struct WtCollection {
    index: CollectionLock<BTreeMap<Vec<u8>, RecordId>>,
    shards: Vec<Mutex<Shard>>,
    next_shard: AtomicU64,
}

impl WtCollection {
    fn new(shards: usize) -> Self {
        WtCollection {
            index: CollectionLock::new(BTreeMap::new()),
            shards: (0..shards.max(1)).map(|_| Mutex::new(Shard::default())).collect(),
            next_shard: AtomicU64::new(0),
        }
    }

    /// Round-robin shard placement keeps shards balanced under any key
    /// distribution (zipfian included).
    fn place(&self) -> u32 {
        (self.next_shard.fetch_add(1, Ordering::Relaxed) % self.shards.len() as u64) as u32
    }

    /// A copy with the same index, slots, free lists and next placement.
    fn copy(&self) -> WtCollection {
        let index = self.index.read();
        WtCollection {
            index: CollectionLock::new(index.clone()),
            shards: self.shards.iter().map(|shard| Mutex::new(shard.lock().clone())).collect(),
            next_shard: AtomicU64::new(self.next_shard.load(Ordering::Relaxed)),
        }
    }

    fn read_record(&self, id: RecordId) -> Option<Record> {
        let shard = self.shards[id.shard as usize].lock();
        shard.slots.get(id.slot as usize)?.clone()
    }
}

/// The engine.
pub struct WiredTigerEngine {
    collections: RwLock<BTreeMap<String, Arc<WtCollection>>>,
    wal: Mutex<Wal>,
    stats: StatCounters,
    compression: bool,
    latch_shards: usize,
    data_dir: Option<std::path::PathBuf>,
}

impl WiredTigerEngine {
    /// Opens the engine, recovering from checkpoint + WAL when durable.
    pub fn open(config: DbConfig) -> DbResult<Self> {
        let (wal, recovered) = match &config.data_dir {
            Some(dir) => {
                std::fs::create_dir_all(dir)?;
                let checkpoint = dir.join("wt.checkpoint");
                let wal_path = dir.join("wt.wal");
                let mut ops = Wal::replay(&checkpoint)?;
                ops.extend(Wal::replay_and_trim(&wal_path)?);
                let policy = if config.durable_writes {
                    // Group commit: sync every ~32 KiB of log, outside locks.
                    crate::wal::SyncPolicy::GroupCommit { batch_bytes: 32 * 1024 }
                } else {
                    crate::wal::SyncPolicy::Never
                };
                (Wal::open_with_policy(&wal_path, policy)?, ops)
            }
            None => (Wal::in_memory(), Vec::new()),
        };
        let engine = WiredTigerEngine {
            collections: RwLock::new(BTreeMap::new()),
            wal: Mutex::new(wal),
            stats: StatCounters::default(),
            compression: config.compression,
            latch_shards: config.latch_shards.max(1),
            data_dir: config.data_dir.clone(),
        };
        for op in recovered {
            match op {
                WalOp::Put { collection, key, value } => {
                    engine.put_internal(&collection, &key, &value, true, false)?;
                }
                WalOp::Delete { collection, key } => {
                    engine.delete_internal(&collection, &key, false)?;
                }
                WalOp::DropCollection { collection } => {
                    engine.collections.write().remove(&collection);
                }
            }
        }
        Ok(engine)
    }

    fn coll(&self, name: &str) -> Option<Arc<WtCollection>> {
        let coll = self.collections.read().get(name).cloned()?;
        assert_not_visiting(&coll.index, name);
        Some(coll)
    }

    fn coll_or_create(&self, name: &str) -> Arc<WtCollection> {
        if let Some(c) = self.coll(name) {
            return c;
        }
        let mut map = self.collections.write();
        Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(WtCollection::new(self.latch_shards))),
        )
    }

    /// Builds the cache record: the write path pays the block-compression
    /// CPU here (to produce the on-disk block and learn its size).
    fn make_record(&self, value: &[u8]) -> Record {
        let stored_size = if self.compression {
            compress_or_store(value).len() as u32
        } else {
            value.len() as u32 + 1
        };
        Record { raw: SharedBytes::from(value), stored_size }
    }

    /// WAL append of a record framed before taking the log lock, with the
    /// group-commit fsync performed after releasing it, so the log lock is
    /// only ever held for a buffered write.
    fn log_append(&self, framed: &[u8]) -> DbResult<()> {
        let sync_handle = {
            let mut wal = self.wal.lock();
            wal.append_framed(framed)?;
            wal.take_sync_handle()?
        };
        if let Some(file) = sync_handle {
            if let Some(inj) = chronos_util::fail_eval!("minidoc.wal.sync") {
                let msg = match inj {
                    chronos_util::fail::Injected::Error(m) => m,
                    chronos_util::fail::Injected::Torn { .. } => {
                        "wal sync failed: injected torn write".to_string()
                    }
                };
                return Err(DbError::Io(std::io::Error::other(msg)));
            }
            file.sync_data()?;
        }
        Ok(())
    }

    /// Core insert/replace. `allow_replace` selects upsert semantics, `log`
    /// is false during recovery replay.
    fn put_internal(
        &self,
        collection: &str,
        key: &[u8],
        value: &[u8],
        allow_replace: bool,
        log: bool,
    ) -> DbResult<bool> {
        let coll = self.coll_or_create(collection);
        // Fast path for updates: shared index lock only.
        let existing = { coll.index.read().get(key).copied() };
        let replaced = match existing {
            Some(id) => {
                if !allow_replace {
                    return Err(DbError::duplicate(key));
                }
                let record = self.make_record(value);
                let new_stored = record.stored_size as u64;
                let mut shard = coll.shards[id.shard as usize].lock();
                let slot = shard.slots.get_mut(id.slot as usize).and_then(Option::as_mut);
                match slot {
                    Some(old) => {
                        let old_stored = old.stored_size as u64;
                        let old_logical = old.raw.len() as u64;
                        *old = record;
                        drop(shard);
                        StatCounters::sub(&self.stats.stored_bytes, old_stored);
                        StatCounters::add(&self.stats.stored_bytes, new_stored);
                        StatCounters::sub(&self.stats.logical_bytes, old_logical);
                        StatCounters::add(&self.stats.logical_bytes, value.len() as u64);
                        StatCounters::add(&self.stats.inplace_updates, 1);
                    }
                    None => {
                        // Index pointed at a freed slot: lost a race with a
                        // concurrent delete; treat as fresh insert.
                        drop(shard);
                        return self.put_internal(collection, key, value, allow_replace, log);
                    }
                }
                true
            }
            None => {
                let record = self.make_record(value);
                let stored = record.stored_size as u64;
                // Take the index write lock only to publish the pointer.
                let mut index = coll.index.write();
                if index.contains_key(key) {
                    drop(index);
                    if !allow_replace {
                        return Err(DbError::duplicate(key));
                    }
                    return self.put_internal(collection, key, value, allow_replace, log);
                }
                let shard_no = coll.place();
                let slot = {
                    let mut shard = coll.shards[shard_no as usize].lock();
                    shard.insert(record)
                };
                index.insert(key.to_vec(), RecordId { shard: shard_no, slot });
                drop(index);
                StatCounters::add(&self.stats.documents, 1);
                StatCounters::add(&self.stats.logical_bytes, value.len() as u64);
                StatCounters::add(&self.stats.stored_bytes, stored);
                false
            }
        };
        if log {
            self.log_append(&Wal::frame_put(collection, key, value))?;
        }
        Ok(replaced)
    }

    fn delete_internal(&self, collection: &str, key: &[u8], log: bool) -> DbResult<bool> {
        let Some(coll) = self.coll(collection) else { return Ok(false) };
        let id = {
            let mut index = coll.index.write();
            match index.remove(key) {
                Some(id) => id,
                None => return Ok(false),
            }
        };
        let removed = {
            let mut shard = coll.shards[id.shard as usize].lock();
            shard.remove(id.slot)
        };
        if let Some(record) = removed {
            StatCounters::sub(&self.stats.documents, 1);
            StatCounters::sub(&self.stats.stored_bytes, record.stored_size as u64);
            StatCounters::sub(&self.stats.logical_bytes, record.raw.len() as u64);
        }
        if log {
            self.log_append(&Wal::frame(&WalOp::Delete {
                collection: collection.to_string(),
                key: key.to_vec(),
            }))?;
        }
        Ok(true)
    }
}

impl StorageEngine for WiredTigerEngine {
    fn insert(&self, collection: &str, key: &[u8], value: &[u8]) -> DbResult<()> {
        self.put_internal(collection, key, value, false, true)?;
        StatCounters::add(&self.stats.inserts, 1);
        Ok(())
    }

    fn get(&self, collection: &str, key: &[u8]) -> DbResult<Option<SharedBytes>> {
        StatCounters::add(&self.stats.reads, 1);
        let Some(coll) = self.coll(collection) else { return Ok(None) };
        let id = { coll.index.read().get(key).copied() };
        Ok(id.and_then(|id| coll.read_record(id)).map(|r| r.raw))
    }

    fn get_many(&self, collection: &str, keys: &[Vec<u8>]) -> DbResult<Vec<Option<SharedBytes>>> {
        StatCounters::add(&self.stats.reads, keys.len() as u64);
        let mut out = vec![None; keys.len()];
        let Some(coll) = self.coll(collection) else { return Ok(out) };
        // One index read-lock resolves every key to its record id.
        let mut hits: Vec<(usize, RecordId)> = {
            let index = coll.index.read();
            keys.iter().enumerate().filter_map(|(i, k)| index.get(k).map(|&id| (i, id))).collect()
        };
        // Group by shard so each shard latch is taken once per batch.
        hits.sort_unstable_by_key(|&(_, id)| (id.shard, id.slot));
        let mut i = 0;
        while i < hits.len() {
            let shard_no = hits[i].1.shard;
            let shard = coll.shards[shard_no as usize].lock();
            while i < hits.len() && hits[i].1.shard == shard_no {
                let (pos, id) = hits[i];
                out[pos] = shard
                    .slots
                    .get(id.slot as usize)
                    .and_then(Option::as_ref)
                    .map(|r| Arc::clone(&r.raw));
                i += 1;
            }
        }
        Ok(out)
    }

    fn update(&self, collection: &str, key: &[u8], value: &[u8]) -> DbResult<()> {
        let exists =
            self.coll(collection).map(|c| c.index.read().contains_key(key)).unwrap_or(false);
        if !exists {
            return Err(DbError::not_found(key));
        }
        self.put_internal(collection, key, value, true, true)?;
        StatCounters::add(&self.stats.updates, 1);
        Ok(())
    }

    fn upsert(&self, collection: &str, key: &[u8], value: &[u8]) -> DbResult<()> {
        let replaced = self.put_internal(collection, key, value, true, true)?;
        StatCounters::add(if replaced { &self.stats.updates } else { &self.stats.inserts }, 1);
        Ok(())
    }

    fn delete(&self, collection: &str, key: &[u8]) -> DbResult<bool> {
        let existed = self.delete_internal(collection, key, true)?;
        if existed {
            StatCounters::add(&self.stats.deletes, 1);
        }
        Ok(existed)
    }

    fn scan(
        &self,
        collection: &str,
        start_key: &[u8],
        limit: usize,
        visit: &mut Visitor<'_>,
    ) -> DbResult<()> {
        StatCounters::add(&self.stats.scans, 1);
        let Some(coll) = self.coll(collection) else { return Ok(()) };
        scan_in_chunks(&coll.index, start_key, limit, visit, |index, from, visit| {
            for (key, &id) in index.range::<[u8], _>((from, Bound::Unbounded)) {
                // The visitor reads the cache-resident bytes under the
                // record's shard latch. A delete unlinks the key first, so
                // every entry's slot holds its record.
                let shard = coll.shards[id.shard as usize].lock();
                if let Some(record) = shard.slots.get(id.slot as usize).and_then(Option::as_ref) {
                    if !visit(key, &record.raw)? {
                        break;
                    }
                }
            }
            Ok(())
        })
    }

    fn count(&self, collection: &str) -> u64 {
        self.coll(collection).map(|c| c.index.read().len() as u64).unwrap_or(0)
    }

    fn collection_names(&self) -> Vec<String> {
        self.collections.read().keys().cloned().collect()
    }

    fn drop_collection(&self, collection: &str) -> DbResult<()> {
        let removed = self.collections.write().remove(collection);
        if let Some(coll) = removed {
            let index = coll.index.read();
            let mut docs = 0u64;
            let mut stored = 0u64;
            let mut logical = 0u64;
            for (_, &id) in index.iter() {
                if let Some(record) = coll.read_record(id) {
                    docs += 1;
                    stored += record.stored_size as u64;
                    logical += record.raw.len() as u64;
                }
            }
            StatCounters::sub(&self.stats.documents, docs);
            StatCounters::sub(&self.stats.stored_bytes, stored);
            StatCounters::sub(&self.stats.logical_bytes, logical);
            self.log_append(&Wal::frame(&WalOp::DropCollection {
                collection: collection.to_string(),
            }))?;
        }
        Ok(())
    }

    fn stats(&self) -> EngineStats {
        let wal_bytes = self.wal.lock().appended_bytes;
        self.stats.snapshot(wal_bytes)
    }

    fn checkpoint(&self) -> DbResult<()> {
        let Some(dir) = &self.data_dir else { return Ok(()) };
        let path = dir.join("wt.checkpoint");
        let tmp = path.with_extension("tmp");
        {
            let mut snapshot = Wal::open(&tmp, false)?;
            let collections = self.collections.read();
            for (name, coll) in collections.iter() {
                let entries: Vec<(Vec<u8>, RecordId)> = {
                    let index = coll.index.read();
                    index.iter().map(|(k, &id)| (k.clone(), id)).collect()
                };
                for (key, id) in entries {
                    if let Some(record) = coll.read_record(id) {
                        snapshot.append_framed(&Wal::frame_put(name, &key, &record.raw))?;
                    }
                }
            }
        }
        if let Some(inj) = chronos_util::fail_eval!("minidoc.checkpoint.rename") {
            let msg = match inj {
                chronos_util::fail::Injected::Error(m) => m,
                chronos_util::fail::Injected::Torn { .. } => {
                    "checkpoint rename failed: injected torn write".to_string()
                }
            };
            return Err(DbError::Io(std::io::Error::other(msg)));
        }
        std::fs::rename(&tmp, &path)?;
        self.wal.lock().truncate()?;
        Ok(())
    }

    fn clone_in_memory(&self) -> DbResult<Arc<dyn StorageEngine>> {
        let wal = self.wal.lock().clone_in_memory().ok_or_else(DbError::durable_copy)?;
        let collections = self
            .collections
            .read()
            .iter()
            .map(|(name, coll)| (name.clone(), Arc::new(coll.copy())))
            .collect();
        Ok(Arc::new(WiredTigerEngine {
            collections: RwLock::new(collections),
            wal: Mutex::new(wal),
            stats: self.stats.copy(),
            compression: self.compression,
            latch_shards: self.latch_shards,
            data_dir: None,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SCAN_CHUNK;
    use crate::EngineKind;

    fn engine() -> WiredTigerEngine {
        WiredTigerEngine::open(DbConfig::in_memory(EngineKind::WiredTiger)).unwrap()
    }

    #[test]
    fn compression_reduces_stored_bytes() {
        let e = engine();
        let compressible = b"abab".repeat(100);
        e.insert("c", b"k", &compressible).unwrap();
        let stats = e.stats();
        assert_eq!(stats.logical_bytes, 400);
        assert!(stats.stored_bytes < 100, "stored {} bytes", stats.stored_bytes);
    }

    #[test]
    fn no_compression_mode_stores_raw() {
        let config = DbConfig::in_memory(EngineKind::WiredTiger).with_compression(false);
        let e = WiredTigerEngine::open(config).unwrap();
        e.insert("c", b"k", &b"abab".repeat(100)).unwrap();
        assert_eq!(e.stats().stored_bytes, 401); // payload + tag byte
    }

    #[test]
    fn reads_return_raw_bytes_from_cache() {
        let e = engine();
        let payload = b"zzzz".repeat(64);
        e.insert("c", b"k", &payload).unwrap();
        assert_eq!(e.get("c", b"k").unwrap().unwrap().to_vec(), payload);
    }

    #[test]
    fn update_replaces_payload_and_stats() {
        let e = engine();
        e.insert("c", b"k", b"short").unwrap();
        e.update("c", b"k", &b"x".repeat(1000)).unwrap();
        assert_eq!(e.get("c", b"k").unwrap().unwrap().to_vec(), b"x".repeat(1000));
        assert_eq!(e.stats().logical_bytes, 1000);
        assert_eq!(e.stats().documents, 1);
    }

    #[test]
    fn deleted_slots_are_reused() {
        let e = engine();
        e.insert("c", b"a", b"payload-a").unwrap();
        e.delete("c", b"a").unwrap();
        e.insert("c", b"b", b"payload-b").unwrap();
        assert_eq!(e.stats().documents, 1);
        assert_eq!(e.get("c", b"b").unwrap().unwrap().to_vec(), b"payload-b");
    }

    #[test]
    fn concurrent_disjoint_updates() {
        let e = Arc::new(engine());
        for i in 0..64u32 {
            e.insert("c", format!("k{i:02}").as_bytes(), b"init").unwrap();
        }
        chronos_util::pool::scoped_indexed(8, |t| {
            for round in 0..50u32 {
                let key = format!("k{:02}", (t as u32 * 8 + round % 8) % 64);
                e.update("c", key.as_bytes(), format!("t{t}-r{round}").as_bytes()).unwrap();
            }
        });
        assert_eq!(e.stats().documents, 64);
        assert_eq!(e.stats().updates, 400);
    }

    #[test]
    fn durable_roundtrip_with_recovery() {
        let dir = std::env::temp_dir().join(format!("minidoc-wt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = DbConfig::at_dir(EngineKind::WiredTiger, &dir);
        {
            let e = WiredTigerEngine::open(config.clone()).unwrap();
            e.insert("c", b"k1", b"v1").unwrap();
            e.insert("c", b"k2", b"v2").unwrap();
            e.update("c", b"k1", b"v1b").unwrap();
            e.delete("c", b"k2").unwrap();
            e.checkpoint().unwrap();
            e.insert("c", b"k3", b"v3").unwrap(); // lands in the WAL only
        }
        {
            let e = WiredTigerEngine::open(config).unwrap();
            assert_eq!(e.get("c", b"k1").unwrap().unwrap().to_vec(), b"v1b");
            assert!(e.get("c", b"k2").unwrap().is_none());
            assert_eq!(e.get("c", b"k3").unwrap().unwrap().to_vec(), b"v3");
            assert_eq!(e.stats().documents, 2);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Every record `e.scan` visits, copied out.
    fn scanned(e: &WiredTigerEngine, start: &[u8], limit: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
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
        let e = engine();
        for i in 0..600u32 {
            e.insert("c", format!("k{i:04}").as_bytes(), format!("v{i}").as_bytes()).unwrap();
        }
        let rows = scanned(&e, b"k0003", usize::MAX);
        assert_eq!(rows.len(), 597, "the scan crosses the {SCAN_CHUNK}-entry lock holds");
        assert_eq!(rows[0].0, b"k0003");
        assert!(rows.windows(2).all(|w| w[0].0 < w[1].0), "key order");
        assert_eq!(rows[596].1, b"v599");
        for start in [&b""[..], b"k0003", b"k0400", b"k0599", b"z"] {
            let unbounded = scanned(&e, start, usize::MAX);
            let n = unbounded.len();
            for limit in [0, 1, 31, 32, 33, 255, 256, 257, n, n + 1, 10_000, usize::MAX] {
                let limited = scanned(&e, start, limit);
                assert_eq!(
                    limited[..],
                    unbounded[..limit.min(n)],
                    "start {start:?}, limit {limit}"
                );
            }
        }
        let (scans, mut visits) = (e.stats().scans, 0);
        e.scan("absent", b"", 10, &mut |_, _| {
            visits += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!((visits, e.stats().scans - scans), (0, 1), "a scan of nothing still counts");
    }

    #[test]
    fn a_writer_that_queues_behind_a_scan_gets_in_at_the_next_record() {
        let e = engine();
        for i in 0..2000u32 {
            e.insert("c", format!("k{i:04}").as_bytes(), b"v").unwrap();
        }
        let coll = e.coll("c").unwrap();
        let mut keys = Vec::new();
        std::thread::scope(|s| {
            e.scan("c", b"", usize::MAX, &mut |key, _| {
                if keys.len() == 200 {
                    s.spawn(|| e.insert("c", b"k0200+", b"late").unwrap());
                    // The writer waits for the read lock this hold keeps.
                    while coll.index.queued() == 0 {
                        std::thread::yield_now();
                    }
                }
                keys.push(key.to_vec());
                Ok(())
            })
            .unwrap();
        });
        assert_eq!(keys[201], b"k0200+", "the writer got in before the scan's next record");
        assert_eq!(keys.len(), 2001);
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "key order");
    }

    #[test]
    fn get_many_aligns_hits_and_misses() {
        let e = engine();
        for i in 0..20u32 {
            e.insert("c", format!("k{i:02}").as_bytes(), format!("v{i}").as_bytes()).unwrap();
        }
        let keys: Vec<Vec<u8>> =
            vec![b"k03".to_vec(), b"missing".to_vec(), b"k19".to_vec(), b"k00".to_vec()];
        let got = e.get_many("c", &keys).unwrap();
        assert_eq!(got.len(), 4);
        assert_eq!(got[0].as_deref(), Some(&b"v3"[..]));
        assert!(got[1].is_none());
        assert_eq!(got[2].as_deref(), Some(&b"v19"[..]));
        assert_eq!(got[3].as_deref(), Some(&b"v0"[..]));
        assert!(e.get_many("absent", &keys).unwrap().iter().all(Option::is_none));
    }

    #[test]
    fn stored_size_tracks_compressibility() {
        let e = engine();
        // Compressible record: stored << logical.
        e.insert("c", b"a", &b"ab".repeat(500)).unwrap();
        let after_a = e.stats().stored_bytes;
        assert!(after_a < 200);
        // Incompressible record: stored ~= logical (+ tag).
        let mut x: u64 = 99;
        let noise: Vec<u8> = (0..1000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        e.insert("c", b"b", &noise).unwrap();
        let delta = e.stats().stored_bytes - after_a;
        assert!((1000..=1010).contains(&delta), "delta {delta}");
    }
}
