//! The mmapv1-like storage engine.
//!
//! Models the architecture of MongoDB's original memory-mapped engine:
//!
//! * **Collection-level locking.** One `RwLock` guards each collection;
//!   every write holds it exclusively for the whole operation — allocation,
//!   record copy, index maintenance *and* the journal append. This is the
//!   property that makes mmapv1 plateau under concurrent writers in the
//!   paper's demo.
//! * **Extent allocation with power-of-2 padding.** Records live in slots
//!   whose size is the next power of two of the record length (MongoDB's
//!   "powerOf2Sizes" allocation), so grown updates usually fit in place.
//! * **In-place updates.** An update that fits its slot overwrites the
//!   bytes; one that does not frees the slot to a size-classed free list and
//!   moves the record (tracked in the stats as `record_moves`).
//! * **No compression.** Stored bytes ≈ padded record bytes, which is why
//!   this engine's storage footprint exceeds wiredTiger's.
//!
//! An in-memory copy ([`StorageEngine::clone_in_memory`]) copies each
//! collection's extents, index, free lists and tail pointer, so the copy
//! places, pads and moves records exactly as the original would.

use std::collections::{BTreeMap, HashMap};
use std::ops::Bound;
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use crate::engine::{
    assert_not_visiting, scan_in_chunks, CollectionLock, EngineStats, SharedBytes, StatCounters,
    StorageEngine, Visitor,
};
use crate::error::{DbError, DbResult};
use crate::wal::{Wal, WalOp};
use crate::DbConfig;

/// Extent size: 1 MiB slabs (MongoDB grew extents up to 2 GB; a fixed size
/// keeps allocation deterministic for benchmarks).
const EXTENT_SIZE: usize = 1 << 20;
/// Smallest slot handed out.
const MIN_SLOT: u32 = 32;

/// Location of a record slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RecordLoc {
    extent: u32,
    offset: u32,
    slot_size: u32,
}

/// One collection's memory-mapped-style storage.
#[derive(Debug, Default, Clone)]
struct MmapCollection {
    extents: Vec<Vec<u8>>,
    index: BTreeMap<Vec<u8>, RecordLoc>,
    /// Freed slots by slot size (size classes are powers of two).
    free_lists: HashMap<u32, Vec<RecordLoc>>,
    /// Bump pointer into the last extent.
    tail_extent: usize,
    tail_offset: usize,
}

impl MmapCollection {
    fn slot_size_for(len: usize) -> u32 {
        let needed = (len + 4).max(MIN_SLOT as usize);
        needed.next_power_of_two() as u32
    }

    fn allocate(&mut self, slot_size: u32) -> RecordLoc {
        if let Some(free) = self.free_lists.get_mut(&slot_size) {
            if let Some(loc) = free.pop() {
                return loc;
            }
        }
        let slot = slot_size as usize;
        if self.extents.is_empty() || self.tail_offset + slot > self.extents[self.tail_extent].len()
        {
            // Oversized records get a dedicated extent.
            let size = EXTENT_SIZE.max(slot);
            self.extents.push(vec![0u8; size]);
            self.tail_extent = self.extents.len() - 1;
            self.tail_offset = 0;
        }
        let loc = RecordLoc {
            extent: self.tail_extent as u32,
            offset: self.tail_offset as u32,
            slot_size,
        };
        self.tail_offset += slot;
        loc
    }

    fn write_record(&mut self, loc: RecordLoc, value: &[u8]) {
        let extent = &mut self.extents[loc.extent as usize];
        let start = loc.offset as usize;
        extent[start..start + 4].copy_from_slice(&(value.len() as u32).to_le_bytes());
        extent[start + 4..start + 4 + value.len()].copy_from_slice(value);
    }

    /// The record payload borrowed straight out of its extent.
    fn record_slice(&self, loc: RecordLoc) -> &[u8] {
        let extent = &self.extents[loc.extent as usize];
        let start = loc.offset as usize;
        let len = u32::from_le_bytes(extent[start..start + 4].try_into().unwrap()) as usize;
        &extent[start + 4..start + 4 + len]
    }

    fn free(&mut self, loc: RecordLoc) {
        self.free_lists.entry(loc.slot_size).or_default().push(loc);
    }
}

/// The engine: a map of independently locked collections plus one global
/// journal (mmapv1 had a single journal per dbpath).
pub struct MmapV1Engine {
    collections: RwLock<BTreeMap<String, Arc<CollectionLock<MmapCollection>>>>,
    journal: Mutex<Wal>,
    stats: StatCounters,
}

impl MmapV1Engine {
    /// Opens the engine, replaying the snapshot + journal when `config`
    /// points at a data directory.
    pub fn open(config: DbConfig) -> DbResult<Self> {
        let (journal, recovered) = match &config.data_dir {
            Some(dir) => {
                std::fs::create_dir_all(dir)?;
                let snapshot = dir.join("mmapv1.snapshot");
                let journal_path = dir.join("mmapv1.journal");
                let mut ops = Wal::replay(&snapshot)?;
                ops.extend(Wal::replay_and_trim(&journal_path)?);
                (Wal::open(&journal_path, config.durable_writes)?, ops)
            }
            None => (Wal::in_memory(), Vec::new()),
        };
        let engine = MmapV1Engine {
            collections: RwLock::new(BTreeMap::new()),
            journal: Mutex::new(journal),
            stats: StatCounters::default(),
        };
        for op in recovered {
            match op {
                WalOp::Put { collection, key, value } => {
                    engine.apply_put(&collection, &key, &value)?;
                }
                WalOp::Delete { collection, key } => {
                    engine.apply_delete(&collection, &key);
                }
                WalOp::DropCollection { collection } => {
                    engine.collections.write().remove(&collection);
                }
            }
        }
        Ok(engine)
    }

    fn coll(&self, name: &str) -> Option<Arc<CollectionLock<MmapCollection>>> {
        let coll = self.collections.read().get(name).cloned()?;
        assert_not_visiting(&*coll, name);
        Some(coll)
    }

    fn coll_or_create(&self, name: &str) -> Arc<CollectionLock<MmapCollection>> {
        if let Some(c) = self.coll(name) {
            return c;
        }
        let mut map = self.collections.write();
        Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(CollectionLock::new(MmapCollection::default()))),
        )
    }

    /// Raw upsert used during recovery (no journaling, but stats counted so
    /// `documents`/`stored_bytes` are correct after restart).
    fn apply_put(&self, collection: &str, key: &[u8], value: &[u8]) -> DbResult<()> {
        let coll = self.coll_or_create(collection);
        let mut c = coll.write();
        self.put_locked(&mut c, key, value, true)?;
        Ok(())
    }

    fn apply_delete(&self, collection: &str, key: &[u8]) {
        if let Some(coll) = self.coll(collection) {
            let mut c = coll.write();
            if let Some(loc) = c.index.remove(key) {
                let len = c.record_slice(loc).len();
                c.free(loc);
                StatCounters::sub(&self.stats.documents, 1);
                StatCounters::sub(&self.stats.logical_bytes, len as u64);
                StatCounters::sub(&self.stats.stored_bytes, loc.slot_size as u64);
            }
        }
    }

    /// Insert-or-replace under an already-held write lock. `allow_replace`
    /// distinguishes upsert/recovery from strict insert.
    fn put_locked(
        &self,
        c: &mut MmapCollection,
        key: &[u8],
        value: &[u8],
        allow_replace: bool,
    ) -> DbResult<bool> {
        if let Some(inj) = chronos_util::fail_eval!("minidoc.extent.write") {
            let msg = match inj {
                chronos_util::fail::Injected::Error(m) => m,
                chronos_util::fail::Injected::Torn { .. } => {
                    "extent write failed: injected torn write".to_string()
                }
            };
            return Err(DbError::Io(std::io::Error::other(msg)));
        }
        if let Some(&loc) = c.index.get(key) {
            if !allow_replace {
                return Err(DbError::duplicate(key));
            }
            let old_len = c.record_slice(loc).len() as u64;
            let replaced = self.update_in_slot(c, key.to_vec(), loc, value);
            StatCounters::sub(&self.stats.logical_bytes, old_len);
            StatCounters::add(&self.stats.logical_bytes, value.len() as u64);
            if !replaced {
                // moved: stored bytes adjusted inside update_in_slot
            }
            return Ok(true);
        }
        let slot_size = MmapCollection::slot_size_for(value.len());
        let loc = c.allocate(slot_size);
        c.write_record(loc, value);
        c.index.insert(key.to_vec(), loc);
        StatCounters::add(&self.stats.documents, 1);
        StatCounters::add(&self.stats.logical_bytes, value.len() as u64);
        StatCounters::add(&self.stats.stored_bytes, slot_size as u64);
        Ok(false)
    }

    /// Writes `value` for `key` whose current slot is `loc`; in place when it
    /// fits, otherwise move. Returns `true` for in-place.
    fn update_in_slot(
        &self,
        c: &mut MmapCollection,
        key: Vec<u8>,
        loc: RecordLoc,
        value: &[u8],
    ) -> bool {
        if value.len() + 4 <= loc.slot_size as usize {
            c.write_record(loc, value);
            StatCounters::add(&self.stats.inplace_updates, 1);
            true
        } else {
            c.free(loc);
            let slot_size = MmapCollection::slot_size_for(value.len());
            let new_loc = c.allocate(slot_size);
            c.write_record(new_loc, value);
            c.index.insert(key, new_loc);
            StatCounters::sub(&self.stats.stored_bytes, loc.slot_size as u64);
            StatCounters::add(&self.stats.stored_bytes, slot_size as u64);
            StatCounters::add(&self.stats.record_moves, 1);
            false
        }
    }

    /// Journal framing and append performed **while the collection write
    /// lock is held** (the defining serialization cost of this engine).
    fn journal_put(&self, collection: &str, key: &[u8], value: &[u8]) -> DbResult<()> {
        let mut journal = self.journal.lock();
        journal.append_framed(&Wal::frame_put(collection, key, value))
    }
}

impl StorageEngine for MmapV1Engine {
    fn insert(&self, collection: &str, key: &[u8], value: &[u8]) -> DbResult<()> {
        let coll = self.coll_or_create(collection);
        let mut c = coll.write();
        if c.index.contains_key(key) {
            return Err(DbError::duplicate(key));
        }
        self.put_locked(&mut c, key, value, false)?;
        self.journal_put(collection, key, value)?;
        drop(c);
        StatCounters::add(&self.stats.inserts, 1);
        Ok(())
    }

    fn get(&self, collection: &str, key: &[u8]) -> DbResult<Option<SharedBytes>> {
        StatCounters::add(&self.stats.reads, 1);
        let Some(coll) = self.coll(collection) else { return Ok(None) };
        let c = coll.read();
        Ok(c.index.get(key).map(|&loc| SharedBytes::from(c.record_slice(loc))))
    }

    fn get_many(&self, collection: &str, keys: &[Vec<u8>]) -> DbResult<Vec<Option<SharedBytes>>> {
        StatCounters::add(&self.stats.reads, keys.len() as u64);
        let mut out = vec![None; keys.len()];
        let Some(coll) = self.coll(collection) else { return Ok(out) };
        // One read-lock hold for the whole batch; copies happen in
        // (extent, offset) order so extent memory is walked sequentially.
        let c = coll.read();
        let mut hits: Vec<(usize, RecordLoc)> = keys
            .iter()
            .enumerate()
            .filter_map(|(i, k)| c.index.get(k).map(|&loc| (i, loc)))
            .collect();
        hits.sort_unstable_by_key(|&(_, loc)| (loc.extent, loc.offset));
        for (pos, loc) in hits {
            out[pos] = Some(SharedBytes::from(c.record_slice(loc)));
        }
        Ok(out)
    }

    fn update(&self, collection: &str, key: &[u8], value: &[u8]) -> DbResult<()> {
        let coll = self.coll(collection).ok_or_else(|| DbError::not_found(key))?;
        let mut c = coll.write();
        let &loc = c.index.get(key).ok_or_else(|| DbError::not_found(key))?;
        let old_len = c.record_slice(loc).len() as u64;
        self.update_in_slot(&mut c, key.to_vec(), loc, value);
        StatCounters::sub(&self.stats.logical_bytes, old_len);
        StatCounters::add(&self.stats.logical_bytes, value.len() as u64);
        self.journal_put(collection, key, value)?;
        drop(c);
        StatCounters::add(&self.stats.updates, 1);
        Ok(())
    }

    fn upsert(&self, collection: &str, key: &[u8], value: &[u8]) -> DbResult<()> {
        let coll = self.coll_or_create(collection);
        let mut c = coll.write();
        let replaced = self.put_locked(&mut c, key, value, true)?;
        self.journal_put(collection, key, value)?;
        drop(c);
        StatCounters::add(if replaced { &self.stats.updates } else { &self.stats.inserts }, 1);
        Ok(())
    }

    fn delete(&self, collection: &str, key: &[u8]) -> DbResult<bool> {
        let Some(coll) = self.coll(collection) else { return Ok(false) };
        let mut c = coll.write();
        let Some(loc) = c.index.remove(key) else { return Ok(false) };
        let len = c.record_slice(loc).len();
        c.free(loc);
        self.journal
            .lock()
            .append(&WalOp::Delete { collection: collection.to_string(), key: key.to_vec() })?;
        drop(c);
        StatCounters::sub(&self.stats.documents, 1);
        StatCounters::sub(&self.stats.logical_bytes, len as u64);
        StatCounters::sub(&self.stats.stored_bytes, loc.slot_size as u64);
        StatCounters::add(&self.stats.deletes, 1);
        Ok(true)
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
        // Each record is copied out of its extent, as mmapv1 does, into one
        // buffer that serves the whole scan.
        let mut copy = Vec::new();
        scan_in_chunks(&coll, start_key, limit, visit, |c, from, visit| {
            for (key, &loc) in c.index.range::<[u8], _>((from, Bound::Unbounded)) {
                copy.clear();
                copy.extend_from_slice(c.record_slice(loc));
                if !visit(key, &copy)? {
                    break;
                }
            }
            Ok(())
        })
    }

    fn count(&self, collection: &str) -> u64 {
        self.coll(collection).map(|c| c.read().index.len() as u64).unwrap_or(0)
    }

    fn collection_names(&self) -> Vec<String> {
        self.collections.read().keys().cloned().collect()
    }

    fn drop_collection(&self, collection: &str) -> DbResult<()> {
        let removed = self.collections.write().remove(collection);
        if let Some(coll) = removed {
            let c = coll.read();
            let mut docs = 0u64;
            let mut logical = 0u64;
            let mut stored = 0u64;
            for (_, &loc) in c.index.iter() {
                docs += 1;
                logical += c.record_slice(loc).len() as u64;
                stored += loc.slot_size as u64;
            }
            StatCounters::sub(&self.stats.documents, docs);
            StatCounters::sub(&self.stats.logical_bytes, logical);
            StatCounters::sub(&self.stats.stored_bytes, stored);
            self.journal
                .lock()
                .append(&WalOp::DropCollection { collection: collection.to_string() })?;
        }
        Ok(())
    }

    fn stats(&self) -> EngineStats {
        let wal_bytes = self.journal.lock().appended_bytes;
        self.stats.snapshot(wal_bytes)
    }

    fn checkpoint(&self) -> DbResult<()> {
        let mut journal = self.journal.lock();
        let Some(path) = journal_snapshot_path(&journal) else {
            return Ok(()); // in-memory: nothing to do
        };
        // Write all live records as a fresh snapshot, then truncate the
        // journal. Collections are read-locked one at a time.
        let tmp = path.with_extension("tmp");
        {
            let mut snapshot = Wal::open(&tmp, false)?;
            let collections = self.collections.read();
            for (name, coll) in collections.iter() {
                let c = coll.read();
                for (key, &loc) in c.index.iter() {
                    snapshot.append_framed(&Wal::frame_put(name, key, c.record_slice(loc)))?;
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
        journal.truncate()?;
        Ok(())
    }

    fn clone_in_memory(&self) -> DbResult<Arc<dyn StorageEngine>> {
        let journal = self.journal.lock().clone_in_memory().ok_or_else(DbError::durable_copy)?;
        let collections = self
            .collections
            .read()
            .iter()
            .map(|(name, coll)| (name.clone(), Arc::new(CollectionLock::new(coll.read().clone()))))
            .collect();
        Ok(Arc::new(MmapV1Engine {
            collections: RwLock::new(collections),
            journal: Mutex::new(journal),
            stats: self.stats.copy(),
        }))
    }
}

/// Derives the snapshot path from the journal's path (`None` in memory).
fn journal_snapshot_path(journal: &Wal) -> Option<std::path::PathBuf> {
    journal.path().map(|p| p.with_file_name("mmapv1.snapshot"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SCAN_CHUNK;
    use crate::EngineKind;

    fn engine() -> MmapV1Engine {
        MmapV1Engine::open(DbConfig::in_memory(EngineKind::MmapV1)).unwrap()
    }

    #[test]
    fn slot_sizes_are_powers_of_two() {
        assert_eq!(MmapCollection::slot_size_for(0), 32);
        assert_eq!(MmapCollection::slot_size_for(28), 32);
        assert_eq!(MmapCollection::slot_size_for(29), 64);
        assert_eq!(MmapCollection::slot_size_for(100), 128);
        assert_eq!(MmapCollection::slot_size_for(1000), 1024);
    }

    #[test]
    fn freed_slots_are_reused() {
        let e = engine();
        e.insert("c", b"a", &[1u8; 100]).unwrap();
        let stored_before = e.stats().stored_bytes;
        e.delete("c", b"a").unwrap();
        e.insert("c", b"b", &[2u8; 100]).unwrap();
        assert_eq!(e.stats().stored_bytes, stored_before, "same size class reuses the slot");
        let coll = e.coll("c").unwrap();
        let c = coll.read();
        assert_eq!(c.extents.len(), 1);
        assert_eq!(c.tail_offset, 128, "only one slot ever bump-allocated");
    }

    #[test]
    fn inplace_update_when_fits() {
        let e = engine();
        e.insert("c", b"k", &[1u8; 100]).unwrap();
        e.update("c", b"k", &[2u8; 120]).unwrap(); // still fits 128-slot
        let stats = e.stats();
        assert_eq!(stats.inplace_updates, 1);
        assert_eq!(stats.record_moves, 0);
        assert_eq!(e.get("c", b"k").unwrap().unwrap().to_vec(), vec![2u8; 120]);
    }

    #[test]
    fn move_when_record_outgrows_slot() {
        let e = engine();
        e.insert("c", b"k", &[1u8; 100]).unwrap();
        e.update("c", b"k", &[2u8; 300]).unwrap();
        let stats = e.stats();
        assert_eq!(stats.record_moves, 1);
        assert_eq!(e.get("c", b"k").unwrap().unwrap().to_vec(), vec![2u8; 300]);
    }

    #[test]
    fn oversized_records_get_dedicated_extents() {
        let e = engine();
        let big = vec![7u8; 3 * EXTENT_SIZE];
        e.insert("c", b"big", &big).unwrap();
        assert_eq!(e.get("c", b"big").unwrap().unwrap().to_vec(), big);
    }

    #[test]
    fn durable_roundtrip_with_recovery() {
        let dir = std::env::temp_dir().join(format!("minidoc-mmap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = DbConfig::at_dir(EngineKind::MmapV1, &dir);
        {
            let e = MmapV1Engine::open(config.clone()).unwrap();
            e.insert("c", b"k1", b"v1").unwrap();
            e.insert("c", b"k2", b"v2").unwrap();
            e.update("c", b"k1", b"v1-new").unwrap();
            e.delete("c", b"k2").unwrap();
        }
        {
            let e = MmapV1Engine::open(config.clone()).unwrap();
            assert_eq!(e.get("c", b"k1").unwrap().unwrap().to_vec(), b"v1-new");
            assert!(e.get("c", b"k2").unwrap().is_none());
            assert_eq!(e.stats().documents, 1);
            e.checkpoint().unwrap();
        }
        {
            // After checkpoint the journal is empty but the snapshot holds.
            let e = MmapV1Engine::open(config).unwrap();
            assert_eq!(e.get("c", b"k1").unwrap().unwrap().to_vec(), b"v1-new");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Every record `e.scan` visits, copied out.
    fn scanned(e: &MmapV1Engine, start: &[u8], limit: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
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
                    while coll.queued() == 0 {
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
    fn concurrent_readers_do_not_block() {
        let e = Arc::new(engine());
        for i in 0..100u32 {
            e.insert("c", format!("k{i:03}").as_bytes(), &i.to_le_bytes()).unwrap();
        }
        let hits = chronos_util::pool::scoped_indexed(8, |t| {
            let mut hits = 0;
            for i in 0..100u32 {
                let key = format!("k{:03}", (i + t as u32) % 100);
                if e.get("c", key.as_bytes()).unwrap().is_some() {
                    hits += 1;
                }
            }
            hits
        });
        assert!(hits.into_iter().all(|h| h == 100));
    }
}
