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

use crate::engine::{
    scan_in_chunks, CollectionLock, EngineStats, Put, RecordVisitor, SharedBytes, Shell,
    ShellCollection, StatCounters, StorageEngine, Visitor,
};
use crate::error::{DbError, DbResult};
use crate::wal::{SyncPolicy, Wal, WalOp};
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
pub(super) struct MmapCollection {
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

impl ShellCollection for CollectionLock<MmapCollection> {
    type Locked = MmapCollection;

    fn lock(&self) -> &Self {
        self
    }

    fn records(&self, c: &MmapCollection, f: &mut RecordVisitor<'_>) -> DbResult<()> {
        c.index.iter().try_for_each(|(key, &loc)| f(key, c.record_slice(loc), loc.slot_size as u64))
    }

    fn copy(&self) -> Self {
        CollectionLock::new(self.read().clone())
    }
}

/// The engine: a map of independently locked collections plus one global
/// journal (mmapv1 had a single journal per dbpath).
pub struct MmapV1Engine {
    pub(super) shell: Shell<CollectionLock<MmapCollection>>,
}

impl MmapV1Engine {
    /// Opens the engine, replaying the snapshot + journal when `config`
    /// points at a data directory.
    pub fn open(config: DbConfig) -> DbResult<Self> {
        let files = ["mmapv1.snapshot", "mmapv1.journal"];
        let (shell, recovered) = Shell::open(&config, files, SyncPolicy::EveryAppend)?;
        let engine = MmapV1Engine { shell };
        engine.shell.recover(recovered, |collection, key, value| match value {
            Some(value) => engine.put(collection, key, value, Put::Upsert, false),
            None => engine.remove(collection, key, false).map(drop),
        })?;
        Ok(engine)
    }

    /// Writes `value` under `key` with the collection's write lock held
    /// for the whole write: the slot, the record copy, the index and, when
    /// `log` (not in recovery), the framed journal append, the defining
    /// serialization cost of this engine. A record that fits its slot is
    /// overwritten in place, one that does not moves.
    fn put(&self, collection: &str, key: &[u8], value: &[u8], how: Put, log: bool) -> DbResult<()> {
        let coll = match how {
            Put::Update => self.shell.get(collection).ok_or_else(|| DbError::not_found(key))?,
            Put::Insert | Put::Upsert => self
                .shell
                .get_or_create(collection, || CollectionLock::new(MmapCollection::default())),
        };
        let mut guard = coll.write();
        let c = &mut *guard;
        let old = c.index.get(key).copied();
        match (how, old) {
            (Put::Insert, Some(_)) => return Err(DbError::duplicate(key)),
            (Put::Update, None) => return Err(DbError::not_found(key)),
            _ => {}
        }
        if let Some(inj) = chronos_util::fail_eval!("minidoc.extent.write") {
            return Err(DbError::injected(inj, "extent write"));
        }
        let stats = &self.shell.stats;
        let slot_size = MmapCollection::slot_size_for(value.len());
        match old {
            Some(loc) if value.len() + 4 <= loc.slot_size as usize => {
                let logical = value.len() as i64 - c.record_slice(loc).len() as i64;
                c.write_record(loc, value);
                stats.shift(0, logical, 0);
                StatCounters::add(&stats.inplace_updates, 1);
            }
            Some(loc) => {
                let logical = value.len() as i64 - c.record_slice(loc).len() as i64;
                c.free(loc);
                let new_loc = c.allocate(slot_size);
                c.write_record(new_loc, value);
                c.index.insert(key.to_vec(), new_loc);
                stats.shift(0, logical, slot_size as i64 - loc.slot_size as i64);
                StatCounters::add(&stats.record_moves, 1);
            }
            None => {
                let loc = c.allocate(slot_size);
                c.write_record(loc, value);
                c.index.insert(key.to_vec(), loc);
                stats.shift(1, value.len() as i64, slot_size as i64);
            }
        }
        if log {
            self.shell.log_append(&Wal::frame_put(collection, key, value))?;
            self.shell.stats.count_put(old.is_some());
        }
        Ok(())
    }

    /// Removes `key` under the collection's write lock, journaling the
    /// delete under it when `log` (not in recovery). Returns whether it
    /// existed.
    fn remove(&self, collection: &str, key: &[u8], log: bool) -> DbResult<bool> {
        let Some(coll) = self.shell.get(collection) else { return Ok(false) };
        let mut c = coll.write();
        let Some(loc) = c.index.remove(key) else { return Ok(false) };
        let len = c.record_slice(loc).len() as i64;
        c.free(loc);
        self.shell.stats.shift(-1, -len, -(loc.slot_size as i64));
        if log {
            let delete = WalOp::Delete { collection: collection.to_string(), key: key.to_vec() };
            self.shell.log_append(&Wal::frame(&delete))?;
            StatCounters::add(&self.shell.stats.deletes, 1);
        }
        Ok(true)
    }
}

impl StorageEngine for MmapV1Engine {
    fn insert(&self, collection: &str, key: &[u8], value: &[u8]) -> DbResult<()> {
        self.put(collection, key, value, Put::Insert, true)
    }

    fn get(&self, collection: &str, key: &[u8]) -> DbResult<Option<SharedBytes>> {
        StatCounters::add(&self.shell.stats.reads, 1);
        let Some(coll) = self.shell.get(collection) else { return Ok(None) };
        let c = coll.read();
        Ok(c.index.get(key).map(|&loc| SharedBytes::from(c.record_slice(loc))))
    }

    fn get_many(&self, collection: &str, keys: &[Vec<u8>]) -> DbResult<Vec<Option<SharedBytes>>> {
        StatCounters::add(&self.shell.stats.reads, keys.len() as u64);
        let mut out = vec![None; keys.len()];
        let Some(coll) = self.shell.get(collection) else { return Ok(out) };
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
        self.put(collection, key, value, Put::Update, true)
    }

    fn upsert(&self, collection: &str, key: &[u8], value: &[u8]) -> DbResult<()> {
        self.put(collection, key, value, Put::Upsert, true)
    }

    fn delete(&self, collection: &str, key: &[u8]) -> DbResult<bool> {
        self.remove(collection, key, true)
    }

    fn scan(
        &self,
        collection: &str,
        start_key: &[u8],
        limit: usize,
        visit: &mut Visitor<'_>,
    ) -> DbResult<()> {
        StatCounters::add(&self.shell.stats.scans, 1);
        let Some(coll) = self.shell.get(collection) else { return Ok(()) };
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
        self.shell.get(collection).map(|c| c.read().index.len() as u64).unwrap_or(0)
    }

    fn collection_names(&self) -> Vec<String> {
        self.shell.names()
    }

    fn drop_collection(&self, collection: &str) -> DbResult<()> {
        self.shell.drop_collection(collection, true)
    }

    fn stats(&self) -> EngineStats {
        self.shell.stats()
    }

    fn checkpoint(&self) -> DbResult<()> {
        self.shell.checkpoint()
    }

    fn clone_in_memory(&self) -> DbResult<Arc<dyn StorageEngine>> {
        Ok(Arc::new(MmapV1Engine { shell: self.shell.copy()? }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let coll = e.shell.get("c").unwrap();
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
