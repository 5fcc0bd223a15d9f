//! Write-ahead log / journal.
//!
//! Both storage engines persist mutations through this log format; they
//! differ in *when* and *under which locks* they append (see the engine
//! docs). A log record is `[u32 len][u32 crc32][payload]`; replay stops at
//! the first truncated or corrupt record, which models recovery after a
//! crash mid-append.
//!
//! Every mutation is framed, checksummed and appended, to an in-memory log
//! too: that is the modelled cost. An in-memory log keeps no bytes, only
//! its counters, since nothing reads a log that cannot be replayed. One
//! encoder writes each frame into one buffer of exact size, straight from
//! borrowed fields, and checksums the payload in place: [`Wal::frame_put`] frames a put from the caller's
//! collection, key and value (the engines' write path), [`Wal::frame`] an
//! owned [`WalOp`].

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use chronos_util::encode::crc32;

use crate::doc::{decode_varint, encode_varint};
use crate::error::{DbError, DbResult};

/// A logged mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalOp {
    /// Insert or replace `key` in `collection`.
    Put { collection: String, key: Vec<u8>, value: Vec<u8> },
    /// Remove `key` from `collection`.
    Delete { collection: String, key: Vec<u8> },
    /// Remove a whole collection.
    DropCollection { collection: String },
}

impl WalOp {
    /// Parses the payload of a frame produced by [`Wal::frame`].
    pub fn decode(bytes: &[u8]) -> DbResult<WalOp> {
        let mut pos = 0;
        let tag = *bytes.first().ok_or_else(|| DbError::Corrupt("empty wal op".into()))?;
        pos += 1;
        let op = match tag {
            OP_PUT => {
                let collection = get_string(bytes, &mut pos)?;
                let key = get_bytes(bytes, &mut pos)?;
                let value = get_bytes(bytes, &mut pos)?;
                WalOp::Put { collection, key, value }
            }
            OP_DELETE => {
                let collection = get_string(bytes, &mut pos)?;
                let key = get_bytes(bytes, &mut pos)?;
                WalOp::Delete { collection, key }
            }
            OP_DROP => WalOp::DropCollection { collection: get_string(bytes, &mut pos)? },
            other => return Err(DbError::Corrupt(format!("bad wal op tag {other}"))),
        };
        if pos != bytes.len() {
            return Err(DbError::Corrupt("trailing bytes in wal op".into()));
        }
        Ok(op)
    }
}

fn get_bytes(bytes: &[u8], pos: &mut usize) -> DbResult<Vec<u8>> {
    let len = decode_varint(bytes, pos)? as usize;
    let slice = bytes
        .get(*pos..*pos + len)
        .ok_or_else(|| DbError::Corrupt("truncated wal field".into()))?;
    *pos += len;
    Ok(slice.to_vec())
}

fn get_string(bytes: &[u8], pos: &mut usize) -> DbResult<String> {
    String::from_utf8(get_bytes(bytes, pos)?)
        .map_err(|_| DbError::Corrupt("non-UTF-8 collection name".into()))
}

const OP_PUT: u8 = 0;
const OP_DELETE: u8 = 1;
const OP_DROP: u8 = 2;

/// Bytes `encode_varint(n)` writes.
fn varint_len(n: usize) -> usize {
    (usize::BITS - (n | 1).leading_zeros()).div_ceil(7) as usize
}

/// `[len][crc][tag, (varint len, bytes) per field]` in one buffer of exact
/// size; the CRC covers the payload where it was written.
fn frame_fields(tag: u8, fields: &[&[u8]]) -> Vec<u8> {
    let payload_len = 1 + fields.iter().map(|f| varint_len(f.len()) + f.len()).sum::<usize>();
    let mut record = Vec::with_capacity(8 + payload_len);
    record.extend_from_slice(&(payload_len as u32).to_le_bytes());
    record.extend_from_slice(&[0; 4]);
    record.push(tag);
    for field in fields {
        encode_varint(field.len() as u64, &mut record);
        record.extend_from_slice(field);
    }
    debug_assert_eq!(record.len(), 8 + payload_len);
    let crc = crc32(&record[8..]);
    record[4..8].copy_from_slice(&crc.to_le_bytes());
    record
}

/// When appended records are forced to stable storage.
///
/// The sync policy is where the two storage engines' durability designs
/// diverge (and, on the write path, where their scalability diverges):
/// the mmapv1-like journal syncs **every append while the caller holds the
/// collection lock**; the wiredTiger-like WAL **group-commits** — appends
/// accumulate and the (comparatively rare) fsync runs *outside* the log
/// lock, so other threads keep working during the I/O stall.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Never fsync (in-memory or benchmark-only databases).
    Never,
    /// fsync inside every append.
    EveryAppend,
    /// Request an fsync after this many bytes have accumulated; the caller
    /// performs it via [`Wal::take_sync_handle`], outside any other lock.
    GroupCommit {
        /// Bytes between sync requests.
        batch_bytes: usize,
    },
}

/// An append-only log file, or an in-memory log when no path is given: it
/// counts what it is handed and keeps none of it, so in-memory databases
/// still pay a realistic journaling cost (framing and checksumming every
/// record) without holding bytes nothing reads.
#[derive(Debug)]
pub struct Wal {
    file: Option<File>,
    path: Option<PathBuf>,
    /// Total bytes appended since open.
    pub appended_bytes: u64,
    policy: SyncPolicy,
    pending_since_sync: usize,
}

impl Wal {
    /// Opens (creating if needed) the log at `path`, synced as `policy`
    /// says.
    pub fn open(path: &Path, policy: SyncPolicy) -> DbResult<Self> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(Wal {
            file: Some(file),
            path: Some(path.to_path_buf()),
            appended_bytes: 0,
            policy,
            pending_since_sync: 0,
        })
    }

    /// An in-memory log (no durability, but the same write path cost).
    pub fn in_memory() -> Self {
        Wal {
            file: None,
            path: None,
            appended_bytes: 0,
            policy: SyncPolicy::Never,
            pending_since_sync: 0,
        }
    }

    /// A copy of an in-memory log: its byte counters and policy.
    /// `None` for a file-backed log, whose file a copy could not share.
    pub(crate) fn clone_in_memory(&self) -> Option<Wal> {
        if self.file.is_some() {
            return None;
        }
        Some(Wal {
            file: None,
            path: None,
            appended_bytes: self.appended_bytes,
            policy: self.policy,
            pending_since_sync: self.pending_since_sync,
        })
    }

    /// For [`SyncPolicy::GroupCommit`]: when enough bytes have accumulated,
    /// returns a handle the caller must `sync_data()` — **after releasing
    /// the log lock** — and resets the accumulator.
    pub fn take_sync_handle(&mut self) -> DbResult<Option<File>> {
        let SyncPolicy::GroupCommit { batch_bytes } = self.policy else {
            return Ok(None);
        };
        if self.pending_since_sync < batch_bytes {
            return Ok(None);
        }
        self.pending_since_sync = 0;
        match &self.file {
            Some(file) => Ok(Some(file.try_clone()?)),
            None => Ok(None),
        }
    }

    /// Frames an operation into its on-log record form (length + CRC +
    /// payload). Both engines frame *outside* the log lock: the
    /// wiredTiger-like engine outside every lock, the mmapv1-like engine
    /// under its collection lock, which it holds through the append; that
    /// difference is part of the engines' contrasting write paths.
    pub fn frame(op: &WalOp) -> Vec<u8> {
        match op {
            WalOp::Put { collection, key, value } => Self::frame_put(collection, key, value),
            WalOp::Delete { collection, key } => {
                frame_fields(OP_DELETE, &[collection.as_bytes(), key])
            }
            WalOp::DropCollection { collection } => frame_fields(OP_DROP, &[collection.as_bytes()]),
        }
    }

    /// The frame of `WalOp::Put { collection, key, value }`, built from the
    /// borrowed parts.
    pub fn frame_put(collection: &str, key: &[u8], value: &[u8]) -> Vec<u8> {
        frame_fields(OP_PUT, &[collection.as_bytes(), key, value])
    }

    /// Appends a record previously produced by [`Wal::frame`].
    pub fn append_framed(&mut self, record: &[u8]) -> DbResult<()> {
        self.appended_bytes += record.len() as u64;
        self.pending_since_sync += record.len();
        match &mut self.file {
            Some(file) => {
                if let Some(inj) = chronos_util::fail_eval!("minidoc.wal.append") {
                    match inj {
                        chronos_util::fail::Injected::Torn { keep } => {
                            // Crash mid-append: a prefix of the record
                            // reaches the disk, the caller sees a failure.
                            let keep = keep.min(record.len());
                            let _ = file.write_all(&record[..keep]);
                            let _ = file.sync_data();
                            return Err(DbError::Io(std::io::Error::other(format!(
                                "wal append torn after {keep} bytes (injected)"
                            ))));
                        }
                        chronos_util::fail::Injected::Error(msg) => {
                            return Err(DbError::Io(std::io::Error::other(msg)));
                        }
                    }
                }
                file.write_all(record)?;
                if self.policy == SyncPolicy::EveryAppend {
                    if let Some(inj) = chronos_util::fail_eval!("minidoc.wal.sync") {
                        return Err(DbError::injected(inj, "wal sync"));
                    }
                    file.sync_data()?;
                    self.pending_since_sync = 0;
                }
            }
            // The in-memory log takes the framed record and keeps nothing:
            // the framing and checksum are the modelled cost.
            None => {
                std::hint::black_box(record);
            }
        }
        Ok(())
    }

    /// Replays all intact records from `path`. Stops silently at the first
    /// torn/corrupt record (crash-consistent prefix semantics).
    pub fn replay(path: &Path) -> DbResult<Vec<WalOp>> {
        Ok(Self::replay_prefix(path)?.0)
    }

    /// Like [`Wal::replay`], but also chops any torn/corrupt tail off the
    /// file. A log that is appended to after recovery must do this: new
    /// records written after leftover torn bytes would be unreachable for
    /// every later replay (the scan stops at the tear forever).
    pub fn replay_and_trim(path: &Path) -> DbResult<Vec<WalOp>> {
        let (ops, valid, total) = Self::replay_prefix(path)?;
        if valid < total {
            let file = OpenOptions::new().write(true).open(path)?;
            file.set_len(valid as u64)?;
            file.sync_data()?;
        }
        Ok(ops)
    }

    /// Shared scan: `(intact ops, valid prefix bytes, file bytes)`.
    fn replay_prefix(path: &Path) -> DbResult<(Vec<WalOp>, usize, usize)> {
        let mut data = Vec::new();
        match File::open(path) {
            Ok(mut f) => {
                f.read_to_end(&mut data)?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((Vec::new(), 0, 0)),
            Err(e) => return Err(e.into()),
        }
        let mut ops = Vec::new();
        let mut pos = 0;
        while pos + 8 <= data.len() {
            let len = u32::from_le_bytes(data[pos..pos + 4].try_into().unwrap()) as usize;
            let crc = u32::from_le_bytes(data[pos + 4..pos + 8].try_into().unwrap());
            let Some(payload) = data.get(pos + 8..pos + 8 + len) else {
                break; // torn tail
            };
            if crc32(payload) != crc {
                break; // corrupt tail
            }
            match WalOp::decode(payload) {
                Ok(op) => ops.push(op),
                Err(_) => break,
            }
            pos += 8 + len;
        }
        Ok((ops, pos, data.len()))
    }

    /// Truncates the log (after a checkpoint made it redundant).
    pub fn truncate(&mut self) -> DbResult<()> {
        if let Some(path) = &self.path {
            let file = OpenOptions::new().create(true).write(true).truncate(true).open(path)?;
            self.file = Some(OpenOptions::new().append(true).open(path)?);
            drop(file);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("minidoc-wal-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_file(&dir);
        dir
    }

    fn ops() -> Vec<WalOp> {
        vec![
            WalOp::Put { collection: "c".into(), key: b"k1".to_vec(), value: b"v1".to_vec() },
            WalOp::Delete { collection: "c".into(), key: b"k1".to_vec() },
            WalOp::DropCollection { collection: "c".into() },
        ]
    }

    #[test]
    fn frame_roundtrip() {
        for op in ops() {
            let record = Wal::frame(&op);
            let len = u32::from_le_bytes(record[..4].try_into().unwrap()) as usize;
            assert_eq!(record.len(), 8 + len, "exact size");
            assert_eq!(u32::from_le_bytes(record[4..8].try_into().unwrap()), crc32(&record[8..]));
            assert_eq!(WalOp::decode(&record[8..]).unwrap(), op);
        }
        for n in [0usize, 1, 127, 128, 16_383, 16_384, 1 << 21, (1 << 28) + 5] {
            let mut v = Vec::new();
            encode_varint(n as u64, &mut v);
            assert_eq!(varint_len(n), v.len(), "{n}");
        }
    }

    #[test]
    fn append_and_replay() {
        let path = tmp("replay");
        let mut wal = Wal::open(&path, SyncPolicy::Never).unwrap();
        for op in ops() {
            wal.append_framed(&Wal::frame(&op)).unwrap();
        }
        drop(wal);
        assert_eq!(Wal::replay(&path).unwrap(), ops());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn replay_missing_file_is_empty() {
        assert!(Wal::replay(&tmp("missing")).unwrap().is_empty());
    }

    #[test]
    fn torn_tail_is_dropped() {
        let path = tmp("torn");
        let mut wal = Wal::open(&path, SyncPolicy::Never).unwrap();
        for op in ops() {
            wal.append_framed(&Wal::frame(&op)).unwrap();
        }
        drop(wal);
        // Truncate mid-record to simulate a crash during the last append.
        let data = std::fs::read(&path).unwrap();
        std::fs::write(&path, &data[..data.len() - 3]).unwrap();
        let replayed = Wal::replay(&path).unwrap();
        assert_eq!(replayed, ops()[..2].to_vec());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_record_stops_replay() {
        let path = tmp("corrupt");
        let mut wal = Wal::open(&path, SyncPolicy::Never).unwrap();
        for op in ops() {
            wal.append_framed(&Wal::frame(&op)).unwrap();
        }
        drop(wal);
        let mut data = std::fs::read(&path).unwrap();
        // Flip a payload byte of the second record: first record survives.
        let first_len = u32::from_le_bytes(data[0..4].try_into().unwrap()) as usize + 8;
        data[first_len + 9] ^= 0xFF;
        std::fs::write(&path, &data).unwrap();
        let replayed = Wal::replay(&path).unwrap();
        assert_eq!(replayed, ops()[..1].to_vec());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncate_clears_log() {
        let path = tmp("truncate");
        let mut wal = Wal::open(&path, SyncPolicy::Never).unwrap();
        wal.append_framed(&Wal::frame(&ops()[0])).unwrap();
        wal.truncate().unwrap();
        assert!(Wal::replay(&path).unwrap().is_empty());
        // Appends after truncation still work.
        wal.append_framed(&Wal::frame(&ops()[1])).unwrap();
        drop(wal);
        assert_eq!(Wal::replay(&path).unwrap(), vec![ops()[1].clone()]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn in_memory_clone_carries_counters() {
        let mut wal = Wal::in_memory();
        wal.append_framed(&Wal::frame(&ops()[0])).unwrap();
        let first = Wal::frame(&ops()[0]).len();
        assert_eq!((wal.appended_bytes, wal.pending_since_sync), (first as u64, first));
        let mut copy = wal.clone_in_memory().unwrap();
        assert_eq!(
            (copy.appended_bytes, copy.pending_since_sync, copy.policy),
            (wal.appended_bytes, wal.pending_since_sync, wal.policy)
        );
        copy.append_framed(&Wal::frame(&ops()[1])).unwrap();
        let second = Wal::frame(&ops()[1]).len();
        assert_eq!(copy.appended_bytes, (first + second) as u64, "the copy counts on its own");
        assert_eq!(copy.pending_since_sync, first + second);
        assert_eq!(wal.appended_bytes, first as u64, "the original is untouched");

        let path = tmp("clone");
        let file_backed = Wal::open(&path, SyncPolicy::Never).unwrap();
        assert!(file_backed.clone_in_memory().is_none());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn in_memory_wal_tracks_bytes() {
        let mut wal = Wal::in_memory();
        wal.append_framed(&Wal::frame(&ops()[0])).unwrap();
        assert!(wal.appended_bytes > 0);
        wal.truncate().unwrap();
    }
}
