//! The embedded metadata store behind Chronos Control.
//!
//! The original Chronos Control keeps its entities in MySQL/MariaDB; this
//! reproduction embeds a small log-structured document store instead: all
//! entities live in memory (kind → id → JSON document) and every mutation is
//! appended to a JSON-lines log. Re-opening the store replays the log —
//! including after a crash mid-append (the torn tail is discarded) — which
//! is what lets Chronos Control itself be restarted under long-running
//! evaluations (requirement *(iii)*).
//!
//! # One writer, one log
//!
//! Every control-plane write already runs under `ChronosControl::write`'s
//! lock, so the store is built for one writer at a time and many readers:
//!
//! * **Documents** sit behind one `RwLock` as `Arc<Value>` handles:
//!   `get`/`list` copy pointers, never documents, and readers admit each
//!   other.
//! * **The log** is one `Mutex`: the log file (`None` in memory), the
//!   replication feed, the record counter and the sticky error. A write
//!   serializes its frame before taking any lock, then, holding the log,
//!   applies it to memory, appends it to the feed and writes it to the
//!   file. Memory, feed and file therefore see every key in one order, and
//!   the file is byte-for-byte the feed until a compaction.
//!
//! One write is one record, one line: a put frame
//! `{"op":"put","kind":…,"id":…,"doc":…}` for one document, a write frame
//! `{"op":"write","puts":[<put frame>,…]}` for several
//! ([`MetadataStore::put_all`]). Replay and replication work a line at a
//! time, so a restart or a follower sees a write whole or not at all.
//!
//! A log write failure is sticky: the store keeps serving reads, but every
//! subsequent mutation fails with the original error, so memory and log
//! cannot silently diverge further than the write that broke.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use chronos_json::Value;

use crate::error::{CoreError, CoreResult};

type Docs = BTreeMap<String, Arc<Value>>;

/// One document put into memory, by a write or a replayed or installed
/// frame: kind, id, document.
pub type Put = (String, String, Arc<Value>);

/// The in-memory replication feed: every committed frame, in commit
/// order, addressed by a monotone byte offset. Leaders read contiguous
/// ranges out of it to ship to followers; followers append the exact
/// shipped bytes on install, so offsets are comparable across nodes
/// (a follower's feed is always a byte prefix of its leader's).
#[derive(Default)]
struct ReplicationFeed {
    /// Offset of the first byte still retained in `buf`.
    start: u64,
    buf: Vec<u8>,
}

impl ReplicationFeed {
    fn end(&self) -> u64 {
        self.start + self.buf.len() as u64
    }
}

/// Everything a write appends to, behind the store's one mutex.
#[derive(Default)]
struct Log {
    /// The log file and its path; `None` for purely in-memory stores.
    file: Option<(File, PathBuf)>,
    /// Frames committed by this node, for shipping to follower replicas.
    feed: ReplicationFeed,
    /// Records in the log file right now, or mutations accepted in memory.
    records: u64,
    /// First write error, kept verbatim; set once, never cleared.
    error: Option<String>,
}

impl Log {
    /// Refuses writes once the log has failed (never, in memory).
    fn check(&self) -> CoreResult<()> {
        match &self.error {
            Some(err) => Err(CoreError::Storage(err.clone())),
            None => Ok(()),
        }
    }
}

/// A persistent (or in-memory) document store keyed by `(kind, id)`.
pub struct MetadataStore {
    docs: RwLock<BTreeMap<String, Docs>>,
    log: Mutex<Log>,
    /// Mirror of `Log::error.is_some()`, readable without the lock.
    failed: AtomicBool,
}

impl std::fmt::Debug for MetadataStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetadataStore")
            .field("persistent", &self.log.lock().file.is_some())
            .field("live_docs", &self.live_docs())
            .finish()
    }
}

impl MetadataStore {
    /// A purely in-memory store (tests, benches).
    pub fn in_memory() -> Self {
        Self::from_parts(BTreeMap::new(), Log::default())
    }

    fn from_parts(docs: BTreeMap<String, Docs>, log: Log) -> Self {
        MetadataStore {
            docs: RwLock::new(docs),
            log: Mutex::new(log),
            failed: AtomicBool::new(false),
        }
    }

    /// Opens a store logged at `path`, replaying any existing log.
    ///
    /// Replay propagates real I/O errors. A record that fails to *parse*
    /// is discarded only when it is the final line — the torn tail of a
    /// crashed append; garbage in the middle of the log is corruption and
    /// fails the open. A line that parses but is not a frame fails the
    /// open wherever it sits: an acknowledged append is always whole.
    pub fn open(path: &Path) -> CoreResult<Self> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut docs: BTreeMap<String, Docs> = BTreeMap::new();
        let mut records = 0u64;
        let mut valid_bytes = 0u64;
        let mut torn_tail = false;
        let corrupt = |record: u64, detail: &dyn std::fmt::Display| {
            CoreError::Storage(format!(
                "corrupt log record {record} in {}: {detail}",
                path.display()
            ))
        };
        match File::open(path) {
            Ok(file) => {
                let mut reader = BufReader::new(file);
                let mut line = String::new();
                loop {
                    line.clear();
                    if reader.read_line(&mut line)? == 0 {
                        break;
                    }
                    if !line.ends_with('\n') {
                        // Acknowledged appends always end in a newline; a
                        // final line without one is the torn tail of an
                        // unacknowledged write even when it happens to parse.
                        torn_tail = true;
                        break;
                    }
                    match chronos_json::parse(line.trim_end_matches(['\n', '\r'])) {
                        Ok(value) => {
                            let Some(puts) = decode_frame(value) else {
                                return Err(corrupt(records + 1, &"not a store frame"));
                            };
                            records += 1;
                            valid_bytes += line.len() as u64;
                            insert(&mut docs, puts);
                        }
                        Err(parse_err) => {
                            if reader.fill_buf()?.is_empty() {
                                torn_tail = true;
                                break; // torn tail after a crash: stop replay
                            }
                            return Err(corrupt(records + 1, &parse_err));
                        }
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }
        if torn_tail {
            // Chop the torn bytes off the file, not just the replay: the
            // log is append-only, and appending after a partial record
            // would corrupt it for every later recovery.
            let file = OpenOptions::new().write(true).open(path)?;
            file.set_len(valid_bytes)?;
            file.sync_data()?;
        }
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        // A freshly created log file is only durable once its directory
        // entry is synced; otherwise a crash can lose the file itself.
        sync_parent_dir(path)?;
        let log = Log { file: Some((file, path.to_path_buf())), records, ..Log::default() };
        Ok(Self::from_parts(docs, log))
    }

    /// Stores (inserting or replacing) a document: a write of one.
    pub fn put(&self, kind: &str, id: &str, document: Value) -> CoreResult<()> {
        self.write(vec![(kind, id.to_string(), document)]).1
    }

    /// Stores every document of one write as one record: memory takes them
    /// in one document-lock hold and the log in one line, so a reader, a
    /// restart and a follower see all of them or none. Puts apply in order;
    /// an empty write writes nothing.
    ///
    /// Returns the puts that reached memory beside the outcome: all of them
    /// when the append fails after the apply, none when a failed store
    /// refuses the write.
    pub fn put_all(&self, puts: Vec<(&str, String, Value)>) -> (Vec<Put>, CoreResult<()>) {
        self.write(puts)
    }

    /// [`put_all`](MetadataStore::put_all), which `put` shares.
    fn write(&self, puts: Vec<(&str, String, Value)>) -> (Vec<Put>, CoreResult<()>) {
        if puts.is_empty() {
            return (Vec::new(), Ok(()));
        }
        // All serialization and allocation happen before any lock is taken.
        let puts: Vec<Put> =
            puts.into_iter().map(|(kind, id, doc)| (kind.to_string(), id, Arc::new(doc))).collect();
        let frame = frame_write(&puts);
        let mut log = self.log.lock();
        if let Err(refused) = log.check() {
            return (Vec::new(), Err(refused));
        }
        // The document lock is released before the file write: readers
        // wait for the in-memory apply, never for the disk.
        insert(&mut self.docs.write(), puts.iter().cloned());
        let appended = self.append(&mut log, &frame, 1);
        (puts, appended)
    }

    /// Records `detail` as the store's sticky failure and returns it.
    fn poison(&self, log: &mut Log, detail: String) -> CoreError {
        log.error = Some(detail.clone());
        self.failed.store(true, Ordering::Release);
        CoreError::Storage(detail)
    }

    /// Appends `bytes` — `frames` whole frames, already applied to memory —
    /// to the replication feed and the log file. Called holding the log.
    fn append(&self, log: &mut Log, bytes: &[u8], frames: u64) -> CoreResult<()> {
        log.feed.buf.extend_from_slice(bytes);
        if let Some((file, _)) = &mut log.file {
            let written = match chronos_util::fail_eval!("core.store.wal.append") {
                // Crash mid-write: part of the frames reach the disk,
                // nothing is acknowledged.
                Some(chronos_util::fail::Injected::Torn { keep }) => {
                    let keep = keep.min(bytes.len());
                    let _ = file.write_all(&bytes[..keep]);
                    let _ = file.sync_data();
                    Err(format!("log append torn after {keep} bytes (injected)"))
                }
                Some(chronos_util::fail::Injected::Error(msg)) => {
                    Err(format!("log append failed: {msg}"))
                }
                None => file.write_all(bytes).map_err(|e| format!("log append failed: {e}")),
            };
            if let Err(detail) = written {
                return Err(self.poison(log, detail));
            }
        }
        // Counted only after the write succeeded, so a failed append can
        // never inflate the record count.
        log.records += frames;
        Ok(())
    }

    /// Fetches a document (a cheap reference-counted handle).
    pub fn get(&self, kind: &str, id: &str) -> Option<Arc<Value>> {
        self.docs.read().get(kind)?.get(id).cloned()
    }

    /// All documents of a kind, in id order (reference-counted handles).
    pub fn list(&self, kind: &str) -> Vec<Arc<Value>> {
        self.docs.read().get(kind).map_or_else(Vec::new, |docs| docs.values().cloned().collect())
    }

    /// All ids of a kind, in order.
    pub fn ids(&self, kind: &str) -> Vec<String> {
        self.docs.read().get(kind).map_or_else(Vec::new, |docs| docs.keys().cloned().collect())
    }

    /// Number of documents of a kind.
    pub fn count(&self, kind: &str) -> usize {
        self.docs.read().get(kind).map_or(0, BTreeMap::len)
    }

    /// Records in the log right now (for persistent stores), or writes
    /// accepted (for in-memory stores). Drops back to the live-document
    /// count after [`compact`](MetadataStore::compact).
    pub fn log_records(&self) -> u64 {
        self.log.lock().records
    }

    /// Live documents across all kinds.
    pub fn live_docs(&self) -> u64 {
        self.docs.read().values().map(|docs| docs.len() as u64).sum()
    }

    /// End offset of this node's replication feed: the total bytes of
    /// committed frames available for shipping to follower replicas.
    pub fn replication_offset(&self) -> u64 {
        self.log.lock().feed.end()
    }

    /// Reads a contiguous, frame-aligned segment of the replication feed
    /// starting at byte offset `from`. Returns `None` when `from` lies
    /// outside the retained feed (a replica that far behind needs a fresh
    /// seed, not a segment); returns an empty segment when the replica is
    /// caught up. Segments are cut at frame boundaries — at most
    /// `max_bytes` unless a single frame is larger, which ships whole.
    pub fn read_replication(&self, from: u64, max_bytes: usize) -> Option<Vec<u8>> {
        let log = self.log.lock();
        let feed = &log.feed;
        if from < feed.start || from > feed.end() {
            return None;
        }
        let avail = &feed.buf[(from - feed.start) as usize..];
        if avail.len() <= max_bytes {
            return Some(avail.to_vec());
        }
        // Cut on the last newline inside the budget; an oversized single
        // frame extends past the budget rather than stalling forever.
        let cut = match avail[..max_bytes].iter().rposition(|&b| b == b'\n') {
            Some(i) => i + 1,
            None => avail[max_bytes..]
                .iter()
                .position(|&b| b == b'\n')
                .map(|j| max_bytes + j + 1)
                .unwrap_or(avail.len()),
        };
        Some(avail[..cut].to_vec())
    }

    /// Applies a shipped replication segment to this (follower) store,
    /// returning the number of bytes applied.
    ///
    /// The whole segment is parsed *before* any mutation, so a corrupt
    /// frame refuses the install with the store byte-identical to its
    /// state before the call. A torn tail — trailing bytes after the last
    /// complete frame, the install-side analogue of the WAL's torn-tail
    /// recovery — is not an error: the complete prefix applies and the
    /// returned count excludes the tail, which the leader re-ships.
    /// Applied frames are re-appended, byte for byte, to this node's own
    /// log and replication feed, so a promoted follower can ship onward.
    /// Like [`put_all`](MetadataStore::put_all), also returns the puts that
    /// reached memory, on an error too.
    pub fn install_replication(&self, payload: &[u8]) -> (Vec<Put>, CoreResult<u64>) {
        let complete = payload.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
        let frames = payload[..complete]
            .split_inclusive(|&b| b == b'\n')
            .enumerate()
            .map(|(i, line)| {
                std::str::from_utf8(line)
                    .ok()
                    .and_then(|text| chronos_json::parse(text.trim_end_matches(['\n', '\r'])).ok())
                    .and_then(decode_frame)
                    .ok_or_else(|| {
                        CoreError::Storage(format!(
                            "corrupt replicated frame {} in segment (install refused)",
                            i + 1
                        ))
                    })
            })
            .collect::<CoreResult<Vec<_>>>();
        let mut log = self.log.lock();
        let frames = match frames.and_then(|frames| log.check().map(|()| frames)) {
            Ok(frames) if !frames.is_empty() => frames,
            refused => return (Vec::new(), refused.map(|_| 0)),
        };
        let count = frames.len() as u64;
        let puts: Vec<Put> = frames.into_iter().flatten().collect();
        insert(&mut self.docs.write(), puts.iter().cloned());
        let appended = self.append(&mut log, &payload[..complete], count);
        (puts, appended.map(|()| complete as u64))
    }

    /// Whether the store can still accept writes: `false` once the log has
    /// hit its sticky failure (every subsequent write is refused until the
    /// process restarts on a repaired log). Lock-free — this backs the
    /// control plane's `/readyz` probe, which must stay cheap under load.
    /// In-memory stores are always healthy.
    pub fn healthy(&self) -> bool {
        !self.failed.load(Ordering::Acquire)
    }

    /// Rewrites the log to contain exactly the live documents, one put
    /// frame each, in kind then id order.
    ///
    /// Holds the log for the whole rewrite, so writers wait and readers do
    /// not. The snapshot goes to a temp file that is synced and then
    /// renamed over the log: a crash leaves the old log or the new one,
    /// never a mix. In memory, compaction is a no-op.
    pub fn compact(&self) -> CoreResult<()> {
        let mut log = self.log.lock();
        log.check()?;
        let Some(path) = log.file.as_ref().map(|(_, path)| path.clone()) else { return Ok(()) };
        let tmp = path.with_extension("compact-tmp");
        let mut live = 0u64;
        {
            let mut out = BufWriter::new(File::create(&tmp)?);
            let mut frame = String::new();
            for (kind, docs) in self.docs.read().iter() {
                for (id, doc) in docs {
                    frame.clear();
                    put_into(&mut frame, kind, id, doc);
                    frame.push('\n');
                    out.write_all(frame.as_bytes())?;
                    live += 1;
                }
            }
            out.flush()?;
            if let Some(inj) = chronos_util::fail_eval!("core.store.compact.sync") {
                return Err(CoreError::Storage(injected_io(inj, "compaction sync")));
            }
            out.get_ref().sync_data()?;
        }
        if let Some(inj) = chronos_util::fail_eval!("core.store.compact.rename") {
            return Err(CoreError::Storage(injected_io(inj, "compaction rename")));
        }
        std::fs::rename(&tmp, &path)?;
        // The rename is only durable once the directory entry is synced; a
        // crash right after the rename could otherwise resurrect the old log.
        // From here the open handle names the unlinked old file, so a
        // failure is sticky like a failed append: no later write may land
        // where a restart will not look.
        match sync_parent_dir(&path).and_then(|()| OpenOptions::new().append(true).open(&path)) {
            Ok(file) => {
                log.file = Some((file, path));
                log.records = live;
                Ok(())
            }
            Err(e) => {
                Err(self.poison(&mut log, format!("log compaction failed after rename: {e}")))
            }
        }
    }
}

/// Fsyncs the directory containing `path`, making a just-created or
/// just-renamed entry itself durable across a crash.
fn sync_parent_dir(path: &std::path::Path) -> std::io::Result<()> {
    if let Some(inj) = chronos_util::fail_eval!("core.store.dir.fsync") {
        return Err(std::io::Error::other(injected_io(inj, "directory fsync")));
    }
    let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) else {
        return Ok(());
    };
    File::open(parent)?.sync_all()
}

/// Renders an injected fault as an error message for simple (non-torn-
/// capable) sites, where a torn policy degrades to a plain error.
#[cfg_attr(not(feature = "failpoints"), allow(dead_code))]
fn injected_io(inj: chronos_util::fail::Injected, what: &str) -> String {
    match inj {
        chronos_util::fail::Injected::Error(msg) => format!("{what} failed: {msg}"),
        chronos_util::fail::Injected::Torn { .. } => format!("{what} failed: injected torn write"),
    }
}

/// Serializes a put frame (`{"op":"put",...}`, no newline) into `out`
/// without cloning the document.
fn put_into(out: &mut String, kind: &str, id: &str, doc: &Value) {
    out.push_str("{\"op\":\"put\",\"kind\":");
    chronos_json::write_string(out, kind);
    out.push_str(",\"id\":");
    chronos_json::write_string(out, id);
    out.push_str(",\"doc\":");
    doc.write_into(out);
    out.push('}');
}

/// The one line of a write: its put frame, or a write frame
/// (`{"op":"write","puts":[…]}`) around its put frames.
fn frame_write(puts: &[Put]) -> Vec<u8> {
    let mut out = String::with_capacity(64);
    let many = puts.len() > 1;
    if many {
        out.push_str("{\"op\":\"write\",\"puts\":[");
    }
    for (i, (kind, id, doc)) in puts.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        put_into(&mut out, kind, id, doc);
    }
    out.push_str(if many { "]}\n" } else { "\n" });
    out.into_bytes()
}

/// Decodes a put frame, or a write frame into its put frames; anything
/// else is not a frame.
fn decode_frame(value: Value) -> Option<Vec<Put>> {
    let Value::Object(mut map) = value else { return None };
    if map.get("op").and_then(Value::as_str) == Some("write") {
        let Value::Array(puts) = map.remove("puts")? else { return None };
        return puts.into_iter().map(decode_put).collect();
    }
    Some(vec![decode_put(Value::Object(map))?])
}

/// Decodes `{"op":"put","kind":…,"id":…,"doc":…}`.
fn decode_put(value: Value) -> Option<Put> {
    let Value::Object(mut map) = value else { return None };
    if map.get("op").and_then(Value::as_str) != Some("put") {
        return None;
    }
    let kind = map.get("kind").and_then(Value::as_str)?.to_string();
    let id = map.get("id").and_then(Value::as_str)?.to_string();
    Some((kind, id, Arc::new(map.remove("doc")?)))
}

/// Applies puts to the documents in order; a kind's map is created on its
/// first document.
fn insert(docs: &mut BTreeMap<String, Docs>, puts: impl IntoIterator<Item = Put>) {
    for (kind, id, doc) in puts {
        docs.entry(kind).or_default().insert(id, doc);
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // the store's own tests drive it directly
mod tests {
    use super::*;
    use chronos_json::obj;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("chronos-store-{}-{name}.log", std::process::id()))
    }

    fn frame_put(kind: &str, id: &str, doc: Value) -> Vec<u8> {
        frame_write(&[(kind.to_string(), id.to_string(), Arc::new(doc))])
    }

    /// The documents of one three-document write: a new one, and a
    /// replacement of `pre` in the same kind.
    fn three_puts() -> Vec<(&'static str, String, Value)> {
        vec![
            ("job", "j1".into(), obj! {"state" => "running"}),
            ("evaluation", "e1".into(), obj! {"job_ids" => chronos_json::arr!["j1"]}),
            ("job", "pre".into(), obj! {"state" => "finished"}),
        ]
    }

    #[test]
    fn in_memory_crud() {
        let store = MetadataStore::in_memory();
        store.put("job", "j1", obj! {"state" => "scheduled"}).unwrap();
        store.put("job", "j2", obj! {"state" => "running"}).unwrap();
        assert_eq!(store.count("job"), 2);
        assert_eq!(
            store.get("job", "j1").unwrap().get("state").and_then(Value::as_str),
            Some("scheduled")
        );
        store.put("job", "j1", obj! {"state" => "finished"}).unwrap();
        assert_eq!(
            store.get("job", "j1").unwrap().get("state").and_then(Value::as_str),
            Some("finished")
        );
        assert_eq!(store.count("job"), 2);
        assert!(store.get("nope", "x").is_none());
        assert_eq!(store.ids("job"), vec!["j1", "j2"]);
    }

    #[test]
    fn healthy_tracks_wal_state() {
        assert!(MetadataStore::in_memory().healthy(), "in-memory stores are always healthy");
        let path = tmp("healthy");
        let _ = std::fs::remove_file(&path);
        let store = MetadataStore::open(&path).unwrap();
        store.put("k", "a", obj! {"ok" => true}).unwrap();
        assert!(store.healthy());
        drop(store);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn list_is_id_ordered() {
        let store = MetadataStore::in_memory();
        for id in ["c", "a", "b"] {
            store.put("k", id, obj! {"id" => id}).unwrap();
        }
        let names: Vec<String> = store
            .list("k")
            .iter()
            .map(|d| d.get("id").and_then(Value::as_str).unwrap().to_string())
            .collect();
        assert_eq!(names, vec!["a", "b", "c"]);
    }

    #[test]
    fn persistence_roundtrip() {
        let path = tmp("roundtrip");
        let _ = std::fs::remove_file(&path);
        {
            let store = MetadataStore::open(&path).unwrap();
            store.put("project", "p1", obj! {"name" => "demo"}).unwrap();
            store.put("project", "p2", obj! {"name" => "other"}).unwrap();
        }
        {
            let store = MetadataStore::open(&path).unwrap();
            assert_eq!(store.count("project"), 2);
            assert_eq!(
                store.get("project", "p1").unwrap().get("name").and_then(Value::as_str),
                Some("demo")
            );
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_discarded() {
        let path = tmp("torn");
        let _ = std::fs::remove_file(&path);
        {
            let store = MetadataStore::open(&path).unwrap();
            store.put("k", "a", obj! {"v" => 1}).unwrap();
            store.put("k", "b", obj! {"v" => 2}).unwrap();
        }
        // Chop bytes off the final line.
        let data = std::fs::read(&path).unwrap();
        std::fs::write(&path, &data[..data.len() - 5]).unwrap();
        let store = MetadataStore::open(&path).unwrap();
        assert_eq!(store.count("k"), 1);
        assert!(store.get("k", "a").is_some());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mid_log_corruption_is_an_error_not_data_loss() {
        let path = tmp("corrupt-middle");
        // (line to replace, replacement, record the open must name): an
        // unparsable middle record, and lines that parse but are not
        // frames — no id or doc, an unknown op — which no acknowledged
        // append can leave behind, so even the last line fails the open.
        let cases = [
            (1, "{\"op\":\"put\",\"ki", 2),
            (1, "{\"op\":\"put\",\"kind\":\"job\"}", 2),
            (2, "{\"op\":\"drop\",\"kind\":\"k\",\"id\":\"c\"}", 3),
            (1, "{\"op\":\"write\",\"puts\":[{\"kind\":\"k\",\"id\":\"b\",\"doc\":{}}]}", 2),
            (2, "{\"op\":\"write\",\"puts\":{}}", 3),
        ];
        for (index, replacement, record) in cases {
            let _ = std::fs::remove_file(&path);
            {
                let store = MetadataStore::open(&path).unwrap();
                store.put("k", "a", obj! {"v" => 1}).unwrap();
                store.put("k", "b", obj! {"v" => 2}).unwrap();
                store.put("k", "c", obj! {"v" => 3}).unwrap();
            }
            // A torn tail can only be last and unparsable, so each of
            // these must fail the open instead of silently replaying part.
            let text = std::fs::read_to_string(&path).unwrap();
            let mut lines: Vec<&str> = text.lines().collect();
            lines[index] = replacement;
            std::fs::write(&path, format!("{}\n", lines.join("\n"))).unwrap();
            let err = MetadataStore::open(&path).unwrap_err();
            assert!(err.to_string().contains(&format!("corrupt log record {record}")), "{err}");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn compaction_shrinks_log_and_preserves_state() {
        let path = tmp("compact");
        let _ = std::fs::remove_file(&path);
        {
            let store = MetadataStore::open(&path).unwrap();
            for i in 0..50 {
                store.put("k", "hot", obj! {"v" => i}).unwrap();
            }
            assert_eq!(store.log_records(), 50);
            store.compact().unwrap();
            assert_eq!(store.log_records(), 1);
            // Still writable after compaction.
            store.put("k", "other", obj! {"v" => 99}).unwrap();
        }
        let size = std::fs::metadata(&path).unwrap().len();
        assert!(size < 200, "compacted log should be tiny, was {size}");
        let store = MetadataStore::open(&path).unwrap();
        assert_eq!(store.get("k", "hot").unwrap().get("v").and_then(Value::as_i64), Some(49));
        assert_eq!(store.get("k", "other").unwrap().get("v").and_then(Value::as_i64), Some(99));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn kinds_are_isolated() {
        let store = MetadataStore::in_memory();
        store.put("a", "x", obj! {"v" => 1}).unwrap();
        store.put("b", "x", obj! {"v" => 2}).unwrap();
        assert_eq!(store.get("a", "x").unwrap().get("v").and_then(Value::as_i64), Some(1));
        assert_eq!(store.get("b", "x").unwrap().get("v").and_then(Value::as_i64), Some(2));
    }

    #[test]
    fn get_returns_shared_handles_not_copies() {
        let store = MetadataStore::in_memory();
        store.put("k", "x", obj! {"v" => 1}).unwrap();
        let a = store.get("k", "x").unwrap();
        let b = store.get("k", "x").unwrap();
        assert!(Arc::ptr_eq(&a, &b), "reads must share one allocation");
        // Replacing the document swaps the handle; old handles stay valid.
        store.put("k", "x", obj! {"v" => 2}).unwrap();
        assert_eq!(a.get("v").and_then(Value::as_i64), Some(1));
        assert_eq!(store.get("k", "x").unwrap().get("v").and_then(Value::as_i64), Some(2));
    }

    #[test]
    fn escaped_kinds_and_ids_roundtrip() {
        let path = tmp("escaped");
        let _ = std::fs::remove_file(&path);
        let kind = "weird\"kind\\with\nescapes";
        let id = "id\twith\u{1}controls";
        {
            let store = MetadataStore::open(&path).unwrap();
            store.put(kind, id, obj! {"v" => 1}).unwrap();
        }
        let store = MetadataStore::open(&path).unwrap();
        assert_eq!(store.get(kind, id).unwrap().get("v").and_then(Value::as_i64), Some(1));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn live_docs_tracks_inserts_replaces_and_deletes() {
        let store = MetadataStore::in_memory();
        store.put("k", "a", obj! {"v" => 1}).unwrap();
        store.put("k", "a", obj! {"v" => 2}).unwrap(); // replace: not a new doc
        store.put("k", "b", obj! {"v" => 3}).unwrap();
        assert_eq!(store.live_docs(), 2);
    }

    #[test]
    fn replication_feed_ships_and_installs_byte_identically() {
        let leader = MetadataStore::in_memory();
        let follower = MetadataStore::in_memory();
        leader.put("job", "j1", obj! {"state" => "scheduled"}).unwrap();
        leader.put("job", "j2", obj! {"state" => "running"}).unwrap();
        let segment = leader.read_replication(0, usize::MAX).unwrap();
        let applied = follower.install_replication(&segment).1.unwrap();
        assert_eq!(applied, segment.len() as u64);
        assert_eq!(follower.replication_offset(), leader.replication_offset());
        assert_eq!(follower.count("job"), 2);
        assert_eq!(
            follower.get("job", "j2").unwrap().get("state").and_then(Value::as_str),
            Some("running")
        );
        // The follower's feed is a byte prefix of (here: equal to) the
        // leader's, so a promoted follower ships the identical bytes.
        assert_eq!(follower.read_replication(0, usize::MAX).unwrap(), segment);
    }

    #[test]
    fn replication_read_is_frame_aligned_and_bounded() {
        let store = MetadataStore::in_memory();
        store.put("k", "a", obj! {"v" => 1}).unwrap();
        store.put("k", "b", obj! {"v" => 2}).unwrap();
        let all = store.read_replication(0, usize::MAX).unwrap();
        // A tiny budget still ships at least one whole frame.
        let first = store.read_replication(0, 8).unwrap();
        assert!(first.ends_with(b"\n"));
        assert!(all.starts_with(&first));
        let rest = store.read_replication(first.len() as u64, usize::MAX).unwrap();
        assert_eq!([first.as_slice(), rest.as_slice()].concat(), all);
        // Caught up: empty segment, not None.
        assert_eq!(store.read_replication(all.len() as u64, 1024), Some(Vec::new()));
        // Out of range: None.
        assert_eq!(store.read_replication(all.len() as u64 + 1, 1024), None);
    }

    #[test]
    fn torn_segment_tail_applies_prefix_only() {
        let leader = MetadataStore::in_memory();
        leader.put("k", "a", obj! {"v" => 1}).unwrap();
        leader.put("k", "b", obj! {"v" => 2}).unwrap();
        let segment = leader.read_replication(0, usize::MAX).unwrap();
        let follower = MetadataStore::in_memory();
        // Tear mid-way through the second frame: only the first applies.
        let torn = &segment[..segment.len() - 5];
        let applied = follower.install_replication(torn).1.unwrap();
        assert!(applied < torn.len() as u64);
        assert_eq!(follower.count("k"), 1);
        // The leader re-ships from the applied offset and the follower
        // converges.
        let rest = leader.read_replication(applied, usize::MAX).unwrap();
        follower.install_replication(&rest).1.unwrap();
        assert_eq!(follower.count("k"), 2);
        assert_eq!(follower.replication_offset(), leader.replication_offset());
    }

    #[test]
    fn corrupt_segment_is_refused_with_store_untouched() {
        let follower = MetadataStore::in_memory();
        follower.put("k", "pre", obj! {"v" => 0}).unwrap();
        let before = follower.read_replication(0, usize::MAX).unwrap();
        // A complete (newline-terminated) but unparseable frame between
        // two good ones: nothing at all may apply.
        let mut segment = Vec::new();
        segment.extend_from_slice(&frame_put("k", "x", obj! {"v" => 1}));
        segment.extend_from_slice(b"{\"op\":\"put\",\"ki\n");
        segment.extend_from_slice(&frame_put("k", "y", obj! {"v" => 2}));
        let err = follower.install_replication(&segment).1.unwrap_err();
        assert!(err.to_string().contains("corrupt replicated frame 2"), "{err}");
        assert_eq!(follower.read_replication(0, usize::MAX).unwrap(), before);
        assert!(follower.get("k", "x").is_none());
        assert_eq!(follower.count("k"), 1);
    }

    #[test]
    fn durable_follower_persists_installed_segments() {
        let path = tmp("replica");
        let _ = std::fs::remove_file(&path);
        let leader = MetadataStore::in_memory();
        leader.put("job", "j1", obj! {"state" => "finished"}).unwrap();
        let segment = leader.read_replication(0, usize::MAX).unwrap();
        {
            let follower = MetadataStore::open(&path).unwrap();
            follower.install_replication(&segment).1.unwrap();
            leader.put("job", "j2", obj! {"state" => "running"}).unwrap();
            let rest = leader.read_replication(segment.len() as u64, usize::MAX).unwrap();
            follower.install_replication(&rest).1.unwrap();
            // The follower's log file is its replication feed, byte for byte.
            let feed = follower.read_replication(0, usize::MAX).unwrap();
            assert_eq!(std::fs::read(&path).unwrap(), feed);
        }
        // Installed frames went through the follower's own WAL: a restart
        // replays them (the PR 3 recovery path).
        let reopened = MetadataStore::open(&path).unwrap();
        assert_eq!(
            reopened.get("job", "j1").unwrap().get("state").and_then(Value::as_str),
            Some("finished")
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_write_is_one_record() {
        let path = tmp("one-record");
        let _ = std::fs::remove_file(&path);
        {
            let store = MetadataStore::open(&path).unwrap();
            store.put("job", "pre", obj! {"state" => "running"}).unwrap();
            let (applied, stored) = store.put_all(three_puts());
            stored.unwrap();
            let keys: Vec<_> = applied.iter().map(|(kind, id, _)| format!("{kind}/{id}")).collect();
            assert_eq!(keys, ["job/j1", "evaluation/e1", "job/pre"], "it reports what it put");
            assert!(store.put_all(Vec::new()).0.is_empty());
            assert_eq!(store.log_records(), 2, "one record per write, none for an empty one");
            assert_eq!(store.live_docs(), 3);
            let log = std::fs::read_to_string(&path).unwrap();
            let lines: Vec<&str> = log.lines().collect();
            assert_eq!(lines.len(), 2);
            assert!(lines[1].starts_with("{\"op\":\"write\",\"puts\":[{\"op\":\"put\","));
            // A write of one document is a put frame, byte for byte.
            store.put_all(vec![("k", "x".into(), obj! {"v" => 1})]).1.unwrap();
            let log = std::fs::read(&path).unwrap();
            assert!(log.ends_with(&frame_put("k", "x", obj! {"v" => 1})));
        }
        let store = MetadataStore::open(&path).unwrap();
        assert_eq!(store.log_records(), 3);
        assert_eq!(
            store.get("job", "pre").unwrap().get("state").and_then(Value::as_str),
            Some("finished")
        );
        assert!(store.get("evaluation", "e1").is_some());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_torn_write_frame_applies_all_of_its_documents_or_none() {
        let leader = MetadataStore::in_memory();
        leader.put("job", "pre", obj! {"state" => "running"}).unwrap();
        let prefix = leader.read_replication(0, usize::MAX).unwrap();
        leader.put_all(three_puts()).1.unwrap();
        let whole = leader.read_replication(0, usize::MAX).unwrap();
        let path = tmp("torn-write");
        // What a store holds after replaying, or installing, a cut log.
        let state = |store: &MetadataStore| {
            let state = |kind, id| store.get(kind, id).map(|doc| doc.to_string());
            (state("job", "pre"), state("job", "j1"), state("evaluation", "e1"))
        };
        let before = state(&{
            let store = MetadataStore::in_memory();
            store.install_replication(&prefix).1.unwrap();
            store
        });
        let after = state(&leader);
        for cut in prefix.len()..=whole.len() {
            let expected = if cut == whole.len() { &after } else { &before };
            std::fs::write(&path, &whole[..cut]).unwrap();
            let replayed = MetadataStore::open(&path).unwrap();
            assert_eq!(&state(&replayed), expected, "replay cut at byte {cut}");
            drop(replayed);
            let follower = MetadataStore::in_memory();
            let (puts, applied) = follower.install_replication(&whole[..cut]);
            assert_eq!(&state(&follower), expected, "install cut at byte {cut}");
            let complete = if cut == whole.len() { whole.len() } else { prefix.len() };
            assert_eq!(applied.unwrap(), complete as u64, "install cut at byte {cut}");
            let reported = if cut == whole.len() { 4 } else { 1 };
            assert_eq!(puts.len(), reported, "puts reported for cut at byte {cut}");
        }
        std::fs::remove_file(&path).unwrap();
    }
}
