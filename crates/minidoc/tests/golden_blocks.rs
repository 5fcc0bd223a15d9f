//! Golden bytes of what the engines write.
//!
//! wiredTiger's `stored_bytes` is the length of each record's compressed
//! block, and both engines' `wal_bytes` is the length of each log frame, so
//! a benchmark run is comparable with another commit's only while the same
//! document produces the same block and the same frame. Each digest below
//! is a stable FNV-1a hash over length-prefixed outputs:
//!
//! * [`compress_or_store`] and [`Wal::frame`] over the documents the
//!   benchmark grid's generator configurations write (workloads a–f ×
//!   field_length {50, 100, 200} × record_count {1000, 2000, 4000}: the
//!   first 200 loaded records and the first 200 written by the transaction
//!   phase), plus synthetic buffers that reach the compressor's window and
//!   table limits;
//! * `crc32` against a bytewise reference at every length 0..=4096 and
//!   every start offset 0..8;
//! * the files a fixed durable op sequence leaves in each engine's data
//!   directory, which must also replay to the documents written.
//!
//! A change that moves any of them changes what every benchmark measures.

use std::collections::BTreeMap;

use chronos_json::{obj, Value};
use chronos_util::encode::crc32;
use chronos_workload::{CoreWorkload, Operation, WorkloadRunner, WorkloadSpec};
use minidoc::compress::{compress_or_store, decompress_or_load};
use minidoc::wal::{Wal, WalOp};
use minidoc::{doc, Database, DbConfig, EngineKind};

const WORKLOADS: [CoreWorkload; 6] = [
    CoreWorkload::A,
    CoreWorkload::B,
    CoreWorkload::C,
    CoreWorkload::D,
    CoreWorkload::E,
    CoreWorkload::F,
];
const FIELD_LENGTHS: [usize; 3] = [50, 100, 200];
const RECORD_COUNTS: [u64; 3] = [1000, 2000, 4000];
const SEED: u64 = 42;
const RECORDS: usize = 200;

/// FNV-1a 64 over length-prefixed byte strings.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in (bytes.len() as u64).to_le_bytes().iter().chain(bytes) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// The document the YCSB client stores for a generated field list.
fn document(fields: &[(String, String)]) -> Vec<u8> {
    let mut map = chronos_json::Map::with_capacity(fields.len());
    for (name, value) in fields {
        map.insert(name.clone(), Value::from(value.as_str()));
    }
    doc::encode(&Value::Object(map)).expect("encodable document")
}

/// `(key, encoded document)` of the first [`RECORDS`] loaded and the first
/// [`RECORDS`] written records of one generator configuration.
fn written_records(
    workload: CoreWorkload,
    field_length: usize,
    record_count: u64,
) -> Vec<(String, Vec<u8>)> {
    let spec = WorkloadSpec {
        field_length,
        record_count,
        seed: SEED,
        operation_count: 4000,
        ..WorkloadSpec::core(workload)
    };
    let runner = WorkloadRunner::new(spec).expect("valid spec");
    let writes = |op: Operation| match op {
        Operation::Insert { key, fields }
        | Operation::Update { key, fields }
        | Operation::ReadModifyWrite { key, fields } => Some((key, document(&fields))),
        Operation::Read { .. } | Operation::Scan { .. } => None,
    };
    let mut out: Vec<_> = runner.load_partition(0, 1).filter_map(writes).take(RECORDS).collect();
    out.extend(runner.stream(0, 1).filter_map(writes).take(RECORDS));
    out
}

/// Buffers past the document sizes: long runs, a repeating cycle longer
/// than the match window, noise, and mixed text over four alphabets.
fn synthetic_buffers() -> Vec<Vec<u8>> {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut out = vec![
        Vec::new(),
        b"a".to_vec(),
        b"abc".to_vec(),
        b"abcd".to_vec(),
        vec![0u8; 100_000],
        (0..=255u8).cycle().take(70_000).collect(),
    ];
    for alphabet in [2u64, 4, 26, 256] {
        for len in [5usize, 17, 63, 64, 65, 1000, 3000, 20_000, 200_000] {
            let base = if alphabet < 256 { b'a' } else { 0 };
            out.push((0..len).map(|_| base.wrapping_add((next() % alphabet) as u8)).collect());
        }
    }
    // Text with long repeats at distances around the 64 KiB window.
    let phrase: Vec<u8> = (0..40_000).map(|_| (next() % 26) as u8 + b'a').collect();
    for gap in [65_000usize, 65_532, 65_536, 65_540] {
        let mut buf = phrase.clone();
        buf.resize(gap, b'-');
        buf.extend_from_slice(&phrase);
        out.push(buf);
    }
    out
}

fn check(actual: Vec<(String, u64)>, expected: &[(&str, u64)]) {
    let table: String =
        actual.iter().map(|(name, d)| format!("        (\"{name}\", {d:#018x}),\n")).collect();
    let moved: Vec<&str> = actual
        .iter()
        .zip(expected)
        .filter(|((name, d), (want_name, want))| name != want_name || d != want)
        .map(|((name, _), _)| name.as_str())
        .collect();
    assert!(
        actual.len() == expected.len() && moved.is_empty(),
        "written bytes moved for {moved:?}; the digests now read:\n{table}"
    );
}

/// One digest per field length, each over workloads × record counts.
fn grid_digests(mut fold: impl FnMut(&mut Fnv, &str, &[u8])) -> Vec<(String, u64)> {
    FIELD_LENGTHS
        .iter()
        .map(|&field_length| {
            let mut fnv = Fnv::new();
            for workload in WORKLOADS {
                for record_count in RECORD_COUNTS {
                    for (key, value) in written_records(workload, field_length, record_count) {
                        fold(&mut fnv, &key, &value);
                    }
                }
            }
            (format!("field_length={field_length}"), fnv.0)
        })
        .collect()
}

#[test]
fn compressed_blocks_are_pinned() {
    let block = |fnv: &mut Fnv, data: &[u8]| {
        let block = compress_or_store(data);
        assert_eq!(decompress_or_load(&block).unwrap(), data, "round trip");
        fnv.bytes(&block);
    };
    let mut digests = grid_digests(|fnv, _, value| block(fnv, value));
    let mut fnv = Fnv::new();
    for buf in synthetic_buffers() {
        block(&mut fnv, &buf);
    }
    digests.push(("synthetic".into(), fnv.0));
    check(
        digests,
        &[
            ("field_length=50", 0xf0969927129439cb),
            ("field_length=100", 0x0e38c6bfa766aefa),
            ("field_length=200", 0x7ab71c63340e1afd),
            ("synthetic", 0xb76b522af5ce3062),
        ],
    );
}

#[test]
fn wal_frames_are_pinned() {
    let mut digests = grid_digests(|fnv, key, value| {
        fnv.bytes(&Wal::frame(&WalOp::Put {
            collection: "usertable".into(),
            key: key.as_bytes().to_vec(),
            value: value.to_vec(),
        }));
        fnv.bytes(&Wal::frame(&WalOp::Delete {
            collection: "usertable".into(),
            key: key.as_bytes().to_vec(),
        }));
    });
    let mut fnv = Fnv::new();
    for buf in synthetic_buffers() {
        let op = WalOp::Put { collection: "c".into(), key: buf.clone(), value: buf };
        fnv.bytes(&Wal::frame(&op));
    }
    fnv.bytes(&Wal::frame(&WalOp::DropCollection { collection: "usertable".into() }));
    digests.push(("synthetic".into(), fnv.0));
    check(
        digests,
        &[
            ("field_length=50", 0xcc8afe14ac95f237),
            ("field_length=100", 0x7d71630bd8d8be04),
            ("field_length=200", 0x485bf12a54c5817f),
            ("synthetic", 0x9a52270be75e3c1f),
        ],
    );
}

/// CRC-32 (IEEE, reflected), one byte and one table lookup at a time.
fn reference_crc32(table: &[u32; 256], data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc = table[((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc ^ 0xFFFF_FFFF
}

fn reference_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    for (i, slot) in table.iter_mut().enumerate() {
        let mut c = i as u32;
        for _ in 0..8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
        }
        *slot = c;
    }
    table
}

#[test]
fn crc32_matches_the_bytewise_reference() {
    let table = reference_table();
    let mut x: u32 = 0x1234_5678;
    let buf: Vec<u8> = (0..4096 + 8)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            x as u8
        })
        .collect();
    for offset in 0..8 {
        for len in 0..=4096 {
            let data = &buf[offset..offset + len];
            assert_eq!(crc32(data), reference_crc32(&table, data), "offset {offset}, length {len}");
        }
    }
    // The incremental hasher agrees at every split of a buffer.
    let data = &buf[3..3 + 300];
    for split in 0..=data.len() {
        let mut h = chronos_util::encode::Crc32::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        assert_eq!(h.finalize(), reference_crc32(&table, data), "split {split}");
    }
}

/// A fixed durable op sequence: loads, in-place and growing updates,
/// deletes, a second collection that is dropped, a checkpoint, and more
/// writes after it that live only in the log. Returns the documents it
/// leaves.
fn run_ops(db: &Database) -> BTreeMap<String, Value> {
    let mut model = BTreeMap::new();
    let coll = db.collection("usertable");
    let other = db.collection("scratch");
    let doc_for = |i: u32, round: u32| {
        obj! {
            "field0" => "x".repeat((i as usize * 7 + round as usize * 90) % 400),
            "field1" => format!("user{i:04}-round{round}"),
            "n" => i64::from(i * round),
        }
    };
    for i in 0..120u32 {
        let key = format!("user{i:04}");
        coll.insert(&key, &doc_for(i, 0)).unwrap();
        model.insert(key, doc_for(i, 0));
        other.insert(&format!("o{i}"), &obj! {"i" => i64::from(i)}).unwrap();
    }
    for round in 1..3u32 {
        for i in (0..120u32).step_by(round as usize + 1) {
            let key = format!("user{i:04}");
            coll.update(&key, &doc_for(i, round)).unwrap();
            model.insert(key, doc_for(i, round));
        }
    }
    for i in (0..120u32).step_by(7) {
        let key = format!("user{i:04}");
        assert!(coll.delete(&key).unwrap());
        model.remove(&key);
    }
    db.drop_collection("scratch").unwrap();
    db.checkpoint().unwrap();
    for i in 120..150u32 {
        let key = format!("user{i:04}");
        coll.upsert(&key, &doc_for(i, 3)).unwrap();
        model.insert(key, doc_for(i, 3));
    }
    for i in (1..150u32).step_by(11) {
        let key = format!("user{i:04}");
        if model.contains_key(&key) {
            coll.upsert(&key, &doc_for(i, 4)).unwrap();
            model.insert(key, doc_for(i, 4));
        }
    }
    assert!(coll.delete("user0001").unwrap());
    model.remove("user0001");
    model
}

/// Digest of every file in `dir`, by name.
fn dir_digest(dir: &std::path::Path) -> u64 {
    let mut names: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    let mut fnv = Fnv::new();
    for name in names {
        fnv.bytes(name.as_bytes());
        fnv.bytes(&std::fs::read(dir.join(&name)).unwrap());
    }
    fnv.0
}

#[test]
fn durable_logs_are_pinned_and_replay() {
    let mut digests = Vec::new();
    for engine in [EngineKind::WiredTiger, EngineKind::MmapV1] {
        let dir = std::env::temp_dir().join(format!(
            "minidoc-golden-{}-{}",
            std::process::id(),
            engine.as_str()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let model = {
            let db = Database::open(DbConfig::at_dir(engine, &dir)).unwrap();
            run_ops(&db)
        };
        digests.push((format!("{engine}/files"), dir_digest(&dir)));
        let db = Database::open(DbConfig::at_dir(engine, &dir)).unwrap();
        let replayed: BTreeMap<String, Value> =
            db.collection("usertable").scan("", usize::MAX).unwrap().into_iter().collect();
        assert_eq!(replayed, model, "{engine}: replay gives the documents written");
        assert_eq!(db.collection("scratch").count(), 0, "{engine}: the drop replays");
        assert_eq!(db.stats().documents, model.len() as u64);
        drop(db);
        std::fs::remove_dir_all(&dir).unwrap();
    }
    check(
        digests,
        &[("wiredtiger/files", 0xab6c3487b8ee3c81), ("mmapv1/files", 0x02c963ff12632ed0)],
    );
}
