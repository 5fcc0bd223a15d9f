//! Concurrency smoke tests for the metadata store: writers across kinds
//! race readers and compactions, and the log must replay to exactly the
//! state the threads left in memory.

#![allow(clippy::disallowed_methods)] // drives the store below the control plane

use std::sync::Arc;

use chronos_core::store::MetadataStore;
use chronos_json::{obj, Value};

const WRITERS: u64 = 8;
const KINDS: [&str; 3] = ["job", "evaluation", "result"];
const OPS_PER_WRITER: u64 = 300;

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("chronos-storecc-{}-{name}.log", std::process::id()))
}

/// Each writer owns a disjoint id range in every kind, so the final
/// expected state is exact: the last value each writer wrote per id.
fn writer_doc(writer: u64, op: u64) -> Value {
    obj! {"writer" => writer as i64, "op" => op as i64}
}

#[test]
fn concurrent_writers_lose_no_updates_and_replay_consistently() {
    let path = tmp("writers");
    let _ = std::fs::remove_file(&path);
    let store = Arc::new(MetadataStore::open(&path).unwrap());

    std::thread::scope(|scope| {
        for writer in 0..WRITERS {
            let store = Arc::clone(&store);
            scope.spawn(move || {
                for op in 0..OPS_PER_WRITER {
                    let kind = KINDS[(op % KINDS.len() as u64) as usize];
                    // 4 ids per writer per kind, rewritten round-robin.
                    let id = format!("w{writer}-{}", op % 4);
                    store.put(kind, &id, writer_doc(writer, op)).unwrap();
                }
            });
        }
        // Readers run list/get against the writers the whole time.
        for _ in 0..2 {
            let store = Arc::clone(&store);
            scope.spawn(move || {
                for _ in 0..200 {
                    for kind in KINDS {
                        let docs = store.list(kind);
                        for doc in &docs {
                            assert!(doc.get("writer").is_some());
                        }
                    }
                }
            });
        }
        // And the log gets compacted underneath everyone.
        let compactor = Arc::clone(&store);
        scope.spawn(move || {
            for _ in 0..5 {
                compactor.compact().unwrap();
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        });
    });

    // No lost updates: every writer's final round of documents is intact.
    for writer in 0..WRITERS {
        for slot in 0..4u64 {
            // The last op to touch (kind, slot) for this writer.
            let mut last: Option<(u64, &str)> = None;
            for op in 0..OPS_PER_WRITER {
                if op % 4 == slot {
                    last = Some((op, KINDS[(op % KINDS.len() as u64) as usize]));
                }
            }
            let (op, kind) = last.unwrap();
            let id = format!("w{writer}-{slot}");
            let doc = store.get(kind, &id).unwrap_or_else(|| panic!("missing {kind}/{id}"));
            assert_eq!(doc.get("writer").and_then(Value::as_i64), Some(writer as i64));
            assert_eq!(doc.get("op").and_then(Value::as_i64), Some(op as i64), "{kind}/{id}");
        }
    }

    // Post-join replay equals the in-memory state, kind by kind, id by id.
    let replayed = MetadataStore::open(&path).unwrap();
    for kind in KINDS {
        assert_eq!(replayed.ids(kind), store.ids(kind), "ids diverged for {kind}");
        for id in store.ids(kind) {
            let mem = store.get(kind, &id).unwrap();
            let disk = replayed.get(kind, &id).unwrap();
            assert_eq!(*mem, *disk, "replay diverged for {kind}/{id}");
        }
    }
    std::fs::remove_file(&path).unwrap();
}

/// One order across memory, feed and file: after concurrent writers across
/// kinds (no compaction), the log file is the replication feed byte for
/// byte, so a follower seeded from either replays the same history.
#[test]
fn wal_file_is_the_replication_feed() {
    let path = tmp("feed");
    let _ = std::fs::remove_file(&path);
    let store = MetadataStore::open(&path).unwrap();
    std::thread::scope(|scope| {
        for writer in 0..WRITERS {
            let store = &store;
            scope.spawn(move || {
                for op in 0..OPS_PER_WRITER {
                    let kind = KINDS[(op % KINDS.len() as u64) as usize];
                    store
                        .put(kind, &format!("w{writer}-{}", op % 4), writer_doc(writer, op))
                        .unwrap();
                }
            });
        }
    });
    let feed = store.read_replication(0, usize::MAX).unwrap();
    assert_eq!(feed.len() as u64, store.replication_offset());
    assert!(std::fs::read(&path).unwrap() == feed, "log file and replication feed diverged");
    std::fs::remove_file(&path).unwrap();
}
