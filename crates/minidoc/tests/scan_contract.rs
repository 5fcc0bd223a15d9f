//! The lock contract of a scan, on both engines.
//!
//! A scan holds its collection's read lock for at most 256 records at a
//! time and runs the visitor under it. Writers that run meanwhile must not
//! make a scan lose order, overrun its limit, miss a record that was there
//! all along, or hang; and a visitor that calls back into the collection it
//! visits panics in a debug build, naming the collection, instead of
//! deadlocking on that lock.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use chronos_json::obj;
use minidoc::{Database, DbConfig, EngineKind};

const KEYS: usize = 2_000;

fn key(i: usize) -> String {
    format!("key{i:05}")
}

/// A collection of `KEYS` records: the even keys stay for the whole test,
/// the odd ones come and go.
fn loaded(engine: EngineKind) -> Database {
    let db = Database::open(DbConfig::in_memory(engine)).unwrap();
    let coll = db.collection("t");
    for i in 0..KEYS {
        coll.insert(&key(i), &obj! {"i" => i, "round" => 0}).unwrap();
    }
    db
}

/// Scans `db` from a spread of starts and limits while another thread
/// inserts, updates and deletes, and checks every scan against the keys
/// that were present throughout. Returns the number of scans.
fn scan_while_writing(db: Database) -> usize {
    let stable: BTreeSet<String> = (0..KEYS).step_by(2).map(key).collect();
    let done = Arc::new(AtomicBool::new(false));
    let writer = {
        let (db, done) = (db.clone(), Arc::clone(&done));
        std::thread::spawn(move || {
            let coll = db.collection("t");
            let mut round = 0usize;
            while !done.load(Ordering::Relaxed) {
                round += 1;
                for i in (1..KEYS).step_by(2).skip(round % 7).step_by(7) {
                    if !coll.delete(&key(i)).unwrap() {
                        coll.insert(&key(i), &obj! {"i" => i, "round" => round}).unwrap();
                    }
                    coll.update(&key(i - 1), &obj! {"i" => i - 1, "round" => round}).unwrap();
                }
            }
            round
        })
    };
    let coll = db.collection("t");
    let mut scans = 0;
    for pass in 0..6 {
        for start in ["", "key00000", "key00777", "key01023x", "key01999", "key2"] {
            for limit in [0, 1, 50, 255, 256, 257, 1_100, usize::MAX] {
                let mut keys: Vec<String> = Vec::new();
                coll.scan_raw(start, limit, &mut |k, _| {
                    keys.push(String::from_utf8(k.to_vec()).unwrap());
                    Ok(())
                })
                .unwrap();
                let at = format!("pass {pass}, start {start:?}, limit {limit}");
                assert!(keys.len() <= limit, "{at}: {} keys past the limit", keys.len());
                assert!(keys.windows(2).all(|w| w[0] < w[1]), "{at}: keys out of order");
                assert!(keys.iter().all(|k| k.as_str() >= start), "{at}: a key before the start");
                // Every key present for the whole scan, up to where the
                // limit stopped it, is visited.
                let seen: BTreeSet<&String> = keys.iter().collect();
                let missed: Vec<&String> = stable
                    .range(start.to_string()..)
                    .take_while(|k| {
                        keys.len() < limit || keys.last().is_some_and(|last| *k <= last)
                    })
                    .filter(|k| !seen.contains(k))
                    .take(5)
                    .collect();
                assert!(missed.is_empty(), "{at}: missed stable keys, first {missed:?}");
                scans += 1;
            }
        }
    }
    done.store(true, Ordering::Relaxed);
    assert!(writer.join().unwrap() > 0, "the writer ran");
    scans
}

#[test]
fn scans_under_concurrent_writes_keep_order_limit_and_stable_keys() {
    for engine in [EngineKind::WiredTiger, EngineKind::MmapV1] {
        let db = loaded(engine);
        let (tx, rx) = mpsc::channel();
        let scanner = std::thread::spawn(move || tx.send(scan_while_writing(db)).unwrap());
        match rx.recv_timeout(Duration::from_secs(120)) {
            Ok(scans) => assert_eq!(scans, 6 * 6 * 8, "{engine}"),
            // Not joined: a hung scan fails the test instead of hanging it.
            Err(mpsc::RecvTimeoutError::Timeout) => panic!("{engine}: scans did not finish"),
            Err(mpsc::RecvTimeoutError::Disconnected) => {}
        }
        if let Err(panic) = scanner.join() {
            std::panic::resume_unwind(panic);
        }
    }
}

#[test]
fn a_visitor_may_write_other_collections_and_copies() {
    for engine in [EngineKind::WiredTiger, EngineKind::MmapV1] {
        let db = loaded(engine);
        let copy = db.clone_in_memory().unwrap();
        let (other, copied) = (db.collection("other"), copy.collection("t"));
        let mut visits = 0;
        db.collection("t")
            .scan_raw("", 300, &mut |k, _| {
                let k = std::str::from_utf8(k).unwrap();
                other.insert(k, &obj! {"from" => "t"}).unwrap();
                copied.delete(k)?;
                visits += 1;
                Ok(())
            })
            .unwrap();
        assert_eq!(visits, 300, "{engine}");
        assert_eq!((other.count(), copied.count()), (300, KEYS as u64 - 300), "{engine}");
        assert_eq!(db.collection("t").count(), KEYS as u64, "{engine}: the original is whole");
    }
}

/// A visitor that writes the collection it visits, which would deadlock
/// on the read lock its scan holds.
fn write_from_inside_a_scan(engine: EngineKind) {
    let db = Database::open(DbConfig::in_memory(engine)).unwrap();
    let coll = db.collection("usertable");
    coll.insert("user1", &obj! {"v" => 1}).unwrap();
    coll.scan_raw("", usize::MAX, &mut |_, _| coll.insert("user2", &obj! {"v" => 2})).unwrap();
}

#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "a scan's visitor called into collection \"usertable\"")]
fn a_wiredtiger_visitor_that_writes_its_collection_panics() {
    write_from_inside_a_scan(EngineKind::WiredTiger);
}

#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "a scan's visitor called into collection \"usertable\"")]
fn an_mmapv1_visitor_that_writes_its_collection_panics() {
    write_from_inside_a_scan(EngineKind::MmapV1);
}
