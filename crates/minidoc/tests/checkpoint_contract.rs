//! A checkpoint beside writers loses no acknowledged write and finishes.
//!
//! On each engine, one thread inserts into collection `a` while `b` holds
//! 20 000 records and the main thread checkpoints three times. A second
//! thread updates `b`'s records in key order: a wiredTiger update takes
//! only the index's read lock, so it can land while the checkpoint reads
//! `b`. Every write a writer saw acknowledged must be found after a
//! reopen, whether the checkpoint's snapshot or the log after it holds it.
//! Each checkpoint runs on its own thread and must report back within
//! [`BOUND`], so a checkpoint that deadlocks with a writer fails the test
//! instead of hanging the suite.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use chronos_json::obj;
use minidoc::{Database, DbConfig, DbResult, EngineKind};

/// How long one checkpoint of ~20 000 small records may take.
const BOUND: Duration = Duration::from_secs(20);
const B_RECORDS: usize = 20_000;
const CHECKPOINTS: usize = 3;

fn a_key(i: usize) -> String {
    format!("a{i:07}")
}

fn b_key(j: usize) -> String {
    format!("b{j:07}")
}

/// `b`'s record `j` as written by write `w` (-1: the load).
fn b_doc(w: i64) -> chronos_json::Value {
    obj! {"w" => w, "pad" => "x".repeat(40)}
}

/// Waits until a writer has acknowledged `more` writes past what it had.
fn let_writer_run(acked: &AtomicUsize, more: usize) {
    let target = acked.load(Ordering::SeqCst) + more;
    let deadline = std::time::Instant::now() + BOUND;
    while acked.load(Ordering::SeqCst) < target {
        assert!(std::time::Instant::now() < deadline, "the writer made no progress");
        std::thread::yield_now();
    }
}

/// Runs `write(i)` for i = 0, 1, … until `stop`, counting each
/// acknowledged write in `acked`.
fn writer(
    stop: &Arc<AtomicBool>,
    acked: &Arc<AtomicUsize>,
    write: impl Fn(usize) -> DbResult<()> + Send + 'static,
) -> std::thread::JoinHandle<()> {
    let (stop, acked) = (Arc::clone(stop), Arc::clone(acked));
    std::thread::spawn(move || {
        let mut i = 0;
        while !stop.load(Ordering::SeqCst) {
            write(i).unwrap();
            i += 1;
            acked.store(i, Ordering::SeqCst);
        }
    })
}

fn checkpoint_beside_writers(engine: EngineKind) {
    let dir = std::env::temp_dir()
        .join(format!("minidoc-checkpoint-contract-{engine}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // Unsynced appends keep the load fast; a reopen in this process reads
    // them back all the same, so only the checkpoint can lose them.
    let config = DbConfig { durable_writes: false, ..DbConfig::at_dir(engine, &dir) };
    let db = Database::open(config.clone()).unwrap();
    let (a, b) = (db.collection("a"), db.collection("b"));
    for j in 0..B_RECORDS {
        b.insert(&b_key(j), &b_doc(-1)).unwrap();
    }

    let stop = Arc::new(AtomicBool::new(false));
    let (inserted, updated) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
    let writers = [
        writer(&stop, &inserted, move |i| a.insert(&a_key(i), &obj! {"i" => i as i64})),
        writer(&stop, &updated, move |i| b.update(&b_key(i % B_RECORDS), &b_doc(i as i64))),
    ];
    for round in 0..CHECKPOINTS {
        let_writer_run(&inserted, 200);
        let_writer_run(&updated, 200);
        let (done, finished) = mpsc::channel();
        let db = db.clone();
        let checkpoint = std::thread::spawn(move || {
            let _ = done.send(db.checkpoint());
        });
        match finished.recv_timeout(BOUND) {
            Ok(result) => {
                result.unwrap();
                checkpoint.join().unwrap();
            }
            // A deadlocked checkpoint cannot be joined; the test fails.
            Err(_) => {
                stop.store(true, Ordering::SeqCst);
                panic!(
                    "{engine}: checkpoint {round} did not finish within {BOUND:?} beside \
                     writers ({} inserts, {} updates acknowledged): a deadlock",
                    inserted.load(Ordering::SeqCst),
                    updated.load(Ordering::SeqCst)
                );
            }
        }
    }
    let_writer_run(&inserted, 200);
    stop.store(true, Ordering::SeqCst);
    for writer in writers {
        writer.join().unwrap();
    }
    let (inserts, updates) = (inserted.load(Ordering::SeqCst), updated.load(Ordering::SeqCst));
    drop(db);

    let db = Database::open(config).unwrap();
    let found: BTreeSet<String> =
        db.collection("a").scan("", usize::MAX).unwrap().into_iter().map(|(k, _)| k).collect();
    let lost: Vec<String> = (0..inserts).map(a_key).filter(|k| !found.contains(k)).collect();
    assert!(
        lost.is_empty(),
        "{engine}: {} of {inserts} acknowledged inserts lost after reopen, first {:?}",
        lost.len(),
        lost.first()
    );
    assert_eq!(found.len(), inserts, "{engine}: inserts nobody acknowledged");
    // Update i wrote b's record i % B_RECORDS; each record holds its last.
    let b = db.collection("b");
    let stale: Vec<String> = (0..B_RECORDS)
        .filter(|&j| {
            let last = (j < updates).then(|| j + (updates - 1 - j) / B_RECORDS * B_RECORDS);
            b.get(&b_key(j)).unwrap() != Some(b_doc(last.map_or(-1, |i| i as i64)))
        })
        .map(b_key)
        .collect();
    assert!(
        stale.is_empty(),
        "{engine}: {} of b's records lost their last of {updates} acknowledged updates, first {:?}",
        stale.len(),
        stale.first()
    );
    assert_eq!(db.stats().documents, (inserts + B_RECORDS) as u64, "{engine}: documents");
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn wiredtiger_checkpoint_keeps_every_acknowledged_write() {
    checkpoint_beside_writers(EngineKind::WiredTiger);
}

#[test]
fn mmapv1_checkpoint_keeps_every_acknowledged_write_and_finishes() {
    checkpoint_beside_writers(EngineKind::MmapV1);
}
