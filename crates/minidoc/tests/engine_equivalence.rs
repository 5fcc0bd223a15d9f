//! Property tests: both storage engines must behave identically to a
//! reference model (a `BTreeMap`) under arbitrary operation sequences —
//! the engines differ in *how* they store, never in *what* they store.
//! An in-memory copy of either is held to the same model: it must continue
//! from where its original stood, and the original must stay there. So is a
//! durable database of either, reopened after any mix of writes and drops
//! with a checkpoint somewhere among them.

use std::collections::BTreeMap;

use chronos_json::obj;
use minidoc::{doc, Database, DbConfig, DbError, EngineKind, Filter};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Insert(u8, usize),
    Update(u8, usize),
    Upsert(u8, usize),
    Delete(u8),
    Get(u8),
    Scan(u8, usize),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), 0..512usize).prop_map(|(k, n)| Op::Insert(k, n)),
        (any::<u8>(), 0..512usize).prop_map(|(k, n)| Op::Update(k, n)),
        (any::<u8>(), 0..512usize).prop_map(|(k, n)| Op::Upsert(k, n)),
        any::<u8>().prop_map(Op::Delete),
        any::<u8>().prop_map(Op::Get),
        (any::<u8>(), 0..300usize).prop_map(|(k, n)| Op::Scan(k, n)),
    ]
}

/// A step of a durable run: an operation, or a drop of its collection
/// (one step in twelve).
#[derive(Debug, Clone)]
enum Step {
    Op(Op),
    Drop,
}

fn arb_step() -> impl Strategy<Value = Step> {
    (arb_op(), 0..12u8).prop_map(|(op, d)| if d == 0 { Step::Drop } else { Step::Op(op) })
}

fn payload(n: usize) -> chronos_json::Value {
    obj! {"data" => "v".repeat(n), "len" => n}
}

fn run_against_model(db: &Database, ops: &[Op]) {
    let mut model = BTreeMap::new();
    apply_to_model(db, ops, &mut model);
    assert_matches_model(db, &model);
}

/// Runs `ops` on `db` and on `model`, checking every answer on the way.
fn apply_to_model(db: &Database, ops: &[Op], model: &mut BTreeMap<String, usize>) {
    let engine = db.engine_kind();
    let coll = db.collection("t");
    for op in ops {
        match op {
            Op::Insert(k, n) => {
                let key = format!("key{k:03}");
                let result = coll.insert(&key, &payload(*n));
                if let std::collections::btree_map::Entry::Vacant(e) = model.entry(key) {
                    result.unwrap();
                    e.insert(*n);
                } else {
                    assert!(result.is_err(), "{engine}: dup insert must fail");
                }
            }
            Op::Update(k, n) => {
                let key = format!("key{k:03}");
                let result = coll.update(&key, &payload(*n));
                if let std::collections::btree_map::Entry::Occupied(mut e) = model.entry(key) {
                    result.unwrap();
                    e.insert(*n);
                } else {
                    assert!(result.is_err(), "{engine}: update of missing must fail");
                }
            }
            Op::Upsert(k, n) => {
                let key = format!("key{k:03}");
                coll.upsert(&key, &payload(*n)).unwrap();
                model.insert(key, *n);
            }
            Op::Delete(k) => {
                let key = format!("key{k:03}");
                let existed = coll.delete(&key).unwrap();
                assert_eq!(existed, model.remove(&key).is_some(), "{engine}: delete {key}");
            }
            Op::Get(k) => {
                let key = format!("key{k:03}");
                let found = coll.get(&key).unwrap();
                match model.get(&key) {
                    Some(&n) => assert_eq!(found.unwrap(), payload(n), "{engine}: get {key}"),
                    None => assert!(found.is_none(), "{engine}: phantom {key}"),
                }
            }
            Op::Scan(k, limit) => {
                let start = format!("key{k:03}");
                let rows = coll.scan(&start, *limit).unwrap();
                let expected: Vec<(String, usize)> =
                    model.range(start..).take(*limit).map(|(k, &n)| (k.clone(), n)).collect();
                assert_eq!(rows.len(), expected.len(), "{engine}: scan length");
                for ((got_k, got_v), (want_k, want_n)) in rows.iter().zip(&expected) {
                    assert_eq!(got_k, want_k, "{engine}: scan key order");
                    assert_eq!(got_v, &payload(*want_n), "{engine}: scan value");
                }
            }
        }
    }
}

/// `db` holds exactly the model's documents, and its `len` index finds
/// each of them.
fn assert_matches_model(db: &Database, model: &BTreeMap<String, usize>) {
    let engine = db.engine_kind();
    let coll = db.collection("t");
    assert_eq!(coll.count(), model.len() as u64, "{engine}: final count");
    assert_eq!(db.stats().documents, model.len() as u64, "{engine}: stats documents");
    let expected: Vec<(String, chronos_json::Value)> =
        model.iter().map(|(k, &n)| (k.clone(), payload(n))).collect();
    assert_eq!(coll.scan("", usize::MAX).unwrap(), expected, "{engine}: documents");
    if coll.index_names().is_empty() {
        return;
    }
    let mut by_len: BTreeMap<usize, Vec<String>> = BTreeMap::new();
    for (key, &n) in model {
        by_len.entry(n).or_default().push(key.clone());
    }
    for (n, keys) in by_len {
        let found: Vec<String> =
            coll.find(&Filter::eq("len", n)).unwrap().into_iter().map(|(k, _)| k).collect();
        assert_eq!(found, keys, "{engine}: index lookup of len {n}");
    }
}

/// Runs `prefix` on a database with an index, copies it, and runs
/// `suffix` on the copy. The copy must match the model of prefix + suffix
/// and report the statistics a database that ran both reports, log bytes
/// included; the original must still match the model of the prefix and
/// report what it reported before the copy.
fn check_clone(engine: EngineKind, prefix: &[Op], suffix: &[Op]) {
    let open = || {
        let db = Database::open(DbConfig::in_memory(engine)).unwrap();
        db.collection("t").create_index("len").unwrap();
        db
    };
    let original = open();
    let mut model = BTreeMap::new();
    apply_to_model(&original, prefix, &mut model);
    let prefix_model = model.clone();
    let prefix_stats = original.stats();

    let copy = original.clone_in_memory().unwrap();
    assert_eq!(copy.stats(), prefix_stats, "{engine}: the copy starts where the original stands");
    apply_to_model(&copy, suffix, &mut model);

    let reference = open();
    let mut reference_model = BTreeMap::new();
    apply_to_model(&reference, prefix, &mut reference_model);
    apply_to_model(&reference, suffix, &mut reference_model);
    assert_eq!(copy.stats(), reference.stats(), "{engine}: copy vs prefix + suffix");
    assert_eq!(original.stats(), prefix_stats, "{engine}: the original moved");

    assert_matches_model(&copy, &model);
    assert_matches_model(&original, &prefix_model);
}

/// Limits around the scans' 256-record lock hold, and past the end.
const LIMITS: [usize; 10] = [0, 1, 31, 32, 33, 50, 256, 257, 1000, usize::MAX];

#[test]
fn limited_scans_agree_across_engines() {
    let dbs = [
        Database::open(DbConfig::in_memory(EngineKind::WiredTiger)).unwrap(),
        Database::open(DbConfig::in_memory(EngineKind::MmapV1)).unwrap(),
    ];
    let mut model = BTreeMap::new();
    for i in 0..700usize {
        let key = format!("key{i:04}");
        for db in &dbs {
            db.collection("t").insert(&key, &payload(i % 97)).unwrap();
        }
        model.insert(key, i % 97);
    }
    // Holes, so that a limit counts records, not keys.
    for i in (0..700usize).step_by(9) {
        let key = format!("key{i:04}");
        for db in &dbs {
            assert!(db.collection("t").delete(&key).unwrap());
        }
        model.remove(&key);
    }
    for start in ["", "key0000", "key0005", "key0300", "key0450", "key0699", "key9"] {
        for limit in LIMITS {
            let expected: Vec<(String, chronos_json::Value)> = model
                .range(start.to_string()..)
                .take(limit)
                .map(|(k, &n)| (k.clone(), payload(n)))
                .collect();
            for db in &dbs {
                let engine = db.engine_kind();
                let coll = db.collection("t");
                assert_eq!(coll.scan(start, limit).unwrap(), expected, "{engine}: {start} {limit}");
                let mut raw = Vec::new();
                coll.scan_raw(start, limit, &mut |k, v| {
                    raw.push((String::from_utf8(k.to_vec()).unwrap(), doc::decode(v)?));
                    Ok(())
                })
                .unwrap();
                assert_eq!(raw, expected, "{engine}: raw scan {start} {limit}");
            }
        }
    }
}

/// Scans of both engines and of an in-memory copy of each against the
/// model: limits around the 256 records a scan reads per lock hold, the
/// exact remainder from each start and no limit; starts before the keys,
/// on a key, between keys, in a hole, and past the keys.
#[test]
fn scans_match_the_model_on_engines_and_copies() {
    for engine in [EngineKind::WiredTiger, EngineKind::MmapV1] {
        let db = Database::open(DbConfig::in_memory(engine)).unwrap();
        let coll = db.collection("t");
        let mut model = BTreeMap::new();
        for i in 0..600usize {
            let key = format!("key{i:04}");
            coll.insert(&key, &payload(i % 89)).unwrap();
            model.insert(key, i % 89);
        }
        for i in (0..600usize).step_by(7) {
            let key = format!("key{i:04}");
            assert!(coll.delete(&key).unwrap());
            model.remove(&key);
        }
        let copy = db.clone_in_memory().unwrap();
        for (name, db) in [("original", &db), ("copy", &copy)] {
            let coll = db.collection("t");
            for start in ["", "a", "key0001", "key0001x", "key0007", "key0300", "key0599", "z"] {
                let remainder = model.range(start.to_string()..).count();
                for limit in [0, 1, 255, 256, 257, remainder, usize::MAX] {
                    let expected: Vec<(String, chronos_json::Value)> = model
                        .range(start.to_string()..)
                        .take(limit)
                        .map(|(k, &n)| (k.clone(), payload(n)))
                        .collect();
                    let got = coll.scan(start, limit).unwrap();
                    assert_eq!(got, expected, "{engine} {name}: start {start:?}, limit {limit}");
                }
            }
        }
    }
}

/// An error from the visitor stops the scan where it is raised and is what
/// the scan returns, on both engines and on an in-memory copy of each.
#[test]
fn a_visitor_error_stops_the_scan_and_is_returned() {
    for engine in [EngineKind::WiredTiger, EngineKind::MmapV1] {
        let db = Database::open(DbConfig::in_memory(engine)).unwrap();
        for i in 0..600usize {
            db.collection("t").insert(&format!("key{i:04}"), &payload(i % 89)).unwrap();
        }
        let copy = db.clone_in_memory().unwrap();
        for (name, db) in [("original", &db), ("copy", &copy)] {
            let coll = db.collection("t");
            // 300 is past the first 256-record lock hold.
            for stop_at in [0usize, 1, 255, 256, 300] {
                let mut visited = Vec::new();
                let result = coll.scan_raw("key0000", usize::MAX, &mut |k, _| {
                    if visited.len() == stop_at {
                        return Err(DbError::Corrupt(format!("stop at {}", visited.len())));
                    }
                    visited.push(k.to_vec());
                    Ok(())
                });
                let message = format!("{engine} {name}: stop at {stop_at}");
                assert!(
                    matches!(&result, Err(DbError::Corrupt(m)) if *m == format!("stop at {stop_at}")),
                    "{message}: {result:?}"
                );
                assert_eq!(visited.len(), stop_at, "{message}: nothing is visited after the error");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn wiredtiger_matches_model(ops in prop::collection::vec(arb_op(), 1..80)) {
        let db = Database::open(DbConfig::in_memory(EngineKind::WiredTiger)).unwrap();
        run_against_model(&db, &ops);
    }

    #[test]
    fn mmapv1_matches_model(ops in prop::collection::vec(arb_op(), 1..80)) {
        let db = Database::open(DbConfig::in_memory(EngineKind::MmapV1)).unwrap();
        run_against_model(&db, &ops);
    }

    #[test]
    fn wiredtiger_clone_continues_the_model(
        prefix in prop::collection::vec(arb_op(), 0..60),
        suffix in prop::collection::vec(arb_op(), 0..60),
    ) {
        check_clone(EngineKind::WiredTiger, &prefix, &suffix);
    }

    #[test]
    fn mmapv1_clone_continues_the_model(
        prefix in prop::collection::vec(arb_op(), 0..60),
        suffix in prop::collection::vec(arb_op(), 0..60),
    ) {
        check_clone(EngineKind::MmapV1, &prefix, &suffix);
    }

    #[test]
    fn durable_engines_recover_to_model(
        steps in prop::collection::vec(arb_step(), 1..40),
        at in 0..40usize,
    ) {
        let checkpoint_at = at % (steps.len() + 1);
        for engine in [EngineKind::WiredTiger, EngineKind::MmapV1] {
            let dir = std::env::temp_dir().join(format!(
                "minidoc-prop-durable-{}-{:x}",
                std::process::id(),
                rand::random::<u64>()
            ));
            let config = DbConfig::at_dir(engine, &dir);
            let mut model: BTreeMap<String, usize> = BTreeMap::new();
            {
                let db = Database::open(config.clone()).unwrap();
                for (i, step) in steps.iter().enumerate() {
                    if i == checkpoint_at {
                        db.checkpoint().unwrap();
                    }
                    match step {
                        Step::Op(op) => apply_to_model(&db, std::slice::from_ref(op), &mut model),
                        Step::Drop => {
                            db.drop_collection("t").unwrap();
                            model.clear();
                        }
                    }
                }
                if checkpoint_at == steps.len() {
                    db.checkpoint().unwrap();
                }
            }
            assert_matches_model(&Database::open(config).unwrap(), &model);
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
