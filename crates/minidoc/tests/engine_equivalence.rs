//! Property tests: both storage engines must behave identically to a
//! reference model (a `BTreeMap`) under arbitrary operation sequences —
//! the engines differ in *how* they store, never in *what* they store.

use std::collections::BTreeMap;

use chronos_json::obj;
use minidoc::{Database, DbConfig, EngineKind};
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

fn payload(n: usize) -> chronos_json::Value {
    obj! {"data" => "v".repeat(n), "len" => n}
}

fn run_against_model(db: &Database, ops: &[Op]) {
    let engine = db.engine_kind();
    let coll = db.collection("t");
    let mut model: BTreeMap<String, usize> = BTreeMap::new();
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
    assert_eq!(coll.count(), model.len() as u64, "{engine}: final count");
    assert_eq!(db.stats().documents, model.len() as u64, "{engine}: stats documents");
}

/// Limits around the cursors' 256-record refill, and past the end.
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
                let unbounded: Vec<_> =
                    coll.cursor(start, usize::MAX).unwrap().take(limit).collect();
                let limited: Vec<_> = coll.cursor(start, limit).unwrap().collect();
                assert_eq!(limited, unbounded, "{engine}: cursor {start} {limit}");
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
    fn durable_wiredtiger_recovers_to_model(ops in prop::collection::vec(arb_op(), 1..40)) {
        let dir = std::env::temp_dir().join(format!(
            "minidoc-prop-wt-{}-{:x}",
            std::process::id(),
            rand::random::<u64>()
        ));
        let config = DbConfig::at_dir(EngineKind::WiredTiger, &dir);
        let mut model: BTreeMap<String, usize> = BTreeMap::new();
        {
            let db = Database::open(config.clone()).unwrap();
            let coll = db.collection("t");
            for op in &ops {
                if let Op::Upsert(k, n) = op {
                    let key = format!("key{k:03}");
                    coll.upsert(&key, &payload(*n)).unwrap();
                    model.insert(key, *n);
                }
            }
        }
        {
            let db = Database::open(config).unwrap();
            let coll = db.collection("t");
            for (key, &n) in &model {
                prop_assert_eq!(coll.get(key).unwrap().unwrap(), payload(n));
            }
            prop_assert_eq!(coll.count(), model.len() as u64);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
