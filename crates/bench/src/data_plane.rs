//! E9 — the data-plane read path: engine scans and predicate pushdown on
//! the encoded bytes for non-indexed finds.
//!
//! The scan runner visits raw records where the engine keeps them (no
//! decode); the find runner goes through `Collection::find`, which
//! evaluates filters on the encoded bytes and decodes only the matches.
//! Agreement between pushdown and decode + `Filter::matches` is
//! property-tested in `crates/minidoc/tests/pushdown.rs`, not here.

use std::time::Instant;

use chronos_json::obj;
use minidoc::{Collection, Database, DbConfig, EngineKind, Filter};

/// Documents per YCSB-E-style scan.
pub const SCAN_LEN: usize = 50;
/// Distinct `group` values; an equality filter on `group` therefore
/// matches ~1% of the collection.
pub const GROUPS: i64 = 100;

/// One measured workload leg.
#[derive(Debug, Clone, Copy)]
pub struct Report {
    /// Operations executed (scans or find queries).
    pub ops: u64,
    /// Rows the operations touched/returned.
    pub rows: u64,
    /// Wall time.
    pub secs: f64,
}

impl Report {
    /// Operations per second.
    pub fn ops_per_sec(&self) -> f64 {
        self.ops as f64 / self.secs.max(1e-9)
    }
}

/// Loads `records` YCSB-style documents into an in-memory database.
pub fn load(engine: &str, records: usize, field_length: usize) -> Database {
    let kind = EngineKind::parse(engine).expect("engine name");
    let db = Database::open(DbConfig::in_memory(kind)).unwrap();
    let coll = db.collection("usertable");
    let payload = "deadbeef".repeat(field_length.div_ceil(8));
    for i in 0..records {
        coll.insert(
            &key_for(i),
            &obj! {
                "group" => (i as i64) % GROUPS,
                "flag" => i % 7 == 0,
                "name" => format!("user-{i}"),
                "payload" => payload.as_str(),
            },
        )
        .unwrap();
    }
    db
}

fn key_for(i: usize) -> String {
    format!("user{i:08}")
}

/// xorshift64 for deterministic scan start keys.
fn next_rand(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Raw scans: seeded key ranges visited as raw records, no decode.
pub fn run_scans_raw(coll: &Collection, scans: usize) -> Report {
    let records = coll.count() as usize;
    let mut state = 0x243F_6A88_85A3_08D3u64;
    let mut rows = 0u64;
    let start = Instant::now();
    for _ in 0..scans {
        let first = (next_rand(&mut state) as usize) % records.max(1);
        coll.scan_raw(&key_for(first), SCAN_LEN, &mut |_, _| {
            rows += 1;
            Ok(())
        })
        .unwrap();
    }
    Report { ops: scans as u64, rows, secs: start.elapsed().as_secs_f64() }
}

/// Pushdown find throughput over a rotating set of ~1%-selective filters
/// (no index on `group`, so this is the full-scan pushdown path).
pub fn run_finds_pushdown(coll: &Collection, finds: usize) -> Report {
    let mut rows = 0u64;
    let start = Instant::now();
    for i in 0..finds {
        let filter = Filter::eq("group", (i as i64) % GROUPS);
        rows += coll.find(&filter).unwrap().len() as u64;
    }
    Report { ops: finds as u64, rows, secs: start.elapsed().as_secs_f64() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runners_touch_the_expected_rows() {
        for engine in ["wiredtiger", "mmapv1"] {
            let db = load(engine, 300, 64);
            let coll = db.collection("usertable");
            // 300 records over 100 groups: every filter matches exactly 3.
            let finds = run_finds_pushdown(&coll, 10);
            assert_eq!((finds.ops, finds.rows), (10, 30), "engine {engine}");
            let scans = run_scans_raw(&coll, 20);
            assert_eq!(scans.ops, 20);
            assert!(scans.rows > 0 && scans.rows <= 20 * SCAN_LEN as u64, "engine {engine}");
        }
    }
}
