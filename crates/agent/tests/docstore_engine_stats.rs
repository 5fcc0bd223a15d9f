//! Golden `engine_stats` of small seeded minidoc jobs.
//!
//! The storage figures a job reports — how many documents it left, their
//! encoded size, what the engine keeps for them (wiredTiger's compressed
//! blocks, mmapv1's padded slots), the log bytes, and mmapv1's in-place
//! updates and record moves — are part of what the paper's demo compares.
//! So are the operations the engine counts (inserts, updates, reads and
//! scans, each YCSB scan exactly once, the warm-up's reads included).
//! One single-threaded job per engine × YCSB workload a–f, with a fixed
//! seed, must report the same figures on every commit. A client keeps the
//! loads it ran and hands later jobs of the same load a copy, and a copy
//! must report what a load reports: the pinned table holds for twelve jobs
//! on fresh clients and for the same twelve run through one client, ten of
//! them on copies.

use chronos_agent::{DocstoreClient, EvaluationClient, JobContext};
use chronos_json::{obj, Value};
use chronos_util::Id;

const FIELDS: [&str; 10] = [
    "documents",
    "logical_bytes",
    "stored_bytes",
    "wal_bytes",
    "inplace_updates",
    "record_moves",
    "inserts",
    "updates",
    "reads",
    "scans",
];

/// Runs one seeded job on `client`; its `engine_stats` and how its set-up
/// got its data.
fn engine_stats(client: &mut DocstoreClient, engine: &str, workload: &str) -> ([u64; 10], String) {
    let ctx = JobContext::new(
        Id::generate(),
        obj! {
            "engine" => engine,
            "workload" => workload,
            "threads" => 1,
            "record_count" => 300,
            "operation_count" => 1200,
            "field_length" => 100,
            "seed" => 7,
        },
    );
    client.set_up(&ctx).unwrap();
    client.warm_up(&ctx).unwrap();
    let data = client.execute(&ctx).unwrap();
    client.tear_down(&ctx);
    assert_eq!(data.pointer("/total_errors").and_then(Value::as_u64), Some(0));
    let stats = FIELDS.map(|field| {
        data.pointer(&format!("/engine_stats/{field}"))
            .and_then(Value::as_u64)
            .unwrap_or_else(|| panic!("engine_stats/{field} missing"))
    });
    let set_up = data.get("set_up").and_then(Value::as_str).expect("set_up").to_string();
    (stats, set_up)
}

/// The twelve jobs, engine-major like the pinned table, each on a fresh
/// client or all on one; their stats and set-ups.
fn run_all(one_client: bool) -> Vec<(String, [u64; 10], String)> {
    let mut out = Vec::new();
    let mut client = DocstoreClient::new();
    for engine in ["wiredtiger", "mmapv1"] {
        for workload in ["a", "b", "c", "d", "e", "f"] {
            if !one_client {
                client = DocstoreClient::new();
            }
            let (stats, set_up) = engine_stats(&mut client, engine, workload);
            out.push((format!("{engine}/{workload}"), stats, set_up));
        }
    }
    out
}

/// Checks `actual` against the pinned table, printing the table it reads.
fn assert_pinned(pass: &str, actual: &[(String, [u64; 10], String)]) {
    let expected: &[(&str, [u64; 10])] = &[
        ("wiredtiger/a", [300, 327600, 220510, 1024910, 607, 0, 300, 607, 623, 0]),
        ("wiredtiger/b", [300, 327600, 220739, 402280, 56, 0, 300, 56, 1174, 0]),
        ("wiredtiger/c", [300, 327600, 220303, 339000, 0, 0, 300, 0, 1230, 0]),
        ("wiredtiger/d", [354, 386568, 259523, 400020, 0, 0, 354, 0, 1176, 0]),
        ("wiredtiger/e", [352, 384384, 257738, 397760, 0, 0, 352, 0, 30, 1148]),
        ("wiredtiger/f", [300, 327600, 220510, 1024910, 607, 0, 300, 607, 1230, 0]),
        ("mmapv1/a", [300, 327600, 614400, 1024910, 607, 0, 300, 607, 623, 0]),
        ("mmapv1/b", [300, 327600, 614400, 402280, 56, 0, 300, 56, 1174, 0]),
        ("mmapv1/c", [300, 327600, 614400, 339000, 0, 0, 300, 0, 1230, 0]),
        ("mmapv1/d", [354, 386568, 724992, 400020, 0, 0, 354, 0, 1176, 0]),
        ("mmapv1/e", [352, 384384, 720896, 397760, 0, 0, 352, 0, 30, 1148]),
        ("mmapv1/f", [300, 327600, 614400, 1024910, 607, 0, 300, 607, 1230, 0]),
    ];
    let table: String = actual
        .iter()
        .map(|(name, stats, _)| format!("        (\"{name}\", {stats:?}),\n"))
        .collect();
    let moved: Vec<&str> = actual
        .iter()
        .zip(expected)
        .filter(|((name, stats, _), (want_name, want))| name != want_name || stats != want)
        .map(|((name, _, _), _)| name.as_str())
        .collect();
    assert!(
        actual.len() == expected.len() && moved.is_empty(),
        "{pass}: engine_stats {FIELDS:?} moved for {moved:?}; they now read:\n{table}"
    );
}

#[test]
fn engine_stats_of_seeded_jobs_are_pinned() {
    let actual = run_all(false);
    assert_pinned("fresh clients", &actual);
    assert!(actual.iter().all(|(_, _, set_up)| set_up == "load"), "a fresh client loads");
}

#[test]
fn engine_stats_of_seeded_jobs_on_copies_are_pinned() {
    // One client for all twelve: each engine's first job loads, the
    // other five of that engine get copies of its image.
    let actual = run_all(true);
    assert_pinned("one client", &actual);
    let set_ups: Vec<&str> = actual.iter().map(|(_, _, set_up)| set_up.as_str()).collect();
    let copies = set_ups.iter().filter(|&&s| s == "clone").count();
    assert_eq!(copies, 10, "set-ups {set_ups:?}");
    assert_eq!((set_ups[0], set_ups[6]), ("load", "load"), "set-ups {set_ups:?}");
}
