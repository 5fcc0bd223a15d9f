//! Golden `engine_stats` of small seeded minidoc jobs.
//!
//! The storage figures a job reports — how many documents it left, their
//! encoded size, what the engine keeps for them (wiredTiger's compressed
//! blocks, mmapv1's padded slots), the log bytes, and mmapv1's in-place
//! updates and record moves — are part of what the paper's demo compares.
//! One single-threaded job per engine × YCSB workload a–f, with a fixed
//! seed, must report the same figures on every commit.

use chronos_agent::{DocstoreClient, EvaluationClient, JobContext};
use chronos_json::{obj, Value};
use chronos_util::Id;

const FIELDS: [&str; 6] =
    ["documents", "logical_bytes", "stored_bytes", "wal_bytes", "inplace_updates", "record_moves"];

fn engine_stats(engine: &str, workload: &str) -> [u64; 6] {
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
    let mut client = DocstoreClient::new();
    client.set_up(&ctx).unwrap();
    client.warm_up(&ctx).unwrap();
    let data = client.execute(&ctx).unwrap();
    client.tear_down(&ctx);
    assert_eq!(data.pointer("/total_errors").and_then(Value::as_u64), Some(0));
    FIELDS.map(|field| {
        data.pointer(&format!("/engine_stats/{field}"))
            .and_then(Value::as_u64)
            .unwrap_or_else(|| panic!("engine_stats/{field} missing"))
    })
}

#[test]
fn engine_stats_of_seeded_jobs_are_pinned() {
    let expected: &[(&str, [u64; 6])] = &[
        ("wiredtiger/a", [300, 327600, 220510, 1024910, 607, 0]),
        ("wiredtiger/b", [300, 327600, 220739, 402280, 56, 0]),
        ("wiredtiger/c", [300, 327600, 220303, 339000, 0, 0]),
        ("wiredtiger/d", [354, 386568, 259523, 400020, 0, 0]),
        ("wiredtiger/e", [352, 384384, 257738, 397760, 0, 0]),
        ("wiredtiger/f", [300, 327600, 220510, 1024910, 607, 0]),
        ("mmapv1/a", [300, 327600, 614400, 1024910, 607, 0]),
        ("mmapv1/b", [300, 327600, 614400, 402280, 56, 0]),
        ("mmapv1/c", [300, 327600, 614400, 339000, 0, 0]),
        ("mmapv1/d", [354, 386568, 724992, 400020, 0, 0]),
        ("mmapv1/e", [352, 384384, 720896, 397760, 0, 0]),
        ("mmapv1/f", [300, 327600, 614400, 1024910, 607, 0]),
    ];
    let mut actual = Vec::new();
    for engine in ["wiredtiger", "mmapv1"] {
        for workload in ["a", "b", "c", "d", "e", "f"] {
            actual.push((format!("{engine}/{workload}"), engine_stats(engine, workload)));
        }
    }
    let table: String =
        actual.iter().map(|(name, stats)| format!("        (\"{name}\", {stats:?}),\n")).collect();
    let moved: Vec<&str> = actual
        .iter()
        .zip(expected)
        .filter(|((name, stats), (want_name, want))| name != want_name || stats != want)
        .map(|((name, _), _)| name.as_str())
        .collect();
    assert!(
        actual.len() == expected.len() && moved.is_empty(),
        "engine_stats {FIELDS:?} moved for {moved:?}; they now read:\n{table}"
    );
}
