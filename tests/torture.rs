#![cfg(feature = "failpoints")]

//! Crash-recovery torture: kill the storage layers at every write-path
//! failpoint (clean errors and torn writes at varied offsets), "crash" by
//! dropping the handle, reopen, and verify the durability contract:
//!
//! * every **acknowledged** write (the call returned `Ok`) survives recovery;
//! * a **failed** write may or may not survive (the fault can land after the
//!   bytes hit the disk) — but recovery itself must always succeed, and the
//!   store must keep working after reopen;
//! * torn tails are discarded, never misread as corruption.
//!
//! Every assertion message carries the active fault seed so a failure
//! reproduces with `CHRONOS_FAIL_SEED=<seed> cargo test --features
//! failpoints --test torture`.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use chronos::api::WireDecode;
use chronos::core::analysis;
use chronos::core::auth::Role;
use chronos::core::model::{Job, JobState};
use chronos::core::params::{ParamAssignments, ParamDef, ParamType};
use chronos::core::scheduler::SchedulerConfig;
use chronos::core::store::MetadataStore;
use chronos::core::ChronosControl;
use chronos::json::{obj, Value};
use chronos::util::fail::{self, Policy};
use chronos::util::SystemClock;
use minidoc::{Database, DbConfig, EngineKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The failpoint registry is process-global; torture scenarios must not
/// overlap. The guard also resets the registry and seeds it for replay.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let guard = match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    fail::reset();
    fail::set_seed(torture_seed());
    guard
}

/// Seed for this run: `CHRONOS_FAIL_SEED` if set, a fixed default otherwise.
fn torture_seed() -> u64 {
    std::env::var("CHRONOS_FAIL_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0xC0FFEE)
}

/// Context string appended to every assertion.
fn replay() -> String {
    format!("(replay with CHRONOS_FAIL_SEED={})", fail::seed())
}

// ---------------------------------------------------------------------------
// Chronos Control metadata store
// ---------------------------------------------------------------------------

/// One crash round against the metadata store: write until the armed fault
/// fires, then reopen and check that exactly the acknowledged documents are
/// recovered (the in-flight one may legitimately be on either side).
fn store_crash_round(dir: &std::path::Path, round: u64, policy: Policy) {
    let path = dir.join("control.log");
    let store = MetadataStore::open(&path).unwrap_or_else(|e| {
        panic!("round {round}: reopen before faulting failed: {e} {}", replay())
    });

    // Everything already acknowledged in earlier rounds must still be there.
    let prior: BTreeSet<String> = store.ids("job").into_iter().collect();

    fail::arm("core.store.wal.append", policy.clone());
    let mut acked: Vec<String> = Vec::new();
    let mut failed: Option<String> = None;
    for i in 0..64u64 {
        let id = format!("r{round}-doc{i}");
        match store.put("job", &id, obj! {"round" => round as i64, "i" => i as i64}) {
            Ok(()) => acked.push(id),
            Err(_) => {
                failed = Some(id);
                break; // the store is poisoned: crash here
            }
        }
    }
    fail::disarm("core.store.wal.append");
    assert!(
        failed.is_some(),
        "round {round}: fault {policy:?} never fired in 64 writes {}",
        replay()
    );
    // The sticky WAL failure must flip the readiness probe: this is what
    // `/readyz` reports so the fleet stops routing work here.
    assert!(!store.healthy(), "round {round}: failed store still reports healthy {}", replay());
    drop(store); // crash

    // A clean reopen restores health.
    let reopened = MetadataStore::open(&path)
        .unwrap_or_else(|e| panic!("round {round}: recovery failed: {e} {}", replay()));
    assert!(reopened.healthy(), "round {round}: recovered store must be healthy {}", replay());
    drop(reopened);

    let recovered = MetadataStore::open(&path)
        .unwrap_or_else(|e| panic!("round {round}: recovery failed: {e} {}", replay()));
    let ids: BTreeSet<String> = recovered.ids("job").into_iter().collect();
    for id in prior.iter().chain(acked.iter()) {
        assert!(
            ids.contains(id),
            "round {round}: acknowledged doc {id} lost in crash recovery {}",
            replay()
        );
    }
    // The unacknowledged write may have made it or not; anything else is a
    // bug. (ids = prior ∪ acked ∪ maybe{failed})
    let mut allowed: BTreeSet<String> = prior;
    allowed.extend(acked.iter().cloned());
    if let Some(f) = &failed {
        allowed.insert(f.clone());
    }
    for id in &ids {
        assert!(
            allowed.contains(id),
            "round {round}: recovery resurrected unknown doc {id} {}",
            replay()
        );
    }
    // The store must be fully usable after recovery.
    recovered
        .put("job", &format!("r{round}-post"), obj! {"post" => true})
        .unwrap_or_else(|e| panic!("round {round}: write after recovery failed: {e} {}", replay()));
}

#[test]
fn store_survives_wal_append_crashes() {
    let _guard = serial();
    let dir = tempdir("torture-store-append");
    let mut rng = StdRng::seed_from_u64(torture_seed());

    let mut round = 0u64;
    // Clean injected errors at random points in the write stream.
    for _ in 0..3 {
        let after = rng.gen_range(1..20u64);
        store_crash_round(&dir, round, Policy::ErrorEveryNth(after));
        round += 1;
    }
    // Torn writes at varied keep offsets: 0 (nothing persisted), 1 byte,
    // mid-record, and some seed-driven cuts. A put frame is tens of bytes,
    // so large keeps also exercise the keep > len clamp.
    for keep in [0usize, 1, 7, rng.gen_range(2..40), rng.gen_range(2..40), 4096] {
        store_crash_round(&dir, round, Policy::Torn { keep });
        round += 1;
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn store_survives_compaction_faults() {
    let _guard = serial();
    let dir = tempdir("torture-store-compact");
    let path = dir.join("control.log");

    let store = MetadataStore::open(&path).unwrap();
    for i in 0..50 {
        let id = format!("doc{}", i % 10); // overwrites → garbage to compact
        store.put("job", &id, obj! {"i" => i as i64}).unwrap();
    }
    let live = store.live_docs();

    for site in ["core.store.compact.sync", "core.store.compact.rename", "core.store.dir.fsync"] {
        fail::arm(site, Policy::ErrorTimes(1));
        let err = store.compact();
        fail::disarm(site);
        assert!(err.is_err(), "compaction with faulted {site} should fail {}", replay());
        // A failed compaction must not lose anything, with or without a
        // crash in between.
        assert_eq!(store.live_docs(), live, "{site}: live docs changed {}", replay());
        drop(MetadataStore::open(&path).unwrap_or_else(|e| {
            panic!("{site}: recovery after failed compaction broke: {e} {}", replay())
        }));
    }

    // The directory fsync failed after the rename, which poisons the store:
    // reopen, and with faults cleared that store compacts fine and the
    // result is durable across reopen.
    drop(store);
    let store = MetadataStore::open(&path).unwrap();
    store.compact().expect("clean compaction");
    drop(store);
    let recovered = MetadataStore::open(&path).unwrap();
    assert_eq!(recovered.live_docs(), live, "docs lost across compaction + reopen {}", replay());
    std::fs::remove_dir_all(&dir).ok();
}

/// Once compaction has renamed the snapshot over the log, the open handle
/// names the unlinked old file. A failure to sync the directory there must
/// refuse every later write, as a failed append does, instead of
/// acknowledging writes a restart will not find.
#[test]
fn a_failed_directory_sync_after_compaction_is_sticky() {
    let _guard = serial();
    let dir = tempdir("torture-compact-dirsync");
    let path = dir.join("control.log");
    let store = MetadataStore::open(&path).unwrap();
    for i in 0..20 {
        store.put("job", &format!("doc{}", i % 5), obj! {"i" => i as i64}).unwrap();
    }
    let acknowledged = store.list("job");
    fail::arm("core.store.dir.fsync", Policy::ErrorTimes(1));
    let compacted = store.compact();
    fail::disarm("core.store.dir.fsync");
    let compaction_error = compacted.expect_err("the injected fsync fault never fired").to_string();
    let put = store.put("job", "after", obj! {"late" => true});
    let refused = put.expect_err("a put after the failed compaction was acknowledged");
    assert_eq!(refused.to_string(), compaction_error, "refused with the compaction's error");
    assert!(!store.healthy(), "the store still reports healthy {}", replay());
    drop(store);
    let reopened = MetadataStore::open(&path).unwrap();
    assert!(reopened.healthy());
    assert_eq!(reopened.list("job"), acknowledged, "reopen lost or invented a doc {}", replay());
    std::fs::remove_dir_all(&dir).ok();
}

/// A claim and an upload are each one record. Cut either by failing its
/// WAL append (every k-th), crash, reopen and retry with the same key and
/// attempt: every materialized job is listed by its evaluation exactly
/// once (the membership the reopened control serves: the stored
/// evaluation document carries no ids), and there is one result per
/// finished job, named by that job.
#[test]
fn claims_and_uploads_survive_a_failed_append_exactly_once() {
    let _guard = serial();
    for k in 1..=3u64 {
        let dir = tempdir(&format!("torture-atomic-{k}"));
        let path = dir.join("control.log");
        let open = || {
            let store = MetadataStore::open(&path).unwrap();
            ChronosControl::new(store, Arc::new(SystemClock), SchedulerConfig::default())
        };
        let mut control = open();
        let x = ParamDef::new("x", "", ParamType::Interval { min: 0, max: 3, step: 1 }, 0.into());
        let system = control.register_system("sys", "", vec![x.unwrap()], vec![]).unwrap();
        let deployment = control.create_deployment(system.id, "node", "1").unwrap();
        let owner = control.create_user("ada", "pw", Role::Member).unwrap();
        let project = control.create_project("p", "", owner.id).unwrap();
        let assignments = ParamAssignments::new().sweep_all("x");
        let experiment =
            control.create_experiment(project.id, system.id, "e", "", assignments).unwrap();
        let evaluation = control.create_evaluation(experiment.id).unwrap();

        fail::arm("core.store.wal.append", Policy::ErrorEveryNth(k));
        let claimed = control.claim_next_job(deployment.id, Some("claim"));
        fail::disarm("core.store.wal.append");
        if claimed.is_err() {
            drop(control); // crash
            control = open();
        }
        let job = control
            .claim_next_job(deployment.id, Some("claim"))
            .unwrap_or_else(|e| panic!("k={k}: retried claim failed: {e} {}", replay()))
            .expect("a job to claim");
        let upload = |control: &ChronosControl| {
            let data = obj! {"throughput_ops_per_sec" => 1.0};
            control.finish_job(job.id, data, b"zip".to_vec(), Some(job.attempts), Some("upload"))
        };
        fail::arm("core.store.wal.append", Policy::ErrorEveryNth(k));
        let _ = upload(&control);
        fail::disarm("core.store.wal.append");
        drop(control); // crash
        let control = open();
        upload(&control)
            .unwrap_or_else(|e| panic!("k={k}: retried upload failed: {e} {}", replay()));
        let results = control.count_results();
        let members = control.get_evaluation(evaluation.id).unwrap().job_ids;
        drop(control);

        let store = MetadataStore::open(&path).unwrap();
        let jobs: Vec<Job> = store.list("job").iter().map(|d| Job::decode(d).unwrap()).collect();
        for job in jobs.iter().filter(|job| job.point_index.is_some()) {
            assert_eq!(job.evaluation_id, evaluation.id, "k={k}: job {} {}", job.id, replay());
            let listed = members.iter().filter(|id| **id == job.id).count();
            assert_eq!(listed, 1, "k={k}: job {} listed {listed} times {}", job.id, replay());
        }
        let finished = jobs.iter().filter(|job| job.state == JobState::Finished).count();
        assert_eq!(results, finished, "k={k}: results vs finished jobs {}", replay());
        for result in store.list("result") {
            let field = |name| result.get(name).and_then(Value::as_str).unwrap().to_string();
            let named = jobs.iter().any(|job| {
                job.id.to_base32() == field("job_id")
                    && job.result_id.map(|id| id.to_base32()) == Some(field("id"))
            });
            assert!(named, "k={k}: result {} is not named by its job {}", field("id"), replay());
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// DESIGN §5i's writer rule on an error: a put whose WAL append fails has
/// already reached memory, so its write still moves the evaluation's
/// version — a cached read of the evaluation must not outlive the change.
#[test]
fn failed_put_still_moves_its_evaluation_version() {
    let _guard = serial();
    let dir = tempdir("torture-control-version");
    let store = MetadataStore::open(&dir.join("control.log")).unwrap();
    let control = ChronosControl::new(store, Arc::new(SystemClock), SchedulerConfig::default());
    let system = control.register_system("sys", "", vec![], vec![]).unwrap();
    let deployment = control.create_deployment(system.id, "node", "1").unwrap();
    let owner = control.create_user("ada", "pw", Role::Member).unwrap();
    let project = control.create_project("p", "", owner.id).unwrap();
    let assignments = ParamAssignments::new();
    let experiment =
        control.create_experiment(project.id, system.id, "e", "", assignments).unwrap();
    let evaluation = control.create_evaluation(experiment.id).unwrap();
    let job = control.claim_next_job(deployment.id, None).unwrap().unwrap();
    let versions = || (control.evaluation_version(evaluation.id), control.state_version());
    let before = versions();

    fail::arm("core.store.wal.append", Policy::ErrorTimes(1));
    let heartbeat = control.heartbeat(job.id, Some(40), None);
    fail::disarm("core.store.wal.append");
    assert!(heartbeat.is_err(), "the injected append fault never fired {}", replay());
    assert_eq!(control.get_job(job.id).unwrap().progress, 40, "the put reached memory");
    let after = versions();
    assert!(
        after.0 > before.0 && after.1 > before.1,
        "a failed put moved no version: {before:?} -> {after:?} {}",
        replay()
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The other half of the writer rule: a write refused by a store that has
/// already failed put nothing into memory, so it derives nothing either —
/// no columnar row and no summary entry for a job the store still holds
/// running without a result.
#[test]
fn a_refused_write_derives_nothing() {
    let _guard = serial();
    let dir = tempdir("torture-control-refused");
    let store = MetadataStore::open(&dir.join("control.log")).unwrap();
    let control = ChronosControl::new(store, Arc::new(SystemClock), SchedulerConfig::default());
    let system = control.register_system("sys", "", vec![], vec![]).unwrap();
    let deployment = control.create_deployment(system.id, "node", "1").unwrap();
    let owner = control.create_user("ada", "pw", Role::Member).unwrap();
    let project = control.create_project("p", "", owner.id).unwrap();
    let assignments = ParamAssignments::new();
    let experiment =
        control.create_experiment(project.id, system.id, "e", "", assignments).unwrap();
    let evaluation = control.create_evaluation(experiment.id).unwrap();
    let job = control.claim_next_job(deployment.id, None).unwrap().unwrap();

    fail::arm("core.store.wal.append", Policy::ErrorTimes(1));
    let poisoning = control.heartbeat(job.id, Some(40), None);
    fail::disarm("core.store.wal.append");
    assert!(poisoning.is_err(), "the injected append fault never fired {}", replay());
    let data = obj! {"throughput_ops_per_sec" => 1.0};
    let refused = control.finish_job(job.id, data, vec![], None, None);
    assert!(refused.is_err(), "a failed store accepted a write {}", replay());

    assert_eq!(control.get_job(job.id).unwrap().state, JobState::Running);
    assert_eq!(control.count_results(), 0);
    let rows = control.columnar_table(evaluation.id).unwrap().rows();
    assert_eq!(rows, control.count_results(), "rows for results the store never took {}", replay());
    let summary = analysis::summary_table(&control, evaluation.id).unwrap();
    let summary = chronos::json::parse(&summary).unwrap();
    let listed = summary.pointer("/rows").and_then(Value::as_array).map_or(0, Vec::len);
    assert_eq!(listed, 0, "the summary lists a job with no result: {summary} {}", replay());
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// minidoc engines
// ---------------------------------------------------------------------------

/// One crash round against a durable minidoc database.
fn minidoc_crash_round(kind: EngineKind, dir: &std::path::Path, round: u64, policy: Policy) {
    let site = match kind {
        EngineKind::WiredTiger => "minidoc.wal.append",
        EngineKind::MmapV1 => "minidoc.extent.write",
    };
    let db = Database::open(DbConfig::at_dir(kind, dir))
        .unwrap_or_else(|e| panic!("{kind} round {round}: open failed: {e} {}", replay()));
    let coll = db.collection("bench");
    let prior: BTreeSet<String> =
        coll.scan("", usize::MAX).unwrap().into_iter().map(|(k, _)| k).collect();

    fail::arm(site, policy.clone());
    let mut acked: Vec<String> = Vec::new();
    let mut failed: Option<String> = None;
    for i in 0..64u64 {
        let key = format!("r{round}-k{i}");
        match coll.insert(&key, &obj! {"round" => round as i64, "i" => i as i64}) {
            Ok(()) => acked.push(key),
            Err(_) => {
                failed = Some(key);
                break; // crash at the first injected fault
            }
        }
    }
    fail::disarm(site);
    assert!(failed.is_some(), "{kind} round {round}: fault {policy:?} never fired {}", replay());
    drop(coll);
    drop(db); // crash: no checkpoint, recovery comes from the journal

    let db = Database::open(DbConfig::at_dir(kind, dir))
        .unwrap_or_else(|e| panic!("{kind} round {round}: recovery failed: {e} {}", replay()));
    let coll = db.collection("bench");
    let keys: BTreeSet<String> =
        coll.scan("", usize::MAX).unwrap().into_iter().map(|(k, _)| k).collect();
    for key in prior.iter().chain(acked.iter()) {
        assert!(
            keys.contains(key),
            "{kind} round {round}: acknowledged doc {key} lost {}",
            replay()
        );
    }
    let mut allowed = prior;
    allowed.extend(acked.iter().cloned());
    if let Some(f) = &failed {
        allowed.insert(f.clone());
    }
    for key in &keys {
        assert!(
            allowed.contains(key),
            "{kind} round {round}: recovery resurrected unknown doc {key} {}",
            replay()
        );
    }
    coll.insert(&format!("r{round}-post"), &obj! {"post" => true}).unwrap_or_else(|e| {
        panic!("{kind} round {round}: write after recovery failed: {e} {}", replay())
    });
    db.checkpoint().unwrap_or_else(|e| {
        panic!("{kind} round {round}: checkpoint after recovery failed: {e} {}", replay())
    });
}

#[test]
fn wiredtiger_survives_wal_crashes() {
    let _guard = serial();
    let dir = tempdir("torture-wt");
    let mut rng = StdRng::seed_from_u64(torture_seed() ^ 0x77);
    let mut round = 0u64;
    for _ in 0..2 {
        let after = rng.gen_range(1..16u64);
        minidoc_crash_round(EngineKind::WiredTiger, &dir, round, Policy::ErrorEveryNth(after));
        round += 1;
    }
    for keep in [0usize, 3, rng.gen_range(1..64), 4096] {
        minidoc_crash_round(EngineKind::WiredTiger, &dir, round, Policy::Torn { keep });
        round += 1;
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mmapv1_survives_write_faults() {
    let _guard = serial();
    let dir = tempdir("torture-mm");
    let mut rng = StdRng::seed_from_u64(torture_seed() ^ 0x99);
    for round in 0..3 {
        let after = rng.gen_range(1..16u64);
        minidoc_crash_round(EngineKind::MmapV1, &dir, round, Policy::ErrorEveryNth(after));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoint_rename_failure_preserves_journal() {
    let _guard = serial();
    for kind in [EngineKind::WiredTiger, EngineKind::MmapV1] {
        let dir = tempdir(&format!("torture-ckpt-{kind}"));
        let db = Database::open(DbConfig::at_dir(kind, &dir)).unwrap();
        let coll = db.collection("bench");
        for i in 0..20 {
            coll.insert(&format!("k{i}"), &obj! {"i" => i as i64}).unwrap();
        }

        fail::arm("minidoc.checkpoint.rename", Policy::ErrorTimes(1));
        let err = db.checkpoint();
        fail::disarm("minidoc.checkpoint.rename");
        assert!(err.is_err(), "{kind}: checkpoint with faulted rename should fail {}", replay());
        drop(coll);
        drop(db); // crash before any successful checkpoint

        // The journal was not truncated, so recovery still sees every write.
        let db = Database::open(DbConfig::at_dir(kind, &dir)).unwrap_or_else(|e| {
            panic!("{kind}: recovery after failed checkpoint broke: {e} {}", replay())
        });
        let coll = db.collection("bench");
        let n = coll.scan("", usize::MAX).unwrap().len();
        assert_eq!(n, 20, "{kind}: writes lost after failed checkpoint {}", replay());
        // And a clean checkpoint still works afterwards.
        db.checkpoint().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}

fn tempdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("chronos-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}
