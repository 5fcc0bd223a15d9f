//! A durable minidoc job whose set-up fails leaves no data directory.
//!
//! `DocstoreClient::set_up` creates the job's `minidoc-job-*` directory,
//! and `TpccClient::set_up` its `minidoc-tpcc-*` one, when it opens the
//! database. The runtime calls `tear_down` after a failed set-up, but a
//! set-up that fails has no state to tear down, so the directory must be
//! removed on every exit from `set_up` itself: a load that returns errors
//! and a load that panics alike. A client keeps the databases it loads for
//! later jobs to copy; a failed load keeps nothing.

#![cfg(feature = "failpoints")]

use chronos_agent::{DocstoreClient, EvaluationClient, JobContext, TpccClient};
use chronos_json::obj;
use chronos_util::fail::{self, Policy};
use chronos_util::Id;

/// Failpoints are process-wide: the tests arm them one at a time.
static FAILPOINTS: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn durable_ctx(engine: &str) -> (JobContext, std::path::PathBuf) {
    let job_id = Id::generate();
    let dir = std::env::temp_dir().join(format!("minidoc-job-{}-{job_id}", std::process::id()));
    let ctx = JobContext::new(
        job_id,
        obj! {
            "engine" => engine,
            "durability" => true,
            "threads" => 2,
            "record_count" => 200,
            "operation_count" => 100,
        },
    );
    (ctx, dir)
}

fn durable_tpcc_ctx(engine: &str) -> (JobContext, std::path::PathBuf) {
    let job_id = Id::generate();
    let dir = std::env::temp_dir().join(format!("minidoc-tpcc-{}-{job_id}", std::process::id()));
    let params = obj! {
        "engine" => engine,
        "durability" => true,
        "warehouses" => 1,
        "transaction_count" => 50,
    };
    (JobContext::new(job_id, params), dir)
}

/// Fails a durable set-up of `client` on `engine` once with an error and
/// once with a panic in its load, then runs it whole: no exit leaves the
/// job's data directory behind. A failed load's error contains
/// `load_error`.
fn set_ups_remove_their_data_directory(
    client: impl Fn() -> Box<dyn EvaluationClient>,
    engine: &str,
    ctx: impl Fn(&str) -> (JobContext, std::path::PathBuf),
    load_error: &str,
) {
    let name = format!("{} on {engine}", client().name());
    let ctx = || ctx(engine);
    // A load whose log appends fail: set_up returns the error.
    fail::arm("minidoc.wal.append", Policy::ErrorTimes(1));
    let (job, dir) = ctx();
    let mut failed = client();
    let err = failed.set_up(&job).unwrap_err();
    fail::reset();
    assert!(err.contains(load_error), "{name}: {err}");
    failed.tear_down(&job);
    assert!(!dir.exists(), "{name}: {} left behind after a failed load", dir.display());

    // A load that panics: the directory goes with the unwinding set_up.
    fail::arm("minidoc.wal.append", Policy::Panic);
    let (job, dir) = ctx();
    let mut panicking = client();
    let panicked =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| panicking.set_up(&job)));
    fail::reset();
    assert!(panicked.is_err(), "{name}: the armed panic fires during the load");
    panicking.tear_down(&job);
    assert!(!dir.exists(), "{name}: {} left behind after a panicked load", dir.display());

    // The same job without the fault runs, and tear_down removes it.
    let (job, dir) = ctx();
    let mut whole = client();
    whole.set_up(&job).unwrap();
    assert!(dir.exists(), "{name}: a durable job writes its directory");
    whole.tear_down(&job);
    assert!(!dir.exists(), "{name}: tear_down removes the directory");
}

#[test]
fn failed_durable_set_up_removes_its_data_directory() {
    let _serial = FAILPOINTS.lock().unwrap_or_else(|p| p.into_inner());
    for engine in ["wiredtiger", "mmapv1"] {
        set_ups_remove_their_data_directory(
            || Box::new(DocstoreClient::new()),
            engine,
            durable_ctx,
            "errors during data load",
        );
    }
}

#[test]
fn failed_durable_tpcc_set_up_removes_its_data_directory() {
    let _serial = FAILPOINTS.lock().unwrap_or_else(|p| p.into_inner());
    for engine in ["wiredtiger", "mmapv1"] {
        set_ups_remove_their_data_directory(
            || Box::new(TpccClient::new()),
            engine,
            durable_tpcc_ctx,
            "minidoc.wal.append",
        );
    }
}

#[test]
fn a_failed_load_keeps_no_image() {
    let _serial = FAILPOINTS.lock().unwrap_or_else(|p| p.into_inner());
    let ctx = || {
        JobContext::new(
            Id::generate(),
            obj! {
                "engine" => "mmapv1",
                "threads" => 1,
                "record_count" => 200,
                "operation_count" => 100,
            },
        )
    };
    let set_up = |client: &mut DocstoreClient| {
        let ctx = ctx();
        client.set_up(&ctx).unwrap();
        let data = client.execute(&ctx).unwrap();
        client.tear_down(&ctx);
        data.get("set_up").and_then(chronos_json::Value::as_str).unwrap().to_string()
    };
    let mut client = DocstoreClient::new();
    fail::arm("minidoc.extent.write", Policy::ErrorTimes(1));
    let failed = ctx();
    let err = client.set_up(&failed).unwrap_err();
    fail::reset();
    assert!(err.contains("errors during data load"), "{err}");
    client.tear_down(&failed);
    assert_eq!(set_up(&mut client), "load", "the failed load left no image to copy");
    assert_eq!(set_up(&mut client), "clone");
}
