//! A durable minidoc job whose set-up fails leaves no data directory.
//!
//! `DocstoreClient::set_up` creates the job's `minidoc-job-*` directory
//! when it opens the database. The runtime calls `tear_down` after a failed
//! set-up, but a set-up that fails has no state to tear down, so the
//! directory must be removed on every exit from `set_up` itself: a load
//! that returns errors and a load that panics alike. A client keeps the
//! databases it loads for later jobs to copy; a failed load keeps nothing.

#![cfg(feature = "failpoints")]

use chronos_agent::{DocstoreClient, EvaluationClient, JobContext};
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

#[test]
fn failed_durable_set_up_removes_its_data_directory() {
    let _serial = FAILPOINTS.lock().unwrap_or_else(|p| p.into_inner());
    for engine in ["wiredtiger", "mmapv1"] {
        // A load whose log appends fail: set_up returns the error.
        fail::arm("minidoc.wal.append", Policy::ErrorTimes(1));
        let (ctx, dir) = durable_ctx(engine);
        let mut client = DocstoreClient::new();
        let err = client.set_up(&ctx).unwrap_err();
        fail::reset();
        assert!(err.contains("errors during data load"), "{engine}: {err}");
        client.tear_down(&ctx);
        assert!(!dir.exists(), "{engine}: {} left behind after a failed load", dir.display());

        // A load that panics: the directory goes with the unwinding set_up.
        fail::arm("minidoc.wal.append", Policy::Panic);
        let (ctx, dir) = durable_ctx(engine);
        let mut client = DocstoreClient::new();
        let panicked =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| client.set_up(&ctx)));
        fail::reset();
        assert!(panicked.is_err(), "{engine}: the armed panic fires during the load");
        client.tear_down(&ctx);
        assert!(!dir.exists(), "{engine}: {} left behind after a panicked load", dir.display());

        // The same job without the fault runs, and tear_down removes it.
        let (ctx, dir) = durable_ctx(engine);
        let mut client = DocstoreClient::new();
        client.set_up(&ctx).unwrap();
        assert!(dir.exists(), "{engine}: a durable job writes its directory");
        client.tear_down(&ctx);
        assert!(!dir.exists(), "{engine}: tear_down removes the directory");
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
