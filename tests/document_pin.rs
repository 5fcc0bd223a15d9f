//! Pins what the control plane writes and serves for jobs and
//! evaluations, byte for byte, across a whole lifecycle: a grid evaluation
//! and an adaptive one driven over a mock clock through claims (one
//! retried with its idempotency key), heartbeats, log appends, a finish, a
//! fail → reschedule → quarantine, an abort and a rung settled by scores.
//!
//! Two things are compared against `tests/fixtures/document_pin/`: the
//! metadata log (the replication feed, which is the log file's bytes) and
//! the bodies of `GET /api/v1/evaluations/:id`, `…/jobs` and
//! `/api/v1/jobs/:id` for every job of both evaluations. Ids are minted
//! from the wall clock and a random source, so each one is replaced by an
//! ordinal placeholder in order of first appearance; password hashes carry
//! a random salt and are masked. Everything else comes from the mock clock
//! and the fixed inputs below.
//!
//! Regenerating (only when the stored or served documents intentionally
//! change): `CHRONOS_BLESS=1 cargo test --test document_pin`.

use std::collections::HashMap;
use std::sync::Arc;

use chronos::api::TOKEN_HEADER;
use chronos::core::auth::Role;
use chronos::core::params::ParamAssignments;
use chronos::core::scheduler::SchedulerConfig;
use chronos::core::store::MetadataStore;
use chronos::core::{AdaptiveConfig, ChronosControl, Strategy};
use chronos::http::{Method, Request, Router};
use chronos::json::{arr, obj, Value};
use chronos::server::build_router;
use chronos::util::{Id, MockClock};

const T0: u64 = 1_700_000_000_000;

fn fixture_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/document_pin").join(name)
}

/// Compares `actual` with the pinned fixture; `CHRONOS_BLESS=1` rewrites it.
fn golden(name: &str, actual: &str) {
    let path = fixture_path(name);
    if std::env::var_os("CHRONOS_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {name}: {e} (run with CHRONOS_BLESS=1)"));
    if actual != expected {
        let line = actual.lines().zip(expected.lines()).position(|(a, e)| a != e);
        panic!(
            "{name} drifted from its fixture (first differing line: {:?})\nactual:\n{actual}",
            line.map(|l| l + 1)
        );
    }
}

/// Masks password hashes, then replaces every id (a run of exactly 26
/// base32 characters) with `<n>`, numbered by first appearance.
fn normalize(text: &str, ids: &mut HashMap<String, usize>) -> String {
    const HASH: &str = "\"password_hash\":\"";
    let mut masked = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(at) = rest.find(HASH) {
        masked.push_str(&rest[..at + HASH.len()]);
        rest = &rest[at + HASH.len()..];
        rest = &rest[rest.find('"').unwrap_or(rest.len())..];
        masked.push_str("<hash>");
    }
    masked.push_str(rest);

    const ALPHABET: &str = "0123456789ABCDEFGHJKMNPQRSTVWXYZ";
    let mut out = String::with_capacity(masked.len());
    let mut rest = masked.as_str();
    while !rest.is_empty() {
        let run = rest.find(|c: char| !c.is_ascii_alphanumeric()).unwrap_or(rest.len());
        if run == 0 {
            let c = rest.chars().next().unwrap();
            out.push(c);
            rest = &rest[c.len_utf8()..];
            continue;
        }
        let word = &rest[..run];
        if word.len() == 26 && word.chars().all(|c| ALPHABET.contains(c)) {
            let next = ids.len();
            out.push_str(&format!("<{}>", *ids.entry(word.to_string()).or_insert(next)));
        } else {
            out.push_str(word);
        }
        rest = &rest[run..];
    }
    out
}

fn system_definition() -> Value {
    obj! {
        "name" => "minidoc",
        "parameters" => arr![
            obj! {
                "name" => "engine", "type" => "checkbox",
                "options" => arr!["wiredtiger", "mmapv1"], "default" => "wiredtiger",
            },
            obj! {
                "name" => "threads", "type" => "interval",
                "min" => 1, "max" => 4, "step" => 1, "default" => 1,
            },
        ],
        "charts" => arr![obj! {
            "kind" => "line", "title" => "Throughput", "x_param" => "threads",
            "series_param" => "engine", "value_path" => "/throughput_ops_per_sec",
            "y_label" => "ops/s",
        }],
    }
}

fn get(router: &Router, token: &str, path: &str) -> String {
    let mut request = Request::new(Method::Get, path);
    request.headers.set(TOKEN_HEADER, token);
    let response = router.dispatch(&request);
    let body = String::from_utf8(response.body.to_vec()).unwrap();
    format!("GET {path} -> {}\n{body}\n", response.status.0)
}

#[test]
fn job_and_evaluation_documents_are_pinned_across_a_lifecycle() {
    let clock = Arc::new(MockClock::new(T0));
    let config = SchedulerConfig {
        heartbeat_timeout_millis: 10_000,
        max_attempts: 2,
        auto_reschedule: true,
    };
    let control = ChronosControl::new(MetadataStore::in_memory(), clock.clone(), config);
    let tick = || clock.advance_millis(1_000);

    let admin = control.create_user("admin", "admin-pw", Role::Admin).unwrap();
    let system = control.register_system_from_definition(&system_definition()).unwrap();
    let deployment = control.create_deployment(system.id, "node-a", "1.0").unwrap().id;
    let project = control.create_project("pin", "document pin", admin.id).unwrap();
    tick();
    let grid = control
        .create_experiment(
            project.id,
            system.id,
            "grid",
            "",
            ParamAssignments::new().sweep_all("engine").sweep("threads", vec![1.into(), 2.into()]),
        )
        .unwrap();
    let adaptive = control
        .create_experiment_with_options(
            project.id,
            system.id,
            "adaptive",
            "successive halving",
            ParamAssignments::new().sweep_all("engine").sweep_all("threads"),
            Strategy::Adaptive(AdaptiveConfig {
                seed: 42,
                initial: Some(4),
                eta: 2,
                ..Default::default()
            }),
            None,
        )
        .unwrap();
    tick();
    let grid_evaluation = control.create_evaluation(grid.id).unwrap().id;
    tick();
    let adaptive_evaluation = control.create_evaluation(adaptive.id).unwrap().id;

    let claim = |key: Option<&str>| {
        tick();
        control.claim_next_job(deployment, key).unwrap().expect("a claimable job")
    };
    let finish = |job: Id, attempt: u32, throughput: f64| {
        tick();
        let data = obj! {"throughput_ops_per_sec" => throughput, "runtime_ms" => 1_000};
        control
            .finish_job(job, data, b"archive bytes".to_vec(), Some(attempt), Some("upload"))
            .unwrap();
    };

    // Grid job 0: claimed, the claim retried with its key, heartbeats and
    // log lines, then finished.
    let first = claim(Some("claim-0"));
    let retried = claim(Some("claim-0"));
    assert_eq!(retried.id, first.id, "a retried claim returns the job it claimed");
    tick();
    control.heartbeat(first.id, Some(30), Some(1)).unwrap();
    tick();
    control.append_log(first.id, "loading records").unwrap();
    tick();
    control.heartbeat(first.id, Some(80), Some(1)).unwrap();
    control.append_log(first.id, "running workload\n").unwrap();
    finish(first.id, 1, 1_500.0);

    // Grid job 1: fails, is rescheduled automatically, is claimed again and
    // times out on its last attempt: quarantined.
    let poison = claim(None);
    tick();
    control.append_log(poison.id, "about to fail").unwrap();
    tick();
    let failed = control.fail_job(poison.id, "engine crashed", Some(1)).unwrap();
    assert_eq!(failed.state.as_str(), "scheduled");
    let again = claim(Some("claim-1"));
    assert_eq!(again.id, poison.id, "a rescheduled job is claimed before new points");
    clock.advance_millis(20_000);
    assert_eq!(control.check_timeouts().unwrap(), vec![poison.id]);
    assert_eq!(control.get_job(poison.id).unwrap().state.as_str(), "quarantined");

    // Grid job 2 is aborted while running; job 3 finishes.
    let aborted = claim(None);
    tick();
    control.abort_job(aborted.id).unwrap();
    let last = claim(None);
    finish(last.id, 1, 900.0);

    // The adaptive evaluation: four rung-0 candidates finish with scores,
    // the next claim settles the rung, one survivor finishes and the
    // other is left running.
    for score in [1_000.0, 4_000.0, 2_000.0, 3_000.0] {
        let job = claim(None);
        finish(job.id, 1, score);
    }
    let promoted = claim(None);
    finish(promoted.id, 1, 5_000.0);
    let running = claim(Some("claim-last"));
    tick();
    control.heartbeat(running.id, Some(10), Some(1)).unwrap();

    let mut ids = HashMap::new();
    let log = control.read_replication(0, usize::MAX).unwrap();
    let log = normalize(&String::from_utf8(log).unwrap(), &mut ids);

    let control = Arc::new(control);
    let router = build_router(Arc::clone(&control));
    let token = control.login("admin", "admin-pw").unwrap();
    let mut reads = String::new();
    for evaluation in [grid_evaluation, adaptive_evaluation] {
        let base = format!("/api/v1/evaluations/{}", evaluation.to_base32());
        reads.push_str(&get(&router, &token, &base));
        reads.push_str(&get(&router, &token, &format!("{base}/jobs")));
        for job in control.list_jobs(evaluation).unwrap() {
            reads.push_str(&get(&router, &token, &format!("/api/v1/jobs/{}", job.id.to_base32())));
        }
    }
    let reads = normalize(&reads, &mut ids);

    golden("metadata.log", &log);
    golden("reads.txt", &reads);
}
