//! Golden-wire fixtures for the v1 (and frozen v0) API contract.
//!
//! Every canonical request/response body is frozen byte-for-byte (key order
//! included — `chronos-json` writes maps in insertion order) under
//! `tests/fixtures/api_v1/`. The fixtures were captured from the wire shapes
//! *before* the typed `chronos-api` contract layer existed; every body below
//! is now produced by that layer (DTO encoders, the error envelope, version
//! negotiation), so these tests prove the refactor changed zero bytes on the
//! wire. Every entity fixture is also read back through the decoder the
//! control plane reads its stored documents with and encoded again.
//!
//! Regenerating (only when the contract intentionally changes):
//! `CHRONOS_BLESS=1 cargo test --test wire_compat`.

use chronos::api::v1;
use chronos::api::{ApiIndex, ApiVersion, ErrorEnvelope, JobState, WireDecode, WireEncode};
use chronos::core::auth::{Role, User};
use chronos::core::charts::ChartSpec;
use chronos::core::jobsource::Frontier;
use chronos::core::model::{
    Deployment, Evaluation, Experiment, Job, JobResult, Project, System, TimelineEvent,
};
use chronos::core::params::{ParamAssignments, ParamDef, ParamType};
use chronos::core::scheduler::EvaluationStatus;
use chronos::core::{AdaptiveConfig, JobSourceState, Strategy};
use chronos::json::{obj, Value};
use chronos::util::Id;

/// Pinned entity id: fixtures must be reproducible run-to-run.
fn id(n: u128) -> Id {
    Id::from_u128(n)
}

/// Pinned timestamps (unix millis), far enough apart to look real.
const T0: u64 = 1_700_000_000_000;
const T1: u64 = 1_700_000_001_000;
const T2: u64 = 1_700_000_002_000;

fn fixture_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/api_v1")
}

/// Compares `actual` against the frozen fixture, byte for byte. With
/// `CHRONOS_BLESS=1` the fixture is (re)written instead.
fn golden(name: &str, actual: &str) {
    let path = fixture_dir().join(name);
    if std::env::var_os("CHRONOS_BLESS").is_some() {
        std::fs::create_dir_all(fixture_dir()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {}: {e} (run with CHRONOS_BLESS=1)", name));
    assert_eq!(
        actual, expected,
        "wire contract drift in {name}: the encoded bytes no longer match the frozen fixture"
    );
}

// ---------------------------------------------------------------------------
// Pinned entities shared across fixtures
// ---------------------------------------------------------------------------

fn fixture_user() -> User {
    User {
        id: id(1),
        username: "ada".into(),
        password_hash: "salt$00ff".into(),
        role: Role::Admin,
        created_at: T0,
    }
}

fn fixture_system() -> System {
    System {
        id: id(2),
        name: "minidoc".into(),
        description: "embedded document store".into(),
        parameters: vec![ParamDef::new(
            "threads",
            "client threads",
            ParamType::Interval { min: 1, max: 8, step: 1 },
            Value::from(1),
        )
        .unwrap()],
        charts: vec![ChartSpec {
            kind: "line".into(),
            title: "Throughput by thread count".into(),
            x_param: "threads".into(),
            series_param: Some("engine".into()),
            value_path: "/throughput_ops_per_sec".into(),
            y_label: "ops/s".into(),
        }],
        created_at: T0,
    }
}

fn fixture_deployment() -> Deployment {
    Deployment {
        id: id(3),
        system_id: id(2),
        environment: "test-node".into(),
        version: "0.1.0".into(),
        active: true,
        created_at: T0,
    }
}

fn fixture_project() -> Project {
    Project {
        id: id(4),
        name: "demo project".into(),
        description: "integration test".into(),
        members: vec![id(1)],
        archived: false,
        created_at: T0,
    }
}

fn fixture_experiment() -> Experiment {
    Experiment {
        id: id(5),
        project_id: id(4),
        system_id: id(2),
        name: "engine comparison".into(),
        description: "".into(),
        parameters: ParamAssignments::new().fix("threads", 4),
        archived: false,
        created_at: T1,
        strategy: Strategy::Grid,
        budget: None,
    }
}

fn fixture_evaluation() -> Evaluation {
    Evaluation {
        id: id(6),
        experiment_id: id(5),
        job_ids: vec![id(7)],
        swept_params: vec!["threads".into()],
        created_at: T1,
        source: None,
    }
}

fn fixture_job() -> Job {
    Job {
        id: id(7),
        evaluation_id: id(6),
        system_id: id(2),
        parameters: obj! {"threads" => 4},
        state: JobState::Running,
        deployment_id: Some(id(3)),
        progress: 42,
        log: "line1\nline2\n".into(),
        timeline: vec![
            TimelineEvent {
                at: T0,
                kind: "created".into(),
                message: "job created and scheduled".into(),
            },
            TimelineEvent { at: T1, kind: "running".into(), message: "claimed by agent".into() },
        ],
        heartbeat_at: Some(T2),
        attempts: 1,
        claim_key: Some("claim-fixture-key".into()),
        result_key: None,
        result_id: None,
        failure: None,
        created_at: T0,
        point_index: None,
        budget: None,
    }
}

fn fixture_result() -> JobResult {
    JobResult {
        id: id(8),
        job_id: id(7),
        data: obj! {"throughput_ops_per_sec" => 1234.5},
        archive: vec![0u8; 16],
        created_at: T2,
    }
}

fn fixture_status() -> EvaluationStatus {
    EvaluationStatus {
        scheduled: 1,
        running: 2,
        finished: 3,
        aborted: 0,
        failed: 1,
        quarantined: 0,
        remaining: None,
    }
}

/// The adaptive strategy pinned by the lazy-evaluation fixtures.
fn fixture_adaptive() -> Strategy {
    Strategy::Adaptive(AdaptiveConfig {
        seed: 42,
        initial: Some(4),
        eta: 2,
        metric: "/throughput_ops_per_sec".into(),
        maximize: true,
    })
}

// ---------------------------------------------------------------------------
// Version negotiation + error envelope
// ---------------------------------------------------------------------------

#[test]
fn version_and_index_bodies() {
    golden("version_v1.json", &ApiVersion::V1.version_body().to_string());
    golden("version_v0.json", &ApiVersion::V0.version_body().to_string());
    golden("api_index.json", &ApiIndex::default().encode());
}

#[test]
fn error_envelope_bodies() {
    golden(
        "error_invalid.json",
        &ErrorEnvelope::status(400, "missing field \"username\"").encode(),
    );
    golden(
        "error_lease_lost.json",
        &ErrorEnvelope::lease_lost("heartbeat rejected: stale attempt").encode(),
    );
    // The server's error mapping must produce the same bytes as the bare
    // envelope encoders used by clients.
    let response = chronos::http::Response::error(
        chronos::http::Status::BAD_REQUEST,
        "missing field \"username\"",
    );
    golden("error_invalid.json", &String::from_utf8(response.body).unwrap());
}

// ---------------------------------------------------------------------------
// Cluster protocol (leader/follower replication, votes, status)
// ---------------------------------------------------------------------------

#[test]
fn cluster_protocol_bodies() {
    // A not_leader refusal with and without the leader hint: followers emit
    // the hint once they know a leader; mid-election the field is absent
    // entirely (not null) so pre-cluster decoders never see a new field.
    golden(
        "error_not_leader.json",
        &ErrorEnvelope::not_leader(
            "this node is not the leader",
            Some("http://10.0.0.1:8080".into()),
        )
        .encode(),
    );
    golden(
        "error_not_leader_no_hint.json",
        &ErrorEnvelope::not_leader("election in progress", None).encode(),
    );
    let replicate = v1::ReplicateRequest {
        term: 7,
        leader: "http://10.0.0.1:8080".into(),
        start_offset: 4096,
        checksum: 0x00ab_cdef_0123_4567,
        frames:
            b"{\"op\":\"put\",\"kind\":\"job\",\"id\":\"j1\",\"doc\":{\"state\":\"finished\"}}\n"
                .to_vec(),
    };
    golden("cluster_replicate_request.json", &replicate.encode());
    golden("cluster_replicate_ack.json", &v1::ReplicateAck { term: 7, offset: 4161 }.encode());
    let vote =
        v1::VoteRequest { term: 8, candidate: "http://10.0.0.2:8080".into(), last_offset: 4161 };
    golden("cluster_vote_request.json", &vote.encode());
    golden("cluster_vote_response.json", &v1::VoteResponse { term: 8, granted: true }.encode());
    let status = v1::ClusterStatusDto {
        node: "node-2".into(),
        role: "follower".into(),
        term: 8,
        leader: Some("http://10.0.0.1:8080".into()),
        offset: 4161,
        lag_millis: 120,
        elections: 1,
        segments_shipped: 42,
    };
    golden("cluster_status.json", &status.encode());
    // Mid-election the leader field is omitted (mirrors the hint rule).
    let candidate = v1::ClusterStatusDto {
        node: "node-3".into(),
        role: "candidate".into(),
        term: 9,
        leader: None,
        offset: 4161,
        lag_millis: 900,
        elections: 2,
        segments_shipped: 0,
    };
    golden("cluster_status_candidate.json", &candidate.encode());
    // Round-trip: every cluster DTO decodes back to itself from its frozen
    // bytes (strict for requests, lenient for the status entity).
    assert_eq!(v1::ReplicateRequest::decode(&replicate.to_value()).unwrap(), replicate);
    assert_eq!(v1::VoteRequest::decode(&vote.to_value()).unwrap(), vote);
    assert_eq!(v1::ClusterStatusDto::decode(&status.to_value()).unwrap(), status);
}

// ---------------------------------------------------------------------------
// Auth + users
// ---------------------------------------------------------------------------

#[test]
fn auth_bodies() {
    let login = v1::LoginRequest { username: "admin".into(), password: "admin-pw".into() };
    golden("login_request.json", &login.encode());
    golden("login_response.json", &v1::LoginResponse { token: "tok-fixture".into() }.encode());
    golden("logout_response.json", &v1::LogoutResponse { revoked: true }.encode());
    // Served user documents redact the password hash.
    golden("user.json", &fixture_user().to_public_json().to_string());
}

// ---------------------------------------------------------------------------
// Entities (CRUD responses)
// ---------------------------------------------------------------------------

#[test]
fn entity_bodies() {
    golden("system.json", &fixture_system().to_value().to_string());
    golden("deployment.json", &fixture_deployment().to_value().to_string());
    golden("project.json", &fixture_project().to_value().to_string());
    golden("experiment.json", &fixture_experiment().to_value().to_string());
    golden("evaluation.json", &fixture_evaluation().to_value().to_string());
    golden("evaluation_status.json", &fixture_status().to_json().to_string());
    // GET /api/v1/evaluations/:id — the evaluation with its status roll-up.
    let mut detail = fixture_evaluation().to_value();
    detail.set("status", fixture_status().to_json());
    golden("evaluation_detail.json", &detail.to_string());
    golden("job.json", &fixture_job().to_value().to_string());
    // Listing view: the log and timeline are omitted.
    golden("job_listing_item.json", &fixture_job().summary_value().to_string());
    golden("job_result.json", &fixture_result().to_json().to_string());
}

/// Parses a frozen entity fixture, decodes it with the decoder the control
/// plane reads that kind of stored document with, encodes it again and
/// requires the very bytes it was read from.
fn reencodes<T, E: std::fmt::Debug>(
    name: &str,
    decode: fn(&Value) -> Result<T, E>,
    encode: fn(&T) -> Value,
) {
    let text = std::fs::read_to_string(fixture_dir().join(name))
        .unwrap_or_else(|e| panic!("missing fixture {name}: {e}"));
    let document = chronos::json::parse(&text).unwrap();
    let decoded = decode(&document).unwrap_or_else(|e| panic!("{name} does not decode: {e:?}"));
    assert_eq!(encode(&decoded).to_string(), text, "{name} does not survive decode + encode");
}

/// The decode half of the contract: every entity fixture reads back through
/// the same decoder `ChronosControl` uses on its stored documents.
#[test]
fn entity_fixtures_decode_and_reencode() {
    reencodes("system.json", System::decode, System::to_value);
    reencodes("deployment.json", Deployment::decode, Deployment::to_value);
    reencodes("project.json", Project::decode, Project::to_value);
    for name in ["experiment.json", "experiment_adaptive.json", "experiment_budgeted.json"] {
        reencodes(name, Experiment::decode, Experiment::to_value);
    }
    for name in ["evaluation.json", "evaluation_lazy_grid.json", "evaluation_adaptive.json"] {
        reencodes(name, Evaluation::decode, Evaluation::to_value);
    }
    for name in ["job.json", "job_point_index.json", "job_budgeted.json", "job_quarantined.json"] {
        reencodes(name, Job::decode, Job::to_value);
    }
}

#[test]
fn request_bodies() {
    let deployment =
        v1::CreateDeploymentRequest { environment: "test-node".into(), version: "0.1.0".into() };
    golden("create_deployment_request.json", &deployment.encode());
    let project = v1::CreateProjectRequest {
        name: "demo project".into(),
        description: "integration test".into(),
    };
    golden("create_project_request.json", &project.encode());
    let experiment = v1::CreateExperimentRequest {
        name: "engine comparison".into(),
        system_id: id(2),
        description: "".into(),
        parameters: Some(fixture_experiment().parameters),
        strategy: None,
        budget: None,
    };
    golden("create_experiment_request.json", &experiment.encode());
}

// ---------------------------------------------------------------------------
// Lazy evaluations + adaptive scheduling
// ---------------------------------------------------------------------------

#[test]
fn lazy_and_adaptive_bodies() {
    // A lazy grid evaluation mid-iteration: the source cursor rides the
    // evaluation document.
    let mut evaluation = fixture_evaluation();
    evaluation.source = Some(JobSourceState {
        strategy: Strategy::Grid,
        total_points: 8,
        materialized: 1,
        frontier: None,
    });
    golden("evaluation_lazy_grid.json", &evaluation.to_value().to_string());

    // An adaptive evaluation on rung 1 with one recorded pruning decision.
    let mut evaluation = fixture_evaluation();
    evaluation.source = Some(JobSourceState {
        strategy: fixture_adaptive(),
        total_points: 8,
        materialized: 5,
        frontier: Some(Frontier {
            rung: 1,
            candidates: vec![2, 5],
            issued: 1,
            job_ids: vec![id(7)],
            decisions: vec![obj! {
                "rung" => 0u64,
                "candidates" => Value::Array(vec![2u64, 3, 5, 6].into_iter().map(Value::from).collect()),
                "scores" => Value::Array(vec![
                    Value::from(1800.0),
                    Value::from(900.5),
                    Value::from(2100.0),
                    Value::Null,
                ]),
                "promoted" => Value::Array(vec![2u64, 5].into_iter().map(Value::from).collect()),
            }],
        }),
    });
    let body = evaluation.to_value().to_string();
    golden("evaluation_adaptive.json", &body);
    // The document reads back losslessly through the core decoder.
    assert_eq!(Evaluation::decode(&chronos::json::parse(&body).unwrap()).unwrap(), evaluation);

    // An experiment that selected the adaptive strategy.
    let mut experiment = fixture_experiment();
    experiment.strategy = fixture_adaptive();
    golden("experiment_adaptive.json", &experiment.to_value().to_string());

    // Status roll-up of a lazy evaluation: unmaterialized points appear as
    // `remaining_space`, count into `total`, and hold back `settled`.
    let status = EvaluationStatus {
        scheduled: 1,
        running: 2,
        finished: 3,
        aborted: 0,
        failed: 1,
        quarantined: 0,
        remaining: Some(5),
    };
    golden("evaluation_status_lazy.json", &status.to_json().to_string());

    // A lazily-materialized job carries its point index.
    let mut job = fixture_job();
    job.point_index = Some(3);
    golden("job_point_index.json", &job.to_value().to_string());
    golden("job_point_index_listing_item.json", &job.summary_value().to_string());

    // The create-experiment request opting into adaptive scheduling.
    let request = v1::CreateExperimentRequest {
        name: "engine comparison".into(),
        system_id: id(2),
        description: "".into(),
        parameters: Some(fixture_experiment().parameters),
        strategy: Some(fixture_adaptive()),
        budget: None,
    };
    golden("create_experiment_adaptive_request.json", &request.encode());
    let decoded = v1::CreateExperimentRequest::decode(&request.to_value()).unwrap();
    assert_eq!(decoded.strategy, request.strategy);

    // Stats with outstanding lazy points across the installation.
    let stats = v1::StatsResponse {
        scheduled: 1,
        running: 2,
        finished: 3,
        aborted: 0,
        failed: 1,
        quarantined: 0,
        remaining_space: 7,
        systems: 1,
        projects: 1,
    };
    golden("stats_lazy.json", &stats.encode());
}

// ---------------------------------------------------------------------------
// Agent protocol
// ---------------------------------------------------------------------------

#[test]
fn agent_protocol_bodies() {
    let claim = v1::ClaimRequest {
        deployment_id: id(3),
        idempotency_key: Some("claim-fixture-key".into()),
    };
    golden("claim_request.json", &claim.encode());
    let heartbeat = v1::HeartbeatRequest { progress: Some(42), attempt: Some(1) };
    golden("heartbeat_request.json", &heartbeat.encode());
    let ack = v1::HeartbeatAck { state: JobState::Running, progress: 42 };
    golden("heartbeat_ack.json", &ack.encode());
    let fail = v1::FailRequest { reason: "set_up failed: disk full".into(), attempt: Some(2) };
    golden("fail_request.json", &fail.encode());
    // The result upload streams its body through the contract's frame
    // writer (no intermediate Value tree) — same bytes either way.
    let upload = v1::UploadResultRequest {
        data: obj! {"throughput_ops_per_sec" => 1234.5},
        archive: vec![0u8; 16],
        attempt: Some(1),
        idempotency_key: Some("result-fixture-key".into()),
    };
    golden("upload_result_request.json", &upload.encode());
    let mut framed = String::new();
    v1::write_upload_frame(
        &mut framed,
        &upload.data,
        &upload.archive,
        upload.attempt,
        upload.idempotency_key.as_deref(),
    );
    golden("upload_result_request.json", &framed);
}

// ---------------------------------------------------------------------------
// Per-job resource budgets + quarantine
// ---------------------------------------------------------------------------

#[test]
fn budget_and_quarantine_bodies() {
    let budget = v1::JobBudget {
        cpu_millis: Some(60_000),
        max_rss_kib: Some(262_144),
        io_bytes: None,
        wall_millis: Some(120_000),
    };

    // An experiment declaring a budget: the document grows a conditional
    // trailing `budget` object (absent on unbudgeted experiments, which is
    // what keeps the pre-budget fixtures byte-identical).
    let mut experiment = fixture_experiment();
    experiment.budget = Some(budget);
    let body = experiment.to_value().to_string();
    golden("experiment_budgeted.json", &body);
    assert_eq!(Experiment::decode(&chronos::json::parse(&body).unwrap()).unwrap(), experiment);

    // The budget rides each materialized job — and therefore the claim
    // response, which returns the full job document to the agent.
    let mut job = fixture_job();
    job.budget = Some(budget);
    let body = job.to_value().to_string();
    golden("job_budgeted.json", &body);
    assert_eq!(Job::decode(&chronos::json::parse(&body).unwrap()).unwrap(), job);

    // A poison job after max_attempts typed budget failures: terminal
    // Quarantined state with the typed failure reason.
    let mut job = fixture_job();
    job.state = JobState::Quarantined;
    job.attempts = 3;
    job.claim_key = None;
    job.failure = Some("budget_exceeded:cpu_millis: measured 75000 > budget 60000".into());
    job.timeline.push(TimelineEvent {
        at: T2,
        kind: "quarantined".into(),
        message: "failed 3 of 3 attempts; quarantined".into(),
    });
    let body = job.to_value().to_string();
    golden("job_quarantined.json", &body);
    assert_eq!(Job::decode(&chronos::json::parse(&body).unwrap()).unwrap(), job);

    // Status roll-up with quarantined jobs: the count is a conditional
    // trailing field, omitted while zero.
    let status = EvaluationStatus {
        scheduled: 0,
        running: 0,
        finished: 3,
        aborted: 0,
        failed: 0,
        quarantined: 2,
        remaining: Some(0),
    };
    golden("evaluation_status_quarantined.json", &status.to_json().to_string());

    // The create-experiment request declaring the budget.
    let request = v1::CreateExperimentRequest {
        name: "engine comparison".into(),
        system_id: id(2),
        description: "".into(),
        parameters: Some(fixture_experiment().parameters),
        strategy: None,
        budget: Some(budget),
    };
    golden("create_experiment_budgeted_request.json", &request.encode());
    let decoded = v1::CreateExperimentRequest::decode(&request.to_value()).unwrap();
    assert_eq!(decoded.budget, request.budget);
}

// ---------------------------------------------------------------------------
// Integration hooks + stats
// ---------------------------------------------------------------------------

#[test]
fn trigger_and_stats_bodies() {
    let trigger = v1::TriggerBuildRequest { experiment_id: id(5), build: "abc123".into() };
    golden("trigger_build_request.json", &trigger.encode());
    let evaluation = fixture_evaluation();
    let response = v1::TriggerBuildResponse {
        jobs: evaluation.job_ids.len(),
        evaluation: evaluation.to_value(),
        build: "abc123".into(),
    };
    golden("trigger_build_response.json", &response.encode());
    let stats = v1::StatsResponse {
        scheduled: 1,
        running: 2,
        finished: 3,
        aborted: 0,
        failed: 1,
        quarantined: 0,
        remaining_space: 0,
        systems: 1,
        projects: 1,
    };
    golden("stats.json", &stats.encode());
}

// ---------------------------------------------------------------------------
// Result analytics (regression detection)
// ---------------------------------------------------------------------------

#[test]
fn regression_bodies() {
    let run = v1::RegressionRunDto {
        evaluation_id: id(6),
        created_at: T1,
        jobs_measured: 4,
        mean: 1234.5,
    };
    golden("regression_run.json", &run.encode());
    let change_point = v1::RegressionChangePointDto {
        index: 25,
        before_mean: 2000.5,
        after_mean: 1000.25,
        p_value: 0.005,
    };
    golden("regression_change_point.json", &change_point.encode());
    let report = v1::RegressionsResponse {
        experiment_id: id(5),
        value_path: "/throughput_ops_per_sec".into(),
        seed: 42,
        permutations: 199,
        significance: 0.05,
        min_segment: 5,
        runs: vec![
            run.clone(),
            v1::RegressionRunDto {
                evaluation_id: id(8),
                created_at: T2,
                jobs_measured: 4,
                mean: 618.0,
            },
        ],
        change_points: vec![change_point],
        regressed: true,
    };
    golden("regressions_response.json", &report.encode());
    let flag = v1::ExperimentRegressionFlag {
        value_path: "/throughput_ops_per_sec".into(),
        change_points: 1,
        regressed: true,
        runs: 50,
        scanned_at: T2,
    };
    golden("experiment_regression_flag.json", &flag.encode());

    // The typed layer reads its own bytes back losslessly.
    let decoded = v1::RegressionsResponse::decode_slice(report.encode().as_bytes()).unwrap();
    assert_eq!(decoded, report);
    let decoded = v1::ExperimentRegressionFlag::decode_slice(flag.encode().as_bytes()).unwrap();
    assert_eq!(decoded, flag);
}

// ---------------------------------------------------------------------------
// Frozen v0
// ---------------------------------------------------------------------------

#[test]
fn v0_bodies() {
    let job = chronos::api::v0::JobStatusV0 {
        id: id(7),
        status: JobState::Running,
        percent: 42,
        evaluation: id(6),
    };
    golden("v0_job_status.json", &job.encode());
    let status =
        chronos::api::v0::EvaluationStatusV0 { id: id(6), open: 3, closed: 4, percent: 57 };
    golden("v0_evaluation_status.json", &status.encode());
}

// ---------------------------------------------------------------------------
// Decoder fuzz wall
// ---------------------------------------------------------------------------

/// Mutants per fixture. Fixed, like the seed, so every run checks the same
/// inputs; sized to keep the test around a second in a debug build.
const MUTANTS_PER_FIXTURE: u64 = 1000;

/// Seed of the mutation stream.
const FUZZ_SEED: u64 = 0x5eed_f022;

/// Fixtures no DTO decodes: the version bodies are built, never read.
const UNDECODED_FIXTURES: [&str; 2] = ["version_v0.json", "version_v1.json"];

/// Byte strings that turn a mutant into other valid JSON more often than a
/// random byte does.
const TOKENS: [&str; 16] = [
    "null",
    "true",
    "false",
    "0",
    "-1",
    "1e999",
    "0.5",
    "\"\"",
    "\"all\"",
    "[]",
    "{}",
    "{\"sweep\":[]}",
    "\"grid\"",
    "18446744073709551616",
    ",",
    ":",
];

/// One mutation of `bytes`: a bit flip, an insert (a random byte or a
/// token), a deleted run, or a splice of a run of `donor` over a run of
/// `bytes`.
fn mutate(bytes: &mut Vec<u8>, donor: &[u8], rng: &mut chronos::util::SplitMix64) {
    let at =
        |rng: &mut chronos::util::SplitMix64, len: usize| rng.next_below(len as u64 + 1) as usize;
    match rng.next_below(5) {
        0 if !bytes.is_empty() => {
            let i = at(rng, bytes.len() - 1);
            bytes[i] ^= 1 << rng.next_below(8);
        }
        1 => {
            let i = at(rng, bytes.len());
            bytes.insert(i, rng.next_below(256) as u8);
        }
        2 => {
            let i = at(rng, bytes.len());
            let token = TOKENS[rng.next_below(TOKENS.len() as u64) as usize].as_bytes();
            bytes.splice(i..i, token.iter().copied());
        }
        3 if !bytes.is_empty() => {
            let i = at(rng, bytes.len() - 1);
            let end = (i + 1 + rng.next_below(8) as usize).min(bytes.len());
            bytes.drain(i..end);
        }
        _ => {
            let from = at(rng, donor.len());
            let run = &donor[from..(from + 1 + rng.next_below(24) as usize).min(donor.len())];
            let i = at(rng, bytes.len());
            let end = (i + rng.next_below(24) as usize).min(bytes.len());
            bytes.splice(i..end, run.iter().copied());
        }
    }
}

/// What the wall saw for one fixture: mutants that parsed, and of those,
/// how many decoded.
#[derive(Default)]
struct FuzzTally {
    parsed: u64,
    decoded: u64,
}

/// Feeds `MUTANTS_PER_FIXTURE` mutants of `name` to `T`'s decoder. A
/// mutant that parses must decode or fail without panicking; one that
/// decodes must re-encode stably: `encode(decode(encode(d))) == encode(d)`.
fn fuzz_decoder<T: WireEncode + WireDecode>(
    name: &str,
    donors: &[Vec<u8>],
    rng: &mut chronos::util::SplitMix64,
) -> FuzzTally {
    let original = std::fs::read(fixture_dir().join(name)).unwrap();
    let mut tally = FuzzTally::default();
    for _ in 0..MUTANTS_PER_FIXTURE {
        let mut mutant = original.clone();
        for _ in 0..=rng.next_below(3) {
            let donor = &donors[rng.next_below(donors.len() as u64) as usize];
            mutate(&mut mutant, donor, rng);
        }
        let text = String::from_utf8_lossy(&mutant);
        let Ok(document) = chronos::json::parse(&text) else { continue };
        tally.parsed += 1;
        let decoded = std::panic::catch_unwind(|| T::decode(&document))
            .unwrap_or_else(|_| panic!("{name}: decode panicked on mutant {text}"));
        let Ok(decoded) = decoded else { continue };
        tally.decoded += 1;
        let encoded = decoded.encode();
        let again = T::decode_slice(encoded.as_bytes())
            .unwrap_or_else(|e| panic!("{name}: own encoding {encoded} does not decode: {e}"));
        assert_eq!(again.encode(), encoded, "{name}: mutant {text} does not re-encode stably");
    }
    tally
}

/// Mutation fuzzing of every decoder a fixture exercises, the nested
/// parameter, chart, assignment and strategy decoders included.
#[test]
fn decoders_survive_mutated_fixtures() {
    type Fuzz = fn(&str, &[Vec<u8>], &mut chronos::util::SplitMix64) -> FuzzTally;
    let table: Vec<(&str, Fuzz)> = vec![
        ("api_index.json", fuzz_decoder::<ApiIndex>),
        ("claim_request.json", fuzz_decoder::<v1::ClaimRequest>),
        ("cluster_replicate_ack.json", fuzz_decoder::<v1::ReplicateAck>),
        ("cluster_replicate_request.json", fuzz_decoder::<v1::ReplicateRequest>),
        ("cluster_status.json", fuzz_decoder::<v1::ClusterStatusDto>),
        ("cluster_status_candidate.json", fuzz_decoder::<v1::ClusterStatusDto>),
        ("cluster_vote_request.json", fuzz_decoder::<v1::VoteRequest>),
        ("cluster_vote_response.json", fuzz_decoder::<v1::VoteResponse>),
        ("create_deployment_request.json", fuzz_decoder::<v1::CreateDeploymentRequest>),
        ("create_experiment_adaptive_request.json", fuzz_decoder::<v1::CreateExperimentRequest>),
        ("create_experiment_budgeted_request.json", fuzz_decoder::<v1::CreateExperimentRequest>),
        ("create_experiment_request.json", fuzz_decoder::<v1::CreateExperimentRequest>),
        ("create_project_request.json", fuzz_decoder::<v1::CreateProjectRequest>),
        ("deployment.json", fuzz_decoder::<v1::DeploymentDto>),
        ("error_invalid.json", fuzz_decoder::<ErrorEnvelope>),
        ("error_lease_lost.json", fuzz_decoder::<ErrorEnvelope>),
        ("error_not_leader.json", fuzz_decoder::<ErrorEnvelope>),
        ("error_not_leader_no_hint.json", fuzz_decoder::<ErrorEnvelope>),
        ("evaluation.json", fuzz_decoder::<v1::EvaluationDto>),
        ("evaluation_adaptive.json", fuzz_decoder::<v1::EvaluationDto>),
        ("evaluation_detail.json", fuzz_decoder::<v1::EvaluationDto>),
        ("evaluation_lazy_grid.json", fuzz_decoder::<v1::EvaluationDto>),
        ("evaluation_status.json", fuzz_decoder::<v1::EvaluationStatusDto>),
        ("evaluation_status_lazy.json", fuzz_decoder::<v1::EvaluationStatusDto>),
        ("evaluation_status_quarantined.json", fuzz_decoder::<v1::EvaluationStatusDto>),
        ("experiment.json", fuzz_decoder::<v1::ExperimentDto>),
        ("experiment_adaptive.json", fuzz_decoder::<v1::ExperimentDto>),
        ("experiment_budgeted.json", fuzz_decoder::<v1::ExperimentDto>),
        ("experiment_regression_flag.json", fuzz_decoder::<v1::ExperimentRegressionFlag>),
        ("fail_request.json", fuzz_decoder::<v1::FailRequest>),
        ("heartbeat_ack.json", fuzz_decoder::<v1::HeartbeatAck>),
        ("heartbeat_request.json", fuzz_decoder::<v1::HeartbeatRequest>),
        ("job.json", fuzz_decoder::<v1::JobDto>),
        ("job.json", fuzz_decoder::<v1::ClaimedJob>),
        ("job_budgeted.json", fuzz_decoder::<v1::JobDto>),
        ("job_budgeted.json", fuzz_decoder::<v1::ClaimedJob>),
        ("job_listing_item.json", fuzz_decoder::<v1::JobDto>),
        ("job_point_index.json", fuzz_decoder::<v1::JobDto>),
        ("job_point_index_listing_item.json", fuzz_decoder::<v1::JobDto>),
        ("job_quarantined.json", fuzz_decoder::<v1::JobDto>),
        ("job_result.json", fuzz_decoder::<v1::JobResultDto>),
        ("login_request.json", fuzz_decoder::<v1::LoginRequest>),
        ("login_response.json", fuzz_decoder::<v1::LoginResponse>),
        ("logout_response.json", fuzz_decoder::<v1::LogoutResponse>),
        ("project.json", fuzz_decoder::<v1::ProjectDto>),
        ("regression_change_point.json", fuzz_decoder::<v1::RegressionChangePointDto>),
        ("regression_run.json", fuzz_decoder::<v1::RegressionRunDto>),
        ("regressions_response.json", fuzz_decoder::<v1::RegressionsResponse>),
        ("stats.json", fuzz_decoder::<v1::StatsResponse>),
        ("stats_lazy.json", fuzz_decoder::<v1::StatsResponse>),
        ("system.json", fuzz_decoder::<v1::SystemDto>),
        ("trigger_build_request.json", fuzz_decoder::<v1::TriggerBuildRequest>),
        ("trigger_build_response.json", fuzz_decoder::<v1::TriggerBuildResponse>),
        ("upload_result_request.json", fuzz_decoder::<v1::UploadResultRequest>),
        ("user.json", fuzz_decoder::<v1::UserPublic>),
        ("v0_evaluation_status.json", fuzz_decoder::<chronos::api::v0::EvaluationStatusV0>),
        ("v0_job_status.json", fuzz_decoder::<chronos::api::v0::JobStatusV0>),
    ];
    let mut names: Vec<String> = std::fs::read_dir(fixture_dir())
        .unwrap()
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    for name in &names {
        let covered = table.iter().any(|(fuzzed, _)| fuzzed == name);
        assert!(covered || UNDECODED_FIXTURES.contains(&name.as_str()), "{name} is not fuzzed");
    }
    let donors: Vec<Vec<u8>> =
        names.iter().map(|name| std::fs::read(fixture_dir().join(name)).unwrap()).collect();
    let mut rng = chronos::util::SplitMix64::new(FUZZ_SEED);
    let (mut parsed, mut decoded) = (0, 0);
    for (name, fuzz) in &table {
        let tally = fuzz(name, &donors, &mut rng);
        assert!(tally.parsed > 0, "{name}: no mutant parsed, so its decoder was not fuzzed");
        (parsed, decoded) = (parsed + tally.parsed, decoded + tally.decoded);
    }
    // The wall is only a wall if mutants reach the decoders and some of
    // them get through.
    assert!(decoded > 0 && decoded < parsed, "{decoded} of {parsed} parsed mutants decoded");
}
