//! Property tests for the wire contract: `decode(encode(dto)) == dto` for
//! every DTO, through the full text path (DTO → `write_into` bytes →
//! `parse` → decode). Key-order stability is covered separately by the
//! golden fixtures in the workspace root; these tests pin the *information*
//! content of the codec, including boundary ids, attempts and progress.

use chronos_api::v1;
use chronos_api::{v0, ApiIndex, ErrorEnvelope, JobState, WireDecode, WireEncode};
use chronos_json::{obj, Value};
use chronos_util::Id;
use proptest::prelude::*;

/// Full-fidelity roundtrip through the encoded bytes *and* the value tree.
fn roundtrip<T>(dto: &T)
where
    T: WireEncode + WireDecode + PartialEq + std::fmt::Debug,
{
    let decoded = T::decode_slice(dto.encode().as_bytes()).expect("decode of own encoding");
    assert_eq!(&decoded, dto, "text roundtrip must be lossless");
    let decoded = T::decode(&dto.to_value()).expect("decode of own value tree");
    assert_eq!(&decoded, dto, "tree roundtrip must be lossless");
}

/// `Option<V>` strategy (the shim has no `prop::option`).
fn opt<S: Strategy>(s: S) -> impl Strategy<Value = Option<S::Value>> {
    (any::<bool>(), s).prop_map(|(some, v)| if some { Some(v) } else { None })
}

/// Ids over the full 128-bit space; `any::<u64>()` is edge-biased, so both
/// halves regularly hit 0 and `u64::MAX`.
fn arb_id() -> impl Strategy<Value = Id> {
    (any::<u64>(), any::<u64>())
        .prop_map(|(hi, lo)| Id::from_u128(((hi as u128) << 64) | lo as u128))
}

fn arb_u32() -> impl Strategy<Value = u32> {
    any::<u64>().prop_map(|x| x as u32)
}

/// Timestamps stay within `i64` so they encode as JSON integers.
fn arb_ts() -> impl Strategy<Value = u64> {
    any::<u64>().prop_map(|x| x >> 1)
}

fn arb_text() -> impl Strategy<Value = String> {
    "[a-zA-Z0-9 _.:/-]{0,12}"
}

/// u64 payloads that stay within `i64` so they encode as JSON integers.
fn arb_u64() -> impl Strategy<Value = u64> {
    any::<u64>().prop_map(|x| x >> 1)
}

fn arb_strategy() -> impl Strategy<Value = v1::Strategy> {
    prop_oneof![
        Just(v1::Strategy::Grid),
        (arb_u64(), opt(1u64..1_000_000), 2u64..16, arb_text(), any::<bool>()).prop_map(
            |(seed, initial, eta, metric, maximize)| v1::Strategy::Adaptive(v1::AdaptiveConfig {
                seed,
                initial,
                eta,
                metric: format!("/{metric}"),
                maximize,
            })
        ),
    ]
}

/// A value a parameter can be fixed to or swept over.
fn arb_scalar() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i64>().prop_map(Value::from),
        arb_text().prop_map(Value::from),
        any::<bool>().prop_map(Value::from),
    ]
}

/// Every parameter type; intervals stay small so their sweeps do too.
fn arb_param_type() -> impl Strategy<Value = v1::ParamType> {
    prop_oneof![
        Just(v1::ParamType::Boolean),
        prop::collection::vec(arb_text(), 1..4)
            .prop_map(|options| v1::ParamType::Checkbox { options }),
        Just(v1::ParamType::Value),
        (-1000i64..1000, 0i64..100, 1i64..10)
            .prop_map(|(min, span, step)| v1::ParamType::Interval { min, max: min + span, step }),
        Just(v1::ParamType::Ratio),
    ]
}

/// A definition whose default is one `pick` of the values its type
/// accepts (ratios stay exact binary fractions).
fn arb_param_def() -> impl Strategy<Value = v1::ParamDef> {
    (arb_text(), arb_text(), arb_param_type(), any::<u64>(), arb_scalar()).prop_map(
        |(name, description, param_type, pick, scalar)| {
            let default = match &param_type {
                v1::ParamType::Boolean => Value::Bool(pick % 2 == 0),
                v1::ParamType::Checkbox { options } => {
                    Value::from(options[(pick % options.len() as u64) as usize].as_str())
                }
                v1::ParamType::Value => scalar,
                v1::ParamType::Interval { min, max, step } => {
                    Value::from(min + (pick % ((max - min) / step + 1) as u64) as i64 * step)
                }
                v1::ParamType::Ratio => Value::from([0.25, 0.5, 0.75][(pick % 3) as usize]),
            };
            v1::ParamDef::new(name, description, param_type, default).expect("default fits")
        },
    )
}

fn arb_chart() -> impl Strategy<Value = v1::ChartSpec> {
    (arb_text(), arb_text(), arb_text(), opt(arb_text()), arb_text(), arb_text()).prop_map(
        |(kind, title, x_param, series_param, value_path, y_label)| v1::ChartSpec {
            kind,
            title,
            x_param,
            series_param,
            value_path,
            y_label,
        },
    )
}

/// Every assignment kind, one per uniquely named parameter.
fn arb_assignments() -> impl Strategy<Value = v1::ParamAssignments> {
    let assignment = prop_oneof![
        arb_scalar().prop_map(v1::Assignment::Fixed),
        prop::collection::vec(arb_scalar(), 1..4).prop_map(v1::Assignment::Sweep),
        Just(v1::Assignment::SweepAll),
    ];
    prop::collection::vec(assignment, 0..4).prop_map(|kinds| {
        kinds.into_iter().enumerate().fold(v1::ParamAssignments::new(), |all, (i, kind)| {
            let name = format!("p{i}");
            match kind {
                v1::Assignment::Fixed(value) => all.fix(&name, value),
                v1::Assignment::Sweep(values) => all.sweep(&name, values),
                v1::Assignment::SweepAll => all.sweep_all(&name),
            }
        })
    })
}

fn arb_frontier() -> impl Strategy<Value = v1::FrontierDto> {
    (
        0u32..8,
        prop::collection::vec(arb_u64(), 0..4),
        0u64..4,
        prop::collection::vec(arb_id(), 0..3),
        prop::collection::vec(arb_doc(), 0..2),
    )
        .prop_map(|(rung, candidates, issued, job_ids, decisions)| v1::FrontierDto {
            rung,
            candidates,
            issued,
            job_ids,
            decisions,
        })
}

/// An evaluation's job source: none (a pre-lazy document), a grid cursor,
/// or an adaptive one with its frontier.
fn arb_source() -> impl Strategy<Value = Option<v1::JobSourceState>> {
    prop_oneof![
        Just(None),
        (arb_u64(), arb_u64()).prop_map(|(total_points, materialized)| {
            Some(v1::JobSourceState {
                strategy: v1::Strategy::Grid,
                total_points,
                materialized,
                frontier: None,
            })
        }),
        (arb_strategy(), arb_u64(), arb_u64(), arb_frontier()).prop_map(
            |(strategy, total_points, materialized, frontier)| {
                let strategy = match strategy {
                    v1::Strategy::Grid => v1::Strategy::Adaptive(v1::AdaptiveConfig::default()),
                    adaptive => adaptive,
                };
                Some(v1::JobSourceState {
                    strategy,
                    total_points,
                    materialized,
                    frontier: Some(frontier),
                })
            }
        ),
    ]
}

fn arb_state() -> impl Strategy<Value = JobState> {
    prop_oneof![
        Just(JobState::Scheduled),
        Just(JobState::Running),
        Just(JobState::Finished),
        Just(JobState::Aborted),
        Just(JobState::Failed),
        Just(JobState::Quarantined),
    ]
}

fn arb_budget() -> impl Strategy<Value = v1::JobBudget> {
    (opt(1u64..1_000_000), opt(1u64..1_000_000), opt(1u64..1_000_000), opt(1u64..1_000_000))
        .prop_map(|(cpu_millis, max_rss_kib, io_bytes, wall_millis)| v1::JobBudget {
            cpu_millis,
            max_rss_kib,
            io_bytes,
            wall_millis,
        })
}

/// Small parameter/measurement documents (ints only: float formatting is
/// pinned by fixtures, not roundtripped here).
fn arb_doc() -> impl Strategy<Value = Value> {
    prop::collection::vec(("[a-z]{1,6}", any::<i64>()), 0..4).prop_map(|pairs| {
        let mut doc = obj! {};
        for (k, v) in pairs {
            doc.set(&k, v);
        }
        doc
    })
}

proptest! {
    #[test]
    fn auth_and_user_dtos(
        username in arb_text(), password in arb_text(), token in arb_text(),
        (revoked, role) in (any::<bool>(), opt(arb_text())),
        id in arb_id(), created_at in arb_ts(),
    ) {
        roundtrip(&v1::LoginRequest { username: username.clone(), password: password.clone() });
        roundtrip(&v1::LoginResponse { token });
        roundtrip(&v1::LogoutResponse { revoked });
        roundtrip(&v1::CreateUserRequest { username: username.clone(), password, role });
        roundtrip(&v1::UserPublic {
            id,
            username,
            role: "viewer".into(),
            created_at,
        });
    }

    #[test]
    fn management_request_dtos(
        (environment, version, active) in (arb_text(), arb_text(), any::<bool>()),
        (name, description, build) in (arb_text(), arb_text(), arb_text()),
        (user_id, system_id, experiment_id) in (arb_id(), arb_id(), arb_id()),
        parameters in opt(arb_assignments()),
        strategy in opt(arb_strategy()),
        budget in opt(arb_budget()),
    ) {
        roundtrip(&v1::CreateDeploymentRequest { environment, version });
        roundtrip(&v1::SetDeploymentActiveRequest { active });
        roundtrip(&v1::CreateProjectRequest { name: name.clone(), description: description.clone() });
        roundtrip(&v1::AddProjectMemberRequest { user_id });
        roundtrip(&v1::CreateExperimentRequest { name, system_id, description, parameters, strategy, budget });
        roundtrip(&v1::TriggerBuildRequest { experiment_id, build: build.clone() });
        roundtrip(&v1::TriggerBuildResponse {
            evaluation: obj! {"id" => experiment_id.to_base32()},
            build,
            jobs: 4,
        });
    }

    #[test]
    fn entity_dtos(
        (id, other, third) in (arb_id(), arb_id(), arb_id()),
        (name, description) in (arb_text(), arb_text()),
        (flag, created_at) in (any::<bool>(), arb_ts()),
        (members, swept) in
            (prop::collection::vec(arb_id(), 0..4), prop::collection::vec("[a-z]{1,6}", 0..3)),
        (doc, source, budget) in (arb_doc(), arb_source(), opt(arb_budget())),
        (parameters, charts, assignments, experiment_strategy) in (
            prop::collection::vec(arb_param_def(), 0..4),
            prop::collection::vec(arb_chart(), 0..3),
            arb_assignments(),
            arb_strategy(),
        ),
    ) {
        roundtrip(&v1::SystemDto {
            id,
            name: name.clone(),
            description: description.clone(),
            parameters,
            charts,
            created_at,
        });
        roundtrip(&v1::DeploymentDto {
            id,
            system_id: other,
            environment: name.clone(),
            version: description.clone(),
            active: flag,
            created_at,
        });
        roundtrip(&v1::ProjectDto {
            id,
            name: name.clone(),
            description: description.clone(),
            members: members.clone(),
            archived: flag,
            created_at,
        });
        roundtrip(&v1::ExperimentDto {
            id,
            project_id: other,
            system_id: third,
            name,
            description,
            parameters: assignments,
            archived: flag,
            created_at,
            strategy: experiment_strategy,
            budget,
        });
        roundtrip(&v1::EvaluationDto {
            id,
            experiment_id: other,
            job_ids: members,
            swept_params: swept,
            created_at,
            source,
        });
        roundtrip(&v1::JobResultDto {
            id,
            job_id: other,
            data: doc,
            archive_bytes: created_at as usize,
            created_at,
        });
    }

    #[test]
    fn status_dtos(
        counts in prop::collection::vec(0u64..1_000_000, 6..7),
        settled in any::<bool>(), percent in 0u8..=100,
        id in arb_id(),
        remaining in opt(1u64..1_000_000),
        (stats_remaining, quarantined) in (0u64..1_000_000, 0u64..1_000_000),
    ) {
        let counts: Vec<usize> = counts.into_iter().map(|c| c as usize).collect();
        roundtrip(&v1::EvaluationStatusDto {
            scheduled: counts[0],
            running: counts[1],
            finished: counts[2],
            aborted: counts[3],
            failed: counts[4],
            quarantined: quarantined as usize,
            total: counts[5],
            settled,
            progress_percent: percent,
            remaining_space: remaining,
        });
        roundtrip(&v1::StatsResponse {
            scheduled: counts[0],
            running: counts[1],
            finished: counts[2],
            aborted: counts[3],
            failed: counts[4],
            quarantined: quarantined as usize,
            remaining_space: stats_remaining,
            systems: counts[5],
            projects: counts[0],
        });
        roundtrip(&v0::EvaluationStatusV0 {
            id,
            open: counts[0],
            closed: counts[1],
            percent,
        });
    }

    #[test]
    fn job_and_timeline_dtos(
        (id, evaluation_id, system_id, deployment_id, result_id) in
            (arb_id(), arb_id(), arb_id(), opt(arb_id()), opt(arb_id())),
        (state, progress, attempts) in (arb_state(), 0u8..=100, arb_u32()),
        (log, failure, claim_key, result_key) in
            (arb_text(), opt(arb_text()), opt(arb_text()), opt(arb_text())),
        (heartbeat_at, created_at, point_index) in (opt(arb_ts()), arb_ts(), opt(arb_u64())),
        timeline in prop::collection::vec((arb_ts(), "[a-z]{1,8}", arb_text()), 0..3),
        (doc, budget) in (arb_doc(), opt(arb_budget())),
    ) {
        let timeline: Vec<_> = timeline
            .into_iter()
            .map(|(at, kind, message)| v1::TimelineEventDto { at, kind, message })
            .collect();
        for event in &timeline {
            roundtrip(event);
        }
        let job = v1::JobDto {
            id,
            evaluation_id,
            system_id,
            parameters: doc.clone(),
            state,
            deployment_id,
            progress,
            log,
            timeline,
            heartbeat_at,
            attempts,
            claim_key,
            result_key,
            result_id,
            failure,
            created_at,
            point_index,
            budget,
        };
        roundtrip(&job);
        // The summary view drops only the details: decoding it yields the
        // same job with an empty log/timeline.
        let summary = v1::JobDto::decode(&job.summary_value()).unwrap();
        prop_assert_eq!(summary.log, "");
        prop_assert!(summary.timeline.is_empty());
        prop_assert_eq!(summary.id, job.id);
        prop_assert_eq!(summary.attempts, job.attempts);
        roundtrip(&v0::JobStatusV0 { id, status: state, percent: progress, evaluation: evaluation_id });
    }

    #[test]
    fn agent_protocol_dtos(
        (deployment_id, id, other) in (arb_id(), arb_id(), arb_id()),
        (key, progress, attempt) in (opt(arb_text()), opt(0u8..=100), opt(arb_u32())),
        (state, ack_progress, attempts) in (arb_state(), 0u8..=100, arb_u32()),
        reason in arb_text(),
        archive in prop::collection::vec(any::<u8>(), 0..64),
        (data, budget) in (arb_doc(), opt(arb_budget())),
    ) {
        roundtrip(&v1::ClaimRequest { deployment_id, idempotency_key: key.clone() });
        roundtrip(&v1::ClaimedJob {
            id,
            evaluation_id: other,
            parameters: data.clone(),
            attempts,
            budget,
        });
        roundtrip(&v1::HeartbeatRequest { progress, attempt });
        roundtrip(&v1::HeartbeatAck { state, progress: ack_progress });
        roundtrip(&v1::FailRequest { reason, attempt });
        roundtrip(&v1::UploadResultRequest {
            data,
            archive,
            attempt,
            idempotency_key: key,
        });
    }

    #[test]
    fn error_envelope_roundtrips(
        status in 100u64..600, named in any::<bool>(), message in arb_text(),
    ) {
        let envelope = if named {
            ErrorEnvelope::named("lease_lost", message)
        } else {
            ErrorEnvelope::status(status as u16, message)
        };
        roundtrip(&envelope);
    }
}

#[test]
fn boundary_values_roundtrip() {
    // Ids at both ends of the 128-bit space.
    for raw in [0u128, 1, u128::MAX - 1, u128::MAX] {
        roundtrip(&v1::AddProjectMemberRequest { user_id: Id::from_u128(raw) });
    }
    // Attempt numbers at the fencing-token extremes.
    for attempt in [0u32, 1, u32::MAX - 1, u32::MAX] {
        roundtrip(&v1::HeartbeatRequest { progress: Some(0), attempt: Some(attempt) });
        roundtrip(&v1::FailRequest { reason: "r".into(), attempt: Some(attempt) });
        roundtrip(&v1::ClaimedJob {
            id: Id::from_u128(7),
            evaluation_id: Id::from_u128(8),
            parameters: obj! {},
            attempts: attempt,
            budget: None,
        });
    }
    // Progress at the clamp edges.
    for progress in [0u8, 1, 99, 100] {
        roundtrip(&v1::HeartbeatRequest { progress: Some(progress), attempt: None });
        roundtrip(&v1::HeartbeatAck { state: JobState::Running, progress });
    }
}

#[test]
fn strings_with_escapes_roundtrip() {
    // The proptest character classes stay conservative; this pins the
    // JSON-escaping corners explicitly.
    for tricky in ["", "a\"b", "back\\slash", "tab\there", "line\nbreak", "üñîçødé 😀"] {
        roundtrip(&v1::LoginRequest { username: tricky.into(), password: tricky.into() });
        roundtrip(&v1::FailRequest { reason: tricky.into(), attempt: None });
        roundtrip(&ErrorEnvelope::status(400, tricky));
    }
}

/// Each parameter type, chart shape, assignment kind and strategy at least
/// once, whatever the generators above happen to draw.
#[test]
fn every_vocabulary_variant_roundtrips() {
    let types = [
        v1::ParamType::Boolean,
        v1::ParamType::Checkbox { options: vec!["a".into(), "b".into()] },
        v1::ParamType::Value,
        v1::ParamType::Interval { min: -3, max: 9, step: 4 },
        v1::ParamType::Ratio,
    ];
    let defaults =
        [Value::Bool(true), Value::from("b"), Value::from("x"), Value::from(5), Value::from(0.5)];
    let parameters: Vec<_> = types
        .into_iter()
        .zip(defaults)
        .map(|(t, default)| {
            let def = v1::ParamDef::new(t.tag(), "d", t, default).unwrap();
            roundtrip(&def.param_type);
            roundtrip(&def);
            def
        })
        .collect();
    let chart = |series_param: Option<&str>| v1::ChartSpec {
        kind: "line".into(),
        title: "t".into(),
        x_param: "x".into(),
        series_param: series_param.map(str::to_string),
        value_path: "/v".into(),
        y_label: "".into(),
    };
    let charts = vec![chart(Some("engine")), chart(None)];
    for chart in &charts {
        roundtrip(chart);
    }
    roundtrip(&v1::SystemDto {
        id: Id::from_u128(1),
        name: "s".into(),
        description: "".into(),
        parameters,
        charts,
        created_at: 1,
    });
    let assignments = v1::ParamAssignments::new()
        .fix("a", 1)
        .sweep("b", vec![Value::from(1), Value::from("two")])
        .sweep_all("c");
    roundtrip(&assignments);
    for assignment in [
        v1::Assignment::Fixed(Value::from(1)),
        v1::Assignment::Sweep(vec![Value::from(1)]),
        v1::Assignment::SweepAll,
    ] {
        roundtrip(&assignment);
    }
    let adaptive =
        v1::Strategy::Adaptive(v1::AdaptiveConfig { initial: Some(3), ..Default::default() });
    for strategy in [v1::Strategy::Grid, adaptive] {
        roundtrip(&strategy);
        roundtrip(&v1::ExperimentDto {
            id: Id::from_u128(2),
            project_id: Id::from_u128(3),
            system_id: Id::from_u128(1),
            name: "e".into(),
            description: "".into(),
            parameters: assignments.clone(),
            archived: false,
            created_at: 1,
            strategy: strategy.clone(),
            budget: None,
        });
        roundtrip(&v1::CreateExperimentRequest {
            name: "e".into(),
            system_id: Id::from_u128(1),
            description: "".into(),
            parameters: Some(assignments.clone()),
            strategy: Some(strategy),
            budget: None,
        });
    }
}

#[test]
fn api_index_roundtrips() {
    let index = ApiIndex::default();
    roundtrip(&index);
}

/// Evaluation documents from before lazy evaluations read as they always
/// did: no source fields is no source, and a `total_points` without
/// `materialized` has materialized every job the document lists.
#[test]
fn legacy_evaluation_documents_decode() {
    let legacy = obj! {
        "id" => Id::from_u128(1).to_base32(),
        "experiment_id" => Id::from_u128(2).to_base32(),
        "job_ids" => Value::Array(vec![
            Value::from(Id::from_u128(3).to_base32()),
            Value::from(Id::from_u128(4).to_base32()),
        ]),
        "swept_params" => Value::Array(vec![Value::from("threads")]),
        "created_at" => 5,
    };
    assert_eq!(v1::EvaluationDto::decode(&legacy).unwrap().source, None);

    let mut counted = legacy.clone();
    counted.set("total_points", 8);
    let source = v1::EvaluationDto::decode(&counted).unwrap().source.expect("a source");
    assert_eq!(source.materialized, 2, "the listed jobs were materialized");
    assert_eq!(source.strategy, v1::Strategy::Grid, "an absent strategy is grid");
    assert_eq!(v1::EvaluationDto::decode_source(&counted).unwrap(), Some(source));
}
