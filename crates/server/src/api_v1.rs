//! The current API version: `/api/v1`.
//!
//! Every request body and path parameter goes through the typed contract
//! in `chronos-api`: DTO decoders reject missing/ill-typed required fields
//! with a 400 envelope, and every response body is produced by a DTO
//! encoder (directly, or for a result via `JobResult::to_json`), so this
//! module never touches raw `Value` fields.

use std::sync::Arc;

use chronos_api::{extract, v1, ApiVersion, WireEncode};
use chronos_core::analysis;
use chronos_core::archive::archive_project;
use chronos_core::auth::{Role, User};
use chronos_core::{ChronosControl, CoreError, CoreResult};
use chronos_http::{Request, Response, RouteParams, Router, ServerMetrics, Status};
use chronos_util::Id;

use crate::error_response;
use crate::read_cache::{CachedReads, Scope};

/// Header carrying the session token (defined by the wire contract).
pub use chronos_api::TOKEN_HEADER;

fn respond(result: CoreResult<Response>) -> Response {
    result.unwrap_or_else(error_response)
}

/// Decodes the request body as a typed DTO (400 on malformed JSON or a
/// missing/ill-typed required field).
fn body<T: chronos_api::WireDecode>(req: &Request) -> CoreResult<T> {
    extract::body(req).map_err(CoreError::from)
}

/// A path parameter that must be an entity id.
fn param_id(params: &RouteParams, name: &'static str) -> CoreResult<Id> {
    extract::path_id(params, name).map_err(CoreError::from)
}

fn authed(control: &ChronosControl, req: &Request) -> CoreResult<User> {
    let token = req
        .headers
        .get(TOKEN_HEADER)
        .or_else(|| req.headers.get("Authorization").and_then(|v| v.strip_prefix("Bearer ")))
        .ok_or_else(|| CoreError::Forbidden("missing session token".into()))?;
    control.authenticate(token)
}

fn writer(control: &ChronosControl, req: &Request) -> CoreResult<User> {
    let user = authed(control, req)?;
    if !user.role.can_write() {
        return Err(CoreError::Forbidden("viewer role cannot modify".into()));
    }
    Ok(user)
}

fn admin(control: &ChronosControl, req: &Request) -> CoreResult<User> {
    let user = authed(control, req)?;
    if !user.role.can_admin() {
        return Err(CoreError::Forbidden("admin role required".into()));
    }
    Ok(user)
}

/// Mounts all v1 routes. No handler checks the caller's
/// `X-Chronos-Deadline-Ms` budget: the transport does, once, when the
/// request gets its handler slot. The hot reads (evaluation detail, job
/// list, summary, CSV, charts, stats, trend, regressions) answer through
/// one [`CachedReads`] made here, after authentication has run; `metrics`
/// counts its hits and misses.
pub fn mount(router: &mut Router, control: Arc<ChronosControl>, metrics: Arc<ServerMetrics>) {
    let c = &control;
    let reads = Arc::new(CachedReads::new(Arc::clone(c), metrics));

    router.get("/api/v1/version", |_req, _p| Response::json(&ApiVersion::V1.version_body()));

    // ----- auth -----
    let control_ = Arc::clone(c);
    router.post("/api/v1/login", move |req, _p| {
        respond((|| {
            let login: v1::LoginRequest = body(req)?;
            let token = control_.login(&login.username, &login.password)?;
            Ok(Response::json(&v1::LoginResponse { token }.to_value()))
        })())
    });

    let control_ = Arc::clone(c);
    router.post("/api/v1/logout", move |req, _p| {
        let revoked = req.headers.get(TOKEN_HEADER).map(|t| control_.logout(t)).unwrap_or(false);
        Response::json(&v1::LogoutResponse { revoked }.to_value())
    });

    let control_ = Arc::clone(c);
    router.get("/api/v1/me", move |req, _p| {
        respond(authed(&control_, req).map(|u| Response::json(&u.to_public_json())))
    });

    let control_ = Arc::clone(c);
    router.post("/api/v1/users", move |req, _p| {
        respond((|| {
            admin(&control_, req)?;
            let create: v1::CreateUserRequest = body(req)?;
            // An absent role defaults to member; a present but unknown
            // name is a 400, not a silent downgrade.
            let role = match &create.role {
                None => Role::Member,
                Some(name) => Role::parse(name)
                    .ok_or_else(|| CoreError::Invalid(format!("invalid role {name:?}")))?,
            };
            let user = control_.create_user(&create.username, &create.password, role)?;
            Ok(Response::json_status(Status::CREATED, &user.to_public_json()))
        })())
    });

    // ----- systems -----
    let control_ = Arc::clone(c);
    router.get("/api/v1/systems", move |req, _p| {
        respond((|| {
            authed(&control_, req)?;
            let systems: Vec<_> = control_.list_systems().iter().map(|s| s.to_value()).collect();
            Ok(Response::json(&chronos_json::Value::Array(systems)))
        })())
    });

    let control_ = Arc::clone(c);
    router.post("/api/v1/systems", move |req, _p| {
        respond((|| {
            admin(&control_, req)?;
            // A definition is a system document without id and creation
            // time; the control plane reads it with the system's decoders.
            let definition = extract::json_body(req).map_err(CoreError::from)?;
            let system = control_.register_system_from_definition(&definition)?;
            Ok(Response::json_status(Status::CREATED, &system.to_value()))
        })())
    });

    let control_ = Arc::clone(c);
    router.get("/api/v1/systems/:id", move |req, p| {
        respond((|| {
            authed(&control_, req)?;
            let system = control_.get_system(param_id(p, "id")?)?;
            Ok(Response::json(&system.to_value()))
        })())
    });

    let control_ = Arc::clone(c);
    router.get("/api/v1/systems/:id/deployments", move |req, p| {
        respond((|| {
            authed(&control_, req)?;
            let deployments: Vec<_> = control_
                .list_deployments(Some(param_id(p, "id")?))
                .iter()
                .map(WireEncode::to_value)
                .collect();
            Ok(Response::json(&chronos_json::Value::Array(deployments)))
        })())
    });

    let control_ = Arc::clone(c);
    router.post("/api/v1/systems/:id/deployments", move |req, p| {
        respond((|| {
            admin(&control_, req)?;
            let create: v1::CreateDeploymentRequest = body(req)?;
            let deployment = control_.create_deployment(
                param_id(p, "id")?,
                &create.environment,
                &create.version,
            )?;
            Ok(Response::json_status(Status::CREATED, &deployment.to_value()))
        })())
    });

    let control_ = Arc::clone(c);
    router.post("/api/v1/deployments/:id/active", move |req, p| {
        respond((|| {
            admin(&control_, req)?;
            let set: v1::SetDeploymentActiveRequest = body(req)?;
            let deployment = control_.set_deployment_active(param_id(p, "id")?, set.active)?;
            Ok(Response::json(&deployment.to_value()))
        })())
    });

    // ----- projects -----
    let control_ = Arc::clone(c);
    router.get("/api/v1/projects", move |req, _p| {
        respond((|| {
            let user = authed(&control_, req)?;
            let projects: Vec<_> = control_
                .list_projects()
                .iter()
                .filter(|p| user.role.can_admin() || p.members.contains(&user.id))
                .map(WireEncode::to_value)
                .collect();
            Ok(Response::json(&chronos_json::Value::Array(projects)))
        })())
    });

    let control_ = Arc::clone(c);
    router.post("/api/v1/projects", move |req, _p| {
        respond((|| {
            let user = writer(&control_, req)?;
            let create: v1::CreateProjectRequest = body(req)?;
            let project = control_.create_project(&create.name, &create.description, user.id)?;
            Ok(Response::json_status(Status::CREATED, &project.to_value()))
        })())
    });

    let control_ = Arc::clone(c);
    router.get("/api/v1/projects/:id", move |req, p| {
        respond((|| {
            let user = authed(&control_, req)?;
            let project = control_.require_project_access(param_id(p, "id")?, &user)?;
            Ok(Response::json(&project.to_value()))
        })())
    });

    let control_ = Arc::clone(c);
    router.post("/api/v1/projects/:id/members", move |req, p| {
        respond((|| {
            let user = writer(&control_, req)?;
            let project_id = param_id(p, "id")?;
            control_.require_project_access(project_id, &user)?;
            let add: v1::AddProjectMemberRequest = body(req)?;
            let project = control_.add_project_member(project_id, add.user_id)?;
            Ok(Response::json(&project.to_value()))
        })())
    });

    let control_ = Arc::clone(c);
    router.post("/api/v1/projects/:id/archive", move |req, p| {
        respond((|| {
            let user = writer(&control_, req)?;
            let project_id = param_id(p, "id")?;
            control_.require_project_access(project_id, &user)?;
            let project = control_.archive_project(project_id)?;
            Ok(Response::json(&project.to_value()))
        })())
    });

    let control_ = Arc::clone(c);
    router.get("/api/v1/projects/:id/archive.zip", move |req, p| {
        respond((|| {
            let user = authed(&control_, req)?;
            let project_id = param_id(p, "id")?;
            control_.require_project_access(project_id, &user)?;
            let bytes = archive_project(&control_, project_id)?;
            Ok(Response::bytes(Status::OK, "application/zip", bytes))
        })())
    });

    // ----- experiments -----
    let control_ = Arc::clone(c);
    router.get("/api/v1/projects/:id/experiments", move |req, p| {
        respond((|| {
            let user = authed(&control_, req)?;
            let project_id = param_id(p, "id")?;
            control_.require_project_access(project_id, &user)?;
            let experiments: Vec<_> =
                control_.list_experiments(Some(project_id)).iter().map(|e| e.to_value()).collect();
            Ok(Response::json(&chronos_json::Value::Array(experiments)))
        })())
    });

    let control_ = Arc::clone(c);
    router.post("/api/v1/projects/:id/experiments", move |req, p| {
        respond((|| {
            let user = writer(&control_, req)?;
            let project_id = param_id(p, "id")?;
            control_.require_project_access(project_id, &user)?;
            let create: v1::CreateExperimentRequest = body(req)?;
            let experiment = control_.create_experiment_with_options(
                project_id,
                create.system_id,
                &create.name,
                &create.description,
                create.parameters.unwrap_or_default(),
                create.strategy.unwrap_or(v1::Strategy::Grid),
                create.budget,
            )?;
            Ok(Response::json_status(Status::CREATED, &experiment.to_value()))
        })())
    });

    let control_ = Arc::clone(c);
    router.get("/api/v1/experiments/:id", move |req, p| {
        respond((|| {
            authed(&control_, req)?;
            let id = param_id(p, "id")?;
            let experiment = control_.get_experiment(id)?;
            let mut detail = experiment.to_value();
            // Appended only once a regression scan has run, so bodies of
            // never-scanned experiments stay byte-identical to before the
            // field existed.
            if let Some(flag) = control_.regression_flag(id) {
                detail.set(
                    "regressions",
                    v1::ExperimentRegressionFlag {
                        value_path: flag.value_path,
                        change_points: flag.change_points,
                        regressed: flag.regressed,
                        runs: flag.runs,
                        scanned_at: flag.scanned_at,
                    }
                    .to_value(),
                );
            }
            Ok(Response::json(&detail))
        })())
    });

    let control_ = Arc::clone(c);
    router.post("/api/v1/experiments/:id/archive", move |req, p| {
        respond((|| {
            writer(&control_, req)?;
            let experiment = control_.archive_experiment(param_id(p, "id")?)?;
            Ok(Response::json(&experiment.to_value()))
        })())
    });

    // Performance trend across an experiment's evaluations (QA over
    // subsequent change sets, paper §3).
    let control_ = Arc::clone(c);
    let reads_ = Arc::clone(&reads);
    router.get("/api/v1/experiments/:id/trend", move |req, p| {
        respond((|| {
            authed(&control_, req)?;
            let id = param_id(p, "id")?;
            reads_.serve(req, Scope::State, || {
                let value_path = req
                    .query_param("path")
                    .unwrap_or_else(|| "/throughput_ops_per_sec".to_string());
                let threshold = req
                    .query_param("threshold")
                    .and_then(|t| t.parse::<f64>().ok())
                    .unwrap_or(0.10);
                let trend = analysis::experiment_trend(&control_, id, &value_path, threshold)?;
                Ok(Response::json(&trend))
            })
        })())
    });

    // Automatic regression detection: seeded change-point analysis over
    // the experiment's per-evaluation metric history (columnar store).
    let control_ = Arc::clone(c);
    let reads_ = Arc::clone(&reads);
    router.get("/api/v1/experiments/:id/regressions", move |req, p| {
        respond((|| {
            authed(&control_, req)?;
            let id = param_id(p, "id")?;
            // A miss scans and records the experiment's regression flag; a
            // hit leaves the flag at the scan that produced the held body.
            reads_.serve(req, Scope::State, || {
                let value_path = req
                    .query_param("path")
                    .unwrap_or_else(|| "/throughput_ops_per_sec".to_string());
                let defaults = chronos_core::ChangePointConfig::default();
                let config = chronos_core::ChangePointConfig {
                    seed: req
                        .query_param("seed")
                        .and_then(|s| s.parse().ok())
                        .unwrap_or(defaults.seed),
                    permutations: req
                        .query_param("permutations")
                        .and_then(|s| s.parse().ok())
                        .unwrap_or(defaults.permutations),
                    significance: req
                        .query_param("significance")
                        .and_then(|s| s.parse().ok())
                        .unwrap_or(defaults.significance),
                    min_segment: req
                        .query_param("min_segment")
                        .and_then(|s| s.parse().ok())
                        .unwrap_or(defaults.min_segment),
                };
                let report = analysis::experiment_regressions(&control_, id, &value_path, config)?;
                let response = v1::RegressionsResponse {
                    experiment_id: report.experiment_id,
                    value_path: report.value_path,
                    seed: report.config.seed,
                    permutations: report.config.permutations as u64,
                    significance: report.config.significance,
                    min_segment: report.config.min_segment as u64,
                    runs: report
                        .runs
                        .iter()
                        .map(|r| v1::RegressionRunDto {
                            evaluation_id: r.evaluation_id,
                            created_at: r.created_at,
                            jobs_measured: r.jobs_measured,
                            mean: r.mean,
                        })
                        .collect(),
                    change_points: report
                        .change_points
                        .iter()
                        .map(|cp| v1::RegressionChangePointDto {
                            index: cp.index as u64,
                            before_mean: cp.before_mean,
                            after_mean: cp.after_mean,
                            p_value: cp.p_value,
                        })
                        .collect(),
                    regressed: report.regressed,
                };
                Ok(Response::json(&response.to_value()))
            })
        })())
    });

    // ----- evaluations -----
    let control_ = Arc::clone(c);
    router.post("/api/v1/experiments/:id/evaluations", move |req, p| {
        respond((|| {
            writer(&control_, req)?;
            let evaluation = control_.create_evaluation(param_id(p, "id")?)?;
            Ok(Response::json_status(Status::CREATED, &evaluation.to_value()))
        })())
    });

    let control_ = Arc::clone(c);
    router.get("/api/v1/experiments/:id/evaluations", move |req, p| {
        respond((|| {
            authed(&control_, req)?;
            let evaluations: Vec<_> = control_
                .list_evaluations(Some(param_id(p, "id")?))
                .iter()
                .map(|e| e.to_value())
                .collect();
            Ok(Response::json(&chronos_json::Value::Array(evaluations)))
        })())
    });

    let control_ = Arc::clone(c);
    let reads_ = Arc::clone(&reads);
    router.get("/api/v1/evaluations/:id", move |req, p| {
        respond((|| {
            authed(&control_, req)?;
            let id = param_id(p, "id")?;
            reads_.serve(req, Scope::Evaluation(id), || {
                Ok(Response::json(&control_.evaluation_detail(id)?))
            })
        })())
    });

    let control_ = Arc::clone(c);
    let reads_ = Arc::clone(&reads);
    router.get("/api/v1/evaluations/:id/jobs", move |req, p| {
        respond((|| {
            authed(&control_, req)?;
            let id = param_id(p, "id")?;
            reads_.serve(req, Scope::Evaluation(id), || {
                // Listing view: omit the potentially large log and timeline.
                let jobs: Vec<_> =
                    control_.list_jobs(id)?.iter().map(|j| j.summary_value()).collect();
                Ok(Response::json(&chronos_json::Value::Array(jobs)))
            })
        })())
    });

    let control_ = Arc::clone(c);
    let reads_ = Arc::clone(&reads);
    router.get("/api/v1/evaluations/:id/summary", move |req, p| {
        respond((|| {
            authed(&control_, req)?;
            let id = param_id(p, "id")?;
            reads_.serve(req, Scope::Evaluation(id), || {
                let summary = analysis::summary_table(&control_, id)?;
                Ok(Response::bytes(Status::OK, "application/json", summary.into_bytes()))
            })
        })())
    });

    let control_ = Arc::clone(c);
    let reads_ = Arc::clone(&reads);
    router.get("/api/v1/evaluations/:id/summary.csv", move |req, p| {
        respond((|| {
            authed(&control_, req)?;
            let id = param_id(p, "id")?;
            reads_.serve(req, Scope::Evaluation(id), || {
                let csv = analysis::summary_csv(&control_, id)?;
                Ok(Response::bytes(Status::OK, "text/csv; charset=utf-8", csv.into_bytes()))
            })
        })())
    });

    // Chart renders: /charts/:index.svg and .txt (paper Fig. 3d).
    let control_ = Arc::clone(c);
    let reads_ = Arc::clone(&reads);
    router.get("/api/v1/evaluations/:id/charts/:chart", move |req, p| {
        respond((|| {
            authed(&control_, req)?;
            let evaluation_id = param_id(p, "id")?;
            let chart_ref = extract::path_str(p, "chart").map_err(CoreError::from)?;
            let (index_str, format) = chart_ref
                .rsplit_once('.')
                .ok_or_else(|| CoreError::Invalid("chart ref must be <index>.<svg|txt>".into()))?;
            let index: usize =
                index_str.parse().map_err(|_| CoreError::Invalid("bad chart index".into()))?;
            // The experiment's system and the system's chart specs never
            // change once created, so the evaluation's version covers them.
            reads_.serve(req, Scope::Evaluation(evaluation_id), || {
                let system = control_.evaluation_system(evaluation_id)?;
                let spec =
                    system.charts.get(index).ok_or_else(|| CoreError::not_found("chart", index))?;
                let data = analysis::chart_data(&control_, evaluation_id, spec)?;
                let registry = chronos_core::charts::ChartRegistry::with_builtins();
                match format {
                    "svg" => Ok(Response::bytes(
                        Status::OK,
                        "image/svg+xml",
                        registry.render_svg(spec, &data)?.into_bytes(),
                    )),
                    "txt" => Ok(Response::text(Status::OK, registry.render_ascii(spec, &data)?)),
                    other => Err(CoreError::Invalid(format!("unknown chart format {other:?}"))),
                }
            })
        })())
    });

    // ----- jobs -----
    let control_ = Arc::clone(c);
    router.get("/api/v1/jobs/:id", move |req, p| {
        respond((|| {
            authed(&control_, req)?;
            let job = control_.get_job(param_id(p, "id")?)?;
            Ok(Response::json(&job.to_value()))
        })())
    });

    let control_ = Arc::clone(c);
    router.get("/api/v1/jobs/:id/log", move |req, p| {
        respond((|| {
            authed(&control_, req)?;
            let job = control_.get_job(param_id(p, "id")?)?;
            Ok(Response::text(Status::OK, job.log))
        })())
    });

    let control_ = Arc::clone(c);
    router.post("/api/v1/jobs/:id/abort", move |req, p| {
        respond((|| {
            writer(&control_, req)?;
            let job = control_.abort_job(param_id(p, "id")?)?;
            Ok(Response::json(&job.to_value()))
        })())
    });

    let control_ = Arc::clone(c);
    router.post("/api/v1/jobs/:id/reschedule", move |req, p| {
        respond((|| {
            writer(&control_, req)?;
            let job = control_.reschedule_job(param_id(p, "id")?)?;
            Ok(Response::json(&job.to_value()))
        })())
    });

    // ----- agent protocol -----
    let control_ = Arc::clone(c);
    router.post("/api/v1/agent/claim", move |req, _p| {
        respond((|| {
            authed(&control_, req)?;
            let claim: v1::ClaimRequest = body(req)?;
            match control_.claim_next_job(claim.deployment_id, claim.idempotency_key.as_deref())? {
                Some(job) => Ok(Response::json(&job.to_value())),
                None => Ok(Response::status(Status::NO_CONTENT)),
            }
        })())
    });

    let control_ = Arc::clone(c);
    router.post("/api/v1/agent/jobs/:id/heartbeat", move |req, p| {
        respond((|| {
            authed(&control_, req)?;
            let heartbeat: v1::HeartbeatRequest = body(req)?;
            let job =
                control_.heartbeat(param_id(p, "id")?, heartbeat.progress, heartbeat.attempt)?;
            let ack = v1::HeartbeatAck { state: job.state, progress: job.progress };
            Ok(Response::json(&ack.to_value()))
        })())
    });

    let control_ = Arc::clone(c);
    router.post("/api/v1/agent/jobs/:id/log", move |req, p| {
        respond((|| {
            authed(&control_, req)?;
            let text = String::from_utf8_lossy(&req.body);
            control_.append_log(param_id(p, "id")?, &text)?;
            Ok(Response::status(Status::NO_CONTENT))
        })())
    });

    let control_ = Arc::clone(c);
    router.post("/api/v1/agent/jobs/:id/result", move |req, p| {
        respond((|| {
            authed(&control_, req)?;
            let upload: v1::UploadResultRequest = body(req)?;
            let result = control_.finish_job(
                param_id(p, "id")?,
                upload.data,
                upload.archive,
                upload.attempt,
                upload.idempotency_key.as_deref(),
            )?;
            Ok(Response::json_status(Status::CREATED, &result.to_json()))
        })())
    });

    let control_ = Arc::clone(c);
    router.post("/api/v1/agent/jobs/:id/fail", move |req, p| {
        respond((|| {
            authed(&control_, req)?;
            let fail: v1::FailRequest = body(req)?;
            let job = control_.fail_job(param_id(p, "id")?, &fail.reason, fail.attempt)?;
            Ok(Response::json(&job.to_value()))
        })())
    });

    // ----- results -----
    let control_ = Arc::clone(c);
    router.get("/api/v1/results/:id", move |req, p| {
        respond((|| {
            authed(&control_, req)?;
            let result = control_.get_result(param_id(p, "id")?)?;
            Ok(Response::json(&result.to_json()))
        })())
    });

    let control_ = Arc::clone(c);
    router.get("/api/v1/results/:id/archive.zip", move |req, p| {
        respond((|| {
            authed(&control_, req)?;
            let result = control_.get_result(param_id(p, "id")?)?;
            Ok(Response::bytes(Status::OK, "application/zip", result.archive))
        })())
    });

    // ----- integration hooks -----
    // Build-bot trigger (paper §2.2): "schedule an evaluation which is
    // caused by a successful build of the SuE's build bot".
    let control_ = Arc::clone(c);
    router.post("/api/v1/trigger/build", move |req, _p| {
        respond((|| {
            writer(&control_, req)?;
            let trigger: v1::TriggerBuildRequest = body(req)?;
            let evaluation = control_.create_evaluation(trigger.experiment_id)?;
            // Planned size of the run: lazy evaluations have no job
            // documents yet, so report the status total instead.
            let jobs = control_.evaluation_status(evaluation.id)?.total();
            let response = v1::TriggerBuildResponse {
                jobs,
                evaluation: evaluation.to_value(),
                build: trigger.build,
            };
            Ok(Response::json_status(Status::CREATED, &response.to_value()))
        })())
    });

    // Stats: job states across the installation (monitoring dashboards).
    let control_ = Arc::clone(c);
    let reads_ = Arc::clone(&reads);
    router.get("/api/v1/stats", move |req, _p| {
        // A miss sums the job-state counters the control keeps and counts
        // the systems and projects; no evaluation is decoded, no job read.
        respond((|| {
            authed(&control_, req)?;
            reads_.serve(req, Scope::State, || {
                let totals = control_.job_totals()?;
                let stats = v1::StatsResponse {
                    scheduled: totals.scheduled,
                    running: totals.running,
                    finished: totals.finished,
                    aborted: totals.aborted,
                    failed: totals.failed,
                    quarantined: totals.quarantined,
                    remaining_space: totals.remaining.unwrap_or(0) as u64,
                    systems: control_.list_systems().len(),
                    projects: control_.list_projects().len(),
                };
                Ok(Response::json(&stats.to_value()))
            })
        })())
    });
}
