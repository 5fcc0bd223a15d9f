//! The Chronos data model (paper §2.1).
//!
//! > "The data model of Chronos contains projects, experiments,
//! > evaluations, jobs, systems, and deployments."
//!
//! Every entity carries a sortable [`Id`], timestamps, and a JSON
//! round-trip so the [`store`](crate::store) can persist it and the REST
//! API can serve it.

use chronos_api::v1 as dto;
use chronos_api::WireEncode;
use chronos_json::Value;
use chronos_util::Id;

use crate::error::{CoreError, CoreResult};
use crate::jobsource::{JobSourceState, Strategy};
use crate::lifecycle::{self, JobEvent};
use crate::params::{ParamAssignments, ParamDef};

// The wire vocabulary lives in `chronos-api`; legality queries come from
// the lifecycle state machine. Re-exported so `model::JobState` keeps
// working across the workspace.
pub use crate::lifecycle::JobStateExt;
pub use chronos_api::JobState;

/// A system under evaluation, with its parameter schema and chart config
/// (paper Fig. 2: "Configuration of a System").
#[derive(Debug, Clone, PartialEq)]
pub struct System {
    /// Unique id.
    pub id: Id,
    /// Unique human-readable name (e.g. `"minidoc"`).
    pub name: String,
    /// Free-form description.
    pub description: String,
    /// Declared parameters.
    pub parameters: Vec<ParamDef>,
    /// Chart definitions rendered on the result page (see
    /// [`charts`](crate::charts)).
    pub charts: Vec<crate::charts::ChartSpec>,
    /// Creation time (unix millis).
    pub created_at: u64,
}

impl System {
    /// JSON shape served by `GET /systems/:id` and accepted on registration.
    pub fn to_json(&self) -> Value {
        dto::SystemDto {
            id: self.id,
            name: self.name.clone(),
            description: self.description.clone(),
            parameters: self.parameters.iter().map(ParamDef::to_json).collect(),
            charts: self.charts.iter().map(|c| c.to_json()).collect(),
            created_at: self.created_at,
        }
        .to_value()
    }

    /// Parses [`System::to_json`] output.
    pub fn from_json(value: &Value) -> CoreResult<System> {
        Ok(System {
            id: parse_id(value, "id")?,
            name: require_str(value, "name")?,
            description: opt_str(value, "description"),
            parameters: value
                .get("parameters")
                .and_then(Value::as_array)
                .map(|items| items.iter().map(ParamDef::from_json).collect())
                .transpose()?
                .unwrap_or_default(),
            charts: value
                .get("charts")
                .and_then(Value::as_array)
                .map(|items| items.iter().map(crate::charts::ChartSpec::from_json).collect())
                .transpose()?
                .unwrap_or_default(),
            created_at: value.get("created_at").and_then(Value::as_u64).unwrap_or(0),
        })
    }
}

/// A deployment: one reachable instance of a system in an environment
/// (paper §2.1 — parallelism comes from multiple identical deployments).
#[derive(Debug, Clone, PartialEq)]
pub struct Deployment {
    /// Unique id.
    pub id: Id,
    /// The system this deploys.
    pub system_id: Id,
    /// Environment label (e.g. `"node-a"`, `"staging"`).
    pub environment: String,
    /// Version of the deployed system.
    pub version: String,
    /// Whether the deployment currently accepts jobs.
    pub active: bool,
    /// Creation time.
    pub created_at: u64,
}

impl Deployment {
    /// JSON shape.
    pub fn to_json(&self) -> Value {
        dto::DeploymentDto {
            id: self.id,
            system_id: self.system_id,
            environment: self.environment.clone(),
            version: self.version.clone(),
            active: self.active,
            created_at: self.created_at,
        }
        .to_value()
    }

    /// Parses [`Deployment::to_json`] output.
    pub fn from_json(value: &Value) -> CoreResult<Deployment> {
        Ok(Deployment {
            id: parse_id(value, "id")?,
            system_id: parse_id(value, "system_id")?,
            environment: opt_str(value, "environment"),
            version: opt_str(value, "version"),
            active: value.get("active").and_then(Value::as_bool).unwrap_or(true),
            created_at: value.get("created_at").and_then(Value::as_u64).unwrap_or(0),
        })
    }
}

/// A project: the collaboration and access-control unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Project {
    /// Unique id.
    pub id: Id,
    /// Project name.
    pub name: String,
    /// Description.
    pub description: String,
    /// Member user ids; members see all experiments and results.
    pub members: Vec<Id>,
    /// Archived projects are read-only.
    pub archived: bool,
    /// Creation time.
    pub created_at: u64,
}

impl Project {
    /// JSON shape.
    pub fn to_json(&self) -> Value {
        dto::ProjectDto {
            id: self.id,
            name: self.name.clone(),
            description: self.description.clone(),
            members: self.members.clone(),
            archived: self.archived,
            created_at: self.created_at,
        }
        .to_value()
    }

    /// Parses [`Project::to_json`] output.
    pub fn from_json(value: &Value) -> CoreResult<Project> {
        let members = value
            .get("members")
            .and_then(Value::as_array)
            .map(|items| {
                items
                    .iter()
                    .map(|m| {
                        m.as_str()
                            .and_then(|s| Id::parse_base32(s).ok())
                            .ok_or_else(|| CoreError::Invalid("bad member id".into()))
                    })
                    .collect::<CoreResult<Vec<_>>>()
            })
            .transpose()?
            .unwrap_or_default();
        Ok(Project {
            id: parse_id(value, "id")?,
            name: require_str(value, "name")?,
            description: opt_str(value, "description"),
            members,
            archived: value.get("archived").and_then(Value::as_bool).unwrap_or(false),
            created_at: value.get("created_at").and_then(Value::as_u64).unwrap_or(0),
        })
    }
}

/// An experiment: "the definition of an evaluation with all its parameters;
/// when executed, it results in the creation of an evaluation."
#[derive(Debug, Clone, PartialEq)]
pub struct Experiment {
    /// Unique id.
    pub id: Id,
    /// Owning project.
    pub project_id: Id,
    /// System under evaluation.
    pub system_id: Id,
    /// Experiment name.
    pub name: String,
    /// Description.
    pub description: String,
    /// Parameter assignments (fixed values and sweeps).
    pub assignments: ParamAssignments,
    /// Archived experiments cannot spawn new evaluations.
    pub archived: bool,
    /// Creation time.
    pub created_at: u64,
    /// How evaluations of this experiment explore the parameter space.
    pub strategy: Strategy,
    /// Per-job resource budget copied onto every materialized job. `None`
    /// means unbudgeted (the historic behavior).
    pub budget: Option<dto::JobBudget>,
}

impl Experiment {
    /// JSON shape. Grid strategy (the historic default) is omitted so
    /// pre-strategy documents stay byte-identical.
    pub fn to_json(&self) -> Value {
        dto::ExperimentDto {
            id: self.id,
            project_id: self.project_id,
            system_id: self.system_id,
            name: self.name.clone(),
            description: self.description.clone(),
            parameters: self.assignments.to_json(),
            archived: self.archived,
            created_at: self.created_at,
            strategy: match &self.strategy {
                Strategy::Grid => None,
                adaptive => Some(adaptive.dto()),
            },
            budget: self.budget,
        }
        .to_value()
    }

    /// Parses [`Experiment::to_json`] output.
    pub fn from_json(value: &Value) -> CoreResult<Experiment> {
        use chronos_api::WireDecode;
        let strategy = match value.get("strategy") {
            None | Some(Value::Null) => Strategy::Grid,
            Some(v) => Strategy::from_dto(
                &dto::StrategyDto::decode(v)
                    .map_err(|e| CoreError::Invalid(format!("bad strategy: {e}")))?,
            ),
        };
        let budget = match value.get("budget") {
            None | Some(Value::Null) => None,
            Some(v) => Some(
                dto::JobBudget::decode(v)
                    .map_err(|e| CoreError::Invalid(format!("bad budget: {e}")))?,
            ),
        };
        Ok(Experiment {
            id: parse_id(value, "id")?,
            project_id: parse_id(value, "project_id")?,
            system_id: parse_id(value, "system_id")?,
            name: require_str(value, "name")?,
            description: opt_str(value, "description"),
            assignments: value
                .get("parameters")
                .map(ParamAssignments::from_json)
                .transpose()?
                .unwrap_or_default(),
            archived: value.get("archived").and_then(Value::as_bool).unwrap_or(false),
            created_at: value.get("created_at").and_then(Value::as_u64).unwrap_or(0),
            strategy,
            budget,
        })
    }
}

/// An evaluation: one run of an experiment, consisting of jobs.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    /// Unique id.
    pub id: Id,
    /// The experiment this runs.
    pub experiment_id: Id,
    /// Ids of this evaluation's **materialized** jobs, in issue order. A
    /// lazy evaluation grows this list as the claim path pulls points from
    /// its job source.
    pub job_ids: Vec<Id>,
    /// Names of the swept parameters (analysis axes).
    pub swept_params: Vec<String>,
    /// Creation time.
    pub created_at: u64,
    /// Lazy iteration state. `None` for documents that predate lazy
    /// evaluations — those were fully materialized at creation.
    pub source: Option<JobSourceState>,
}

impl Evaluation {
    /// JSON shape. Source fields are appended only when present, so
    /// pre-refactor documents stay byte-identical.
    pub fn to_json(&self) -> Value {
        self.dto().to_value()
    }

    pub(crate) fn dto(&self) -> dto::EvaluationDto {
        let mut doc = dto::EvaluationDto {
            id: self.id,
            experiment_id: self.experiment_id,
            job_ids: self.job_ids.clone(),
            swept_params: self.swept_params.clone(),
            created_at: self.created_at,
            source: dto::EvaluationSourceDto::default(),
        };
        if let Some(source) = &self.source {
            source.apply_to_dto(&mut doc);
        }
        doc
    }

    /// Parses [`Evaluation::to_json`] output.
    pub fn from_json(value: &Value) -> CoreResult<Evaluation> {
        use chronos_api::WireDecode;
        let doc = dto::EvaluationDto::decode(value)
            .map_err(|e| CoreError::Invalid(format!("bad evaluation: {e}")))?;
        Ok(Evaluation {
            id: doc.id,
            experiment_id: doc.experiment_id,
            job_ids: doc.job_ids.clone(),
            swept_params: doc.swept_params.clone(),
            created_at: doc.created_at,
            source: JobSourceState::from_dto(&doc),
        })
    }
}

// `JobState` itself is defined in `chronos-api` (it is wire vocabulary)
// and re-exported at the top of this module; `JobStateExt` supplies the
// legality queries backed by `lifecycle::transition`.

/// A timeline event on a job (paper Fig. 3c: "The timeline shows all events
/// associated with this job").
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineEvent {
    /// When it happened (unix millis).
    pub at: u64,
    /// Short machine-readable kind (`created`, `claimed`, `finished`, ...).
    pub kind: String,
    /// Human-readable detail.
    pub message: String,
}

impl TimelineEvent {
    fn dto(&self) -> dto::TimelineEventDto {
        dto::TimelineEventDto {
            at: self.at,
            kind: self.kind.clone(),
            message: self.message.clone(),
        }
    }

    /// JSON shape (the rendered `time` string is derived from `at`).
    pub fn to_json(&self) -> Value {
        self.dto().to_value()
    }
}

/// A job: "a subset of an evaluation, e.g., the run of a benchmark for a
/// specific set of parameters."
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Unique id.
    pub id: Id,
    /// Owning evaluation.
    pub evaluation_id: Id,
    /// The system this job runs against.
    pub system_id: Id,
    /// Concrete parameter values for this point of the evaluation space.
    pub parameters: Value,
    /// Current state.
    pub state: JobState,
    /// Deployment the job is (or was) assigned to.
    pub deployment_id: Option<Id>,
    /// Progress 0..=100 (reported by the agent).
    pub progress: u8,
    /// Log output streamed by the agent.
    pub log: String,
    /// Timeline of state changes and notable events.
    pub timeline: Vec<TimelineEvent>,
    /// Last agent heartbeat (unix millis), while running.
    pub heartbeat_at: Option<u64>,
    /// How many times this job has been (re)scheduled.
    pub attempts: u32,
    /// Idempotency key of the claim that started the current attempt; a
    /// re-claim carrying the same key (retry after a dropped response)
    /// returns this job instead of failing with a conflict.
    pub claim_key: Option<String>,
    /// Idempotency key of the accepted result upload; a duplicate upload
    /// with the same key returns the stored result instead of conflicting.
    pub result_key: Option<String>,
    /// The result id once finished.
    pub result_id: Option<Id>,
    /// Failure reason when failed.
    pub failure: Option<String>,
    /// Creation time.
    pub created_at: u64,
    /// Index of this job's point in the evaluation's parameter space.
    /// `Some` on lazily-materialized jobs — the claim path uses it to adopt
    /// a job whose evaluation update was lost in a crash instead of
    /// duplicating the point.
    pub point_index: Option<u64>,
    /// Resource budget copied from the experiment at materialization; the
    /// agent-side watchdog enforces it. `None` means unbudgeted.
    pub budget: Option<dto::JobBudget>,
}

impl Job {
    /// Creates a scheduled job.
    pub fn new(evaluation_id: Id, system_id: Id, parameters: Value, now: u64) -> Job {
        Job {
            id: Id::generate(),
            evaluation_id,
            system_id,
            parameters,
            state: JobState::Scheduled,
            deployment_id: None,
            progress: 0,
            log: String::new(),
            timeline: vec![TimelineEvent {
                at: now,
                kind: "created".into(),
                message: "job created and scheduled".into(),
            }],
            heartbeat_at: None,
            attempts: 0,
            claim_key: None,
            result_key: None,
            result_id: None,
            failure: None,
            created_at: now,
            point_index: None,
            budget: None,
        }
    }

    /// Records a timeline event.
    pub fn record(&mut self, now: u64, kind: &str, message: impl Into<String>) {
        self.timeline.push(TimelineEvent { at: now, kind: kind.into(), message: message.into() });
    }

    /// Applies a lifecycle event, enforcing the transition table.
    pub fn apply(&mut self, event: JobEvent, now: u64, message: &str) -> CoreResult<()> {
        let next = lifecycle::transition(self.state, event)
            .map_err(|violation| CoreError::Conflict(format!("job {} {violation}", self.id)))?;
        self.state = next;
        self.record(now, next.as_str(), message);
        Ok(())
    }

    /// Applies a state transition. Each state is the target of exactly one
    /// [`JobEvent`], so this is the state-centric view of [`Job::apply`].
    pub fn transition(&mut self, next: JobState, now: u64, message: &str) -> CoreResult<()> {
        let event = JobEvent::ALL
            .into_iter()
            .find(|e| e.target() == next)
            .expect("every state is the target of exactly one lifecycle event");
        self.apply(event, now, message)
    }

    fn dto(&self) -> dto::JobDto {
        dto::JobDto {
            id: self.id,
            evaluation_id: self.evaluation_id,
            system_id: self.system_id,
            parameters: self.parameters.clone(),
            state: self.state,
            deployment_id: self.deployment_id,
            progress: self.progress,
            log: self.log.clone(),
            timeline: self.timeline.iter().map(TimelineEvent::dto).collect(),
            heartbeat_at: self.heartbeat_at,
            attempts: self.attempts,
            claim_key: self.claim_key.clone(),
            result_key: self.result_key.clone(),
            result_id: self.result_id,
            failure: self.failure.clone(),
            created_at: self.created_at,
            point_index: self.point_index,
            budget: self.budget,
        }
    }

    /// JSON shape (full detail).
    pub fn to_json(&self) -> Value {
        self.dto().to_value()
    }

    /// The listing view: `log` and `timeline` omitted.
    pub fn to_json_summary(&self) -> Value {
        self.dto().summary_value()
    }

    /// Parses [`Job::to_json`] output (timeline event times only; the
    /// rendered `time` strings are ignored).
    pub fn from_json(value: &Value) -> CoreResult<Job> {
        let state = value
            .get("state")
            .and_then(Value::as_str)
            .and_then(JobState::parse)
            .ok_or_else(|| CoreError::Invalid("job needs a valid state".into()))?;
        let timeline = value
            .get("timeline")
            .and_then(Value::as_array)
            .map(|items| {
                items
                    .iter()
                    .map(|e| TimelineEvent {
                        at: e.get("at").and_then(Value::as_u64).unwrap_or(0),
                        kind: opt_str(e, "kind"),
                        message: opt_str(e, "message"),
                    })
                    .collect()
            })
            .unwrap_or_default();
        Ok(Job {
            id: parse_id(value, "id")?,
            evaluation_id: parse_id(value, "evaluation_id")?,
            system_id: parse_id(value, "system_id")?,
            parameters: value.get("parameters").cloned().unwrap_or(Value::Null),
            state,
            deployment_id: opt_id(value, "deployment_id")?,
            progress: value.get("progress").and_then(Value::as_u64).unwrap_or(0) as u8,
            log: opt_str(value, "log"),
            timeline,
            heartbeat_at: value.get("heartbeat_at").and_then(Value::as_u64),
            attempts: value.get("attempts").and_then(Value::as_u64).unwrap_or(0) as u32,
            claim_key: value.get("claim_key").and_then(Value::as_str).map(str::to_string),
            result_key: value.get("result_key").and_then(Value::as_str).map(str::to_string),
            result_id: opt_id(value, "result_id")?,
            failure: value.get("failure").and_then(Value::as_str).map(str::to_string),
            created_at: value.get("created_at").and_then(Value::as_u64).unwrap_or(0),
            point_index: value.get("point_index").and_then(Value::as_u64),
            budget: value
                .get("budget")
                .map(|v| {
                    use chronos_api::WireDecode;
                    dto::JobBudget::decode(v)
                        .map_err(|e| CoreError::Invalid(format!("bad budget: {e}")))
                })
                .transpose()?,
        })
    }
}

/// A result: "a JSON and a zip file" (paper §2.1).
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// Unique id.
    pub id: Id,
    /// The job that produced it.
    pub job_id: Id,
    /// The measurement document used for analysis within Chronos Control.
    pub data: Value,
    /// The supplementary zip archive (raw logs, extra files).
    pub archive: Vec<u8>,
    /// Upload time.
    pub created_at: u64,
}

impl JobResult {
    /// JSON shape — the archive is referenced by size, downloadable via its
    /// own endpoint.
    pub fn to_json(&self) -> Value {
        dto::JobResultDto {
            id: self.id,
            job_id: self.job_id,
            data: self.data.clone(),
            archive_bytes: self.archive.len(),
            created_at: self.created_at,
        }
        .to_value()
    }
}

pub(crate) fn parse_id(value: &Value, field: &str) -> CoreResult<Id> {
    value
        .get(field)
        .and_then(Value::as_str)
        .and_then(|s| Id::parse_base32(s).ok())
        .ok_or_else(|| CoreError::Invalid(format!("missing or invalid id field {field:?}")))
}

pub(crate) fn opt_id(value: &Value, field: &str) -> CoreResult<Option<Id>> {
    match value.get(field) {
        None | Some(Value::Null) => Ok(None),
        Some(v) => {
            let s = v
                .as_str()
                .ok_or_else(|| CoreError::Invalid(format!("field {field:?} must be a string")))?;
            Id::parse_base32(s)
                .map(Some)
                .map_err(|_| CoreError::Invalid(format!("bad id in {field:?}")))
        }
    }
}

pub(crate) fn require_str(value: &Value, field: &str) -> CoreResult<String> {
    value
        .get(field)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| CoreError::Invalid(format!("missing field {field:?}")))
}

pub(crate) fn opt_str(value: &Value, field: &str) -> String {
    value.get(field).and_then(Value::as_str).unwrap_or("").to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{ParamAssignments, ParamType};
    use chronos_json::obj;

    #[test]
    fn job_state_machine() {
        use JobState::*;
        assert!(Scheduled.can_transition_to(Running));
        assert!(Scheduled.can_transition_to(Aborted));
        assert!(!Scheduled.can_transition_to(Finished));
        assert!(Running.can_transition_to(Finished));
        assert!(Running.can_transition_to(Failed));
        assert!(Running.can_transition_to(Aborted));
        assert!(!Running.can_transition_to(Scheduled));
        assert!(Failed.can_transition_to(Scheduled), "failed jobs can be re-scheduled");
        assert!(Failed.can_transition_to(Quarantined), "poison jobs can be quarantined");
        assert!(!Finished.can_transition_to(Running));
        assert!(!Aborted.can_transition_to(Scheduled));
        assert!(!Quarantined.can_transition_to(Scheduled), "quarantine is terminal");
        assert!(Finished.is_terminal());
        assert!(Aborted.is_terminal());
        assert!(Quarantined.is_terminal());
        assert!(!Failed.is_terminal());
    }

    #[test]
    fn job_transition_records_timeline() {
        let mut job = Job::new(Id::generate(), Id::generate(), obj! {"threads" => 4}, 1000);
        job.transition(JobState::Running, 2000, "claimed by agent-1").unwrap();
        job.transition(JobState::Finished, 3000, "result uploaded").unwrap();
        assert_eq!(job.timeline.len(), 3);
        assert_eq!(job.timeline[1].kind, "running");
        assert_eq!(job.timeline[2].at, 3000);
        // Illegal transition refused and not recorded.
        assert!(job.transition(JobState::Running, 4000, "no").is_err());
        assert_eq!(job.timeline.len(), 3);
    }

    #[test]
    fn job_json_roundtrip() {
        let mut job = Job::new(Id::generate(), Id::generate(), obj! {"threads" => 4}, 1000);
        job.transition(JobState::Running, 2000, "claimed").unwrap();
        job.deployment_id = Some(Id::generate());
        job.progress = 42;
        job.log = "line1\nline2\n".into();
        job.heartbeat_at = Some(2500);
        job.claim_key = Some("claim-abc".into());
        job.result_key = Some("upload-xyz".into());
        job.budget = Some(dto::JobBudget { wall_millis: Some(60_000), ..Default::default() });
        let parsed = Job::from_json(&job.to_json()).unwrap();
        assert_eq!(parsed, job);
    }

    #[test]
    fn system_json_roundtrip() {
        let system = System {
            id: Id::generate(),
            name: "minidoc".into(),
            description: "embedded doc store".into(),
            parameters: vec![crate::params::ParamDef::new(
                "threads",
                "client threads",
                ParamType::Interval { min: 1, max: 8, step: 1 },
                Value::from(1),
            )
            .unwrap()],
            charts: vec![],
            created_at: 1234,
        };
        assert_eq!(System::from_json(&system.to_json()).unwrap(), system);
    }

    #[test]
    fn experiment_json_roundtrip() {
        let experiment = Experiment {
            id: Id::generate(),
            project_id: Id::generate(),
            system_id: Id::generate(),
            name: "engine shootout".into(),
            description: "".into(),
            assignments: ParamAssignments::new().fix("threads", 4),
            archived: false,
            created_at: 5,
            strategy: Strategy::Grid,
            budget: None,
        };
        let encoded = experiment.to_json();
        assert!(encoded.get("strategy").is_none(), "grid is the implicit default");
        assert!(encoded.get("budget").is_none(), "unbudgeted is the implicit default");
        assert_eq!(Experiment::from_json(&encoded).unwrap(), experiment);

        let budgeted = Experiment {
            budget: Some(dto::JobBudget {
                cpu_millis: Some(2_000),
                max_rss_kib: Some(262_144),
                ..Default::default()
            }),
            ..experiment.clone()
        };
        let encoded = budgeted.to_json();
        assert_eq!(encoded.pointer("/budget/cpu_millis").and_then(Value::as_u64), Some(2_000));
        assert!(encoded.pointer("/budget/io_bytes").is_none(), "absent dimensions are omitted");
        assert_eq!(Experiment::from_json(&encoded).unwrap(), budgeted);
        let adaptive = Experiment {
            strategy: Strategy::Adaptive(crate::jobsource::AdaptiveConfig {
                seed: 9,
                initial: Some(16),
                ..Default::default()
            }),
            ..experiment
        };
        let encoded = adaptive.to_json();
        assert_eq!(encoded.pointer("/strategy/kind").and_then(Value::as_str), Some("adaptive"));
        assert_eq!(Experiment::from_json(&encoded).unwrap(), adaptive);
    }

    #[test]
    fn project_and_deployment_roundtrip() {
        let project = Project {
            id: Id::generate(),
            name: "p".into(),
            description: "d".into(),
            members: vec![Id::generate(), Id::generate()],
            archived: true,
            created_at: 9,
        };
        assert_eq!(Project::from_json(&project.to_json()).unwrap(), project);
        let deployment = Deployment {
            id: Id::generate(),
            system_id: Id::generate(),
            environment: "node-a".into(),
            version: "1.2.3".into(),
            active: true,
            created_at: 8,
        };
        assert_eq!(Deployment::from_json(&deployment.to_json()).unwrap(), deployment);
    }

    #[test]
    fn evaluation_roundtrip() {
        let legacy = Evaluation {
            id: Id::generate(),
            experiment_id: Id::generate(),
            job_ids: vec![Id::generate(), Id::generate()],
            swept_params: vec!["engine".into(), "threads".into()],
            created_at: 7,
            source: None,
        };
        let encoded = legacy.to_json();
        assert!(encoded.get("total_points").is_none(), "legacy shape has no source keys");
        assert_eq!(Evaluation::from_json(&encoded).unwrap(), legacy);

        let lazy = Evaluation {
            source: Some(crate::jobsource::JobSourceState::plan(Strategy::Grid, 40)),
            ..legacy.clone()
        };
        let encoded = lazy.to_json();
        assert_eq!(encoded.get("total_points").and_then(Value::as_u64), Some(40));
        assert_eq!(Evaluation::from_json(&encoded).unwrap(), lazy);

        let adaptive = Evaluation {
            source: Some(crate::jobsource::JobSourceState::plan(
                Strategy::Adaptive(crate::jobsource::AdaptiveConfig {
                    seed: 3,
                    initial: Some(8),
                    ..Default::default()
                }),
                40,
            )),
            ..legacy
        };
        let encoded = adaptive.to_json();
        assert_eq!(encoded.pointer("/frontier/rung").and_then(Value::as_u64), Some(0));
        assert_eq!(Evaluation::from_json(&encoded).unwrap(), adaptive);
    }

    #[test]
    fn state_name_roundtrip() {
        for s in [
            JobState::Scheduled,
            JobState::Running,
            JobState::Finished,
            JobState::Aborted,
            JobState::Failed,
            JobState::Quarantined,
        ] {
            assert_eq!(JobState::parse(s.as_str()), Some(s));
        }
        assert_eq!(JobState::parse("paused"), None);
    }

    #[test]
    fn result_json_reports_archive_size() {
        let result = JobResult {
            id: Id::generate(),
            job_id: Id::generate(),
            data: obj! {"tp" => 100},
            archive: vec![0u8; 1234],
            created_at: 1,
        };
        assert_eq!(result.to_json().get("archive_bytes").and_then(Value::as_u64), Some(1234));
    }
}
