//! The Chronos data model (paper §2.1).
//!
//! > "The data model of Chronos contains projects, experiments,
//! > evaluations, jobs, systems, and deployments."
//!
//! Every entity carries a sortable [`Id`], timestamps, and a JSON
//! round-trip so the [`store`](crate::store) can persist it and the REST
//! API can serve it. Each entity document has one type and one decoder:
//! its `chronos-api` DTO's [`WireDecode`], proptested there.
//!
//! - [`System`], [`Deployment`], [`Project`], [`Experiment`] and
//!   [`TimelineEvent`] hold exactly what their documents hold, so they
//!   *are* the DTOs, re-exported. What they nest is typed in `chronos-api`
//!   too: a system's [`ParamDef`](crate::params::ParamDef)s and
//!   [`ChartSpec`](crate::charts::ChartSpec)s, an experiment's
//!   [`ParamAssignments`](crate::params::ParamAssignments) and
//!   [`Strategy`](crate::jobsource::Strategy), each decoded once with its
//!   validation.
//! - [`Evaluation`], [`Job`] and [`JobResult`] stay core types, each
//!   decoded through its DTO and converted by value. An evaluation holds
//!   its job-source state, a job carries the lifecycle methods, and a
//!   result holds the archive bytes, which its document reports only by
//!   size.

use chronos_api::v1 as dto;
use chronos_api::{WireDecode, WireEncode};
use chronos_json::Value;
use chronos_util::Id;

use crate::error::{CoreError, CoreResult};
use crate::jobsource::JobSourceState;
use crate::lifecycle::{self, JobEvent};

// The wire vocabulary lives in `chronos-api`; legality queries come from
// the lifecycle state machine. Re-exported so `model::JobState` keeps
// working across the workspace.
pub use crate::lifecycle::JobStateExt;
pub use chronos_api::JobState;

/// A deployment: one reachable instance of a system in an environment
/// (paper §2.1 — parallelism comes from multiple identical deployments).
pub use chronos_api::v1::DeploymentDto as Deployment;
/// An experiment: "the definition of an evaluation with all its parameters;
/// when executed, it results in the creation of an evaluation."
pub use chronos_api::v1::ExperimentDto as Experiment;
/// A project: the collaboration and access-control unit.
pub use chronos_api::v1::ProjectDto as Project;
/// A system under evaluation, with its parameter schema and chart config
/// (paper Fig. 2: "Configuration of a System").
pub use chronos_api::v1::SystemDto as System;
/// A timeline event on a job (paper Fig. 3c: "The timeline shows all events
/// associated with this job").
pub use chronos_api::v1::TimelineEventDto as TimelineEvent;

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
        dto::EvaluationDto {
            id: self.id,
            experiment_id: self.experiment_id,
            job_ids: self.job_ids.clone(),
            swept_params: self.swept_params.clone(),
            created_at: self.created_at,
            source: self.source.as_ref().map(JobSourceState::to_source).unwrap_or_default(),
        }
    }

    /// Parses [`Evaluation::to_json`] output.
    pub fn from_json(value: &Value) -> CoreResult<Evaluation> {
        let doc = dto::EvaluationDto::decode(value)?;
        let source = JobSourceState::from_source(doc.source, doc.job_ids.len());
        Ok(Evaluation {
            id: doc.id,
            experiment_id: doc.experiment_id,
            job_ids: doc.job_ids,
            swept_params: doc.swept_params,
            created_at: doc.created_at,
            source,
        })
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
            timeline: self.timeline.clone(),
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
        let doc = dto::JobDto::decode(value)?;
        Ok(Job {
            id: doc.id,
            evaluation_id: doc.evaluation_id,
            system_id: doc.system_id,
            parameters: doc.parameters,
            state: doc.state,
            deployment_id: doc.deployment_id,
            progress: doc.progress,
            log: doc.log,
            timeline: doc.timeline,
            heartbeat_at: doc.heartbeat_at,
            attempts: doc.attempts,
            claim_key: doc.claim_key,
            result_key: doc.result_key,
            result_id: doc.result_id,
            failure: doc.failure,
            created_at: doc.created_at,
            point_index: doc.point_index,
            budget: doc.budget,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobsource::Strategy;
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
        assert_eq!(System::decode(&system.to_value()).unwrap(), system);
    }

    #[test]
    fn experiment_json_roundtrip() {
        let experiment = Experiment {
            id: Id::generate(),
            project_id: Id::generate(),
            system_id: Id::generate(),
            name: "engine shootout".into(),
            description: "".into(),
            parameters: ParamAssignments::new().fix("threads", 4),
            archived: false,
            created_at: 5,
            strategy: Strategy::Grid,
            budget: None,
        };
        let encoded = experiment.to_value();
        assert!(encoded.get("strategy").is_none(), "grid is the implicit default");
        assert!(encoded.get("budget").is_none(), "unbudgeted is the implicit default");
        assert_eq!(Experiment::decode(&encoded).unwrap(), experiment);

        let budgeted = Experiment {
            budget: Some(dto::JobBudget {
                cpu_millis: Some(2_000),
                max_rss_kib: Some(262_144),
                ..Default::default()
            }),
            ..experiment.clone()
        };
        let encoded = budgeted.to_value();
        assert_eq!(encoded.pointer("/budget/cpu_millis").and_then(Value::as_u64), Some(2_000));
        assert!(encoded.pointer("/budget/io_bytes").is_none(), "absent dimensions are omitted");
        assert_eq!(Experiment::decode(&encoded).unwrap(), budgeted);
        let adaptive = Experiment {
            strategy: Strategy::Adaptive(crate::jobsource::AdaptiveConfig {
                seed: 9,
                initial: Some(16),
                ..Default::default()
            }),
            ..experiment
        };
        let encoded = adaptive.to_value();
        assert_eq!(encoded.pointer("/strategy/kind").and_then(Value::as_str), Some("adaptive"));
        assert_eq!(Experiment::decode(&encoded).unwrap(), adaptive);
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
        assert_eq!(Project::decode(&project.to_value()).unwrap(), project);
        let deployment = Deployment {
            id: Id::generate(),
            system_id: Id::generate(),
            environment: "node-a".into(),
            version: "1.2.3".into(),
            active: true,
            created_at: 8,
        };
        assert_eq!(Deployment::decode(&deployment.to_value()).unwrap(), deployment);
    }

    /// Documents that were once read two ways, read the one way the
    /// control plane reads them: a job without `attempts` was never
    /// claimed, a `progress` past 100 clamps, and `null` reads as absent
    /// for a job's `budget` and an experiment's `strategy`, `budget` and
    /// `parameters`.
    #[test]
    fn drifted_documents_decode_leniently() {
        let mut job = Job::new(Id::generate(), Id::generate(), obj! {"threads" => 4}, 1000);
        job.progress = 7;
        let mut document = job.to_json();
        document.as_object_mut().unwrap().remove("attempts");
        assert_eq!(
            Job::from_json(&document).unwrap().attempts,
            0,
            "absent attempts: never claimed"
        );
        document.set("progress", 300);
        assert_eq!(Job::from_json(&document).unwrap().progress, 100, "progress clamps to 100");
        document.set("budget", Value::Null);
        assert_eq!(Job::from_json(&document).unwrap().budget, None, "null budget is no budget");

        let experiment = Experiment {
            id: Id::generate(),
            project_id: Id::generate(),
            system_id: Id::generate(),
            name: "nulls".into(),
            description: "".into(),
            parameters: ParamAssignments::new().fix("threads", 4),
            archived: false,
            created_at: 5,
            strategy: Strategy::Grid,
            budget: None,
        };
        let mut document = experiment.to_value();
        document.set("strategy", Value::Null);
        document.set("budget", Value::Null);
        assert_eq!(Experiment::decode(&document).unwrap(), experiment, "null reads as absent");
        document.set("parameters", Value::Null);
        let decoded = Experiment::decode(&document).unwrap();
        assert_eq!(decoded.parameters, ParamAssignments::new(), "null parameters are none");
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
