//! The Chronos data model (paper §2.1).
//!
//! > "The data model of Chronos contains projects, experiments,
//! > evaluations, jobs, systems, and deployments."
//!
//! Every entity carries a sortable [`Id`], timestamps, and a JSON
//! round-trip so the [`store`](crate::store) can persist it and the REST
//! API can serve it. Each entity document has one type and one decoder:
//! its `chronos-api` DTO's [`WireDecode`](chronos_api::WireDecode),
//! proptested there.
//!
//! - [`System`], [`Deployment`], [`Project`], [`Experiment`],
//!   [`Evaluation`], [`Job`] and [`TimelineEvent`] hold exactly what their
//!   documents hold, so they *are* the DTOs, re-exported. What they nest is
//!   typed in `chronos-api` too: a system's
//!   [`ParamDef`](crate::params::ParamDef)s and
//!   [`ChartSpec`](crate::charts::ChartSpec)s, an experiment's
//!   [`ParamAssignments`](crate::params::ParamAssignments) and
//!   [`Strategy`](crate::jobsource::Strategy), an evaluation's
//!   [`JobSourceState`](crate::jobsource::JobSourceState), each decoded
//!   once with its validation. A job's lifecycle methods are
//!   [`JobExt`], beside the transition table they enforce: a caller fires
//!   a [`JobEvent`](crate::lifecycle::JobEvent), never names a state.
//! - [`JobResult`] stays a core type: it holds the archive bytes, which
//!   its document reports only by size.

use chronos_api::v1 as dto;
use chronos_api::WireEncode;
use chronos_json::Value;
use chronos_util::Id;

// The wire vocabulary lives in `chronos-api`; the lifecycle methods come
// from the lifecycle state machine. Re-exported so `model::JobState` keeps
// working across the workspace.
pub use crate::lifecycle::JobExt;
pub use chronos_api::JobState;

/// A deployment: one reachable instance of a system in an environment
/// (paper §2.1 — parallelism comes from multiple identical deployments).
pub use chronos_api::v1::DeploymentDto as Deployment;
/// An evaluation: one run of an experiment, consisting of jobs.
pub use chronos_api::v1::EvaluationDto as Evaluation;
/// An experiment: "the definition of an evaluation with all its parameters;
/// when executed, it results in the creation of an evaluation."
pub use chronos_api::v1::ExperimentDto as Experiment;
/// A job: "a subset of an evaluation, e.g., the run of a benchmark for a
/// specific set of parameters."
pub use chronos_api::v1::JobDto as Job;
/// A project: the collaboration and access-control unit.
pub use chronos_api::v1::ProjectDto as Project;
/// A system under evaluation, with its parameter schema and chart config
/// (paper Fig. 2: "Configuration of a System").
pub use chronos_api::v1::SystemDto as System;
/// A timeline event on a job (paper Fig. 3c: "The timeline shows all events
/// associated with this job").
pub use chronos_api::v1::TimelineEventDto as TimelineEvent;

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
    use crate::lifecycle::JobEvent;
    use crate::params::{ParamAssignments, ParamType};
    use chronos_api::WireDecode;
    use chronos_json::obj;

    #[test]
    fn job_events_record_the_timeline() {
        let mut job = Job::new(Id::generate(), Id::generate(), obj! {"threads" => 4}, 1000);
        job.apply(JobEvent::Claim, 2000, "claimed by agent-1").unwrap();
        job.apply(JobEvent::Finish, 3000, "result uploaded").unwrap();
        assert_eq!(job.timeline.len(), 3);
        assert_eq!(job.timeline[1].kind, "running");
        assert_eq!(job.timeline[2].at, 3000);
        // Illegal event refused and not recorded.
        assert!(job.apply(JobEvent::Claim, 4000, "no").is_err());
        assert_eq!(job.timeline.len(), 3);
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

    /// Experiment documents that were once read two ways, read the one
    /// way the control plane reads them: `null` reads as absent for an
    /// experiment's `strategy`, `budget` and `parameters`. (The job half
    /// sits beside the job document in `chronos-api`.)
    #[test]
    fn drifted_documents_decode_leniently() {
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
