//! Request DTOs (strict decode) and the simple response bodies for the
//! management surface of the v1 API.
//!
//! Strict means: a missing or ill-typed *required* field is a typed
//! [`WireError`] that the server turns into a 400 envelope. Optional
//! fields keep their documented defaults.

use crate::codec::{self, WireDecode, WireEncode};
use crate::error::WireError;
use crate::v1::{JobBudget, ParamAssignments, Strategy};
use chronos_json::{obj, Map, Value};
use chronos_util::Id;

/// `POST /api/v1/login`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoginRequest {
    pub username: String,
    pub password: String,
}

impl WireEncode for LoginRequest {
    fn to_value(&self) -> Value {
        obj! {
            "username" => self.username.as_str(),
            "password" => self.password.as_str(),
        }
    }
}

impl WireDecode for LoginRequest {
    fn decode(value: &Value) -> Result<Self, WireError> {
        Ok(Self {
            username: codec::req_str(value, "username")?,
            password: codec::req_str(value, "password")?,
        })
    }
}

/// `POST /api/v1/login` response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoginResponse {
    pub token: String,
}

impl WireEncode for LoginResponse {
    fn to_value(&self) -> Value {
        obj! { "token" => self.token.as_str() }
    }
}

impl WireDecode for LoginResponse {
    fn decode(value: &Value) -> Result<Self, WireError> {
        Ok(Self { token: codec::req_str(value, "token")? })
    }
}

/// `POST /api/v1/logout` response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogoutResponse {
    pub revoked: bool,
}

impl WireEncode for LogoutResponse {
    fn to_value(&self) -> Value {
        obj! { "revoked" => self.revoked }
    }
}

impl WireDecode for LogoutResponse {
    fn decode(value: &Value) -> Result<Self, WireError> {
        Ok(Self { revoked: value.get("revoked").and_then(Value::as_bool).unwrap_or(false) })
    }
}

/// `POST /api/v1/users`. An absent `role` defaults to member; a present
/// but unknown/ill-typed one is rejected (the handler validates the name
/// against the role table).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CreateUserRequest {
    pub username: String,
    pub password: String,
    pub role: Option<String>,
}

impl WireEncode for CreateUserRequest {
    fn to_value(&self) -> Value {
        let mut map = Map::new();
        map.insert("username".into(), Value::from(self.username.as_str()));
        map.insert("password".into(), Value::from(self.password.as_str()));
        if let Some(role) = &self.role {
            map.insert("role".into(), Value::from(role.as_str()));
        }
        Value::Object(map)
    }
}

impl WireDecode for CreateUserRequest {
    fn decode(value: &Value) -> Result<Self, WireError> {
        let role = match value.get("role") {
            None => None,
            Some(v) if v.is_null() => None,
            Some(v) => Some(v.as_str().ok_or(WireError::BadField("role"))?.to_string()),
        };
        Ok(Self {
            username: codec::req_str(value, "username")?,
            password: codec::req_str(value, "password")?,
            role,
        })
    }
}

/// `POST /api/v1/systems/:id/deployments`. `version` is required — a
/// deployment without one is unidentifiable in trend analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CreateDeploymentRequest {
    pub environment: String,
    pub version: String,
}

impl WireEncode for CreateDeploymentRequest {
    fn to_value(&self) -> Value {
        obj! {
            "environment" => self.environment.as_str(),
            "version" => self.version.as_str(),
        }
    }
}

impl WireDecode for CreateDeploymentRequest {
    fn decode(value: &Value) -> Result<Self, WireError> {
        Ok(Self {
            environment: codec::str_or(value, "environment", "default"),
            version: codec::req_str(value, "version")?,
        })
    }
}

/// `POST /api/v1/deployments/:id/active`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SetDeploymentActiveRequest {
    pub active: bool,
}

impl WireEncode for SetDeploymentActiveRequest {
    fn to_value(&self) -> Value {
        obj! { "active" => self.active }
    }
}

impl WireDecode for SetDeploymentActiveRequest {
    fn decode(value: &Value) -> Result<Self, WireError> {
        Ok(Self { active: codec::req_bool(value, "active")? })
    }
}

/// `POST /api/v1/projects`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CreateProjectRequest {
    pub name: String,
    pub description: String,
}

impl WireEncode for CreateProjectRequest {
    fn to_value(&self) -> Value {
        obj! {
            "name" => self.name.as_str(),
            "description" => self.description.as_str(),
        }
    }
}

impl WireDecode for CreateProjectRequest {
    fn decode(value: &Value) -> Result<Self, WireError> {
        Ok(Self {
            name: codec::req_str(value, "name")?,
            description: codec::str_or(value, "description", ""),
        })
    }
}

/// `POST /api/v1/projects/:id/members`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddProjectMemberRequest {
    pub user_id: Id,
}

impl WireEncode for AddProjectMemberRequest {
    fn to_value(&self) -> Value {
        obj! { "user_id" => self.user_id.to_base32() }
    }
}

impl WireDecode for AddProjectMemberRequest {
    fn decode(value: &Value) -> Result<Self, WireError> {
        Ok(Self { user_id: codec::req_id(value, "user_id")? })
    }
}

/// `POST /api/v1/projects/:id/experiments`. The core layer validates
/// `parameters` against the system's parameter space. An absent `strategy`
/// means grid.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateExperimentRequest {
    pub name: String,
    pub system_id: Id,
    pub description: String,
    pub parameters: Option<ParamAssignments>,
    pub strategy: Option<Strategy>,
    /// Per-job resource budget applied to every job of every evaluation of
    /// this experiment. Absent (or empty) means unbudgeted.
    pub budget: Option<JobBudget>,
}

impl WireEncode for CreateExperimentRequest {
    fn to_value(&self) -> Value {
        let mut map = Map::new();
        map.insert("name".into(), Value::from(self.name.as_str()));
        map.insert("system_id".into(), Value::from(self.system_id.to_base32()));
        if !self.description.is_empty() {
            map.insert("description".into(), Value::from(self.description.as_str()));
        }
        if let Some(parameters) = &self.parameters {
            map.insert("parameters".into(), parameters.to_value());
        }
        if let Some(strategy) = &self.strategy {
            map.insert("strategy".into(), strategy.to_value());
        }
        if let Some(budget) = &self.budget {
            map.insert("budget".into(), budget.to_value());
        }
        Value::Object(map)
    }
}

impl WireDecode for CreateExperimentRequest {
    fn decode(value: &Value) -> Result<Self, WireError> {
        let strategy = codec::field(value, "strategy").map(Strategy::decode).transpose()?;
        let budget = codec::field(value, "budget").map(JobBudget::decode).transpose()?;
        Ok(Self {
            name: codec::req_str(value, "name")?,
            system_id: codec::req_id(value, "system_id")?,
            description: codec::str_or(value, "description", ""),
            parameters: codec::field(value, "parameters")
                .map(ParamAssignments::decode)
                .transpose()?,
            strategy,
            budget,
        })
    }
}

/// `POST /api/v1/trigger/build` — the build-bot integration hook.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TriggerBuildRequest {
    pub experiment_id: Id,
    pub build: String,
}

impl WireEncode for TriggerBuildRequest {
    fn to_value(&self) -> Value {
        obj! {
            "experiment_id" => self.experiment_id.to_base32(),
            "build" => self.build.as_str(),
        }
    }
}

impl WireDecode for TriggerBuildRequest {
    fn decode(value: &Value) -> Result<Self, WireError> {
        Ok(Self {
            experiment_id: codec::req_id(value, "experiment_id")?,
            build: codec::str_or(value, "build", "unknown"),
        })
    }
}

/// `POST /api/v1/trigger/build` response.
#[derive(Debug, Clone, PartialEq)]
pub struct TriggerBuildResponse {
    pub evaluation: Value,
    pub build: String,
    pub jobs: usize,
}

impl WireEncode for TriggerBuildResponse {
    fn to_value(&self) -> Value {
        obj! {
            "evaluation" => self.evaluation.clone(),
            "triggered_by" => obj! { "build" => self.build.as_str() },
            "jobs" => self.jobs,
        }
    }
}

impl WireDecode for TriggerBuildResponse {
    fn decode(value: &Value) -> Result<Self, WireError> {
        let triggered_by = value.get("triggered_by").cloned().unwrap_or(Value::Null);
        Ok(Self {
            evaluation: codec::req_value(value, "evaluation")?,
            build: codec::str_or(&triggered_by, "build", "unknown"),
            jobs: codec::lenient_u64(value, "jobs").unwrap_or(0) as usize,
        })
    }
}

/// `GET /api/v1/stats` — installation-wide job-state roll-up.
/// `remaining_space` sums the not-yet-materialized points of all lazy
/// evaluations; `0` is omitted on the wire (pre-refactor bodies had no
/// such key).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsResponse {
    pub scheduled: usize,
    pub running: usize,
    pub finished: usize,
    pub aborted: usize,
    pub failed: usize,
    /// Jobs quarantined installation-wide; `0` is omitted on the wire
    /// (pre-quarantine bodies had no such key).
    pub quarantined: usize,
    pub remaining_space: u64,
    pub systems: usize,
    pub projects: usize,
}

impl WireEncode for StatsResponse {
    fn to_value(&self) -> Value {
        let mut jobs = obj! {
            "scheduled" => self.scheduled,
            "running" => self.running,
            "finished" => self.finished,
            "aborted" => self.aborted,
            "failed" => self.failed,
        };
        if self.quarantined > 0 {
            jobs.set("quarantined", self.quarantined as u64);
        }
        if self.remaining_space > 0 {
            jobs.set("remaining_space", self.remaining_space);
        }
        obj! {
            "jobs" => jobs,
            "systems" => self.systems,
            "projects" => self.projects,
        }
    }
}

impl WireDecode for StatsResponse {
    fn decode(value: &Value) -> Result<Self, WireError> {
        let jobs = value.get("jobs").cloned().unwrap_or(Value::Null);
        let count = |field: &str| codec::lenient_u64(&jobs, field).unwrap_or(0) as usize;
        Ok(Self {
            scheduled: count("scheduled"),
            running: count("running"),
            finished: count("finished"),
            aborted: count("aborted"),
            failed: count("failed"),
            quarantined: count("quarantined"),
            remaining_space: codec::lenient_u64(&jobs, "remaining_space").unwrap_or(0),
            systems: codec::lenient_u64(value, "systems").unwrap_or(0) as usize,
            projects: codec::lenient_u64(value, "projects").unwrap_or(0) as usize,
        })
    }
}
