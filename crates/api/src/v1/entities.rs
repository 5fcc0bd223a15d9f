//! Entity (response) DTOs — the documents the control server serves.
//!
//! Key order in every `to_value` is the frozen wire contract; the golden
//! fixtures under `tests/fixtures/api_v1/` pin it byte-for-byte. Decoders
//! are lenient (absent or `null` optionals default) because clients and the
//! store have always read these documents tolerantly; `chronos-core` reads
//! every stored entity document through them.

use crate::codec::{self, WireDecode, WireEncode};
use crate::error::WireError;
use crate::state::JobState;
use chronos_json::{obj, Map, Value};
use chronos_util::Id;

fn req_u32(raw: u64) -> u32 {
    u32::try_from(raw).unwrap_or(u32::MAX)
}

/// A system under evaluation. `parameters` and `charts` carry the
/// definition documents verbatim (`ParamDef`/`ChartSpec` own their shape).
#[derive(Debug, Clone, PartialEq)]
pub struct SystemDto {
    pub id: Id,
    pub name: String,
    pub description: String,
    pub parameters: Vec<Value>,
    pub charts: Vec<Value>,
    pub created_at: u64,
}

impl WireEncode for SystemDto {
    fn to_value(&self) -> Value {
        obj! {
            "id" => self.id.to_base32(),
            "name" => self.name.as_str(),
            "description" => self.description.as_str(),
            "parameters" => Value::Array(self.parameters.clone()),
            "charts" => Value::Array(self.charts.clone()),
            "created_at" => self.created_at,
        }
    }
}

impl WireDecode for SystemDto {
    fn decode(value: &Value) -> Result<Self, WireError> {
        Ok(Self {
            id: codec::req_id(value, "id")?,
            name: codec::req_str(value, "name")?,
            description: codec::str_or(value, "description", ""),
            parameters: codec::arr_or_empty(value, "parameters"),
            charts: codec::arr_or_empty(value, "charts"),
            created_at: codec::lenient_u64(value, "created_at").unwrap_or(0),
        })
    }
}

/// A deployment of a system in a concrete environment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeploymentDto {
    pub id: Id,
    pub system_id: Id,
    /// Environment label (e.g. `"node-a"`, `"staging"`).
    pub environment: String,
    /// Version of the deployed system.
    pub version: String,
    /// Whether the deployment currently accepts jobs.
    pub active: bool,
    pub created_at: u64,
}

impl WireEncode for DeploymentDto {
    fn to_value(&self) -> Value {
        obj! {
            "id" => self.id.to_base32(),
            "system_id" => self.system_id.to_base32(),
            "environment" => self.environment.as_str(),
            "version" => self.version.as_str(),
            "active" => self.active,
            "created_at" => self.created_at,
        }
    }
}

impl WireDecode for DeploymentDto {
    fn decode(value: &Value) -> Result<Self, WireError> {
        Ok(Self {
            id: codec::req_id(value, "id")?,
            system_id: codec::req_id(value, "system_id")?,
            environment: codec::str_or(value, "environment", ""),
            version: codec::str_or(value, "version", ""),
            active: value.get("active").and_then(Value::as_bool).unwrap_or(true),
            created_at: codec::lenient_u64(value, "created_at").unwrap_or(0),
        })
    }
}

/// A project: the collaboration and access-control unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProjectDto {
    pub id: Id,
    pub name: String,
    pub description: String,
    /// Member user ids; members see all experiments and results.
    pub members: Vec<Id>,
    /// Archived projects are read-only.
    pub archived: bool,
    pub created_at: u64,
}

impl WireEncode for ProjectDto {
    fn to_value(&self) -> Value {
        obj! {
            "id" => self.id.to_base32(),
            "name" => self.name.as_str(),
            "description" => self.description.as_str(),
            "members" => Value::Array(self.members.iter().map(|m| Value::from(m.to_base32())).collect()),
            "archived" => self.archived,
            "created_at" => self.created_at,
        }
    }
}

impl WireDecode for ProjectDto {
    fn decode(value: &Value) -> Result<Self, WireError> {
        Ok(Self {
            id: codec::req_id(value, "id")?,
            name: codec::req_str(value, "name")?,
            description: codec::str_or(value, "description", ""),
            members: codec::ids_or_empty(value, "members", "bad member id")?,
            archived: value.get("archived").and_then(Value::as_bool).unwrap_or(false),
            created_at: codec::lenient_u64(value, "created_at").unwrap_or(0),
        })
    }
}

/// How an experiment explores its parameter space. `"grid"` (the historic
/// behavior) encodes as a bare string so pre-strategy documents and
/// fixtures stay byte-identical; adaptive strategies encode as an object.
#[derive(Debug, Clone, PartialEq)]
pub enum StrategyDto {
    /// Exhaustive sweep, index order.
    Grid,
    /// Successive-halving exploration.
    Adaptive {
        /// Candidate-sampling seed.
        seed: u64,
        /// Rung-0 size; `None` lets the scheduler derive it from the
        /// space size.
        initial: Option<u64>,
        /// Halving factor (keep `ceil(k/eta)` per rung).
        eta: u64,
        /// JSON pointer into result documents that scores a candidate.
        metric: String,
        /// Whether a larger metric is better.
        maximize: bool,
    },
}

impl WireEncode for StrategyDto {
    fn to_value(&self) -> Value {
        match self {
            StrategyDto::Grid => Value::from("grid"),
            StrategyDto::Adaptive { seed, initial, eta, metric, maximize } => {
                let mut map = Map::new();
                map.insert("kind".into(), Value::from("adaptive"));
                map.insert("seed".into(), Value::from(*seed));
                if let Some(initial) = initial {
                    map.insert("initial".into(), Value::from(*initial));
                }
                map.insert("eta".into(), Value::from(*eta));
                map.insert("metric".into(), Value::from(metric.as_str()));
                map.insert("maximize".into(), Value::from(*maximize));
                Value::Object(map)
            }
        }
    }
}

impl WireDecode for StrategyDto {
    fn decode(value: &Value) -> Result<Self, WireError> {
        let kind = match value {
            Value::String(s) => s.as_str(),
            Value::Object(_) => value
                .get("kind")
                .and_then(Value::as_str)
                .ok_or(WireError::BadField("strategy.kind"))?,
            _ => return Err(WireError::BadField("strategy")),
        };
        match kind {
            "grid" => Ok(StrategyDto::Grid),
            "adaptive" => Ok(StrategyDto::Adaptive {
                seed: codec::lenient_u64(value, "seed").unwrap_or(0),
                initial: codec::lenient_u64(value, "initial"),
                eta: codec::lenient_u64(value, "eta").unwrap_or(4),
                metric: codec::str_or(value, "metric", "/throughput_ops_per_sec"),
                maximize: value.get("maximize").and_then(Value::as_bool).unwrap_or(true),
            }),
            _ => Err(WireError::BadField("strategy")),
        }
    }
}

/// The live rung of an adaptive evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierDto {
    pub rung: u32,
    /// Point indices competing in this rung.
    pub candidates: Vec<u64>,
    /// Materialized prefix of `candidates`.
    pub issued: u64,
    /// Jobs of this rung, in issue order.
    pub job_ids: Vec<Id>,
    /// Per-completed-rung pruning records (opaque documents).
    pub decisions: Vec<Value>,
}

impl WireEncode for FrontierDto {
    fn to_value(&self) -> Value {
        obj! {
            "rung" => self.rung as u64,
            "candidates" => Value::Array(self.candidates.iter().map(|&c| Value::from(c)).collect()),
            "issued" => self.issued,
            "job_ids" => Value::Array(self.job_ids.iter().map(|j| Value::from(j.to_base32())).collect()),
            "decisions" => Value::Array(self.decisions.clone()),
        }
    }
}

impl WireDecode for FrontierDto {
    fn decode(value: &Value) -> Result<Self, WireError> {
        Ok(Self {
            rung: req_u32(codec::lenient_u64(value, "rung").unwrap_or(0)),
            candidates: value
                .get("candidates")
                .and_then(Value::as_array)
                .map(|items| items.iter().filter_map(Value::as_u64).collect())
                .unwrap_or_default(),
            issued: codec::lenient_u64(value, "issued").unwrap_or(0),
            job_ids: codec::ids_or_empty(value, "job_ids", "bad frontier job id")?,
            decisions: codec::arr_or_empty(value, "decisions"),
        })
    }
}

/// Per-job resource budget declared on an experiment and copied onto every
/// job it materializes. Each dimension is independent and optional; the
/// agent-side watchdog terminates a run the first time any present limit is
/// breached. Encodes as an object carrying only the present dimensions, and
/// the whole document is omitted from experiment/job bodies when no
/// dimension is set — pre-budget documents stay byte-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JobBudget {
    /// Combined user+system CPU time, milliseconds.
    pub cpu_millis: Option<u64>,
    /// Peak resident-set size, KiB.
    pub max_rss_kib: Option<u64>,
    /// Combined storage-layer read+write bytes.
    pub io_bytes: Option<u64>,
    /// Wall-clock runtime, milliseconds.
    pub wall_millis: Option<u64>,
}

impl JobBudget {
    /// Whether no dimension is budgeted (the document is omitted then).
    pub fn is_empty(&self) -> bool {
        self.cpu_millis.is_none()
            && self.max_rss_kib.is_none()
            && self.io_bytes.is_none()
            && self.wall_millis.is_none()
    }
}

impl WireEncode for JobBudget {
    fn to_value(&self) -> Value {
        let mut map = Map::new();
        if let Some(cpu) = self.cpu_millis {
            map.insert("cpu_millis".into(), Value::from(cpu));
        }
        if let Some(rss) = self.max_rss_kib {
            map.insert("max_rss_kib".into(), Value::from(rss));
        }
        if let Some(io) = self.io_bytes {
            map.insert("io_bytes".into(), Value::from(io));
        }
        if let Some(wall) = self.wall_millis {
            map.insert("wall_millis".into(), Value::from(wall));
        }
        Value::Object(map)
    }
}

impl WireDecode for JobBudget {
    fn decode(value: &Value) -> Result<Self, WireError> {
        if !matches!(value, Value::Object(_)) {
            return Err(WireError::BadField("budget"));
        }
        Ok(Self {
            cpu_millis: codec::lenient_u64(value, "cpu_millis"),
            max_rss_kib: codec::lenient_u64(value, "max_rss_kib"),
            io_bytes: codec::lenient_u64(value, "io_bytes"),
            wall_millis: codec::lenient_u64(value, "wall_millis"),
        })
    }
}

/// An experiment: a parameterised evaluation template. `parameters` holds
/// the `ParamAssignments` document verbatim.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentDto {
    pub id: Id,
    pub project_id: Id,
    pub system_id: Id,
    pub name: String,
    pub description: String,
    pub parameters: Value,
    pub archived: bool,
    pub created_at: u64,
    /// Exploration strategy. `None` means grid and is omitted on the wire,
    /// keeping pre-strategy documents byte-identical.
    pub strategy: Option<StrategyDto>,
    /// Per-job resource budget; omitted on the wire when unset so
    /// pre-budget documents stay byte-identical.
    pub budget: Option<JobBudget>,
}

impl WireEncode for ExperimentDto {
    fn to_value(&self) -> Value {
        let mut doc = obj! {
            "id" => self.id.to_base32(),
            "project_id" => self.project_id.to_base32(),
            "system_id" => self.system_id.to_base32(),
            "name" => self.name.as_str(),
            "description" => self.description.as_str(),
            "parameters" => self.parameters.clone(),
            "archived" => self.archived,
            "created_at" => self.created_at,
        };
        if let Some(strategy) = &self.strategy {
            doc.set("strategy", strategy.to_value());
        }
        if let Some(budget) = &self.budget {
            doc.set("budget", budget.to_value());
        }
        doc
    }
}

impl WireDecode for ExperimentDto {
    fn decode(value: &Value) -> Result<Self, WireError> {
        Ok(Self {
            id: codec::req_id(value, "id")?,
            project_id: codec::req_id(value, "project_id")?,
            system_id: codec::req_id(value, "system_id")?,
            name: codec::req_str(value, "name")?,
            description: codec::str_or(value, "description", ""),
            parameters: codec::opt_value(value, "parameters")
                .unwrap_or_else(|| Value::Object(Map::new())),
            archived: value.get("archived").and_then(Value::as_bool).unwrap_or(false),
            created_at: codec::lenient_u64(value, "created_at").unwrap_or(0),
            strategy: codec::field(value, "strategy").map(StrategyDto::decode).transpose()?,
            budget: codec::field(value, "budget").map(JobBudget::decode).transpose()?,
        })
    }
}

/// An evaluation: one execution of an experiment, fanned out into jobs.
///
/// Lazy evaluations additionally carry their job-source state (`strategy`,
/// `total_points`, `materialized`, and for adaptive runs the `frontier`).
/// All four are optional and omitted when absent, so pre-refactor
/// documents and fixtures stay byte-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct EvaluationDto {
    pub id: Id,
    pub experiment_id: Id,
    pub job_ids: Vec<Id>,
    pub swept_params: Vec<String>,
    pub created_at: u64,
    pub source: EvaluationSourceDto,
}

/// The job-source fields of an evaluation document, each optional and
/// omitted when absent.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EvaluationSourceDto {
    pub strategy: Option<StrategyDto>,
    pub total_points: Option<u64>,
    pub materialized: Option<u64>,
    pub frontier: Option<FrontierDto>,
}

impl EvaluationDto {
    /// The `GET /evaluations/:id` detail body: the evaluation document with
    /// the status roll-up appended under `"status"`.
    pub fn detail_value(&self, status: &EvaluationStatusDto) -> Value {
        let mut doc = self.to_value();
        doc.set("status", status.to_value());
        doc
    }

    /// Decodes only the job-source fields of an evaluation document,
    /// leaving its `job_ids` unparsed.
    pub fn decode_source(value: &Value) -> Result<EvaluationSourceDto, WireError> {
        Ok(EvaluationSourceDto {
            strategy: codec::field(value, "strategy").map(StrategyDto::decode).transpose()?,
            total_points: codec::lenient_u64(value, "total_points"),
            materialized: codec::lenient_u64(value, "materialized"),
            frontier: codec::field(value, "frontier").map(FrontierDto::decode).transpose()?,
        })
    }
}

impl WireEncode for EvaluationDto {
    fn to_value(&self) -> Value {
        let mut doc = obj! {
            "id" => self.id.to_base32(),
            "experiment_id" => self.experiment_id.to_base32(),
            "job_ids" => Value::Array(self.job_ids.iter().map(|j| Value::from(j.to_base32())).collect()),
            "swept_params" => Value::Array(self.swept_params.iter().map(|s| Value::from(s.as_str())).collect()),
            "created_at" => self.created_at,
        };
        let source = &self.source;
        if let Some(strategy) = &source.strategy {
            doc.set("strategy", strategy.to_value());
        }
        if let Some(total_points) = source.total_points {
            doc.set("total_points", total_points);
        }
        if let Some(materialized) = source.materialized {
            doc.set("materialized", materialized);
        }
        if let Some(frontier) = &source.frontier {
            doc.set("frontier", frontier.to_value());
        }
        doc
    }
}

impl WireDecode for EvaluationDto {
    fn decode(value: &Value) -> Result<Self, WireError> {
        Ok(Self {
            id: codec::req_id(value, "id")?,
            experiment_id: codec::req_id(value, "experiment_id")?,
            job_ids: codec::ids_or_empty(value, "job_ids", "bad job id")?,
            swept_params: value
                .get("swept_params")
                .and_then(Value::as_array)
                .map(|items| items.iter().filter_map(Value::as_str).map(str::to_string).collect())
                .unwrap_or_default(),
            created_at: codec::lenient_u64(value, "created_at").unwrap_or(0),
            source: Self::decode_source(value)?,
        })
    }
}

/// The per-evaluation job-state roll-up. All fields (including the derived
/// `total`/`settled`/`progress_percent`) are carried verbatim so the
/// encode stays a pure projection of what the scheduler computed.
/// `remaining_space` counts not-yet-materialized points of a lazy
/// evaluation; it is omitted for fully-materialized (pre-refactor)
/// evaluations so their status bodies stay byte-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvaluationStatusDto {
    pub scheduled: usize,
    pub running: usize,
    pub finished: usize,
    pub aborted: usize,
    pub failed: usize,
    /// Jobs quarantined after exhausting their attempts. Encoded only when
    /// non-zero so pre-quarantine status bodies stay byte-identical.
    pub quarantined: usize,
    pub total: usize,
    pub settled: bool,
    pub progress_percent: u8,
    pub remaining_space: Option<u64>,
}

impl WireEncode for EvaluationStatusDto {
    fn to_value(&self) -> Value {
        let mut doc = obj! {
            "scheduled" => self.scheduled,
            "running" => self.running,
            "finished" => self.finished,
            "aborted" => self.aborted,
            "failed" => self.failed,
            "total" => self.total,
            "settled" => self.settled,
            "progress_percent" => self.progress_percent as i64,
        };
        if self.quarantined > 0 {
            doc.set("quarantined", self.quarantined as u64);
        }
        if let Some(remaining) = self.remaining_space {
            doc.set("remaining_space", remaining);
        }
        doc
    }
}

impl WireDecode for EvaluationStatusDto {
    fn decode(value: &Value) -> Result<Self, WireError> {
        let count = |field: &str| codec::lenient_u64(value, field).unwrap_or(0) as usize;
        Ok(Self {
            scheduled: count("scheduled"),
            running: count("running"),
            finished: count("finished"),
            aborted: count("aborted"),
            failed: count("failed"),
            quarantined: count("quarantined"),
            total: count("total"),
            settled: value.get("settled").and_then(Value::as_bool).unwrap_or(false),
            progress_percent: codec::lenient_u64(value, "progress_percent").unwrap_or(0).min(100)
                as u8,
            remaining_space: codec::lenient_u64(value, "remaining_space"),
        })
    }
}

/// One timeline entry on a job. The human-readable `time` field is derived
/// from `at` on encode and ignored on decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelineEventDto {
    pub at: u64,
    pub kind: String,
    pub message: String,
}

impl WireEncode for TimelineEventDto {
    fn to_value(&self) -> Value {
        obj! {
            "at" => self.at,
            "time" => chronos_util::clock::format_timestamp(self.at),
            "kind" => self.kind.as_str(),
            "message" => self.message.as_str(),
        }
    }
}

impl WireDecode for TimelineEventDto {
    fn decode(value: &Value) -> Result<Self, WireError> {
        Ok(Self {
            at: codec::lenient_u64(value, "at").unwrap_or(0),
            kind: codec::str_or(value, "kind", ""),
            message: codec::str_or(value, "message", ""),
        })
    }
}

/// A job document: the full wire view served by `GET /jobs/:id`, claim
/// responses, and (trimmed via [`JobDto::summary_value`]) job listings.
#[derive(Debug, Clone, PartialEq)]
pub struct JobDto {
    pub id: Id,
    pub evaluation_id: Id,
    pub system_id: Id,
    pub parameters: Value,
    pub state: JobState,
    pub deployment_id: Option<Id>,
    pub progress: u8,
    pub log: String,
    pub timeline: Vec<TimelineEventDto>,
    pub heartbeat_at: Option<u64>,
    /// Claims so far; absent reads as 0, a job never claimed.
    pub attempts: u32,
    pub claim_key: Option<String>,
    pub result_key: Option<String>,
    pub result_id: Option<Id>,
    pub failure: Option<String>,
    pub created_at: u64,
    /// Index of this job's point in the evaluation's parameter space.
    /// Present only on lazily-materialized jobs; omitted on the wire when
    /// absent so pre-refactor job documents stay byte-identical.
    pub point_index: Option<u64>,
    /// Resource budget copied from the experiment at materialization;
    /// omitted on the wire when unset.
    pub budget: Option<JobBudget>,
}

impl JobDto {
    fn build_value(&self, with_details: bool) -> Value {
        let mut map = Map::new();
        map.insert("id".into(), Value::from(self.id.to_base32()));
        map.insert("evaluation_id".into(), Value::from(self.evaluation_id.to_base32()));
        map.insert("system_id".into(), Value::from(self.system_id.to_base32()));
        map.insert("parameters".into(), self.parameters.clone());
        map.insert("state".into(), Value::from(self.state.as_str()));
        map.insert("deployment_id".into(), Value::from(self.deployment_id.map(|d| d.to_base32())));
        map.insert("progress".into(), Value::from(self.progress as i64));
        if with_details {
            map.insert("log".into(), Value::from(self.log.as_str()));
            map.insert(
                "timeline".into(),
                Value::Array(self.timeline.iter().map(TimelineEventDto::to_value).collect()),
            );
        }
        map.insert("heartbeat_at".into(), Value::from(self.heartbeat_at));
        map.insert("attempts".into(), Value::from(self.attempts as i64));
        map.insert("claim_key".into(), Value::from(self.claim_key.clone()));
        map.insert("result_key".into(), Value::from(self.result_key.clone()));
        map.insert("result_id".into(), Value::from(self.result_id.map(|r| r.to_base32())));
        map.insert("failure".into(), Value::from(self.failure.clone()));
        map.insert("created_at".into(), Value::from(self.created_at));
        if let Some(point_index) = self.point_index {
            map.insert("point_index".into(), Value::from(point_index));
        }
        if let Some(budget) = &self.budget {
            map.insert("budget".into(), budget.to_value());
        }
        Value::Object(map)
    }

    /// The listing view: same document with the potentially large `log`
    /// and `timeline` omitted.
    pub fn summary_value(&self) -> Value {
        self.build_value(false)
    }
}

impl WireEncode for JobDto {
    fn to_value(&self) -> Value {
        self.build_value(true)
    }
}

impl WireDecode for JobDto {
    fn decode(value: &Value) -> Result<Self, WireError> {
        let state = codec::str_ref(value, "state").ok_or(WireError::Missing("state"))?;
        Ok(Self {
            id: codec::req_id(value, "id")?,
            evaluation_id: codec::req_id(value, "evaluation_id")?,
            system_id: codec::req_id(value, "system_id")?,
            parameters: value.get("parameters").cloned().unwrap_or(Value::Null),
            state: JobState::parse(state).ok_or(WireError::BadField("state"))?,
            deployment_id: codec::opt_id(value, "deployment_id")?,
            progress: codec::lenient_u64(value, "progress").unwrap_or(0).min(100) as u8,
            log: codec::str_or(value, "log", ""),
            timeline: value
                .get("timeline")
                .and_then(Value::as_array)
                .map(|items| items.iter().map(TimelineEventDto::decode).collect())
                .transpose()?
                .unwrap_or_default(),
            heartbeat_at: codec::lenient_u64(value, "heartbeat_at"),
            attempts: req_u32(codec::lenient_u64(value, "attempts").unwrap_or(0)),
            claim_key: codec::opt_str(value, "claim_key"),
            result_key: codec::opt_str(value, "result_key"),
            result_id: codec::opt_id(value, "result_id")?,
            failure: codec::opt_str(value, "failure"),
            created_at: codec::lenient_u64(value, "created_at").unwrap_or(0),
            point_index: codec::lenient_u64(value, "point_index"),
            budget: codec::field(value, "budget").map(JobBudget::decode).transpose()?,
        })
    }
}

/// A job result document. The archive itself is served from the dedicated
/// `archive.zip` endpoint; the document only reports its size.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResultDto {
    pub id: Id,
    pub job_id: Id,
    pub data: Value,
    pub archive_bytes: usize,
    pub created_at: u64,
}

impl WireEncode for JobResultDto {
    fn to_value(&self) -> Value {
        obj! {
            "id" => self.id.to_base32(),
            "job_id" => self.job_id.to_base32(),
            "data" => self.data.clone(),
            "archive_bytes" => self.archive_bytes,
            "created_at" => self.created_at,
        }
    }
}

impl WireDecode for JobResultDto {
    fn decode(value: &Value) -> Result<Self, WireError> {
        Ok(Self {
            id: codec::req_id(value, "id")?,
            job_id: codec::req_id(value, "job_id")?,
            data: value.get("data").cloned().unwrap_or(Value::Null),
            archive_bytes: codec::lenient_u64(value, "archive_bytes").unwrap_or(0) as usize,
            created_at: codec::lenient_u64(value, "created_at").unwrap_or(0),
        })
    }
}

/// A served user document — the password hash never crosses the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UserPublic {
    pub id: Id,
    pub username: String,
    pub role: String,
    pub created_at: u64,
}

impl WireEncode for UserPublic {
    fn to_value(&self) -> Value {
        obj! {
            "id" => self.id.to_base32(),
            "username" => self.username.as_str(),
            "role" => self.role.as_str(),
            "created_at" => self.created_at,
        }
    }
}

impl WireDecode for UserPublic {
    fn decode(value: &Value) -> Result<Self, WireError> {
        Ok(Self {
            id: codec::req_id(value, "id")?,
            username: codec::req_str(value, "username")?,
            role: codec::str_or(value, "role", "member"),
            created_at: codec::lenient_u64(value, "created_at").unwrap_or(0),
        })
    }
}
