//! Entity (response) DTOs — the documents the control server serves.
//!
//! Key order in every `to_value` is the frozen wire contract; the golden
//! fixtures under `tests/fixtures/api_v1/` pin it byte-for-byte. Decoders
//! are lenient (absent or `null` optionals default) because clients and the
//! store have always read these documents tolerantly; `chronos-core` reads
//! every stored entity document through them. What a system, experiment or
//! evaluation nests (parameter definitions, chart specs, assignments,
//! strategies, frontiers) is typed here too and validated while it is
//! decoded, so no caller parses it a second time.

use crate::codec::{self, WireDecode, WireEncode};
use crate::error::WireError;
use crate::state::JobState;
use crate::v1::params::{ParamAssignments, ParamDef};
use chronos_json::{obj, Map, Value};
use chronos_util::Id;

fn req_u32(raw: u64) -> u32 {
    u32::try_from(raw).unwrap_or(u32::MAX)
}

fn array<T: WireEncode>(items: &[T]) -> Value {
    Value::Array(items.iter().map(WireEncode::to_value).collect())
}

/// A system under evaluation, with its parameter schema and chart config
/// (paper Fig. 2: "Configuration of a System").
#[derive(Debug, Clone, PartialEq)]
pub struct SystemDto {
    pub id: Id,
    /// Unique human-readable name (e.g. `"minidoc"`).
    pub name: String,
    pub description: String,
    /// Declared parameters.
    pub parameters: Vec<ParamDef>,
    /// Charts rendered on the result page.
    pub charts: Vec<ChartSpec>,
    pub created_at: u64,
}

impl SystemDto {
    /// The `parameters` of a system document or definition; absent or not
    /// an array reads as none.
    pub fn decode_parameters(value: &Value) -> Result<Vec<ParamDef>, WireError> {
        codec::list_or_empty(value, "parameters", ParamDef::decode)
    }

    /// The `charts` of a system document or definition, read like
    /// [`SystemDto::decode_parameters`].
    pub fn decode_charts(value: &Value) -> Result<Vec<ChartSpec>, WireError> {
        codec::list_or_empty(value, "charts", ChartSpec::decode)
    }
}

impl WireEncode for SystemDto {
    fn to_value(&self) -> Value {
        obj! {
            "id" => self.id.to_base32(),
            "name" => self.name.as_str(),
            "description" => self.description.as_str(),
            "parameters" => array(&self.parameters),
            "charts" => array(&self.charts),
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
            parameters: Self::decode_parameters(value)?,
            charts: Self::decode_charts(value)?,
            created_at: codec::lenient_u64(value, "created_at").unwrap_or(0),
        })
    }
}

/// A chart declared on a system: "Chronos provides bar, line, and pie
/// diagrams" (paper §2.2), extensible by kind.
#[derive(Debug, Clone, PartialEq)]
pub struct ChartSpec {
    /// Chart kind: `"bar"`, `"line"`, `"pie"`, or a custom registered kind.
    pub kind: String,
    /// Chart title.
    pub title: String,
    /// The swept parameter providing the x axis (bar/line) or slice labels
    /// (pie).
    pub x_param: String,
    /// Optional swept parameter splitting the data into series
    /// (e.g. `"engine"` → one line per engine); encoded as `null` when
    /// absent.
    pub series_param: Option<String>,
    /// JSON pointer into each job's result document selecting the plotted
    /// value (e.g. `"/throughput_ops_per_sec"`).
    pub value_path: String,
    /// Y-axis label.
    pub y_label: String,
}

impl WireEncode for ChartSpec {
    fn to_value(&self) -> Value {
        obj! {
            "kind" => self.kind.as_str(),
            "title" => self.title.as_str(),
            "x_param" => self.x_param.as_str(),
            "series_param" => Value::from(self.series_param.clone()),
            "value_path" => self.value_path.as_str(),
            "y_label" => self.y_label.as_str(),
        }
    }
}

impl WireDecode for ChartSpec {
    fn decode(value: &Value) -> Result<Self, WireError> {
        let get = |f: &str| {
            codec::opt_str(value, f).ok_or_else(|| WireError::Invalid(format!("chart needs {f:?}")))
        };
        Ok(Self {
            kind: get("kind")?,
            title: get("title")?,
            x_param: get("x_param")?,
            series_param: codec::opt_str(value, "series_param"),
            value_path: get("value_path")?,
            y_label: codec::str_or(value, "y_label", ""),
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
pub enum Strategy {
    /// Every point of the space, in index order (the paper's behavior).
    Grid,
    /// Successive-halving exploration driven by uploaded results.
    Adaptive(AdaptiveConfig),
}

impl Strategy {
    /// Validates strategy parameters at experiment creation.
    pub fn validate(&self) -> Result<(), WireError> {
        let Strategy::Adaptive(cfg) = self else { return Ok(()) };
        if cfg.eta < 2 {
            return Err(WireError::Invalid("adaptive eta must be ≥ 2".into()));
        }
        if cfg.initial == Some(0) {
            return Err(WireError::Invalid("adaptive initial must be ≥ 1".into()));
        }
        if !cfg.metric.starts_with('/') {
            return Err(WireError::Invalid(format!(
                "adaptive metric must be a JSON pointer (got {:?})",
                cfg.metric
            )));
        }
        Ok(())
    }
}

/// Tunables of the adaptive (successive-halving) strategy.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveConfig {
    /// Seed of the rung-0 candidate sample. Same seed ⇒ same candidates ⇒
    /// same pruning decisions (given the same uploaded results).
    pub seed: u64,
    /// Rung-0 size. `None` ⇒ `ceil(total / 5)` — with the default `eta` of
    /// 4 the whole run then spends ≈ 26.7 % of a full grid.
    pub initial: Option<u64>,
    /// Fraction kept per rung: `ceil(k / eta)` candidates are promoted.
    pub eta: u64,
    /// JSON pointer into the uploaded result document that scores a
    /// candidate (must be one of the columnar standard metric paths to be
    /// served from the analytics store).
    pub metric: String,
    /// Whether a higher metric is better.
    pub maximize: bool,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            seed: 0,
            initial: None,
            eta: 4,
            metric: "/throughput_ops_per_sec".into(),
            maximize: true,
        }
    }
}

impl AdaptiveConfig {
    /// The rung-0 candidate count for a space of `total` points.
    pub fn rung0_size(&self, total: u64) -> u64 {
        self.initial.unwrap_or_else(|| total.div_ceil(5)).clamp(1, total)
    }
}

impl WireEncode for Strategy {
    fn to_value(&self) -> Value {
        let Strategy::Adaptive(cfg) = self else { return Value::from("grid") };
        let mut map = Map::new();
        map.insert("kind".into(), Value::from("adaptive"));
        map.insert("seed".into(), Value::from(cfg.seed));
        if let Some(initial) = cfg.initial {
            map.insert("initial".into(), Value::from(initial));
        }
        map.insert("eta".into(), Value::from(cfg.eta));
        map.insert("metric".into(), Value::from(cfg.metric.as_str()));
        map.insert("maximize".into(), Value::from(cfg.maximize));
        Value::Object(map)
    }
}

impl WireDecode for Strategy {
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
            "grid" => Ok(Strategy::Grid),
            "adaptive" => {
                let default = AdaptiveConfig::default();
                Ok(Strategy::Adaptive(AdaptiveConfig {
                    seed: codec::lenient_u64(value, "seed").unwrap_or(default.seed),
                    initial: codec::lenient_u64(value, "initial"),
                    eta: codec::lenient_u64(value, "eta").unwrap_or(default.eta),
                    metric: codec::opt_str(value, "metric").unwrap_or(default.metric),
                    maximize: value
                        .get("maximize")
                        .and_then(Value::as_bool)
                        .unwrap_or(default.maximize),
                }))
            }
            _ => Err(WireError::BadField("strategy")),
        }
    }
}

/// The live frontier of an adaptive evaluation: the current rung.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierDto {
    /// Rung number, starting at 0.
    pub rung: u32,
    /// Point indices competing in this rung (ascending).
    pub candidates: Vec<u64>,
    /// How many of `candidates` have been materialized as jobs (a prefix).
    pub issued: u64,
    /// Job ids of this rung, in issue order (`job_ids[i]` runs
    /// `candidates[i]`).
    pub job_ids: Vec<Id>,
    /// One record per completed rung: candidates, scores, survivors.
    /// Contains only point indices and scores — never job ids or
    /// timestamps — so logs from a replay or a failed-over leader compare
    /// equal.
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

/// An experiment: "the definition of an evaluation with all its
/// parameters; when executed, it results in the creation of an evaluation."
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentDto {
    pub id: Id,
    pub project_id: Id,
    pub system_id: Id,
    pub name: String,
    pub description: String,
    /// Parameter assignments (fixed values and sweeps); absent or `null`
    /// reads as none.
    pub parameters: ParamAssignments,
    /// Archived experiments cannot spawn new evaluations.
    pub archived: bool,
    pub created_at: u64,
    /// Exploration strategy. Grid is omitted on the wire, keeping
    /// pre-strategy documents byte-identical; absent or `null` reads as
    /// grid.
    pub strategy: Strategy,
    /// Per-job resource budget copied onto every materialized job; omitted
    /// on the wire when unset so pre-budget documents stay byte-identical.
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
            "parameters" => self.parameters.to_value(),
            "archived" => self.archived,
            "created_at" => self.created_at,
        };
        if self.strategy != Strategy::Grid {
            doc.set("strategy", self.strategy.to_value());
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
            parameters: codec::field(value, "parameters")
                .map(ParamAssignments::decode)
                .transpose()?
                .unwrap_or_default(),
            archived: value.get("archived").and_then(Value::as_bool).unwrap_or(false),
            created_at: codec::lenient_u64(value, "created_at").unwrap_or(0),
            strategy: codec::field(value, "strategy")
                .map(Strategy::decode)
                .transpose()?
                .unwrap_or(Strategy::Grid),
            budget: codec::field(value, "budget").map(JobBudget::decode).transpose()?,
        })
    }
}

/// An evaluation: one execution of an experiment, fanned out into jobs.
///
/// Lazy evaluations additionally carry their job-source state (`strategy`,
/// `total_points`, `materialized`, and for adaptive runs the `frontier`).
/// All four are omitted when there is none, so pre-refactor documents and
/// fixtures stay byte-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct EvaluationDto {
    pub id: Id,
    pub experiment_id: Id,
    /// Ids of this evaluation's materialized jobs, in issue order. Stored
    /// documents list none (the jobs name their evaluation); served ones
    /// are filled from the job documents.
    pub job_ids: Vec<Id>,
    /// Names of the swept parameters (analysis axes).
    pub swept_params: Vec<String>,
    pub created_at: u64,
    /// Lazy iteration state. `None` for documents that predate lazy
    /// evaluations — those were fully materialized at creation.
    pub source: Option<JobSourceState>,
}

/// The persisted iteration state of a lazy evaluation: a resumable cursor
/// over its parameter space. Stored inside the evaluation document, so
/// every cursor advance is one log frame and replicates to followers with
/// the rest of the control plane.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSourceState {
    /// The strategy, frozen at evaluation creation.
    pub strategy: Strategy,
    /// Size of the full parameter space.
    pub total_points: u64,
    /// How many points have been materialized as job documents.
    pub materialized: u64,
    /// Adaptive only: the current rung.
    pub frontier: Option<FrontierDto>,
}

/// Sizes of every rung of a successive-halving run that starts with `k0`
/// candidates: `k0, ceil(k0/eta), ...` down to a single survivor.
pub fn rung_sizes(k0: u64, eta: u64) -> Vec<u64> {
    let mut sizes = vec![k0.max(1)];
    let mut k = k0.max(1);
    while k > 1 {
        k = k.div_ceil(eta);
        sizes.push(k);
    }
    sizes
}

impl JobSourceState {
    /// Points this source still plans to issue. For grid sources this is
    /// exact; for adaptive sources it is the plan (unissued candidates of
    /// the current rung plus all future rung sizes) — pruning can only make
    /// it smaller, never larger, so an unsettled evaluation always reports
    /// a positive remainder.
    pub fn remaining(&self) -> u64 {
        match (&self.strategy, &self.frontier) {
            (Strategy::Adaptive(cfg), Some(frontier)) => {
                let k = frontier.candidates.len() as u64;
                let current = k.saturating_sub(frontier.issued);
                let future: u64 = rung_sizes(k, cfg.eta).iter().skip(1).sum();
                current + future
            }
            _ => self.total_points.saturating_sub(self.materialized),
        }
    }

    /// The next point index to materialize, without advancing any state.
    /// `None` when the source is exhausted or (adaptive) the current rung
    /// is fully issued and must settle before pruning.
    pub fn peek(&self) -> Option<u64> {
        match &self.frontier {
            None => (self.materialized < self.total_points).then_some(self.materialized),
            Some(frontier) => frontier.candidates.get(frontier.issued as usize).copied(),
        }
    }

    /// Advances past the point returned by [`JobSourceState::peek`].
    pub fn advance(&mut self) {
        self.materialized += 1;
        if let Some(frontier) = &mut self.frontier {
            frontier.issued += 1;
        }
    }
}

impl EvaluationDto {
    /// The document's job source, decoded without parsing its `job_ids`:
    /// what the control plane's fold reads on every put of an evaluation.
    /// `None` when the document has no `total_points` (it predates lazy
    /// evaluations); an absent or `null` strategy is grid, and an absent
    /// `materialized` counts the listed jobs, which only documents from
    /// older logs list.
    pub fn decode_source(value: &Value) -> Result<Option<JobSourceState>, WireError> {
        let strategy = codec::field(value, "strategy").map(Strategy::decode).transpose()?;
        let frontier = codec::field(value, "frontier").map(FrontierDto::decode).transpose()?;
        let Some(total_points) = codec::lenient_u64(value, "total_points") else { return Ok(None) };
        let listed =
            || codec::field(value, "job_ids").and_then(Value::as_array).map_or(0, Vec::len);
        Ok(Some(JobSourceState {
            strategy: strategy.unwrap_or(Strategy::Grid),
            total_points,
            materialized: codec::lenient_u64(value, "materialized")
                .unwrap_or_else(|| listed() as u64),
            frontier,
        }))
    }

    /// [`WireEncode::to_value`] under its older name, kept only for the
    /// repo benchmark (`benchmark/`), which calls it; it goes when the
    /// benchmark calls `to_value`.
    pub fn to_json(&self) -> Value {
        self.to_value()
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
        if let Some(source) = &self.source {
            doc.set("strategy", source.strategy.to_value());
            doc.set("total_points", source.total_points);
            doc.set("materialized", source.materialized);
            if let Some(frontier) = &source.frontier {
                doc.set("frontier", frontier.to_value());
            }
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

/// A job: "a subset of an evaluation, e.g., the run of a benchmark for a
/// specific set of parameters." The full wire view served by
/// `GET /jobs/:id`, claim responses, and (trimmed via
/// [`JobDto::summary_value`]) job listings.
#[derive(Debug, Clone, PartialEq)]
pub struct JobDto {
    pub id: Id,
    /// Owning evaluation.
    pub evaluation_id: Id,
    /// The system this job runs against.
    pub system_id: Id,
    /// Concrete parameter values for this point of the evaluation space.
    pub parameters: Value,
    pub state: JobState,
    /// Deployment the job is (or was) assigned to.
    pub deployment_id: Option<Id>,
    /// Progress 0..=100 (reported by the agent); larger values clamp.
    pub progress: u8,
    /// Log output streamed by the agent.
    pub log: String,
    /// Timeline of state changes and notable events.
    pub timeline: Vec<TimelineEventDto>,
    /// Last agent heartbeat (unix millis), while running.
    pub heartbeat_at: Option<u64>,
    /// Claims so far; absent reads as 0, a job never claimed.
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

    /// [`WireEncode::to_value`] under its older name, kept only for the
    /// repo benchmark (`benchmark/`), which calls it; it goes when the
    /// benchmark calls `to_value`.
    pub fn to_json(&self) -> Value {
        self.to_value()
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

#[cfg(test)]
mod tests {
    use super::*;

    /// A scheduled job created at 1000, as the control plane creates one.
    fn scheduled_job() -> JobDto {
        JobDto {
            id: Id::generate(),
            evaluation_id: Id::generate(),
            system_id: Id::generate(),
            parameters: obj! {"threads" => 4},
            state: JobState::Scheduled,
            deployment_id: None,
            progress: 0,
            log: String::new(),
            timeline: vec![TimelineEventDto {
                at: 1000,
                kind: "created".into(),
                message: "job created and scheduled".into(),
            }],
            heartbeat_at: None,
            attempts: 0,
            claim_key: None,
            result_key: None,
            result_id: None,
            failure: None,
            created_at: 1000,
            point_index: None,
            budget: None,
        }
    }

    #[test]
    fn job_json_roundtrip() {
        let mut job = scheduled_job();
        job.state = JobState::Running;
        job.timeline.push(TimelineEventDto {
            at: 2000,
            kind: "running".into(),
            message: "claimed".into(),
        });
        job.deployment_id = Some(Id::generate());
        job.progress = 42;
        job.log = "line1\nline2\n".into();
        job.heartbeat_at = Some(2500);
        job.claim_key = Some("claim-abc".into());
        job.result_key = Some("upload-xyz".into());
        job.budget = Some(JobBudget { wall_millis: Some(60_000), ..Default::default() });
        let parsed = JobDto::decode(&job.to_value()).unwrap();
        assert_eq!(parsed, job);
    }

    /// Job documents that were once read two ways read the one way the
    /// control plane reads them: a job without `attempts` was never
    /// claimed, a `progress` past 100 clamps, and a `null` budget reads as
    /// absent.
    #[test]
    fn drifted_job_documents_decode_leniently() {
        let mut job = scheduled_job();
        job.progress = 7;
        let mut document = job.to_value();
        document.as_object_mut().unwrap().remove("attempts");
        assert_eq!(
            JobDto::decode(&document).unwrap().attempts,
            0,
            "absent attempts: never claimed"
        );
        document.set("progress", 300);
        assert_eq!(JobDto::decode(&document).unwrap().progress, 100, "progress clamps to 100");
        document.set("budget", Value::Null);
        assert_eq!(JobDto::decode(&document).unwrap().budget, None, "null budget is no budget");
    }

    #[test]
    fn evaluation_roundtrip() {
        let legacy = EvaluationDto {
            id: Id::generate(),
            experiment_id: Id::generate(),
            job_ids: vec![Id::generate(), Id::generate()],
            swept_params: vec!["engine".into(), "threads".into()],
            created_at: 7,
            source: None,
        };
        let encoded = legacy.to_value();
        assert!(encoded.get("total_points").is_none(), "legacy shape has no source keys");
        assert_eq!(EvaluationDto::decode(&encoded).unwrap(), legacy);

        let lazy = EvaluationDto {
            source: Some(JobSourceState {
                strategy: Strategy::Grid,
                total_points: 40,
                materialized: 0,
                frontier: None,
            }),
            ..legacy.clone()
        };
        let encoded = lazy.to_value();
        assert_eq!(encoded.get("total_points").and_then(Value::as_u64), Some(40));
        assert_eq!(EvaluationDto::decode(&encoded).unwrap(), lazy);

        let adaptive = EvaluationDto {
            source: Some(JobSourceState {
                strategy: Strategy::Adaptive(AdaptiveConfig {
                    seed: 3,
                    initial: Some(8),
                    ..Default::default()
                }),
                total_points: 40,
                materialized: 0,
                frontier: Some(FrontierDto {
                    rung: 0,
                    candidates: vec![1, 4, 9, 16, 20, 25, 33, 39],
                    issued: 0,
                    job_ids: Vec::new(),
                    decisions: Vec::new(),
                }),
            }),
            ..legacy
        };
        let encoded = adaptive.to_value();
        assert_eq!(encoded.pointer("/frontier/rung").and_then(Value::as_u64), Some(0));
        assert_eq!(EvaluationDto::decode(&encoded).unwrap(), adaptive);
    }
}
