//! `ChronosControl` — the heart of the toolkit (paper Fig. 1).
//!
//! Owns the metadata store, the session table, the clock and the scheduling
//! policy, and exposes every workflow of the paper as a method:
//! registering systems, configuring deployments, creating projects and
//! experiments, expanding experiments into evaluations and jobs, the agent
//! protocol (claim / heartbeat / log / finish / fail), abort and
//! reschedule, failure detection, archiving and analysis.
//!
//! Every state change runs inside [`ChronosControl::write`]: it takes the
//! write lock, reads the clock once and hands its closure a [`Tx`] — the
//! only writer of the metadata store — so preconditions are checked under
//! the lock they are written under. The closure's puts reach the store as
//! one record after it returned `Ok`. Everything else — the columnar
//! tables, each evaluation's jobs (the job documents that name it) and
//! state counters, and the versions — is derived from the documents that
//! reached memory by one function, [`ChronosControl::apply`], still locked.

use std::sync::Arc;

use chronos_analytics::{AnalyticsStore, RegressionFlag, ResultTable};
use chronos_api::{codec, WireDecode, WireEncode};
use chronos_json::Value;
use chronos_util::{Clock, Id, SystemClock};

use crate::auth::{Role, SessionManager, User};
use crate::charts::ChartSpec;
use crate::derived::{Change, Derived};
use crate::error::{CoreError, CoreResult};
use crate::jobsource::{self, prune_rung, JobSourceState, Strategy};
use crate::lifecycle::{JobEvent, JobExt};
use crate::model::{Deployment, Evaluation, Experiment, Job, JobResult, JobState, Project, System};
use crate::params::{self, ParamAssignments, ParamDef, PointSpace};
use crate::scheduler::{EvaluationStatus, SchedulerConfig};
use crate::store::{MetadataStore, Put};
use crate::versions::Versions;

const KIND_USER: &str = "user";
const KIND_SYSTEM: &str = "system";
const KIND_DEPLOYMENT: &str = "deployment";
const KIND_PROJECT: &str = "project";
const KIND_EXPERIMENT: &str = "experiment";
const KIND_EVALUATION: &str = "evaluation";
const KIND_JOB: &str = "job";
const KIND_RESULT: &str = "result";

type Decode<T, E> = fn(&Value) -> Result<T, E>;

thread_local! {
    /// Whether this thread holds the write lock: a [`Tx`] is alive on it.
    static WRITING: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// The Chronos Control core.
pub struct ChronosControl {
    store: MetadataStore,
    sessions: SessionManager,
    clock: Arc<dyn Clock>,
    config: SchedulerConfig,
    /// Columnar mirror of uploaded results (chart/summary/regression
    /// queries run over this instead of re-decoding JSON rows). Written by
    /// [`ChronosControl::apply`] only.
    analytics: AnalyticsStore,
    /// Every evaluation's jobs and job-state roll-up (see
    /// [`ChronosControl::evaluation_status`]). Written by
    /// [`ChronosControl::apply`] only.
    derived: Derived,
    /// What version of an evaluation a derived read was computed from
    /// (see [`ChronosControl::evaluation_version`]).
    versions: Versions,
    /// Held by [`ChronosControl::write`] for the whole of every state
    /// change, so concurrent agents never double-claim a job.
    write_lock: parking_lot::Mutex<()>,
}

/// One state change in progress (see [`ChronosControl::write`]); holding
/// one proves the write lock is held. Reads inside the write see the store
/// as it was before it: the puts wait in `puts` until the commit.
struct Tx<'a> {
    control: &'a ChronosControl,
    _lock: parking_lot::MutexGuard<'a, ()>,
    /// The clock, read once per write.
    now: u64,
    /// The documents the write puts, the last one per `(kind, id)`.
    puts: Vec<(&'static str, String, Value)>,
    /// The documents that reached the store's memory: what the write
    /// derives from.
    applied: Vec<Put>,
}

impl Drop for Tx<'_> {
    fn drop(&mut self) {
        WRITING.set(false);
    }
}

impl Tx<'_> {
    /// Puts a document, replacing an earlier put of the same `(kind, id)`
    /// in this write.
    fn put(&mut self, kind: &'static str, id: Id, document: Value) {
        let id = id.to_base32();
        match self.puts.iter_mut().find(|(k, i, _)| *k == kind && *i == id) {
            Some(put) => put.2 = document,
            None => self.puts.push((kind, id, document)),
        }
    }

    /// Hands the write's puts to the store as one record. The store applies
    /// them to memory before its append can fail, so they count as written
    /// either way.
    #[allow(clippy::disallowed_methods)]
    fn commit_puts(&mut self) -> CoreResult<()> {
        let (applied, stored) = self.control.store.put_all(std::mem::take(&mut self.puts));
        self.applied.extend(applied);
        stored
    }

    /// Installs a shipped segment. Its frames reach memory before the
    /// flush can fail, so they count as written on an error too.
    #[allow(clippy::disallowed_methods)]
    fn install_replication(&mut self, payload: &[u8]) -> CoreResult<u64> {
        let (applied, installed) = self.control.store.install_replication(payload);
        self.applied.extend(applied);
        installed
    }
}

impl ChronosControl {
    /// An in-memory control instance with the real clock.
    pub fn in_memory() -> Self {
        Self::new(MetadataStore::in_memory(), Arc::new(SystemClock), SchedulerConfig::default())
    }

    /// Full construction. Derives the columnar tables from the documents
    /// `store` already holds (a reopened log), so every evaluation has a
    /// complete table once this returns.
    pub fn new(store: MetadataStore, clock: Arc<dyn Clock>, config: SchedulerConfig) -> Self {
        let control = ChronosControl {
            store,
            sessions: SessionManager::new(),
            clock,
            config,
            analytics: AnalyticsStore::new(),
            derived: Derived::default(),
            versions: Versions::default(),
            write_lock: parking_lot::Mutex::new(()),
        };
        // Evaluations first, so every result finds its table. Nothing else
        // holds the store yet, so its ids and documents pair up.
        let documents: Vec<Put> = [KIND_EVALUATION, KIND_JOB, KIND_RESULT]
            .into_iter()
            .flat_map(|kind| {
                let ids = control.store.ids(kind).into_iter();
                ids.zip(control.store.list(kind)).map(move |(id, doc)| (kind.to_string(), id, doc))
            })
            .collect();
        control.apply(&documents);
        control
    }

    /// Current time from the control clock.
    pub fn now(&self) -> u64 {
        self.clock.now_millis()
    }

    /// Whether the backing metadata store can still accept writes — the
    /// storage half of the `/readyz` readiness probe. `false` after a
    /// sticky WAL failure.
    pub fn store_healthy(&self) -> bool {
        self.store.healthy()
    }

    /// Runs one state change: the only place the write lock is taken. When
    /// the closure returns `Ok`, its puts go to the store as one record; an
    /// `Err` drops them. Whatever reached memory is then derived from,
    /// whatever the outcome, so every version moves after the last
    /// mutation it covers is visible.
    fn write<R>(&self, f: impl FnOnce(&mut Tx<'_>) -> CoreResult<R>) -> CoreResult<R> {
        let _lock = self.write_lock.lock();
        WRITING.set(true);
        let mut tx =
            Tx { control: self, _lock, now: self.now(), puts: Vec::new(), applied: Vec::new() };
        let result = f(&mut tx).and_then(|r| tx.commit_puts().map(|()| r));
        self.apply(&tx.applied);
        result
    }

    /// Derives everything that is not a document from the documents one
    /// write put into memory — by a commit, an install or the open — and
    /// commits the versions: the only writer of the analytics tables and
    /// of the job membership and state counters, and the only caller of
    /// [`Versions::commit`]. A job moves its evaluation's version and one
    /// counter, and joins its members; an evaluation moves its own version,
    /// records its source's remainder and gets a table; a result is
    /// ingested into its job's evaluation table, and the job is read from
    /// the store, which already holds it. Nothing applied, nothing derived.
    #[allow(clippy::disallowed_methods)]
    fn apply(&self, puts: &[Put]) {
        if puts.is_empty() {
            return;
        }
        let (mut touched, mut changes) = (Vec::new(), Vec::new());
        for (kind, id, doc) in puts {
            match kind.as_str() {
                KIND_EVALUATION => {
                    let Ok(evaluation) = Id::parse_base32(id) else { continue };
                    let id = evaluation.as_u128();
                    self.analytics.mark_fresh(id);
                    touched.push(id);
                    let source = Evaluation::decode_source(doc).ok().flatten();
                    let remaining = source.map(|s| s.remaining() as usize);
                    changes.push(Change::Evaluation { id, remaining });
                }
                KIND_JOB => {
                    let Ok(job) = Id::parse_base32(id) else { continue };
                    let evaluation = evaluation_of(doc);
                    touched.extend(evaluation);
                    let placed = evaluation.map(|evaluation| (evaluation, stored_job_state(doc)));
                    changes.push(Change::Job { id: job.as_u128(), placed });
                }
                KIND_RESULT => {
                    let Some(job_id) = codec::str_ref(doc, "job_id") else { continue };
                    let (Ok(job), Some(stored)) =
                        (Id::parse_base32(job_id), self.store.get(KIND_JOB, job_id))
                    else {
                        continue;
                    };
                    let Some(evaluation) = evaluation_of(&stored) else { continue };
                    let parameters = codec::field(&stored, "parameters").unwrap_or(&Value::Null);
                    let data = codec::field(doc, "data").unwrap_or(&Value::Null);
                    let paths = &crate::analysis::STANDARD_METRIC_PATHS;
                    self.analytics.ingest(evaluation, job.as_u128(), parameters, data, paths);
                    touched.push(evaluation);
                }
                _ => {}
            }
        }
        self.derived.fold(&changes);
        self.versions.commit(&touched);
    }

    /// One document decoded; `NotFound` when it is missing. A stored
    /// document that does not decode is a storage fault naming its kind
    /// and id, never a missing one.
    fn fetch<T, E: std::fmt::Display>(
        &self,
        kind: &'static str,
        id: Id,
        decode: Decode<T, E>,
    ) -> CoreResult<T> {
        let doc =
            self.store.get(kind, &id.to_base32()).ok_or_else(|| CoreError::not_found(kind, id))?;
        decode(&doc).map_err(|e| undecodable(kind, id, e))
    }

    /// Every decodable document of a kind, in id order.
    fn decode_all<T, E>(&self, kind: &str, decode: Decode<T, E>) -> impl Iterator<Item = T> {
        self.store.list(kind).into_iter().filter_map(move |v| decode(&v).ok())
    }

    // ----- replication (cluster mode) --------------------------------------

    /// End offset of the store's replication feed (see
    /// [`MetadataStore::replication_offset`]).
    pub fn replication_offset(&self) -> u64 {
        self.store.replication_offset()
    }

    /// Reads a frame-aligned replication segment starting at `from` for
    /// shipping to a follower (see [`MetadataStore::read_replication`]).
    pub fn read_replication(&self, from: u64, max_bytes: usize) -> Option<Vec<u8>> {
        self.store.read_replication(from, max_bytes)
    }

    /// Installs a shipped replication segment on this (follower) node's
    /// store (see [`MetadataStore::install_replication`]).
    pub fn install_replication(&self, payload: &[u8]) -> CoreResult<u64> {
        self.write(|tx| tx.install_replication(payload))
    }

    // ----- versions (what a derived read was computed from) -----------------

    /// A monotone per-evaluation counter: the number of the last write
    /// whose record touched the evaluation — a put of one of its jobs, of
    /// its document or of a result of one of its jobs — committed here or
    /// installed by replication. Restarts at 0 with the process.
    ///
    /// Reader ordering rule: load this *before* reading any state and tag
    /// what was derived with the pre-read value. [`ChronosControl::write`]
    /// commits after its last mutation is visible, so a body computed
    /// across a concurrent write is at worst tagged too old and recomputed
    /// by the next reader, never served stale.
    pub fn evaluation_version(&self, id: Id) -> u64 {
        self.versions.evaluation(id.as_u128())
    }

    /// A store-wide monotone value: the number of the last committed
    /// write, whatever it wrote. Same reader rule as
    /// [`ChronosControl::evaluation_version`].
    pub fn state_version(&self) -> u64 {
        self.versions.last()
    }

    // ----- users & sessions ------------------------------------------------

    /// Creates a user; usernames are unique.
    pub fn create_user(&self, username: &str, password: &str, role: Role) -> CoreResult<User> {
        if username.is_empty() {
            return Err(CoreError::Invalid("username cannot be empty".into()));
        }
        self.write(|tx| {
            if self.find_user(username).is_some() {
                return Err(CoreError::Conflict(format!("user {username:?} already exists")));
            }
            let user = User::new(username, password, role, tx.now);
            tx.put(KIND_USER, user.id, user.to_json());
            Ok(user)
        })
    }

    /// Looks a user up by name.
    pub fn find_user(&self, username: &str) -> Option<User> {
        self.decode_all(KIND_USER, User::from_json).find(|u| u.username == username)
    }

    /// Fetches a user by id.
    pub fn get_user(&self, id: Id) -> CoreResult<User> {
        self.fetch(KIND_USER, id, User::from_json)
    }

    /// Verifies credentials and opens a session; returns the bearer token.
    pub fn login(&self, username: &str, password: &str) -> CoreResult<String> {
        let user = self
            .find_user(username)
            .filter(|u| u.verify_password(password))
            .ok_or_else(|| CoreError::Forbidden("bad credentials".into()))?;
        Ok(self.sessions.create(user.id, &*self.clock))
    }

    /// Resolves a bearer token to its user.
    pub fn authenticate(&self, token: &str) -> CoreResult<User> {
        let user_id = self
            .sessions
            .resolve(token, &*self.clock)
            .ok_or_else(|| CoreError::Forbidden("invalid or expired session".into()))?;
        self.get_user(user_id)
    }

    /// Terminates a session.
    pub fn logout(&self, token: &str) -> bool {
        self.sessions.revoke(token)
    }

    // ----- systems & deployments -------------------------------------------

    /// Registers a system under evaluation (paper Fig. 2).
    pub fn register_system(
        &self,
        name: &str,
        description: &str,
        parameters: Vec<ParamDef>,
        charts: Vec<ChartSpec>,
    ) -> CoreResult<System> {
        if name.is_empty() {
            return Err(CoreError::Invalid("system name cannot be empty".into()));
        }
        self.write(|tx| {
            if self.find_system(name).is_some() {
                return Err(CoreError::Conflict(format!("system {name:?} already exists")));
            }
            let system = System {
                id: Id::generate(),
                name: name.to_string(),
                description: description.to_string(),
                parameters,
                charts,
                created_at: tx.now,
            };
            tx.put(KIND_SYSTEM, system.id, system.to_value());
            Ok(system)
        })
    }

    /// Registers a system from a JSON definition document — the
    /// "provide a path to a git or mercurial repository" workflow (§3),
    /// with the repository's definition file supplied directly.
    pub fn register_system_from_definition(&self, definition: &Value) -> CoreResult<System> {
        let name = codec::str_ref(definition, "name")
            .ok_or_else(|| CoreError::Invalid("system definition needs a name".into()))?;
        let description = codec::str_ref(definition, "description").unwrap_or("");
        let parameters = System::decode_parameters(definition)?;
        let charts = System::decode_charts(definition)?;
        self.register_system(name, description, parameters, charts)
    }

    /// Looks a system up by name.
    pub fn find_system(&self, name: &str) -> Option<System> {
        self.decode_all(KIND_SYSTEM, System::decode).find(|s| s.name == name)
    }

    /// Fetches a system by id.
    pub fn get_system(&self, id: Id) -> CoreResult<System> {
        self.fetch(KIND_SYSTEM, id, System::decode)
    }

    /// All systems.
    pub fn list_systems(&self) -> Vec<System> {
        self.decode_all(KIND_SYSTEM, System::decode).collect()
    }

    /// Creates a deployment of a system.
    pub fn create_deployment(
        &self,
        system_id: Id,
        environment: &str,
        version: &str,
    ) -> CoreResult<Deployment> {
        self.write(|tx| {
            self.get_system(system_id)?;
            let deployment = Deployment {
                id: Id::generate(),
                system_id,
                environment: environment.to_string(),
                version: version.to_string(),
                active: true,
                created_at: tx.now,
            };
            tx.put(KIND_DEPLOYMENT, deployment.id, deployment.to_value());
            Ok(deployment)
        })
    }

    /// Fetches a deployment.
    pub fn get_deployment(&self, id: Id) -> CoreResult<Deployment> {
        self.fetch(KIND_DEPLOYMENT, id, Deployment::decode)
    }

    /// Deployments of a system (all systems when `system_id` is `None`).
    pub fn list_deployments(&self, system_id: Option<Id>) -> Vec<Deployment> {
        let all = self.decode_all(KIND_DEPLOYMENT, Deployment::decode);
        all.filter(|d| system_id.is_none_or(|x| d.system_id == x)).collect()
    }

    /// Activates/deactivates a deployment.
    pub fn set_deployment_active(&self, id: Id, active: bool) -> CoreResult<Deployment> {
        self.write(|tx| {
            let mut deployment = self.get_deployment(id)?;
            deployment.active = active;
            tx.put(KIND_DEPLOYMENT, id, deployment.to_value());
            Ok(deployment)
        })
    }

    // ----- projects ---------------------------------------------------------

    /// Creates a project owned by `owner`.
    pub fn create_project(&self, name: &str, description: &str, owner: Id) -> CoreResult<Project> {
        if name.is_empty() {
            return Err(CoreError::Invalid("project name cannot be empty".into()));
        }
        self.write(|tx| {
            let project = Project {
                id: Id::generate(),
                name: name.to_string(),
                description: description.to_string(),
                members: vec![owner],
                archived: false,
                created_at: tx.now,
            };
            tx.put(KIND_PROJECT, project.id, project.to_value());
            Ok(project)
        })
    }

    /// Fetches a project.
    pub fn get_project(&self, id: Id) -> CoreResult<Project> {
        self.fetch(KIND_PROJECT, id, Project::decode)
    }

    /// All projects (the API layer filters by membership).
    pub fn list_projects(&self) -> Vec<Project> {
        self.decode_all(KIND_PROJECT, Project::decode).collect()
    }

    /// Adds a member to a project.
    pub fn add_project_member(&self, project_id: Id, user_id: Id) -> CoreResult<Project> {
        self.write(|tx| {
            self.get_user(user_id)?;
            let mut project = self.get_project(project_id)?;
            if !project.members.contains(&user_id) {
                project.members.push(user_id);
                tx.put(KIND_PROJECT, project_id, project.to_value());
            }
            Ok(project)
        })
    }

    /// Enforces project membership (admins see everything).
    pub fn require_project_access(&self, project_id: Id, user: &User) -> CoreResult<Project> {
        let project = self.get_project(project_id)?;
        if user.role.can_admin() || project.members.contains(&user.id) {
            Ok(project)
        } else {
            Err(CoreError::Forbidden(format!(
                "user {} is not a member of project {}",
                user.username, project.name
            )))
        }
    }

    /// Archives a project (makes it and its experiments read-only).
    pub fn archive_project(&self, project_id: Id) -> CoreResult<Project> {
        self.write(|tx| {
            let mut project = self.get_project(project_id)?;
            project.archived = true;
            tx.put(KIND_PROJECT, project_id, project.to_value());
            Ok(project)
        })
    }

    // ----- experiments -------------------------------------------------------

    /// Creates a grid experiment; the assignments are validated against the
    /// system's schema (paper Fig. 3a).
    pub fn create_experiment(
        &self,
        project_id: Id,
        system_id: Id,
        name: &str,
        description: &str,
        assignments: ParamAssignments,
    ) -> CoreResult<Experiment> {
        self.create_experiment_with_options(
            project_id,
            system_id,
            name,
            description,
            assignments,
            Strategy::Grid,
            None,
        )
    }

    /// Full experiment creation: explicit strategy plus an optional per-job
    /// resource budget copied onto every job the evaluations materialize.
    /// An empty budget document normalizes to `None`. The parameter space
    /// is validated without being materialized.
    #[allow(clippy::too_many_arguments)]
    pub fn create_experiment_with_options(
        &self,
        project_id: Id,
        system_id: Id,
        name: &str,
        description: &str,
        assignments: ParamAssignments,
        strategy: Strategy,
        budget: Option<chronos_api::v1::JobBudget>,
    ) -> CoreResult<Experiment> {
        self.write(|tx| {
            if self.get_project(project_id)?.archived {
                return Err(CoreError::Conflict("project is archived".into()));
            }
            let system = self.get_system(system_id)?;
            PointSpace::build(&assignments, &system.parameters)?; // validation
            strategy.validate()?;
            let experiment = Experiment {
                id: Id::generate(),
                project_id,
                system_id,
                name: name.to_string(),
                description: description.to_string(),
                parameters: assignments,
                strategy,
                archived: false,
                created_at: tx.now,
                budget: budget.filter(|b| !b.is_empty()),
            };
            tx.put(KIND_EXPERIMENT, experiment.id, experiment.to_value());
            Ok(experiment)
        })
    }

    /// Fetches an experiment.
    pub fn get_experiment(&self, id: Id) -> CoreResult<Experiment> {
        self.fetch(KIND_EXPERIMENT, id, Experiment::decode)
    }

    /// Experiments of a project (all when `None`).
    pub fn list_experiments(&self, project_id: Option<Id>) -> Vec<Experiment> {
        let all = self.decode_all(KIND_EXPERIMENT, Experiment::decode);
        all.filter(|e| project_id.is_none_or(|x| e.project_id == x)).collect()
    }

    /// Archives an experiment.
    pub fn archive_experiment(&self, id: Id) -> CoreResult<Experiment> {
        self.write(|tx| {
            let mut experiment = self.get_experiment(id)?;
            experiment.archived = true;
            tx.put(KIND_EXPERIMENT, id, experiment.to_value());
            Ok(experiment)
        })
    }

    // ----- evaluations & jobs -------------------------------------------------

    /// Runs an experiment: plans a lazy evaluation over its parameter space
    /// (paper §2.1). No jobs are created here — the claim path materializes
    /// points on demand from the evaluation's job source, so a huge space
    /// costs O(in-flight) job documents. This is also the entry point for
    /// build-bot triggers (§2.2).
    pub fn create_evaluation(&self, experiment_id: Id) -> CoreResult<Evaluation> {
        self.write(|tx| {
            let experiment = self.get_experiment(experiment_id)?;
            if experiment.archived {
                return Err(CoreError::Conflict("experiment is archived".into()));
            }
            let system = self.get_system(experiment.system_id)?;
            let space = PointSpace::build(&experiment.parameters, &system.parameters)?;
            let evaluation = Evaluation {
                id: Id::generate(),
                experiment_id,
                job_ids: Vec::new(),
                swept_params: params::swept_names(&experiment.parameters, &system.parameters),
                created_at: tx.now,
                source: Some(jobsource::plan(experiment.strategy, space.total())),
            };
            tx.put(KIND_EVALUATION, evaluation.id, evaluation.to_value());
            Ok(evaluation)
        })
    }

    /// Fetches an evaluation.
    pub fn get_evaluation(&self, id: Id) -> CoreResult<Evaluation> {
        self.with_members(self.fetch(KIND_EVALUATION, id, Evaluation::decode)?)
    }

    /// `evaluation` with its members as its `job_ids`.
    fn with_members(&self, evaluation: Evaluation) -> CoreResult<Evaluation> {
        let job_ids = self.job_order(evaluation.id)?.into_iter().map(Id::from_u128).collect();
        Ok(Evaluation { job_ids, ..evaluation })
    }

    /// The `GET /evaluations/:id` body: the stored document decoded and
    /// encoded again, with its members under `"job_ids"` and its status
    /// roll-up under `"status"`. A stored document that does not decode is
    /// a storage fault, as in `fetch`.
    pub fn evaluation_detail(&self, id: Id) -> CoreResult<Value> {
        let status = self.evaluation_status(id)?;
        let ids = self.folded(id, |fold| fold.members(id.as_u128(), |_, text| text.into()))?;
        let mut detail = self.fetch(KIND_EVALUATION, id, Evaluation::decode)?.to_value();
        detail.set("job_ids", Value::Array(ids));
        detail.set("status", status.to_json());
        Ok(detail)
    }

    /// The system an evaluation's experiment runs on (whose chart specs a
    /// chart read renders).
    pub fn evaluation_system(&self, id: Id) -> CoreResult<System> {
        let evaluation = self.fetch(KIND_EVALUATION, id, Evaluation::decode)?;
        self.get_system(self.get_experiment(evaluation.experiment_id)?.system_id)
    }

    /// Evaluations of an experiment (all when `None`).
    pub fn list_evaluations(&self, experiment_id: Option<Id>) -> Vec<Evaluation> {
        let all = self.decode_all(KIND_EVALUATION, Evaluation::decode);
        let all = all.filter(|e| experiment_id.is_none_or(|x| e.experiment_id == x));
        all.filter_map(|evaluation| self.with_members(evaluation).ok()).collect()
    }

    /// The state roll-up of an evaluation (paper Fig. 3b). Lazy evaluations
    /// also report their unmaterialized remainder, so a fresh evaluation
    /// with zero job documents reads as 0 % complete, not 100 %.
    ///
    /// Read from the counters [`ChronosControl::apply`] keeps: no document
    /// is decoded and no job visited. `NotFound` for an unknown evaluation,
    /// and, naming the job, while one of its jobs is in a state the roll-up
    /// cannot count — a state it cannot read is an error, not a zero.
    pub fn evaluation_status(&self, id: Id) -> CoreResult<EvaluationStatus> {
        let status = self.folded(id, |derived| derived.status(id.as_u128()))?;
        status.map_err(|job| CoreError::not_found(KIND_JOB, Id::from_u128(job)))
    }

    /// The roll-ups of every evaluation the fold has reached summed (the
    /// `/api/v1/stats` job counts), from the same counters; `remaining`
    /// sums every lazy evaluation's unmaterialized points. `NotFound`,
    /// naming the job, while a job is in a state the roll-up cannot count.
    pub fn job_totals(&self) -> CoreResult<EvaluationStatus> {
        self.derived.totals().map_err(|job| CoreError::not_found(KIND_JOB, Id::from_u128(job)))
    }

    /// The jobs naming an evaluation, in id (creation) order, from the
    /// membership [`ChronosControl::apply`] keeps; `NotFound` if unknown.
    pub(crate) fn job_order(&self, id: Id) -> CoreResult<Vec<u128>> {
        self.folded(id, |derived| derived.members(id.as_u128(), |job, _| job))
    }

    /// What `read` finds in the fold about an evaluation. One only the store
    /// shows (which it does before the fold) has its creating write in
    /// flight: an empty write waits that out. `NotFound` if neither shows.
    fn folded<T>(&self, id: Id, read: impl Fn(&Derived) -> Option<T>) -> CoreResult<T> {
        let mut found = read(&self.derived);
        if found.is_none() && self.store.get(KIND_EVALUATION, &id.to_base32()).is_some() {
            // Never inside a write, where it would deadlock: every document
            // visible there was folded before the last write's unlock.
            debug_assert!(!WRITING.get(), "evaluation {id} is stored but not folded in a write");
            self.write(|_| Ok(()))?;
            found = read(&self.derived);
        }
        found.ok_or_else(|| CoreError::not_found(KIND_EVALUATION, id))
    }

    /// Fetches a job.
    pub fn get_job(&self, id: Id) -> CoreResult<Job> {
        self.fetch(KIND_JOB, id, Job::decode)
    }

    /// Jobs of an evaluation, in creation order.
    pub fn list_jobs(&self, evaluation_id: Id) -> CoreResult<Vec<Job>> {
        let jobs = self.job_order(evaluation_id)?.into_iter();
        jobs.map(|id| self.get_job(Id::from_u128(id))).collect()
    }

    /// Marks `job` claimed by deployment `by` and persists it.
    fn claim(tx: &mut Tx, mut job: Job, by: &Deployment, key: Option<&str>) -> CoreResult<Job> {
        let message = format!("claimed by deployment {} ({})", by.id, by.environment);
        job.apply(JobEvent::Claim, tx.now, &message)?;
        job.deployment_id = Some(by.id);
        job.heartbeat_at = Some(tx.now);
        job.attempts += 1;
        job.claim_key = key.map(str::to_string);
        tx.put(KIND_JOB, job.id, job.to_value());
        Ok(job)
    }

    /// Agent protocol: claims the oldest scheduled job for the system that
    /// `deployment_id` deploys, materializing the next point of the oldest
    /// unfinished lazy evaluation when no job document is waiting. Atomic:
    /// two agents never claim the same job.
    ///
    /// `idempotency_key` makes the claim retry-safe: if a previous claim by
    /// this deployment succeeded but the response was lost, retrying with
    /// the same key returns the already-claimed job instead of claiming (and
    /// double-running) a second one.
    pub fn claim_next_job(
        &self,
        deployment_id: Id,
        idempotency_key: Option<&str>,
    ) -> CoreResult<Option<Job>> {
        self.write(|tx| {
            let deployment = self.get_deployment(deployment_id)?;
            if !deployment.active {
                return Err(CoreError::Conflict("deployment is inactive".into()));
            }
            if let Some(key) = idempotency_key {
                // Job ids are time-ordered, so store order = creation order.
                for id in self.store.ids(KIND_JOB) {
                    let Some(doc) = self.store.get(KIND_JOB, &id) else { continue };
                    let Ok(job) = Job::decode(&doc) else { continue };
                    if job.state == JobState::Running
                        && job.deployment_id == Some(deployment_id)
                        && job.claim_key.as_deref() == Some(key)
                    {
                        return Ok(Some(job)); // duplicate of an acknowledged claim
                    }
                }
            }
            // Pass 1: a job document already waiting (a rescheduled job, or a
            // materialized point another agent abandoned).
            for id in self.store.ids(KIND_JOB) {
                let Some(doc) = self.store.get(KIND_JOB, &id) else { continue };
                let Ok(job) = Job::decode(&doc) else { continue };
                if job.state == JobState::Scheduled && job.system_id == deployment.system_id {
                    return Self::claim(tx, job, &deployment, idempotency_key).map(Some);
                }
            }
            // Pass 2: materialize the next point from the oldest evaluation
            // with remaining work for this system.
            self.materialize_next(tx, &deployment, idempotency_key)
        })
    }

    /// Walks evaluations in creation order and materializes the next point
    /// of the first one with available work for `deployment`'s system,
    /// returning it claimed. Settles adaptive rungs (scoring + pruning)
    /// along the way. The job and the evaluation's advanced cursor reach
    /// the store in the claim's one record.
    fn materialize_next(
        &self,
        tx: &mut Tx,
        deployment: &Deployment,
        idempotency_key: Option<&str>,
    ) -> CoreResult<Option<Job>> {
        for key in self.store.ids(KIND_EVALUATION) {
            let Some(doc) = self.store.get(KIND_EVALUATION, &key) else { continue };
            let Ok(mut evaluation) = Evaluation::decode(&doc) else { continue };
            let Some(mut source) = evaluation.source.clone() else { continue };
            if source.remaining() == 0 {
                continue;
            }
            let Ok(experiment) = self.get_experiment(evaluation.experiment_id) else { continue };
            if experiment.system_id != deployment.system_id {
                continue;
            }
            let Ok(system) = self.get_system(experiment.system_id) else { continue };
            let Ok(space) = PointSpace::build(&experiment.parameters, &system.parameters) else {
                continue;
            };
            // Adaptive: a fully-issued rung blocks until every rung job
            // settles, then candidates are scored and pruned.
            if source.peek().is_none() && !self.try_advance_rung(&mut source, &evaluation)? {
                continue;
            }
            let Some(index) = source.peek() else { continue };
            let Some(parameters) = space.point_at(index) else { continue };
            let mut job = Job::new(evaluation.id, experiment.system_id, parameters, tx.now);
            job.point_index = Some(index);
            job.budget = experiment.budget;
            source.advance();
            if let Some(frontier) = &mut source.frontier {
                frontier.job_ids.push(job.id);
            }
            evaluation.job_ids.clear(); // the job names it; an older log's list goes
            evaluation.source = Some(source);
            tx.put(KIND_EVALUATION, evaluation.id, evaluation.to_value());
            return Self::claim(tx, job, deployment, idempotency_key).map(Some);
        }
        Ok(None)
    }

    /// Attempts to settle the current rung of an adaptive source: when all
    /// rung jobs are terminal, scores each candidate through the columnar
    /// analytics table and prunes to the best `1/eta` fraction. Returns
    /// whether the source gained issuable work. The pruning decision is a
    /// pure function of `(candidates, stored results)` — no clocks, no job
    /// ids — so replays and failed-over leaders decide identically.
    fn try_advance_rung(
        &self,
        source: &mut JobSourceState,
        evaluation: &Evaluation,
    ) -> CoreResult<bool> {
        let Strategy::Adaptive(cfg) = source.strategy.clone() else { return Ok(false) };
        let Some(frontier) = source.frontier.as_mut() else { return Ok(false) };
        if (frontier.issued as usize) < frontier.candidates.len() || frontier.candidates.len() <= 1
        {
            return Ok(false); // rung still issuing, or a single survivor remains
        }
        let mut jobs = Vec::with_capacity(frontier.job_ids.len());
        for job_id in &frontier.job_ids {
            let job = self.get_job(*job_id)?;
            if !matches!(
                job.state,
                JobState::Finished | JobState::Aborted | JobState::Failed | JobState::Quarantined
            ) {
                return Ok(false); // rung not settled yet
            }
            jobs.push(job);
        }
        let table = self.analytics.load(evaluation.id.as_u128());
        let cells = table.data_column(&cfg.metric).map(|c| c.materialize()).unwrap_or_default();
        let scored: Vec<(u64, Option<f64>)> = frontier
            .candidates
            .iter()
            .zip(&jobs)
            .map(|(&candidate, job)| {
                let score = (job.state == JobState::Finished)
                    .then(|| table.gather([job.id.as_u128()]).first().copied())
                    .flatten()
                    .and_then(|row| cells.get(row).and_then(|cell| cell.as_f64()));
                (candidate, score)
            })
            .collect();
        prune_rung(frontier, &scored, &cfg);
        Ok(true)
    }

    /// Checks the fencing token: a write from attempt `attempt` is only
    /// valid while the job is still running *that* attempt. Anything else
    /// means the lease was lost (the job timed out and was rescheduled, or a
    /// newer attempt already owns it).
    fn check_fence(job: &Job, attempt: Option<u32>, what: &str) -> CoreResult<()> {
        if job.state != JobState::Running {
            return Err(CoreError::LeaseLost(format!(
                "{what} rejected: job {} is {}, not running",
                job.id, job.state
            )));
        }
        if let Some(attempt) = attempt {
            if attempt != job.attempts {
                return Err(CoreError::LeaseLost(format!(
                    "{what} rejected: stale attempt {attempt} (job {} is on attempt {})",
                    job.id, job.attempts
                )));
            }
        }
        Ok(())
    }

    /// Agent protocol: heartbeat with optional progress update. `attempt`
    /// is the fencing token: a zombie agent heartbeating a rescheduled job
    /// gets [`CoreError::LeaseLost`] and must cancel its run.
    pub fn heartbeat(
        &self,
        job_id: Id,
        progress: Option<u8>,
        attempt: Option<u32>,
    ) -> CoreResult<Job> {
        self.write(|tx| {
            let mut job = self.get_job(job_id)?;
            Self::check_fence(&job, attempt, "heartbeat")?;
            job.heartbeat_at = Some(tx.now);
            if let Some(p) = progress {
                job.progress = p.min(100);
            }
            tx.put(KIND_JOB, job.id, job.to_value());
            Ok(job)
        })
    }

    /// Agent protocol: appends log output (paper §2.2: "the agent
    /// periodically sends the output of the logger to Chronos Control").
    pub fn append_log(&self, job_id: Id, text: &str) -> CoreResult<()> {
        self.write(|tx| {
            let mut job = self.get_job(job_id)?;
            job.log.push_str(text);
            if !text.ends_with('\n') {
                job.log.push('\n');
            }
            tx.put(KIND_JOB, job.id, job.to_value());
            Ok(())
        })
    }

    /// Agent protocol: uploads the result ("a JSON and a zip file") and
    /// finishes the job — exactly once. `attempt` fences out zombie
    /// attempts; `idempotency_key` deduplicates retries of an upload whose
    /// response was lost (the stored result is returned instead of storing
    /// a second copy).
    pub fn finish_job(
        &self,
        job_id: Id,
        data: Value,
        archive: Vec<u8>,
        attempt: Option<u32>,
        idempotency_key: Option<&str>,
    ) -> CoreResult<JobResult> {
        self.write(|tx| {
            let mut job = self.get_job(job_id)?;
            if job.state == JobState::Finished
                && idempotency_key.is_some()
                && job.result_key.as_deref() == idempotency_key
            {
                // Duplicate of an accepted upload: return the stored result.
                let result_id =
                    job.result_id.ok_or_else(|| CoreError::not_found("result", "finished job"))?;
                return self.get_result(result_id);
            }
            Self::check_fence(&job, attempt, "result upload")?;
            job.apply(JobEvent::Finish, tx.now, "result uploaded")?;
            job.progress = 100;
            let result =
                JobResult { id: Id::generate(), job_id, data, archive, created_at: tx.now };
            let mut stored = result.to_json();
            stored.set("archive_b64", chronos_util::encode::base64_encode(&result.archive));
            tx.put(KIND_RESULT, result.id, stored);
            job.result_id = Some(result.id);
            job.result_key = idempotency_key.map(str::to_string);
            tx.put(KIND_JOB, job.id, job.to_value());
            Ok(result)
        })
    }

    /// Agent protocol: reports a failure. Auto-reschedules when policy
    /// allows (requirement *(iii)*). `attempt` fences out zombie attempts,
    /// so a timed-out agent cannot fail (and re-reschedule) a job a newer
    /// attempt is running.
    pub fn fail_job(&self, job_id: Id, reason: &str, attempt: Option<u32>) -> CoreResult<Job> {
        self.write(|tx| {
            let job = self.get_job(job_id)?;
            if attempt.is_some() {
                Self::check_fence(&job, attempt, "failure report")?;
            }
            self.fail(tx, job, reason)
        })
    }

    fn fail(&self, tx: &mut Tx, mut job: Job, reason: &str) -> CoreResult<Job> {
        job.apply(JobEvent::Fail, tx.now, reason)?;
        job.failure = Some(reason.to_string());
        job.heartbeat_at = None;
        if self.config.may_auto_reschedule(job.attempts) {
            job.apply(
                JobEvent::Reschedule,
                tx.now,
                &format!(
                    "automatically re-scheduled (attempt {} of {})",
                    job.attempts + 1,
                    self.config.max_attempts
                ),
            )?;
            job.deployment_id = None;
            job.progress = 0;
            job.claim_key = None;
        } else if self.config.auto_reschedule {
            // Poison-job containment: under automatic rescheduling a job
            // that exhausted max_attempts would otherwise sit failed and be
            // re-fed to agents by operators forever. Quarantine is terminal;
            // the scheduler, sweeper, and adaptive scoring all treat it as a
            // deterministically-missing result. With auto_reschedule off the
            // job stays Failed so manual rescheduling keeps working.
            job.apply(
                JobEvent::Quarantine,
                tx.now,
                &format!(
                    "quarantined after {} failed attempts (max_attempts {})",
                    job.attempts, self.config.max_attempts
                ),
            )?;
        }
        tx.put(KIND_JOB, job.id, job.to_value());
        Ok(job)
    }

    /// Aborts a scheduled or running job (paper Fig. 3c).
    pub fn abort_job(&self, job_id: Id) -> CoreResult<Job> {
        self.write(|tx| {
            let mut job = self.get_job(job_id)?;
            job.apply(JobEvent::Abort, tx.now, "aborted by user")?;
            tx.put(KIND_JOB, job.id, job.to_value());
            Ok(job)
        })
    }

    /// Manually re-schedules a failed job (paper Fig. 3c).
    pub fn reschedule_job(&self, job_id: Id) -> CoreResult<Job> {
        self.write(|tx| {
            let mut job = self.get_job(job_id)?;
            job.apply(JobEvent::Reschedule, tx.now, "re-scheduled by user")?;
            job.deployment_id = None;
            job.progress = 0;
            job.failure = None;
            job.claim_key = None;
            tx.put(KIND_JOB, job.id, job.to_value());
            Ok(job)
        })
    }

    /// Failure detection sweep: fails every running job whose heartbeat
    /// lease expired. Returns the affected job ids. Call periodically.
    pub fn check_timeouts(&self) -> CoreResult<Vec<Id>> {
        self.write(|tx| {
            // Only running jobs hold a lease: peek at the stored state and
            // fully decode just those.
            let expired: Vec<Job> = self
                .store
                .list(KIND_JOB)
                .iter()
                .filter(|doc| stored_job_state(doc) == Some(JobState::Running))
                .filter_map(|doc| Job::decode(doc).ok())
                .filter(|job| self.config.lease_expired(job.heartbeat_at, tx.now))
                .collect();
            let reason =
                format!("heartbeat timeout after {} ms", self.config.heartbeat_timeout_millis);
            expired.into_iter().map(|job| Ok(self.fail(tx, job, &reason)?.id)).collect()
        })
    }

    /// Fetches a result by id, decoding the stored archive. A stored
    /// archive that is missing or not base64 is a storage fault.
    pub fn get_result(&self, id: Id) -> CoreResult<JobResult> {
        let doc = self
            .store
            .get(KIND_RESULT, &id.to_base32())
            .ok_or_else(|| CoreError::not_found("result", id))?;
        let archive = codec::str_ref(&doc, "archive_b64")
            .and_then(chronos_util::encode::base64_decode)
            .ok_or_else(|| CoreError::Storage(format!("result {id} has no readable archive")))?;
        Ok(JobResult {
            id,
            job_id: codec::req_id(&doc, "job_id")?,
            data: codec::opt_value(&doc, "data").unwrap_or(Value::Null),
            archive,
            created_at: codec::lenient_u64(&doc, "created_at").unwrap_or(0),
        })
    }

    /// Total number of stored results. The chaos suite uses this to prove
    /// exactly-once semantics: one result per finished job, zero duplicates.
    pub fn count_results(&self) -> usize {
        self.store.count(KIND_RESULT)
    }

    /// The result of a job, if it has one.
    pub fn result_for_job(&self, job_id: Id) -> CoreResult<Option<JobResult>> {
        match self.get_job(job_id)?.result_id {
            Some(result_id) => Ok(Some(self.get_result(result_id)?)),
            None => Ok(None),
        }
    }

    /// Compacts the metadata log (jobs accumulate log/timeline rewrites),
    /// first putting an older log's evaluation documents without job ids.
    pub fn compact_store(&self) -> CoreResult<()> {
        self.write(|tx| {
            for mut evaluation in self.decode_all(KIND_EVALUATION, Evaluation::decode) {
                if !std::mem::take(&mut evaluation.job_ids).is_empty() {
                    tx.put(KIND_EVALUATION, evaluation.id, evaluation.to_value());
                }
            }
            Ok(())
        })?;
        self.store.compact()
    }

    // ----- columnar analytics ------------------------------------------------

    /// The columnar result table of an evaluation (empty for an unknown
    /// one), shared with the analytics store: a snapshot that later uploads
    /// do not show through. [`ChronosControl::apply`] keeps it complete.
    pub fn columnar_table(&self, evaluation_id: Id) -> CoreResult<Arc<ResultTable>> {
        Ok(self.analytics.load(evaluation_id.as_u128()))
    }

    /// Caches the outcome of a regression scan for the experiment status
    /// body.
    pub fn set_regression_flag(&self, experiment_id: Id, flag: RegressionFlag) {
        self.analytics.set_flag(experiment_id.as_u128(), flag);
    }

    /// The cached regression flag of an experiment, if a scan ever ran.
    pub fn regression_flag(&self, experiment_id: Id) -> Option<RegressionFlag> {
        self.analytics.flag(experiment_id.as_u128())
    }
}

/// The lifecycle state of a stored job document, read without decoding
/// the rest of it. `None` when the field is missing or not a known state.
fn stored_job_state(doc: &Value) -> Option<JobState> {
    codec::str_ref(doc, "state").and_then(JobState::parse)
}

/// A stored document that does not decode: a storage fault naming it,
/// never a missing document.
fn undecodable(kind: &str, id: Id, error: impl std::fmt::Display) -> CoreError {
    CoreError::Storage(format!("stored {kind} {id} does not decode: {error}"))
}

/// The evaluation a stored job document belongs to, read without decoding
/// the rest of it.
fn evaluation_of(job: &Value) -> Option<u128> {
    let id = codec::str_ref(job, "evaluation_id")?;
    Id::parse_base32(id).ok().map(|id| id.as_u128())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::charts::ChartSpec;
    use crate::jobsource::AdaptiveConfig;
    use crate::params::{ParamDef, ParamType};
    use chronos_json::obj;
    use chronos_util::MockClock;
    use std::collections::BTreeMap;

    fn control_with_clock() -> (ChronosControl, MockClock) {
        let clock = MockClock::new(1_000_000);
        let control = ChronosControl::new(
            MetadataStore::in_memory(),
            Arc::new(clock.clone()),
            SchedulerConfig {
                heartbeat_timeout_millis: 10_000,
                max_attempts: 2,
                auto_reschedule: true,
            },
        );
        (control, clock)
    }

    fn demo_system(control: &ChronosControl) -> System {
        control
            .register_system(
                "minidoc",
                "embedded document store",
                vec![
                    ParamDef::new(
                        "engine",
                        "storage engine",
                        ParamType::Checkbox { options: vec!["wiredtiger".into(), "mmapv1".into()] },
                        Value::from("wiredtiger"),
                    )
                    .unwrap(),
                    ParamDef::new(
                        "threads",
                        "client threads",
                        ParamType::Interval { min: 1, max: 16, step: 1 },
                        Value::from(1),
                    )
                    .unwrap(),
                ],
                vec![ChartSpec {
                    kind: "line".into(),
                    title: "Throughput".into(),
                    x_param: "threads".into(),
                    series_param: Some("engine".into()),
                    value_path: "/throughput_ops_per_sec".into(),
                    y_label: "ops/s".into(),
                }],
            )
            .unwrap()
    }

    /// Builds the full demo object graph and returns (control, clock,
    /// evaluation with 4 jobs, deployment).
    fn demo_evaluation() -> (ChronosControl, MockClock, Evaluation, Deployment) {
        let (control, clock) = control_with_clock();
        let (evaluation, deployment) = demo_graph(&control);
        (control, clock, evaluation, deployment)
    }

    /// The demo object graph on `control`: (evaluation with 4 jobs,
    /// deployment).
    fn demo_graph(control: &ChronosControl) -> (Evaluation, Deployment) {
        let system = demo_system(control);
        let deployment = control.create_deployment(system.id, "node-a", "1.0").unwrap();
        let owner = control.create_user("ada", "pw", Role::Member).unwrap();
        let project = control.create_project("demo", "", owner.id).unwrap();
        let experiment = control
            .create_experiment(
                project.id,
                system.id,
                "engines",
                "",
                ParamAssignments::new()
                    .sweep_all("engine")
                    .sweep("threads", vec![Value::from(1), Value::from(2)]),
            )
            .unwrap();
        (control.create_evaluation(experiment.id).unwrap(), deployment)
    }

    /// The roll-up of jobs in `states`, without a remainder.
    fn tally(states: impl IntoIterator<Item = JobState>) -> EvaluationStatus {
        let mut status = EvaluationStatus::default();
        for state in states {
            match state {
                JobState::Scheduled => status.scheduled += 1,
                JobState::Running => status.running += 1,
                JobState::Finished => status.finished += 1,
                JobState::Aborted => status.aborted += 1,
                JobState::Failed => status.failed += 1,
                JobState::Quarantined => status.quarantined += 1,
            }
        }
        status
    }

    /// The state peek of `evaluation_status` against the count a full
    /// decode of every job gives.
    fn assert_status_matches_full_decode(control: &ChronosControl, evaluation_id: Id) {
        let jobs = control.list_jobs(evaluation_id).unwrap();
        let mut decoded = tally(jobs.iter().map(|job| job.state));
        decoded.remaining =
            control.get_evaluation(evaluation_id).unwrap().source.map(|s| s.remaining() as usize);
        assert_eq!(control.evaluation_status(evaluation_id).unwrap(), decoded);
    }

    /// Roll-ups summed as `/stats` sums them.
    fn summed(statuses: impl IntoIterator<Item = EvaluationStatus>) -> EvaluationStatus {
        let mut sums = EvaluationStatus { remaining: Some(0), ..EvaluationStatus::default() };
        for status in statuses {
            sums.scheduled += status.scheduled;
            sums.running += status.running;
            sums.finished += status.finished;
            sums.aborted += status.aborted;
            sums.failed += status.failed;
            sums.quarantined += status.quarantined;
            sums.remaining = sums.remaining.map(|sum| sum + status.remaining.unwrap_or(0));
        }
        sums
    }

    /// Every job document's id and state, grouped by the evaluation it
    /// names, in id order: a scan of the store, the fold's oracle.
    fn scanned_jobs(control: &ChronosControl) -> BTreeMap<Id, Vec<(Id, JobState)>> {
        let mut scanned: BTreeMap<Id, Vec<(Id, JobState)>> = BTreeMap::new();
        for (id, doc) in control.store.ids(KIND_JOB).iter().zip(control.store.list(KIND_JOB)) {
            let Some(evaluation) = evaluation_of(&doc) else { continue };
            let state = stored_job_state(&doc).expect("a readable state");
            let job = (Id::parse_base32(id).unwrap(), state);
            scanned.entry(Id::from_u128(evaluation)).or_default().push(job);
        }
        scanned
    }

    /// Every evaluation's membership equals the scan of the job documents
    /// naming it, its counters their states and its detail body its
    /// decoded document with the scanned ids; the counters' sums
    /// (`/stats`) equal the scanned sums, no stored evaluation document
    /// lists jobs, and an unknown evaluation is `NotFound`.
    fn assert_derived_matches_scan(control: &ChronosControl, what: &str) {
        let scanned = scanned_jobs(control);
        let mut statuses = Vec::new();
        for document in control.store.list(KIND_EVALUATION) {
            assert_eq!(document.get("job_ids"), Some(&Value::Array(Vec::new())), "{what}");
            let mut evaluation = Evaluation::decode(&document).unwrap();
            let jobs = scanned.get(&evaluation.id).map_or(&[][..], Vec::as_slice);
            let mut status = tally(jobs.iter().map(|&(_, state)| state));
            status.remaining = evaluation.source.as_ref().map(|s| s.remaining() as usize);
            let counted = control.evaluation_status(evaluation.id).unwrap();
            assert_eq!(counted, status, "{what}: evaluation {}", evaluation.id);
            evaluation.job_ids = jobs.iter().map(|&(job, _)| job).collect();
            let members: Vec<u128> = evaluation.job_ids.iter().map(Id::as_u128).collect();
            assert_eq!(control.job_order(evaluation.id).unwrap(), members, "{what}: members");
            assert_eq!(control.get_evaluation(evaluation.id).unwrap(), evaluation, "{what}");
            // The detail body serves the stored document with the members
            // in place: the bytes of the evaluation encoded again.
            let mut detail = evaluation.to_value();
            detail.set("status", status.to_json());
            let served = control.evaluation_detail(evaluation.id).unwrap();
            assert_eq!(served.to_string(), detail.to_string(), "{what}: detail");
            statuses.push(status);
        }
        assert_eq!(control.job_totals().unwrap(), summed(statuses), "{what}: /stats sums");
        let unknown = control.evaluation_status(Id::generate());
        assert!(matches!(unknown, Err(CoreError::NotFound { .. })), "{what}: {unknown:?}");
    }

    /// Ships everything `leader` has committed beyond `follower`'s offset.
    fn replicate(leader: &ChronosControl, follower: &ChronosControl) {
        let segment = leader.read_replication(follower.replication_offset(), usize::MAX).unwrap();
        assert_eq!(follower.install_replication(&segment).unwrap(), segment.len() as u64);
    }

    #[test]
    fn follower_analytics_follow_every_installed_segment() {
        let (leader, _clock, evaluation, deployment) = demo_evaluation();
        let (follower, _follower_clock) = control_with_clock();
        let summary = |control: &ChronosControl| {
            crate::analysis::summary_table(control, evaluation.id).unwrap()
        };
        for finished in 1..=3 {
            let job = leader.claim_next_job(deployment.id, None).unwrap().unwrap();
            leader
                .finish_job(
                    job.id,
                    obj! {"throughput_ops_per_sec" => 100.0 * finished as f64},
                    vec![],
                    None,
                    None,
                )
                .unwrap();
            let (version, state) =
                (follower.evaluation_version(evaluation.id), follower.state_version());
            replicate(&leader, &follower);
            assert!(follower.evaluation_version(evaluation.id) > version);
            assert!(follower.state_version() > state);
            // The installed result was ingested by the install itself.
            let table = follower.columnar_table(evaluation.id).unwrap();
            assert_eq!(table.rows(), finished);
            assert_eq!(leader.columnar_table(evaluation.id).unwrap().rows(), finished);
            assert_eq!(summary(&follower), summary(&leader));
            // A heartbeat (an empty segment) installs nothing: no version
            // moves and the table is the same one.
            let version = follower.evaluation_version(evaluation.id);
            replicate(&leader, &follower);
            assert_eq!(follower.evaluation_version(evaluation.id), version);
            assert!(Arc::ptr_eq(&follower.columnar_table(evaluation.id).unwrap(), &table));
        }
        // Promotion: the follower takes writes, and its ingest lands in a
        // table that holds every replicated row.
        let job = follower.claim_next_job(deployment.id, None).unwrap().unwrap();
        follower
            .finish_job(job.id, obj! {"throughput_ops_per_sec" => 1.0}, vec![], None, None)
            .unwrap();
        assert_eq!(follower.columnar_table(evaluation.id).unwrap().rows(), 4);
    }

    #[test]
    fn versions_commit_after_the_write_not_inside_it() {
        let (control, _clock, evaluation, deployment) = demo_evaluation();
        let job = control.claim_next_job(deployment.id, None).unwrap().unwrap();
        let versions = || (control.evaluation_version(evaluation.id), control.state_version());
        let rows = || control.columnar_table(evaluation.id).unwrap().rows();
        let before = versions();
        control
            .write(|tx| {
                tx.put(KIND_JOB, job.id, job.to_value());
                let result = obj! {"job_id" => job.id.to_base32(), "data" => obj! {"ok" => 1}};
                tx.put(KIND_RESULT, Id::generate(), result);
                assert_eq!(versions(), before, "a version moved before the write's last mutation");
                assert_eq!(rows(), 0, "a row was derived before the write's commit");
                Ok(())
            })
            .unwrap();
        let after = versions();
        assert!(after.0 > before.0 && after.1 > before.1, "{before:?} -> {after:?}");
        assert_eq!(rows(), 1);
    }

    /// A follower holding two evaluations installs a segment whose records
    /// touch only one: the other keeps its version and its very table.
    #[test]
    fn an_install_derives_only_what_its_records_touch() {
        let (leader, _clock, touched, deployment) = demo_evaluation();
        let (follower, _follower_clock) = control_with_clock();
        let project = leader.list_projects()[0].id;
        let other = leader.register_system("otherdb", "", vec![], vec![]).unwrap();
        let other_deployment = leader.create_deployment(other.id, "node-b", "1").unwrap();
        let experiment =
            leader.create_experiment(project, other.id, "x", "", ParamAssignments::new()).unwrap();
        let untouched = leader.create_evaluation(experiment.id).unwrap();
        let finish = |deployment: Id| {
            let job = leader.claim_next_job(deployment, None).unwrap().unwrap();
            let data = obj! {"throughput_ops_per_sec" => 1.0};
            leader.finish_job(job.id, data, vec![], None, None).unwrap();
        };
        finish(other_deployment.id);
        finish(deployment.id);
        replicate(&leader, &follower);
        let seen = |evaluation: Id| {
            let table = follower.columnar_table(evaluation).unwrap();
            (follower.evaluation_version(evaluation), table)
        };
        let (touched_before, untouched_before) = (seen(touched.id), seen(untouched.id));
        assert_eq!((touched_before.1.rows(), untouched_before.1.rows()), (1, 1));
        finish(deployment.id);
        replicate(&leader, &follower);
        let (touched_after, untouched_after) = (seen(touched.id), seen(untouched.id));
        assert!(touched_after.0 > touched_before.0);
        assert_eq!(touched_after.1.rows(), 2);
        assert_eq!(untouched_after.0, untouched_before.0, "an untouched version moved");
        assert!(Arc::ptr_eq(&untouched_after.1, &untouched_before.1), "an untouched table changed");
    }

    #[test]
    fn a_write_puts_each_document_once_and_an_error_puts_nothing() {
        let (control, _clock, _evaluation, deployment) = demo_evaluation();
        let job = control.claim_next_job(deployment.id, None).unwrap().unwrap();
        let records = control.store.log_records();
        control
            .write(|tx| {
                let mut later = job.clone();
                later.progress = 7;
                tx.put(KIND_JOB, job.id, job.to_value());
                tx.put(KIND_JOB, later.id, later.to_value());
                Ok(())
            })
            .unwrap();
        assert_eq!(control.store.log_records(), records + 1);
        assert_eq!(control.get_job(job.id).unwrap().progress, 7, "the later put wins");
        let feed = control.read_replication(0, usize::MAX).unwrap();
        let last = feed[..feed.len() - 1].split(|&b| b == b'\n').next_back().unwrap();
        assert!(last.starts_with(b"{\"op\":\"put\","), "one document, one put frame");
        let failed = control.write(|tx| {
            tx.put(KIND_USER, Id::generate(), obj! {"username" => "ghost"});
            Err::<(), _>(CoreError::Invalid("rejected".into()))
        });
        assert!(failed.is_err());
        assert_eq!(control.store.log_records(), records + 1, "a rejected write logged a record");
        assert!(control.find_user("ghost").is_none());
    }

    /// An evaluation's table as rows keyed by job: the parameters and the
    /// cells at every pointer [`differential_upload`] writes.
    fn rows_by_job(table: &ResultTable) -> std::collections::BTreeMap<u128, String> {
        let pointers = ["/throughput_ops_per_sec", "/total_ops", "/extra/nested"];
        let columns: Vec<_> = pointers
            .iter()
            .map(|p| table.data_column(p).map(|c| c.materialize()).unwrap_or_default())
            .collect();
        (0..table.rows())
            .map(|row| {
                let cells: Vec<_> = columns.iter().map(|c| c.get(row).copied()).collect();
                (table.row_id(row), format!("{:?} {cells:?}", table.params_json(row)))
            })
            .collect()
    }

    /// The result a differential step uploads: its shape varies by job, so
    /// columns appear late and go missing.
    fn differential_upload(x: f64, salt: u64) -> Value {
        match salt % 3 {
            0 => obj! {"throughput_ops_per_sec" => x},
            1 => obj! {"throughput_ops_per_sec" => x, "total_ops" => salt as i64},
            _ => obj! {"total_ops" => 7, "extra" => obj! {"nested" => x}},
        }
    }

    /// Seeded random mutators on a durable leader. After every step the
    /// leader's tables, those of `new` over the reopened log and those of a
    /// follower fed the feed in random cuts (torn tails included) are
    /// equal, row for row by job, to a rebuild from the row store, and
    /// each side's job membership and job-state counters equal a scan of
    /// its own job documents — the follower's after every cut that
    /// installed a frame.
    #[test]
    fn live_reopened_and_follower_tables_equal_a_rebuild() {
        for seed in [1u64, 20_261_017] {
            let path = std::env::temp_dir()
                .join(format!("chronos-control-fold-{seed}-{}.log", std::process::id()));
            let _ = std::fs::remove_file(&path);
            let clock = MockClock::new(1_000_000);
            let config = SchedulerConfig {
                heartbeat_timeout_millis: 10_000,
                max_attempts: 3,
                auto_reschedule: seed % 2 == 1,
            };
            let open = || MetadataStore::open(&path).unwrap();
            let leader = ChronosControl::new(open(), Arc::new(clock.clone()), config.clone());
            let follower = ChronosControl::new(
                MetadataStore::in_memory(),
                Arc::new(clock.clone()),
                config.clone(),
            );
            let system = demo_system(&leader);
            let deployment = leader.create_deployment(system.id, "node", "1").unwrap();
            let owner = leader.create_user("ada", "pw", Role::Member).unwrap();
            let project = leader.create_project("p", "", owner.id).unwrap();
            let assignments = ParamAssignments::new()
                .sweep_all("engine")
                .sweep("threads", (1..=6).map(Value::from).collect());
            let experiment =
                leader.create_experiment(project.id, system.id, "e", "", assignments).unwrap();
            let mut evaluations = vec![leader.create_evaluation(experiment.id).unwrap().id];
            let mut rng = chronos_util::SplitMix64::new(seed);
            let mut jobs: Vec<Id> = Vec::new();
            for step in 0..160 {
                let job =
                    (!jobs.is_empty()).then(|| jobs[rng.next_below(jobs.len() as u64) as usize]);
                match (rng.next_below(12), job) {
                    (0..=2, _) => {
                        let claimed = leader.claim_next_job(deployment.id, None).unwrap();
                        jobs.extend(claimed.map(|j| j.id));
                    }
                    (3, Some(job)) => drop(leader.heartbeat(job, Some(50), None)),
                    (4, Some(job)) => drop(leader.append_log(job, "line")),
                    (5..=6, Some(job)) => {
                        let data = differential_upload(step as f64, rng.next_below(1_000));
                        drop(leader.finish_job(job, data, vec![], None, None));
                    }
                    (7, Some(job)) => drop(leader.fail_job(job, "boom", None)),
                    (8, Some(job)) => drop(leader.abort_job(job)),
                    (9, Some(job)) => drop(leader.reschedule_job(job)),
                    (10, _) => {
                        clock.advance_millis(rng.next_below(12_000));
                        leader.check_timeouts().unwrap();
                    }
                    (11, _) if evaluations.len() < 4 => {
                        evaluations.push(leader.create_evaluation(experiment.id).unwrap().id);
                    }
                    _ => continue,
                }
                while follower.replication_offset() < leader.replication_offset() {
                    let segment =
                        leader.read_replication(follower.replication_offset(), usize::MAX).unwrap();
                    let cut = rng.next_below(segment.len() as u64 + 1) as usize;
                    if follower.install_replication(&segment[..cut]).unwrap() > 0 {
                        let what = format!("seed {seed} step {step}: cut");
                        assert_derived_matches_scan(&follower, &what);
                    }
                }
                let reopened = ChronosControl::new(open(), Arc::new(clock.clone()), config.clone());
                for (source, control) in [("leader", &leader), ("reopened", &reopened)] {
                    assert_derived_matches_scan(
                        control,
                        &format!("seed {seed} step {step}: {source}"),
                    );
                }
                for &evaluation in &evaluations {
                    let mut rebuilt = ResultTable::new();
                    for point in
                        crate::analysis::tests::collect_points(&leader, evaluation).unwrap()
                    {
                        let paths = &crate::analysis::STANDARD_METRIC_PATHS;
                        rebuilt.append(
                            point.job_id.as_u128(),
                            &point.parameters,
                            &point.data,
                            paths,
                        );
                    }
                    let expected = rows_by_job(&rebuilt);
                    for (source, control) in
                        [("leader", &leader), ("reopened", &reopened), ("follower", &follower)]
                    {
                        let table = control.columnar_table(evaluation).unwrap();
                        assert_eq!(
                            rows_by_job(&table),
                            expected,
                            "seed {seed} step {step}: {source}"
                        );
                    }
                }
            }
            assert!(jobs.len() > 10, "seed {seed}: only {} jobs", jobs.len());
            drop(leader);
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn versions_move_with_every_transition_of_their_evaluation_only() {
        // Manual rescheduling, so a failed job rests in `Failed` and can be
        // rescheduled by hand.
        let clock = MockClock::new(1_000_000);
        let config = SchedulerConfig {
            heartbeat_timeout_millis: 10_000,
            max_attempts: 2,
            auto_reschedule: false,
        };
        let control =
            ChronosControl::new(MetadataStore::in_memory(), Arc::new(clock.clone()), config);
        let (evaluation, deployment) = demo_graph(&control);
        let experiment = control.get_experiment(evaluation.experiment_id).unwrap();
        let other = control.create_evaluation(experiment.id).unwrap();
        let versions = |c: &ChronosControl| {
            (c.evaluation_version(evaluation.id), c.state_version(), c.evaluation_version(other.id))
        };
        // Every document, for telling a write that wrote nothing.
        let documents = |c: &ChronosControl| {
            let kinds = [KIND_USER, KIND_SYSTEM, KIND_DEPLOYMENT, KIND_PROJECT, KIND_EXPERIMENT];
            let kinds = kinds.into_iter().chain([KIND_EVALUATION, KIND_JOB, KIND_RESULT]);
            kinds.map(|kind| c.store.list(kind)).collect::<Vec<_>>()
        };
        let mut last = versions(&control);
        let (mut records, mut docs) = (control.store.log_records(), documents(&control));
        // Every write moves the store-wide value and logs exactly one
        // record, `ours` says whether it moves the evaluation's, and `other`
        // is never touched. A rejected write moves nothing, logs nothing and
        // leaves every document as it was.
        let mut moved = |what: &str, store: bool, ours: bool| {
            let now = versions(&control);
            let seen = (now.1 > last.1, now.0 > last.0, now.2);
            assert_eq!(seen, (store, ours, last.2), "{what}: {last:?} -> {now:?}");
            last = now;
            let logged = control.store.log_records() - records;
            assert_eq!(logged, u64::from(store), "{what}: records logged");
            records += logged;
            let now = documents(&control);
            assert!(store || now == docs, "{what}: a write that wrote nothing changed a document");
            docs = now;
        };
        // Entity writes.
        let bob = control.create_user("bob", "pw", Role::Viewer).unwrap();
        moved("create_user", true, false);
        assert!(control.create_user("bob", "pw", Role::Viewer).is_err());
        moved("duplicate user", false, false);
        let system = control.register_system("otherdb", "", vec![], vec![]).unwrap();
        moved("register_system", true, false);
        let idle = control.create_deployment(system.id, "node-b", "1").unwrap();
        moved("create_deployment", true, false);
        control.set_deployment_active(idle.id, false).unwrap();
        moved("set_deployment_active", true, false);
        assert!(control.claim_next_job(idle.id, None).is_err());
        moved("claim by an inactive deployment", false, false);
        let project = control.create_project("p2", "", bob.id).unwrap();
        moved("create_project", true, false);
        control.add_project_member(project.id, bob.id).unwrap();
        moved("add an existing member", false, false);
        control.add_project_member(project.id, control.find_user("ada").unwrap().id).unwrap();
        moved("add_project_member", true, false);
        let frozen = control
            .create_experiment_with_options(
                project.id,
                system.id,
                "frozen",
                "",
                ParamAssignments::new(),
                Strategy::Grid,
                None,
            )
            .unwrap();
        moved("create_experiment_with_options", true, false);
        control.archive_experiment(frozen.id).unwrap();
        moved("archive_experiment", true, false);
        assert!(control.create_evaluation(frozen.id).is_err());
        moved("create_evaluation on an archived experiment", false, false);
        control.archive_project(project.id).unwrap();
        moved("archive_project", true, false);
        control.create_evaluation(experiment.id).unwrap();
        moved("create_evaluation", true, false);
        // The lifecycle of the evaluation's jobs.
        let job = control.claim_next_job(deployment.id, None).unwrap().unwrap();
        moved("claim", true, true);
        control.heartbeat(job.id, Some(10), Some(job.attempts)).unwrap();
        moved("heartbeat", true, true);
        assert!(control.heartbeat(job.id, None, Some(9)).is_err());
        moved("stale-attempt heartbeat", false, false);
        control.append_log(job.id, "line").unwrap();
        moved("log", true, true);
        control.finish_job(job.id, obj! {"ok" => 1}, vec![], None, None).unwrap();
        moved("finish", true, true);
        let job = control.claim_next_job(deployment.id, None).unwrap().unwrap();
        moved("claim", true, true);
        control.fail_job(job.id, "boom", None).unwrap();
        moved("fail", true, true);
        control.reschedule_job(job.id).unwrap();
        moved("reschedule", true, true);
        control.abort_job(job.id).unwrap();
        moved("abort", true, true);
        let job = control.claim_next_job(deployment.id, None).unwrap().unwrap();
        moved("claim", true, true);
        assert!(control.check_timeouts().unwrap().is_empty());
        moved("a sweep that finds nothing", false, false);
        clock.advance_millis(10_001);
        assert_eq!(control.check_timeouts().unwrap(), vec![job.id]);
        moved("timeout", true, true);
        // An install moves, on a follower, what the records it installs
        // touched: here the whole history, so both evaluations.
        let (follower, _follower_clock) = control_with_clock();
        let before = versions(&follower);
        replicate(&control, &follower);
        let after = versions(&follower);
        assert!(after.0 > before.0 && after.1 > before.1 && after.2 > before.2, "install");
    }

    #[test]
    fn user_lifecycle_and_sessions() {
        let (control, _clock) = control_with_clock();
        let user = control.create_user("ada", "pw", Role::Member).unwrap();
        assert!(matches!(
            control.create_user("ada", "other", Role::Viewer),
            Err(CoreError::Conflict(_))
        ));
        assert!(control.login("ada", "wrong").is_err());
        let token = control.login("ada", "pw").unwrap();
        assert_eq!(control.authenticate(&token).unwrap().id, user.id);
        assert!(control.logout(&token));
        assert!(control.authenticate(&token).is_err());
    }

    #[test]
    fn system_registration_and_duplicates() {
        let (control, _clock) = control_with_clock();
        let system = demo_system(&control);
        assert!(control.register_system("minidoc", "", vec![], vec![]).is_err());
        assert_eq!(control.find_system("minidoc").unwrap().id, system.id);
        assert_eq!(control.list_systems().len(), 1);
        assert_eq!(control.get_system(system.id).unwrap().charts.len(), 1);
    }

    #[test]
    fn system_from_definition_document() {
        let (control, _clock) = control_with_clock();
        let definition = obj! {
            "name" => "postgres",
            "description" => "relational db",
            "parameters" => chronos_json::arr![
                obj! {"name" => "fsync", "type" => "boolean", "default" => true}
            ],
            "charts" => chronos_json::arr![],
        };
        let system = control.register_system_from_definition(&definition).unwrap();
        assert_eq!(system.parameters.len(), 1);
        assert_eq!(system.parameters[0].name, "fsync");
    }

    #[test]
    fn evaluation_expansion_is_lazy() {
        let (control, _clock, evaluation, deployment) = demo_evaluation();
        assert!(evaluation.job_ids.is_empty(), "lazy evaluations start with no job documents");
        assert_eq!(evaluation.swept_params, vec!["engine", "threads"]);
        let source = evaluation.source.as_ref().unwrap();
        assert_eq!(source.total_points, 4); // 2 engines x 2 thread counts
        let status = control.evaluation_status(evaluation.id).unwrap();
        assert_eq!(status.remaining, Some(4));
        assert_eq!(status.total(), 4);
        assert_eq!(status.progress_percent(), 0, "nothing ran yet");
        assert!(!status.is_settled());
        // Claiming materializes points one at a time.
        let job = control.claim_next_job(deployment.id, None).unwrap().unwrap();
        assert_eq!(job.point_index, Some(0));
        let status = control.evaluation_status(evaluation.id).unwrap();
        assert_eq!(status.running, 1);
        assert_eq!(status.remaining, Some(3));
        assert_eq!(status.total(), 4);
        assert_eq!(control.list_jobs(evaluation.id).unwrap().len(), 1);
    }

    #[test]
    fn claims_are_exclusive_and_ordered() {
        let (control, _clock, evaluation, deployment) = demo_evaluation();
        let mut claimed = Vec::new();
        while let Some(job) = control.claim_next_job(deployment.id, None).unwrap() {
            assert_eq!(job.state, JobState::Running);
            assert_eq!(job.deployment_id, Some(deployment.id));
            assert_eq!(job.attempts, 1);
            assert_eq!(job.point_index, Some(claimed.len() as u64), "points issue in order");
            claimed.push(job.id);
        }
        assert_eq!(claimed.len(), 4);
        // Materialization order preserved.
        assert_eq!(claimed, control.get_evaluation(evaluation.id).unwrap().job_ids);
        assert!(control.claim_next_job(deployment.id, None).unwrap().is_none());
    }

    #[test]
    fn inactive_deployment_cannot_claim() {
        let (control, _clock, _evaluation, deployment) = demo_evaluation();
        control.set_deployment_active(deployment.id, false).unwrap();
        assert!(matches!(control.claim_next_job(deployment.id, None), Err(CoreError::Conflict(_))));
    }

    #[test]
    fn deployment_only_claims_its_system() {
        let (control, _clock, _evaluation, _deployment) = demo_evaluation();
        let other = control.register_system("otherdb", "", vec![], vec![]).unwrap();
        let other_deployment = control.create_deployment(other.id, "node-b", "1").unwrap();
        assert!(control.claim_next_job(other_deployment.id, None).unwrap().is_none());
    }

    #[test]
    fn full_job_lifecycle_with_result() {
        let (control, _clock, _evaluation, deployment) = demo_evaluation();
        let job = control.claim_next_job(deployment.id, None).unwrap().unwrap();
        control.heartbeat(job.id, Some(50), None).unwrap();
        control.append_log(job.id, "loading 1000 records").unwrap();
        control.append_log(job.id, "running transactions\n").unwrap();
        let result = control
            .finish_job(
                job.id,
                obj! {"throughput_ops_per_sec" => 1234.5},
                b"PK\x05\x06zip".to_vec(),
                None,
                None,
            )
            .unwrap();
        let job = control.get_job(job.id).unwrap();
        assert_eq!(job.state, JobState::Finished);
        assert_eq!(job.progress, 100);
        assert_eq!(job.result_id, Some(result.id));
        assert_eq!(job.log, "loading 1000 records\nrunning transactions\n");
        assert!(job.timeline.iter().any(|e| e.kind == "finished"));
        let fetched = control.result_for_job(job.id).unwrap().unwrap();
        assert_eq!(fetched.archive, b"PK\x05\x06zip");
        assert_eq!(
            fetched.data.get("throughput_ops_per_sec").and_then(Value::as_f64),
            Some(1234.5)
        );
    }

    #[test]
    fn failure_auto_reschedules_until_attempts_exhausted_then_quarantines() {
        let (control, _clock, _evaluation, deployment) = demo_evaluation();
        let job = control.claim_next_job(deployment.id, None).unwrap().unwrap();
        // Attempt 1 fails -> auto rescheduled.
        let failed = control.fail_job(job.id, "agent crashed", None).unwrap();
        assert_eq!(failed.state, JobState::Scheduled);
        assert_eq!(failed.attempts, 1);
        // Claim again (attempt 2) and fail: max_attempts=2 -> quarantined
        // (poison-job containment under automatic rescheduling).
        let again = control.claim_next_job(deployment.id, None).unwrap().unwrap();
        assert_eq!(again.id, job.id, "rescheduled job is claimed first (oldest)");
        let failed = control.fail_job(job.id, "agent crashed again", None).unwrap();
        assert_eq!(failed.state, JobState::Quarantined);
        assert_eq!(failed.failure.as_deref(), Some("agent crashed again"));
        assert!(failed.timeline.iter().any(|e| e.message.contains("quarantined after 2")));
        // Quarantine is terminal: no reschedule, no claim, never resurrects.
        assert!(matches!(control.reschedule_job(job.id), Err(CoreError::Conflict(_))));
        assert!(control.claim_next_job(deployment.id, None).unwrap().map(|j| j.id) != Some(job.id));
        // The roll-up reports it and treats it as settled work.
        let status = control.evaluation_status(failed.evaluation_id).unwrap();
        assert_eq!(status.quarantined, 1);
        assert_status_matches_full_decode(&control, failed.evaluation_id);
    }

    #[test]
    fn manual_scheduling_keeps_failed_jobs_reschedulable() {
        // With auto_reschedule off, exhausting attempts must NOT quarantine:
        // operators drive retries by hand and expect Failed -> Scheduled to
        // keep working exactly as before.
        let clock = MockClock::new(1_000_000);
        let control = ChronosControl::new(
            MetadataStore::in_memory(),
            Arc::new(clock.clone()),
            SchedulerConfig {
                heartbeat_timeout_millis: 10_000,
                max_attempts: 1,
                auto_reschedule: false,
            },
        );
        let system = demo_system(&control);
        let deployment = control.create_deployment(system.id, "node-a", "1.0").unwrap();
        let owner = control.create_user("ada", "pw", Role::Member).unwrap();
        let project = control.create_project("demo", "", owner.id).unwrap();
        let experiment = control
            .create_experiment(
                project.id,
                system.id,
                "engines",
                "",
                ParamAssignments::new().fix("engine", "wiredtiger").fix("threads", 1),
            )
            .unwrap();
        control.create_evaluation(experiment.id).unwrap();
        let job = control.claim_next_job(deployment.id, None).unwrap().unwrap();
        let failed = control.fail_job(job.id, "crashed", None).unwrap();
        assert_eq!(failed.state, JobState::Failed, "manual mode never quarantines");
        let rescheduled = control.reschedule_job(job.id).unwrap();
        assert_eq!(rescheduled.state, JobState::Scheduled);
        assert!(rescheduled.failure.is_none());
    }

    #[test]
    fn heartbeat_timeout_detection() {
        let (control, clock, _evaluation, deployment) = demo_evaluation();
        let job = control.claim_next_job(deployment.id, None).unwrap().unwrap();
        // Within the lease: nothing happens.
        clock.advance_millis(5_000);
        assert!(control.check_timeouts().unwrap().is_empty());
        control.heartbeat(job.id, None, None).unwrap();
        // Lease expires.
        clock.advance_millis(10_001);
        let timed_out = control.check_timeouts().unwrap();
        assert_eq!(timed_out, vec![job.id]);
        let job = control.get_job(job.id).unwrap();
        // Auto-rescheduled after the timeout failure.
        assert_eq!(job.state, JobState::Scheduled);
        assert!(job.timeline.iter().any(|e| e.message.contains("heartbeat timeout")));
    }

    #[test]
    fn abort_semantics() {
        let (control, _clock, _evaluation, deployment) = demo_evaluation();
        // Abort a scheduled job (a failed claim auto-reschedules into one).
        let job = control.claim_next_job(deployment.id, None).unwrap().unwrap();
        control.fail_job(job.id, "agent crashed", None).unwrap();
        assert_eq!(control.get_job(job.id).unwrap().state, JobState::Scheduled);
        control.abort_job(job.id).unwrap();
        assert_eq!(control.get_job(job.id).unwrap().state, JobState::Aborted);
        // Abort a running job.
        let running = control.claim_next_job(deployment.id, None).unwrap().unwrap();
        control.abort_job(running.id).unwrap();
        // Aborting a finished job fails.
        let next = control.claim_next_job(deployment.id, None).unwrap().unwrap();
        control.finish_job(next.id, obj! {}, vec![], None, None).unwrap();
        assert!(matches!(control.abort_job(next.id), Err(CoreError::Conflict(_))));
        // Heartbeat on an aborted job fails.
        assert!(control.heartbeat(running.id, None, None).is_err());
        // The counted roll-up agrees with a full decode and with the scan.
        assert_status_matches_full_decode(&control, next.evaluation_id);
        assert_derived_matches_scan(&control, "abort");
    }

    /// A job document in a state the roll-up cannot read — damaged, or
    /// written by a newer leader — makes its evaluation's roll-up and the
    /// `/stats` sums an error naming it, not a smaller evaluation, on the
    /// side that folds it in: here a follower it is shipped to.
    #[test]
    #[allow(clippy::disallowed_methods)] // plants a document the write path never writes
    fn a_job_state_the_roll_up_cannot_read_is_an_error_not_a_zero() {
        let (control, _clock, evaluation, deployment) = demo_evaluation();
        let job = control.claim_next_job(deployment.id, None).unwrap().unwrap();
        for state in [Value::from("paused"), Value::Null] {
            let mut doc = job.to_value();
            doc.set("state", state);
            control.store.put(KIND_JOB, &job.id.to_base32(), doc).unwrap();
            let (follower, _follower_clock) = control_with_clock();
            replicate(&control, &follower);
            let named = |result: CoreResult<EvaluationStatus>| match result {
                Err(CoreError::NotFound { kind, id }) => {
                    kind == KIND_JOB && id == job.id.to_base32()
                }
                _ => false,
            };
            assert!(named(follower.evaluation_status(evaluation.id)));
            assert!(named(follower.job_totals()));
        }
    }

    /// The store shows a write's documents before its append returns, the
    /// fold only after. Readers racing a writer on a durable leader, and on
    /// a follower installing its segments, list evaluations while their
    /// creating writes are in flight: every evaluation the store shows
    /// reads — status, detail, job order, summary — and is listed, never
    /// `NotFound`.
    #[test]
    fn an_evaluation_read_while_its_write_is_in_flight_waits_for_it() {
        let dir = std::env::temp_dir().join(format!("chronos-in-flight-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let open = |name: &str| {
            let store = MetadataStore::open(&dir.join(name)).unwrap();
            ChronosControl::new(store, Arc::new(SystemClock), SchedulerConfig::default())
        };
        let (leader, follower) = (open("leader.log"), open("follower.log"));
        let system = demo_system(&leader);
        let deployment = leader.create_deployment(system.id, "node", "1").unwrap();
        let owner = leader.create_user("ada", "pw", Role::Member).unwrap();
        let project = leader.create_project("p", "", owner.id).unwrap();
        let assignments = ParamAssignments::new().sweep_all("engine");
        let experiment =
            leader.create_experiment(project.id, system.id, "e", "", assignments).unwrap();
        let done = std::sync::atomic::AtomicBool::new(false);
        let read = |node: &ChronosControl| {
            let mut reads = 0;
            while !done.load(std::sync::atomic::Ordering::Acquire) {
                // Newest first: the one whose write may still be in flight.
                let shown: Vec<Id> = node
                    .store
                    .ids(KIND_EVALUATION)
                    .iter()
                    .rev()
                    .map(|id| Id::parse_base32(id).unwrap())
                    .collect();
                for &id in &shown {
                    node.evaluation_status(id).unwrap();
                    node.evaluation_detail(id).unwrap();
                    node.job_order(id).unwrap();
                    crate::analysis::summary_table(node, id).unwrap();
                    reads += 1;
                }
                let listed: Vec<Id> = node.list_evaluations(None).iter().map(|e| e.id).collect();
                assert!(shown.iter().all(|id| listed.contains(id)), "{shown:?} vs {listed:?}");
            }
            reads
        };
        std::thread::scope(|scope| {
            let readers = [scope.spawn(|| read(&leader)), scope.spawn(|| read(&follower))];
            let shipper = scope.spawn(|| {
                while !done.load(std::sync::atomic::Ordering::Acquire) {
                    replicate(&leader, &follower);
                }
            });
            for _ in 0..150 {
                leader.create_evaluation(experiment.id).unwrap();
                for _ in 0..2 {
                    let job = leader.claim_next_job(deployment.id, None).unwrap().unwrap();
                    let data = obj! {"throughput_ops_per_sec" => 1.0};
                    leader.finish_job(job.id, data, vec![], None, None).unwrap();
                }
            }
            done.store(true, std::sync::atomic::Ordering::Release);
            shipper.join().unwrap();
            for reader in readers {
                assert!(reader.join().unwrap() > 0, "a reader never read");
            }
        });
        replicate(&leader, &follower);
        assert_derived_matches_scan(&follower, "follower");
        assert_eq!(follower.list_evaluations(None).len(), 150);
        drop((leader, follower));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Writes a log in the format that listed every evaluation's jobs in
    /// its document: one lazy evaluation with points left and one eager
    /// one, written before lazy evaluations and so without source fields,
    /// over jobs in several states and the results of the finished ones.
    /// Returns both evaluations as stored and a deployment that can claim.
    #[allow(clippy::disallowed_methods)] // plants documents in the older format
    fn plant_listed_log(path: &std::path::Path) -> (Evaluation, Evaluation, Id) {
        let clock = Arc::new(MockClock::new(1_000_000));
        let config = SchedulerConfig::default();
        let control = ChronosControl::new(MetadataStore::open(path).unwrap(), clock, config);
        let system = demo_system(&control);
        let deployment = control.create_deployment(system.id, "node", "1").unwrap();
        let owner = control.create_user("ada", "pw", Role::Member).unwrap();
        let project = control.create_project("p", "", owner.id).unwrap();
        let threads = (1..=3).map(Value::from).collect();
        let assignments = ParamAssignments::new().sweep_all("engine").sweep("threads", threads);
        let space = PointSpace::build(&assignments, &system.parameters).unwrap();
        let experiment =
            control.create_experiment(project.id, system.id, "e", "", assignments).unwrap();
        let evaluation = |id: u128, jobs: [u128; 3], source| Evaluation {
            id: Id::from_u128(id),
            experiment_id: experiment.id,
            job_ids: jobs.into_iter().map(Id::from_u128).collect(),
            swept_params: vec!["engine".into(), "threads".into()],
            created_at: 1_000_000,
            source,
        };
        let source = jobsource::plan(Strategy::Grid, space.total());
        let lazy = evaluation(100, [1, 3, 5], Some(JobSourceState { materialized: 3, ..source }));
        let eager = evaluation(101, [2, 4, 6], None);
        let states = [
            JobState::Finished,
            JobState::Finished,
            JobState::Failed,
            JobState::Aborted,
            JobState::Running,
            JobState::Finished,
        ];
        for (id, state) in (1..=6u128).zip(states) {
            let (evaluation, point) =
                ([&lazy, &eager][(id % 2 == 0) as usize], (id as u64 - 1) / 2);
            let parameters = space.point_at(point).unwrap();
            let mut job = Job::new(evaluation.id, system.id, parameters, 1_000_000);
            (job.id, job.state) = (Id::from_u128(id), state);
            job.point_index = evaluation.source.as_ref().map(|_| point);
            if state == JobState::Finished {
                let result = JobResult {
                    id: Id::from_u128(1_000 + id),
                    job_id: job.id,
                    data: obj! {"throughput_ops_per_sec" => 10.5 * id as f64, "total_ops" => 7},
                    archive: Vec::new(),
                    created_at: 1_000_000,
                };
                job.result_id = Some(result.id);
                control.store.put(KIND_RESULT, &result.id.to_base32(), result.to_json()).unwrap();
            }
            control.store.put(KIND_JOB, &job.id.to_base32(), job.to_value()).unwrap();
        }
        for evaluation in [&lazy, &eager] {
            let id = evaluation.id.to_base32();
            control.store.put(KIND_EVALUATION, &id, evaluation.to_value()).unwrap();
        }
        control.store.compact().unwrap();
        (lazy, eager, deployment.id)
    }

    /// A log whose evaluation documents list their jobs reads as it did
    /// when they were read from the lists — membership and its order,
    /// status, detail bytes, `/stats` sums and the summary CSV — after a
    /// reopen, after one more claim and after a compaction, which leaves
    /// no evaluation document listing jobs.
    #[test]
    fn a_log_whose_evaluations_list_their_jobs_reads_as_before() {
        let path =
            std::env::temp_dir().join(format!("chronos-control-listed-{}.log", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let (lazy, eager, deployment) = plant_listed_log(&path);
        let open = || {
            let clock = Arc::new(MockClock::new(2_000_000));
            ChronosControl::new(MetadataStore::open(&path).unwrap(), clock, Default::default())
        };
        // The reads from the lists: members as listed, the roll-up a walk
        // of them and the detail body the listing document with it.
        let assert_read_as_listed = |control: &ChronosControl, listed: [&Evaluation; 2]| {
            let mut statuses = Vec::new();
            for evaluation in listed {
                let jobs = evaluation.job_ids.iter().map(|&job| control.get_job(job).unwrap());
                let mut status = tally(jobs.map(|job| job.state));
                status.remaining = evaluation.source.as_ref().map(|s| s.remaining() as usize);
                assert_eq!(control.evaluation_status(evaluation.id).unwrap(), status);
                assert_eq!(control.get_evaluation(evaluation.id).unwrap(), *evaluation);
                let jobs = control.list_jobs(evaluation.id).unwrap();
                assert_eq!(jobs.iter().map(|job| job.id).collect::<Vec<_>>(), evaluation.job_ids);
                let mut detail = evaluation.to_value();
                detail.set("status", status.to_json());
                let served = control.evaluation_detail(evaluation.id).unwrap();
                assert_eq!(served.to_string(), detail.to_string());
                statuses.push(status);
            }
            assert_eq!(control.job_totals().unwrap(), summed(statuses));
            let csv = |id| crate::analysis::summary_csv(control, id).unwrap();
            assert_eq!(csv(lazy.id), LISTED_LAZY_CSV);
            assert_eq!(csv(eager.id), LISTED_EAGER_CSV);
        };
        let listed_jobs = |control: &ChronosControl| {
            let documents = control.store.list(KIND_EVALUATION);
            documents.iter().map(|doc| doc.get("job_ids").unwrap().to_string().len()).sum::<usize>()
        };
        let control = open();
        assert_read_as_listed(&control, [&lazy, &eager]);
        let job = control.claim_next_job(deployment, None).unwrap().unwrap();
        assert_eq!(job.evaluation_id, lazy.id);
        // What the list became: the claimed job at its end, one more point
        // materialized.
        let mut claimed = lazy.clone();
        claimed.job_ids.push(job.id);
        claimed.source.as_mut().unwrap().advance();
        assert_read_as_listed(&control, [&claimed, &eager]);
        let eager_list = eager.to_value().get("job_ids").unwrap().to_string();
        assert_eq!(listed_jobs(&control), "[]".len() + eager_list.len(), "a claim listed jobs");
        control.compact_store().unwrap();
        assert_read_as_listed(&control, [&claimed, &eager]);
        assert_eq!(listed_jobs(&control), 2 * "[]".len(), "a compacted document lists jobs");
        drop(control);
        let reopened = open();
        assert_read_as_listed(&reopened, [&claimed, &eager]);
        assert_derived_matches_scan(&reopened, "compacted");
        drop(reopened);
        std::fs::remove_file(&path).unwrap();
    }

    /// The summary CSVs of [`plant_listed_log`]'s evaluations, as served
    /// while membership was read from the lists.
    const LISTED_LAZY_CSV: &str = "job_id,engine,threads,execution_time_millis,\
        throughput_ops_per_sec,total_ops,total_errors,read_latency_p99_micros,\
        update_latency_p99_micros\n00000000000000000000000001,wiredtiger,1,,10.5,7,,,\n";
    const LISTED_EAGER_CSV: &str = "job_id,engine,threads,execution_time_millis,\
        throughput_ops_per_sec,total_ops,total_errors,read_latency_p99_micros,\
        update_latency_p99_micros\n00000000000000000000000002,wiredtiger,1,,21.0,7,,,\n\
        00000000000000000000000006,wiredtiger,3,,63.0,7,,,\n";

    /// A claim logs what it changes, not what its evaluation holds: over
    /// 1 000 claims of one lazy evaluation, the evaluation document a claim
    /// logs does not grow but for the digits of its `materialized` count,
    /// and neither do the bytes a claim appends.
    #[test]
    fn a_claim_logs_the_same_bytes_however_many_jobs_came_before() {
        let path = std::env::temp_dir()
            .join(format!("chronos-control-claim-bytes-{}.log", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let clock = Arc::new(MockClock::new(1_000_000));
        let store = MetadataStore::open(&path).unwrap();
        let control = ChronosControl::new(store, clock, SchedulerConfig::default());
        let n = ParamType::Interval { min: 1, max: 1_000, step: 1 };
        let n = ParamDef::new("n", "points", n, Value::from(1)).unwrap();
        let system = control.register_system("wide", "", vec![n], vec![]).unwrap();
        let deployment = control.create_deployment(system.id, "node", "1").unwrap();
        let owner = control.create_user("ada", "pw", Role::Member).unwrap();
        let project = control.create_project("p", "", owner.id).unwrap();
        let assignments =
            ParamAssignments::new().sweep("n", (1..=1_000).map(Value::from).collect());
        let experiment =
            control.create_experiment(project.id, system.id, "e", "", assignments).unwrap();
        control.create_evaluation(experiment.id).unwrap();
        let log_bytes = || std::fs::metadata(&path).unwrap().len();
        // The evaluation document in the log's last record: a claim's.
        let evaluation_logged = || {
            let log = std::fs::read_to_string(&path).unwrap();
            let frame = chronos_json::parse(log.lines().next_back().unwrap()).unwrap();
            let puts = frame.get("puts").and_then(Value::as_array).unwrap();
            let kind = |put: &&Value| put.get("kind").and_then(Value::as_str) == Some("evaluation");
            puts.iter().find(kind).and_then(|put| put.get("doc")).unwrap().to_string().len()
        };
        let (mut appended, mut end) = (Vec::new(), log_bytes());
        let mut first = 0;
        for claim in 1..=1_000 {
            control.claim_next_job(deployment.id, None).unwrap().unwrap();
            appended.push(log_bytes() - end);
            end = log_bytes();
            if claim == 1 {
                first = evaluation_logged();
            }
        }
        let last = evaluation_logged();
        assert!(last <= first + "1000".len() - "1".len(), "{first} -> {last} bytes");
        let mean = |claims: &[u64]| claims.iter().sum::<u64>() as f64 / claims.len() as f64;
        let (early, late) = (mean(&appended[..100]), mean(&appended[900..]));
        assert!(late <= early * 1.05, "a claim appends {early} then {late} bytes");
        drop(control);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn project_access_control() {
        let (control, _clock) = control_with_clock();
        let owner = control.create_user("owner", "pw", Role::Member).unwrap();
        let outsider = control.create_user("outsider", "pw", Role::Member).unwrap();
        let admin = control.create_user("root", "pw", Role::Admin).unwrap();
        let project = control.create_project("private", "", owner.id).unwrap();
        assert!(control.require_project_access(project.id, &owner).is_ok());
        assert!(control.require_project_access(project.id, &outsider).is_err());
        assert!(control.require_project_access(project.id, &admin).is_ok());
        control.add_project_member(project.id, outsider.id).unwrap();
        assert!(control.require_project_access(project.id, &outsider).is_ok());
    }

    #[test]
    fn archived_entities_are_frozen() {
        let (control, _clock, _evaluation, _deployment) = demo_evaluation();
        let project = &control.list_projects()[0];
        let experiment = &control.list_experiments(Some(project.id))[0];
        control.archive_experiment(experiment.id).unwrap();
        assert!(matches!(control.create_evaluation(experiment.id), Err(CoreError::Conflict(_))));
        control.archive_project(project.id).unwrap();
        let system = control.find_system("minidoc").unwrap();
        assert!(matches!(
            control.create_experiment(project.id, system.id, "x", "", ParamAssignments::new()),
            Err(CoreError::Conflict(_))
        ));
    }

    #[test]
    fn parallel_claims_never_collide() {
        let (control, _clock, evaluation, deployment) = demo_evaluation();
        let control = Arc::new(control);
        let claimed: Vec<Option<Id>> = chronos_util::pool::scoped_indexed(8, |_| {
            control.claim_next_job(deployment.id, None).unwrap().map(|j| j.id)
        });
        let got: Vec<Id> = claimed.into_iter().flatten().collect();
        let unique: std::collections::HashSet<_> = got.iter().collect();
        assert_eq!(unique.len(), got.len(), "double-claimed a job");
        assert_eq!(got.len(), 4, "every point materialized and claimed exactly once");
        let evaluation = control.get_evaluation(evaluation.id).unwrap();
        assert_eq!(evaluation.job_ids.len(), 4);
        let indices: std::collections::HashSet<_> = evaluation
            .job_ids
            .iter()
            .map(|id| control.get_job(*id).unwrap().point_index.unwrap())
            .collect();
        assert_eq!(indices.len(), 4, "concurrent claims duplicated a point");
    }

    #[test]
    fn claim_with_same_idempotency_key_returns_same_job() {
        let (control, _clock, _evaluation, deployment) = demo_evaluation();
        let first = control.claim_next_job(deployment.id, Some("claim-1")).unwrap().unwrap();
        // Retry after a dropped response: same key, same job, no new claim.
        let again = control.claim_next_job(deployment.id, Some("claim-1")).unwrap().unwrap();
        assert_eq!(again.id, first.id);
        assert_eq!(again.attempts, first.attempts);
        // A different key claims the *next* job.
        let other = control.claim_next_job(deployment.id, Some("claim-2")).unwrap().unwrap();
        assert_ne!(other.id, first.id);
    }

    #[test]
    fn duplicate_result_upload_is_deduplicated() {
        let (control, _clock, _evaluation, deployment) = demo_evaluation();
        let job = control.claim_next_job(deployment.id, None).unwrap().unwrap();
        let first = control
            .finish_job(job.id, obj! {"ok" => 1}, b"zip".to_vec(), Some(job.attempts), Some("up-1"))
            .unwrap();
        // Retry of the same upload (response was lost): stored result returned.
        let again = control
            .finish_job(job.id, obj! {"ok" => 1}, b"zip".to_vec(), Some(job.attempts), Some("up-1"))
            .unwrap();
        assert_eq!(again.id, first.id);
        assert_eq!(control.count_results(), 1, "duplicate upload stored a second result");
        // A *different* upload against the finished job is still rejected.
        assert!(matches!(
            control.finish_job(job.id, obj! {}, vec![], Some(job.attempts), Some("up-2")),
            Err(CoreError::LeaseLost(_))
        ));
    }

    #[test]
    fn stale_attempt_writes_are_fenced() {
        let (control, clock, _evaluation, deployment) = demo_evaluation();
        let job = control.claim_next_job(deployment.id, None).unwrap().unwrap();
        assert_eq!(job.attempts, 1);
        // The lease expires and the sweep reschedules the job.
        clock.advance(std::time::Duration::from_millis(20_000));
        assert_eq!(control.check_timeouts().unwrap(), vec![job.id]);
        // A second agent claims attempt 2 and the zombie's writes bounce.
        let second = control.claim_next_job(deployment.id, None).unwrap().unwrap();
        assert_eq!(second.id, job.id);
        assert_eq!(second.attempts, 2);
        assert!(matches!(
            control.heartbeat(job.id, Some(10), Some(1)),
            Err(CoreError::LeaseLost(_))
        ));
        assert!(matches!(
            control.finish_job(job.id, obj! {}, vec![], Some(1), Some("zombie-up")),
            Err(CoreError::LeaseLost(_))
        ));
        assert!(matches!(
            control.fail_job(job.id, "zombie says broken", Some(1)),
            Err(CoreError::LeaseLost(_))
        ));
        // The live attempt is unaffected and finishes normally.
        control.heartbeat(job.id, Some(50), Some(2)).unwrap();
        control.finish_job(job.id, obj! {"ok" => 1}, vec![], Some(2), Some("live-up")).unwrap();
        assert_eq!(control.get_job(job.id).unwrap().state, JobState::Finished);
        assert_eq!(control.count_results(), 1);
    }

    #[test]
    fn stalled_run_is_rescheduled_and_zombie_fenced_on_upload() {
        // Satellite: lease_expired + may_auto_reschedule integration. A run
        // heartbeats fine, stalls past the timeout, gets rescheduled, and
        // the zombie attempt's upload is fenced.
        let (control, clock) = control_with_clock();
        let system = demo_system(&control);
        let deployment = control.create_deployment(system.id, "node-a", "1.0").unwrap();
        let owner = control.create_user("ada", "pw", Role::Member).unwrap();
        let project = control.create_project("demo", "", owner.id).unwrap();
        let experiment = control
            .create_experiment(
                project.id,
                system.id,
                "lease",
                "",
                ParamAssignments::new().fix("threads", 2),
            )
            .unwrap();
        control.create_evaluation(experiment.id).unwrap();

        let job = control.claim_next_job(deployment.id, None).unwrap().unwrap();
        // Healthy heartbeats keep the lease alive across several sweeps.
        for _ in 0..3 {
            clock.advance(std::time::Duration::from_millis(5_000));
            control.heartbeat(job.id, None, Some(job.attempts)).unwrap();
            assert!(control.check_timeouts().unwrap().is_empty());
        }
        // Then the agent stalls past heartbeat_timeout_millis (10s).
        clock.advance(std::time::Duration::from_millis(10_001));
        assert_eq!(control.check_timeouts().unwrap(), vec![job.id]);
        let rescheduled = control.get_job(job.id).unwrap();
        assert_eq!(rescheduled.state, JobState::Scheduled, "may_auto_reschedule should apply");
        assert_eq!(rescheduled.deployment_id, None);

        // Attempt 2 claims and finishes; the stalled attempt-1 agent wakes
        // up and tries to upload — fenced, zero duplicate results.
        let second = control.claim_next_job(deployment.id, None).unwrap().unwrap();
        assert_eq!(second.attempts, 2);
        control.finish_job(job.id, obj! {"ok" => 2}, vec![], Some(2), Some("live")).unwrap();
        assert!(matches!(
            control.finish_job(job.id, obj! {"ok" => 1}, vec![], Some(1), Some("zombie")),
            Err(CoreError::LeaseLost(_))
        ));
        assert_eq!(control.count_results(), 1);
        // max_attempts = 2: a further failure would not be rescheduled.
        assert!(!control.config.may_auto_reschedule(2));
    }

    #[test]
    fn control_state_survives_restart() {
        let path = std::env::temp_dir()
            .join(format!("chronos-control-restart-{}.log", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let clock: Arc<dyn Clock> = Arc::new(SystemClock);
        let (system_id, evaluation_id, job_id);
        {
            let control = ChronosControl::new(
                MetadataStore::open(&path).unwrap(),
                Arc::clone(&clock),
                SchedulerConfig::default(),
            );
            let system = demo_system(&control);
            system_id = system.id;
            let deployment = control.create_deployment(system.id, "n", "1").unwrap();
            let owner = control.create_user("ada", "pw", Role::Member).unwrap();
            let project = control.create_project("p", "", owner.id).unwrap();
            let experiment = control
                .create_experiment(
                    project.id,
                    system.id,
                    "e",
                    "",
                    ParamAssignments::new().fix("threads", 2),
                )
                .unwrap();
            let evaluation = control.create_evaluation(experiment.id).unwrap();
            evaluation_id = evaluation.id;
            let job = control.claim_next_job(deployment.id, None).unwrap().unwrap();
            job_id = job.id;
            control.append_log(job.id, "halfway there").unwrap();
        }
        {
            let control = ChronosControl::new(
                MetadataStore::open(&path).unwrap(),
                clock,
                SchedulerConfig::default(),
            );
            assert_eq!(control.get_system(system_id).unwrap().name, "minidoc");
            assert_eq!(control.get_evaluation(evaluation_id).unwrap().job_ids.len(), 1);
            let job = control.get_job(job_id).unwrap();
            assert_eq!(job.state, JobState::Running);
            assert!(job.log.contains("halfway there"));
            // The restarted control can fail the abandoned job via timeout.
            let timed_out = control.check_timeouts().unwrap();
            assert!(timed_out.is_empty() || timed_out == vec![job_id]);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn grid_claims_match_eager_expansion_oracle() {
        // The compatibility oracle: lazily materialized grid jobs carry
        // exactly the parameter documents the historic eager expansion
        // produced, in the same order.
        let (control, _clock, evaluation, deployment) = demo_evaluation();
        let experiment = control.get_experiment(evaluation.experiment_id).unwrap();
        let system = control.get_system(experiment.system_id).unwrap();
        let eager = params::expand(&experiment.parameters, &system.parameters).unwrap();
        let mut lazy = Vec::new();
        while let Some(job) = control.claim_next_job(deployment.id, None).unwrap() {
            lazy.push(job.parameters.clone());
        }
        assert_eq!(lazy, eager);
    }

    /// Drives an adaptive evaluation over a 16-point 1-d space whose metric
    /// peaks at x = 11; returns (jobs run, decision log, surviving index).
    fn run_adaptive_surface(control: &ChronosControl, seed: u64) -> (usize, Vec<Value>, u64) {
        let system = control
            .register_system(
                "surface",
                "",
                vec![ParamDef::new(
                    "x",
                    "",
                    ParamType::Interval { min: 0, max: 15, step: 1 },
                    Value::from(0),
                )
                .unwrap()],
                vec![],
            )
            .unwrap();
        let deployment = control.create_deployment(system.id, "node", "1").unwrap();
        let owner = control.create_user("ada", "pw", Role::Member).unwrap();
        let project = control.create_project("p", "", owner.id).unwrap();
        let experiment = control
            .create_experiment_with_options(
                project.id,
                system.id,
                "adaptive",
                "",
                ParamAssignments::new().sweep_all("x"),
                Strategy::Adaptive(AdaptiveConfig {
                    seed,
                    initial: Some(8),
                    eta: 2,
                    ..Default::default()
                }),
                None,
            )
            .unwrap();
        let evaluation = control.create_evaluation(experiment.id).unwrap();
        let mut jobs = 0;
        while let Some(job) = control.claim_next_job(deployment.id, None).unwrap() {
            jobs += 1;
            let x = job.parameters.get("x").and_then(Value::as_i64).unwrap();
            let score = 1000.0 - ((x - 11) * (x - 11)) as f64;
            control
                .finish_job(
                    job.id,
                    obj! {"throughput_ops_per_sec" => score},
                    vec![],
                    Some(job.attempts),
                    None,
                )
                .unwrap();
            assert_derived_matches_scan(control, "adaptive");
        }
        let evaluation = control.get_evaluation(evaluation.id).unwrap();
        let frontier = evaluation.source.unwrap().frontier.unwrap();
        assert_eq!(frontier.candidates.len(), 1, "exactly one survivor");
        let status = control.evaluation_status(evaluation.id).unwrap();
        assert!(status.is_settled());
        assert_eq!(status.remaining, Some(0));
        (jobs, frontier.decisions.clone(), frontier.candidates[0])
    }

    #[test]
    fn adaptive_evaluation_prunes_to_best_candidate() {
        let (control, _clock) = control_with_clock();
        let (jobs, decisions, survivor) = run_adaptive_surface(&control, 7);
        // Rungs of 8, 4, 2, 1 candidates: 15 jobs, never the full 16-grid.
        assert_eq!(jobs, 8 + 4 + 2 + 1);
        assert_eq!(decisions.len(), 3, "one decision per completed rung");
        // The survivor is the best rung-0 candidate under the surface
        // (x = point index here, metric peaks at 11).
        let rung0: Vec<u64> = decisions[0]
            .pointer("/candidates")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .filter_map(Value::as_u64)
            .collect();
        let best = rung0.iter().copied().min_by_key(|&c| (c as i64 - 11).abs()).unwrap();
        assert_eq!(survivor, best);
        // Replaying the same seed yields an identical decision log.
        let (control2, _clock2) = control_with_clock();
        let (jobs2, decisions2, survivor2) = run_adaptive_surface(&control2, 7);
        assert_eq!(jobs2, jobs);
        assert_eq!(decisions2, decisions);
        assert_eq!(survivor2, survivor);
    }

    /// Like [`run_adaptive_surface`], but the experiment carries a cpu
    /// budget and the point `x == poison_x` is a runaway: every attempt is
    /// killed with the typed budget failure, so it quarantines after
    /// `max_attempts` and must be scored as deterministically missing.
    /// Returns (decision log, surviving index, quarantined count).
    fn run_adaptive_surface_with_poison(
        control: &ChronosControl,
        seed: u64,
        poison_x: i64,
    ) -> (Vec<Value>, u64, usize) {
        let system = control
            .register_system(
                "surface",
                "",
                vec![ParamDef::new(
                    "x",
                    "",
                    ParamType::Interval { min: 0, max: 15, step: 1 },
                    Value::from(0),
                )
                .unwrap()],
                vec![],
            )
            .unwrap();
        let deployment = control.create_deployment(system.id, "node", "1").unwrap();
        let owner = control.create_user("ada", "pw", Role::Member).unwrap();
        let project = control.create_project("p", "", owner.id).unwrap();
        let experiment = control
            .create_experiment_with_options(
                project.id,
                system.id,
                "adaptive+budget",
                "",
                ParamAssignments::new().sweep_all("x"),
                Strategy::Adaptive(AdaptiveConfig {
                    seed,
                    initial: Some(8),
                    eta: 2,
                    ..Default::default()
                }),
                Some(chronos_api::v1::JobBudget { cpu_millis: Some(250), ..Default::default() }),
            )
            .unwrap();
        let evaluation = control.create_evaluation(experiment.id).unwrap();
        while let Some(job) = control.claim_next_job(deployment.id, None).unwrap() {
            assert_eq!(
                job.budget.and_then(|b| b.cpu_millis),
                Some(250),
                "the experiment budget rides every materialized job"
            );
            let x = job.parameters.get("x").and_then(Value::as_i64).unwrap();
            if x == poison_x {
                control
                    .fail_job(
                        job.id,
                        "budget_exceeded:cpu_millis: measured 900 > budget 250",
                        Some(job.attempts),
                    )
                    .unwrap();
                continue;
            }
            let score = 1000.0 - ((x - 11) * (x - 11)) as f64;
            control
                .finish_job(
                    job.id,
                    obj! {"throughput_ops_per_sec" => score},
                    vec![],
                    Some(job.attempts),
                    None,
                )
                .unwrap();
        }
        let status = control.evaluation_status(evaluation.id).unwrap();
        assert!(status.is_settled(), "quarantined jobs settle the evaluation");
        let evaluation = control.get_evaluation(evaluation.id).unwrap();
        let frontier = evaluation.source.unwrap().frontier.unwrap();
        assert_eq!(frontier.candidates.len(), 1, "exactly one survivor");
        (frontier.decisions.clone(), frontier.candidates[0], status.quarantined)
    }

    #[test]
    fn quarantined_jobs_score_as_missing_and_replay_identically() {
        // Find the clean winner first, then poison exactly that point: its
        // budget kills quarantine it, the scorer ranks the missing result
        // last, and a different candidate must win.
        let (control, _clock) = control_with_clock();
        let (_, _, clean_survivor) = run_adaptive_surface(&control, 7);

        let (control_a, _clock_a) = control_with_clock();
        let (decisions_a, survivor_a, quarantined_a) =
            run_adaptive_surface_with_poison(&control_a, 7, clean_survivor as i64);
        assert_eq!(quarantined_a, 1, "the poisoned point ends quarantined");
        assert_ne!(survivor_a, clean_survivor, "a quarantined candidate cannot win");

        // Deterministic replay: a fresh control plane given the same seed
        // and the same poison produces an identical decision log — the
        // property PR 8's failover replay identity rests on.
        let (control_b, _clock_b) = control_with_clock();
        let (decisions_b, survivor_b, quarantined_b) =
            run_adaptive_surface_with_poison(&control_b, 7, clean_survivor as i64);
        assert_eq!(decisions_b, decisions_a);
        assert_eq!(survivor_b, survivor_a);
        assert_eq!(quarantined_b, quarantined_a);
    }
}
