//! `ChronosControl` — the heart of the toolkit (paper Fig. 1).
//!
//! Owns the metadata store, the session table, the clock and the scheduling
//! policy, and exposes every workflow of the paper as a method:
//! registering systems, configuring deployments, creating projects and
//! experiments, expanding experiments into evaluations and jobs, the agent
//! protocol (claim / heartbeat / log / finish / fail), abort and
//! reschedule, failure detection, archiving and analysis.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use chronos_analytics::{AnalyticsStore, RegressionFlag, ResultTable};
use chronos_json::Value;
use chronos_util::{Clock, Id, SystemClock};

use crate::auth::{Role, SessionManager, User};
use crate::error::{CoreError, CoreResult};
use crate::jobsource::{prune_rung, JobSourceState, Strategy};
use crate::lifecycle::JobEvent;
use crate::model::{Deployment, Evaluation, Experiment, Job, JobResult, JobState, Project, System};
use crate::params::{ParamAssignments, PointSpace};
use crate::scheduler::{EvaluationStatus, SchedulerConfig};
use crate::store::MetadataStore;
use crate::versions::Versions;

const KIND_USER: &str = "user";
const KIND_SYSTEM: &str = "system";
const KIND_DEPLOYMENT: &str = "deployment";
const KIND_PROJECT: &str = "project";
const KIND_EXPERIMENT: &str = "experiment";
const KIND_EVALUATION: &str = "evaluation";
const KIND_JOB: &str = "job";
const KIND_RESULT: &str = "result";

/// The Chronos Control core.
pub struct ChronosControl {
    store: MetadataStore,
    sessions: SessionManager,
    clock: Arc<dyn Clock>,
    config: SchedulerConfig,
    /// Columnar mirror of uploaded results (chart/summary/regression
    /// queries run over this instead of re-decoding JSON rows).
    analytics: AnalyticsStore,
    /// What version of an evaluation a derived read was computed from
    /// (see [`ChronosControl::evaluation_version`]).
    versions: Versions,
    /// Serializes read-modify-write cycles on entities (claims, state
    /// transitions) so concurrent agents never double-claim a job.
    write_lock: parking_lot::Mutex<()>,
}

impl ChronosControl {
    /// An in-memory control instance with the real clock.
    pub fn in_memory() -> Self {
        Self::new(MetadataStore::in_memory(), Arc::new(SystemClock), SchedulerConfig::default())
    }

    /// Full construction.
    pub fn new(store: MetadataStore, clock: Arc<dyn Clock>, config: SchedulerConfig) -> Self {
        ChronosControl {
            store,
            sessions: SessionManager::new(),
            clock,
            config,
            analytics: AnalyticsStore::new(),
            versions: Versions::default(),
            write_lock: parking_lot::Mutex::new(()),
        }
    }

    /// The scheduling policy in force.
    pub fn scheduler_config(&self) -> &SchedulerConfig {
        &self.config
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
    /// store (see [`MetadataStore::install_replication`]). Serialized
    /// against local control-plane writes so installed frames interleave
    /// cleanly with any lingering local mutation.
    ///
    /// The frames bypass the lifecycle code, so nothing here knows which
    /// evaluations they touched: every columnar table drops back to
    /// un-backfilled (its next reader rebuilds it from the replicated
    /// rows) and every evaluation's version advances at once. Writer
    /// ordering rule: rows, then tables, then the epoch — a reader that
    /// sees the new epoch sees both. Done on an error too (the store
    /// applies frames to memory before its flush can fail), but not when
    /// no frame applied: leaders ship empty segments as heartbeats several
    /// times a lease, and those must not cost a follower its tables.
    pub fn install_replication(&self, payload: &[u8]) -> CoreResult<u64> {
        let _guard = self.write_lock.lock();
        let installed = self.store.install_replication(payload);
        if !matches!(installed, Ok(0)) {
            self.analytics.invalidate_all();
            self.versions.advance_epoch();
        }
        installed
    }

    // ----- versions (what a derived read was computed from) -----------------

    /// A monotone per-evaluation counter, advanced by every transition
    /// that can change anything read about the evaluation: each job and
    /// evaluation document put, each analytics ingest, each replication
    /// install (which advances all evaluations at once). Restarts at 0
    /// with the process.
    ///
    /// Reader ordering rule: load this *before* reading any state and tag
    /// what was derived with the pre-read value. Writers bump after their
    /// last mutation is visible, so a body computed across a concurrent
    /// write is at worst tagged too old and recomputed by the next reader,
    /// never served stale.
    pub fn evaluation_version(&self, id: Id) -> u64 {
        self.versions.evaluation(id.as_u128())
    }

    /// A store-wide monotone value that every mutation advances: the
    /// replication feed's end offset (every document put or delete, on
    /// leaders and followers, persistent or in-memory) plus the number of
    /// evaluation-version bumps (analytics ingest moves no document). Same
    /// reader rule as [`ChronosControl::evaluation_version`].
    pub fn state_version(&self) -> u64 {
        self.store.replication_offset() + self.versions.total()
    }

    // ----- users & sessions ------------------------------------------------

    /// Creates a user; usernames are unique.
    pub fn create_user(&self, username: &str, password: &str, role: Role) -> CoreResult<User> {
        if username.is_empty() {
            return Err(CoreError::Invalid("username cannot be empty".into()));
        }
        let _guard = self.write_lock.lock();
        if self.find_user(username).is_some() {
            return Err(CoreError::Conflict(format!("user {username:?} already exists")));
        }
        let user = User::new(username, password, role, self.now());
        self.store.put(KIND_USER, &user.id.to_base32(), user.to_json())?;
        Ok(user)
    }

    /// Looks a user up by name.
    pub fn find_user(&self, username: &str) -> Option<User> {
        self.store
            .list(KIND_USER)
            .iter()
            .filter_map(|v| User::from_json(v).ok())
            .find(|u| u.username == username)
    }

    /// Fetches a user by id.
    pub fn get_user(&self, id: Id) -> CoreResult<User> {
        self.store
            .get(KIND_USER, &id.to_base32())
            .and_then(|v| User::from_json(&v).ok())
            .ok_or_else(|| CoreError::not_found("user", id))
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
        parameters: Vec<crate::params::ParamDef>,
        charts: Vec<crate::charts::ChartSpec>,
    ) -> CoreResult<System> {
        if name.is_empty() {
            return Err(CoreError::Invalid("system name cannot be empty".into()));
        }
        let _guard = self.write_lock.lock();
        if self.find_system(name).is_some() {
            return Err(CoreError::Conflict(format!("system {name:?} already exists")));
        }
        let system = System {
            id: Id::generate(),
            name: name.to_string(),
            description: description.to_string(),
            parameters,
            charts,
            created_at: self.now(),
        };
        self.store.put(KIND_SYSTEM, &system.id.to_base32(), system.to_json())?;
        Ok(system)
    }

    /// Registers a system from a JSON definition document — the
    /// "provide a path to a git or mercurial repository" workflow (§3),
    /// with the repository's definition file supplied directly.
    pub fn register_system_from_definition(&self, definition: &Value) -> CoreResult<System> {
        let name = definition
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| CoreError::Invalid("system definition needs a name".into()))?;
        let description = definition.get("description").and_then(Value::as_str).unwrap_or("");
        let parameters = definition
            .get("parameters")
            .and_then(Value::as_array)
            .map(|items| items.iter().map(crate::params::ParamDef::from_json).collect())
            .transpose()?
            .unwrap_or_default();
        let charts = definition
            .get("charts")
            .and_then(Value::as_array)
            .map(|items| items.iter().map(crate::charts::ChartSpec::from_json).collect())
            .transpose()?
            .unwrap_or_default();
        self.register_system(name, description, parameters, charts)
    }

    /// Looks a system up by name.
    pub fn find_system(&self, name: &str) -> Option<System> {
        self.store
            .list(KIND_SYSTEM)
            .iter()
            .filter_map(|v| System::from_json(v).ok())
            .find(|s| s.name == name)
    }

    /// Fetches a system by id.
    pub fn get_system(&self, id: Id) -> CoreResult<System> {
        self.store
            .get(KIND_SYSTEM, &id.to_base32())
            .and_then(|v| System::from_json(&v).ok())
            .ok_or_else(|| CoreError::not_found("system", id))
    }

    /// All systems.
    pub fn list_systems(&self) -> Vec<System> {
        self.store.list(KIND_SYSTEM).iter().filter_map(|v| System::from_json(v).ok()).collect()
    }

    /// Creates a deployment of a system.
    pub fn create_deployment(
        &self,
        system_id: Id,
        environment: &str,
        version: &str,
    ) -> CoreResult<Deployment> {
        self.get_system(system_id)?;
        let deployment = Deployment {
            id: Id::generate(),
            system_id,
            environment: environment.to_string(),
            version: version.to_string(),
            active: true,
            created_at: self.now(),
        };
        self.store.put(KIND_DEPLOYMENT, &deployment.id.to_base32(), deployment.to_json())?;
        Ok(deployment)
    }

    /// Fetches a deployment.
    pub fn get_deployment(&self, id: Id) -> CoreResult<Deployment> {
        self.store
            .get(KIND_DEPLOYMENT, &id.to_base32())
            .and_then(|v| Deployment::from_json(&v).ok())
            .ok_or_else(|| CoreError::not_found("deployment", id))
    }

    /// Deployments of a system (all systems when `system_id` is `None`).
    pub fn list_deployments(&self, system_id: Option<Id>) -> Vec<Deployment> {
        self.store
            .list(KIND_DEPLOYMENT)
            .iter()
            .filter_map(|v| Deployment::from_json(v).ok())
            .filter(|d| system_id.map(|s| d.system_id == s).unwrap_or(true))
            .collect()
    }

    /// Activates/deactivates a deployment.
    pub fn set_deployment_active(&self, id: Id, active: bool) -> CoreResult<Deployment> {
        let _guard = self.write_lock.lock();
        let mut deployment = self.get_deployment(id)?;
        deployment.active = active;
        self.store.put(KIND_DEPLOYMENT, &id.to_base32(), deployment.to_json())?;
        Ok(deployment)
    }

    // ----- projects ---------------------------------------------------------

    /// Creates a project owned by `owner`.
    pub fn create_project(&self, name: &str, description: &str, owner: Id) -> CoreResult<Project> {
        if name.is_empty() {
            return Err(CoreError::Invalid("project name cannot be empty".into()));
        }
        let project = Project {
            id: Id::generate(),
            name: name.to_string(),
            description: description.to_string(),
            members: vec![owner],
            archived: false,
            created_at: self.now(),
        };
        self.store.put(KIND_PROJECT, &project.id.to_base32(), project.to_json())?;
        Ok(project)
    }

    /// Fetches a project.
    pub fn get_project(&self, id: Id) -> CoreResult<Project> {
        self.store
            .get(KIND_PROJECT, &id.to_base32())
            .and_then(|v| Project::from_json(&v).ok())
            .ok_or_else(|| CoreError::not_found("project", id))
    }

    /// All projects (the API layer filters by membership).
    pub fn list_projects(&self) -> Vec<Project> {
        self.store.list(KIND_PROJECT).iter().filter_map(|v| Project::from_json(v).ok()).collect()
    }

    /// Adds a member to a project.
    pub fn add_project_member(&self, project_id: Id, user_id: Id) -> CoreResult<Project> {
        self.get_user(user_id)?;
        let _guard = self.write_lock.lock();
        let mut project = self.get_project(project_id)?;
        if !project.members.contains(&user_id) {
            project.members.push(user_id);
            self.store.put(KIND_PROJECT, &project_id.to_base32(), project.to_json())?;
        }
        Ok(project)
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
        let _guard = self.write_lock.lock();
        let mut project = self.get_project(project_id)?;
        project.archived = true;
        self.store.put(KIND_PROJECT, &project_id.to_base32(), project.to_json())?;
        Ok(project)
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
        self.create_experiment_with_strategy(
            project_id,
            system_id,
            name,
            description,
            assignments,
            Strategy::Grid,
        )
    }

    /// Creates an experiment with an explicit exploration strategy. The
    /// parameter space is validated without being materialized, so spaces
    /// far beyond the old eager-expansion limit are accepted.
    pub fn create_experiment_with_strategy(
        &self,
        project_id: Id,
        system_id: Id,
        name: &str,
        description: &str,
        assignments: ParamAssignments,
        strategy: Strategy,
    ) -> CoreResult<Experiment> {
        self.create_experiment_with_options(
            project_id,
            system_id,
            name,
            description,
            assignments,
            strategy,
            None,
        )
    }

    /// Full experiment creation: explicit strategy plus an optional per-job
    /// resource budget copied onto every job the evaluations materialize.
    /// An empty budget document normalizes to `None`.
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
        let project = self.get_project(project_id)?;
        if project.archived {
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
            assignments,
            strategy,
            archived: false,
            created_at: self.now(),
            budget: budget.filter(|b| !b.is_empty()),
        };
        self.store.put(KIND_EXPERIMENT, &experiment.id.to_base32(), experiment.to_json())?;
        Ok(experiment)
    }

    /// Fetches an experiment.
    pub fn get_experiment(&self, id: Id) -> CoreResult<Experiment> {
        self.store
            .get(KIND_EXPERIMENT, &id.to_base32())
            .and_then(|v| Experiment::from_json(&v).ok())
            .ok_or_else(|| CoreError::not_found("experiment", id))
    }

    /// Experiments of a project (all when `None`).
    pub fn list_experiments(&self, project_id: Option<Id>) -> Vec<Experiment> {
        self.store
            .list(KIND_EXPERIMENT)
            .iter()
            .filter_map(|v| Experiment::from_json(v).ok())
            .filter(|e| project_id.map(|p| e.project_id == p).unwrap_or(true))
            .collect()
    }

    /// Archives an experiment.
    pub fn archive_experiment(&self, id: Id) -> CoreResult<Experiment> {
        let _guard = self.write_lock.lock();
        let mut experiment = self.get_experiment(id)?;
        experiment.archived = true;
        self.store.put(KIND_EXPERIMENT, &id.to_base32(), experiment.to_json())?;
        Ok(experiment)
    }

    // ----- evaluations & jobs -------------------------------------------------

    /// Runs an experiment: plans a lazy evaluation over its parameter space
    /// (paper §2.1). No jobs are created here — the claim path materializes
    /// points on demand from the evaluation's job source, so a huge space
    /// costs O(in-flight) job documents. This is also the entry point for
    /// build-bot triggers (§2.2).
    pub fn create_evaluation(&self, experiment_id: Id) -> CoreResult<Evaluation> {
        let experiment = self.get_experiment(experiment_id)?;
        if experiment.archived {
            return Err(CoreError::Conflict("experiment is archived".into()));
        }
        let system = self.get_system(experiment.system_id)?;
        let space = PointSpace::build(&experiment.assignments, &system.parameters)?;
        let now = self.now();
        let evaluation = Evaluation {
            id: Id::generate(),
            experiment_id,
            job_ids: Vec::new(),
            swept_params: experiment.assignments.swept_names(&system.parameters),
            created_at: now,
            source: Some(JobSourceState::plan(experiment.strategy.clone(), space.total())),
        };
        let _guard = self.write_lock.lock();
        self.save_evaluation(&evaluation)?;
        // Born with the analytics store attached: every result is ingested
        // at upload, so columnar reads never need a backfill pass.
        self.analytics.mark_fresh(evaluation.id.as_u128());
        Ok(evaluation)
    }

    /// Fetches an evaluation.
    pub fn get_evaluation(&self, id: Id) -> CoreResult<Evaluation> {
        self.store
            .get(KIND_EVALUATION, &id.to_base32())
            .and_then(|v| Evaluation::from_json(&v).ok())
            .ok_or_else(|| CoreError::not_found("evaluation", id))
    }

    /// Evaluations of an experiment (all when `None`).
    pub fn list_evaluations(&self, experiment_id: Option<Id>) -> Vec<Evaluation> {
        self.store
            .list(KIND_EVALUATION)
            .iter()
            .filter_map(|v| Evaluation::from_json(v).ok())
            .filter(|e| experiment_id.map(|x| e.experiment_id == x).unwrap_or(true))
            .collect()
    }

    /// The state roll-up of an evaluation (paper Fig. 3b). Lazy evaluations
    /// also report their unmaterialized remainder, so a fresh evaluation
    /// with zero job documents reads as 0 % complete, not 100 %.
    ///
    /// Reads only the `state` field of each stored job document — a status
    /// poll never decodes logs, timelines or parameters.
    pub fn evaluation_status(&self, id: Id) -> CoreResult<EvaluationStatus> {
        let evaluation = self.get_evaluation(id)?;
        let mut status = EvaluationStatus::default();
        for job_id in &evaluation.job_ids {
            let state = self
                .store
                .get(KIND_JOB, &job_id.to_base32())
                .as_deref()
                .and_then(stored_job_state)
                .ok_or_else(|| CoreError::not_found("job", job_id))?;
            match state {
                JobState::Scheduled => status.scheduled += 1,
                JobState::Running => status.running += 1,
                JobState::Finished => status.finished += 1,
                JobState::Aborted => status.aborted += 1,
                JobState::Failed => status.failed += 1,
                JobState::Quarantined => status.quarantined += 1,
            }
        }
        status.remaining = evaluation.source.as_ref().map(|s| s.remaining() as usize);
        Ok(status)
    }

    /// Fetches a job.
    pub fn get_job(&self, id: Id) -> CoreResult<Job> {
        self.store
            .get(KIND_JOB, &id.to_base32())
            .and_then(|v| Job::from_json(&v).ok())
            .ok_or_else(|| CoreError::not_found("job", id))
    }

    /// Jobs of an evaluation, in creation order.
    pub fn list_jobs(&self, evaluation_id: Id) -> CoreResult<Vec<Job>> {
        let evaluation = self.get_evaluation(evaluation_id)?;
        evaluation.job_ids.iter().map(|id| self.get_job(*id)).collect()
    }

    /// The one place a job document is put. Bumps the evaluation's version
    /// after the put — on an error too: the store inserts into memory
    /// before its flush can fail.
    fn save_job(&self, job: &Job) -> CoreResult<()> {
        let put = self.store.put(KIND_JOB, &job.id.to_base32(), job.to_json());
        self.versions.bump(job.evaluation_id.as_u128());
        put
    }

    /// The one place an evaluation document is put; bumps like
    /// [`ChronosControl::save_job`].
    fn save_evaluation(&self, evaluation: &Evaluation) -> CoreResult<()> {
        let put = self.store.put(KIND_EVALUATION, &evaluation.id.to_base32(), evaluation.to_json());
        self.versions.bump(evaluation.id.as_u128());
        put
    }

    /// Marks `job` claimed by `deployment` and persists it. Caller holds
    /// the write lock.
    fn claim_job_locked(
        &self,
        mut job: Job,
        deployment: &Deployment,
        idempotency_key: Option<&str>,
    ) -> CoreResult<Job> {
        let now = self.now();
        job.apply(
            JobEvent::Claim,
            now,
            &format!("claimed by deployment {} ({})", deployment.id, deployment.environment),
        )?;
        job.deployment_id = Some(deployment.id);
        job.heartbeat_at = Some(now);
        job.attempts += 1;
        job.claim_key = idempotency_key.map(str::to_string);
        self.save_job(&job)?;
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
        let deployment = self.get_deployment(deployment_id)?;
        if !deployment.active {
            return Err(CoreError::Conflict("deployment is inactive".into()));
        }
        let _guard = self.write_lock.lock();
        if let Some(key) = idempotency_key {
            // Job ids are time-ordered, so store order = creation order.
            for id in self.store.ids(KIND_JOB) {
                let Some(doc) = self.store.get(KIND_JOB, &id) else { continue };
                let Ok(job) = Job::from_json(&doc) else { continue };
                if job.state == JobState::Running
                    && job.deployment_id == Some(deployment_id)
                    && job.claim_key.as_deref() == Some(key)
                {
                    return Ok(Some(job)); // duplicate of an acknowledged claim
                }
            }
        }
        // Pass 1: a job document already waiting (a rescheduled job, or a
        // materialized point another agent abandoned). Lazily-materialized
        // jobs not listed in their evaluation's job_ids are *orphans* — the
        // crash window between "put job" and "put evaluation" — and must
        // not be claimed directly: materialization below adopts them for
        // the deterministic next index instead of duplicating the point.
        let mut registered: HashMap<Id, HashSet<Id>> = HashMap::new();
        let mut orphans: HashMap<(Id, u64), Job> = HashMap::new();
        let mut claimable = None;
        for id in self.store.ids(KIND_JOB) {
            let Some(doc) = self.store.get(KIND_JOB, &id) else { continue };
            let Ok(job) = Job::from_json(&doc) else { continue };
            if job.state != JobState::Scheduled || job.system_id != deployment.system_id {
                continue;
            }
            if let Some(index) = job.point_index {
                let members = registered.entry(job.evaluation_id).or_insert_with(|| {
                    self.get_evaluation(job.evaluation_id)
                        .map(|e| e.job_ids.into_iter().collect())
                        .unwrap_or_default()
                });
                if !members.contains(&job.id) {
                    orphans.insert((job.evaluation_id, index), job);
                    continue;
                }
            }
            claimable = Some(job);
            break;
        }
        if let Some(job) = claimable {
            return Ok(Some(self.claim_job_locked(job, &deployment, idempotency_key)?));
        }
        // Pass 2: materialize the next point from the oldest evaluation
        // with remaining work for this system.
        self.materialize_next(&deployment, idempotency_key, &mut orphans)
    }

    /// Walks evaluations in creation order and materializes the next point
    /// of the first one with available work for `deployment`'s system,
    /// returning it claimed. Settles adaptive rungs (scoring + pruning)
    /// along the way. Caller holds the write lock.
    fn materialize_next(
        &self,
        deployment: &Deployment,
        idempotency_key: Option<&str>,
        orphans: &mut HashMap<(Id, u64), Job>,
    ) -> CoreResult<Option<Job>> {
        for key in self.store.ids(KIND_EVALUATION) {
            let Some(doc) = self.store.get(KIND_EVALUATION, &key) else { continue };
            let Ok(mut evaluation) = Evaluation::from_json(&doc) else { continue };
            let Some(mut source) = evaluation.source.clone() else { continue };
            if source.remaining() == 0 {
                continue;
            }
            let Ok(experiment) = self.get_experiment(evaluation.experiment_id) else { continue };
            if experiment.system_id != deployment.system_id {
                continue;
            }
            let Ok(system) = self.get_system(experiment.system_id) else { continue };
            let Ok(space) = PointSpace::build(&experiment.assignments, &system.parameters) else {
                continue;
            };
            // Adaptive: a fully-issued rung blocks until every rung job
            // settles, then candidates are scored and pruned.
            if source.peek().is_none() && !self.try_advance_rung(&mut source, &evaluation)? {
                continue;
            }
            let Some(index) = source.peek() else { continue };
            let Some(parameters) = space.point_at(index) else { continue };
            let now = self.now();
            // Job first, evaluation second: a crash in between leaves an
            // orphan job that the next claim adopts right here.
            let job = match orphans.remove(&(evaluation.id, index)) {
                Some(orphan) => orphan,
                None => {
                    let mut job = Job::new(evaluation.id, experiment.system_id, parameters, now);
                    job.point_index = Some(index);
                    job.budget = experiment.budget;
                    self.save_job(&job)?;
                    job
                }
            };
            source.advance();
            if let Some(frontier) = &mut source.frontier {
                frontier.job_ids.push(job.id);
            }
            evaluation.job_ids.push(job.id);
            evaluation.source = Some(source);
            self.save_evaluation(&evaluation)?;
            return Ok(Some(self.claim_job_locked(job, deployment, idempotency_key)?));
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
        let table = self.columnar_table(evaluation.id)?;
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
        let _guard = self.write_lock.lock();
        let mut job = self.get_job(job_id)?;
        Self::check_fence(&job, attempt, "heartbeat")?;
        job.heartbeat_at = Some(self.now());
        if let Some(p) = progress {
            job.progress = p.min(100);
        }
        self.save_job(&job)?;
        Ok(job)
    }

    /// Agent protocol: appends log output (paper §2.2: "the agent
    /// periodically sends the output of the logger to Chronos Control").
    pub fn append_log(&self, job_id: Id, text: &str) -> CoreResult<()> {
        let _guard = self.write_lock.lock();
        let mut job = self.get_job(job_id)?;
        job.log.push_str(text);
        if !text.ends_with('\n') {
            job.log.push('\n');
        }
        self.save_job(&job)
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
        let _guard = self.write_lock.lock();
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
        let now = self.now();
        job.apply(JobEvent::Finish, now, "result uploaded")?;
        job.progress = 100;
        let result = JobResult { id: Id::generate(), job_id, data, archive, created_at: now };
        let mut stored = result.to_json();
        stored.set("archive_b64", chronos_util::encode::base64_encode(&result.archive));
        self.store.put(KIND_RESULT, &result.id.to_base32(), stored)?;
        job.result_id = Some(result.id);
        job.result_key = idempotency_key.map(str::to_string);
        self.save_job(&job)?;
        self.analytics.ingest(
            job.evaluation_id.as_u128(),
            job_id.as_u128(),
            &job.parameters,
            &result.data,
            &crate::analysis::STANDARD_METRIC_PATHS,
        );
        // Writer ordering rule: the transition's last bump follows its
        // last mutation. `save_job` bumped before the row above existed;
        // without this one a reader could tag a summary that lacks the row
        // with the evaluation's final version and serve it forever.
        self.versions.bump(job.evaluation_id.as_u128());
        Ok(result)
    }

    /// Agent protocol: reports a failure. Auto-reschedules when policy
    /// allows (requirement *(iii)*). `attempt` fences out zombie attempts,
    /// so a timed-out agent cannot fail (and re-reschedule) a job a newer
    /// attempt is running.
    pub fn fail_job(&self, job_id: Id, reason: &str, attempt: Option<u32>) -> CoreResult<Job> {
        let _guard = self.write_lock.lock();
        if attempt.is_some() {
            let job = self.get_job(job_id)?;
            Self::check_fence(&job, attempt, "failure report")?;
        }
        self.fail_job_locked(job_id, reason)
    }

    fn fail_job_locked(&self, job_id: Id, reason: &str) -> CoreResult<Job> {
        let mut job = self.get_job(job_id)?;
        let now = self.now();
        job.apply(JobEvent::Fail, now, reason)?;
        job.failure = Some(reason.to_string());
        job.heartbeat_at = None;
        if self.config.may_auto_reschedule(job.attempts) {
            job.apply(
                JobEvent::Reschedule,
                now,
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
                now,
                &format!(
                    "quarantined after {} failed attempts (max_attempts {})",
                    job.attempts, self.config.max_attempts
                ),
            )?;
        }
        self.save_job(&job)?;
        Ok(job)
    }

    /// Aborts a scheduled or running job (paper Fig. 3c).
    pub fn abort_job(&self, job_id: Id) -> CoreResult<Job> {
        let _guard = self.write_lock.lock();
        let mut job = self.get_job(job_id)?;
        job.apply(JobEvent::Abort, self.now(), "aborted by user")?;
        self.save_job(&job)?;
        Ok(job)
    }

    /// Manually re-schedules a failed job (paper Fig. 3c).
    pub fn reschedule_job(&self, job_id: Id) -> CoreResult<Job> {
        let _guard = self.write_lock.lock();
        let mut job = self.get_job(job_id)?;
        job.apply(JobEvent::Reschedule, self.now(), "re-scheduled by user")?;
        job.deployment_id = None;
        job.progress = 0;
        job.failure = None;
        job.claim_key = None;
        self.save_job(&job)?;
        Ok(job)
    }

    /// Failure detection sweep: fails every running job whose heartbeat
    /// lease expired. Returns the affected job ids. Call periodically.
    pub fn check_timeouts(&self) -> CoreResult<Vec<Id>> {
        let now = self.now();
        let mut timed_out = Vec::new();
        let candidates: Vec<Id> = {
            let _guard = self.write_lock.lock();
            // Only running jobs hold a lease: peek at the stored state and
            // fully decode just those.
            self.store
                .list(KIND_JOB)
                .iter()
                .filter(|doc| stored_job_state(doc) == Some(JobState::Running))
                .filter_map(|doc| Job::from_json(doc).ok())
                .filter(|job| self.config.lease_expired(job.heartbeat_at, now))
                .map(|job| job.id)
                .collect()
        };
        for job_id in candidates {
            let _guard = self.write_lock.lock();
            // Re-check under the lock (the agent may have heartbeat since).
            let job = self.get_job(job_id)?;
            if job.state == JobState::Running && self.config.lease_expired(job.heartbeat_at, now) {
                self.fail_job_locked(
                    job_id,
                    &format!("heartbeat timeout after {} ms", self.config.heartbeat_timeout_millis),
                )?;
                timed_out.push(job_id);
            }
        }
        Ok(timed_out)
    }

    /// Fetches a result by id, decoding the stored archive.
    pub fn get_result(&self, id: Id) -> CoreResult<JobResult> {
        let doc = self
            .store
            .get(KIND_RESULT, &id.to_base32())
            .ok_or_else(|| CoreError::not_found("result", id))?;
        let archive = doc
            .get("archive_b64")
            .and_then(Value::as_str)
            .and_then(chronos_util::encode::base64_decode)
            .unwrap_or_default();
        Ok(JobResult {
            id,
            job_id: crate::model::parse_id(&doc, "job_id")?,
            data: doc.get("data").cloned().unwrap_or(Value::Null),
            archive,
            created_at: doc.get("created_at").and_then(Value::as_u64).unwrap_or(0),
        })
    }

    /// Total number of stored results. The chaos suite uses this to prove
    /// exactly-once semantics: one result per finished job, zero duplicates.
    pub fn count_results(&self) -> usize {
        self.store.ids(KIND_RESULT).len()
    }

    /// The result of a job, if it has one.
    pub fn result_for_job(&self, job_id: Id) -> CoreResult<Option<JobResult>> {
        match self.get_job(job_id)?.result_id {
            Some(result_id) => Ok(Some(self.get_result(result_id)?)),
            None => Ok(None),
        }
    }

    /// Compacts the metadata log (jobs accumulate log/timeline rewrites).
    pub fn compact_store(&self) -> CoreResult<()> {
        self.store.compact()
    }

    // ----- columnar analytics ------------------------------------------------

    /// The columnar result table of an evaluation, shared with the
    /// analytics store: a snapshot that later uploads do not show through.
    ///
    /// Tables are maintained incrementally by [`ChronosControl::finish_job`].
    /// Evaluations that predate the analytics store (a reopened metadata
    /// log) are lazily backfilled from the row store on first read; a
    /// backfill that races a concurrent upload serves its own consistent
    /// snapshot and leaves the rebuild to the next reader.
    pub fn columnar_table(&self, evaluation_id: Id) -> CoreResult<Arc<ResultTable>> {
        let key = evaluation_id.as_u128();
        let loaded = self.analytics.load(key);
        if loaded.backfilled {
            return Ok(loaded.table);
        }
        let points = crate::analysis::collect_points(self, evaluation_id)?;
        let mut table = ResultTable::new();
        for point in &points {
            table.append(
                point.job_id.as_u128(),
                &point.parameters,
                &point.data,
                &crate::analysis::STANDARD_METRIC_PATHS,
            );
        }
        let table = Arc::new(table);
        self.analytics.install(key, &table, loaded.generation);
        Ok(table)
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
    doc.get("state").and_then(Value::as_str).and_then(JobState::parse)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::charts::ChartSpec;
    use crate::jobsource::AdaptiveConfig;
    use crate::params::{ParamDef, ParamType};
    use chronos_json::obj;
    use chronos_util::MockClock;

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
                ParamAssignments::new()
                    .sweep_all("engine")
                    .sweep("threads", vec![Value::from(1), Value::from(2)]),
            )
            .unwrap();
        let evaluation = control.create_evaluation(experiment.id).unwrap();
        (control, clock, evaluation, deployment)
    }

    /// The state peek of `evaluation_status` against the count a full
    /// decode of every job gives.
    fn assert_status_matches_full_decode(control: &ChronosControl, evaluation_id: Id) {
        let mut decoded = EvaluationStatus::default();
        for job in control.list_jobs(evaluation_id).unwrap() {
            match job.state {
                JobState::Scheduled => decoded.scheduled += 1,
                JobState::Running => decoded.running += 1,
                JobState::Finished => decoded.finished += 1,
                JobState::Aborted => decoded.aborted += 1,
                JobState::Failed => decoded.failed += 1,
                JobState::Quarantined => decoded.quarantined += 1,
            }
        }
        decoded.remaining =
            control.get_evaluation(evaluation_id).unwrap().source.map(|s| s.remaining() as usize);
        assert_eq!(control.evaluation_status(evaluation_id).unwrap(), decoded);
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
            crate::analysis::summary_table(control, evaluation.id).unwrap().to_string()
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
            // The first read backfills and marks the follower's table
            // complete; the next install must take that back.
            assert_eq!(follower.columnar_table(evaluation.id).unwrap().rows(), finished);
            assert_eq!(leader.columnar_table(evaluation.id).unwrap().rows(), finished);
            assert_eq!(summary(&follower), summary(&leader));
            // A heartbeat (an empty segment) installs nothing and must not
            // cost the follower its rebuilt table or move a version.
            let version = follower.evaluation_version(evaluation.id);
            replicate(&leader, &follower);
            assert_eq!(follower.evaluation_version(evaluation.id), version);
            assert!(follower.analytics.load(evaluation.id.as_u128()).backfilled);
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
    fn versions_move_with_every_transition_of_their_evaluation_only() {
        let (control, clock, evaluation, deployment) = demo_evaluation();
        let experiment = control.get_experiment(evaluation.experiment_id).unwrap();
        let other = control.create_evaluation(experiment.id).unwrap();
        let mut last = (control.evaluation_version(evaluation.id), control.state_version());
        let mut moved = |what: &str| {
            let now = (control.evaluation_version(evaluation.id), control.state_version());
            assert!(now.0 > last.0 && now.1 > last.1, "{what}: {last:?} -> {now:?}");
            last = now;
        };
        let untouched = control.evaluation_version(other.id);
        let job = control.claim_next_job(deployment.id, None).unwrap().unwrap();
        moved("claim");
        control.heartbeat(job.id, Some(10), None).unwrap();
        moved("heartbeat");
        control.append_log(job.id, "line").unwrap();
        moved("log");
        control.finish_job(job.id, obj! {"ok" => 1}, vec![], None, None).unwrap();
        moved("finish");
        let job = control.claim_next_job(deployment.id, None).unwrap().unwrap();
        moved("claim");
        control.fail_job(job.id, "boom", None).unwrap();
        moved("fail");
        control.abort_job(job.id).unwrap();
        moved("abort");
        let job = control.claim_next_job(deployment.id, None).unwrap().unwrap();
        clock.advance_millis(10_001);
        assert_eq!(control.check_timeouts().unwrap(), vec![job.id]);
        moved("timeout");
        assert_eq!(control.evaluation_version(other.id), untouched);
        // A rejected transition changes nothing and moves nothing.
        assert!(control.heartbeat(job.id, None, Some(9)).is_err());
        assert_eq!(last, (control.evaluation_version(evaluation.id), control.state_version()));
        // Mutations outside any evaluation still move the store-wide value.
        control.create_user("bob", "pw", Role::Viewer).unwrap();
        assert!(control.state_version() > last.1);
        assert_eq!(control.evaluation_version(evaluation.id), last.0);
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
        // The roll-up peeks at each stored state; it agrees with a full
        // decode, and a state it cannot read is an error, not a zero.
        assert_status_matches_full_decode(&control, next.evaluation_id);
        for state in [Value::from("paused"), Value::Null] {
            let mut doc = next.to_json();
            doc.set("state", state);
            control.store.put(KIND_JOB, &next.id.to_base32(), doc).unwrap();
            assert!(matches!(
                control.evaluation_status(next.evaluation_id),
                Err(CoreError::NotFound { .. })
            ));
        }
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
        assert!(!control.scheduler_config().may_auto_reschedule(2));
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
            // The restarted control can fail the orphaned job via timeout.
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
        let eager = experiment.assignments.expand(&system.parameters).unwrap();
        let mut lazy = Vec::new();
        while let Some(job) = control.claim_next_job(deployment.id, None).unwrap() {
            lazy.push(job.parameters.clone());
        }
        assert_eq!(lazy, eager);
    }

    #[test]
    fn orphaned_materialization_is_adopted_not_duplicated() {
        let (control, _clock, evaluation, deployment) = demo_evaluation();
        // Simulate the crash window: the job document for point 0 landed
        // but the evaluation update never did.
        let experiment = control.get_experiment(evaluation.experiment_id).unwrap();
        let system = control.get_system(experiment.system_id).unwrap();
        let space = PointSpace::build(&experiment.assignments, &system.parameters).unwrap();
        let mut orphan =
            Job::new(evaluation.id, system.id, space.point_at(0).unwrap(), control.now());
        orphan.point_index = Some(0);
        control.store.put(KIND_JOB, &orphan.id.to_base32(), orphan.to_json()).unwrap();

        let job = control.claim_next_job(deployment.id, None).unwrap().unwrap();
        assert_eq!(job.id, orphan.id, "the orphan is adopted for point 0");
        assert_eq!(job.point_index, Some(0));
        assert_eq!(control.get_evaluation(evaluation.id).unwrap().job_ids, vec![orphan.id]);
        // Drain the rest: exactly one job per point, no duplicates.
        let mut total = 1;
        while control.claim_next_job(deployment.id, None).unwrap().is_some() {
            total += 1;
        }
        assert_eq!(total, 4);
        assert_eq!(control.get_evaluation(evaluation.id).unwrap().job_ids.len(), 4);
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
            .create_experiment_with_strategy(
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
