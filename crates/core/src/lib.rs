//! # chronos-core — the Chronos Control evaluation toolkit
//!
//! The paper's contribution: a system that automates the *entire* evaluation
//! workflow — defining experiments over a parameter space, scheduling their
//! evaluations as jobs on deployments, monitoring progress and logs,
//! handling failures, archiving everything, and analyzing/visualizing the
//! results.
//!
//! Module map (paper concept → module):
//!
//! * data model (projects, experiments, evaluations, jobs, systems,
//!   deployments, results — §2.1) → [`model`]
//! * experiment parameters & evaluation-space expansion (§2.1/§3) →
//!   [`params`]
//! * incremental job materialization & adaptive parameter-space search →
//!   [`jobsource`]
//! * the MySQL-backed persistence of Chronos Control → [`store`] (embedded,
//!   log-structured, crash-recovering)
//! * scheduling, parallel deployments, abort/reschedule, failure handling
//!   (requirements *(ii)*/*(iii)*) → [`scheduler`] via [`control`]
//! * users, roles and project-level access (§2.2 "session and role-based
//!   user management") → [`auth`]
//! * archiving (requirement *(iv)*) → [`archive`]
//! * result analysis & standard metrics (requirement *(vi)*) → [`analysis`]
//! * bar/line/pie diagrams and the extensible chart registry → [`charts`]
//!
//! [`control::ChronosControl`] ties these together; `chronos-server` exposes
//! it over the versioned REST API.

pub mod analysis;
pub mod archive;
pub mod auth;
pub mod charts;
pub mod cluster;
pub mod control;
pub mod error;
pub mod jobsource;
pub mod lifecycle;
pub mod model;
pub mod params;
pub mod scheduler;
pub mod store;
mod versions;

pub use chronos_analytics::{ChangePoint, ChangePointConfig};
pub use control::ChronosControl;
pub use error::{CoreError, CoreResult};
pub use jobsource::{AdaptiveConfig, JobSourceState, Strategy};
pub use params::PointSpace;
