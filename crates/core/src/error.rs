//! Error type shared across Chronos Control.

use std::fmt;

/// Result alias for Chronos Control operations.
pub type CoreResult<T> = Result<T, CoreError>;

/// Errors raised by Chronos Control.
#[derive(Debug)]
pub enum CoreError {
    /// An entity referenced by id does not exist.
    NotFound { kind: &'static str, id: String },
    /// A request was structurally or semantically invalid.
    Invalid(String),
    /// The operation conflicts with current state (e.g. aborting a finished
    /// job, duplicate user name).
    Conflict(String),
    /// The caller lacks the required role or project membership.
    Forbidden(String),
    /// An agent's lease on a job is gone: the job was rescheduled (or
    /// finished by a newer attempt) and the write carried a stale attempt
    /// number. The agent must stop working on this job immediately.
    LeaseLost(String),
    /// Persistence failed.
    Storage(String),
    /// Archiving failed.
    Archive(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::NotFound { kind, id } => write!(f, "{kind} {id} not found"),
            CoreError::Invalid(m) => write!(f, "invalid request: {m}"),
            CoreError::Conflict(m) => write!(f, "conflict: {m}"),
            CoreError::Forbidden(m) => write!(f, "forbidden: {m}"),
            CoreError::LeaseLost(m) => write!(f, "lease lost: {m}"),
            CoreError::Storage(m) => write!(f, "storage error: {m}"),
            CoreError::Archive(m) => write!(f, "archive error: {m}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl CoreError {
    /// Shorthand for [`CoreError::NotFound`].
    pub fn not_found(kind: &'static str, id: impl fmt::Display) -> Self {
        CoreError::NotFound { kind, id: id.to_string() }
    }
}

impl From<std::io::Error> for CoreError {
    fn from(e: std::io::Error) -> Self {
        CoreError::Storage(e.to_string())
    }
}

/// A body or document that does not decode is invalid; the decoder's
/// message is kept.
impl From<chronos_api::WireError> for CoreError {
    fn from(e: chronos_api::WireError) -> Self {
        CoreError::Invalid(e.to_string())
    }
}

impl From<chronos_zip::ZipError> for CoreError {
    fn from(e: chronos_zip::ZipError) -> Self {
        CoreError::Archive(e.to_string())
    }
}
