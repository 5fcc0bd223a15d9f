//! Error types for the document store.

use std::fmt;

/// Result alias used across minidoc.
pub type DbResult<T> = Result<T, DbError>;

/// Errors raised by the document store.
#[derive(Debug)]
pub enum DbError {
    /// Insert of a key that already exists.
    DuplicateKey(String),
    /// Update/read of a key that does not exist (updates only; reads return
    /// `Ok(None)`).
    NotFound(String),
    /// The document could not be encoded (e.g. not a JSON object).
    BadDocument(String),
    /// A stored record failed to decode (corruption).
    Corrupt(String),
    /// Underlying file I/O failed.
    Io(std::io::Error),
    /// The collection does not exist.
    NoSuchCollection(String),
    /// The operation does not apply to this database (copying a durable
    /// one, for instance).
    Unsupported(String),
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::DuplicateKey(k) => write!(f, "duplicate key: {k}"),
            DbError::NotFound(k) => write!(f, "key not found: {k}"),
            DbError::BadDocument(m) => write!(f, "bad document: {m}"),
            DbError::Corrupt(m) => write!(f, "corrupt data: {m}"),
            DbError::Io(e) => write!(f, "i/o error: {e}"),
            DbError::NoSuchCollection(c) => write!(f, "no such collection: {c}"),
            DbError::Unsupported(m) => write!(f, "unsupported: {m}"),
        }
    }
}

impl std::error::Error for DbError {}

impl From<std::io::Error> for DbError {
    fn from(e: std::io::Error) -> Self {
        DbError::Io(e)
    }
}

impl DbError {
    /// Helper constructing [`DbError::DuplicateKey`] from raw key bytes.
    pub(crate) fn duplicate(key: &[u8]) -> Self {
        DbError::DuplicateKey(String::from_utf8_lossy(key).into_owned())
    }

    /// The refusal of an in-memory copy of a database backed by files.
    pub(crate) fn durable_copy() -> Self {
        DbError::Unsupported("a durable database cannot be copied in memory".into())
    }

    /// Helper constructing [`DbError::NotFound`] from raw key bytes.
    pub(crate) fn not_found(key: &[u8]) -> Self {
        DbError::NotFound(String::from_utf8_lossy(key).into_owned())
    }

    /// The I/O error a failpoint injects at a site that cannot tear: an
    /// injected error's own message, or "`what` failed" for a torn write.
    pub(crate) fn injected(inj: chronos_util::fail::Injected, what: &str) -> Self {
        let msg = match inj {
            chronos_util::fail::Injected::Error(msg) => msg,
            chronos_util::fail::Injected::Torn { .. } => {
                format!("{what} failed: injected torn write")
            }
        };
        DbError::Io(std::io::Error::other(msg))
    }
}
