//! chronos-api: the typed wire contract for the Chronos REST API.
//!
//! This crate is the single source of truth for everything that crosses
//! the wire between the control server, agents, and integrators:
//!
//! - **DTOs** for every v1 endpoint ([`v1`]) and the frozen v0 status
//!   surface ([`v0`]), with canonical key order baked into the encoders.
//! - A **codec** ([`WireEncode`]/[`WireDecode`]) over `chronos-json`,
//!   using the allocation-free `write_into` path for encoding.
//! - The **error envelope** ([`ErrorEnvelope`]) with numeric and named
//!   codes (`lease_lost`), replacing ad-hoc `error/code` pointer-chasing.
//! - **Version negotiation** ([`ApiVersion`]) for the mounted API
//!   generations.
//! - The wire vocabulary for **job lifecycle states** ([`JobState`]);
//!   transition legality lives in `chronos-core::lifecycle`.
//! - The **data-model vocabulary** a system and an experiment are made
//!   of: parameter types, definitions and assignments, chart specs and
//!   exploration strategies ([`v1::ParamDef`], [`v1::ParamAssignments`],
//!   [`v1::ChartSpec`], [`v1::Strategy`]), typed fields of the DTOs and
//!   validated while they decode.
//!
//! Server handlers and client code never touch raw `Value` field access
//! for contract documents — the accessors in [`codec`] are the only
//! sanctioned site.

pub mod codec;
mod envelope;
mod error;
pub mod extract;
mod state;
pub mod v0;
pub mod v1;
mod version;

pub use codec::{WireDecode, WireEncode};
pub use envelope::{
    ErrorCode, ErrorEnvelope, CODE_DEADLINE_EXCEEDED, CODE_DRAINING, CODE_LEASE_LOST,
    CODE_NOT_LEADER, CODE_OVERLOADED,
};
pub use error::WireError;
pub use state::JobState;
pub use version::{ApiIndex, ApiVersion, SERVICE_NAME};

/// Header carrying the session token on every authenticated request.
pub const TOKEN_HEADER: &str = "X-Chronos-Token";

/// Request header carrying the caller's processing budget in milliseconds
/// (re-exported from `chronos-http`, which parses it into
/// `Request::deadline`).
pub use chronos_http::DEADLINE_HEADER;

/// Response header mirroring `Retry-After` with millisecond precision.
pub use chronos_http::RETRY_AFTER_MS_HEADER;
