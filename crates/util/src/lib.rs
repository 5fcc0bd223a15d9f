//! Shared utilities for the Chronos evaluation toolkit.
//!
//! This crate collects the small, dependency-free building blocks every other
//! Chronos crate needs:
//!
//! * [`id`] — sortable, globally unique identifiers (ULID-like) for entities
//!   such as projects, experiments, evaluations and jobs.
//! * [`clock`] — a [`Clock`](clock::Clock) abstraction with a real
//!   implementation and a manually driven [`MockClock`](clock::MockClock) so
//!   schedulers and lease expiry can be tested deterministically.
//! * [`encode`] — CRC-32, hexadecimal and Base64 codecs used by the ZIP
//!   substrate and by HTTP basic authentication.
//! * [`pool`] — a fixed-size worker thread pool used by the HTTP server and
//!   by parallel agents.
//! * [`retry`] — bounded exponential backoff used by agents talking to
//!   Chronos Control.
//! * [`circuit`] — per-endpoint circuit breakers so a struggling control
//!   plane is not hammered by its own agent fleet.
//! * [`splitmix`] — the one seeded pseudo-random generator behind every
//!   replayable decision and fixture in the workspace.
//! * [`fail`] — deterministic fault injection: named failpoint sites armed
//!   from tests or `CHRONOS_FAILPOINTS`, compiled out unless the
//!   `failpoints` feature is enabled.

pub mod circuit;
pub mod clock;
pub mod encode;
pub mod fail;
pub mod id;
pub mod pool;
pub mod retry;
pub mod splitmix;

pub use clock::{Clock, MockClock, SystemClock};
pub use id::Id;
pub use pool::ThreadPool;
pub use splitmix::SplitMix64;
