//! Minimal HTTP/1.1 stack for Chronos.
//!
//! Chronos Control "offers a RESTful web service" (paper, §2.2) that both
//! agents and workflow integrations (e.g. build bots) call; the original
//! runs on Apache + PHP. This crate is the Rust substitute: a small,
//! dependency-free HTTP/1.1 implementation with exactly the features the
//! REST API needs —
//!
//! * [`Server`] — HTTP/1.1 server: one epoll reactor event loop (idle
//!   keep-alive connections cost bytes, not threads) in front of a bounded
//!   worker pool, with keep-alive, `Content-Length` bodies, admission
//!   control and graceful shutdown. Serving is Linux-only; everything else
//!   in the crate is portable;
//! * [`Router`] — method + path-pattern dispatch with `:param` captures,
//!   the backbone of the versioned API;
//! * [`Client`] — a blocking client with a keep-alive connection cache,
//!   used by Chronos Agents (job polling, log upload, result upload) and by
//!   integration tests;
//! * [`Request`] / [`Response`] — message types with JSON body helpers;
//! * [`parser`] — the incremental request parser behind the server;
//! * [`url`] — percent-encoding and query-string parsing.

pub mod client;
pub mod parser;
#[cfg(target_os = "linux")]
pub(crate) mod reactor;
pub mod router;
pub mod server;
pub mod sys;
pub mod types;
pub mod url;

pub use client::{Client, ClientError};
pub use router::{RouteParams, Router};
pub use server::{Server, ServerHandle, ServerMetrics};
pub use sys::raise_nofile_limit;
pub use types::{Headers, Method, Request, Response, Status};
pub use types::{
    CODE_DEADLINE_EXCEEDED, CODE_DRAINING, CODE_OVERLOADED, CODE_REQUEST_TIMEOUT, DEADLINE_HEADER,
    RETRY_AFTER_MS_HEADER,
};
