//! HTTP message types.

use std::fmt;
use std::time::{Duration, Instant};

use chronos_json::Value;

/// Request header carrying the caller's remaining budget in milliseconds.
/// Parsed by the server into [`Request::deadline`]. The server checks it
/// once, when the request gets its handler slot, and answers a spent budget
/// with `504` and the `deadline_exceeded` envelope instead of the handler.
pub const DEADLINE_HEADER: &str = "X-Chronos-Deadline-Ms";

/// Response header mirroring `Retry-After` with millisecond precision
/// (standard `Retry-After` only carries whole seconds).
pub const RETRY_AFTER_MS_HEADER: &str = "X-Chronos-Retry-After-Ms";

/// Named error code on `429` responses shed by admission control.
///
/// These three live here — below the `chronos-api` contract crate, which
/// re-exports them — because the server must emit typed envelopes from the
/// accept thread without depending on the contract crate (which depends on
/// this one).
pub const CODE_OVERLOADED: &str = "overloaded";
/// Named error code on `503` responses refused during graceful drain.
pub const CODE_DRAINING: &str = "draining";
/// Named error code on `408` responses for requests whose bytes stopped
/// flowing before the message completed (slowloris / stalled uploads).
pub const CODE_REQUEST_TIMEOUT: &str = "request_timeout";
/// Named error code on `504` responses whose [`DEADLINE_HEADER`] budget ran
/// out before the request got a handler slot.
pub const CODE_DEADLINE_EXCEEDED: &str = "deadline_exceeded";

/// Serializes a JSON body straight into the byte vector that becomes the
/// message body — no intermediate `String`.
fn json_body(value: &Value) -> Vec<u8> {
    let mut body = Vec::with_capacity(128);
    chronos_json::write_to(&mut body, value).expect("writing to a Vec cannot fail");
    body
}

/// HTTP request methods supported by the Chronos REST API.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Resource retrieval.
    Get,
    /// Resource creation / RPC-style actions.
    Post,
    /// Full resource replacement or state transitions.
    Put,
    /// Partial update.
    Patch,
    /// Resource removal.
    Delete,
    /// Headers-only retrieval.
    Head,
}

impl Method {
    /// Parses a request-line method token.
    pub fn parse(s: &str) -> Option<Method> {
        match s {
            "GET" => Some(Method::Get),
            "POST" => Some(Method::Post),
            "PUT" => Some(Method::Put),
            "PATCH" => Some(Method::Patch),
            "DELETE" => Some(Method::Delete),
            "HEAD" => Some(Method::Head),
            _ => None,
        }
    }

    /// The canonical token.
    pub fn as_str(&self) -> &'static str {
        match self {
            Method::Get => "GET",
            Method::Post => "POST",
            Method::Put => "PUT",
            Method::Patch => "PATCH",
            Method::Delete => "DELETE",
            Method::Head => "HEAD",
        }
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// HTTP response status codes used by the API.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Status(pub u16);

impl Status {
    pub const OK: Status = Status(200);
    pub const CREATED: Status = Status(201);
    pub const NO_CONTENT: Status = Status(204);
    pub const NOT_MODIFIED: Status = Status(304);
    pub const BAD_REQUEST: Status = Status(400);
    pub const UNAUTHORIZED: Status = Status(401);
    pub const FORBIDDEN: Status = Status(403);
    pub const NOT_FOUND: Status = Status(404);
    pub const METHOD_NOT_ALLOWED: Status = Status(405);
    pub const REQUEST_TIMEOUT: Status = Status(408);
    pub const CONFLICT: Status = Status(409);
    pub const GONE: Status = Status(410);
    pub const PAYLOAD_TOO_LARGE: Status = Status(413);
    pub const UNPROCESSABLE: Status = Status(422);
    pub const TOO_MANY_REQUESTS: Status = Status(429);
    pub const INTERNAL_ERROR: Status = Status(500);
    pub const SERVICE_UNAVAILABLE: Status = Status(503);
    pub const GATEWAY_TIMEOUT: Status = Status(504);

    /// The standard reason phrase.
    pub fn reason(&self) -> &'static str {
        match self.0 {
            200 => "OK",
            201 => "Created",
            204 => "No Content",
            301 => "Moved Permanently",
            304 => "Not Modified",
            400 => "Bad Request",
            401 => "Unauthorized",
            403 => "Forbidden",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            409 => "Conflict",
            410 => "Gone",
            413 => "Payload Too Large",
            422 => "Unprocessable Entity",
            429 => "Too Many Requests",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            504 => "Gateway Timeout",
            _ => "Unknown",
        }
    }

    /// True for 2xx codes.
    pub fn is_success(&self) -> bool {
        (200..300).contains(&self.0)
    }
}

/// An ordered, case-insensitive header multimap.
#[derive(Debug, Clone, Default)]
pub struct Headers {
    entries: Vec<(String, String)>,
}

impl Headers {
    /// Creates an empty header map.
    pub fn new() -> Self {
        Headers::default()
    }

    /// First value for `name` (case-insensitive).
    pub fn get(&self, name: &str) -> Option<&str> {
        self.entries.iter().find(|(k, _)| k.eq_ignore_ascii_case(name)).map(|(_, v)| v.as_str())
    }

    /// Appends a header.
    pub fn add(&mut self, name: impl Into<String>, value: impl Into<String>) {
        self.entries.push((name.into(), value.into()));
    }

    /// Replaces all values of `name` with one value.
    pub fn set(&mut self, name: &str, value: impl Into<String>) {
        self.entries.retain(|(k, _)| !k.eq_ignore_ascii_case(name));
        self.entries.push((name.to_string(), value.into()));
    }

    /// Iterates all `(name, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }

    /// Number of header lines.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no headers are present.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method.
    pub method: Method,
    /// Decoded path (no query string).
    pub path: String,
    /// Raw query string (without `?`), empty if none.
    pub query: String,
    /// Request headers.
    pub headers: Headers,
    /// Request body.
    pub body: Vec<u8>,
    /// Absolute deadline derived from [`DEADLINE_HEADER`] at parse time
    /// (header milliseconds counted from request arrival). `None` when the
    /// caller sent no budget.
    pub deadline: Option<Instant>,
}

impl Request {
    /// Builds a request with an empty body (client side).
    pub fn new(method: Method, path: impl Into<String>) -> Self {
        let full: String = path.into();
        let (path, query) = match full.split_once('?') {
            Some((p, q)) => (p.to_string(), q.to_string()),
            None => (full, String::new()),
        };
        Request { method, path, query, headers: Headers::new(), body: Vec::new(), deadline: None }
    }

    /// Sets an absolute deadline (server side: done by the parser; tests use
    /// it to simulate exhausted budgets).
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Remaining budget, `None` when no deadline was requested. Zero once
    /// expired.
    pub fn deadline_remaining(&self) -> Option<Duration> {
        self.deadline.map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// Whether the caller's budget has run out. Requests without a deadline
    /// never expire.
    pub fn deadline_expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Sets a JSON body (and `Content-Type`).
    pub fn with_json(mut self, value: &Value) -> Self {
        self.body = json_body(value);
        self.headers.set("Content-Type", "application/json");
        self
    }

    /// Sets a raw body with the given content type.
    pub fn with_body(mut self, content_type: &str, body: Vec<u8>) -> Self {
        self.headers.set("Content-Type", content_type);
        self.body = body;
        self
    }

    /// Parses the body as JSON.
    pub fn json(&self) -> Result<Value, chronos_json::ParseError> {
        let text = String::from_utf8_lossy(&self.body);
        chronos_json::parse(&text)
    }

    /// Parsed query-string parameters (decoded).
    pub fn query_params(&self) -> Vec<(String, String)> {
        crate::url::parse_query(&self.query)
    }

    /// First query parameter with the given name.
    pub fn query_param(&self, name: &str) -> Option<String> {
        self.query_params().into_iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }
}

/// An HTTP response.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: Status,
    /// Response headers.
    pub headers: Headers,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// An empty response with the given status.
    pub fn status(status: Status) -> Self {
        Response { status, headers: Headers::new(), body: Vec::new() }
    }

    /// A `200 OK` JSON response.
    pub fn json(value: &Value) -> Self {
        Self::json_status(Status::OK, value)
    }

    /// A JSON response with an explicit status.
    pub fn json_status(status: Status, value: &Value) -> Self {
        let mut r = Response::status(status);
        r.headers.set("Content-Type", "application/json");
        r.body = json_body(value);
        r
    }

    /// A plain-text response.
    pub fn text(status: Status, text: impl Into<String>) -> Self {
        let mut r = Response::status(status);
        r.headers.set("Content-Type", "text/plain; charset=utf-8");
        r.body = text.into().into_bytes();
        r
    }

    /// A binary response with explicit content type.
    pub fn bytes(status: Status, content_type: &str, body: Vec<u8>) -> Self {
        let mut r = Response::status(status);
        r.headers.set("Content-Type", content_type);
        r.body = body;
        r
    }

    /// The standard error shape used across the API:
    /// `{"error": {"code": ..., "message": ...}}`.
    pub fn error(status: Status, message: impl Into<String>) -> Self {
        let value = chronos_json::obj! {
            "error" => chronos_json::obj! {
                "code" => status.0 as i64,
                "message" => message.into(),
            },
        };
        Self::json_status(status, &value)
    }

    /// An error body with a *named* protocol code instead of the numeric
    /// status echo: `{"error": {"code": "<name>", "message": ...}}` — the
    /// same wire shape `chronos-api`'s `ErrorEnvelope` decodes. Lives here
    /// (below the contract crate) so the server can shed load on the accept
    /// thread with a typed body.
    pub fn error_named(status: Status, code: &str, message: impl Into<String>) -> Self {
        let value = chronos_json::obj! {
            "error" => chronos_json::obj! {
                "code" => code,
                "message" => message.into(),
            },
        };
        Self::json_status(status, &value)
    }

    /// Attaches retry hints: standard `Retry-After` (whole seconds, rounded
    /// up) plus [`RETRY_AFTER_MS_HEADER`] with millisecond precision.
    pub fn with_retry_after(mut self, hint: Duration) -> Self {
        let ms = hint.as_millis().max(1) as u64;
        self.headers.set("Retry-After", ms.div_ceil(1000).to_string());
        self.headers.set(RETRY_AFTER_MS_HEADER, ms.to_string());
        self
    }

    /// The server's retry hint, preferring the millisecond header over the
    /// whole-seconds standard one. `None` when the response carries neither.
    pub fn retry_after(&self) -> Option<Duration> {
        if let Some(ms) = self.headers.get(RETRY_AFTER_MS_HEADER) {
            if let Ok(ms) = ms.trim().parse::<u64>() {
                return Some(Duration::from_millis(ms));
            }
        }
        let secs = self.headers.get("Retry-After")?.trim().parse::<u64>().ok()?;
        Some(Duration::from_secs(secs))
    }

    /// Parses the body as JSON.
    pub fn json_body(&self) -> Result<Value, chronos_json::ParseError> {
        chronos_json::parse(&String::from_utf8_lossy(&self.body))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronos_json::obj;

    #[test]
    fn method_parse_roundtrip() {
        for m in
            [Method::Get, Method::Post, Method::Put, Method::Patch, Method::Delete, Method::Head]
        {
            assert_eq!(Method::parse(m.as_str()), Some(m));
        }
        assert_eq!(Method::parse("BREW"), None);
    }

    #[test]
    fn status_helpers() {
        assert!(Status::OK.is_success());
        assert!(Status::CREATED.is_success());
        assert!(!Status::NOT_FOUND.is_success());
        assert_eq!(Status::NOT_FOUND.reason(), "Not Found");
        assert_eq!(Status(599).reason(), "Unknown");
    }

    #[test]
    fn headers_case_insensitive() {
        let mut h = Headers::new();
        h.add("Content-Type", "application/json");
        assert_eq!(h.get("content-type"), Some("application/json"));
        assert_eq!(h.get("CONTENT-TYPE"), Some("application/json"));
        assert_eq!(h.get("missing"), None);
    }

    #[test]
    fn headers_set_replaces() {
        let mut h = Headers::new();
        h.add("X-A", "1");
        h.add("x-a", "2");
        h.set("X-A", "3");
        assert_eq!(h.get("x-a"), Some("3"));
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn request_splits_query() {
        let r = Request::new(Method::Get, "/api/v1/jobs?status=failed&limit=10");
        assert_eq!(r.path, "/api/v1/jobs");
        assert_eq!(r.query_param("status").as_deref(), Some("failed"));
        assert_eq!(r.query_param("limit").as_deref(), Some("10"));
        assert_eq!(r.query_param("missing"), None);
    }

    #[test]
    fn json_bodies_roundtrip() {
        let doc = obj! { "a" => 1 };
        let req = Request::new(Method::Post, "/x").with_json(&doc);
        assert_eq!(req.headers.get("content-type"), Some("application/json"));
        assert_eq!(req.json().unwrap(), doc);
        let resp = Response::json(&doc);
        assert_eq!(resp.json_body().unwrap(), doc);
    }

    #[test]
    fn error_shape() {
        let r = Response::error(Status::CONFLICT, "already running");
        let j = r.json_body().unwrap();
        assert_eq!(j.pointer("/error/code").and_then(|v| v.as_i64()), Some(409));
        assert_eq!(j.pointer("/error/message").and_then(|v| v.as_str()), Some("already running"));
    }

    #[test]
    fn named_error_shape() {
        let r = Response::error_named(Status::TOO_MANY_REQUESTS, "overloaded", "queue full");
        assert_eq!(r.status, Status::TOO_MANY_REQUESTS);
        let j = r.json_body().unwrap();
        assert_eq!(j.pointer("/error/code").and_then(|v| v.as_str()), Some("overloaded"));
        assert_eq!(j.pointer("/error/message").and_then(|v| v.as_str()), Some("queue full"));
    }

    #[test]
    fn retry_after_roundtrips_with_ms_precision() {
        let r = Response::error_named(Status::SERVICE_UNAVAILABLE, "draining", "shutting down")
            .with_retry_after(Duration::from_millis(1500));
        assert_eq!(r.headers.get("Retry-After"), Some("2"), "seconds round up");
        assert_eq!(r.headers.get(RETRY_AFTER_MS_HEADER), Some("1500"));
        assert_eq!(r.retry_after(), Some(Duration::from_millis(1500)));
        // Only the standard header: whole seconds.
        let mut r = Response::status(Status::SERVICE_UNAVAILABLE);
        r.headers.set("Retry-After", "3");
        assert_eq!(r.retry_after(), Some(Duration::from_secs(3)));
        assert_eq!(Response::status(Status::OK).retry_after(), None);
    }

    #[test]
    fn deadline_expiry() {
        let r = Request::new(Method::Get, "/x");
        assert!(!r.deadline_expired(), "no deadline never expires");
        assert_eq!(r.deadline_remaining(), None);
        let past = Instant::now() - Duration::from_millis(10);
        let r = Request::new(Method::Get, "/x").with_deadline(past);
        assert!(r.deadline_expired());
        assert_eq!(r.deadline_remaining(), Some(Duration::ZERO));
        let future = Instant::now() + Duration::from_secs(60);
        let r = Request::new(Method::Get, "/x").with_deadline(future);
        assert!(!r.deadline_expired());
        assert!(r.deadline_remaining().unwrap() > Duration::from_secs(30));
    }

    #[test]
    fn new_status_codes_have_reasons() {
        assert_eq!(Status::TOO_MANY_REQUESTS.reason(), "Too Many Requests");
        assert_eq!(Status::GATEWAY_TIMEOUT.reason(), "Gateway Timeout");
    }
}
