//! Incremental HTTP/1.1 request parser — the one place that knows how a
//! request is read.
//!
//! The reactor owns thousands of sockets at once and only gets bytes when
//! the kernel says they arrived, so parsing must be resumable at *any* byte
//! boundary: mid-request-line, mid-header, mid-CRLF, mid-body.
//! [`RequestParser`] accumulates fed bytes and yields a request exactly
//! when one is complete; trailing bytes (a pipelined second request) stay
//! buffered for the next poll.
//!
//! Limits: the head (request line + headers) is capped at 64 KiB, the
//! declared body at [`MAX_BODY_BYTES`]; only `Content-Length` bodies are
//! accepted. The buffer grows only as bytes actually arrive — a declared
//! `Content-Length` is an untrusted claim and reserves nothing.

use std::time::{Duration, Instant};

use crate::server::{MAX_BODY_BYTES, MAX_HEAD_BYTES};
use crate::types::{Headers, Method, Request, DEADLINE_HEADER};

/// Why a request could not be parsed. The server answers `BadRequest`
/// with 400 and `TooLarge` with 413, then closes the connection.
#[derive(Debug)]
pub enum ParseError {
    /// Malformed message; the string is the client-visible diagnostic.
    BadRequest(String),
    /// Head or declared body over the configured limits.
    TooLarge,
}

/// A fully parsed request plus the connection directive derived from its
/// headers.
#[derive(Debug)]
pub struct ParsedRequest {
    /// The request, ready for dispatch.
    pub request: Request,
    /// Whether the connection should stay open after the response.
    pub keep_alive: bool,
}

/// Head fields carried while the body is still arriving.
struct PendingHead {
    method: Method,
    path: String,
    query: String,
    headers: Headers,
    keep_alive: bool,
    deadline: Option<Instant>,
    content_length: usize,
}

enum State {
    /// Scanning for the blank line that terminates the head.
    Head,
    /// Head parsed; accumulating `content_length` body bytes.
    Body(PendingHead),
}

/// Resumable parser: [`feed`](RequestParser::feed) bytes as they arrive,
/// [`poll`](RequestParser::poll) for a complete request.
pub struct RequestParser {
    buf: Vec<u8>,
    state: State,
    /// Start of the line currently being scanned (Head state).
    line_start: usize,
    /// First byte not yet examined for a newline (Head state).
    scan: usize,
}

impl Default for RequestParser {
    fn default() -> Self {
        Self::new()
    }
}

impl RequestParser {
    /// An empty parser, ready for the first byte.
    pub fn new() -> Self {
        RequestParser { buf: Vec::new(), state: State::Head, line_start: 0, scan: 0 }
    }

    /// Appends newly received bytes. Call [`poll`](Self::poll) afterwards.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// True when any bytes of a not-yet-complete request have arrived (the
    /// drain logic uses this to tell an idle connection from one
    /// mid-request).
    pub fn has_partial(&self) -> bool {
        !self.buf.is_empty() || matches!(self.state, State::Body(_))
    }

    /// True while the head is done and body bytes are still arriving.
    pub fn reading_body(&self) -> bool {
        matches!(self.state, State::Body(_))
    }

    /// Bytes currently buffered.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Tries to produce one complete request from the buffered bytes.
    /// `Ok(None)` means more bytes are needed. Leftover bytes beyond the
    /// returned request (pipelining) remain buffered. After an `Err` the
    /// parser is poisoned for this connection — the caller responds and
    /// closes.
    pub fn poll(&mut self) -> Result<Option<ParsedRequest>, ParseError> {
        loop {
            match &mut self.state {
                State::Head => {
                    let Some(head_end) = self.find_head_end() else {
                        // The entire buffer is head bytes (nothing after the
                        // terminator exists yet), so the cap applies to all
                        // of it.
                        if self.buf.len() > MAX_HEAD_BYTES {
                            return Err(ParseError::TooLarge);
                        }
                        return Ok(None);
                    };
                    if head_end > MAX_HEAD_BYTES {
                        return Err(ParseError::TooLarge);
                    }
                    let pending = parse_head(&self.buf[..head_end])?;
                    self.buf.drain(..head_end);
                    self.line_start = 0;
                    self.scan = 0;
                    if pending.content_length == 0 {
                        return Ok(Some(self.finish(pending, Vec::new())));
                    }
                    self.state = State::Body(pending);
                }
                State::Body(pending) => {
                    let content_length = pending.content_length;
                    if self.buf.len() < content_length {
                        return Ok(None);
                    }
                    let rest = self.buf.split_off(content_length);
                    let body = std::mem::replace(&mut self.buf, rest);
                    let pending = match std::mem::replace(&mut self.state, State::Head) {
                        State::Body(p) => p,
                        State::Head => unreachable!("matched Body above"),
                    };
                    return Ok(Some(self.finish(pending, body)));
                }
            }
        }
    }

    /// Scans buffered bytes for the blank line ending the head, resuming
    /// where the previous scan stopped. Returns the index one past the
    /// terminator.
    fn find_head_end(&mut self) -> Option<usize> {
        while let Some(offset) = self.buf[self.scan..].iter().position(|&b| b == b'\n') {
            let newline = self.scan + offset;
            let mut line = &self.buf[self.line_start..newline];
            if line.last() == Some(&b'\r') {
                line = &line[..line.len() - 1];
            }
            self.scan = newline + 1;
            if line.is_empty() {
                return Some(newline + 1);
            }
            self.line_start = newline + 1;
        }
        self.scan = self.buf.len();
        None
    }

    fn finish(&mut self, pending: PendingHead, body: Vec<u8>) -> ParsedRequest {
        // A connection can sit idle in keep-alive for minutes; don't let a
        // one-off large request pin its buffer capacity for that long.
        if self.buf.is_empty() && self.buf.capacity() > 16 * 1024 {
            self.buf.shrink_to(4 * 1024);
        }
        ParsedRequest {
            request: Request {
                method: pending.method,
                path: pending.path,
                query: pending.query,
                headers: pending.headers,
                body,
                deadline: pending.deadline,
            },
            keep_alive: pending.keep_alive,
        }
    }
}

/// Parses a complete head (everything up to and including the blank line)
/// into the pending-request fields.
fn parse_head(head: &[u8]) -> Result<PendingHead, ParseError> {
    let mut lines = head.split(|&b| b == b'\n').map(|line| {
        let line = if line.last() == Some(&b'\r') { &line[..line.len() - 1] } else { line };
        String::from_utf8_lossy(line)
    });

    let first = lines.next().unwrap_or_default();
    let request_line = first.trim_end();
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .and_then(Method::parse)
        .ok_or_else(|| ParseError::BadRequest(format!("bad method in {request_line:?}")))?;
    let target =
        parts.next().ok_or_else(|| ParseError::BadRequest("missing request target".to_string()))?;
    let version = parts.next().unwrap_or("HTTP/1.1");
    if !version.starts_with("HTTP/1.") {
        return Err(ParseError::BadRequest(format!("unsupported version {version}")));
    }
    let http10 = version == "HTTP/1.0";
    // The path stays raw (still percent-encoded): the router decodes each
    // segment exactly once at match time. Decoding here as well would
    // double-decode params and let an encoded `/` alter segmentation.
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };

    let mut headers = Headers::new();
    for line in lines {
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            continue; // the terminating blank line (and nothing after it)
        }
        match trimmed.split_once(':') {
            Some((name, value)) => headers.add(name.trim(), value.trim()),
            None => return Err(ParseError::BadRequest(format!("malformed header {trimmed:?}"))),
        }
    }

    let content_length = match headers.get("content-length") {
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| ParseError::BadRequest("bad content-length".to_string()))?,
        None => 0,
    };
    if content_length > MAX_BODY_BYTES {
        return Err(ParseError::TooLarge);
    }
    if headers.get("transfer-encoding").is_some_and(|v| !v.eq_ignore_ascii_case("identity")) {
        return Err(ParseError::BadRequest("chunked requests not supported".to_string()));
    }

    let keep_alive = match headers.get("connection") {
        Some(v) if v.eq_ignore_ascii_case("close") => false,
        Some(v) if v.eq_ignore_ascii_case("keep-alive") => true,
        _ => !http10,
    };

    // The caller's processing budget, counted from arrival (head-complete
    // time — the earliest moment the reactor knows the budget exists).
    let deadline = headers
        .get(DEADLINE_HEADER)
        .and_then(|v| v.trim().parse::<u64>().ok())
        .map(|ms| Instant::now() + Duration::from_millis(ms));

    Ok(PendingHead { method, path, query, headers, keep_alive, deadline, content_length })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn poll_one(parser: &mut RequestParser) -> ParsedRequest {
        parser.poll().expect("parse ok").expect("request complete")
    }

    #[test]
    fn whole_request_in_one_segment() {
        let mut p = RequestParser::new();
        p.feed(b"GET /jobs?limit=3 HTTP/1.1\r\nHost: x\r\n\r\n");
        let parsed = poll_one(&mut p);
        assert_eq!(parsed.request.method, Method::Get);
        assert_eq!(parsed.request.path, "/jobs");
        assert_eq!(parsed.request.query, "limit=3");
        assert_eq!(parsed.request.headers.get("host"), Some("x"));
        assert!(parsed.keep_alive);
        assert!(!p.has_partial());
    }

    #[test]
    fn byte_at_a_time() {
        let wire = b"POST /submit HTTP/1.1\r\nHost: t\r\nContent-Length: 5\r\n\r\nhello";
        let mut p = RequestParser::new();
        for (i, byte) in wire.iter().enumerate() {
            p.feed(&[*byte]);
            let polled = p.poll().expect("never errors");
            if i + 1 < wire.len() {
                assert!(polled.is_none(), "complete after only {} bytes", i + 1);
            } else {
                let parsed = polled.expect("complete at final byte");
                assert_eq!(parsed.request.body, b"hello");
            }
        }
    }

    #[test]
    fn adversarial_split_points() {
        // Splits chosen to land mid-request-line, between CR and LF, mid-
        // header-name, mid-header-value, right before the blank line, and
        // mid-body.
        let wire = b"PUT /runs/7 HTTP/1.1\r\nHost: ctl\r\nContent-Length: 10\r\n\r\n0123456789";
        for split in [3, 12, 21, 22, 30, 44, 55, 58, 62] {
            let mut p = RequestParser::new();
            p.feed(&wire[..split]);
            assert!(p.poll().unwrap().is_none(), "split at {split} yielded early");
            p.feed(&wire[split..]);
            let parsed = poll_one(&mut p);
            assert_eq!(parsed.request.method, Method::Put, "split at {split}");
            assert_eq!(parsed.request.body, b"0123456789", "split at {split}");
        }
    }

    #[test]
    fn pipelined_second_request_in_same_segment() {
        let mut p = RequestParser::new();
        p.feed(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\nConnection: close\r\n\r\n");
        let first = poll_one(&mut p);
        assert_eq!(first.request.path, "/a");
        assert!(first.keep_alive);
        assert!(p.has_partial(), "second request must stay buffered");
        let second = poll_one(&mut p);
        assert_eq!(second.request.path, "/b");
        assert!(!second.keep_alive);
        assert!(p.poll().unwrap().is_none());
    }

    #[test]
    fn body_bytes_arriving_with_the_head() {
        let mut p = RequestParser::new();
        p.feed(b"POST /x HTTP/1.1\r\nContent-Length: 4\r\n\r\nab");
        assert!(p.poll().unwrap().is_none());
        assert!(p.reading_body());
        p.feed(b"cd");
        assert_eq!(poll_one(&mut p).request.body, b"abcd");
        assert!(!p.reading_body());
    }

    #[test]
    fn bare_lf_line_endings_are_tolerated() {
        let mut p = RequestParser::new();
        p.feed(b"GET /lf HTTP/1.1\nHost: x\n\n");
        let parsed = poll_one(&mut p);
        assert_eq!(parsed.request.path, "/lf");
        assert_eq!(parsed.request.headers.get("host"), Some("x"));
    }

    #[test]
    fn http10_defaults_to_close() {
        let mut p = RequestParser::new();
        p.feed(b"GET /old HTTP/1.0\r\n\r\n");
        assert!(!poll_one(&mut p).keep_alive);
        p.feed(b"GET /old HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
        assert!(poll_one(&mut p).keep_alive);
    }

    #[test]
    fn deadline_header_is_parsed() {
        let mut p = RequestParser::new();
        p.feed(format!("GET /d HTTP/1.1\r\n{DEADLINE_HEADER}: 5000\r\n\r\n").as_bytes());
        let parsed = poll_one(&mut p);
        let remaining = parsed.request.deadline_remaining().expect("deadline set");
        assert!(remaining <= Duration::from_millis(5000));
        assert!(remaining > Duration::from_millis(4000));
    }

    #[test]
    fn garbage_request_line_is_bad_request() {
        let mut p = RequestParser::new();
        p.feed(b"NONSENSE\r\n\r\n");
        assert!(matches!(p.poll(), Err(ParseError::BadRequest(_))));
    }

    #[test]
    fn malformed_header_is_bad_request() {
        let mut p = RequestParser::new();
        p.feed(b"GET /x HTTP/1.1\r\nno-colon-here\r\n\r\n");
        match p.poll() {
            Err(ParseError::BadRequest(msg)) => assert!(msg.contains("malformed header")),
            other => panic!("expected BadRequest, got {other:?}"),
        }
    }

    #[test]
    fn unsupported_version_is_bad_request() {
        let mut p = RequestParser::new();
        p.feed(b"GET /x HTTP/2\r\n\r\n");
        assert!(matches!(p.poll(), Err(ParseError::BadRequest(_))));
    }

    #[test]
    fn chunked_transfer_encoding_is_rejected() {
        let mut p = RequestParser::new();
        p.feed(b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
        match p.poll() {
            Err(ParseError::BadRequest(msg)) => assert!(msg.contains("chunked")),
            other => panic!("expected BadRequest, got {other:?}"),
        }
    }

    #[test]
    fn oversized_declared_body_is_too_large() {
        let mut p = RequestParser::new();
        p.feed(
            format!("POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY_BYTES + 1)
                .as_bytes(),
        );
        assert!(matches!(p.poll(), Err(ParseError::TooLarge)));
    }

    #[test]
    fn unterminated_head_over_the_cap_is_too_large() {
        let mut p = RequestParser::new();
        p.feed(b"GET /x HTTP/1.1\r\n");
        // Endless header bytes with no blank line must trip the cap instead
        // of buffering forever.
        let filler = vec![b'a'; MAX_HEAD_BYTES + 16];
        p.feed(&filler);
        assert!(matches!(p.poll(), Err(ParseError::TooLarge)));
    }

    #[test]
    fn empty_request_line_is_bad_request() {
        let mut p = RequestParser::new();
        p.feed(b"\r\n");
        assert!(matches!(p.poll(), Err(ParseError::BadRequest(_))));
    }

    #[test]
    fn declared_length_is_not_precommitted() {
        // A 64 MiB `Content-Length` with only 1000 body bytes on the wire:
        // the request is incomplete and the buffer must hold what arrived
        // (within one 16 KiB reactor read chunk), not what was declared —
        // otherwise a peer reserves 64 MiB per connection for free.
        let head = format!("POST /x HTTP/1.1\r\nContent-Length: {MAX_BODY_BYTES}\r\n\r\n");
        let mut p = RequestParser::new();
        p.feed(head.as_bytes());
        p.feed(&[7u8; 1000]);
        assert!(p.poll().expect("parse ok").is_none());
        assert!(p.reading_body());
        assert!(
            p.buf.capacity() <= head.len() + 1000 + 16 * 1024,
            "buffer pre-committed {} bytes off the declared Content-Length",
            p.buf.capacity()
        );
    }

    #[test]
    fn large_body_in_uneven_segments_roundtrips() {
        let data: Vec<u8> = (0..3 * 64 * 1024 + 17).map(|i| (i % 251) as u8).collect();
        let mut p = RequestParser::new();
        p.feed(format!("POST /big HTTP/1.1\r\nContent-Length: {}\r\n\r\n", data.len()).as_bytes());
        let mut lens = [1, 4095, 16 * 1024, 3, 70_000, 1, 50_000].into_iter().cycle();
        let mut sent = 0;
        while sent < data.len() {
            assert!(p.poll().expect("parse ok").is_none(), "complete after {sent} body bytes");
            // Growth follows arrival (amortized doubling), never the header.
            assert!(p.buf.capacity() <= 2 * p.buffered() + 16 * 1024);
            let end = (sent + lens.next().unwrap()).min(data.len());
            p.feed(&data[sent..end]);
            sent = end;
        }
        assert_eq!(poll_one(&mut p).request.body, data);
        assert!(!p.has_partial());
    }

    #[test]
    fn big_buffer_is_released_after_the_request() {
        let mut p = RequestParser::new();
        let body = vec![9u8; 256 * 1024];
        p.feed(format!("POST /big HTTP/1.1\r\nContent-Length: {}\r\n\r\n", body.len()).as_bytes());
        p.feed(&body);
        let parsed = poll_one(&mut p);
        assert_eq!(parsed.request.body.len(), body.len());
        assert!(
            p.buf.capacity() <= 16 * 1024,
            "idle keep-alive parser retained {} bytes",
            p.buf.capacity()
        );
    }
}
