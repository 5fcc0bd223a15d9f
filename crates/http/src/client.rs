//! Blocking HTTP/1.1 client.
//!
//! Chronos Agents are "clients [...] connecting to Chronos' REST API"
//! (paper §2.2); this client is their transport. It keeps a small cache of
//! idle keep-alive connections to its base URL (reconnecting transparently
//! when the server closes one) and supports JSON and binary request bodies.
//! Socket I/O happens outside the cache lock, so concurrent callers sharing
//! one [`Client`] each drive their own connection instead of queueing.

use std::fmt;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use parking_lot::Mutex;

use chronos_json::Value;

use crate::server::MAX_BODY_BYTES;
use crate::types::{Headers, Method, Request, Response, Status};

/// Errors produced by the HTTP client.
#[derive(Debug)]
pub enum ClientError {
    /// The base URL could not be parsed (`http://host:port` expected).
    BadUrl(String),
    /// Connection or socket I/O failed.
    Io(std::io::Error),
    /// The response could not be parsed.
    BadResponse(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::BadUrl(u) => write!(f, "invalid URL: {u}"),
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::BadResponse(m) => write!(f, "bad response: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Idle keep-alive connections retained per client; more concurrent
/// requests simply open (and immediately drop) extra sockets.
const MAX_IDLE_CONNECTIONS: usize = 4;

/// A blocking HTTP client bound to one base URL.
pub struct Client {
    host: String,
    authority: String,
    timeout: Duration,
    idle: Mutex<Vec<BufReader<TcpStream>>>,
    default_headers: Mutex<Headers>,
}

impl Client {
    /// Creates a client for `base_url` (`http://host:port`).
    pub fn new(base_url: &str) -> Self {
        let authority =
            base_url.strip_prefix("http://").unwrap_or(base_url).trim_end_matches('/').to_string();
        Client {
            host: authority.clone(),
            authority,
            timeout: Duration::from_secs(30),
            idle: Mutex::new(Vec::new()),
            default_headers: Mutex::new(Headers::new()),
        }
    }

    /// Overrides the socket timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Adds a header sent with every request (e.g. a session token).
    pub fn set_default_header(&self, name: &str, value: &str) {
        self.default_headers.lock().set(name, value);
    }

    /// Sends `GET path`.
    pub fn get(&self, path: &str) -> Result<Response, ClientError> {
        self.send(Request::new(Method::Get, path))
    }

    /// Sends `DELETE path`.
    pub fn delete(&self, path: &str) -> Result<Response, ClientError> {
        self.send(Request::new(Method::Delete, path))
    }

    /// Sends `POST path` with a JSON body.
    pub fn post_json(&self, path: &str, body: &Value) -> Result<Response, ClientError> {
        self.send(Request::new(Method::Post, path).with_json(body))
    }

    /// Sends `POST path` with a binary body.
    pub fn post_bytes(
        &self,
        path: &str,
        content_type: &str,
        body: Vec<u8>,
    ) -> Result<Response, ClientError> {
        self.send(Request::new(Method::Post, path).with_body(content_type, body))
    }

    /// Sends an arbitrary request, transparently reconnecting once if the
    /// cached connection has gone stale.
    pub fn send(&self, request: Request) -> Result<Response, ClientError> {
        // Pop in its own statement so the cache lock is released before any
        // socket I/O (an `if let` scrutinee guard would outlive the block).
        let cached = self.idle.lock().pop();
        if let Some(conn) = cached {
            // Reuse a cached connection; on failure, retry on a fresh one
            // (the server may have closed an idle keep-alive connection).
            match self.send_on(conn, &request) {
                Ok((response, conn)) => {
                    self.park(conn);
                    return Ok(response);
                }
                Err(_) => { /* fall through to reconnect */ }
            }
        }
        let conn = self.connect()?;
        let (response, conn) = self.send_on(conn, &request)?;
        self.park(conn);
        Ok(response)
    }

    /// Number of idle connections currently cached (visible for tests and
    /// diagnostics).
    pub fn idle_connections(&self) -> usize {
        self.idle.lock().len()
    }

    /// Returns a reusable connection to the cache, unless it is full.
    fn park(&self, conn: Option<BufReader<TcpStream>>) {
        if let Some(conn) = conn {
            let mut idle = self.idle.lock();
            if idle.len() < MAX_IDLE_CONNECTIONS {
                idle.push(conn);
            }
        }
    }

    fn connect(&self) -> Result<BufReader<TcpStream>, ClientError> {
        if let Some(inj) = chronos_util::fail_eval!("http.client.connect") {
            return Err(ClientError::Io(std::io::Error::other(injected_msg(inj, "connect"))));
        }
        let stream = TcpStream::connect(&self.authority)
            .map_err(|_| ClientError::BadUrl(format!("cannot connect to {}", self.authority)))?;
        stream.set_read_timeout(Some(self.timeout))?;
        stream.set_write_timeout(Some(self.timeout))?;
        stream.set_nodelay(true).ok();
        Ok(BufReader::new(stream))
    }

    /// Writes the request and reads the response on `conn`. Returns the
    /// connection back for reuse unless the server asked to close it.
    fn send_on(
        &self,
        mut conn: BufReader<TcpStream>,
        request: &Request,
    ) -> Result<(Response, Option<BufReader<TcpStream>>), ClientError> {
        let target = if request.query.is_empty() {
            request.path.clone()
        } else {
            format!("{}?{}", request.path, request.query)
        };
        let mut head = format!("{} {} HTTP/1.1\r\nHost: {}\r\n", request.method, target, self.host);
        for (name, value) in self.default_headers.lock().iter() {
            if request.headers.get(name).is_none() {
                head.push_str(&format!("{name}: {value}\r\n"));
            }
        }
        for (name, value) in request.headers.iter() {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        head.push_str(&format!("Content-Length: {}\r\n\r\n", request.body.len()));
        {
            let stream = conn.get_mut();
            if let Some(inj) = chronos_util::fail_eval!("http.client.send") {
                if let chronos_util::fail::Injected::Torn { keep } = inj {
                    // Partial write then connection death: the server sees a
                    // truncated request and never processes it.
                    let keep = keep.min(head.len());
                    let _ = stream.write_all(&head.as_bytes()[..keep]);
                    let _ = stream.flush();
                }
                return Err(ClientError::Io(std::io::Error::other(injected_msg(inj, "send"))));
            }
            stream.write_all(head.as_bytes())?;
            stream.write_all(&request.body)?;
            stream.flush()?;
        }
        // The request is fully on the wire past this point: a `recv` fault
        // models a response lost *after* the server processed the call.
        if let Some(inj) = chronos_util::fail_eval!("http.client.recv") {
            return Err(ClientError::Io(std::io::Error::other(injected_msg(inj, "recv"))));
        }
        let (response, keep_alive) = read_response(&mut conn, request.method)?;
        Ok((response, if keep_alive { Some(conn) } else { None }))
    }
}

/// Renders an injected fault as a socket-error message.
#[cfg_attr(not(feature = "failpoints"), allow(dead_code))]
fn injected_msg(inj: chronos_util::fail::Injected, what: &str) -> String {
    match inj {
        chronos_util::fail::Injected::Error(msg) => format!("{what} failed: {msg}"),
        chronos_util::fail::Injected::Torn { keep } => {
            format!("{what} torn after {keep} bytes (injected)")
        }
    }
}

/// Reads one response to a `method` request. A response to `HEAD`, and a
/// 1xx, 204 or 304 one, ends at its header block whatever its
/// `Content-Length` says (RFC 9112 §6.3); any other body must arrive whole.
fn read_response(
    reader: &mut BufReader<TcpStream>,
    method: Method,
) -> Result<(Response, bool), ClientError> {
    let mut status_line = String::new();
    let n = reader.read_line(&mut status_line)?;
    if n == 0 {
        return Err(ClientError::BadResponse("connection closed".to_string()));
    }
    let mut parts = status_line.trim_end().splitn(3, ' ');
    let _version = parts.next().unwrap_or_default();
    let code: u16 = parts
        .next()
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| ClientError::BadResponse(format!("bad status line {status_line:?}")))?;
    let mut headers = Headers::new();
    loop {
        let mut line = String::new();
        let n = reader.read_line(&mut line)?;
        if n == 0 {
            return Err(ClientError::BadResponse("truncated headers".to_string()));
        }
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            break;
        }
        if let Some((name, value)) = trimmed.split_once(':') {
            headers.add(name.trim(), value.trim());
        }
    }
    let bodiless = method == Method::Head || matches!(code, 100..=199 | 204 | 304);
    let content_length: usize = match headers.get("content-length") {
        Some(v) if !bodiless => v.parse().unwrap_or(0),
        _ => 0,
    };
    // The declared length comes from the peer: it sizes the first
    // allocation only up to the largest body the server accepts.
    let mut body = Vec::with_capacity(content_length.min(MAX_BODY_BYTES));
    reader.take(content_length as u64).read_to_end(&mut body)?;
    if body.len() < content_length {
        return Err(ClientError::Io(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            format!("response body ended after {} of {content_length} bytes", body.len()),
        )));
    }
    let keep_alive = !headers.get("connection").is_some_and(|v| v.eq_ignore_ascii_case("close"));
    Ok((Response { status: Status(code), headers, body }, keep_alive))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::Server;
    use chronos_json::obj;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn default_headers_are_sent_and_overridable() {
        let server = Server::new()
            .workers(2)
            .serve("127.0.0.1:0", |req| {
                Response::text(
                    Status::OK,
                    req.headers.get("x-token").unwrap_or("absent").to_string(),
                )
            })
            .unwrap();
        let client = Client::new(&server.base_url());
        let r = client.get("/a").unwrap();
        assert_eq!(r.body, b"absent");
        client.set_default_header("X-Token", "s3cret");
        let r = client.get("/a").unwrap();
        assert_eq!(r.body, b"s3cret");
        // Per-request header wins over the default.
        let mut req = Request::new(Method::Get, "/a");
        req.headers.set("X-Token", "override");
        let r = client.send(req).unwrap();
        assert_eq!(r.body, b"override");
    }

    #[test]
    fn reconnects_after_server_restart_on_same_port() {
        let server = Server::new()
            .workers(2)
            .serve("127.0.0.1:0", |_| Response::text(Status::OK, "one"))
            .unwrap();
        let addr = server.addr();
        let client = Client::new(&format!("http://{addr}"));
        assert_eq!(client.get("/x").unwrap().body, b"one");
        drop(server);
        // Rebind on the same port (racy in general; retry a few times).
        let mut second = None;
        for _ in 0..20 {
            match Server::new()
                .workers(2)
                .serve(&addr.to_string(), |_| Response::text(Status::OK, "two"))
            {
                Ok(s) => {
                    second = Some(s);
                    break;
                }
                Err(_) => std::thread::sleep(Duration::from_millis(50)),
            }
        }
        let Some(_second) = second else {
            return; // port not reusable fast enough on this host; skip
        };
        assert_eq!(client.get("/x").unwrap().body, b"two");
    }

    #[test]
    fn connect_failure_is_reported() {
        // Port 1 is essentially never listening.
        let client = Client::new("http://127.0.0.1:1");
        assert!(client.get("/x").is_err());
    }

    #[test]
    fn binary_roundtrip() {
        let server = Server::new()
            .workers(2)
            .serve("127.0.0.1:0", |req| {
                Response::bytes(Status::OK, "application/octet-stream", req.body)
            })
            .unwrap();
        let client = Client::new(&server.base_url());
        let payload: Vec<u8> = (0..=255u8).cycle().take(70_000).collect();
        let resp = client.post_bytes("/echo", "application/octet-stream", payload.clone()).unwrap();
        assert_eq!(resp.body, payload);
    }

    /// How a [`stub_server`] connection behaves after answering a request.
    #[derive(Clone, Copy)]
    enum StubMode {
        /// Answer every request on the connection (normal keep-alive).
        KeepAlive,
        /// Answer one request, then close the socket without warning.
        CloseAfterOne,
        /// Answer with `Connection: close` and hang up, per the header.
        AdvertiseClose,
    }

    /// A bare [`std::net::TcpListener`] HTTP responder that counts how many
    /// connections it accepted, so tests can observe client-side reuse.
    fn stub_server(mode: StubMode) -> (std::net::SocketAddr, std::sync::Arc<AtomicUsize>) {
        use std::io::Write as _;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let accepts = std::sync::Arc::new(AtomicUsize::new(0));
        let counter = std::sync::Arc::clone(&accepts);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { break };
                counter.fetch_add(1, Ordering::SeqCst);
                std::thread::spawn(move || {
                    let mut reader = BufReader::new(stream);
                    loop {
                        // Consume one request: headers, then the body.
                        let mut content_length = 0usize;
                        loop {
                            let mut line = String::new();
                            if reader.read_line(&mut line).unwrap_or(0) == 0 {
                                return; // client hung up
                            }
                            let trimmed = line.trim_end();
                            if trimmed.is_empty() {
                                break;
                            }
                            if let Some(v) = trimmed
                                .to_ascii_lowercase()
                                .strip_prefix("content-length:")
                                .map(str::trim)
                            {
                                content_length = v.parse().unwrap_or(0);
                            }
                        }
                        let mut body = vec![0u8; content_length];
                        if content_length > 0 && reader.read_exact(&mut body).is_err() {
                            return;
                        }
                        let extra = match mode {
                            StubMode::AdvertiseClose => "Connection: close\r\n",
                            _ => "",
                        };
                        let reply =
                            format!("HTTP/1.1 200 OK\r\n{extra}Content-Length: 2\r\n\r\nok");
                        if reader.get_mut().write_all(reply.as_bytes()).is_err() {
                            return;
                        }
                        match mode {
                            StubMode::KeepAlive => continue,
                            StubMode::CloseAfterOne | StubMode::AdvertiseClose => return,
                        }
                    }
                });
            }
        });
        (addr, accepts)
    }

    #[test]
    fn sequential_requests_reuse_one_connection() {
        let (addr, accepts) = stub_server(StubMode::KeepAlive);
        let client = Client::new(&format!("http://{addr}"));
        for _ in 0..5 {
            assert_eq!(client.get("/poll").unwrap().body, b"ok");
        }
        assert_eq!(accepts.load(Ordering::SeqCst), 1, "keep-alive connection was not reused");
        assert_eq!(client.idle_connections(), 1);
    }

    #[test]
    fn stale_cached_connection_falls_back_to_reconnect() {
        let (addr, accepts) = stub_server(StubMode::CloseAfterOne);
        let client = Client::new(&format!("http://{addr}"));
        // Each request parks its connection; the server then silently drops
        // it, so the next request must detect the stale socket and redial.
        for _ in 0..3 {
            assert_eq!(client.get("/poll").unwrap().body, b"ok");
        }
        assert_eq!(accepts.load(Ordering::SeqCst), 3, "stale connections must not be retried");
    }

    #[test]
    fn connection_close_header_evicts_from_cache() {
        let (addr, accepts) = stub_server(StubMode::AdvertiseClose);
        let client = Client::new(&format!("http://{addr}"));
        assert_eq!(client.get("/poll").unwrap().body, b"ok");
        assert_eq!(client.idle_connections(), 0, "Connection: close reply must not be cached");
        assert_eq!(client.get("/poll").unwrap().body, b"ok");
        assert_eq!(accepts.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn concurrent_senders_cap_the_idle_cache() {
        let server = Server::new()
            .workers(4)
            .serve("127.0.0.1:0", |_| Response::text(Status::OK, "ok"))
            .unwrap();
        let client = std::sync::Arc::new(Client::new(&server.base_url()));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let client = std::sync::Arc::clone(&client);
                std::thread::spawn(move || {
                    for _ in 0..5 {
                        assert_eq!(client.get("/x").unwrap().body, b"ok");
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert!(
            client.idle_connections() <= MAX_IDLE_CONNECTIONS,
            "idle cache exceeded its cap: {}",
            client.idle_connections()
        );
    }

    #[test]
    fn head_reads_no_body_and_the_connection_serves_on() {
        // A router-style handler: GET only, so HEAD gets a 405 whose
        // Content-Length counts an error body the server never sends.
        let server = Server::new()
            .workers(2)
            .serve("127.0.0.1:0", |req| match req.method {
                Method::Get => Response::text(Status::OK, "version 1"),
                _ => Response::error(Status::METHOD_NOT_ALLOWED, "method not allowed"),
            })
            .unwrap();
        let client = Client::new(&server.base_url()).with_timeout(Duration::from_secs(5));
        let start = std::time::Instant::now();
        let head = client.send(Request::new(Method::Head, "/version")).unwrap();
        assert!(start.elapsed() < Duration::from_secs(2), "HEAD took {:?}", start.elapsed());
        assert_eq!(head.status, Status::METHOD_NOT_ALLOWED);
        assert!(head.body.is_empty());
        assert_ne!(head.headers.get("content-length"), Some("0"), "the length is the GET's");
        assert_eq!(client.get("/version").unwrap().body, b"version 1");
        assert_eq!(server.metrics().accepted.get(), 1, "HEAD and GET share one connection");
    }

    #[test]
    fn short_body_is_an_error() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stub = std::thread::spawn(move || {
            use std::io::Write as _;
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream);
            let mut line = String::new();
            while reader.read_line(&mut line).unwrap() > 2 {
                line.clear();
            }
            let reply = b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort";
            reader.get_mut().write_all(reply).unwrap();
        });
        let client = Client::new(&format!("http://{addr}"));
        match client.get("/x") {
            Err(ClientError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof),
            other => panic!("a 5-byte body declared as 10 read as {other:?}"),
        }
        stub.join().unwrap();
    }

    #[test]
    fn json_roundtrip_via_put() {
        let server = Server::new()
            .workers(2)
            .serve("127.0.0.1:0", |req| Response::json(&req.json().unwrap()))
            .unwrap();
        let client = Client::new(&server.base_url());
        let doc = obj! { "nested" => obj! { "k" => 1.5 } };
        let resp = client.send(Request::new(Method::Put, "/doc").with_json(&doc)).unwrap();
        assert_eq!(resp.json_body().unwrap(), doc);
    }
}
