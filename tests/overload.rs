//! Overload-protection and graceful-degradation integration tests.
//!
//! Exercises the bounded admission path end to end over real sockets: typed
//! `429 overloaded` / `503 draining` shed envelopes with `Retry-After`
//! hints, deadline-budget refusal, the two-phase drain (in-flight requests
//! finish, keep-alive connections close politely), and the agent's
//! Retry-After-honoring retry loop.
//!
//! Admission bounds requests, not connections: every connection is
//! admitted, and a test pins capacity by holding handler slots (a gated
//! handler) rather than by opening sockets. Most tests use raw sockets so
//! each response's status line and headers can be read as sent.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use chronos::api::{ErrorEnvelope, WireDecode, CODE_DEADLINE_EXCEEDED, CODE_OVERLOADED};
use chronos::core::auth::Role;
use chronos::core::scheduler::SchedulerConfig;
use chronos::core::store::MetadataStore;
use chronos::core::ChronosControl;
use chronos::http::{Client, Server};
use chronos::json::Value;
use chronos::server::ChronosServer;
use chronos::util::{Id, SystemClock};

/// A parsed raw-socket response: status code, lower-cased headers, body.
struct RawResponse {
    status: u16,
    headers: Vec<(String, String)>,
    body: String,
}

impl RawResponse {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n.eq_ignore_ascii_case(name)).map(|(_, v)| v.as_str())
    }

    fn envelope(&self) -> ErrorEnvelope {
        let value = chronos::json::parse(&self.body)
            .unwrap_or_else(|e| panic!("unparseable body {:?}: {e}", self.body));
        ErrorEnvelope::decode(&value).expect("typed error envelope")
    }
}

/// Reads everything the server sends until EOF and parses it as one
/// response (all shed and `Connection: close` responses end with EOF).
fn read_response(stream: &mut TcpStream) -> RawResponse {
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    assert!(!raw.is_empty(), "server closed the connection without a response");
    parse_response(&raw)
}

/// Reads one response off a connection that stays open: the head, then
/// exactly `Content-Length` body bytes.
fn read_keep_alive_response(stream: &mut TcpStream) -> RawResponse {
    let mut raw = Vec::new();
    let mut byte = [0u8; 1];
    while !raw.ends_with(b"\r\n\r\n") {
        let n = stream.read(&mut byte).expect("read response head");
        assert!(n > 0, "server closed the connection inside a response head");
        raw.push(byte[0]);
    }
    let length = parse_response(&raw)
        .header("content-length")
        .and_then(|v| v.parse::<usize>().ok())
        .expect("content-length");
    let mut body = vec![0u8; length];
    stream.read_exact(&mut body).expect("read response body");
    raw.extend_from_slice(&body);
    parse_response(&raw)
}

fn parse_response(raw: &[u8]) -> RawResponse {
    let text = String::from_utf8_lossy(raw).into_owned();
    let (head, body) = text.split_once("\r\n\r\n").expect("response head");
    let mut lines = head.lines();
    let status = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse::<u16>().ok())
        .unwrap_or_else(|| panic!("bad status line in {head:?}"));
    let headers = lines
        .filter_map(|line| {
            let (name, value) = line.split_once(':')?;
            Some((name.trim().to_ascii_lowercase(), value.trim().to_string()))
        })
        .collect();
    RawResponse { status, headers, body: body.to_string() }
}

/// One `GET path` over a fresh connection with `Connection: close`, plus
/// any extra header lines (already `\r\n`-terminated).
fn raw_get(addr: SocketAddr, path: &str, extra_headers: &str) -> RawResponse {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let request =
        format!("GET {path} HTTP/1.1\r\nHost: test\r\n{extra_headers}Connection: close\r\n\r\n");
    stream.write_all(request.as_bytes()).expect("write request");
    read_response(&mut stream)
}

/// A connection whose request never completes until [`HeldRequest::finish`]
/// sends the final blank line. It holds a connection open mid-request, not
/// a handler slot: a drain must wait for it, but it takes no capacity.
struct HeldRequest {
    stream: TcpStream,
}

impl HeldRequest {
    fn open(addr: SocketAddr, path: &str) -> HeldRequest {
        let mut stream = TcpStream::connect(addr).expect("connect holder");
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        // Complete request line, dangling header section: the worker parses
        // the line, then blocks polling for the rest of the head.
        let partial = format!("GET {path} HTTP/1.1\r\nHost: holder\r\n");
        stream.write_all(partial.as_bytes()).expect("write partial request");
        HeldRequest { stream }
    }

    /// Completes the request and returns the server's response.
    fn finish(mut self) -> RawResponse {
        self.stream.write_all(b"Connection: close\r\n\r\n").expect("finish request");
        read_response(&mut self.stream)
    }
}

fn small_control() -> Arc<ChronosControl> {
    let control = Arc::new(ChronosControl::new(
        MetadataStore::in_memory(),
        Arc::new(SystemClock),
        SchedulerConfig::default(),
    ));
    control.create_user("admin", "admin-pw", Role::Admin).unwrap();
    control
}

/// Spins until `condition` holds (the accept thread runs asynchronously).
fn wait_for(what: &str, mut condition: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !condition() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn healthz_and_readyz_answer_without_auth() {
    let server = ChronosServer::start(small_control(), "127.0.0.1:0").unwrap();
    let health = raw_get(server.addr(), "/healthz", "");
    assert_eq!(health.status, 200, "healthz body: {}", health.body);
    assert!(health.body.contains("\"ok\""), "healthz body: {}", health.body);

    let ready = raw_get(server.addr(), "/readyz", "");
    assert_eq!(ready.status, 200, "readyz body: {}", ready.body);
    let value = chronos::json::parse(&ready.body).unwrap();
    assert_eq!(value.get("ready").and_then(Value::as_bool), Some(true));
    assert_eq!(value.get("draining").and_then(Value::as_bool), Some(false));
    assert_eq!(value.get("store_healthy").and_then(Value::as_bool), Some(true));
}

#[test]
fn shed_connection_gets_typed_overloaded_envelope_with_retry_hints() {
    // Capacity one: a single worker and no queue slots, held by a request
    // parked in a gated handler.
    let gate = Arc::new(std::sync::Mutex::new(()));
    let guard = gate.lock().unwrap();
    let handler_gate = Arc::clone(&gate);
    let mut server = Server::new()
        .workers(1)
        .queue_depth(0)
        .retry_after(Duration::from_millis(250))
        .serve("127.0.0.1:0", move |_req| {
            drop(handler_gate.lock().unwrap_or_else(|poisoned| poisoned.into_inner()));
            chronos::http::Response::json(&chronos::json::obj! {"status" => "ok"})
        })
        .unwrap();
    let metrics = server.metrics();
    let addr = server.addr();

    // Pin the only handler slot with a held request…
    let holder = std::thread::spawn(move || raw_get(addr, "/healthz", ""));
    wait_for("holder admission", || metrics.requests.get() >= 1);

    // …so the next request must be shed with the typed envelope.
    let shed = raw_get(addr, "/healthz", "");
    assert_eq!(shed.status, 429, "expected a shed, got: {}", shed.body);
    let envelope = shed.envelope();
    assert!(envelope.is_retryable_overload(), "envelope: {envelope:?}");
    assert_eq!(shed.envelope().code, chronos::api::ErrorCode::Named(CODE_OVERLOADED.into()));
    // Both hint flavors: standard seconds (rounded up) and exact millis.
    assert_eq!(shed.header("retry-after"), Some("1"));
    assert_eq!(shed.header("x-chronos-retry-after-ms"), Some("250"));
    assert!(metrics.shed_overload.get() >= 1);

    // Releasing the held request frees the capacity again.
    drop(guard);
    let held = holder.join().expect("holder thread");
    assert_eq!(held.status, 200);
    // The handler slot is freed before the response is written, and the
    // connection's admission before `inflight` reads 0: the next request
    // is served at once.
    wait_for("capacity release", || metrics.inflight.get() == 0);
    let after = raw_get(addr, "/healthz", "");
    assert_eq!(after.status, 200, "after release: {}", after.body);
    server.shutdown();
}

#[test]
fn excess_requests_are_shed_per_request_and_their_connections_stay_open() {
    // The shape E12 relies on: every connection is admitted and admission
    // happens per request. One handler runs, one request waits, the rest
    // are shed on the spot with the typed 429 and keep their connections.
    const HOLD: Duration = Duration::from_millis(200);
    const CONNECTIONS: usize = 16;
    let queue_depth = 1;
    let server = Server::new()
        .workers(1)
        .queue_depth(queue_depth)
        .retry_after(Duration::from_millis(250))
        .serve("127.0.0.1:0", |_req| {
            std::thread::sleep(HOLD);
            chronos::http::Response::text(chronos::http::Status::OK, "held")
        })
        .unwrap();
    let metrics = server.metrics();
    let mut streams: Vec<TcpStream> = (0..CONNECTIONS)
        .map(|_| {
            let stream = TcpStream::connect(server.addr()).expect("connect");
            stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            stream.set_nodelay(true).unwrap();
            stream
        })
        .collect();
    wait_for("every connection admitted", || metrics.inflight.get() == CONNECTIONS as u64);

    let request = b"GET /held HTTP/1.1\r\nHost: test\r\n\r\n";
    let sent = Instant::now();
    for stream in &mut streams {
        stream.write_all(request).expect("write request");
    }
    let answers: Vec<(RawResponse, Duration)> = std::thread::scope(|scope| {
        let readers: Vec<_> = streams
            .iter_mut()
            .map(|stream| {
                scope.spawn(move || {
                    let response = read_keep_alive_response(stream);
                    (response, sent.elapsed())
                })
            })
            .collect();
        readers.into_iter().map(|r| r.join().expect("reader")).collect()
    });

    let served = answers.iter().filter(|(r, _)| r.status == 200).count();
    assert!(served >= 1, "no request was served");
    assert!(served <= 1 + queue_depth, "{served} served: more than workers + queue depth");
    for (response, waited) in &answers {
        assert_ne!(response.header("connection"), Some("close"), "connection closed");
        if response.status == 200 {
            assert!(
                *waited <= HOLD * (1 + queue_depth as u32) + Duration::from_millis(150),
                "a served request waited {waited:?}, longer than its place in the queue"
            );
            continue;
        }
        assert_eq!(response.status, 429, "neither served nor shed: {}", response.body);
        assert!(response.envelope().is_retryable_overload(), "body: {}", response.body);
        assert_eq!(response.header("retry-after"), Some("1"));
        assert_eq!(response.header("x-chronos-retry-after-ms"), Some("250"));
    }
    assert_eq!(metrics.shed_overload.get() as usize, CONNECTIONS - served);

    // Every shed connection is still open and serves its next request.
    for (stream, (response, _)) in streams.iter_mut().zip(&answers) {
        if response.status == 429 {
            stream.write_all(request).expect("write retry");
            assert_eq!(read_keep_alive_response(stream).status, 200, "retry on a shed connection");
        }
    }
    assert_eq!(metrics.inflight.get(), CONNECTIONS as u64);
}

#[test]
fn a_keep_alive_fleet_larger_than_workers_and_queue_is_served() {
    // Six keep-alive pollers against two workers and a two-place queue: an
    // idle connection takes no capacity, so a fleet larger than workers +
    // queue depth is served while its requests do not pile up.
    const CLIENTS: usize = 6;
    const POLL: Duration = Duration::from_millis(50);
    const WINDOW: Duration = Duration::from_secs(2);
    let mut server = ChronosServer::start_with(
        small_control(),
        "127.0.0.1:0",
        Server::new().workers(2).queue_depth(2),
    )
    .unwrap();
    let addr = server.addr();

    // The clients connect in order, each answered before the next connects.
    let mut clients: Vec<(Option<TcpStream>, u16)> = Vec::new();
    for _ in 0..CLIENTS {
        let mut stream = None;
        let status = poll_healthz(addr, &mut stream);
        clients.push((stream, status));
    }
    let started = Instant::now();
    let answers: Vec<Vec<u16>> = std::thread::scope(|scope| {
        let pollers: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(i, (mut stream, first))| {
                scope.spawn(move || {
                    // Spread over the polling period, as a fleet is.
                    std::thread::sleep(POLL * i as u32 / CLIENTS as u32);
                    let mut statuses = vec![first];
                    while started.elapsed() < WINDOW {
                        statuses.push(poll_healthz(addr, &mut stream));
                        std::thread::sleep(POLL);
                    }
                    statuses
                })
            })
            .collect();
        pollers.into_iter().map(|p| p.join().expect("poller")).collect()
    });
    for (client, statuses) in answers.iter().enumerate() {
        let served = statuses.iter().filter(|status| **status == 200).count();
        assert_eq!(
            served,
            statuses.len(),
            "client {client}: {served} of {} answers were 200: {statuses:?}",
            statuses.len()
        );
    }
    server.shutdown();
}

/// One keep-alive `GET /healthz` on `stream`, connecting first when it holds
/// no connection; a response that closes the connection drops it.
fn poll_healthz(addr: SocketAddr, stream: &mut Option<TcpStream>) -> u16 {
    let conn = stream.get_or_insert_with(|| {
        let conn = TcpStream::connect(addr).expect("connect");
        conn.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        conn.set_nodelay(true).unwrap();
        conn
    });
    conn.write_all(b"GET /healthz HTTP/1.1\r\nHost: fleet\r\n\r\n").expect("write request");
    let response = read_keep_alive_response(conn);
    if response.header("connection") == Some("close") {
        *stream = None;
    }
    response.status
}

#[test]
fn expired_deadline_is_refused_with_typed_504() {
    let mut server = ChronosServer::start(small_control(), "127.0.0.1:0").unwrap();
    let metrics = server.metrics();

    // A zero-millisecond budget has always expired by dispatch time.
    let refused = raw_get(server.addr(), "/healthz", "X-Chronos-Deadline-Ms: 0\r\n");
    assert_eq!(refused.status, 504, "body: {}", refused.body);
    let envelope = refused.envelope();
    assert!(envelope.is_deadline_exceeded(), "envelope: {envelope:?}");
    assert_eq!(envelope.code, chronos::api::ErrorCode::Named(CODE_DEADLINE_EXCEEDED.into()));
    assert_eq!(metrics.deadline_exceeded.get(), 1);

    // A generous budget sails through.
    let ok = raw_get(server.addr(), "/healthz", "X-Chronos-Deadline-Ms: 30000\r\n");
    assert_eq!(ok.status, 200, "body: {}", ok.body);
    server.shutdown();
}

#[test]
fn drain_finishes_inflight_requests_and_flips_readyz() {
    let mut server = ChronosServer::start_with(
        small_control(),
        "127.0.0.1:0",
        Server::new().workers(2).queue_depth(2),
    )
    .unwrap();
    let addr = server.addr();
    let metrics = server.metrics();

    // A keep-alive client connection, admitted while the server is healthy.
    let client = Client::new(&server.base_url()).with_timeout(Duration::from_secs(5));
    let ready = client.get("/readyz").unwrap();
    assert_eq!(ready.status.0, 200);

    // An in-flight request that drain must wait for.
    let holder = HeldRequest::open(addr, "/healthz");
    wait_for("holder admission", || metrics.inflight.get() >= 2);

    let (held_response, drain_clean) = std::thread::scope(|scope| {
        let drain = scope.spawn(|| server.drain());

        // While draining, readiness reports unavailability: either the
        // still-open keep-alive connection serves `/readyz` as 503
        // `ready:false` (then closes politely), or a reconnect is shed with
        // the typed 503 `draining` envelope. Both are correct; both say
        // "draining".
        let mut saw_draining = false;
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline && !saw_draining {
            match client.get("/readyz") {
                Ok(response) if response.status.0 == 503 => {
                    let body = String::from_utf8_lossy(&response.body).into_owned();
                    assert!(body.contains("draining"), "503 without drain marker: {body}");
                    saw_draining = true;
                }
                Ok(_) | Err(_) => std::thread::sleep(Duration::from_millis(10)),
            }
        }
        assert!(saw_draining, "readyz never reported draining");

        // The held request still completes — drain never drops admitted
        // work — and its connection is cut politely, not mid-keep-alive.
        let held_response = holder.finish();
        (held_response, drain.join().expect("drain thread"))
    });

    assert_eq!(held_response.status, 200, "in-flight request dropped during drain");
    assert_eq!(
        held_response.header("connection"),
        Some("close"),
        "drain must close served keep-alive connections politely"
    );
    assert!(drain_clean, "drain timed out with requests still in flight");
    assert!(server.is_draining());
    assert_eq!(server.pool_panics(), 0);

    // Fully stopped now: readiness can no longer be probed, and shutdown
    // after drain is an idempotent no-op.
    server.shutdown();
}

#[test]
fn agent_retry_honors_server_retry_after_hint() {
    // A stub control endpoint: the first claim attempt is shed with a
    // 150 ms Retry-After hint, the second returns an empty queue.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let hits = Arc::new(AtomicUsize::new(0));
    let stub_hits = Arc::clone(&hits);
    let stub = std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { continue };
            // Drain the request head + body (small, single read suffices
            // once the blank line has arrived).
            let mut buf = [0u8; 4096];
            let mut head = Vec::new();
            while !head.windows(4).any(|w| w == b"\r\n\r\n") {
                match stream.read(&mut buf) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => head.extend_from_slice(&buf[..n]),
                }
            }
            let hit = stub_hits.fetch_add(1, Ordering::SeqCst);
            let response = if hit == 0 {
                let body = r#"{"error":{"code":"overloaded","message":"stub shed"}}"#;
                format!(
                    "HTTP/1.1 429 Too Many Requests\r\nContent-Type: application/json\r\n\
                     Retry-After: 1\r\nX-Chronos-Retry-After-Ms: 150\r\n\
                     Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
                    body.len()
                )
            } else {
                "HTTP/1.1 204 No Content\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"
                    .to_string()
            };
            let _ = stream.write_all(response.as_bytes());
            if hit >= 1 {
                break;
            }
        }
    });

    let client = chronos::agent::ControlClient::new(&format!("http://{addr}"), "stub-token");
    let started = Instant::now();
    let claimed = client.claim(Id::generate()).expect("claim after retry");
    let elapsed = started.elapsed();
    stub.join().unwrap();

    assert!(claimed.is_none(), "stub reports an empty queue");
    assert_eq!(hits.load(Ordering::SeqCst), 2, "exactly one retry");
    assert!(
        elapsed >= Duration::from_millis(150),
        "retry fired after {elapsed:?}, before the 150 ms Retry-After hint"
    );
}

#[test]
fn every_connection_gets_an_answer_under_overload() {
    // Tight capacity and an aggressive client swarm: nobody may be dropped
    // silently — every connection ends in a 2xx or a typed shed.
    let mut server = ChronosServer::start_with(
        small_control(),
        "127.0.0.1:0",
        Server::new().workers(1).queue_depth(1).retry_after(Duration::from_millis(5)),
    )
    .unwrap();
    let addr = server.addr();
    let metrics = server.metrics();

    const THREADS: usize = 3;
    const REQUESTS: usize = 30;
    let counts: Vec<(u64, u64, u64)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(move || {
                    let (mut ok, mut shed, mut errors) = (0u64, 0u64, 0u64);
                    for _ in 0..REQUESTS {
                        let mut stream = TcpStream::connect(addr).expect("connect");
                        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
                        let request = "GET /healthz HTTP/1.1\r\nHost: swarm\r\n\
                                       Connection: close\r\n\r\n";
                        if stream.write_all(request.as_bytes()).is_err() {
                            errors += 1;
                            continue;
                        }
                        let mut raw = Vec::new();
                        if stream.read_to_end(&mut raw).is_err() || raw.is_empty() {
                            errors += 1;
                            continue;
                        }
                        let status = String::from_utf8_lossy(&raw)
                            .split_whitespace()
                            .nth(1)
                            .and_then(|s| s.parse::<u16>().ok())
                            .unwrap_or(0);
                        match status {
                            200..=299 => ok += 1,
                            429 => shed += 1,
                            other => panic!("unexpected status {other}"),
                        }
                    }
                    (ok, shed, errors)
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });

    let total = (THREADS * REQUESTS) as u64;
    let ok: u64 = counts.iter().map(|c| c.0).sum();
    let shed: u64 = counts.iter().map(|c| c.1).sum();
    let errors: u64 = counts.iter().map(|c| c.2).sum();
    assert_eq!(errors, 0, "connections dropped without a response");
    assert_eq!(ok + shed, total);
    assert!(ok >= 1, "no request was ever admitted");

    // Server-side accounting agrees: every connection was either admitted
    // or counted as shed — none vanished.
    wait_for("metrics settling", || metrics.accepted.get() + metrics.shed_overload.get() == total);
    assert_eq!(metrics.shed_draining.get(), 0);
    assert_eq!(server.pool_panics(), 0);
    server.shutdown();
}

/// The exact bytes of the `504` a spent budget gets, on a route with no
/// work, a cached read and a frozen v0 route: the refusal is the same
/// message whichever handler the request was bound for, and it is
/// answered before the handler (or authentication) runs.
#[test]
fn spent_deadline_gets_the_same_504_bytes_on_every_route() {
    let mut server = ChronosServer::start(small_control(), "127.0.0.1:0").unwrap();
    let metrics = server.metrics();
    let login = Client::new(&server.base_url())
        .post_json(
            "/api/v1/login",
            &chronos::json::obj! {"username" => "admin", "password" => "admin-pw"},
        )
        .unwrap();
    let token =
        login.json_body().unwrap().get("token").and_then(Value::as_str).unwrap().to_string();
    let evaluation = Id::generate().to_base32();
    let routes = [
        "/healthz".to_string(),
        "/api/v1/stats".into(),
        format!("/api/v0/evaluations/{evaluation}/status"),
    ];
    let body = r#"{"error":{"code":"deadline_exceeded","message":"deadline expired before the handler ran"}}"#;
    let expected = format!(
        "HTTP/1.1 504 Gateway Timeout\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    for (i, path) in routes.iter().enumerate() {
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let request = format!(
            "GET {path} HTTP/1.1\r\nHost: test\r\nX-Chronos-Token: {token}\r\n\
             X-Chronos-Deadline-Ms: 0\r\nConnection: close\r\n\r\n"
        );
        stream.write_all(request.as_bytes()).expect("write request");
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).expect("read response");
        assert_eq!(String::from_utf8_lossy(&raw), expected, "GET {path}");
        assert_eq!(metrics.deadline_exceeded.get(), i as u64 + 1, "GET {path}");
    }
    server.shutdown();
}
