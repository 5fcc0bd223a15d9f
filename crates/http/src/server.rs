//! HTTP/1.1 server: worker threads sharing one epoll, each request served
//! start to finish by the thread that reads it.
//!
//! Handles exactly what the Chronos REST API needs: persistent connections,
//! `Content-Length` bodies (both directions), a body size cap for untrusted
//! uploads, and graceful shutdown so integration tests can tear servers
//! down deterministically.
//!
//! Every socket is registered with one epoll that all worker threads wait
//! on (see [`crate::reactor`]). Each connection is armed one-shot, so the
//! one thread that sees it ready owns it: it reads and parses the request
//! incrementally ([`crate::parser`]), runs the handler inline and writes
//! the response, then re-arms the connection. An idle keep-alive connection
//! costs a few hundred bytes of state, not a thread, so one box holds tens
//! of thousands of polling agents. The core is built on epoll, so
//! [`Server::serve`] works on Linux only and returns
//! [`std::io::ErrorKind::Unsupported`] elsewhere.
//!
//! # Overload protection
//!
//! Admission bounds *requests*, not connections: every connection accepted
//! while the server runs is admitted, at most `workers` requests run inside
//! handlers and at most `queue_depth` parsed requests wait beyond them. The
//! rest are shed cheaply — a typed `429`
//! `{"error":{"code":"overloaded",...}}` body with `Retry-After` hints, on a
//! connection that stays open — instead of queueing work until collapse.
//! Open connections are bounded by the process's descriptor limit alone.
//! A request whose `X-Chronos-Deadline-Ms` budget is spent when it gets its
//! handler slot is answered `504 deadline_exceeded` without running the
//! handler. `accepted + shed == total connections` holds exactly for
//! one-request (`Connection: close`) connections.
//!
//! # Graceful drain
//!
//! [`ServerHandle::drain`] runs a two-phase shutdown: first *draining* —
//! new connections get `503 draining`, in-flight requests finish and their
//! keep-alive connections are closed politely with `Connection: close` —
//! then, once no connection is in flight, *stopped*: the workers exit and
//! the listener closes. [`ServerHandle::shutdown`] is drain followed by
//! teardown, so no accepted request is ever silently dropped.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use chronos_json::{obj, Value};
use chronos_metrics::{Counter, Gauge};

use crate::types::{Request, Response};

/// Maximum accepted request body (64 MiB — result zips can be large).
pub const MAX_BODY_BYTES: usize = 64 * 1024 * 1024;
/// Maximum length of the request line plus headers.
pub(crate) const MAX_HEAD_BYTES: usize = 64 * 1024;
/// How long [`ServerHandle::drain`] waits for in-flight requests before
/// giving up and tearing down anyway.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);

/// Lifecycle phases of a running server.
pub(crate) const PHASE_RUNNING: u8 = 0;
pub(crate) const PHASE_DRAINING: u8 = 1;
pub(crate) const PHASE_STOPPED: u8 = 2;

/// Default stall budget while reading a request head or body: a request
/// whose bytes stop flowing for this long is a slowloris, not a slow link.
const DEFAULT_HEADER_READ_TIMEOUT: Duration = Duration::from_secs(30);
/// Default keep-alive idle timeout. Polling agents call in far more often
/// than this; a connection quiet for a full minute is almost certainly
/// abandoned.
const DEFAULT_IDLE_TIMEOUT: Duration = Duration::from_secs(60);

/// Counters surfaced by a running server: admission decisions and the
/// current in-flight level. Shared with the dispatch layer (which counts
/// the read cache) and the status UI.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    /// Connections whose first request got a handler slot or a queue place.
    pub accepted: Counter,
    /// Requests fully parsed and handed to the handler.
    pub requests: Counter,
    /// Requests shed with `429 overloaded` (every handler slot and queue
    /// place taken).
    pub shed_overload: Counter,
    /// Connections shed with `503 draining` during shutdown.
    pub shed_draining: Counter,
    /// Requests answered `504 deadline_exceeded`: their budget was spent
    /// when they got a handler slot (counted by the transport).
    pub deadline_exceeded: Counter,
    /// Connections dropped (or answered `408 request_timeout`) for stalling:
    /// keep-alive idle past the cap, or a head/body read that timed out
    /// (slowloris).
    pub shed_idle: Counter,
    /// Connections accepted while running and still open.
    pub inflight: Gauge,
    /// All tracked connections, admitted or being shed.
    pub open_connections: Gauge,
    /// Keep-alive connections currently idle between requests.
    pub idle_keepalive: Gauge,
    /// Returns from `epoll_wait`, summed over the worker threads (ready
    /// events and timer ticks).
    pub reactor_loops: Counter,
    /// Eventfd nudges the workers observed. Only a drain or a shutdown
    /// writes the eventfd — a request is served by the thread that reads
    /// it, so serving never adds to this count.
    pub wakeups: Counter,
    /// Cluster role of this node: 0 follower, 1 candidate, 2 leader
    /// (single-node deployments stay 2, the write-accepting role).
    pub cluster_role: Gauge,
    /// Current cluster term (the fencing token); 0 outside cluster mode.
    pub cluster_term: Gauge,
    /// Milliseconds since the last leader contact (0 while leading).
    pub replication_lag_ms: Gauge,
    /// Elections this node has started.
    pub elections: Counter,
    /// Replication segments shipped while leading (heartbeats excluded).
    pub segments_shipped: Counter,
    /// Cached read routes answered from the encoded-response cache
    /// (incremented, like the two below, by the dispatch layer).
    pub read_cache_hits: Counter,
    /// Cached read routes that computed their body.
    pub read_cache_misses: Counter,
    /// Conditional requests answered `304` from the version alone.
    pub not_modified: Counter,
}

impl ServerMetrics {
    /// A fresh, shareable metrics block.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// JSON snapshot for health endpoints and the status UI.
    pub fn to_json(&self) -> Value {
        obj! {
            "accepted" => self.accepted.get() as i64,
            "requests" => self.requests.get() as i64,
            "shed_overload" => self.shed_overload.get() as i64,
            "shed_draining" => self.shed_draining.get() as i64,
            "deadline_exceeded" => self.deadline_exceeded.get() as i64,
            "shed_idle" => self.shed_idle.get() as i64,
            "inflight" => self.inflight.get() as i64,
            "open_connections" => self.open_connections.get() as i64,
            "idle_keepalive" => self.idle_keepalive.get() as i64,
            "reactor_loops" => self.reactor_loops.get() as i64,
            "wakeups" => self.wakeups.get() as i64,
            "cluster_role" => self.cluster_role.get() as i64,
            "cluster_term" => self.cluster_term.get() as i64,
            "replication_lag_ms" => self.replication_lag_ms.get() as i64,
            "elections" => self.elections.get() as i64,
            "segments_shipped" => self.segments_shipped.get() as i64,
            "read_cache_hits" => self.read_cache_hits.get() as i64,
            "read_cache_misses" => self.read_cache_misses.get() as i64,
            "not_modified" => self.not_modified.get() as i64,
        }
    }
}

/// Lifecycle + metrics state shared between the workers and the
/// [`ServerHandle`].
pub(crate) struct Shared {
    pub(crate) phase: AtomicU8,
    pub(crate) metrics: Arc<ServerMetrics>,
    /// Handler panics caught (each answered with a typed `500`).
    pub(crate) panics: AtomicUsize,
}

impl Shared {
    pub(crate) fn phase(&self) -> u8 {
        self.phase.load(Ordering::SeqCst)
    }
}

/// The server configuration and entry point.
pub struct Server {
    workers: usize,
    queue_depth: Option<usize>,
    retry_after: Duration,
    metrics: Option<Arc<ServerMetrics>>,
    header_read_timeout: Duration,
    idle_timeout: Duration,
}

/// A handle to a running server: address introspection, metrics, drain and
/// shutdown.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    /// The worker threads; `None` once drained.
    #[cfg(target_os = "linux")]
    workers: Option<crate::reactor::Workers>,
}

impl Default for Server {
    fn default() -> Self {
        Self::new()
    }
}

impl Server {
    /// Creates a server with a default worker count (2× CPUs, min 4) and
    /// bounded request admission (queue depth 2× workers).
    pub fn new() -> Self {
        let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
        Server {
            workers: (cpus * 2).max(4),
            queue_depth: None,
            retry_after: Duration::from_secs(1),
            metrics: None,
            header_read_timeout: DEFAULT_HEADER_READ_TIMEOUT,
            idle_timeout: DEFAULT_IDLE_TIMEOUT,
        }
    }

    /// Overrides the stall budget for reading one request's head and body
    /// (the slowloris guard). A request whose bytes stop flowing for this
    /// long is answered `408 request_timeout` and closed. Default 30 s.
    pub fn header_read_timeout(mut self, timeout: Duration) -> Self {
        self.header_read_timeout = timeout.max(Duration::from_millis(1));
        self
    }

    /// Overrides how long a keep-alive connection may sit idle between
    /// requests before the server closes it (default 60 s).
    pub fn idle_timeout(mut self, timeout: Duration) -> Self {
        self.idle_timeout = timeout.max(Duration::from_millis(1));
        self
    }

    /// Overrides how many requests may run inside handlers at once (one
    /// worker thread each). A spare thread beside them accepts, queues and
    /// sheds while every handler slot is taken.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Overrides the bounded queue depth (parsed requests waiting for a
    /// handler slot beyond the ones being served). Default: 2× workers.
    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = Some(depth);
        self
    }

    /// Overrides the `Retry-After` hint attached to shed responses.
    pub fn retry_after(mut self, hint: Duration) -> Self {
        self.retry_after = hint;
        self
    }

    /// Shares an externally created metrics block (the dispatch layer needs
    /// it before the server starts, to count read-cache hits).
    pub fn with_metrics(mut self, metrics: Arc<ServerMetrics>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and starts
    /// serving `handler` on background threads. Returns immediately.
    pub fn serve<F>(self, addr: &str, handler: F) -> std::io::Result<ServerHandle>
    where
        F: Fn(Request) -> Response + Send + Sync + 'static,
    {
        #[cfg(not(target_os = "linux"))]
        {
            let _ = (addr, handler);
            return Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "chronos-http serves on Linux only (epoll reactor)",
            ));
        }
        #[cfg(target_os = "linux")]
        {
            let listener = std::net::TcpListener::bind(addr)?;
            let local_addr = listener.local_addr()?;
            let cfg = crate::reactor::ReactorConfig {
                workers: self.workers,
                queue_depth: self.queue_depth.unwrap_or(self.workers * 2),
                retry_after: self.retry_after,
                header_read_timeout: self.header_read_timeout,
                idle_timeout: self.idle_timeout,
            };
            let metrics = self.metrics.unwrap_or_else(ServerMetrics::shared);
            let shared = Arc::new(Shared {
                phase: AtomicU8::new(PHASE_RUNNING),
                metrics,
                panics: AtomicUsize::new(0),
            });
            let workers = crate::reactor::spawn(listener, Arc::clone(&shared), handler, cfg)?;
            Ok(ServerHandle { addr: local_addr, shared, workers: Some(workers) })
        }
    }
}

impl ServerHandle {
    /// The bound socket address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Base URL of the server, e.g. `http://127.0.0.1:8080`.
    pub fn base_url(&self) -> String {
        format!("http://{}", self.addr)
    }

    /// The server's admission metrics.
    pub fn metrics(&self) -> Arc<ServerMetrics> {
        Arc::clone(&self.shared.metrics)
    }

    /// Whether the server is draining (or already stopped) — the readiness
    /// signal behind `/readyz`.
    pub fn is_draining(&self) -> bool {
        self.shared.phase() != PHASE_RUNNING
    }

    /// Number of handler calls that panicked. The worker catches each one,
    /// answers its request with a typed `500 internal` and `Connection:
    /// close`, and serves on.
    pub fn pool_panics(&self) -> usize {
        self.shared.panics.load(Ordering::Relaxed)
    }

    /// Two-phase graceful drain. Phase one: stop admitting work — new
    /// connections get `503 draining`, in-flight requests finish and their
    /// keep-alive connections close politely (`Connection: close`). Phase
    /// two, once nothing is in flight: join the workers and close the
    /// listener. Idempotent. Returns `true` when every in-flight request
    /// completed before teardown (`false` only if [`DRAIN_TIMEOUT`]
    /// expired).
    pub fn drain(&mut self) -> bool {
        let was = self.shared.phase.compare_exchange(
            PHASE_RUNNING,
            PHASE_DRAINING,
            Ordering::SeqCst,
            Ordering::SeqCst,
        );
        if was.is_err() && !self.running() {
            return true; // already drained
        }
        // Nudge the workers so they sweep idle keep-alive connections now
        // instead of on their next tick.
        self.wake_workers();
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        while self.shared.metrics.inflight.get() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let clean = self.shared.metrics.inflight.get() == 0;
        self.shared.phase.store(PHASE_STOPPED, Ordering::SeqCst);
        self.wake_workers();
        #[cfg(target_os = "linux")]
        if let Some(workers) = self.workers.take() {
            workers.join();
        }
        clean
    }

    /// Graceful shutdown: [`ServerHandle::drain`] then teardown. Idempotent.
    pub fn shutdown(&mut self) {
        let _ = self.drain();
    }

    /// Whether the worker threads are still there to join.
    fn running(&self) -> bool {
        #[cfg(target_os = "linux")]
        return self.workers.is_some();
        #[cfg(not(target_os = "linux"))]
        false
    }

    /// Wakes the workers so they re-read the lifecycle phase now.
    fn wake_workers(&self) {
        #[cfg(target_os = "linux")]
        if let Some(workers) = &self.workers {
            workers.wake();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::types::{Status, CODE_OVERLOADED};
    use chronos_json::obj;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    fn echo_server() -> ServerHandle {
        Server::new()
            .workers(4)
            .serve("127.0.0.1:0", |req| {
                let doc = obj! {
                    "method" => req.method.as_str(),
                    "path" => req.path.clone(),
                    "query" => req.query.clone(),
                    "body_len" => req.body.len(),
                };
                Response::json(&doc)
            })
            .expect("bind")
    }

    #[test]
    fn serves_requests() {
        let server = echo_server();
        let client = Client::new(&server.base_url());
        let resp = client.get("/hello?x=1").unwrap();
        assert_eq!(resp.status, Status::OK);
        let j = resp.json_body().unwrap();
        assert_eq!(j.get("method").and_then(|v| v.as_str()), Some("GET"));
        assert_eq!(j.get("path").and_then(|v| v.as_str()), Some("/hello"));
        assert_eq!(j.get("query").and_then(|v| v.as_str()), Some("x=1"));
    }

    #[test]
    fn posts_bodies() {
        let server = echo_server();
        let client = Client::new(&server.base_url());
        let resp = client.post_json("/submit", &obj! {"k" => "v"}).unwrap();
        let j = resp.json_body().unwrap();
        assert_eq!(j.get("body_len").and_then(|v| v.as_u64()), Some(9)); // {"k":"v"}
    }

    #[test]
    fn keep_alive_reuses_connection() {
        let server = echo_server();
        let client = Client::new(&server.base_url());
        // Multiple sequential requests through one client exercise keep-alive.
        for i in 0..5 {
            let resp = client.get(&format!("/req/{i}")).unwrap();
            assert!(resp.status.is_success());
        }
    }

    #[test]
    fn concurrent_requests() {
        let server = echo_server();
        let url = server.base_url();
        let results = chronos_util::pool::scoped_indexed(8, |i| {
            let client = Client::new(&url);
            let resp = client.get(&format!("/thread/{i}")).unwrap();
            resp.status.is_success()
        });
        assert!(results.into_iter().all(|ok| ok));
    }

    #[test]
    fn shutdown_stops_server() {
        let mut server = echo_server();
        let url = server.base_url();
        server.shutdown();
        let client = Client::new(&url);
        // After shutdown either connection or request fails.
        assert!(client.get("/x").is_err() || !client.get("/x").unwrap().status.is_success());
    }

    #[test]
    fn rejects_oversized_content_length_header() {
        let server = echo_server();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        write!(
            stream,
            "POST /x HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        )
        .unwrap();
        let mut buf = String::new();
        let mut reader = BufReader::new(stream);
        reader.read_line(&mut buf).unwrap();
        assert!(buf.contains("413"), "got {buf}");
    }

    #[test]
    fn rejects_garbage_request_line() {
        let server = echo_server();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.write_all(b"NONSENSE\r\n\r\n").unwrap();
        let mut buf = String::new();
        let mut reader = BufReader::new(stream);
        reader.read_line(&mut buf).unwrap();
        assert!(buf.contains("400"), "got {buf}");
    }

    #[test]
    fn large_declared_body_with_no_bytes_is_rejected_gracefully() {
        let server = echo_server();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        // Declare a large (but acceptable) body and send nothing: the
        // server must time the read out and drop the connection without
        // ballooning memory or panicking, then keep serving others.
        write!(stream, "POST /x HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n", 1024 * 1024)
            .unwrap();
        drop(stream); // EOF mid-body
        let client = Client::new(&server.base_url());
        assert!(client.get("/alive").unwrap().status.is_success());
    }

    #[test]
    fn sheds_with_typed_envelope_when_queue_is_full() {
        // One worker parked in a slow handler, queue depth 0: the second
        // request must be shed with a typed 429 while the first is still
        // being served.
        let gate = Arc::new(parking_lot::Mutex::new(()));
        let guard = gate.lock();
        let handler_gate = Arc::clone(&gate);
        let server = Server::new()
            .workers(1)
            .queue_depth(0)
            .serve("127.0.0.1:0", move |_req| {
                drop(handler_gate.lock());
                Response::text(Status::OK, "slow")
            })
            .expect("bind");
        let url = server.base_url();
        let slow = std::thread::spawn({
            let url = url.clone();
            move || Client::new(&url).get("/slow")
        });
        // Wait for the first request to occupy the worker.
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.metrics().requests.get() == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let resp = Client::new(&url).get("/second").unwrap();
        assert_eq!(resp.status, Status::TOO_MANY_REQUESTS);
        let j = resp.json_body().unwrap();
        assert_eq!(j.pointer("/error/code").and_then(|v| v.as_str()), Some(CODE_OVERLOADED));
        assert!(resp.retry_after().is_some(), "shed response must carry Retry-After");
        assert!(server.metrics().shed_overload.get() >= 1);
        drop(guard);
        assert!(slow.join().unwrap().unwrap().status.is_success());
    }

    #[test]
    fn drain_finishes_inflight_and_sheds_new_connections() {
        let gate = Arc::new(parking_lot::Mutex::new(()));
        let guard = gate.lock();
        let handler_gate = Arc::clone(&gate);
        let server = Server::new()
            .workers(2)
            .serve("127.0.0.1:0", move |_req| {
                drop(handler_gate.lock());
                Response::text(Status::OK, "done")
            })
            .expect("bind");
        let url = server.base_url();
        let inflight = std::thread::spawn({
            let url = url.clone();
            move || Client::new(&url).get("/inflight")
        });
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.metrics().requests.get() == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        // Drain on a side thread; release the parked handler shortly after
        // it has begun, so drain observes a genuinely in-flight request.
        let drain_thread = std::thread::spawn(move || {
            let mut server = server;
            let clean = server.drain();
            (server, clean)
        });
        std::thread::sleep(Duration::from_millis(100));
        drop(guard);
        let (server, clean) = drain_thread.join().unwrap();
        assert!(clean, "drain must complete with no dropped request");
        // The in-flight request finished with a response.
        let resp = inflight.join().unwrap().unwrap();
        assert!(resp.status.is_success());
        // New connections are refused entirely now.
        assert!(Client::new(&url).get("/late").is_err());
        assert_eq!(server.pool_panics(), 0);
    }
}
