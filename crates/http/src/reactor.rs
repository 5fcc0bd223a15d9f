//! Event-driven reactor: one epoll loop owning every connection.
//!
//! A single reactor thread multiplexes all sockets through epoll; an idle
//! keep-alive connection costs a slab slot and a (shrunk) parse buffer — a
//! few hundred bytes — not a thread. Handler CPU runs on the bounded worker
//! pool: the reactor parses complete requests, dispatches them, and workers
//! hand the finished response back through a completion queue plus an
//! eventfd wakeup.
//!
//! Per-connection state machine:
//!
//! ```text
//! accept → ReadingHeaders → ReadingBody → Dispatched → WritingResponse
//!              ↑  ↑                                        │
//!              │  └────────── KeepAliveIdle ←──────────────┤
//!              └───────────── (pipelined request) ←────────┘
//! ```
//!
//! Admission invariants: `max_inflight` caps *open admitted connections*,
//! idle keep-alive ones included (shed at accept with the typed
//! `429 overloaded` envelope); drain closes idle connections immediately
//! and lets in-flight requests finish with a polite `Connection: close`;
//! and `accepted + shed == total connections` holds exactly.
//!
//! Liveness note: a worker's wakeup write can be lost (that is literally a
//! failpoint below). The loop therefore never sleeps longer than
//! [`TICK_MS`] and drains the completion queue on every iteration, so a
//! lost wakeup costs latency, never a stuck response.

use std::io::{IoSlice, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use chronos_util::fail::Injected;
use chronos_util::ThreadPool;
use parking_lot::Mutex;

use crate::parser::{ParseError, ParsedRequest, RequestParser};
use crate::server::{ServerMetrics, Shared, PHASE_DRAINING, PHASE_RUNNING, PHASE_STOPPED};
use crate::sys::linux::{Epoll, EpollEvent, EventFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT};
use crate::types::{Method, Request, Response, Status};
use crate::types::{CODE_DRAINING, CODE_OVERLOADED, CODE_REQUEST_TIMEOUT};

/// Epoll token reserved for the listening socket.
const TOKEN_LISTENER: u64 = u64::MAX;
/// Epoll token reserved for the completion-queue eventfd.
const TOKEN_WAKE: u64 = u64::MAX - 1;
/// Upper bound on one `epoll_wait` sleep — the completion-drain heartbeat.
const TICK_MS: i32 = 100;
/// Read chunk size (stack buffer; bytes are copied into the parser).
const READ_CHUNK: usize = 16 * 1024;
/// How many consecutive reads one connection may monopolize the loop with
/// before yielding to the other ready connections.
const MAX_READS_PER_EVENT: usize = 16;

/// Admission and timeout knobs, fixed at `serve` time.
pub(crate) struct ReactorConfig {
    /// Cap on open admitted connections, idle keep-alive ones included.
    pub max_inflight: usize,
    /// `Retry-After` hint attached to shed responses.
    pub retry_after: Duration,
    /// Stall budget while reading a request head or body (slowloris guard).
    pub header_read_timeout: Duration,
    /// How long a keep-alive connection may sit idle between requests.
    pub idle_timeout: Duration,
}

/// A finished handler invocation traveling back to the reactor thread.
struct Completion {
    slot: usize,
    generation: u64,
    /// `None` models the dropped-response fault (`http.server.drop_response`):
    /// effects committed, client never hears back.
    response: Option<Response>,
    method: Method,
    keep_alive: bool,
}

/// Where a connection currently is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnState {
    /// Waiting for (more of) the request line + headers.
    ReadingHeaders,
    /// Head parsed; body bytes still arriving.
    ReadingBody,
    /// A complete request is on the worker pool; socket interest is off.
    Dispatched,
    /// Response partially written; resumes on `EPOLLOUT`.
    WritingResponse,
    /// Between requests on a keep-alive connection.
    KeepAliveIdle,
}

struct Conn {
    stream: TcpStream,
    state: ConnState,
    parser: RequestParser,
    /// Response being written: the serialized head, the handler's body
    /// (moved, not copied; empty for `HEAD`), and how many bytes of the
    /// two together already went out.
    head: Vec<u8>,
    body: Vec<u8>,
    out_pos: usize,
    /// Current epoll interest set (to skip redundant `EPOLL_CTL_MOD`s).
    interest: u32,
    /// Counted against `max_inflight` / the `inflight` gauge. Shed
    /// connections (typed refusal being written) are tracked but not
    /// admitted.
    admitted: bool,
    /// Counted in the `accepted` counter — set when the connection's first
    /// request reaches the worker pool, so `accepted + shed == total
    /// connections`.
    accepted: bool,
    close_after_write: bool,
    /// Active timeout, if any; the wheel entry re-checks this on expiry.
    deadline: Option<Instant>,
    /// Wheel slot the connection is currently scheduled in (dedupes
    /// re-arms that land in the same slot).
    sched_slot: Option<usize>,
    /// Counted in the `idle_keepalive` gauge.
    idle: bool,
}

/// Hashed timer wheel: 512 slots × 128 ms ≈ 65 s horizon, O(1) schedule,
/// O(slots-passed) advance. Deadlines beyond the horizon clamp to the far
/// edge and re-arm when they fire early; entries staled by a deadline reset
/// or connection close are dropped on expiry by generation / deadline
/// re-checks.
struct TimerWheel {
    slots: Vec<Vec<(usize, u64)>>,
    cursor: usize,
    anchor: Instant,
}

impl TimerWheel {
    const GRANULARITY: Duration = Duration::from_millis(128);
    const SLOTS: usize = 512;

    fn new(now: Instant) -> Self {
        TimerWheel { slots: vec![Vec::new(); Self::SLOTS], cursor: 0, anchor: now }
    }

    /// The slot a deadline lands in, at least one tick ahead of the cursor.
    fn slot_for(&self, now: Instant, deadline: Instant) -> usize {
        let delta = deadline.saturating_duration_since(now);
        let ticks = (delta.as_millis() / Self::GRANULARITY.as_millis()) as usize + 1;
        (self.cursor + ticks.min(Self::SLOTS - 1)) % Self::SLOTS
    }

    fn schedule(&mut self, slot: usize, conn: usize, generation: u64) {
        self.slots[slot].push((conn, generation));
    }

    /// Moves the cursor up to `now`, collecting entries from every slot
    /// passed.
    fn advance(&mut self, now: Instant, expired: &mut Vec<(usize, u64)>) {
        while self.anchor + Self::GRANULARITY <= now {
            self.cursor = (self.cursor + 1) % Self::SLOTS;
            self.anchor += Self::GRANULARITY;
            expired.append(&mut self.slots[self.cursor]);
        }
    }
}

/// Arms (or re-arms) a connection's timeout. Written as a free function so
/// callers holding a `&mut Conn` borrow can still reach the wheel.
fn arm_timer(
    wheel: &mut TimerWheel,
    conn: &mut Conn,
    slot: usize,
    generation: u64,
    now: Instant,
    deadline: Instant,
) {
    conn.deadline = Some(deadline);
    let wheel_slot = wheel.slot_for(now, deadline);
    if conn.sched_slot != Some(wheel_slot) {
        wheel.schedule(wheel_slot, slot, generation);
        conn.sched_slot = Some(wheel_slot);
    }
}

struct Reactor<F> {
    epoll: Epoll,
    listener: TcpListener,
    wake: Arc<EventFd>,
    completions: Arc<Mutex<Vec<Completion>>>,
    shared: Arc<Shared>,
    metrics: Arc<ServerMetrics>,
    pool: Arc<ThreadPool>,
    handler: Arc<F>,
    cfg: ReactorConfig,
    conns: Vec<Option<Conn>>,
    /// Per-slot generation counter, bumped on close; defends completions and
    /// timer entries against slot reuse.
    generations: Vec<u64>,
    free: Vec<usize>,
    /// Slots freed during the current iteration; merged into `free` only at
    /// the end so a stale readiness event in the same batch cannot hit a
    /// freshly reused slot.
    pending_free: Vec<usize>,
    /// Open admitted connections (the value `max_inflight` caps).
    admitted: usize,
    wheel: TimerWheel,
}

/// Spawns the reactor thread. Returns the join handle and the eventfd used
/// to nudge the loop (drain/shutdown, worker completions).
pub(crate) fn spawn<F>(
    listener: TcpListener,
    shared: Arc<Shared>,
    pool: Arc<ThreadPool>,
    handler: Arc<F>,
    cfg: ReactorConfig,
) -> std::io::Result<(JoinHandle<()>, Arc<EventFd>)>
where
    F: Fn(Request) -> Response + Send + Sync + 'static,
{
    listener.set_nonblocking(true)?;
    let epoll = Epoll::new()?;
    let wake = Arc::new(EventFd::new()?);
    epoll.add(listener.as_raw_fd(), TOKEN_LISTENER, EPOLLIN)?;
    epoll.add(wake.fd(), TOKEN_WAKE, EPOLLIN)?;
    let metrics = Arc::clone(&shared.metrics);
    let reactor = Reactor {
        epoll,
        listener,
        wake: Arc::clone(&wake),
        completions: Arc::new(Mutex::new(Vec::new())),
        shared,
        metrics,
        pool,
        handler,
        cfg,
        conns: Vec::new(),
        generations: Vec::new(),
        free: Vec::new(),
        pending_free: Vec::new(),
        admitted: 0,
        wheel: TimerWheel::new(Instant::now()),
    };
    let thread = std::thread::Builder::new()
        .name("chronos-http-reactor".to_string())
        .spawn(move || reactor.run())?;
    Ok((thread, wake))
}

impl<F> Reactor<F>
where
    F: Fn(Request) -> Response + Send + Sync + 'static,
{
    fn run(mut self) {
        let mut events = vec![EpollEvent::empty(); 256];
        let mut expired = Vec::new();
        loop {
            if self.shared.phase() == PHASE_STOPPED {
                break;
            }
            let ready = self.epoll.wait(&mut events, TICK_MS).unwrap_or(0);
            self.metrics.reactor_loops.inc();
            for event in events.iter().take(ready) {
                let (token, readiness) = (event.token(), event.readiness());
                match token {
                    TOKEN_LISTENER => self.accept_burst(),
                    TOKEN_WAKE => {
                        self.wake.drain();
                        self.metrics.wakeups.inc();
                    }
                    slot => self.conn_event(slot as usize, readiness),
                }
            }
            self.drain_completions();
            let now = Instant::now();
            self.wheel.advance(now, &mut expired);
            for (slot, generation) in expired.drain(..) {
                self.fire_timer(slot, generation, now);
            }
            if self.shared.phase() == PHASE_DRAINING {
                self.close_idle_for_drain();
            }
            self.free.append(&mut self.pending_free);
        }
        // Teardown: close every remaining connection (gauges go to zero),
        // then drop the listener, pool handle and queues with `self`.
        for slot in 0..self.conns.len() {
            if self.conns[slot].is_some() {
                self.close(slot);
            }
        }
    }

    /// Accepts until the backlog is empty. Each connection is admitted, or
    /// refused with `503 draining` / `429 overloaded` (in-flight cap hit);
    /// refusals are written asynchronously, so a slow shed peer cannot
    /// stall accepting.
    fn accept_burst(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if chronos_util::fail_eval!("http.reactor.accept").is_some() {
                        // Fault: the connection dies before admission — the
                        // client sees a reset and retries.
                        drop(stream);
                        continue;
                    }
                    match self.shared.phase() {
                        PHASE_STOPPED => return,
                        PHASE_DRAINING => {
                            self.metrics.shed_draining.inc();
                            self.shed(
                                stream,
                                Status::SERVICE_UNAVAILABLE,
                                CODE_DRAINING,
                                "server is draining; connection not accepted",
                            );
                            continue;
                        }
                        _ => {}
                    }
                    if self.admitted >= self.cfg.max_inflight {
                        self.metrics.shed_overload.inc();
                        self.shed(
                            stream,
                            Status::TOO_MANY_REQUESTS,
                            CODE_OVERLOADED,
                            "connection limit reached; retry later",
                        );
                        continue;
                    }
                    self.admit(stream);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                // Transient per-connection accept errors (e.g. the peer
                // reset before we got to it): keep accepting.
                Err(_) => return,
            }
        }
    }

    /// Registers an admitted connection and starts its header-read clock.
    fn admit(&mut self, stream: TcpStream) {
        let Some(slot) = self.register(stream, EPOLLIN) else { return };
        self.admitted += 1;
        self.metrics.inflight.inc();
        let now = Instant::now();
        let generation = self.generations[slot];
        let deadline = now + self.cfg.header_read_timeout;
        let conn = self.conns[slot].as_mut().expect("slot just registered");
        conn.admitted = true;
        arm_timer(&mut self.wheel, conn, slot, generation, now, deadline);
    }

    /// Writes a typed refusal on a connection the server will not admit.
    /// Backpressure from the peer parks the refusal in the event loop
    /// instead of stalling accepts — under overload every connection still
    /// gets its envelope.
    fn shed(&mut self, stream: TcpStream, status: Status, code: &str, message: &str) {
        let response =
            Response::error_named(status, code, message).with_retry_after(self.cfg.retry_after);
        // Interest starts empty: a shed connection's inbound bytes are
        // irrelevant and must not busy-loop the level-triggered poll.
        let Some(slot) = self.register(stream, 0) else { return };
        {
            let conn = self.conns[slot].as_mut().expect("slot just registered");
            conn.head = serialize_head(&response, false);
            conn.body = response.body;
            conn.state = ConnState::WritingResponse;
            conn.close_after_write = true;
        }
        self.try_write(slot);
    }

    /// Puts a fresh socket into the slab + epoll. Returns its slot, or
    /// `None` if registration failed (the socket is dropped).
    fn register(&mut self, stream: TcpStream, interest: u32) -> Option<usize> {
        if stream.set_nonblocking(true).is_err() {
            return None;
        }
        let _ = stream.set_nodelay(true);
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                self.conns.push(None);
                self.generations.push(0);
                self.conns.len() - 1
            }
        };
        if self.epoll.add(stream.as_raw_fd(), slot as u64, interest).is_err() {
            self.free.push(slot);
            return None;
        }
        self.conns[slot] = Some(Conn {
            stream,
            state: ConnState::ReadingHeaders,
            parser: RequestParser::new(),
            head: Vec::new(),
            body: Vec::new(),
            out_pos: 0,
            interest,
            admitted: false,
            accepted: false,
            close_after_write: false,
            deadline: None,
            sched_slot: None,
            idle: false,
        });
        self.metrics.open_connections.inc();
        Some(slot)
    }

    fn close(&mut self, slot: usize) {
        let Some(conn) = self.conns[slot].take() else { return };
        let _ = self.epoll.delete(conn.stream.as_raw_fd());
        let _ = conn.stream.shutdown(Shutdown::Both);
        self.generations[slot] = self.generations[slot].wrapping_add(1);
        if conn.idle {
            self.metrics.idle_keepalive.dec();
        }
        if conn.admitted {
            self.admitted -= 1;
            self.metrics.inflight.dec();
        }
        self.metrics.open_connections.dec();
        self.pending_free.push(slot);
    }

    fn set_interest(&mut self, slot: usize, events: u32) {
        let Some(conn) = self.conns[slot].as_mut() else { return };
        if conn.interest != events
            && self.epoll.modify(conn.stream.as_raw_fd(), slot as u64, events).is_ok()
        {
            conn.interest = events;
        }
    }

    fn conn_event(&mut self, slot: usize, readiness: u32) {
        let Some(conn) = self.conns[slot].as_ref() else { return };
        if readiness & (EPOLLERR | EPOLLHUP) != 0 {
            self.close(slot);
            return;
        }
        if readiness & EPOLLOUT != 0 && conn.state == ConnState::WritingResponse {
            self.try_write(slot);
        }
        let Some(conn) = self.conns[slot].as_ref() else { return };
        if readiness & EPOLLIN != 0
            && matches!(
                conn.state,
                ConnState::ReadingHeaders | ConnState::ReadingBody | ConnState::KeepAliveIdle
            )
        {
            self.do_read(slot);
        }
    }

    /// Reads available bytes into the parser; dispatches when a request
    /// completes. Level-triggered epoll re-fires if the kernel buffer is
    /// not drained, so bounded batches per event are safe and keep one
    /// chatty peer from starving the loop.
    fn do_read(&mut self, slot: usize) {
        let mut chunk = [0u8; READ_CHUNK];
        for _ in 0..MAX_READS_PER_EVENT {
            let read = match self.conns[slot].as_mut() {
                Some(conn) => conn.stream.read(&mut chunk),
                None => return,
            };
            match read {
                Ok(0) => {
                    self.close(slot);
                    return;
                }
                Ok(n) => {
                    if chronos_util::fail_eval!("http.reactor.read").is_some() {
                        // Fault: the socket dies mid-read.
                        self.close(slot);
                        return;
                    }
                    let now = Instant::now();
                    let generation = self.generations[slot];
                    let polled = {
                        let conn = self.conns[slot].as_mut().expect("checked above");
                        if conn.idle {
                            conn.idle = false;
                            conn.state = ConnState::ReadingHeaders;
                            self.metrics.idle_keepalive.dec();
                        }
                        conn.parser.feed(&chunk[..n]);
                        let polled = conn.parser.poll();
                        if matches!(polled, Ok(None)) {
                            conn.state = if conn.parser.reading_body() {
                                ConnState::ReadingBody
                            } else {
                                ConnState::ReadingHeaders
                            };
                            // The stall budget is per read, not per
                            // request: any progress resets it.
                            let deadline = now + self.cfg.header_read_timeout;
                            arm_timer(&mut self.wheel, conn, slot, generation, now, deadline);
                        }
                        polled
                    };
                    match polled {
                        Ok(Some(parsed)) => {
                            self.dispatch(slot, parsed);
                            return;
                        }
                        Ok(None) => {
                            if n < chunk.len() {
                                return; // kernel buffer drained (almost surely)
                            }
                        }
                        Err(error) => {
                            self.respond_parse_error(slot, error);
                            return;
                        }
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(slot);
                    return;
                }
            }
        }
    }

    fn respond_parse_error(&mut self, slot: usize, error: ParseError) {
        let response = match error {
            ParseError::BadRequest(msg) => Response::error(Status::BAD_REQUEST, msg),
            ParseError::TooLarge => Response::error(Status::PAYLOAD_TOO_LARGE, "request too large"),
        };
        self.start_write(slot, response, Method::Get, false);
    }

    /// Hands a complete request to the worker pool. The connection's socket
    /// interest drops to zero until the response comes back.
    fn dispatch(&mut self, slot: usize, parsed: ParsedRequest) {
        let ParsedRequest { request, keep_alive } = parsed;
        let method = request.method;
        {
            let conn = self.conns[slot].as_mut().expect("dispatch on live conn");
            conn.state = ConnState::Dispatched;
            conn.deadline = None; // handler time is not read-stall time
        }
        self.set_interest(slot, 0);
        let generation = self.generations[slot];
        let completions = Arc::clone(&self.completions);
        let wake = Arc::clone(&self.wake);
        let handler = Arc::clone(&self.handler);
        let dispatched = self.pool.try_execute(move || {
            let response = handler(request);
            // Dropped-response fault: the handler has fully committed its
            // effects, but the client never hears back. This is the case
            // idempotency keys exist for.
            let response = if chronos_util::fail_eval!("http.server.drop_response").is_some() {
                None
            } else {
                Some(response)
            };
            completions.lock().push(Completion { slot, generation, response, method, keep_alive });
            // Fault: the wakeup is lost. The reactor's tick still drains
            // the queue, so the response is delayed, not dropped.
            if chronos_util::fail_eval!("http.reactor.wakeup").is_none() {
                wake.wake();
            }
        });
        if dispatched {
            self.metrics.requests.inc();
            let conn = self.conns[slot].as_mut().expect("dispatch on live conn");
            if !conn.accepted {
                // First request reached the pool: the connection now
                // counts as accepted.
                conn.accepted = true;
                self.metrics.accepted.inc();
            }
            return;
        }
        // Bounded queue full at dispatch time: typed 429, counted in
        // `shed_overload` but never `accepted` — a connection whose
        // requests only ever shed is never accepted, so `accepted + shed
        // == total connections` stays an identity for one-request
        // (`Connection: close`) clients. A shed keep-alive connection
        // stays open: an idle connection costs bytes, and a backed-off
        // agent retrying on the same socket beats a reconnect storm.
        self.metrics.shed_overload.inc();
        let response = Response::error_named(
            Status::TOO_MANY_REQUESTS,
            CODE_OVERLOADED,
            "request queue full; retry later",
        )
        .with_retry_after(self.cfg.retry_after);
        let keep = keep_alive && self.shared.phase() == PHASE_RUNNING;
        self.start_write(slot, response, method, keep);
    }

    /// Serializes the head of `response`, moves its body into the
    /// connection (a `HEAD` response advertises the length but sends no
    /// body), and begins (or finishes) writing them out.
    fn start_write(&mut self, slot: usize, response: Response, method: Method, keep_alive: bool) {
        let head = serialize_head(&response, keep_alive);
        let body = if method == Method::Head { Vec::new() } else { response.body };
        {
            let Some(conn) = self.conns[slot].as_mut() else { return };
            conn.head = head;
            conn.body = body;
            conn.out_pos = 0;
            conn.state = ConnState::WritingResponse;
            conn.close_after_write = !keep_alive;
            if conn.idle {
                conn.idle = false;
                self.metrics.idle_keepalive.dec();
            }
        }
        self.try_write(slot);
    }

    /// Writes as much pending output as the socket accepts, head and body
    /// in one vectored write; on `WouldBlock` subscribes to `EPOLLOUT` and
    /// resumes when the peer drains its side, at whatever offset the last
    /// write stopped (inside the head or the body).
    fn try_write(&mut self, slot: usize) {
        enum Outcome {
            Done,
            Blocked,
            Fatal,
        }
        loop {
            let outcome = {
                let Some(conn) = self.conns[slot].as_mut() else { return };
                let (head, body) = pending(&conn.head, &conn.body, conn.out_pos);
                if head.is_empty() && body.is_empty() {
                    Outcome::Done
                } else {
                    match chronos_util::fail_eval!("http.reactor.write") {
                        Some(Injected::Torn { keep }) => {
                            // Torn write: the next `keep` bytes of the
                            // response (head, then body) escape, then the
                            // connection dies.
                            let head = &head[..keep.min(head.len())];
                            let body = &body[..(keep - head.len()).min(body.len())];
                            let _ = conn
                                .stream
                                .write_vectored(&[IoSlice::new(head), IoSlice::new(body)]);
                            Outcome::Fatal
                        }
                        Some(_) => Outcome::Fatal,
                        None => match conn
                            .stream
                            .write_vectored(&[IoSlice::new(head), IoSlice::new(body)])
                        {
                            Ok(0) => Outcome::Fatal,
                            Ok(n) => {
                                conn.out_pos += n;
                                continue;
                            }
                            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                                Outcome::Blocked
                            }
                            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                            Err(_) => Outcome::Fatal,
                        },
                    }
                }
            };
            match outcome {
                Outcome::Fatal => {
                    self.close(slot);
                    return;
                }
                Outcome::Blocked => {
                    self.set_interest(slot, EPOLLOUT);
                    // A peer that never reads must not pin the connection
                    // forever: reuse the stall budget as a write deadline.
                    let now = Instant::now();
                    let generation = self.generations[slot];
                    let deadline = now + self.cfg.header_read_timeout;
                    if let Some(conn) = self.conns[slot].as_mut() {
                        arm_timer(&mut self.wheel, conn, slot, generation, now, deadline);
                    }
                    return;
                }
                Outcome::Done => {
                    self.finish_write(slot);
                    return;
                }
            }
        }
    }

    /// The response is fully out: close, serve a pipelined request, or go
    /// keep-alive idle.
    fn finish_write(&mut self, slot: usize) {
        let close_now = {
            let Some(conn) = self.conns[slot].as_mut() else { return };
            // Release a possibly large response body.
            conn.head = Vec::new();
            conn.body = Vec::new();
            conn.out_pos = 0;
            conn.deadline = None;
            conn.close_after_write
        };
        if close_now {
            self.close(slot);
            return;
        }
        let polled = {
            let conn = self.conns[slot].as_mut().expect("checked above");
            conn.parser.poll()
        };
        match polled {
            Ok(Some(parsed)) => self.dispatch(slot, parsed),
            Ok(None) => {
                let now = Instant::now();
                let generation = self.generations[slot];
                let stall = self.cfg.header_read_timeout;
                let idle_after = self.cfg.idle_timeout;
                let mut became_idle = false;
                {
                    let conn = self.conns[slot].as_mut().expect("checked above");
                    if conn.parser.has_partial() {
                        // The next (pipelined) request is partially here.
                        conn.state = if conn.parser.reading_body() {
                            ConnState::ReadingBody
                        } else {
                            ConnState::ReadingHeaders
                        };
                        arm_timer(&mut self.wheel, conn, slot, generation, now, now + stall);
                    } else {
                        conn.state = ConnState::KeepAliveIdle;
                        conn.idle = true;
                        became_idle = true;
                        arm_timer(&mut self.wheel, conn, slot, generation, now, now + idle_after);
                    }
                }
                if became_idle {
                    self.metrics.idle_keepalive.inc();
                }
                self.set_interest(slot, EPOLLIN);
            }
            Err(error) => self.respond_parse_error(slot, error),
        }
    }

    /// Hands worker results back to their connections. Stale completions
    /// (connection closed and slot reused since dispatch) are dropped by the
    /// generation check.
    fn drain_completions(&mut self) {
        let batch = std::mem::take(&mut *self.completions.lock());
        for completion in batch {
            let slot = completion.slot;
            let live =
                self.conns[slot].is_some() && self.generations[slot] == completion.generation;
            if !live {
                continue;
            }
            let Some(response) = completion.response else {
                // Dropped-response fault: cut the connection without a reply.
                self.close(slot);
                continue;
            };
            // The keep-alive decision is re-taken at completion time: a
            // drain that began while the handler ran turns into a polite
            // `Connection: close`.
            let keep = completion.keep_alive && self.shared.phase() == PHASE_RUNNING;
            self.start_write(slot, response, completion.method, keep);
        }
    }

    /// A timer entry came due. Generation and deadline re-checks make stale
    /// entries (slot reused, deadline reset or pushed out) harmless.
    fn fire_timer(&mut self, slot: usize, generation: u64, now: Instant) {
        let (state, has_partial) = {
            let Some(conn) = self.conns[slot].as_mut() else { return };
            if self.generations[slot] != generation {
                return;
            }
            conn.sched_slot = None;
            let Some(deadline) = conn.deadline else { return };
            if deadline > now {
                // Re-arm: the entry was clamped to the wheel horizon, or the
                // deadline moved since scheduling.
                arm_timer(&mut self.wheel, conn, slot, generation, now, deadline);
                return;
            }
            (conn.state, conn.parser.has_partial())
        };
        match state {
            ConnState::KeepAliveIdle => {
                // Keep-alive cap reached with no request in sight.
                self.metrics.shed_idle.inc();
                self.close(slot);
            }
            ConnState::ReadingHeaders | ConnState::ReadingBody => {
                self.metrics.shed_idle.inc();
                if has_partial {
                    // Slowloris: a half-sent request stalled out. Typed 408
                    // so a sluggish-but-honest client knows what happened.
                    let response = Response::error_named(
                        Status::REQUEST_TIMEOUT,
                        CODE_REQUEST_TIMEOUT,
                        "request header or body not completed in time",
                    );
                    self.start_write(slot, response, Method::Get, false);
                } else {
                    // Never sent a byte: nothing useful to say.
                    self.close(slot);
                }
            }
            ConnState::WritingResponse => {
                // Peer stopped reading its response.
                self.close(slot);
            }
            ConnState::Dispatched => {} // no deadline while the handler runs
        }
    }

    /// During drain, connections with no request in progress close
    /// immediately; in-flight ones finish and close via the completion path.
    fn close_idle_for_drain(&mut self) {
        for slot in 0..self.conns.len() {
            let drop_now = match &self.conns[slot] {
                Some(conn) => match conn.state {
                    ConnState::KeepAliveIdle => true,
                    ConnState::ReadingHeaders | ConnState::ReadingBody => {
                        conn.admitted && !conn.parser.has_partial()
                    }
                    _ => false,
                },
                None => false,
            };
            if drop_now {
                self.close(slot);
            }
        }
    }
}

/// Serializes the status line and headers of `response`, through the blank
/// line that ends them. `Content-Length` counts the body even where none
/// follows (`HEAD`).
fn serialize_head(response: &Response, keep_alive: bool) -> Vec<u8> {
    let headers: usize =
        response.headers.iter().map(|(name, value)| name.len() + value.len() + 4).sum();
    // 112 bytes hold the longest status line, `Content-Length` and
    // `Connection` lines the server writes.
    let mut head = Vec::with_capacity(headers + 112);
    write!(head, "HTTP/1.1 {} {}\r\n", response.status.0, response.status.reason())
        .expect("writing to a Vec cannot fail");
    for (name, value) in response.headers.iter() {
        head.extend_from_slice(name.as_bytes());
        head.extend_from_slice(b": ");
        head.extend_from_slice(value.as_bytes());
        head.extend_from_slice(b"\r\n");
    }
    write!(head, "Content-Length: {}\r\n", response.body.len())
        .expect("writing to a Vec cannot fail");
    head.extend_from_slice(if keep_alive {
        b"Connection: keep-alive\r\n\r\n"
    } else {
        b"Connection: close\r\n\r\n"
    });
    head
}

/// What is left to send of a response written as `head` then `body`, once
/// `sent` bytes of the two together went out.
fn pending<'a>(head: &'a [u8], body: &'a [u8], sent: usize) -> (&'a [u8], &'a [u8]) {
    match head.get(sent..) {
        Some(rest) => (rest, body),
        None => (&[], body.get(sent - head.len()..).unwrap_or_default()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pending_resumes_at_every_offset_across_head_and_body() {
        let head = b"HTTP/1.1 200 OK\r\n\r\n";
        for body in [&b""[..], b"x", b"hello"] {
            let whole = [&head[..], body].concat();
            for sent in 0..=whole.len() {
                let (h, b) = pending(head, body, sent);
                assert_eq!([h, b].concat(), &whole[sent..], "sent {sent} of {}", whole.len());
                // The head goes out before any body byte.
                assert!(h.is_empty() || b == body, "sent {sent}");
            }
        }
    }

    #[test]
    fn head_counts_the_body_and_ends_the_header_block() {
        let mut response = Response::text(Status::OK, "hello");
        response.headers.set("ETag", "\"v1\"");
        let head = serialize_head(&response, true);
        assert_eq!(
            String::from_utf8(head).unwrap(),
            "HTTP/1.1 200 OK\r\nContent-Type: text/plain; charset=utf-8\r\nETag: \"v1\"\r\n\
             Content-Length: 5\r\nConnection: keep-alive\r\n\r\n"
        );
        let head = serialize_head(&Response::status(Status::NOT_MODIFIED), false);
        assert_eq!(
            String::from_utf8(head).unwrap(),
            "HTTP/1.1 304 Not Modified\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"
        );
    }
}
