//! Event-driven core: worker threads sharing one epoll, each serving a
//! request start to finish.
//!
//! Every connection lives in one slab and is registered with one epoll; an
//! idle keep-alive connection costs a slab slot and a (shrunk) parse buffer
//! — a few hundred bytes — not a thread. The server's threads all wait on
//! that epoll. Each connection is armed `EPOLLONESHOT`, so exactly one
//! thread sees its readiness and owns it until it re-arms: that thread
//! takes the connection out of the slab, reads and parses the request,
//! runs the handler inline, writes the response and parks the connection
//! again. Nothing is handed between threads on the way.
//!
//! Per-connection state machine:
//!
//! ```text
//! accept → ReadingHeaders → ReadingBody → (handler, inline) → WritingResponse
//!              ↑  ↑                                                │
//!              │  └────────── KeepAliveIdle ←──────────────────────┤
//!              └───────────── (pipelined request) ←────────────────┘
//! ```
//!
//! Admission is one rule, on requests: every connection accepted while the
//! server runs is admitted, at most `workers` requests run inside handlers
//! and at most `queue_depth` parsed requests wait beyond them. Beside the
//! `workers` threads runs one spare thread that polls only while every
//! handler slot is taken, and reads, queues or sheds the excess (typed
//! `429 overloaded`, the connection stays open) at once; a waiting request
//! gets the next slot to free and runs on the thread that freed it before
//! anything else that thread does. A request whose `X-Chronos-Deadline-Ms`
//! budget is spent when it gets its slot is answered `504
//! deadline_exceeded` instead of running the handler. Open connections are
//! bounded only by the process's descriptor limit: an `accept` that fails
//! for want of a descriptor leaves the listener disarmed until the next
//! timer tick. Drain closes idle connections immediately and lets
//! in-flight requests finish with a polite `Connection: close`; and
//! `accepted + shed == total connections` holds exactly for one-request
//! (`Connection: close`) connections.
//!
//! A thread yields the CPU each time it has parked a connection, so the
//! peer its response woke runs before the thread takes on more work.
//!
//! Whichever thread wakes also does the shared chores: the accept burst
//! (the listener is armed one-shot too), the timer wheel (408 slowloris,
//! idle reap, write stall — connections a thread owns are skipped; the
//! re-arm of a listener left disarmed for want of a descriptor) and the
//! drain sweep. No thread sleeps longer than [`TICK_MS`], so the chores
//! run even when no socket is ready.

use std::collections::VecDeque;
use std::io::{IoSlice, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use chronos_util::fail::Injected;
use parking_lot::Mutex;

use crate::parser::{ParseError, ParsedRequest, RequestParser};
use crate::server::{ServerMetrics, Shared, PHASE_DRAINING, PHASE_RUNNING, PHASE_STOPPED};
use crate::sys::linux::{Epoll, EpollEvent, EventFd};
use crate::sys::linux::{EMFILE, ENFILE, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLONESHOT, EPOLLOUT};
use crate::types::{Method, Request, Response, Status};
use crate::types::{CODE_DEADLINE_EXCEEDED, CODE_DRAINING, CODE_OVERLOADED, CODE_REQUEST_TIMEOUT};

/// Epoll token reserved for the listening socket.
const TOKEN_LISTENER: u64 = u64::MAX;
/// Epoll token reserved for the drain/shutdown eventfd.
const TOKEN_WAKE: u64 = u64::MAX - 1;
/// Upper bound on one `epoll_wait` sleep — the timer and drain heartbeat.
const TICK_MS: i32 = 100;
/// Size of each worker's read buffer (bytes are copied into the parser).
const READ_CHUNK: usize = 16 * 1024;
/// How many consecutive reads one connection may take before its thread
/// re-arms it and serves whatever else is ready.
const MAX_READS_PER_EVENT: usize = 16;
/// Named error code of the `500` a panicking handler's request gets.
const CODE_INTERNAL: &str = "internal";

/// Admission and timeout knobs, fixed at `serve` time.
pub(crate) struct ReactorConfig {
    /// Requests that may run inside handlers at once.
    pub workers: usize,
    /// Parsed requests that may wait for a handler slot beyond those.
    pub queue_depth: usize,
    /// `Retry-After` hint attached to shed responses.
    pub retry_after: Duration,
    /// Stall budget while reading a request head or body (slowloris guard).
    pub header_read_timeout: Duration,
    /// How long a keep-alive connection may sit idle between requests.
    pub idle_timeout: Duration,
}

/// Where a connection currently is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnState {
    /// Waiting for (more of) the request line + headers.
    ReadingHeaders,
    /// Head parsed; body bytes still arriving.
    ReadingBody,
    /// Response partially written; resumes on `EPOLLOUT`.
    WritingResponse,
    /// Between requests on a keep-alive connection.
    KeepAliveIdle,
}

struct Conn {
    stream: TcpStream,
    /// Slab slot and the generation it had at registration: together they
    /// are the connection's epoll token.
    slot: usize,
    generation: u32,
    state: ConnState,
    parser: RequestParser,
    /// Response being written: the serialized head, the handler's body
    /// (moved, not copied; empty for `HEAD`), and how many bytes of the
    /// two together already went out.
    head: Vec<u8>,
    body: Vec<u8>,
    out_pos: usize,
    /// In the epoll interest list yet (added on first park).
    registered: bool,
    /// Counted in the `inflight` gauge. Connections refused while draining
    /// (typed refusal being written) are tracked but not admitted.
    admitted: bool,
    /// Counted in the `accepted` counter — set when the connection's first
    /// request gets a handler slot or a queue place, so `accepted + shed ==
    /// total connections`.
    accepted: bool,
    close_after_write: bool,
    /// Active timeout, if any; scheduled on the wheel when the connection
    /// is parked, re-checked when the wheel entry fires.
    deadline: Option<Instant>,
    /// Counted in the `idle_keepalive` gauge.
    idle: bool,
}

impl Conn {
    fn new(stream: TcpStream, slot: usize, generation: u32, admitted: bool) -> Conn {
        Conn {
            stream,
            slot,
            generation,
            state: ConnState::ReadingHeaders,
            parser: RequestParser::new(),
            head: Vec::new(),
            body: Vec::new(),
            out_pos: 0,
            registered: false,
            admitted,
            accepted: false,
            close_after_write: false,
            deadline: None,
            idle: false,
        }
    }

    fn token(&self) -> u64 {
        (u64::from(self.generation) << 32) | self.slot as u64
    }

    /// The reading state the parser is in.
    fn reading(&self) -> ConnState {
        if self.parser.reading_body() {
            ConnState::ReadingBody
        } else {
            ConnState::ReadingHeaders
        }
    }
}

/// Hashed timer wheel: 512 slots × 128 ms ≈ 65 s horizon, O(1) schedule,
/// O(slots-passed) advance. Deadlines beyond the horizon clamp to the far
/// edge and re-arm when they fire early; entries staled by a deadline reset
/// or connection close are dropped on expiry by generation / deadline
/// re-checks.
struct TimerWheel {
    slots: Vec<Vec<(usize, u32)>>,
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

    /// Moves the cursor up to `now`, collecting entries from every slot
    /// passed.
    fn advance(&mut self, now: Instant, expired: &mut Vec<(usize, u32)>) {
        while self.anchor + Self::GRANULARITY <= now {
            self.cursor = (self.cursor + 1) % Self::SLOTS;
            self.anchor += Self::GRANULARITY;
            expired.append(&mut self.slots[self.cursor]);
        }
    }
}

/// Every connection no thread owns, plus the bookkeeping that must change
/// with the slab in one step.
struct Slab {
    /// A parked connection, or `None`: the slot is free, or the thread that
    /// owns its connection right now took it out.
    entries: Vec<Option<Conn>>,
    /// Per-slot generation, bumped on close; a stale epoll event or timer
    /// entry carrying an old generation cannot touch a reused slot.
    generations: Vec<u32>,
    /// Wheel slot each connection's timer entry sits in (dedupes re-arms
    /// that land in the same slot).
    scheduled: Vec<Option<usize>>,
    free: Vec<usize>,
    wheel: TimerWheel,
}

impl Slab {
    /// A slot for a new connection, owned by the caller.
    fn allocate(&mut self) -> (usize, u32) {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.entries.push(None);
            self.generations.push(0);
            self.scheduled.push(None);
            self.entries.len() - 1
        });
        (slot, self.generations[slot])
    }

    /// Takes the connection `token` names out of the slab, if it is parked
    /// there under that generation.
    fn take(&mut self, slot: usize, generation: u32) -> Option<Conn> {
        if self.generations.get(slot) != Some(&generation) {
            return None;
        }
        self.entries[slot].take()
    }

    fn schedule(&mut self, slot: usize, generation: u32, now: Instant, deadline: Instant) {
        let wheel_slot = self.wheel.slot_for(now, deadline);
        if self.scheduled[slot] != Some(wheel_slot) {
            self.wheel.slots[wheel_slot].push((slot, generation));
            self.scheduled[slot] = Some(wheel_slot);
        }
    }
}

/// Request-level admission: handler slots in use and the requests waiting
/// for one. Invariant: `waiting` is non-empty only while every slot is
/// taken, so some thread finishing a handler always picks it up.
struct Admission {
    running: usize,
    waiting: VecDeque<(Conn, ParsedRequest)>,
}

/// What admission decided for a parsed request.
enum Admitted {
    /// A handler slot is the caller's: run it now.
    Run(Conn, ParsedRequest),
    /// Every slot is taken; the request waits for the next one to free.
    Queued,
    /// Slots and queue are full: answer `429` on the spot.
    Shed(Conn, ParsedRequest),
}

/// The next thing to do with a connection its thread owns.
enum Step {
    /// Readable: read and parse.
    Read,
    /// Output pending: write it.
    Write,
    /// Bytes already buffered: parse them before reading more.
    Parse,
    /// A complete request: ask admission for a handler slot.
    Dispatch(ParsedRequest),
    /// Holding a handler slot: run the handler.
    Run(ParsedRequest),
    /// Hand it back to the slab and re-arm for these events.
    Park(u32),
    Close,
}

/// What one thread keeps between events.
struct Worker {
    /// Read buffer, allocated (and zeroed) once per thread.
    buf: Vec<u8>,
    /// The queued request this thread took over with a handler slot when
    /// its own handler returned; served before anything else.
    owed: Option<(Conn, ParsedRequest)>,
}

impl Worker {
    fn new() -> Worker {
        Worker { buf: vec![0u8; READ_CHUNK], owed: None }
    }
}

/// State every worker thread shares.
struct Core<F> {
    epoll: Epoll,
    listener: TcpListener,
    wake: Arc<EventFd>,
    shared: Arc<Shared>,
    metrics: Arc<ServerMetrics>,
    handler: F,
    cfg: ReactorConfig,
    slab: Mutex<Slab>,
    admission: std::sync::Mutex<Admission>,
    /// Signalled when the last handler slot is taken: wakes the spare
    /// thread.
    saturated: Condvar,
    started: Instant,
    /// Milliseconds since `started` at which the timer wheel is next due;
    /// the thread that moves it forward runs the timers.
    next_tick_ms: AtomicU64,
    /// The listener was left disarmed because `accept` ran out of
    /// descriptors; the next timer tick re-arms it.
    accept_paused: AtomicBool,
}

/// The running workers, as the server handle sees them.
pub(crate) struct Workers {
    threads: Vec<JoinHandle<()>>,
    wake: Arc<EventFd>,
}

impl Workers {
    /// Nudges the workers to re-read the lifecycle phase now.
    pub(crate) fn wake(&self) {
        self.wake.wake();
    }

    /// Joins every worker. The last one out drops the shared core, which
    /// closes the listener and every remaining connection.
    pub(crate) fn join(self) {
        for thread in self.threads {
            let _ = thread.join();
        }
    }
}

/// Starts `workers` threads on one epoll, each serving requests start to
/// finish, and the spare thread that takes over the epoll while all of
/// them are in handlers.
pub(crate) fn spawn<F>(
    listener: TcpListener,
    shared: Arc<Shared>,
    handler: F,
    cfg: ReactorConfig,
) -> std::io::Result<Workers>
where
    F: Fn(Request) -> Response + Send + Sync + 'static,
{
    listener.set_nonblocking(true)?;
    let epoll = Epoll::new()?;
    let wake = Arc::new(EventFd::new()?);
    epoll.add(listener.as_raw_fd(), TOKEN_LISTENER, EPOLLIN | EPOLLONESHOT)?;
    // Level-triggered and shared: once shutdown writes it and nobody reads
    // it back, every worker sees it.
    epoll.add(wake.fd(), TOKEN_WAKE, EPOLLIN)?;
    let now = Instant::now();
    let threads = cfg.workers + 1;
    let core = Arc::new(Core {
        epoll,
        listener,
        wake: Arc::clone(&wake),
        metrics: Arc::clone(&shared.metrics),
        shared,
        handler,
        cfg,
        slab: Mutex::new(Slab {
            entries: Vec::new(),
            generations: Vec::new(),
            scheduled: Vec::new(),
            free: Vec::new(),
            wheel: TimerWheel::new(now),
        }),
        admission: std::sync::Mutex::new(Admission { running: 0, waiting: VecDeque::new() }),
        saturated: Condvar::new(),
        started: now,
        next_tick_ms: AtomicU64::new(0),
        accept_paused: AtomicBool::new(false),
    });
    let mut workers = Workers { threads: Vec::with_capacity(threads), wake };
    for i in 0..threads {
        let worker = Arc::clone(&core);
        let spawned = std::thread::Builder::new()
            .name(format!("chronos-http-{i}"))
            .spawn(move || if i == 0 { worker.run_spare() } else { worker.run() });
        match spawned {
            Ok(thread) => workers.threads.push(thread),
            Err(error) => {
                // Stop the threads already running before reporting.
                core.shared.phase.store(PHASE_STOPPED, Ordering::SeqCst);
                workers.wake();
                workers.join();
                return Err(error);
            }
        }
    }
    Ok(workers)
}

impl<F> Core<F>
where
    F: Fn(Request) -> Response + Send + Sync + 'static,
{
    fn run(&self) {
        let mut worker = Worker::new();
        while self.shared.phase() != PHASE_STOPPED {
            self.poll(&mut worker);
        }
    }

    /// The spare thread: polls only while every handler slot is taken, so
    /// the excess is read and queued or shed at once. Idle otherwise, it is
    /// the thread the scheduler lets run first when it is needed — a worker
    /// that just ran handlers would wait its turn behind the others.
    fn run_spare(&self) {
        let mut worker = Worker::new();
        while self.shared.phase() != PHASE_STOPPED {
            let admission = self.admission();
            if admission.running < self.cfg.workers {
                let tick = Duration::from_millis(TICK_MS as u64);
                drop(self.saturated.wait_timeout(admission, tick));
                continue;
            }
            drop(admission);
            self.poll(&mut worker);
        }
    }

    fn admission(&self) -> MutexGuard<'_, Admission> {
        self.admission.lock().expect("no code panics while holding the admission lock")
    }

    /// Waits for one event, serves it, and does the chores.
    fn poll(&self, worker: &mut Worker) {
        // One event per wait: a connection this thread does not take stays
        // ready for the next free thread instead of queueing behind a
        // handler running here.
        let mut events = [EpollEvent::empty(); 1];
        let ready = self.epoll.wait(&mut events, TICK_MS).unwrap_or(0);
        self.metrics.reactor_loops.inc();
        for event in events.iter().take(ready) {
            match event.token() {
                TOKEN_LISTENER => self.accept_burst(worker),
                TOKEN_WAKE => {
                    // Shutdown leaves the counter set so every thread
                    // wakes; a drain nudge needs only one.
                    if self.shared.phase() != PHASE_STOPPED {
                        self.wake.drain();
                    }
                    self.metrics.wakeups.inc();
                }
                token => {
                    let (slot, generation) = ((token & 0xFFFF_FFFF) as usize, token >> 32);
                    let taken = self.slab.lock().take(slot, generation as u32);
                    if let Some(conn) = taken {
                        let step = if event.readiness() & (EPOLLERR | EPOLLHUP) != 0 {
                            Step::Close
                        } else if conn.state == ConnState::WritingResponse {
                            Step::Write
                        } else if conn.parser.has_partial() {
                            Step::Parse
                        } else {
                            Step::Read
                        };
                        self.serve(conn, step, worker);
                    }
                }
            }
        }
        self.chores(worker);
    }

    /// Drives `conn` from `step` until it is parked, queued or closed, then
    /// serves the queued request this thread took over meanwhile, if any.
    ///
    /// After each connection is parked the thread yields: a thread going
    /// from one request straight to the next was otherwise preempted inside
    /// handlers, and the peers its responses woke waited behind it. The
    /// yield comes after the park, so the connection's next request is free
    /// for any thread meanwhile; with nothing else runnable it costs one
    /// system call.
    fn serve(&self, conn: Conn, step: Step, worker: &mut Worker) {
        self.drive(conn, step, worker);
        std::thread::yield_now();
        while let Some((conn, parsed)) = worker.owed.take() {
            self.drive(conn, Step::Run(parsed), worker);
            std::thread::yield_now();
        }
    }

    fn drive(&self, mut conn: Conn, mut step: Step, worker: &mut Worker) {
        loop {
            step = match step {
                Step::Read => self.read(&mut conn, &mut worker.buf),
                Step::Write => self.write(&mut conn, worker.owed.is_some()),
                Step::Parse => match conn.parser.poll() {
                    Ok(Some(parsed)) => Step::Dispatch(parsed),
                    Ok(None) => Step::Read,
                    Err(error) => self.respond_parse_error(&mut conn, error),
                },
                Step::Dispatch(parsed) => match self.admit_request(conn, parsed) {
                    Admitted::Run(admitted, parsed) => {
                        conn = admitted;
                        Step::Run(parsed)
                    }
                    Admitted::Queued => return,
                    Admitted::Shed(shed, parsed) => {
                        conn = shed;
                        // A request shed here is counted in `shed_overload`
                        // but never `accepted` — a connection whose requests
                        // only ever shed is never accepted, so `accepted +
                        // shed == total connections` stays an identity for
                        // one-request (`Connection: close`) clients. A shed
                        // keep-alive connection stays open: an idle
                        // connection costs bytes, and a backed-off agent
                        // retrying on the same socket beats a reconnect
                        // storm.
                        self.metrics.shed_overload.inc();
                        let response = Response::error_named(
                            Status::TOO_MANY_REQUESTS,
                            CODE_OVERLOADED,
                            "request queue full; retry later",
                        )
                        .with_retry_after(self.cfg.retry_after);
                        let keep = parsed.keep_alive && self.shared.phase() == PHASE_RUNNING;
                        self.respond(&mut conn, response, parsed.request.method, keep)
                    }
                },
                Step::Run(parsed) => self.run_handler(&mut conn, parsed, worker),
                Step::Park(interest) => return self.park(conn, interest),
                Step::Close => return self.close(conn),
            };
        }
    }

    /// Accepts until the backlog is empty, then re-arms the listener. Each
    /// connection is admitted, or refused with `503 draining` while the
    /// server drains; a refusal the peer does not take at once is parked
    /// for `EPOLLOUT`, so a slow peer cannot stall accepting. Out of
    /// descriptors, the burst stops and the listener stays disarmed until
    /// the next timer tick: re-armed at once, it would report the same
    /// pending connection straight away, and every thread would spin on it.
    fn accept_burst(&self, worker: &mut Worker) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if chronos_util::fail_eval!("http.reactor.accept").is_some() {
                        // Fault: the connection dies before admission — the
                        // client sees a reset and retries.
                        drop(stream);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    match self.shared.phase() {
                        PHASE_STOPPED => return,
                        PHASE_DRAINING => self.refuse_draining(stream, worker),
                        _ => self.admit(stream),
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) if matches!(e.raw_os_error(), Some(EMFILE | ENFILE)) => {
                    self.accept_paused.store(true, Ordering::Relaxed);
                    return;
                }
                // Drained (`WouldBlock`), or a transient per-connection
                // accept error (e.g. the peer reset before we got to it):
                // the re-armed listener reports what is still pending.
                Err(_) => break,
            }
        }
        let _ =
            self.epoll.modify(self.listener.as_raw_fd(), TOKEN_LISTENER, EPOLLIN | EPOLLONESHOT);
    }

    /// Parks an admitted connection for its first request and starts its
    /// header-read clock.
    fn admit(&self, stream: TcpStream) {
        self.metrics.inflight.inc();
        self.metrics.open_connections.inc();
        let (slot, generation) = self.slab.lock().allocate();
        let mut conn = Conn::new(stream, slot, generation, true);
        conn.deadline = Some(Instant::now() + self.cfg.header_read_timeout);
        self.park(conn, EPOLLIN);
    }

    /// Writes the typed `503 draining` refusal on a connection accepted
    /// while the server drains.
    fn refuse_draining(&self, stream: TcpStream, worker: &mut Worker) {
        self.metrics.shed_draining.inc();
        let (slot, generation) = self.slab.lock().allocate();
        self.metrics.open_connections.inc();
        let mut conn = Conn::new(stream, slot, generation, false);
        let message = "server is draining; connection not accepted";
        let response = Response::error_named(Status::SERVICE_UNAVAILABLE, CODE_DRAINING, message)
            .with_retry_after(self.cfg.retry_after);
        let step = self.respond(&mut conn, response, Method::Get, false);
        self.serve(conn, step, worker);
    }

    /// Returns `conn` to the slab, schedules its deadline and re-arms it for
    /// `interest`. The re-arm happens under the slab lock: while the lock is
    /// held nobody can close the socket, so its fd number cannot have been
    /// reused by a newer connection.
    fn park(&self, mut conn: Conn, interest: u32) {
        let now = Instant::now();
        let (slot, generation, token) = (conn.slot, conn.generation, conn.token());
        let fd = conn.stream.as_raw_fd();
        let add = !conn.registered;
        conn.registered = true;
        let deadline = conn.deadline;
        let mut slab = self.slab.lock();
        if let Some(deadline) = deadline {
            slab.schedule(slot, generation, now, deadline);
        }
        slab.entries[slot] = Some(conn);
        let armed = if add {
            self.epoll.add(fd, token, interest | EPOLLONESHOT)
        } else {
            self.epoll.modify(fd, token, interest | EPOLLONESHOT)
        };
        if armed.is_err() {
            let conn = slab.take(slot, generation);
            drop(slab);
            if let Some(conn) = conn {
                self.close(conn);
            }
        }
    }

    /// Frees the connection's slot and closes its socket (which also takes
    /// it out of the epoll interest list).
    fn close(&self, conn: Conn) {
        let _ = conn.stream.shutdown(Shutdown::Both);
        {
            let mut slab = self.slab.lock();
            slab.generations[conn.slot] = conn.generation.wrapping_add(1);
            slab.scheduled[conn.slot] = None;
            slab.free.push(conn.slot);
        }
        if conn.admitted {
            self.metrics.inflight.dec();
        }
        if conn.idle {
            self.metrics.idle_keepalive.dec();
        }
        self.metrics.open_connections.dec();
    }

    /// Reads available bytes into the parser. Level-triggered epoll reports
    /// the socket again after the re-arm if the kernel buffer is not
    /// drained, so bounded batches per event are safe and keep one chatty
    /// peer from holding its thread.
    fn read(&self, conn: &mut Conn, buf: &mut [u8]) -> Step {
        for _ in 0..MAX_READS_PER_EVENT {
            match conn.stream.read(buf) {
                Ok(0) => return Step::Close,
                Ok(n) => {
                    if chronos_util::fail_eval!("http.reactor.read").is_some() {
                        // Fault: the socket dies mid-read.
                        return Step::Close;
                    }
                    if conn.idle {
                        conn.idle = false;
                        self.metrics.idle_keepalive.dec();
                    }
                    conn.parser.feed(&buf[..n]);
                    match conn.parser.poll() {
                        Ok(Some(parsed)) => return Step::Dispatch(parsed),
                        Ok(None) => {
                            conn.state = conn.reading();
                            // The stall budget is per read, not per
                            // request: any progress resets it.
                            conn.deadline = Some(Instant::now() + self.cfg.header_read_timeout);
                            if n < buf.len() {
                                return Step::Park(EPOLLIN); // drained (almost surely)
                            }
                        }
                        Err(error) => return self.respond_parse_error(conn, error),
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Step::Park(EPOLLIN),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return Step::Close,
            }
        }
        Step::Park(EPOLLIN)
    }

    fn respond_parse_error(&self, conn: &mut Conn, error: ParseError) -> Step {
        let response = match error {
            ParseError::BadRequest(msg) => Response::error(Status::BAD_REQUEST, msg),
            ParseError::TooLarge => Response::error(Status::PAYLOAD_TOO_LARGE, "request too large"),
        };
        self.respond(conn, response, Method::Get, false)
    }

    /// Gives a parsed request a handler slot, a queue place, or a shed.
    fn admit_request(&self, mut conn: Conn, parsed: ParsedRequest) -> Admitted {
        let mut admission = self.admission();
        let run = admission.running < self.cfg.workers;
        if !run && admission.waiting.len() >= self.cfg.queue_depth {
            return Admitted::Shed(conn, parsed);
        }
        self.metrics.requests.inc();
        if !conn.accepted {
            // First request got a handler: the connection now counts as
            // accepted.
            conn.accepted = true;
            self.metrics.accepted.inc();
        }
        conn.deadline = None; // handler time is not read-stall time
        if run {
            admission.running += 1;
            if admission.running == self.cfg.workers {
                self.saturated.notify_one();
            }
            Admitted::Run(conn, parsed)
        } else {
            admission.waiting.push_back((conn, parsed));
            Admitted::Queued
        }
    }

    /// Runs the handler on this thread, or answers `504 deadline_exceeded`
    /// without it when the request's budget is spent. A panic is answered
    /// with a typed `500` and `Connection: close`. The handler slot passes
    /// to the oldest waiting request, which this thread then owes, or is
    /// freed.
    fn run_handler(&self, conn: &mut Conn, parsed: ParsedRequest, worker: &mut Worker) -> Step {
        let ParsedRequest { request, keep_alive } = parsed;
        let method = request.method;
        let outcome = if request.deadline_expired() {
            self.metrics.deadline_exceeded.inc();
            let message = "deadline expired before the handler ran";
            Ok(Response::error_named(Status::GATEWAY_TIMEOUT, CODE_DEADLINE_EXCEEDED, message))
        } else {
            std::panic::catch_unwind(AssertUnwindSafe(|| (self.handler)(request)))
        };
        {
            let mut admission = self.admission();
            match admission.waiting.pop_front() {
                Some(next) => worker.owed = Some(next),
                None => admission.running -= 1,
            }
        }
        let Ok(response) = outcome else {
            self.shared.panics.fetch_add(1, Ordering::Relaxed);
            let response = Response::error_named(
                Status::INTERNAL_ERROR,
                CODE_INTERNAL,
                "the request handler failed",
            );
            return self.respond(conn, response, method, false);
        };
        // Dropped-response fault: the handler has fully committed its
        // effects, but the client never hears back. This is the case
        // idempotency keys exist for.
        if chronos_util::fail_eval!("http.server.drop_response").is_some() {
            return Step::Close;
        }
        // The keep-alive decision is taken after the handler: a drain that
        // began while it ran turns into a polite `Connection: close`.
        let keep = keep_alive && self.shared.phase() == PHASE_RUNNING;
        self.respond(conn, response, method, keep)
    }

    /// Serializes the head of `response` and moves its body into the
    /// connection (a `HEAD` response advertises the length but sends no
    /// body), ready to write.
    fn respond(&self, conn: &mut Conn, response: Response, method: Method, keep: bool) -> Step {
        conn.head = serialize_head(&response, keep);
        conn.body = if method == Method::Head { Vec::new() } else { response.body };
        conn.out_pos = 0;
        conn.state = ConnState::WritingResponse;
        conn.close_after_write = !keep;
        if conn.idle {
            conn.idle = false;
            self.metrics.idle_keepalive.dec();
        }
        Step::Write
    }

    /// Writes as much pending output as the socket accepts, head and body
    /// in one vectored write; on `WouldBlock` parks the connection for
    /// `EPOLLOUT`, to resume when the peer drains its side at whatever
    /// offset the last write stopped (inside the head or the body). `owes`:
    /// this thread holds a handler slot for a queued request.
    fn write(&self, conn: &mut Conn, owes: bool) -> Step {
        loop {
            let (head, body) = pending(&conn.head, &conn.body, conn.out_pos);
            if head.is_empty() && body.is_empty() {
                return self.finish_write(conn, owes);
            }
            match chronos_util::fail_eval!("http.reactor.write") {
                Some(Injected::Torn { keep }) => {
                    // Torn write: the next `keep` bytes of the response
                    // (head, then body) escape, then the connection dies.
                    let head = &head[..keep.min(head.len())];
                    let body = &body[..(keep - head.len()).min(body.len())];
                    let _ = conn.stream.write_vectored(&[IoSlice::new(head), IoSlice::new(body)]);
                    return Step::Close;
                }
                Some(_) => return Step::Close,
                None => {}
            }
            match conn.stream.write_vectored(&[IoSlice::new(head), IoSlice::new(body)]) {
                Ok(0) => return Step::Close,
                Ok(n) => conn.out_pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    // A peer that never reads must not pin the connection
                    // forever: reuse the stall budget as a write deadline.
                    conn.deadline = Some(Instant::now() + self.cfg.header_read_timeout);
                    return Step::Park(EPOLLOUT);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return Step::Close,
            }
        }
    }

    /// The response is fully out: close, go on to a pipelined request, or
    /// go keep-alive idle.
    fn finish_write(&self, conn: &mut Conn, owes: bool) -> Step {
        // Release a possibly large response body.
        conn.head = Vec::new();
        conn.body = Vec::new();
        conn.out_pos = 0;
        if conn.close_after_write {
            return Step::Close;
        }
        let now = Instant::now();
        if conn.parser.has_partial() {
            // The next (pipelined) request is at least partly here.
            conn.state = conn.reading();
            conn.deadline = Some(now + self.cfg.header_read_timeout);
            if owes {
                // The queued request this thread owes is older: leave this
                // one to the next free thread. The socket is writable, so
                // `EPOLLOUT` reports it at once.
                return Step::Park(EPOLLIN | EPOLLOUT);
            }
            return Step::Parse;
        }
        conn.state = ConnState::KeepAliveIdle;
        conn.idle = true;
        self.metrics.idle_keepalive.inc();
        conn.deadline = Some(now + self.cfg.idle_timeout);
        Step::Park(EPOLLIN)
    }

    /// The chores whichever thread wakes does: fire the timers that came
    /// due (once per wheel tick, by the thread that claims the tick) and,
    /// while draining, close connections with no request in progress.
    fn chores(&self, worker: &mut Worker) {
        let now = Instant::now();
        let draining = self.shared.phase() == PHASE_DRAINING;
        let now_ms = now.duration_since(self.started).as_millis() as u64;
        let due_ms = self.next_tick_ms.load(Ordering::Relaxed);
        let tick = now_ms >= due_ms
            && self
                .next_tick_ms
                .compare_exchange(
                    due_ms,
                    now_ms + TimerWheel::GRANULARITY.as_millis() as u64,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                )
                .is_ok();
        if !tick && !draining {
            return;
        }
        if tick && self.accept_paused.swap(false, Ordering::Relaxed) {
            let fd = self.listener.as_raw_fd();
            let _ = self.epoll.modify(fd, TOKEN_LISTENER, EPOLLIN | EPOLLONESHOT);
        }
        let (mut due, mut idle) = (Vec::new(), Vec::new());
        {
            let mut slab = self.slab.lock();
            if tick {
                let mut expired = Vec::new();
                slab.wheel.advance(now, &mut expired);
                for (slot, generation) in expired {
                    if slab.generations[slot] != generation {
                        continue; // closed since scheduling
                    }
                    slab.scheduled[slot] = None;
                    // A connection a thread owns right now is skipped: its
                    // owner schedules its deadline again when it parks it.
                    let Some(conn) = &slab.entries[slot] else { continue };
                    let deadline = conn.deadline;
                    match deadline {
                        None => {}
                        // Re-arm: the entry was clamped to the wheel horizon,
                        // or the deadline moved since scheduling.
                        Some(deadline) if deadline > now => {
                            slab.schedule(slot, generation, now, deadline)
                        }
                        Some(_) => due.extend(slab.take(slot, generation)),
                    }
                }
            }
            if draining {
                for slot in 0..slab.entries.len() {
                    let Some(conn) = &slab.entries[slot] else { continue };
                    let quiet = match conn.state {
                        ConnState::KeepAliveIdle => true,
                        ConnState::ReadingHeaders | ConnState::ReadingBody => {
                            conn.admitted && !conn.parser.has_partial()
                        }
                        ConnState::WritingResponse => false,
                    };
                    if quiet {
                        let generation = slab.generations[slot];
                        idle.extend(slab.take(slot, generation));
                    }
                }
            }
        }
        for mut conn in due {
            let step = self.expire(&mut conn);
            self.serve(conn, step, worker);
        }
        for conn in idle {
            self.close(conn);
        }
    }

    /// A connection's deadline passed while it was parked.
    fn expire(&self, conn: &mut Conn) -> Step {
        match conn.state {
            ConnState::KeepAliveIdle => {
                // Keep-alive cap reached with no request in sight.
                self.metrics.shed_idle.inc();
                Step::Close
            }
            ConnState::ReadingHeaders | ConnState::ReadingBody => {
                self.metrics.shed_idle.inc();
                if !conn.parser.has_partial() {
                    // Never sent a byte: nothing useful to say.
                    return Step::Close;
                }
                // Slowloris: a half-sent request stalled out. Typed 408 so
                // a sluggish-but-honest client knows what happened.
                let response = Response::error_named(
                    Status::REQUEST_TIMEOUT,
                    CODE_REQUEST_TIMEOUT,
                    "request header or body not completed in time",
                );
                self.respond(conn, response, Method::Get, false)
            }
            // Peer stopped reading its response.
            ConnState::WritingResponse => Step::Close,
        }
    }
}

impl<F> Drop for Core<F> {
    /// Runs once every worker has exited: closes what is left (gauges go to
    /// zero) before the listener and the epoll close with `self`.
    fn drop(&mut self) {
        let slab = self.slab.get_mut();
        let mut left: Vec<Conn> = slab.entries.iter_mut().filter_map(Option::take).collect();
        let admission = self.admission.get_mut().unwrap_or_else(PoisonError::into_inner);
        left.extend(admission.waiting.drain(..).map(|(conn, _)| conn));
        for conn in left {
            let _ = conn.stream.shutdown(Shutdown::Both);
            if conn.admitted {
                self.metrics.inflight.dec();
            }
            if conn.idle {
                self.metrics.idle_keepalive.dec();
            }
            self.metrics.open_connections.dec();
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
