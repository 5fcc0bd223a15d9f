//! The load generators: closed-loop protocol clients, real agents with
//! their evaluation client and sink wrapped in spans, closed-loop readers
//! and the open-loop reader with due-time accounting.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use chronos_agent::{
    AgentConfig, AgentError, ChronosAgent, ControlClient, DocstoreClient, EvaluationClient,
    HttpSink, JobContext, ResultSink,
};
use chronos_http::Client;
use chronos_json::Value;
use chronos_util::Id;

use crate::fixture::Canned;
use crate::ops::OpKind;
use crate::trace::Tracer;

/// What one load thread observed.
#[derive(Default)]
pub struct Observed {
    /// Operations started.
    pub attempted: u64,
    /// Operations that failed (a shed 429/503 counts).
    pub failed: u64,
    /// Latency of each completed job, ms, in completion order.
    pub op_ms: Vec<f64>,
    /// Latency of each completed dashboard refresh, ms.
    pub refresh_ms: Vec<f64>,
    /// Latency of each read by kind, ms.
    pub read_ms: Vec<(OpKind, f64)>,
    /// When each of those reads was answered.
    pub read_done: Vec<Instant>,
    /// How late the open-loop generator sent each request, ms.
    pub lateness_ms: Vec<f64>,
    /// First error seen, for the failure report.
    pub first_error: Option<String>,
    /// When the thread stopped.
    pub ended: Option<Instant>,
}

impl Observed {
    fn fail(&mut self, error: impl ToString) {
        self.failed += 1;
        self.first_error.get_or_insert_with(|| error.to_string());
    }

    /// Folds another thread's observations into this one.
    pub fn merge(&mut self, other: Observed) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.op_ms.extend(other.op_ms);
        self.refresh_ms.extend(other.refresh_ms);
        self.read_ms.extend(other.read_ms);
        self.read_done.extend(other.read_done);
        self.lateness_ms.extend(other.lateness_ms);
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
        self.ended = self.ended.max(other.ended);
    }

    /// Latencies of one read kind, ms.
    pub fn reads_of(&self, kind: OpKind) -> Vec<f64> {
        self.read_ms.iter().filter(|(k, _)| *k == kind).map(|(_, ms)| *ms).collect()
    }
}

fn millis(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

/// A closed-loop agent-protocol client without an SuE: claim → heartbeat →
/// append_log → upload_result, one job after another until `deadline` or
/// until the grid is drained. A job's latency runs from the claim being
/// sent to the result being acknowledged.
pub fn protocol_client(
    client: &ControlClient,
    deployment: Id,
    canned: &Canned,
    tracer: &Tracer,
    track: u32,
    deadline: Instant,
) -> Observed {
    let mut seen = Observed::default();
    while Instant::now() < deadline {
        seen.attempted += 1;
        let started = Instant::now();
        let root = tracer.begin("harness.job", track, 0, true);
        let call = |kind: OpKind| tracer.begin(kind.call_span(), track, root.id(), true);
        let open = call(OpKind::Claim);
        let claimed = client.claim(deployment);
        tracer.end(open);
        let job = match claimed {
            Ok(Some(job)) => job,
            Ok(None) => {
                seen.attempted -= 1; // drained: nothing was there to attempt
                break;
            }
            Err(e) => {
                seen.fail(e);
                continue;
            }
        };
        let open = call(OpKind::Heartbeat);
        let beat = client.heartbeat(job.id, 50, job.attempts);
        tracer.end(open);
        let open = call(OpKind::Log);
        let logged = client.append_log(job.id, &canned.log);
        tracer.end(open);
        let data = canned.data_for(&job.parameters, 1.0);
        let open = call(OpKind::Result);
        let uploaded = client.upload_result(job.id, job.attempts, &data, &canned.archive);
        tracer.end(open);
        tracer.end(root);
        match beat.and(logged).and(uploaded.map(|_| ())) {
            Ok(()) => seen.op_ms.push(millis(started.elapsed())),
            Err(e) => seen.fail(e),
        }
    }
    seen.ended = Some(Instant::now());
    seen
}

/// The evaluation client of a real agent with a span around every phase.
/// The spans hang under the agent's current `run_once` root.
pub struct SpannedClient<C: EvaluationClient> {
    inner: C,
    tracer: Arc<Tracer>,
    track: u32,
    root: Arc<AtomicU32>,
}

impl<C: EvaluationClient> EvaluationClient for SpannedClient<C> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn set_up(&mut self, ctx: &JobContext) -> Result<(), String> {
        let root = self.root.load(Ordering::SeqCst);
        self.tracer.span("sue.set_up", self.track, root, || self.inner.set_up(ctx))
    }

    fn warm_up(&mut self, ctx: &JobContext) -> Result<(), String> {
        let root = self.root.load(Ordering::SeqCst);
        self.tracer.span("sue.warm_up", self.track, root, || self.inner.warm_up(ctx))
    }

    fn execute(&mut self, ctx: &JobContext) -> Result<Value, String> {
        let root = self.root.load(Ordering::SeqCst);
        self.tracer.span("sue.execute", self.track, root, || self.inner.execute(ctx))
    }

    fn tear_down(&mut self, ctx: &JobContext) {
        let root = self.root.load(Ordering::SeqCst);
        self.tracer.span("sue.tear_down", self.track, root, || self.inner.tear_down(ctx))
    }
}

/// The HTTP sink with a span around the delivery; the span adopts the
/// server-side dispatch of the upload.
struct SpannedSink {
    tracer: Arc<Tracer>,
    track: u32,
    root: Arc<AtomicU32>,
}

impl ResultSink for SpannedSink {
    fn deliver(
        &self,
        client: &ControlClient,
        job: Id,
        attempt: u32,
        data: &Value,
        archive: &[u8],
    ) -> Result<Id, AgentError> {
        let root = self.root.load(Ordering::SeqCst);
        let open = self.tracer.begin("agent.deliver", self.track, root, true);
        let delivered = HttpSink.deliver(client, job, attempt, data, archive);
        self.tracer.end(open);
        delivered
    }
}

/// A real `ChronosAgent<DocstoreClient>` at production-default
/// `AgentConfig`, draining jobs until `deadline`. A job's latency is the
/// whole `run_once`: claim, SuE run, heartbeats, log flush and upload.
pub fn agent(
    client: ControlClient,
    deployment: Id,
    tracer: &Arc<Tracer>,
    track: u32,
    deadline: Instant,
) -> Observed {
    let root = Arc::new(AtomicU32::new(0));
    let mut config = AgentConfig::new(deployment);
    config.sink =
        Box::new(SpannedSink { tracer: Arc::clone(tracer), track, root: Arc::clone(&root) });
    let spanned = SpannedClient {
        inner: DocstoreClient::new(),
        tracer: Arc::clone(tracer),
        track,
        root: Arc::clone(&root),
    };
    let mut agent = ChronosAgent::new(client, config, spanned);
    let mut seen = Observed::default();
    while Instant::now() < deadline {
        seen.attempted += 1;
        let started = Instant::now();
        let open = tracer.begin("agent.run_once", track, 0, true);
        root.store(open.id(), Ordering::SeqCst);
        let ran = agent.run_once();
        tracer.end(open);
        match ran {
            Ok(true) => seen.op_ms.push(millis(started.elapsed())),
            Ok(false) => {
                seen.attempted -= 1;
                break;
            }
            Err(e) => seen.fail(e),
        }
    }
    seen.ended = Some(Instant::now());
    seen
}

/// What a reader GETs: a kind against one evaluation of one experiment.
#[derive(Debug, Clone, Copy)]
pub struct ReadTarget {
    pub kind: OpKind,
    pub evaluation: Id,
    pub experiment: Id,
}

impl ReadTarget {
    fn path(&self) -> String {
        self.kind.read_path(self.evaluation, self.experiment)
    }
}

/// Issues one GET inside a call span; returns the body of a 2xx answer.
pub fn read_once(
    http: &Client,
    target: &ReadTarget,
    tracer: &Tracer,
    track: u32,
    parent: u32,
) -> Result<Vec<u8>, String> {
    let open = tracer.begin(target.kind.call_span(), track, parent, true);
    let answer = http.get(&target.path());
    tracer.end(open);
    match answer {
        Ok(response) if response.status.is_success() => Ok(response.body),
        Ok(response) => Err(format!("GET {} answered {}", target.path(), response.status.0)),
        Err(e) => Err(format!("GET {}: {e}", target.path())),
    }
}

/// One dashboard refresh: the GETs of `round` one after another inside a
/// `harness.refresh` root span. Records each read's own latency; returns
/// whether every read succeeded.
fn refresh_once(
    http: &Client,
    round: &[ReadTarget],
    tracer: &Tracer,
    track: u32,
    seen: &mut Observed,
) -> bool {
    let root = tracer.begin("harness.refresh", track, 0, false);
    let mut complete = true;
    for target in round {
        seen.attempted += 1;
        let started = Instant::now();
        match read_once(http, target, tracer, track, root.id()) {
            Ok(_) => {
                let done = Instant::now();
                seen.read_ms.push((target.kind, millis(done.duration_since(started))));
                seen.read_done.push(done);
            }
            Err(e) => {
                complete = false;
                seen.fail(e);
            }
        }
    }
    tracer.end(root);
    complete
}

/// A closed-loop reader: one refresh after another until `deadline`. Every
/// GET is an operation; a refresh's latency runs from its first GET being
/// sent to its last being answered.
pub fn closed_loop_reader(
    http: &Client,
    rounds: impl Iterator<Item = Vec<ReadTarget>>,
    tracer: &Tracer,
    track: u32,
    deadline: Instant,
) -> Observed {
    let mut seen = Observed::default();
    for round in rounds {
        let started = Instant::now();
        if started >= deadline {
            break;
        }
        if refresh_once(http, &round, tracer, track, &mut seen) {
            seen.refresh_ms.push(millis(started.elapsed()));
        }
    }
    seen.ended = Some(Instant::now());
    seen
}

/// The schedule of an open-loop generator: request `i` is due at
/// `start + i / rate`, whatever happened to the requests before it.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    start: Instant,
    interval: Duration,
}

impl Schedule {
    /// A schedule of `per_second` requests per second from `start`.
    pub fn new(start: Instant, per_second: f64) -> Schedule {
        Schedule { start, interval: Duration::from_secs_f64(1.0 / per_second) }
    }

    /// When request `i` is due.
    pub fn due(&self, i: u64) -> Instant {
        self.start + self.interval.mul_f64(i as f64)
    }
}

/// Accounts for one open-loop request: latency counts from when the
/// request was due, so a stall charges every request it delayed; lateness
/// is how long after its due time the generator got to send it.
pub fn open_loop_account(due: Instant, sent: Instant, done: Instant) -> (f64, f64) {
    (millis(done.saturating_duration_since(due)), millis(sent.saturating_duration_since(due)))
}

/// An open-loop reader: one refresh of `round` every `1 / per_second`
/// seconds, sleeping until each due time and never skipping a refresh when
/// it falls behind. A refresh's latency runs from its due time.
pub fn open_loop_reader(
    http: &Client,
    round: &[ReadTarget],
    per_second: f64,
    tracer: &Tracer,
    track: u32,
    deadline: Instant,
) -> Observed {
    let mut seen = Observed::default();
    let schedule = Schedule::new(Instant::now(), per_second);
    for i in 0u64.. {
        let due = schedule.due(i);
        if due >= deadline {
            break;
        }
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let sent = Instant::now();
        let complete = refresh_once(http, round, tracer, track, &mut seen);
        let (latency, lateness) = open_loop_account(due, sent, Instant::now());
        seen.lateness_ms.push(lateness);
        if complete {
            seen.refresh_ms.push(latency);
        }
    }
    seen.ended = Some(Instant::now());
    seen
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_latency_counts_from_the_due_time_under_a_stall() {
        // 100 requests per second; each takes 2 ms to serve. An injected
        // 50 ms stall hits request 3: requests 3..=7 are sent late, one
        // after another, and each is charged its wait.
        let start = Instant::now();
        let schedule = Schedule::new(start, 100.0);
        let service = Duration::from_millis(2);
        let mut free_at = start; // when the single connection is free again
        let mut latencies = Vec::new();
        let mut latenesses = Vec::new();
        for i in 0..10u64 {
            let due = schedule.due(i);
            let sent = due.max(free_at);
            let stall = if i == 3 { Duration::from_millis(50) } else { Duration::ZERO };
            let done = sent + stall + service;
            free_at = done;
            let (latency, lateness) = open_loop_account(due, sent, done);
            latencies.push(latency.round() as i64);
            latenesses.push(lateness.round() as i64);
        }
        // Request 3 pays its own stall; 4 was due at 40 ms but the
        // connection frees at 82 ms, and so on until the backlog drains.
        assert_eq!(latencies, vec![2, 2, 2, 52, 44, 36, 28, 20, 12, 4]);
        assert_eq!(latenesses, vec![0, 0, 0, 0, 42, 34, 26, 18, 10, 2]);
        // A closed loop would have reported 2 ms for all but request 3.
    }

    #[test]
    fn schedule_is_fixed_by_start_and_rate() {
        let start = Instant::now();
        let schedule = Schedule::new(start, 60.0);
        assert_eq!(schedule.due(0), start);
        let gap = schedule.due(60).duration_since(start);
        assert!((gap.as_secs_f64() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn merge_adds_counts_and_keeps_the_first_error() {
        let mut a = Observed { attempted: 2, op_ms: vec![1.0], ..Observed::default() };
        let mut b = Observed { attempted: 3, op_ms: vec![2.0, 3.0], ..Observed::default() };
        b.fail("boom");
        a.merge(b);
        assert_eq!((a.attempted, a.failed, a.op_ms.len()), (5, 1, 3));
        assert_eq!(a.first_error.as_deref(), Some("boom"));
    }
}
