//! The four workloads: how each is set up, driven, checked and restarted.
//!
//! Each run is a fresh process. The untraced run ([`run_end_to_end`])
//! measures the end-to-end metrics against the production server; the
//! traced run (in [`crate::layers`]) reuses the set-up and load code here
//! with spans switched on.

use std::sync::Arc;
use std::time::{Duration, Instant};

use chronos_agent::ControlClient;
use chronos_core::analysis;
use chronos_core::scheduler::EvaluationStatus;
use chronos_http::Client;
use chronos_json::Value;
use chronos_util::Id;
use chronos_workload::generators::seeded_rng;
use rand::Rng;

use crate::fixture::{self, Canned, Plane, Scratch, Serving};
use crate::loadgen::{self, Observed, ReadTarget};
use crate::ops::OpKind;
use crate::stats;
use crate::trace::Tracer;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Two real agents on minidoc at production-default `AgentConfig`.
    PipelineMinidoc,
    /// Two protocol clients drain a lazy grid with no SuE.
    SweepControl,
    /// Two closed-loop readers over a settled history.
    DashboardReads,
    /// One protocol client and one open-loop reader at once.
    LiveMixed,
}

/// An untraced run sets up at least this many times and reports the
/// median; a cheap set-up repeats further, until [`REPEAT_BUDGET`] is spent
/// or [`MAX_REPEATS`] reached.
const MIN_REPEATS: usize = 3;
const MAX_REPEATS: usize = 10;
const REPEAT_BUDGET: Duration = Duration::from_millis(2000);
/// Share of `--seconds` a write workload spends reading its evaluation back
/// after the window; the refresh latency of those workloads comes from here.
pub const READBACK_SHARE: f64 = 0.25;
/// Refreshes per second of `live_mixed`'s open-loop reader (four GETs each).
/// On one CPU the reader's fixed work comes out of the writer's share, so a
/// slow spell of the host costs the writer more than its size, and the more
/// the faster the reader. At 25 about half the jobs overlapped a refresh and
/// the median job flipped between the two populations from run to run
/// (`op_ms_p50` 9.5 or 12.5 ms); at 15 it still did in the host's slow
/// spells (spread 0.18); at 10 a quarter overlap and it does not (0.055).
const LIVE_REFRESHES_PER_S: f64 = 10.0;
/// Settled small evaluations every plane starts with: an installation that
/// has run before. They give `/stats`, the trend and the regression scan a
/// history to walk, and set-up and restart a store that is not empty.
const HISTORY_EVALUATIONS: u64 = 20;
/// Points of each history evaluation: engine × workload × two field lengths.
const HISTORY_POINTS: u64 = 24;

/// Sizes and knobs of one run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Drives the YCSB seed, the response surface and the read-mix order.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// About a twentieth of the size; results are not comparable.
    pub quick: bool,
}

impl Options {
    /// The measured window.
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    fn shrink(&self, full: u64) -> u64 {
        if self.quick {
            (full / 20).max(1)
        } else {
            full
        }
    }
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::PipelineMinidoc,
        Workload::SweepControl,
        Workload::DashboardReads,
        Workload::LiveMixed,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PipelineMinidoc => "pipeline_minidoc",
            Workload::SweepControl => "sweep_control",
            Workload::DashboardReads => "dashboard_reads",
            Workload::LiveMixed => "live_mixed",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Repetitions of the 108-point grid planned for the current
    /// evaluation. The write workloads plan far more than a window can
    /// drain on this commit, so a faster commit still finds work;
    /// `dashboard_reads` settles all of its 540 points in set-up.
    fn reps(self) -> u64 {
        match self {
            Workload::PipelineMinidoc => 20,
            Workload::SweepControl | Workload::LiveMixed => 150,
            Workload::DashboardReads => 5,
        }
    }
}

/// A workload stood up and ready to be driven.
pub struct Stage {
    pub workload: Workload,
    /// `plane.experiment` holds the history; `plane.evaluation` is the
    /// current evaluation, of a second experiment over the full grid.
    pub plane: Plane,
    /// What the history was settled with and protocol clients upload.
    pub canned: Canned,
    pub serving: Serving,
    /// Jobs settled into the history during set-up.
    pub history_jobs: u64,
    /// Kept last so the scratch directory outlives everything using it.
    pub scratch: Scratch,
}

/// The throughput scale of the `i`-th history evaluation: a slow upward
/// drift with one 20 % step down two thirds of the way through, so the
/// trend and regressions endpoints have something to find.
fn history_scale(i: u64) -> f64 {
    let drift = 1.0 + 0.004 * i as f64;
    if i >= HISTORY_EVALUATIONS * 2 / 3 {
        drift * 0.8
    } else {
        drift
    }
}

impl Stage {
    /// Sets the workload up: scratch directory, canned result, durable
    /// plane with its settled history, the current evaluation (settled too
    /// for `dashboard_reads`) and the server.
    pub fn set_up(workload: Workload, options: &Options, tracer: Option<&Arc<Tracer>>) -> Stage {
        let scratch = Scratch::new();
        let canned = Canned::capture(options.seed);
        let small = fixture::grid_over(1, options.seed, &[1000], &[50, 100]);
        let mut plane = Plane::create(&scratch, small, 2);
        assert_eq!(plane.planned, HISTORY_POINTS);
        let history_evaluations = options.shrink(HISTORY_EVALUATIONS);
        for i in 0..history_evaluations {
            if i > 0 {
                plane.add_evaluation(plane.experiment);
            }
            plane.settle_directly(&canned, HISTORY_POINTS, history_scale(i));
        }
        let history_jobs = history_evaluations * HISTORY_POINTS;
        let reps = if workload == Workload::DashboardReads {
            options.shrink(workload.reps())
        } else {
            workload.reps()
        };
        let current = plane.add_experiment("current", fixture::grid(reps, options.seed));
        plane.evaluation = plane.add_evaluation(current);
        plane.planned = reps * fixture::GRID_POINTS;
        if workload == Workload::DashboardReads {
            plane.settle_directly(&canned, plane.planned, 1.0);
        }
        let serving = match tracer {
            Some(tracer) => Serving::traced(&plane, tracer),
            None => Serving::production(&plane),
        };
        Stage { workload, plane, canned, serving, history_jobs, scratch }
    }

    /// Stops the server; the plane and its scratch directory stay.
    pub fn stop_serving(self) -> (Plane, Scratch) {
        self.serving.shutdown();
        (self.plane, self.scratch)
    }

    fn control_client(&self, track: usize) -> ControlClient {
        ControlClient::new(&self.serving.base_url(), &self.plane.tokens[track])
    }

    fn http_client(&self, track: usize) -> Client {
        let http = Client::new(&self.serving.base_url());
        http.set_default_header(chronos_api::TOKEN_HEADER, &self.plane.tokens[track]);
        http
    }

    fn target(&self, kind: OpKind, evaluation: Id) -> ReadTarget {
        ReadTarget { kind, evaluation, experiment: self.plane.experiment }
    }

    /// One dashboard refresh: every read kind once, against the current
    /// evaluation; trend and regressions go to the history experiment.
    fn refresh(&self) -> Vec<ReadTarget> {
        OpKind::READS.iter().map(|kind| self.target(*kind, self.plane.evaluation)).collect()
    }

    /// Drives the workload's load threads for `window`, returning the
    /// merged observations and the seconds the load actually ran.
    pub fn drive(
        &self,
        options: &Options,
        window: Duration,
        tracer: &Arc<Tracer>,
    ) -> (Observed, f64) {
        let started = Instant::now();
        let deadline = started + window;
        let deployment = self.plane.deployment;
        let canned = &self.canned;
        let threads: Vec<Observed> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2usize)
                .map(|track| {
                    scope.spawn(move || match (self.workload, track) {
                        (Workload::PipelineMinidoc, _) => loadgen::agent(
                            self.control_client(track),
                            deployment,
                            tracer,
                            track as u32,
                            deadline,
                        ),
                        (Workload::SweepControl, _) | (Workload::LiveMixed, 0) => {
                            loadgen::protocol_client(
                                &self.control_client(track),
                                deployment,
                                canned,
                                tracer,
                                track as u32,
                                deadline,
                            )
                        }
                        (Workload::LiveMixed, _) => {
                            // What a user watching a running evaluation polls.
                            let round: Vec<ReadTarget> =
                                [OpKind::Status, OpKind::Summary, OpKind::Chart, OpKind::Stats]
                                    .iter()
                                    .map(|kind| self.target(*kind, self.plane.evaluation))
                                    .collect();
                            loadgen::open_loop_reader(
                                &self.http_client(track),
                                &round,
                                LIVE_REFRESHES_PER_S,
                                tracer,
                                track as u32,
                                deadline,
                            )
                        }
                        (Workload::DashboardReads, _) => {
                            let mut rng = seeded_rng(options.seed ^ (track as u64 + 1));
                            let rounds = std::iter::repeat_with(|| {
                                let mut round = self.refresh();
                                shuffle(&mut rng, &mut round);
                                round
                            });
                            loadgen::closed_loop_reader(
                                &self.http_client(track),
                                rounds,
                                tracer,
                                track as u32,
                                deadline,
                            )
                        }
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("load thread panicked")).collect()
        });
        let mut merged = Observed::default();
        for seen in threads {
            merged.merge(seen);
        }
        let ended = merged.ended.unwrap_or_else(Instant::now);
        (merged, ended.duration_since(started).as_secs_f64())
    }

    /// Reads the current evaluation back over HTTP for `window`: one
    /// closed-loop reader, refresh after refresh in canonical order. One,
    /// so that a refresh times the server and not a second reader queueing
    /// for the same two CPUs (with two, the p90 of a sub-millisecond read
    /// is five times its median).
    pub fn read_back(&self, window: Duration, tracer: &Arc<Tracer>) -> Observed {
        let rounds = std::iter::repeat_with(|| self.refresh());
        loadgen::closed_loop_reader(
            &self.http_client(0),
            rounds,
            tracer,
            0,
            Instant::now() + window,
        )
    }
}

/// Fisher–Yates shuffle with the workspace's seeded generator: the order of
/// the read mix.
fn shuffle<T>(rng: &mut impl Rng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// Output checks. Every failed check is a line in `problems`; any line
/// marks the run incorrect.
#[derive(Default)]
pub struct Checks {
    pub problems: Vec<String>,
}

impl Checks {
    /// Records `problem` unless `ok`.
    pub fn require(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }
}

/// The ledger of the running evaluation, as checked before and after a
/// restart.
#[derive(Debug, Clone, PartialEq)]
pub struct Ledger {
    status: EvaluationStatus,
    results: usize,
    summary: String,
}

/// Reads the ledger through direct calls.
pub fn ledger(plane: &Plane) -> Ledger {
    Ledger {
        status: plane.control.evaluation_status(plane.evaluation).expect("evaluation status"),
        results: plane.control.count_results(),
        summary: analysis::summary_table(&plane.control, plane.evaluation)
            .expect("summary table")
            .to_string(),
    }
}

/// Checks the state a write workload left behind: every completed job is
/// finished exactly once, nothing is stuck, the plan adds up, and (for real
/// agents) every result ran its 8000 operations without an error.
fn check_ledger(stage: &Stage, completed: u64, checks: &mut Checks) -> Ledger {
    let ledger = ledger(&stage.plane);
    let status = &ledger.status;
    checks.require(status.finished as u64 == completed, || {
        format!("finished {} != completed {completed}", status.finished)
    });
    checks.require(status.total() as u64 == stage.plane.planned, || {
        format!("finished + open {} != planned {}", status.total(), stage.plane.planned)
    });
    let stuck =
        status.scheduled + status.running + status.failed + status.aborted + status.quarantined;
    checks.require(stuck == 0, || format!("{stuck} jobs are not finished: {status:?}"));
    let jobs = completed + stage.history_jobs;
    checks.require(ledger.results as u64 == jobs, || {
        format!("count_results {} != jobs {jobs}", ledger.results)
    });
    if stage.workload == Workload::PipelineMinidoc {
        for job in stage.plane.control.list_jobs(stage.plane.evaluation).expect("jobs") {
            let data = stage.plane.control.result_for_job(job.id).expect("result").map(|r| r.data);
            let field =
                |name: &str| data.as_ref().and_then(|d| d.get(name)).and_then(Value::as_u64);
            checks.require(field("total_ops") == Some(fixture::OPERATION_COUNT), || {
                format!("job {} total_ops {:?}", job.id, field("total_ops"))
            });
            checks.require(field("total_errors") == Some(0), || {
                format!("job {} total_errors {:?}", job.id, field("total_errors"))
            });
        }
    }
    ledger
}

/// Checks the bodies the dashboard serves for the running evaluation:
/// one summary row and one CSV line per finished job, a chart that is an
/// SVG naming both engines, surface values where canned results were
/// uploaded, and a repeated read that is byte-identical.
fn check_reads(stage: &Stage, finished: u64, checks: &mut Checks) {
    let http = stage.http_client(0);
    let silent = Tracer::new(false);
    let get = |kind: OpKind| {
        loadgen::read_once(&http, &stage.target(kind, stage.plane.evaluation), &silent, 0, 0)
    };
    let mut body_of = |kind: OpKind| match get(kind) {
        Ok(body) => body,
        Err(e) => {
            checks.problems.push(e);
            Vec::new()
        }
    };
    let summary = body_of(OpKind::Summary);
    let chart = body_of(OpKind::Chart);
    let csv = body_of(OpKind::Csv);
    let jobs = body_of(OpKind::Jobs);
    let again = (body_of(OpKind::Summary), body_of(OpKind::Chart), body_of(OpKind::Csv));
    checks.require(again == (summary.clone(), chart.clone(), csv.clone()), || {
        "a repeated read is not byte-identical".to_string()
    });
    let parsed = std::str::from_utf8(&summary).ok().and_then(|s| chronos_json::parse(s).ok());
    let rows = parsed.as_ref().and_then(|v| v.get("rows")).and_then(Value::as_array);
    checks.require(rows.map(Vec::len) == Some(finished as usize), || {
        format!("summary rows {:?} != finished jobs {finished}", rows.map(Vec::len))
    });
    if let (true, Some(rows)) = (stage.workload != Workload::PipelineMinidoc, rows) {
        let wrong = rows.iter().filter(|row| {
            let expected = row.get("parameters").map(|p| stage.canned.expected_throughput(p, 1.0));
            row.pointer("/metrics/throughput_ops_per_sec").and_then(Value::as_f64) != expected
        });
        let wrong = wrong.count();
        checks.require(wrong == 0, || format!("{wrong} summary rows miss their surface value"));
    }
    let chart = String::from_utf8_lossy(&chart);
    checks.require(
        chart.starts_with("<svg") && chart.contains("wiredtiger") && chart.contains("mmapv1"),
        || "chart 0 is not an SVG naming both engines".to_string(),
    );
    let lines = csv.iter().filter(|b| **b == b'\n').count() as u64;
    checks.require(lines == finished + 1, || format!("CSV lines {lines} != finished + header"));
    let listed = std::str::from_utf8(&jobs).ok().and_then(|s| chronos_json::parse(s).ok());
    let listed = listed.as_ref().and_then(Value::as_array).map(Vec::len);
    checks.require(listed == Some(finished as usize), || {
        format!("job list {listed:?} != materialized jobs {finished}")
    });
}

/// Re-opens the store from its log and reads the first summary (which
/// backfills the columnar table); returns the seconds taken and the ledger
/// seen afterwards.
pub fn restart(plane_log: &std::path::Path, evaluation: Id) -> (f64, Ledger) {
    let started = Instant::now();
    let control = Arc::new(fixture::open_control(plane_log));
    let summary = analysis::summary_table(&control, evaluation).expect("summary table").to_string();
    let seconds = started.elapsed().as_secs_f64();
    let ledger = Ledger {
        status: control.evaluation_status(evaluation).expect("evaluation status"),
        results: control.count_results(),
        summary,
    };
    (seconds, ledger)
}

/// Peak resident set of this process (VmHWM), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .unwrap_or(0.0)
}

/// The result of one run, as the last line of output reports it.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    /// Failed output checks; any entry makes the run incorrect.
    pub problems: Vec<String>,
    /// Sample counts and tails, printed above the result line.
    pub notes: Vec<String>,
}

/// "name: n samples, p50 x, pNN y" with the highest percentile the sample
/// supports (ten samples or more beyond it).
pub fn tail_note(name: &str, samples_ms: &[f64]) -> String {
    let tail = match stats::highest_percentile(samples_ms) {
        Some((q, value)) if q > 0.5 => format!(", p{} {value:.3} ms", q * 100.0),
        _ => String::new(),
    };
    format!("{name}: {} samples, p50 {:.3} ms{tail}", samples_ms.len(), stats::median(samples_ms))
}

/// Whether set-up, with these timings so far, should run once more.
fn repeat_again(seconds: &[f64], options: &Options) -> bool {
    let floor = if options.quick { 1 } else { MIN_REPEATS };
    seconds.len() < floor
        || (seconds.len() < MAX_REPEATS
            && seconds.iter().sum::<f64>() < REPEAT_BUDGET.as_secs_f64())
}

/// The untraced run: set-up (repeated, median), the measured window
/// against the production server, output checks, read-back, and one
/// restart whose ledger must match.
pub fn run_end_to_end(workload: Workload, options: &Options) -> Outcome {
    let silent = Arc::new(Tracer::new(false));
    let mut checks = Checks::default();

    let mut setup_seconds = Vec::new();
    let mut stage = None;
    while repeat_again(&setup_seconds, options) {
        if let Some(previous) = stage.take() {
            drop(Stage::stop_serving(previous));
        }
        let started = Instant::now();
        stage = Some(Stage::set_up(workload, options, None));
        setup_seconds.push(started.elapsed().as_secs_f64());
    }
    let stage = stage.expect("at least one set-up");

    let window_opened = Instant::now();
    let (mut seen, elapsed) = stage.drive(options, options.window(), &silent);
    let completed = seen.op_ms.len() as u64;
    // dashboard_reads is the one stationary load: its rate is the median
    // second's, which a stalled or a lucky second on a shared host leaves
    // alone. The other workloads' state grows as they run.
    let read_offsets: Vec<f64> =
        seen.read_done.iter().map(|at| at.duration_since(window_opened).as_secs_f64()).collect();

    // Output checks, then the read-back that gives the workloads without a
    // reader in the window their refresh latency.
    let finished =
        if workload == Workload::DashboardReads { stage.plane.planned } else { completed };
    let before = check_ledger(&stage, finished, &mut checks);
    check_reads(&stage, finished, &mut checks);
    if matches!(workload, Workload::PipelineMinidoc | Workload::SweepControl) {
        seen.merge(stage.read_back(options.window().mul_f64(READBACK_SHARE), &silent));
    }
    if let Some(error) = &seen.first_error {
        checks.problems.push(format!("{} operations failed, first: {error}", seen.failed));
    }

    // Restart: the process re-opens the store from its log.
    let evaluation = stage.plane.evaluation;
    let (plane, scratch) = stage.stop_serving();
    let log_path = plane.log_path.clone();
    drop(plane);
    let (restart_seconds, after) = restart(&log_path, evaluation);
    checks.require(after == before, || {
        format!(
            "ledger after restart differs: {:?}/{} vs {:?}/{}",
            after.status, after.results, before.status, before.results
        )
    });
    drop(scratch);

    // dashboard_reads has no jobs: its operations are the GETs, and the
    // latency of its primary operation is that of a whole refresh.
    let (ops_per_s, op_ms) = match workload {
        Workload::DashboardReads => (stats::median_rate(&read_offsets, elapsed), &seen.refresh_ms),
        _ => (completed as f64 / elapsed, &seen.op_ms),
    };
    let metrics = vec![
        ("setup_s", stats::median(&setup_seconds)),
        ("ops_per_s", ops_per_s),
        ("op_ms_p50", stats::median(op_ms)),
        ("refresh_ms_p50", stats::median(&seen.refresh_ms)),
    ];
    for (name, value) in &metrics {
        checks.require(*value > 0.0 && value.is_finite(), || format!("{name} was not measured"));
    }
    let mut notes = vec![tail_note("job", &seen.op_ms), tail_note("refresh", &seen.refresh_ms)];
    for kind in [OpKind::Status, OpKind::Stats, OpKind::Summary, OpKind::Chart] {
        notes.push(tail_note(kind.label(), &seen.reads_of(kind)));
    }
    if workload == Workload::DashboardReads {
        let per_second = stats::per_second_counts(&read_offsets, elapsed);
        notes.push(format!("GETs in each second of the window: {per_second:?}"));
    }
    notes.push(format!(
        "{} set-ups; restart (reopen + first summary) {restart_seconds:.4} s; peak RSS {:.1} MiB",
        setup_seconds.len(),
        peak_rss_mib()
    ));
    Outcome {
        correct: checks.problems.is_empty(),
        attempted: seen.attempted.max(1),
        failed: seen.failed,
        metrics,
        problems: checks.problems,
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for workload in Workload::ALL {
            assert_eq!(Workload::parse(workload.name()), Some(workload));
        }
        assert_eq!(Workload::parse("cluster_failover"), None);
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..10).collect();
        let mut b = a.clone();
        shuffle(&mut seeded_rng(7), &mut a);
        shuffle(&mut seeded_rng(7), &mut b);
        assert_eq!(a, b, "same seed, same order");
        let mut c: Vec<u32> = (0..10).collect();
        shuffle(&mut seeded_rng(8), &mut c);
        assert_ne!(a, c, "another seed, another order");
        a.sort_unstable();
        assert_eq!(a, (0..10).collect::<Vec<u32>>());
    }

    #[test]
    fn history_steps_down_once() {
        let scales: Vec<f64> = (0..HISTORY_EVALUATIONS).map(history_scale).collect();
        let drops = scales.windows(2).filter(|w| w[1] < w[0]).count();
        assert_eq!(drops, 1);
    }
}
