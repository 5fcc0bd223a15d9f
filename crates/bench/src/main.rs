//! `chronos-bench` — regenerates every experiment of `EXPERIMENTS.md`.
//!
//! ```text
//! cargo run -p chronos-bench --release            # all experiments
//! cargo run -p chronos-bench --release -- E1 E3   # a subset
//! cargo run -p chronos-bench --release -- --quick # smaller sizes
//! ```

use std::sync::Arc;
use std::time::Instant;

use chronos_bench::{fmt_bytes, fmt_tp, row, run_docstore, write_report, RunConfig};
use chronos_core::auth::Role;
use chronos_core::params::{ParamAssignments, ParamDef, ParamType};
use chronos_core::store::MetadataStore;
use chronos_core::ChronosControl;
use chronos_json::Value;

struct Scale {
    records: i64,
    ops: i64,
}

/// What one experiment is run with.
#[derive(Debug, Clone, Copy)]
struct Options {
    /// `--quick`: smaller sizes.
    quick: bool,
    /// The `BENCH_*.json` to write: the experiment's report file under
    /// `--json`, `None` without it.
    report: Option<&'static str>,
}

impl Options {
    /// Record/operation counts of the minidoc demo experiments (E1–E4, E7).
    fn scale(self) -> Scale {
        let (records, ops) = if self.quick { (500, 2_000) } else { (2_000, 8_000) };
        Scale { records, ops }
    }
}

/// Every experiment — its command-line id, the report file `--json` makes
/// it write (if it has one) and the function that runs it — in the order a
/// full run executes them. `--list` prints the first two columns, which is
/// where `scripts/check.sh` gets its smoke and `--bench` lists from.
type Experiment = (&'static str, Option<&'static str>, fn(Options));
const EXPERIMENTS: [Experiment; 14] = [
    ("E1", None, experiment_e1),
    ("E2", None, experiment_e2),
    ("E3", None, experiment_e3),
    ("E4", None, experiment_e4),
    ("E5", None, experiment_e5),
    ("E6", None, experiment_e6),
    ("E7", None, experiment_e7),
    ("E8", Some("BENCH_control_plane.json"), experiment_e8),
    ("E9", Some("BENCH_data_plane.json"), experiment_e9),
    ("E11", Some("BENCH_overload.json"), experiment_e11),
    ("E12", Some("BENCH_http_scale.json"), experiment_e12),
    ("E14", Some("BENCH_cluster.json"), experiment_e14),
    ("E15", Some("BENCH_adaptive.json"), experiment_e15),
    ("E16", Some("BENCH_isolation.json"), experiment_e16),
];

/// What the command line asked for.
#[derive(Debug, Default, PartialEq)]
struct Args {
    quick: bool,
    emit_json: bool,
    list: bool,
    /// The experiment ids it named (canonical spelling; none selects all).
    named: Vec<&'static str>,
}

/// Parses the command line. Anything but a known id, `--quick`, `--json`
/// or `--list` is an error naming the valid choices.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args::default();
    for arg in args {
        match arg.as_str() {
            "--quick" => parsed.quick = true,
            "--json" => parsed.emit_json = true,
            "--list" => parsed.list = true,
            other => match EXPERIMENTS.iter().find(|(id, ..)| id.eq_ignore_ascii_case(other)) {
                Some((id, ..)) => parsed.named.push(*id),
                None => {
                    let ids: Vec<&str> = EXPERIMENTS.iter().map(|(id, ..)| *id).collect();
                    let ids = ids.join(" ");
                    return Err(format!(
                        "unknown argument {other:?}; valid: {ids} --quick --json --list"
                    ));
                }
            },
        }
    }
    Ok(parsed)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&args).unwrap_or_else(|message| {
        eprintln!("chronos-bench: {message}");
        std::process::exit(2);
    });
    if args.list {
        for (id, report, _) in EXPERIMENTS {
            match report {
                Some(file) => println!("{id} {file}"),
                None => println!("{id}"),
            }
        }
        return;
    }

    println!("chronos-bench: reproducing the Chronos (EDBT 2020) demo evaluation");
    println!(
        "host cores: {}\n",
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    );

    // Table order, each at most once, however the ids were named.
    for (id, report, run) in EXPERIMENTS {
        if args.named.is_empty() || args.named.contains(&id) {
            run(Options { quick: args.quick, report: report.filter(|_| args.emit_json) });
        }
    }
}

/// E16 — per-job budget enforcement: what does the agent-side watchdog cost
/// a compliant workload, and how quickly does it contain a runaway one?
/// The overhead half runs a fixed amount of cpu work with and without an
/// armed (never-breaching) watchdog and asserts the slowdown stays ≤2%.
/// The containment half arms tight wall/cpu/rss budgets against the
/// deliberately misbehaving [`chronos_workload::RunawayScenario`] loops and
/// asserts each is cancelled with the right typed dimension — the wall case
/// within one watchdog interval plus scheduling slack. `--json` also writes
/// the numbers to `BENCH_isolation.json`.
fn experiment_e16(Options { quick, report }: Options) {
    use std::time::Duration;

    use chronos_agent::{
        current_rss_kib, BudgetWatchdog, JobBudget, JobContext, BUDGET_EXCEEDED_PREFIX,
    };
    use chronos_util::Id;
    use chronos_workload::{RunawayKind, RunawayScenario};

    println!("== E16: budget enforcement overhead and runaway containment ==");
    let interval = Duration::from_millis(25);
    let reps = if quick { 5usize } else { 9 };
    let spin_rounds = if quick { 40u64 } else { 150 };

    // A fixed, compliant unit of cpu work: the same mixing loop the runaway
    // scenarios spin on, but bounded by round count instead of a budget.
    let compliant_work = |rounds: u64| {
        let mut acc = 0x9e3779b97f4a7c15u64;
        for round in 0..rounds {
            for i in 0..1_000_000u64 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i ^ round).rotate_left(17);
            }
        }
        std::hint::black_box(acc);
    };

    // Overhead: min-of-reps wall time for the fixed work, bare vs with a
    // watchdog sampling procfs every `interval` against budgets the work
    // can never breach. Min is the low-noise estimator for fixed work.
    let mut bare_secs = f64::MAX;
    let mut watched_secs = f64::MAX;
    for _ in 0..reps {
        let start = Instant::now();
        compliant_work(spin_rounds);
        bare_secs = bare_secs.min(start.elapsed().as_secs_f64());
    }
    for _ in 0..reps {
        let ctx = JobContext::new(Id::generate(), Value::Null);
        let generous = JobBudget {
            cpu_millis: Some(3_600_000),
            wall_millis: Some(3_600_000),
            ..Default::default()
        };
        let start = Instant::now();
        let watchdog = BudgetWatchdog::arm(&ctx, generous, interval);
        compliant_work(spin_rounds);
        let elapsed = start.elapsed().as_secs_f64();
        assert!(
            watchdog.disarm().is_none(),
            "a compliant workload must never trip a generous budget"
        );
        assert!(!ctx.is_cancelled());
        watched_secs = watched_secs.min(elapsed);
    }
    let overhead = (watched_secs - bare_secs) / bare_secs;
    assert!(
        overhead <= 0.02,
        "watchdog overhead {:.2}% exceeds the 2% bound (bare {bare_secs:.4}s, watched {watched_secs:.4}s)",
        overhead * 100.0
    );

    // Containment: each runaway trips the budgeted dimension, the watchdog
    // cancels the context, and the abuse loop stops long before its safety
    // cap. Only the wall case gets a latency bound — cpu accrual and rss
    // growth rates depend on host load, but wall-clock detection is purely
    // the watchdog's sampling cadence.
    let wall_budget_millis = 120u64;
    let slack = Duration::from_millis(200);
    struct KillCase {
        dimension: &'static str,
        kind: RunawayKind,
        budget: JobBudget,
        bound_latency: bool,
    }
    let kills = [
        KillCase {
            dimension: "wall_millis",
            kind: RunawayKind::SpinCpu,
            budget: JobBudget { wall_millis: Some(wall_budget_millis), ..Default::default() },
            bound_latency: true,
        },
        KillCase {
            dimension: "cpu_millis",
            kind: RunawayKind::SpinCpu,
            budget: JobBudget { cpu_millis: Some(wall_budget_millis), ..Default::default() },
            bound_latency: false,
        },
        KillCase {
            dimension: "max_rss_kib",
            kind: RunawayKind::AllocBomb,
            budget: JobBudget {
                max_rss_kib: current_rss_kib().map(|rss| rss + 40 * 1024),
                ..Default::default()
            },
            bound_latency: false,
        },
    ];

    let widths = [13, 11, 14, 14, 8];
    println!(
        "{}",
        row(
            &[
                "dimension".into(),
                "scenario".into(),
                "elapsed ms".into(),
                "latency ms".into(),
                "typed".into(),
            ],
            &widths
        )
    );
    let mut kill_reports = Vec::new();
    for case in kills {
        if case.dimension == "max_rss_kib" && case.budget.max_rss_kib.is_none() {
            // procfs is restricted (e.g. a locked-down sandbox): absence of
            // counters must never breach, so there is nothing to measure.
            println!("  max_rss_kib: skipped (procfs rss unavailable)");
            continue;
        }
        let ctx = JobContext::new(Id::generate(), Value::Null);
        let scenario = RunawayScenario::new(case.kind);
        let start = Instant::now();
        let watchdog = BudgetWatchdog::arm(&ctx, case.budget, interval);
        let iterations = scenario.run(&|| ctx.is_cancelled());
        let elapsed = start.elapsed();
        let breach = watchdog.disarm().expect("the runaway must breach its budget");
        assert_eq!(breach.dimension, case.dimension, "breach typed to the budgeted dimension");
        assert!(
            breach.reason().starts_with(BUDGET_EXCEEDED_PREFIX),
            "breach reason carries the typed prefix: {}",
            breach.reason()
        );
        assert!(ctx.is_cancelled(), "the breach cancels the job context");
        assert!(ctx.cancel_reason().starts_with(BUDGET_EXCEEDED_PREFIX));
        assert!(
            elapsed < Duration::from_millis(scenario.cap_millis),
            "containment must beat the scenario's own safety cap"
        );
        if case.kind == RunawayKind::AllocBomb {
            assert!(
                (iterations as usize) < scenario.cap_alloc_mib,
                "the rss breach must fire before the allocation cap"
            );
        }
        let latency = elapsed.saturating_sub(Duration::from_millis(wall_budget_millis));
        if case.bound_latency {
            assert!(
                latency <= interval + slack,
                "wall kill latency {latency:?} exceeds interval {interval:?} + slack {slack:?}"
            );
        }
        println!(
            "{}",
            row(
                &[
                    case.dimension.into(),
                    case.kind.as_str().into(),
                    format!("{:.1}", elapsed.as_secs_f64() * 1e3),
                    if case.bound_latency {
                        format!("{:.1}", latency.as_secs_f64() * 1e3)
                    } else {
                        "-".into()
                    },
                    "ok".into(),
                ],
                &widths
            )
        );
        kill_reports.push(chronos_json::obj! {
            "dimension" => case.dimension,
            "scenario" => case.kind.as_str(),
            "elapsed_millis" => elapsed.as_secs_f64() * 1e3,
            "kill_latency_millis" => latency.as_secs_f64() * 1e3,
            "latency_bounded" => case.bound_latency,
        });
    }
    println!(
        "shape: an armed watchdog costs a compliant workload <=2% \
         (measured {:.2}%), and runaways die typed within the sampling cadence\n",
        overhead * 100.0
    );

    if let Some(path) = report {
        let doc = chronos_json::obj! {
            "experiment" => "E16",
            "description" => "per-job budget enforcement: watchdog overhead on compliant work and kill latency on runaway work",
            "watchdog_interval_millis" => interval.as_millis() as i64,
            "overhead" => chronos_json::obj! {
                "reps" => reps as i64,
                "spin_rounds" => spin_rounds as i64,
                "bare_secs" => bare_secs,
                "watched_secs" => watched_secs,
                "overhead_fraction" => overhead,
                "bound_fraction" => 0.02,
            },
            "wall_budget_millis" => wall_budget_millis as i64,
            "kills" => Value::from(kill_reports),
        };
        write_report(path, doc);
    }
}

/// E15 — adaptive parameter-space scheduling: successive halving over a
/// seeded synthetic response surface vs exhausting the grid. Asserts the
/// adaptive run converges on the best configuration it sampled with at most
/// 30% of the grid's jobs, and that replaying the same seed reproduces the
/// pruning decisions bit-for-bit. `--json` also writes the numbers to
/// `BENCH_adaptive.json` for regression tracking.
fn experiment_e15(Options { quick, report }: Options) {
    use std::collections::HashMap;

    use chronos_core::{AdaptiveConfig, Strategy};
    use chronos_workload::ResponseSurface;

    println!("== E15: adaptive parameter-space scheduling (successive halving) ==");
    let axis: i64 = if quick { 11 } else { 23 };
    let total = (axis * axis) as u64;
    let seeds = [11u64, 23, 47];

    struct AdaptiveRun {
        jobs: u64,
        best_point: u64,
        best_throughput: f64,
        decisions: Vec<Value>,
        claim_secs: f64,
        scores: HashMap<u64, f64>,
    }

    // One full adaptive evaluation against the seeded surface: claim until
    // the source is exhausted, finishing each job with the surface's result
    // document so the rung advance scores through the columnar kernels.
    let run = |seed: u64| -> AdaptiveRun {
        let surface = ResponseSurface::new(seed, 2);
        let control = ChronosControl::in_memory();
        let owner = control.create_user("bench", "pw", Role::Member).unwrap();
        let system = control
            .register_system(
                "sut",
                "",
                vec![
                    ParamDef::new(
                        "x",
                        "",
                        ParamType::Interval { min: 0, max: axis - 1, step: 1 },
                        Value::from(0),
                    )
                    .unwrap(),
                    ParamDef::new(
                        "y",
                        "",
                        ParamType::Interval { min: 0, max: axis - 1, step: 1 },
                        Value::from(0),
                    )
                    .unwrap(),
                ],
                vec![],
            )
            .unwrap();
        let deployment = control.create_deployment(system.id, "bench", "1").unwrap();
        let project = control.create_project("bench", "E15", owner.id).unwrap();
        let experiment = control
            .create_experiment_with_strategy(
                project.id,
                system.id,
                "surface sweep",
                "",
                ParamAssignments::new().sweep_all("x").sweep_all("y"),
                Strategy::Adaptive(AdaptiveConfig { seed, ..Default::default() }),
            )
            .unwrap();
        let evaluation = control.create_evaluation(experiment.id).unwrap();

        let start = Instant::now();
        let mut jobs = 0u64;
        let mut scores: HashMap<u64, f64> = HashMap::new();
        while let Some(job) = control.claim_next_job(deployment.id, None).unwrap() {
            jobs += 1;
            let x = job.parameters.get("x").and_then(Value::as_i64).unwrap();
            let y = job.parameters.get("y").and_then(Value::as_i64).unwrap();
            let coords = [x as f64 / (axis - 1) as f64, y as f64 / (axis - 1) as f64];
            scores.insert(job.point_index.unwrap(), surface.throughput(&coords));
            control
                .finish_job(
                    job.id,
                    surface.result_document(&coords),
                    vec![],
                    Some(job.attempts),
                    None,
                )
                .unwrap();
        }
        let claim_secs = start.elapsed().as_secs_f64();

        let status = control.evaluation_status(evaluation.id).unwrap();
        assert!(status.is_settled(), "adaptive source must drain to settled");
        assert_eq!(status.remaining, Some(0));
        let evaluation = control.get_evaluation(evaluation.id).unwrap();
        let frontier = evaluation.source.unwrap().frontier.unwrap();
        assert_eq!(frontier.candidates.len(), 1, "exactly one survivor");
        let best_point = frontier.candidates[0];
        AdaptiveRun {
            jobs,
            best_point,
            best_throughput: scores[&best_point],
            decisions: frontier.decisions,
            claim_secs,
            scores,
        }
    };

    let widths = [6, 11, 14, 9, 12, 8];
    println!(
        "{}",
        row(
            &[
                "seed".into(),
                "grid jobs".into(),
                "adaptive jobs".into(),
                "budget".into(),
                "regret".into(),
                "replay".into(),
            ],
            &widths
        )
    );
    let mut reports = Vec::new();
    for seed in seeds {
        let outcome = run(seed);

        // The surface is noiseless, so successive halving can never prune
        // its best sampled configuration: the survivor must be the argmax
        // of everything the run measured.
        let sampled_best = outcome.scores.values().fold(f64::MIN, |best, &score| best.max(score));
        assert_eq!(
            outcome.best_throughput, sampled_best,
            "seed {seed}: survivor is not the best sampled configuration"
        );
        let budget = outcome.jobs as f64 / total as f64;
        assert!(budget <= 0.30, "seed {seed}: adaptive used {budget:.2} of the grid (limit 0.30)");

        // Global regret: how far the survivor's throughput sits below the
        // best point anywhere on the full grid.
        let surface = ResponseSurface::new(seed, 2);
        let mut grid_best = f64::MIN;
        for ix in 0..axis {
            for iy in 0..axis {
                let t = surface
                    .throughput(&[ix as f64 / (axis - 1) as f64, iy as f64 / (axis - 1) as f64]);
                grid_best = grid_best.max(t);
            }
        }
        let regret = (grid_best - outcome.best_throughput) / grid_best;

        // Determinism: replaying the seed reproduces every pruning decision.
        let replay = run(seed);
        assert_eq!(replay.decisions, outcome.decisions, "seed {seed}: replay diverged");
        assert_eq!(replay.best_point, outcome.best_point);
        assert_eq!(replay.jobs, outcome.jobs);

        println!(
            "{}",
            row(
                &[
                    seed.to_string(),
                    total.to_string(),
                    outcome.jobs.to_string(),
                    format!("{:.1}%", budget * 100.0),
                    format!("{:.2}%", regret * 100.0),
                    "ok".into(),
                ],
                &widths
            )
        );
        reports.push(chronos_json::obj! {
            "seed" => seed as i64,
            "grid_jobs" => total as i64,
            "adaptive_jobs" => outcome.jobs as i64,
            "budget_fraction" => budget,
            "global_regret" => regret,
            "best_point_index" => outcome.best_point as i64,
            "best_throughput_ops_per_sec" => outcome.best_throughput,
            "rung_decisions" => outcome.decisions.len() as i64,
            "claim_loop_secs" => outcome.claim_secs,
        });
    }
    println!(
        "shape: successive halving reaches each surface's best sampled point \
         with <=30% of the grid's jobs, and seeds replay to identical decisions\n"
    );

    if let Some(path) = report {
        let doc = chronos_json::obj! {
            "experiment" => "E15",
            "description" => "adaptive successive-halving scheduling vs full grid on a seeded response surface",
            "space" => chronos_json::obj! {
                "axes" => 2,
                "axis_cardinality" => axis,
                "total_points" => total as i64,
            },
            "runs" => Value::from(reports),
        };
        write_report(path, doc);
    }
}

/// E12 — connection scaling: goodput and accepted-request p99 vs concurrent
/// keep-alive agent connections on the shipped server. `--json` also
/// writes the sweep to `BENCH_http_scale.json` for regression tracking.
fn experiment_e12(Options { quick, report }: Options) {
    use chronos_bench::http_scale::{
        point_collapsed, point_sustained, run_scale, CoreReport, ScalePoint, DRIVERS,
    };
    use chronos_http::{Response, Server};
    use std::time::Duration;

    println!("== E12: keep-alive connection scaling ==");

    const WORKERS: usize = 4;
    let sweep: Vec<usize> = if quick { vec![4, 64] } else { vec![4, 64, 512, 2048, 8192] };
    let duration = if quick { Duration::from_millis(1500) } else { Duration::from_secs(4) };
    let max_agents = *sweep.last().unwrap();
    // Both sides of the bench hold one fd per agent; make sure the process
    // limit does not silently cap the sweep.
    let nofile = chronos_http::raise_nofile_limit().unwrap_or(0);
    if (nofile as usize) < 2 * max_agents + 64 {
        println!("warning: RLIMIT_NOFILE {nofile} may truncate the {max_agents}-agent point");
    }
    // The open-connection cap must not be the variable under test: idle
    // keep-alive connections count against it, so it has to clear the fleet.
    let inflight_cap = 2 * max_agents + 64;
    let path = "/api/v1/ping";
    let handler = |_req: chronos_http::Request| {
        // Roughly 100-200 µs of real CPU per request — a cheap stats read,
        // not a no-op. This keeps the *server* the bottleneck, so goodput
        // measures serving capacity rather than bench-driver scheduling,
        // and latency percentiles measure queueing rather than noise.
        let mut acc = 0x243f_6a88_85a3_08d3u64;
        for i in 0..500_000u64 {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(acc);
        Response::json(&chronos_json::obj! { "ok" => true })
    };
    // A short queue keeps an *accepted* request's wait bounded by a couple
    // of service times; the long Retry-After hint paces a large shed fleet
    // so shed replies do not become the dominant workload.
    let server = Server::new()
        .workers(WORKERS)
        .queue_depth(2)
        .max_inflight(inflight_cap)
        .retry_after(Duration::from_secs(1))
        .serve("127.0.0.1:0", handler)
        .expect("bind E12 server");

    let widths = [8, 8, 12, 10, 10, 10, 12];
    println!(
        "{}",
        row(
            &[
                "agents".into(),
                "served".into(),
                "goodput/s".into(),
                "p99 ms".into(),
                "shed".into(),
                "errors".into(),
                "reconnects".into(),
            ],
            &widths
        )
    );
    let print_point = |point: &ScalePoint| {
        println!(
            "{}",
            row(
                &[
                    point.agents.to_string(),
                    point.served_agents.to_string(),
                    format!("{:.0}", point.goodput_per_sec),
                    format!("{:.2}", point.p99_ms),
                    point.shed.to_string(),
                    point.errors.to_string(),
                    point.reconnects.to_string(),
                ],
                &widths
            )
        );
    };

    // Warm up (lazy init, fd caches) before measuring anything.
    let _ = run_scale(server.addr(), path, 1, Duration::from_millis(200));
    let mut points: Vec<ScalePoint> = Vec::new();
    for &agents in &sweep {
        // Larger fleets get longer windows: with thousands of agents
        // pacing themselves on shed backoff, each agent needs several
        // attempts inside the window for coverage to be measurable.
        let window = duration * (1 + (agents / 2048) as u32);
        let point = run_scale(server.addr(), path, agents, window);
        print_point(&point);
        let peak = points
            .iter()
            .chain(std::iter::once(&point))
            .map(|p| p.goodput_per_sec)
            .fold(0.0f64, f64::max);
        let collapsed = point_collapsed(&point, peak);
        points.push(point);
        if collapsed {
            println!("collapsed at {agents} agents; skipping larger points");
            break;
        }
    }
    drop(server);
    // The smallest sweep point (as many agents as workers) is the
    // low-concurrency baseline: the p99 budget for every larger point
    // is twice its tail.
    let baseline_p99 = points.first().map(|p| p.p99_ms).unwrap_or(0.0);
    println!(
        "low-concurrency baseline ({} agents): p99 {baseline_p99:.2} ms",
        points.first().map(|p| p.agents).unwrap_or(0)
    );
    let reactor = CoreReport::evaluate("reactor", baseline_p99, points);

    let reactor_peak = reactor.points.iter().map(|p| p.goodput_per_sec).fold(0.0f64, f64::max);
    let best = reactor
        .points
        .iter()
        .filter(|p| point_sustained(p, reactor_peak, reactor.baseline_p99_ms))
        .max_by_key(|p| p.agents);
    println!(
        "shape: with {WORKERS} workers and {DRIVERS} driver threads the server sustains \
         {} keep-alive agents{}\n",
        reactor.sustained_agents,
        best.map(|p| format!(
            "; at that point goodput {:.0}/s, accepted p99 {:.2} ms (budget 2x baseline = {:.2} ms)",
            p.goodput_per_sec,
            p.p99_ms,
            2.0 * reactor.baseline_p99_ms.max(1.0)
        ))
        .unwrap_or_default(),
    );

    if let Some(path) = report {
        let doc = chronos_json::obj! {
            "experiment" => "E12",
            "description" => "keep-alive connection scaling: goodput and accepted-request p99 vs concurrent agent connections",
            "workload" => chronos_json::obj! {
                "endpoint" => path,
                "workers" => WORKERS as i64,
                "max_inflight" => inflight_cap as i64,
                "driver_threads" => DRIVERS as i64,
                "duration_ms" => duration.as_millis() as i64,
                "read_timeout_ms" => 1000i64,
                "keep_alive" => true,
            },
            "reactor" => reactor.to_json(),
        };
        write_report(path, doc);
    }
}

/// E11 — overload protection: goodput and accepted-request p99 vs offered
/// load under bounded admission (typed 429 sheds). `--json` also writes
/// the curve to `BENCH_overload.json` for regression tracking.
fn experiment_e11(Options { quick, report }: Options) {
    use chronos_bench::overload::{run_load, LoadPoint};
    use chronos_http::Server;
    use chronos_server::ChronosServer;
    use std::time::Duration;

    println!("== E11: overload protection (bounded admission) ==");

    // A control plane whose /api/v1/stats walks a real installation, so
    // each request costs actual store work rather than a no-op.
    let evaluations = if quick { 60 } else { 120 };
    let control = Arc::new(ChronosControl::in_memory());
    let owner = control.create_user("bench", "pw", Role::Member).unwrap();
    let token = control.login("bench", "pw").unwrap();
    let system = control
        .register_system(
            "sut",
            "",
            vec![ParamDef::new(
                "a",
                "",
                ParamType::Interval { min: 1, max: 20, step: 1 },
                Value::from(1),
            )
            .unwrap()],
            vec![],
        )
        .unwrap();
    let project = control.create_project("bench", "", owner.id).unwrap();
    let experiment = control
        .create_experiment(
            project.id,
            system.id,
            "load",
            "",
            ParamAssignments::new().sweep_all("a"),
        )
        .unwrap();
    for _ in 0..evaluations {
        control.create_evaluation(experiment.id).unwrap();
    }

    // The smallest honest envelope: one worker, a one-slot queue,
    // in-flight cap 2. Only one handler ever runs (queued work waits off
    // the CPU), so an accepted request's latency stays within the 2x
    // budget on any host — including a single-core CI box. The single
    // queue slot also absorbs the reconnect race of a lone back-to-back
    // client, keeping the unloaded baseline shed-free.
    const WORKERS: usize = 1;
    const QUEUE: usize = 1;
    let saturation = WORKERS + QUEUE;
    let duration = if quick { Duration::from_millis(400) } else { Duration::from_millis(1500) };
    let loads: Vec<usize> = if quick {
        vec![2 * saturation, 4 * saturation]
    } else {
        vec![saturation, 2 * saturation, 4 * saturation]
    };
    let path = "/api/v1/stats";

    let bounded_server = ChronosServer::start_with(
        Arc::clone(&control),
        "127.0.0.1:0",
        Server::new().workers(WORKERS).queue_depth(QUEUE).retry_after(Duration::from_millis(50)),
    )
    .unwrap();
    // Warm up (lazy init, fd caches) before measuring: the unloaded p99
    // is the budget denominator, so its tail must not carry cold-start
    // noise. Measure it over a longer window than the load points.
    let _ = run_load(bounded_server.addr(), path, &token, 1, Duration::from_millis(150));
    let unloaded =
        run_load(bounded_server.addr(), path, &token, 1, duration.max(Duration::from_millis(800)));
    println!(
        "unloaded baseline: p50 {:.2} ms, p99 {:.2} ms ({:.0} req/s)",
        unloaded.p50_ms, unloaded.p99_ms, unloaded.goodput_per_sec
    );

    let widths = [18, 10, 12, 10, 10, 10];
    println!(
        "{}",
        row(
            &[
                "config".into(),
                "clients".into(),
                "goodput/s".into(),
                "p99 ms".into(),
                "shed".into(),
                "errors".into()
            ],
            &widths
        )
    );
    let print_point = |config: &str, point: &LoadPoint| {
        println!(
            "{}",
            row(
                &[
                    config.into(),
                    point.clients.to_string(),
                    format!("{:.0}", point.goodput_per_sec),
                    format!("{:.2}", point.p99_ms),
                    point.shed.to_string(),
                    point.errors.to_string(),
                ],
                &widths
            )
        );
    };

    let mut bounded_points: Vec<LoadPoint> = Vec::new();
    for &clients in &loads {
        let point = run_load(bounded_server.addr(), path, &token, clients, duration);
        print_point("bounded", &point);
        bounded_points.push(point);
    }
    drop(bounded_server);

    let bounded_max = bounded_points.last().unwrap();
    let budget = 2.0 * unloaded.p99_ms;
    println!(
        "shape: at {}x saturation bounded keeps accepted p99 at {:.2} ms \
         (budget 2x unloaded = {:.2} ms) while shedding {} typed 429s\n",
        loads.last().unwrap() / saturation,
        bounded_max.p99_ms,
        budget,
        bounded_max.shed,
    );

    if let Some(path) = report {
        let doc = chronos_json::obj! {
            "experiment" => "E11",
            "description" => "overload protection: goodput and accepted-request p99 vs offered load under bounded admission",
            "workload" => chronos_json::obj! {
                "endpoint" => path,
                "evaluations" => evaluations as i64,
                "jobs_per_evaluation" => 20,
                "workers" => WORKERS as i64,
                "queue_depth" => QUEUE as i64,
                "saturation_clients" => saturation as i64,
                "duration_ms" => duration.as_millis() as i64,
                "connection_per_request" => true,
            },
            "unloaded" => unloaded.to_json(),
            "bounded" => Value::Array(bounded_points.iter().map(LoadPoint::to_json).collect()),
        };
        write_report(path, doc);
    }
}

/// E1 — the demo headline: YCSB-A throughput vs client threads per engine,
/// durable configuration.
fn experiment_e1(options: Options) {
    let scale = options.scale();
    println!("== E1: YCSB-A throughput vs client threads (durable writes) ==");
    let widths = [10, 8, 12, 12, 14];
    println!(
        "{}",
        row(
            &[
                "engine".into(),
                "threads".into(),
                "ops/s".into(),
                "upd p99 µs".into(),
                "read p99 µs".into()
            ],
            &widths
        )
    );
    let mut series: Vec<(String, f64)> = Vec::new();
    for engine in ["wiredtiger", "mmapv1"] {
        for threads in [1i64, 2, 4, 8] {
            let outcome = run_docstore(&RunConfig {
                engine,
                threads,
                durability: true,
                record_count: scale.records,
                operation_count: scale.ops,
                ..RunConfig::default()
            });
            series.push((format!("{engine}/{threads}"), outcome.throughput_ops_per_sec));
            println!(
                "{}",
                row(
                    &[
                        engine.into(),
                        threads.to_string(),
                        fmt_tp(outcome.throughput_ops_per_sec),
                        outcome.update_p99_micros.map(|v| v.to_string()).unwrap_or("-".into()),
                        outcome.read_p99_micros.map(|v| v.to_string()).unwrap_or("-".into()),
                    ],
                    &widths
                )
            );
        }
    }
    let get = |k: &str| series.iter().find(|(n, _)| n == k).map(|(_, v)| *v).unwrap_or(0.0);
    println!(
        "shape: wiredtiger 1->8 threads scales {:.1}x; mmapv1 scales {:.1}x; \
         wiredtiger/mmapv1 at 8 threads = {:.1}x\n",
        get("wiredtiger/8") / get("wiredtiger/1").max(1.0),
        get("mmapv1/8") / get("mmapv1/1").max(1.0),
        get("wiredtiger/8") / get("mmapv1/8").max(1.0),
    );
}

/// E2 — read-heavy mixes: the engines converge as writes (and their locks)
/// leave the picture.
fn experiment_e2(options: Options) {
    let scale = options.scale();
    println!("== E2: read-mix sensitivity (durable, 4 threads) ==");
    let widths = [10, 10, 12];
    println!("{}", row(&["workload".into(), "engine".into(), "ops/s".into()], &widths));
    let mut by_workload: Vec<(&str, f64, f64)> = Vec::new();
    for workload in ["a", "b", "c"] {
        let mut pair = (0.0, 0.0);
        // Read-heavy mixes are far faster per op; give them more operations
        // so the measured phase stays well above timer resolution.
        let ops = match workload {
            "a" => scale.ops,
            "b" => scale.ops * 4,
            _ => scale.ops * 16,
        };
        for engine in ["wiredtiger", "mmapv1"] {
            let outcome = run_docstore(&RunConfig {
                engine,
                threads: 4,
                workload,
                durability: true,
                record_count: scale.records,
                operation_count: ops,
                ..RunConfig::default()
            });
            if engine == "wiredtiger" {
                pair.0 = outcome.throughput_ops_per_sec;
            } else {
                pair.1 = outcome.throughput_ops_per_sec;
            }
            println!(
                "{}",
                row(
                    &[workload.into(), engine.into(), fmt_tp(outcome.throughput_ops_per_sec)],
                    &widths
                )
            );
        }
        by_workload.push((workload, pair.0, pair.1));
    }
    for (workload, wt, mm) in &by_workload {
        println!("shape: workload {}: wiredtiger/mmapv1 = {:.1}x", workload, wt / mm.max(1.0));
    }
    println!();
}

/// E3 — bulk load (the workflow's data-ingestion step) and the storage
/// footprint after loading, including the compression ablation.
fn experiment_e3(options: Options) {
    let scale = options.scale();
    println!("== E3: bulk load and storage footprint ==");
    let widths = [22, 12, 12, 12];
    println!(
        "{}",
        row(
            &["configuration".into(), "load ops/s".into(), "stored".into(), "amplif.".into()],
            &widths
        )
    );
    for (label, engine, compression) in [
        ("wiredtiger+compress", "wiredtiger", true),
        ("wiredtiger-nocompress", "wiredtiger", false),
        ("mmapv1", "mmapv1", false),
    ] {
        // Load-only run: measure via an insert-only "workload" by loading
        // `records` and running zero operations.
        let start = Instant::now();
        let outcome = run_docstore(&RunConfig {
            engine,
            compression,
            threads: 1,
            record_count: scale.records * 4,
            operation_count: 1, // execute phase negligible
            durability: false,
            ..RunConfig::default()
        });
        let load_secs = start.elapsed().as_secs_f64();
        let load_rate = (scale.records * 4) as f64 / load_secs;
        println!(
            "{}",
            row(
                &[
                    label.into(),
                    fmt_tp(load_rate),
                    fmt_bytes(outcome.stored_bytes),
                    format!(
                        "{:.2}x",
                        outcome.stored_bytes as f64 / outcome.logical_bytes.max(1) as f64
                    ),
                ],
                &widths
            )
        );
    }
    println!(
        "shape: compression shrinks wiredtiger's footprint well below mmapv1's padded extents\n"
    );
}

/// E4 — document size sensitivity (field_length sweep), in-memory to
/// isolate the CPU/storage path from fsync.
fn experiment_e4(options: Options) {
    let scale = options.scale();
    println!("== E4: document size sensitivity (YCSB-A, 2 threads, in-memory) ==");
    let widths = [10, 12, 12, 12];
    println!(
        "{}",
        row(&["field len".into(), "engine".into(), "ops/s".into(), "stored".into()], &widths)
    );
    for field_length in [64i64, 256, 1024] {
        for engine in ["wiredtiger", "mmapv1"] {
            let outcome = run_docstore(&RunConfig {
                engine,
                threads: 2,
                field_length,
                record_count: scale.records / 2,
                operation_count: scale.ops,
                durability: false,
                ..RunConfig::default()
            });
            println!(
                "{}",
                row(
                    &[
                        field_length.to_string(),
                        engine.into(),
                        fmt_tp(outcome.throughput_ops_per_sec),
                        fmt_bytes(outcome.stored_bytes),
                    ],
                    &widths
                )
            );
        }
    }
    println!(
        "shape: mmapv1's power-of-2 padding amplifies storage as documents grow; \
              wiredtiger pays compression CPU but stores far less\n"
    );
}

/// E5 — control plane: evaluation-space expansion, claim throughput,
/// store recovery.
fn experiment_e5(_: Options) {
    println!("== E5: Chronos Control plane ==");
    let control = ChronosControl::in_memory();
    let owner = control.create_user("bench", "pw", Role::Member).unwrap();
    let system = control
        .register_system(
            "sut",
            "",
            vec![
                ParamDef::new(
                    "a",
                    "",
                    ParamType::Interval { min: 1, max: 20, step: 1 },
                    Value::from(1),
                )
                .unwrap(),
                ParamDef::new(
                    "b",
                    "",
                    ParamType::Interval { min: 1, max: 50, step: 1 },
                    Value::from(1),
                )
                .unwrap(),
            ],
            vec![],
        )
        .unwrap();
    let deployment = control.create_deployment(system.id, "bench", "1").unwrap();
    let project = control.create_project("bench", "", owner.id).unwrap();
    let experiment = control
        .create_experiment(
            project.id,
            system.id,
            "expansion",
            "",
            ParamAssignments::new().sweep_all("a").sweep_all("b"),
        )
        .unwrap();

    let start = Instant::now();
    let evaluation = control.create_evaluation(experiment.id).unwrap();
    let planning = start.elapsed();
    let planned = evaluation.source.as_ref().map(|s| s.total_points).unwrap_or(0);
    println!(
        "evaluation planning: {} points in {:.2} ms (jobs materialize lazily on claim)",
        planned,
        planning.as_secs_f64() * 1e3,
    );

    let start = Instant::now();
    let mut claimed = 0;
    while control.claim_next_job(deployment.id, None).unwrap().is_some() {
        claimed += 1;
    }
    let claims = start.elapsed();
    println!(
        "job claims (incl. lazy materialization): {} in {:.1} ms ({:.0} claims/s)",
        claimed,
        claims.as_secs_f64() * 1e3,
        claimed as f64 / claims.as_secs_f64()
    );

    // Recovery: rebuild a durable store holding all those jobs.
    let path = std::env::temp_dir().join(format!("chronos-bench-store-{}.log", std::process::id()));
    let _ = std::fs::remove_file(&path);
    {
        let store = MetadataStore::open(&path).unwrap();
        let durable =
            ChronosControl::new(store, Arc::new(chronos_util::SystemClock), Default::default());
        let owner = durable.create_user("bench", "pw", Role::Member).unwrap();
        let system = durable.register_system("sut", "", vec![], vec![]).unwrap();
        let deployment = durable.create_deployment(system.id, "bench", "1").unwrap();
        let project = durable.create_project("bench", "", owner.id).unwrap();
        let experiment = durable
            .create_experiment(project.id, system.id, "x", "", ParamAssignments::new())
            .unwrap();
        for _ in 0..200 {
            durable.create_evaluation(experiment.id).unwrap();
        }
        // Materialize every planned point so recovery replays job documents.
        while durable.claim_next_job(deployment.id, None).unwrap().is_some() {}
    }
    let start = Instant::now();
    let store = MetadataStore::open(&path).unwrap();
    let recovery = start.elapsed();
    println!(
        "store recovery: {} jobs replayed in {:.1} ms",
        store.count("job"),
        recovery.as_secs_f64() * 1e3
    );
    let _ = std::fs::remove_file(&path);
    println!();
}

/// E6 — the result pipeline: JSON encode/parse, zip pack/unpack, base64.
fn experiment_e6(_: Options) {
    println!("== E6: result pipeline (JSON + zip, per paper §2.1) ==");
    // A realistic result document: a merged RunSummary.
    let outcome = run_docstore(&RunConfig {
        record_count: 500,
        operation_count: 2_000,
        ..RunConfig::default()
    });
    let _ = outcome;
    let mut client = chronos_agent::DocstoreClient::new();
    let ctx = chronos_agent::JobContext::new(
        chronos_util::Id::generate(),
        RunConfig { record_count: 500, operation_count: 2_000, ..RunConfig::default() }.to_params(),
    );
    use chronos_agent::EvaluationClient;
    client.set_up(&ctx).unwrap();
    let data = client.execute(&ctx).unwrap();
    client.tear_down(&ctx);

    let text = data.to_string();
    println!("result document: {} bytes of JSON", text.len());
    let bench = |label: &str, mut f: Box<dyn FnMut()>| {
        let iters = 2_000;
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let per = start.elapsed().as_secs_f64() / iters as f64;
        println!("  {label:<28} {:.1} µs/op", per * 1e6);
    };
    let text2 = text.clone();
    bench(
        "json serialize",
        Box::new(move || {
            let _ = data.to_string();
        }),
    );
    bench(
        "json parse",
        Box::new(move || {
            let _ = chronos_json::parse(&text2).unwrap();
        }),
    );
    let payload: Vec<u8> = text.clone().into_bytes();
    let payload2 = payload.clone();
    bench(
        "zip pack (1 entry)",
        Box::new(move || {
            let mut w = chronos_zip::ZipWriter::new();
            w.add_file("result.json", &payload).unwrap();
            let _ = w.finish();
        }),
    );
    let archive = {
        let mut w = chronos_zip::ZipWriter::new();
        w.add_file("result.json", &payload2).unwrap();
        w.finish()
    };
    bench(
        "zip parse+extract",
        Box::new(move || {
            let a = chronos_zip::ZipArchive::parse(&archive).unwrap();
            let _ = a.read("result.json").unwrap();
        }),
    );
    let bytes = text.into_bytes();
    let encoded = chronos_util::encode::base64_encode(&bytes);
    bench(
        "base64 encode",
        Box::new(move || {
            let _ = chronos_util::encode::base64_encode(&bytes);
        }),
    );
    bench(
        "base64 decode",
        Box::new(move || {
            let _ = chronos_util::encode::base64_decode(&encoded).unwrap();
        }),
    );
    println!();
}

/// E8 — metadata store under contention: the sharded group-commit store
/// under 1 and 8 threads of mixed put/get/list, appending to a real log
/// file. `--json` also writes the numbers to `BENCH_control_plane.json`
/// for regression tracking.
fn experiment_e8(Options { quick, report }: Options) {
    use chronos_bench::contention::run_mixed;

    println!("== E8: metadata store contention (mixed 50% put / 40% get / 10% list) ==");
    let ops_per_thread: u64 = if quick { 5_000 } else { 20_000 };
    let path = std::env::temp_dir().join(format!("chronos-bench-e8-{}.log", std::process::id()));

    let widths = [10, 14];
    println!("{}", row(&["threads".into(), "sharded".into()], &widths));
    let mut rates: Vec<f64> = Vec::new();
    let mut runs: Vec<Value> = Vec::new();
    for threads in [1u64, 8] {
        let _ = std::fs::remove_file(&path);
        let store = MetadataStore::open(&path).unwrap();
        let rate = run_mixed(&store, threads, ops_per_thread).ops_per_sec();
        drop(store);
        let _ = std::fs::remove_file(&path);
        println!("{}", row(&[threads.to_string(), fmt_tp(rate)], &widths));
        runs.push(chronos_json::obj! {"threads" => threads as i64, "sharded_ops_per_sec" => rate});
        rates.push(rate);
    }
    println!(
        "shape: per-kind shards + group commit batch contending appends; \
         8 threads keep {:.0}% of the single-thread rate\n",
        100.0 * rates[1] / rates[0].max(1.0)
    );

    if let Some(path) = report {
        let doc = chronos_json::obj! {
            "experiment" => "E8",
            "description" => "metadata store contention: sharded group-commit store under mixed put/get/list",
            "workload" => chronos_json::obj! {
                "mix" => "50% put / 40% get / 10% list",
                "kinds" => chronos_bench::contention::KINDS.len() as i64,
                "ids_per_kind" => chronos_bench::contention::IDS_PER_KIND as i64,
                "ops_per_thread" => ops_per_thread as i64,
                "durable_log" => true,
            },
            "runs" => Value::Array(runs),
        };
        write_report(path, doc);
    }
}

/// E9 — data-plane read path: engine cursors (scans) and predicate
/// pushdown over the encoded bytes (non-indexed finds), per engine.
/// `--json` also writes the numbers to `BENCH_data_plane.json` for
/// regression tracking.
fn experiment_e9(Options { quick, report }: Options) {
    use chronos_bench::data_plane::{self, load, run_finds_pushdown, run_scans_cursor};

    println!("== E9: data-plane read path (scans + non-indexed find) ==");
    let records = if quick { 2_000 } else { 20_000 };
    let scans = if quick { 500 } else { 2_000 };
    let finds = if quick { 30 } else { 100 };
    let widths = [10, 26, 12, 12];
    println!(
        "{}",
        row(&["engine".into(), "workload".into(), "ops/s".into(), "rows".into()], &widths)
    );
    let mut results: Vec<Value> = Vec::new();
    for engine in ["wiredtiger", "mmapv1"] {
        let db = load(engine, records, 100);
        let coll = db.collection("usertable");
        let legs = [
            ("scan (YCSB-E, len 50)", "scans_per_sec", run_scans_cursor(&coll, scans)),
            ("find (non-indexed, ~1%)", "finds_per_sec", run_finds_pushdown(&coll, finds)),
        ];
        for (label, unit, report) in legs {
            let (rate, rows) = (fmt_tp(report.ops_per_sec()), report.rows.to_string());
            println!("{}", row(&[engine.into(), label.into(), rate, rows], &widths));
            results.push(chronos_json::obj! {
                "engine" => engine,
                "workload" => label,
                "unit" => unit,
                "rows_touched" => report.rows as i64,
                "new_ops_per_sec" => report.ops_per_sec(),
            });
        }
    }
    println!("shape: cursors skip per-row decode, pushdown decodes only matches\n");

    if let Some(path) = report {
        let doc = chronos_json::obj! {
            "experiment" => "E9",
            "description" => "data-plane read path: engine cursors + predicate pushdown",
            "workload" => chronos_json::obj! {
                "records" => records as i64,
                "scan_length" => data_plane::SCAN_LEN as i64,
                "scans" => scans as i64,
                "find_queries" => finds as i64,
                "find_selectivity" => 1.0 / data_plane::GROUPS as f64,
            },
            "runs" => Value::Array(results),
        };
        write_report(path, doc);
    }
}

/// E7 — tpcc-lite: the paper's future-work OLTP-Bench direction. Per-engine
/// new-orders/minute and per-transaction-type p99 latency, durable mode.
fn experiment_e7(options: Options) {
    use chronos_agent::{EvaluationClient, JobContext, TpccClient};
    let scale = options.scale();
    println!("== E7: tpcc-lite transactions (durable, 4 terminals) ==");
    let widths = [10, 14, 14, 16];
    println!(
        "{}",
        row(
            &["engine".into(), "tx/s".into(), "neworders/min".into(), "payment p99 µs".into()],
            &widths
        )
    );
    for engine in ["wiredtiger", "mmapv1"] {
        let mut client = TpccClient::new();
        let ctx = JobContext::new(
            chronos_util::Id::generate(),
            chronos_json::obj! {
                "engine" => engine,
                "threads" => 4,
                "warehouses" => 2,
                "transaction_count" => scale.ops / 4,
                "durability" => true,
            },
        );
        client.set_up(&ctx).unwrap();
        let data = client.execute(&ctx).unwrap();
        client.tear_down(&ctx);
        println!(
            "{}",
            row(
                &[
                    engine.into(),
                    fmt_tp(
                        data.pointer("/throughput_ops_per_sec")
                            .and_then(Value::as_f64)
                            .unwrap_or(0.0)
                    ),
                    fmt_tp(
                        data.pointer("/new_orders_per_minute")
                            .and_then(Value::as_f64)
                            .unwrap_or(0.0)
                    ),
                    data.pointer("/operations/payment/latency_micros/p99")
                        .and_then(Value::as_u64)
                        .map(|v| v.to_string())
                        .unwrap_or("-".into()),
                ],
                &widths
            )
        );
    }
    println!("shape: transactional read-modify-write mixes amplify the engines' write-path gap\n");
}

/// E14 — replicated control plane: a 3-node WAL-shipping cluster runs a
/// real evaluation, the leader is killed mid-flight, and the bench
/// measures (a) failover time against the 2-lease-period budget, (b) the
/// exactly-once ledger across the leader death, and (c) follower read
/// scaling vs a single node at equal worker counts. `--json` also writes
/// the numbers to `BENCH_cluster.json` for regression tracking.
fn experiment_e14(Options { quick, report }: Options) {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    use chronos_agent::{AgentConfig, ChronosAgent, ControlClient, DocstoreClient};
    use chronos_bench::overload::run_load;
    use chronos_core::cluster::election_jitter;
    use chronos_core::model::JobState;
    use chronos_core::scheduler::SchedulerConfig;
    use chronos_http::Server;
    use chronos_json::arr;
    use chronos_server::{ChronosServer, ClusterOptions};
    use chronos_util::SystemClock;

    println!("== E14: replicated control plane (failover, exactly-once, read scaling) ==");

    let lease = Duration::from_millis(600);
    // Node ids seed the deterministic election jitter, and this triple is
    // picked so that at the terms a failover lands on (2, then 3 on a
    // retry) every possible surviving pair has (a) its first-to-stand
    // jitter past ~0.2 lease — the voter's own lease on the dead leader
    // has expired, so the vote is granted — (b) at most ~0.54 lease, so
    // detection + election fits the asserted two-lease budget, and (c)
    // the pair split by ≥ 0.29 lease, so the slower survivor sees the
    // winner's heartbeat instead of standing too and splitting the vote.
    let node_ids = ["ctl-b", "ctl-i", "cp-d"];
    let mut servers: Vec<ChronosServer> = node_ids
        .iter()
        .map(|id| {
            let control = Arc::new(ChronosControl::new(
                MetadataStore::in_memory(),
                Arc::new(SystemClock),
                SchedulerConfig {
                    heartbeat_timeout_millis: 2_500,
                    max_attempts: 12,
                    auto_reschedule: true,
                },
            ));
            ChronosServer::start_cluster(
                control,
                "127.0.0.1:0",
                Server::new(),
                ClusterOptions::new(*id).with_lease(lease),
            )
            .expect("bind cluster node")
        })
        .collect();
    let urls: Vec<String> = servers.iter().map(ChronosServer::base_url).collect();
    for (i, server) in servers.iter().enumerate() {
        server.set_cluster_peers(
            urls.iter().enumerate().filter(|&(j, _)| j != i).map(|(_, u)| u.clone()).collect(),
        );
    }

    let wait_for_leader = |servers: &[ChronosServer]| -> usize {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Some(i) = servers.iter().position(|s| s.cluster().unwrap().is_leader()) {
                return i;
            }
            assert!(Instant::now() < deadline, "no leader elected within 10s");
            std::thread::sleep(Duration::from_millis(10));
        }
    };
    let wait_replicated = |servers: &[ChronosServer], offset: u64| {
        let deadline = Instant::now() + Duration::from_secs(10);
        while servers.iter().any(|s| s.control().replication_offset() < offset) {
            assert!(Instant::now() < deadline, "replication never caught up to {offset}");
            std::thread::sleep(Duration::from_millis(10));
        }
    };

    // ----- setup: a real evaluation on the leader, replicated everywhere --
    let leader = wait_for_leader(&servers);
    let control = Arc::clone(servers[leader].control());
    let admin = control.create_user("bench", "bench-pw", Role::Admin).unwrap();
    let system = control
        .register_system_from_definition(&chronos_json::obj! {
            "name" => "minidoc",
            "description" => "embedded document store with two storage engines",
            "parameters" => arr![
                chronos_json::obj! {
                    "name" => "engine", "description" => "storage engine",
                    "type" => "checkbox", "options" => arr!["wiredtiger", "mmapv1"],
                    "default" => "wiredtiger",
                },
                chronos_json::obj! {
                    "name" => "threads", "description" => "client threads",
                    "type" => "interval", "min" => 1, "max" => 8, "step" => 1, "default" => 1,
                },
                chronos_json::obj! {
                    "name" => "workload", "description" => "YCSB core workload",
                    "type" => "checkbox", "options" => arr!["a"], "default" => "a",
                },
                chronos_json::obj! {
                    "name" => "record_count", "description" => "records to load",
                    "type" => "value", "default" => 60,
                },
                chronos_json::obj! {
                    "name" => "operation_count", "description" => "operations to run",
                    "type" => "value", "default" => 120,
                },
            ],
        })
        .unwrap();
    let deployment = control.create_deployment(system.id, "bench-cluster", "0.1.0").unwrap();
    let project = control.create_project("cluster bench", "E14", admin.id).unwrap();
    let experiment = control
        .create_experiment(
            project.id,
            system.id,
            "failover sweep",
            "",
            ParamAssignments::new()
                .sweep_all("engine")
                .sweep("threads", vec![Value::from(1), Value::from(2)]),
        )
        .unwrap();
    let evaluation = control.create_evaluation(experiment.id).unwrap();
    let job_count = control.evaluation_status(evaluation.id).unwrap().total();
    wait_replicated(&servers, control.replication_offset());

    // ----- (c) read scaling: same worker count, one node vs the cluster --
    // Status GETs are the hot read path; sessions are node-local, so each
    // node serves its own token. "Single node" aims every worker at the
    // leader; "cluster" spreads the same workers over all three nodes,
    // where the followers answer from their replicas under the staleness
    // guard. Equal total workers, identical (replicated) data.
    let read_workers = 6usize;
    let read_duration = if quick { Duration::from_millis(800) } else { Duration::from_secs(2) };
    let tokens: Vec<String> =
        servers.iter().map(|s| s.control().login("bench", "bench-pw").unwrap()).collect();
    let warm = Duration::from_millis(150);
    let _ = run_load(servers[leader].addr(), "/api/v1/systems", &tokens[leader], 1, warm);
    let single = run_load(
        servers[leader].addr(),
        "/api/v1/systems",
        &tokens[leader],
        read_workers,
        read_duration,
    );
    let per_node = read_workers / servers.len();
    let cluster_points: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = servers
            .iter()
            .zip(&tokens)
            .map(|(server, token)| {
                let (addr, token) = (server.addr(), token.clone());
                scope.spawn(move || {
                    run_load(addr, "/api/v1/systems", &token, per_node, read_duration)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let cluster_gets: f64 = cluster_points.iter().map(|p| p.goodput_per_sec).sum();
    let scaling = cluster_gets / single.goodput_per_sec.max(1.0);
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    // Read capacity scales with serving nodes only when the host has the
    // cores to run them: with every node sharing one core the measurement
    // is CPU-bound and the ratio pins near 1x, so the 2x floor is only
    // asserted on hosts with at least 4 cores.
    let scaling_enforced = cores >= 4;
    if scaling_enforced {
        assert!(
            scaling >= 2.0,
            "follower reads must at least double single-node capacity: got {scaling:.2}x"
        );
    }

    // ----- (a)+(b): kill the leader mid-evaluation ------------------------
    let done = Arc::new(AtomicBool::new(false));
    let agents: Vec<_> = (0..2)
        .map(|i| {
            let start = urls[(leader + 1 + i) % urls.len()].clone();
            let urls = urls.clone();
            let done = Arc::clone(&done);
            let deployment_id = deployment.id;
            std::thread::Builder::new()
                .name(format!("e14-agent-{i}"))
                .spawn(move || {
                    let client = ControlClient::login(&start, "bench", "bench-pw")
                        .expect("agent login")
                        .with_seed_nodes(&urls);
                    let mut config = AgentConfig::new(deployment_id);
                    config.heartbeat_interval = Duration::from_millis(100);
                    config.poll_interval = Duration::from_millis(25);
                    let mut agent = ChronosAgent::new(client, config, DocstoreClient::new());
                    let mut completed = 0u64;
                    while !done.load(Ordering::SeqCst) {
                        match agent.run_once() {
                            Ok(true) => completed += 1,
                            Ok(false) | Err(_) => std::thread::sleep(Duration::from_millis(25)),
                        }
                    }
                    completed
                })
                .unwrap()
        })
        .collect();

    // Let the evaluation get under way, then kill the leader.
    let phase_deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let finished = control
            .list_jobs(evaluation.id)
            .unwrap()
            .iter()
            .filter(|j| j.state == JobState::Finished)
            .count();
        if finished >= 1 {
            break;
        }
        assert!(Instant::now() < phase_deadline, "no job finished before the kill");
        std::thread::sleep(Duration::from_millis(50));
    }
    let mut dead = servers.remove(leader);
    let dead_term = dead.cluster().unwrap().term();
    // The clock starts when the kill starts: shutdown() drains in-flight
    // connections, and that drain is part of the outage.
    let killed_at = Instant::now();
    dead.shutdown();

    let budget = lease * 2;
    let survivor_jitter: Vec<Duration> = servers
        .iter()
        .map(|s| election_jitter(s.cluster().unwrap().node_id(), dead_term + 1, lease))
        .collect();
    let new_leader = loop {
        if let Some(i) = servers.iter().position(|s| s.cluster().unwrap().is_leader()) {
            break i;
        }
        assert!(
            Instant::now() < killed_at + budget * 4,
            "no new leader long after the {budget:?} budget"
        );
        std::thread::sleep(Duration::from_millis(5));
    };
    let failover = killed_at.elapsed();
    assert!(
        failover <= budget,
        "failover took {failover:?}, beyond two lease periods ({budget:?}); \
         survivor jitters {survivor_jitter:?}"
    );

    // The evaluation must finish on the new leader, exactly once.
    let control = Arc::clone(servers[new_leader].control());
    let deadline = Instant::now() + Duration::from_secs(120);
    while Instant::now() < deadline {
        let jobs = control.list_jobs(evaluation.id).unwrap();
        if jobs.iter().all(|j| j.state == JobState::Finished)
            && control.count_results() == job_count
        {
            break;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    done.store(true, Ordering::SeqCst);
    let completed: u64 = agents.into_iter().map(|h| h.join().unwrap()).sum();
    let jobs = control.list_jobs(evaluation.id).unwrap();
    let finished = jobs.iter().filter(|j| j.state == JobState::Finished).count();
    let results = control.count_results();
    assert_eq!(jobs.len(), job_count, "jobs vanished across the failover");
    assert_eq!(finished, job_count, "evaluation did not finish on the new leader");
    assert!(jobs.iter().all(|j| j.result_id.is_some()), "a finished job has no result");
    assert_eq!(results, job_count, "duplicate or lost results across the failover");
    assert!(completed >= 1, "no agent ever completed a job");

    let widths = [26, 14, 14];
    println!("{}", row(&["measure".into(), "value".into(), "bound".into()], &widths));
    println!(
        "{}",
        row(
            &[
                "failover".into(),
                format!("{} ms", failover.as_millis()),
                format!("<= {} ms", budget.as_millis()),
            ],
            &widths
        )
    );
    println!(
        "{}",
        row(
            &["results / jobs".into(), format!("{results} / {job_count}"), "exactly once".into()],
            &widths
        )
    );
    println!(
        "{}",
        row(
            &[
                "read scaling".into(),
                format!("{scaling:.2}x"),
                if scaling_enforced {
                    ">= 2.00x".into()
                } else {
                    format!("({cores} cores: reported only)")
                },
            ],
            &widths
        )
    );
    println!(
        "shape: leases bound detection, deterministic jitter bounds the election, and the \
         replicated claim/result keys keep every job exactly-once through the kill\n"
    );

    if let Some(path) = report {
        let doc = chronos_json::obj! {
            "experiment" => "E14",
            "description" => "replicated control plane: failover, exactly-once ledger, follower read scaling",
            "cluster" => chronos_json::obj! {
                "nodes" => node_ids.len() as i64,
                "lease_millis" => lease.as_millis() as i64,
                "fenced_term" => dead_term as i64,
            },
            "failover" => chronos_json::obj! {
                "millis" => failover.as_millis() as i64,
                "budget_millis" => budget.as_millis() as i64,
                "within_two_leases" => failover <= budget,
                "new_term" => servers[new_leader].cluster().unwrap().term() as i64,
            },
            "exactly_once" => chronos_json::obj! {
                "jobs" => job_count as i64,
                "finished" => finished as i64,
                "results" => results as i64,
                "agent_completions" => completed as i64,
            },
            "reads" => chronos_json::obj! {
                "workers" => read_workers as i64,
                "single_node_gets_per_sec" => single.goodput_per_sec,
                "cluster_gets_per_sec" => cluster_gets,
                "scaling" => scaling,
                "floor" => 2.0,
                "floor_enforced" => scaling_enforced,
            },
        };
        write_report(path, doc);
    }

    for mut server in servers {
        server.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn arguments_name_known_experiments_and_reject_everything_else() {
        assert_eq!(parse(&[]), Ok(Args::default()));
        assert_eq!(
            parse(&["E12", "--quick", "e8", "--json"]),
            Ok(Args { quick: true, emit_json: true, list: false, named: vec!["E12", "E8"] }),
            "known subset, ids case-insensitive"
        );
        assert!(parse(&["--list"]).unwrap().list);
        // E13 is retired: an unknown id like any other.
        for (args, culprit) in
            [(&["E99"][..], "E99"), (&["E13"], "E13"), (&["E8", "--jsno"], "--jsno")]
        {
            let message = parse(args).unwrap_err();
            assert!(message.contains(culprit) && message.contains("E1 E2 "), "{message}");
        }
    }
}
