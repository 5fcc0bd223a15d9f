//! The traced run: per-layer numbers for one workload.
//!
//! Three passes over the same inputs. **Wire**: the workload as in the
//! untraced run, first briefly against the production server (the baseline
//! for `trace.overhead_pct`), then served by the harness with a span around
//! every dispatch, client call, SuE phase and delivery. **Direct**: the
//! same operation sequence on `ChronosControl`, `MetadataStore`,
//! `AnalyticsStore` and `analysis` with no HTTP in between. **Replay**: the
//! bytes and documents captured in the wire pass fed to the leaf layers
//! (`RequestParser`, `chronos_json`, the `chronos_api` codecs, zip, base64)
//! alone. Everything is timed from outside, through public functions.

use std::sync::Arc;
use std::time::Instant;

use chronos_analytics::{detect_change_points, AnalyticsStore, ChangePointConfig};
use chronos_api::{v1, WireDecode, WireEncode};
use chronos_core::analysis::{self, STANDARD_METRIC_PATHS};
use chronos_core::charts::ChartRegistry;
use chronos_core::store::MetadataStore;
use chronos_core::{ChronosControl, PointSpace};
use chronos_http::parser::RequestParser;
use chronos_http::Request;
use chronos_json::{obj, Value};
use chronos_util::encode::{base64_decode, base64_encode};
use chronos_util::Id;
use chronos_workload::{CoreWorkload, WorkloadRunner, WorkloadSpec};
use chronos_zip::ZipWriter;

use crate::fixture::{self, Canned, Captured, Plane, Scratch};
use crate::loadgen::Observed;
use crate::metrics::Layers;
use crate::ops::OpKind;
use crate::stats::{self, decile_growth, median};
use crate::trace::{Profile, Span, Tracer};
use crate::workloads::{self, Checks, Options, Outcome, Stage, Workload};

/// Share of `--seconds` spent in each wire-pass window. The untraced
/// baseline and the traced window are the same length from the same fresh
/// state, so their rates differ by the cost of tracing and nothing else.
/// Half each: at 20 s the open-loop reader of `live_mixed` then sends the
/// 100 refreshes a p90 needs.
const WINDOW_SHARE: f64 = 0.5;

/// Load clients per workload; their trace tracks are `0..LOAD_TRACKS`.
const LOAD_TRACKS: u32 = 2;

/// Microseconds `f` takes.
fn time_us<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let value = f();
    (value, started.elapsed().as_secs_f64() * 1e6)
}

/// Median microseconds of `repeats` calls of `f`; the result of each call
/// goes through `black_box` so that the work is not optimised away.
fn median_us<T>(repeats: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..repeats).map(|_| time_us(|| std::hint::black_box(f())).1).collect();
    median(&samples)
}

/// Job cycles of the direct pass: sized like the part of the grid the wire
/// pass gets through on the seed commit, and fixed so that growth ratios
/// compare across commits.
fn direct_cycles(workload: Workload, quick: bool) -> usize {
    let full = match workload {
        Workload::PipelineMinidoc => 40,
        Workload::SweepControl => 600,
        Workload::LiveMixed => 400,
        Workload::DashboardReads => 0, // bypasses the claim/upload path
    };
    if quick {
        full / 10
    } else {
        full
    }
}

fn primary_ops(workload: Workload, seen: &Observed) -> f64 {
    match workload {
        Workload::DashboardReads => seen.read_ms.len() as f64,
        _ => seen.op_ms.len() as f64,
    }
}

/// The traced run of one workload; writes `benchmark/out/trace-<name>.json`.
pub fn run_traced(workload: Workload, options: &Options, stamp: &Value) -> Outcome {
    let mut layers = Layers::default();
    let mut checks = Checks::default();
    let silent = Arc::new(Tracer::new(false));
    let tracer = Arc::new(Tracer::new(true));

    // Wire pass, baseline: the production server, no spans.
    let window = options.window().mul_f64(WINDOW_SHARE);
    let stage = Stage::set_up(workload, options, None);
    let (baseline, baseline_seconds) = stage.drive(options, window, &silent);
    let baseline_rate = primary_ops(workload, &baseline) / baseline_seconds;
    drop(stage.stop_serving());

    // Wire pass, traced: same inputs, harness-served with spans.
    let stage = Stage::set_up(workload, options, Some(&tracer));
    let (mut seen, traced_seconds) = stage.drive(options, window, &tracer);
    let jobs = if workload == Workload::DashboardReads { 0 } else { seen.op_ms.len() };
    if matches!(workload, Workload::PipelineMinidoc | Workload::SweepControl) {
        // A short read-back puts read dispatches of the evaluation the
        // window produced into the trace.
        let window = options.window().mul_f64(workloads::READBACK_SHARE / 2.0);
        seen.merge(stage.read_back(window, &tracer));
    }
    let traced_rate = primary_ops(workload, &seen) / traced_seconds;
    let captured = stage.serving.take_captured();
    let spans = tracer.finish();
    let profile = Profile::new(&spans);
    wire_metrics(&stage, &profile, &seen, jobs, &mut layers);
    layers.set("wire.ops_per_s", traced_rate);
    layers.set("trace.overhead_pct", (baseline_rate - traced_rate) / baseline_rate * 100.0);
    if workload == Workload::PipelineMinidoc {
        sue_metrics(&stage.plane, &mut layers);
    }
    bypass_checks(workload, &spans, &mut checks);

    // Direct and replay passes.
    read_probes(&stage.plane, &mut layers);
    let canned = &stage.canned;
    analytics_probes(options, &stage.plane, canned, &mut layers);
    archive_probes(canned, &mut layers);
    codec_probes(&captured, canned, &mut layers);
    if workload == Workload::PipelineMinidoc {
        layers.set("workload.generate_ns_per_op", generate_ns_per_op(options.seed));
    }
    let cycles = direct_cycles(workload, options.quick);
    if cycles > 0 {
        control_probes(options, canned, cycles, &mut layers);
    }

    let trace_path = fixture::out_dir().join(format!("trace-{}.json", workload.name()));
    if let Err(e) = std::fs::write(&trace_path, profile.render(workload.name(), stamp, LOAD_TRACKS))
    {
        checks.problems.push(format!("cannot write {}: {e}", trace_path.display()));
    }
    if let Some(error) = &seen.first_error {
        checks.problems.push(format!("{} operations failed, first: {error}", seen.failed));
    }
    // Restart: the store re-opened from its log, then the first summary.
    let before = workloads::ledger(&stage.plane);
    let evaluation = stage.plane.evaluation;
    let (plane, scratch) = stage.stop_serving();
    let log_path = plane.log_path.clone();
    drop(plane);
    let (restart_seconds, after) = workloads::restart(&log_path, evaluation);
    checks.require(after == before, || "ledger after restart differs".to_string());
    layers.set("restart_s", restart_seconds);
    layers.set("process.peak_rss_mib", workloads::peak_rss_mib());
    drop(scratch);
    Outcome {
        correct: checks.problems.is_empty(),
        attempted: seen.attempted.max(1),
        failed: seen.failed,
        metrics: layers.in_order(),
        problems: checks.problems,
        notes: vec![
            workloads::tail_note("primary operation (traced window)", &seen.op_ms),
            format!("{} spans in {}", spans.len(), trace_path.display()),
        ],
    }
}

/// Each workload bypasses what it is meant to bypass: no SuE spans without
/// real agents, no claim or upload dispatches under `dashboard_reads`.
fn bypass_checks(workload: Workload, spans: &[Span], checks: &mut Checks) {
    let count = |prefix: &str| spans.iter().filter(|s| s.name.starts_with(prefix)).count();
    if workload != Workload::PipelineMinidoc {
        checks.require(count("sue.") == 0, || format!("{} ran the SuE", workload.name()));
    }
    if workload == Workload::DashboardReads {
        let writes = count("dispatch.claim") + count("dispatch.result");
        checks
            .require(writes == 0, || format!("dashboard_reads dispatched {writes} claims/uploads"));
    }
}

/// Everything read off the wire pass's spans and counters.
fn wire_metrics(
    stage: &Stage,
    profile: &Profile,
    seen: &Observed,
    jobs: usize,
    layers: &mut Layers,
) {
    for kind in OpKind::ALL {
        let dispatch = profile.durations_us(kind.dispatch_span());
        layers.set(&format!("server.dispatch_us_p50.{}", kind.label()), median(&dispatch));
        if kind.is_protocol() {
            // A call's self time is the call minus the dispatch it caused:
            // connect or keep-alive, reactor, parse, queue wait, response.
            let wire = profile.self_us(|name| name == kind.call_span());
            layers.set(&format!("http.wire_us_p50.{}", kind.label()), median(&wire));
        }
    }
    let read_wire = profile.self_us(|name| OpKind::READS.iter().any(|k| k.call_span() == name));
    layers.set("http.wire_us_p50.read", median(&read_wire));

    let run_once = profile.durations_us("agent.run_once");
    if !run_once.is_empty() {
        let to_ms = |us: Vec<f64>| median(&us) / 1e3;
        layers.set("agent.run_once_ms_p50", to_ms(run_once.clone()));
        layers.set("agent.self_ms_p50", to_ms(profile.self_us(|name| name == "agent.run_once")));
        layers.set("agent.deliver_ms_p50", to_ms(profile.durations_us("agent.deliver")));
        layers.set("sue.set_up_ms_p50", to_ms(profile.durations_us("sue.set_up")));
        layers.set("sue.execute_ms_p50", to_ms(profile.durations_us("sue.execute")));
        // The agent's own claim, heartbeat and log calls cannot be seen
        // from outside; its upload can, through the wrapped sink.
        let deliver_wire = profile.self_us(|name| name == "agent.deliver");
        layers.set("http.wire_us_p50.result", median(&deliver_wire));
    }

    let metrics = stage.serving.metrics();
    layers.set("http.requests", metrics.requests.get() as f64);
    layers.set("http.shed", (metrics.shed_overload.get() + metrics.shed_draining.get()) as f64);
    layers.set("http.loop_iterations", metrics.reactor_loops.get() as f64);
    layers.set("http.wakeups", metrics.wakeups.get() as f64);
    if let Some(counts) = stage.serving.counts() {
        use std::sync::atomic::Ordering;
        layers.set("server.non2xx", counts.non2xx.load(Ordering::Relaxed) as f64);
        if jobs > 0 {
            let bytes = counts.protocol_body_bytes.load(Ordering::Relaxed);
            layers.set("http.body_bytes_per_job", bytes as f64 / jobs as f64);
        }
    }
    let sweeps = profile.durations_us("core.check_timeouts");
    layers.set("core.check_timeouts_ms", median(&sweeps) / 1e3);
    layers.set("loadgen.lateness_ms_p90", stats::percentile_or_zero(&seen.lateness_ms, 0.9));
    layers.set("accounted_share", profile.accounted_share(LOAD_TRACKS));
    layers.set("tail.op_ms_p90", stats::percentile_or_zero(&seen.op_ms, 0.9));
    layers.set("tail.refresh_ms_p90", stats::percentile_or_zero(&seen.refresh_ms, 0.9));
    for (kind, name) in [
        (OpKind::Status, "read.status_ms_p50"),
        (OpKind::Stats, "read.stats_ms_p50"),
        (OpKind::Summary, "read.summary_ms_p50"),
        (OpKind::Chart, "read.chart_ms_p50"),
    ] {
        layers.set(name, median(&seen.reads_of(kind)));
    }
}

/// What the finished jobs of a real-agent run say about the SuE and the
/// toolkit around it.
fn sue_metrics(plane: &Plane, layers: &mut Layers) {
    let mut overheads = Vec::new();
    let mut throughput: Vec<(String, f64)> = Vec::new();
    let (mut records, mut load_millis) = (0.0, 0.0);
    for job in plane.control.list_jobs(plane.evaluation).expect("jobs") {
        let Some(result) = plane.control.result_for_job(job.id).expect("result") else { continue };
        let at = |kind: &str| job.timeline.iter().find(|e| e.kind == kind).map(|e| e.at as f64);
        let agent = |field: &str| {
            result.data.pointer(&format!("/agent/{field}")).and_then(Value::as_f64).unwrap_or(0.0)
        };
        if let (Some(claimed), Some(finished)) = (at("running"), at("finished")) {
            let sue = agent("setup_millis") + agent("warmup_millis") + agent("execute_millis");
            overheads.push(finished - claimed - sue);
        }
        let engine = job.parameters.get("engine").and_then(Value::as_str).unwrap_or("").to_string();
        let rate = result.data.get("throughput_ops_per_sec").and_then(Value::as_f64).unwrap_or(0.0);
        throughput.push((engine, rate));
        records += job.parameters.get("record_count").and_then(Value::as_f64).unwrap_or(0.0);
        load_millis += agent("setup_millis");
    }
    let of = |engine: &str| -> Vec<f64> {
        throughput
            .iter()
            .filter(|(e, _)| engine.is_empty() || e == engine)
            .map(|(_, r)| *r)
            .collect()
    };
    layers.set("agent.toolkit_overhead_ms_p50", median(&overheads));
    layers.set("sue.ops_per_s_geomean", stats::geometric_mean(&of("")));
    layers.set("minidoc.ops_per_s.wiredtiger", stats::geometric_mean(&of("wiredtiger")));
    layers.set("minidoc.ops_per_s.mmapv1", stats::geometric_mean(&of("mmapv1")));
    if load_millis > 0.0 {
        layers.set("minidoc.load_records_per_s", records / (load_millis / 1e3));
    }
}

/// Direct pass over the read side, on the plane the wire pass left behind:
/// the status roll-up and every analysis function the read endpoints call.
fn read_probes(plane: &Plane, layers: &mut Layers) {
    let control = &plane.control;
    let (evaluation, experiment) = (plane.evaluation, plane.experiment);
    let ms = |us: f64| us / 1e3;
    layers.set(
        "core.evaluation_status_us_p50",
        median_us(15, || control.evaluation_status(evaluation).expect("status")),
    );
    let system = control.get_system(plane.system).expect("system");
    let spec = &system.charts[0];
    layers.set(
        "analysis.summary_table_ms",
        ms(median_us(5, || analysis::summary_table(control, evaluation).expect("summary"))),
    );
    layers.set(
        "analysis.chart_data_ms",
        ms(median_us(5, || analysis::chart_data(control, evaluation, spec).expect("chart data"))),
    );
    layers.set(
        "analysis.summary_csv_ms",
        ms(median_us(5, || analysis::summary_csv(control, evaluation).expect("csv"))),
    );
    let path = "/throughput_ops_per_sec";
    layers.set(
        "analysis.trend_ms",
        ms(median_us(5, || {
            analysis::experiment_trend(control, experiment, path, 0.10).expect("trend")
        })),
    );
    layers.set(
        "analysis.regressions_ms",
        ms(median_us(5, || {
            let config = ChangePointConfig::default();
            analysis::experiment_regressions(control, experiment, path, config)
                .expect("regressions")
        })),
    );
    let data = analysis::chart_data(control, evaluation, spec).expect("chart data");
    let registry = ChartRegistry::with_builtins();
    layers.set(
        "charts.render_svg_ms",
        ms(median_us(5, || registry.render_svg(spec, &data).expect("svg"))),
    );
}

/// Direct pass over `AnalyticsStore`: one result ingested per point of the
/// 864-row grid, then loads, the encoded size and the change-point scan.
fn analytics_probes(options: &Options, plane: &Plane, canned: &Canned, layers: &mut Layers) {
    let rows = if options.quick { 108 } else { 864 };
    let store = AnalyticsStore::new();
    let evaluation = Id::generate().as_u128();
    store.mark_fresh(evaluation);
    let schema = plane.control.get_system(plane.system).expect("system").parameters;
    let grid = fixture::grid(rows / fixture::GRID_POINTS, options.seed);
    let space = PointSpace::build(&grid, &schema).expect("point space");
    let mut ingest = Vec::with_capacity(rows as usize);
    for index in 0..rows {
        let parameters = space.point_at(index).expect("grid point");
        let data = canned.data_for(&parameters, 1.0);
        let job = Id::generate().as_u128();
        ingest.push(
            time_us(|| store.ingest(evaluation, job, &parameters, &data, &STANDARD_METRIC_PATHS)).1,
        );
    }
    let (_, _, growth) = decile_growth(&ingest);
    layers.set("analytics.ingest_us_p50", median(&ingest));
    layers.set("analytics.ingest_growth", growth);
    layers.set("analytics.load_ms", median_us(10, || store.load(evaluation)) / 1e3);
    layers.set(
        "analytics.encoded_bytes_per_row",
        store.encoded_size(evaluation) as f64 / rows as f64,
    );
    // A run history shaped like dashboard_reads': drift with one step down.
    let series: Vec<f64> =
        (0..30).map(|i| if i < 20 { 1000.0 + i as f64 } else { 800.0 + i as f64 }).collect();
    let config = ChangePointConfig::default();
    layers.set(
        "analytics.edivisive_ms",
        median_us(5, || detect_change_points(&series, &config)) / 1e3,
    );
}

/// Replay of the archive path: the zip an agent builds per job and the
/// base64 round trip the upload and the store put it through.
fn archive_probes(canned: &Canned, layers: &mut Layers) {
    let point = obj! { "engine" => "wiredtiger", "workload" => "a", "field_length" => 100, "record_count" => 1000 };
    let document = canned.data_for(&point, 1.0);
    let csv = b"second,ops\n0,8000\n".to_vec();
    layers.set(
        "zip.archive_us_per_job",
        median_us(200, || {
            let mut zip = ZipWriter::new();
            zip.add_file("result.json", document.to_pretty_string().as_bytes()).expect("zip");
            zip.add_file("throughput.csv", &csv).expect("zip");
            std::hint::black_box(zip.finish());
        }),
    );
    layers.set(
        "util.base64_us_per_job",
        median_us(200, || {
            let encoded = base64_encode(std::hint::black_box(&canned.archive));
            std::hint::black_box(base64_decode(&encoded).expect("base64 round trip"));
        }),
    );
}

/// The bytes a client puts on the wire for `request` (as
/// `chronos_http::Client` frames it).
fn wire_bytes(request: &Request) -> Vec<u8> {
    let target = if request.query.is_empty() {
        request.path.clone()
    } else {
        format!("{}?{}", request.path, request.query)
    };
    let mut head = format!("{} {} HTTP/1.1\r\nHost: 127.0.0.1\r\n", request.method, target);
    for (name, value) in request.headers.iter().filter(|(n, _)| !n.eq_ignore_ascii_case("host")) {
        if !name.eq_ignore_ascii_case("content-length") {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
    }
    head.push_str(&format!("Content-Length: {}\r\n\r\n", request.body.len()));
    let mut bytes = head.into_bytes();
    bytes.extend_from_slice(&request.body);
    bytes
}

/// Replay of the bytes and documents captured on the wire through the leaf
/// layers alone: the request parser, the JSON parser and writer, and the
/// `chronos_api` codecs of one job's four calls.
fn codec_probes(captured: &Captured, canned: &Canned, layers: &mut Layers) {
    if captured.exchanges.is_empty() {
        return;
    }
    // http: every captured request through the incremental parser.
    let frames: Vec<Vec<u8>> =
        captured.exchanges.iter().map(|(_, request, _)| wire_bytes(request)).collect();
    let parse_all = median_us(20, || {
        for frame in &frames {
            let mut parser = RequestParser::new();
            parser.feed(frame);
            let parsed = parser.poll().expect("captured request parses");
            assert!(std::hint::black_box(parsed).is_some(), "captured request is complete");
        }
    });
    layers.set("http.parse_us_per_req", parse_all / frames.len() as f64);

    // json: every captured JSON body, both directions.
    let bodies: Vec<&str> = captured
        .exchanges
        .iter()
        .flat_map(|(_, request, response)| [request.body.as_slice(), response.as_slice()])
        .filter_map(|body| std::str::from_utf8(body).ok())
        .filter(|text| text.starts_with(['{', '[']) && chronos_json::parse(text).is_ok())
        .collect();
    let bytes: usize = bodies.iter().map(|b| b.len()).sum();
    let parsed: Vec<Value> =
        bodies.iter().map(|b| chronos_json::parse(b).expect("checked")).collect();
    if bytes > 0 {
        let parse_us = median_us(20, || {
            for body in &bodies {
                std::hint::black_box(chronos_json::parse(body).expect("checked"));
            }
        });
        let write_us = median_us(20, || {
            for value in &parsed {
                std::hint::black_box(value.to_string());
            }
        });
        layers.set("json.parse_mb_per_s", bytes as f64 / parse_us);
        layers.set("json.write_mb_per_s", bytes as f64 / write_us);
    }

    // One job's calls: the first captured exchange of each protocol kind.
    let first = |kind: OpKind| captured.exchanges.iter().find(|(k, ..)| *k == kind);
    let (Some(claim), Some(beat), Some(result)) =
        (first(OpKind::Claim), first(OpKind::Heartbeat), first(OpKind::Result))
    else {
        return;
    };
    let text = |bytes: &[u8]| String::from_utf8_lossy(bytes).into_owned();
    let job_bodies = [&claim.1.body, &claim.2, &beat.1.body, &beat.2, &result.1.body, &result.2]
        .map(|b| text(b));
    layers.set(
        "json.us_per_job",
        median_us(200, || {
            for body in &job_bodies {
                let value = chronos_json::parse(body).expect("captured protocol body parses");
                std::hint::black_box(value.to_string());
            }
        }),
    );
    let values = job_bodies.clone().map(|b| chronos_json::parse(&b).expect("captured body parses"));
    let [claim_request, claim_response, _, _, result_request, result_response] = values;
    let data =
        canned.data_for(&claim_response.get("parameters").cloned().unwrap_or(Value::Null), 1.0);
    layers.set(
        "api.codec_us_per_job",
        median_us(200, || {
            let request = v1::ClaimRequest::decode(&claim_request).expect("claim request");
            std::hint::black_box(request.to_value());
            std::hint::black_box(v1::ClaimedJob::decode(&claim_response).expect("claimed job"));
            std::hint::black_box(v1::JobDto::decode(&claim_response).expect("job"));
            let mut frame = String::new();
            v1::write_upload_frame(&mut frame, &data, &canned.archive, Some(1), Some("key"));
            std::hint::black_box(frame);
            std::hint::black_box(v1::UploadResultRequest::decode(&result_request).expect("upload"));
            std::hint::black_box(v1::JobResultDto::decode(&result_response).expect("result"));
        }),
    );
}

/// `OpStream` drained alone: what generating one YCSB operation costs.
fn generate_ns_per_op(seed: u64) -> f64 {
    let mut spec = WorkloadSpec::core(CoreWorkload::A);
    spec.record_count = 1000;
    spec.operation_count = fixture::OPERATION_COUNT;
    spec.seed = seed;
    let runner = WorkloadRunner::new(spec).expect("workload spec");
    let per_run = median_us(5, || {
        let drained = runner.stream(0, 1).count();
        assert_eq!(std::hint::black_box(drained) as u64, fixture::OPERATION_COUNT);
    });
    per_run * 1e3 / fixture::OPERATION_COUNT as f64
}

/// One direct job cycle; returns the microseconds of claim, heartbeat,
/// append_log and finish.
fn direct_cycle(plane: &Plane, canned: &Canned) -> [f64; 4] {
    let control = &plane.control;
    let claim_key = Id::generate().to_base32();
    let (job, claim) = time_us(|| control.claim_next_job(plane.deployment, Some(&claim_key)));
    let job = job.expect("claim").expect("a job to claim");
    let attempt = Some(job.attempts);
    let (_, beat) = time_us(|| control.heartbeat(job.id, Some(50), attempt).expect("heartbeat"));
    let (_, log) = time_us(|| control.append_log(job.id, &canned.log).expect("append_log"));
    let data = canned.data_for(&job.parameters, 1.0);
    let result_key = Id::generate().to_base32();
    let (_, finish) = time_us(|| {
        control
            .finish_job(job.id, data, canned.archive.clone(), attempt, Some(&result_key))
            .expect("finish")
    });
    [claim, beat, log, finish]
}

/// Direct pass over the write side: `cycles` job cycles on `ChronosControl`
/// with one thread, then with two; the job source; the store fed the
/// documents the cycles produced; restart and compaction of their log.
fn control_probes(options: &Options, canned: &Canned, cycles: usize, layers: &mut Layers) {
    let reps = (cycles as u64).div_ceil(fixture::GRID_POINTS) + 1;
    let grid = fixture::grid(reps, options.seed);

    // core.jobsource
    let scratch = Scratch::new();
    let plane = Plane::create(&scratch, grid.clone(), 0);
    let system = plane.control.get_system(plane.system).expect("system");
    layers.set(
        "jobsource.pointspace_build_us",
        median_us(20, || PointSpace::build(&grid, &system.parameters).expect("point space")),
    );
    let space = PointSpace::build(&grid, &system.parameters).expect("point space");
    let total = space.total();
    layers.set(
        "jobsource.point_at_us",
        median_us(20, || {
            for index in (0..total).step_by((total as usize / 100).max(1)) {
                std::hint::black_box(space.point_at(index));
            }
        }) / 100.0,
    );

    // core.control, one thread.
    let mut series: [Vec<f64>; 4] = Default::default();
    let mut cycle_us = Vec::with_capacity(cycles);
    for _ in 0..cycles {
        let times = direct_cycle(&plane, canned);
        cycle_us.push(times.iter().sum::<f64>());
        for (slot, us) in series.iter_mut().zip(times) {
            slot.push(us);
        }
    }
    let [claim, beat, log, finish] = &series;
    let (first, last, growth) = decile_growth(claim);
    layers.set("core.claim_us_p50", median(claim));
    layers.set("core.claim_us_first_decile", first);
    layers.set("core.claim_us_last_decile", last);
    layers.set("core.claim_growth", growth);
    layers.set("core.finish_us_p50", median(finish));
    layers.set("core.finish_growth", decile_growth(finish).2);
    layers.set("core.heartbeat_us_p50", median(beat));
    layers.set("core.append_log_us_p50", median(log));
    layers.set("core.check_timeouts_ms", median_us(5, || plane.control.check_timeouts()) / 1e3);
    layers.set("jobsource.plan_ms", time_us(|| plane.add_evaluation(plane.experiment)).1 / 1e3);

    // core.store: the documents the cycles left behind, put alone.
    let jobs = plane.control.list_jobs(plane.evaluation).expect("jobs");
    let job_doc = jobs.last().expect("a finished job").to_json();
    let result = plane
        .control
        .result_for_job(jobs.last().expect("job").id)
        .expect("result")
        .expect("stored");
    let mut result_doc = result.to_json();
    result_doc.set("archive_b64", base64_encode(&result.archive));
    let evaluation_doc =
        plane.control.get_evaluation(plane.evaluation).expect("evaluation").to_json();
    store_probes(&scratch, &job_doc, &result_doc, &evaluation_doc, layers);

    // The log: bytes and records per job, then restart and compaction.
    let log = std::fs::read(&plane.log_path).expect("control log");
    layers.set("store.wal_bytes_per_job", log.len() as f64 / cycles as f64);
    let records = log.iter().filter(|b| **b == b'\n').count();
    layers.set("store.log_records_per_job", records as f64 / cycles as f64);
    drop(log);
    let (evaluation, log_path) = (plane.evaluation, plane.log_path.clone());
    drop(plane);
    let (store, open_us) = time_us(|| MetadataStore::open(&log_path).expect("reopen"));
    layers.set("store.open_replay_s", open_us / 1e6);
    let control =
        ChronosControl::new(store, Arc::new(chronos_util::SystemClock), Default::default());
    let (_, backfill_us) = time_us(|| control.columnar_table(evaluation).expect("backfill"));
    layers.set("analytics.backfill_ms", backfill_us / 1e3);
    layers.set("store.compact_s", time_us(|| control.compact_store().expect("compact")).1 / 1e6);
    drop(control);
    drop(scratch);

    // core.control, two threads: what a cycle waits for the write lock.
    let scratch = Scratch::new();
    let plane = Plane::create(&scratch, grid, 0);
    let contended: Vec<f64> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    (0..cycles / 2)
                        .map(|_| direct_cycle(&plane, canned).iter().sum())
                        .collect::<Vec<f64>>()
                })
            })
            .collect();
        workers.into_iter().flat_map(|w| w.join().expect("direct worker panicked")).collect()
    });
    layers.set("core.write_lock_wait_us_p50", (median(&contended) - median(&cycle_us)).max(0.0));
}

/// `MetadataStore::put` alone, per document kind. The evaluation document
/// is put at a hundred sizes from empty to all of its `job_ids`.
fn store_probes(
    scratch: &Scratch,
    job: &Value,
    result: &Value,
    evaluation: &Value,
    layers: &mut Layers,
) {
    let store = MetadataStore::open(&scratch.path().join("store-probe.log")).expect("probe store");
    let put = |kind: &str, document: &Value| {
        let samples: Vec<f64> = (0..200)
            .map(|i| {
                time_us(|| store.put(kind, &format!("probe-{i}"), document.clone()).expect("put")).1
            })
            .collect();
        median(&samples)
    };
    layers.set("store.put_us_p50.job", put("job", job));
    layers.set("store.put_us_p50.result", put("result", result));
    let ids = evaluation.get("job_ids").and_then(Value::as_array).map(Vec::len).unwrap_or(0);
    let samples: Vec<f64> = (0..100)
        .map(|step| {
            let mut document = evaluation.clone();
            if let Some(job_ids) = document.pointer_mut("/job_ids").and_then(Value::as_array_mut) {
                job_ids.truncate(ids * step / 100);
            }
            time_us(|| store.put("evaluation", "probe", document).expect("put")).1
        })
        .collect();
    layers.set("store.put_us_p50.evaluation", median(&samples));
}
