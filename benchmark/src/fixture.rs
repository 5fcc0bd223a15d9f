//! The system under test as the benchmark stands it up: a durable control
//! plane in a scratch directory, the minidoc system definition with its
//! grid, the canned SuE result, and the two ways of serving it.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use chronos_agent::{DocstoreClient, EvaluationClient, JobContext};
use chronos_core::auth::Role;
use chronos_core::params::ParamAssignments;
use chronos_core::scheduler::SchedulerConfig;
use chronos_core::store::MetadataStore;
use chronos_core::ChronosControl;
use chronos_http::{Request, Response, Server, ServerHandle, ServerMetrics};
use chronos_json::{arr, obj, Value};
use chronos_server::ChronosServer;
use chronos_util::{Id, SystemClock};
use chronos_workload::surface::ResponseSurface;
use chronos_zip::ZipWriter;

use crate::ops::OpKind;
use crate::trace::Tracer;

/// Password of every account the harness creates.
const PASSWORD: &str = "benchmark-pw";

/// How often the harness-served plane sweeps for heartbeat timeouts — the
/// interval `ChronosServer` uses, so both ways of serving do the same work.
const SWEEP_INTERVAL: Duration = Duration::from_millis(500);

/// The sweeper's track in the trace (no load client uses it).
pub const SWEEPER_TRACK: u32 = 1000;

/// Data-set sizes of the full grid.
const RECORD_COUNTS: [i64; 3] = [1000, 2000, 4000];
/// Field lengths of the full grid.
const FIELD_LENGTHS: [i64; 3] = [50, 100, 200];
const WORKLOADS: [&str; 6] = ["a", "b", "c", "d", "e", "f"];
const ENGINES: [&str; 2] = ["wiredtiger", "mmapv1"];

/// Points of one repetition of the full grid: engine × workload × field
/// length × record count.
pub const GRID_POINTS: u64 = 108;

/// Operations of the measured phase of every minidoc job.
pub const OPERATION_COUNT: u64 = 8000;

/// A directory under `benchmark/out/` that is removed when dropped. Every
/// file the benchmark writes lives in one of these or beside them.
pub struct Scratch {
    dir: PathBuf,
}

/// `benchmark/out/`, created on demand.
pub fn out_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("cannot create benchmark/out");
    dir
}

impl Scratch {
    /// A fresh, empty scratch directory.
    pub fn new() -> Scratch {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = out_dir().join(format!("scratch-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("cannot create scratch directory");
        Scratch { dir }
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.dir
    }
}

impl Default for Scratch {
    fn default() -> Self {
        Scratch::new()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The minidoc system definition the benchmark registers. Parameters are
/// listed slowest axis first (the point space varies its last axis
/// fastest), so any prefix of the grid alternates engines and cycles the
/// YCSB workloads before it moves on to larger documents and data sets.
pub fn system_definition() -> Value {
    let value = |name: &str, default: i64| {
        obj! { "name" => name, "description" => name, "type" => "value", "default" => default }
    };
    obj! {
        "name" => "minidoc",
        "description" => "embedded document store with two storage engines",
        "parameters" => arr![
            value("rep", 0),
            value("record_count", 1000),
            value("field_length", 100),
            obj! {
                "name" => "workload", "description" => "YCSB core workload", "type" => "checkbox",
                "options" => Value::Array(WORKLOADS.iter().map(|w| Value::from(*w)).collect()),
                "default" => "a",
            },
            obj! {
                "name" => "engine", "description" => "storage engine", "type" => "checkbox",
                "options" => Value::Array(ENGINES.iter().map(|e| Value::from(*e)).collect()),
                "default" => "wiredtiger",
            },
            obj! {
                "name" => "threads", "description" => "client threads", "type" => "interval",
                "min" => 1, "max" => 64, "step" => 1, "default" => 1,
            },
            value("operation_count", OPERATION_COUNT as i64),
            value("seed", 42),
            obj! {
                "name" => "compression", "description" => "block compression",
                "type" => "boolean", "default" => true,
            },
        ],
        "charts" => arr![
            obj! {
                "kind" => "line", "title" => "Throughput by workload", "x_param" => "workload",
                "series_param" => "engine", "value_path" => "/throughput_ops_per_sec",
                "y_label" => "ops/s",
            },
            obj! {
                "kind" => "bar", "title" => "p99 update latency by data set",
                "x_param" => "record_count", "series_param" => "engine",
                "value_path" => "/operations/update/latency_micros/p99",
                "y_label" => "microseconds",
            },
        ],
    }
}

/// A lazy grid: `reps` repetitions of engine × workload × the given field
/// lengths and data-set sizes, every job carrying the run's seed as its
/// YCSB seed. [`grid`] is the full 108-point space.
pub fn grid_over(
    reps: u64,
    seed: u64,
    record_counts: &[i64],
    field_lengths: &[i64],
) -> ParamAssignments {
    let ints = |values: &[i64]| values.iter().map(|v| Value::from(*v)).collect::<Vec<_>>();
    ParamAssignments::new()
        .sweep("rep", (0..reps as i64).map(Value::from).collect())
        .sweep("record_count", ints(record_counts))
        .sweep("field_length", ints(field_lengths))
        .sweep_all("workload")
        .sweep_all("engine")
        .fix("threads", 1)
        .fix("operation_count", OPERATION_COUNT as i64)
        .fix("seed", (seed % (1 << 53)) as i64)
}

/// `reps` repetitions of the full 108-point grid.
pub fn grid(reps: u64, seed: u64) -> ParamAssignments {
    grid_over(reps, seed, &RECORD_COUNTS, &FIELD_LENGTHS)
}

/// Where a job's parameters sit in the unit hypercube of the response
/// surface (engine, workload, field length, record count).
pub fn surface_coords(parameters: &Value) -> [f64; 4] {
    let position = |name: &str, count: usize, index: Option<usize>| match index {
        Some(i) if count > 1 => i as f64 / (count - 1) as f64,
        _ => panic!("job parameter {name} is outside the benchmark grid: {parameters}"),
    };
    let text = |name: &str, options: &[&str]| {
        let value = parameters.get(name).and_then(Value::as_str);
        position(name, options.len(), options.iter().position(|o| Some(*o) == value))
    };
    let int = |name: &str, options: &[i64]| {
        let value = parameters.get(name).and_then(Value::as_i64);
        position(name, options.len(), options.iter().position(|o| Some(*o) == value))
    };
    [
        text("engine", &ENGINES),
        text("workload", &WORKLOADS),
        int("field_length", &FIELD_LENGTHS),
        int("record_count", &RECORD_COUNTS),
    ]
}

/// One real `DocstoreClient` result captured in set-up, which the protocol
/// clients upload for every job with the seeded surface values patched in —
/// the shape and size of a real upload without running the SuE.
pub struct Canned {
    template: Value,
    /// The zip the agent would have built: `result.json` plus attachments.
    pub archive: Vec<u8>,
    /// The log text the agent would have shipped.
    pub log: String,
    surface: ResponseSurface,
}

impl Canned {
    /// Runs one small minidoc job and keeps what the agent would upload.
    pub fn capture(seed: u64) -> Canned {
        let parameters = obj! {
            "engine" => "wiredtiger", "workload" => "a", "threads" => 1, "record_count" => 1000,
            "operation_count" => OPERATION_COUNT as i64, "field_length" => 100,
            "seed" => (seed % (1 << 53)) as i64,
        };
        let ctx = JobContext::new(Id::generate(), parameters);
        let mut client = DocstoreClient::new();
        ctx.log(format!(
            "agent: starting {} (attempt 1) with parameters {}",
            client.name(),
            ctx.parameters
        ));
        client.set_up(&ctx).expect("canned set_up");
        client.warm_up(&ctx).expect("canned warm_up");
        let mut template = client.execute(&ctx).expect("canned execute");
        client.tear_down(&ctx);
        // The block the agent runtime adds to every measurement document.
        let agent = obj! {
            "client" => client.name(),
            "setup_millis" => 20,
            "warmup_millis" => 0,
            "execute_millis" => 100,
        };
        template.set("agent", agent);
        let mut zip = ZipWriter::new();
        zip.add_file("result.json", template.to_pretty_string().as_bytes()).expect("zip result");
        for (name, bytes) in ctx.take_attachments() {
            zip.add_file(&name, &bytes).expect("zip attachment");
        }
        Canned {
            template,
            archive: zip.finish(),
            log: ctx.take_logs(),
            surface: ResponseSurface::new(seed, 4),
        }
    }

    /// The measurement document for a job with these parameters. `scale`
    /// multiplies the throughput, so successive evaluations of one
    /// experiment can drift and step like a real run history.
    pub fn data_for(&self, parameters: &Value, scale: f64) -> Value {
        let coords = surface_coords(parameters);
        let mut data = self.template.clone();
        data.set("throughput_ops_per_sec", self.surface.throughput(&coords) * scale);
        if let Some(p99) = data.pointer_mut("/operations/update/latency_micros/p99") {
            *p99 = Value::from(self.surface.p99_latency_micros(&coords).round() as u64);
        }
        data
    }

    /// The surface throughput expected in a job's summary row.
    pub fn expected_throughput(&self, parameters: &Value, scale: f64) -> f64 {
        self.surface.throughput(&surface_coords(parameters)) * scale
    }
}

/// A control plane with the benchmark's entities in place.
pub struct Plane {
    /// The core, over a durable store in the scratch directory.
    pub control: Arc<ChronosControl>,
    /// The store's log file.
    pub log_path: PathBuf,
    /// The deployment the load clients claim for.
    pub deployment: Id,
    /// The experiment holding the grid.
    pub experiment: Id,
    /// The running evaluation.
    pub evaluation: Id,
    /// Points planned for the evaluation.
    pub planned: u64,
    /// The registered minidoc system.
    pub system: Id,
    project: Id,
    /// Session tokens of the load clients; the index is the trace track.
    pub tokens: Vec<String>,
}

/// Opens (or re-opens) the durable control plane logged at `log_path`.
pub fn open_control(log_path: &Path) -> ChronosControl {
    let store = MetadataStore::open(log_path).expect("cannot open the metadata store");
    ChronosControl::new(store, Arc::new(SystemClock), SchedulerConfig::default())
}

impl Plane {
    /// Creates the plane in `scratch`: users, system, deployment, project,
    /// an experiment over `space` with its lazy evaluation, and one session
    /// per load client.
    pub fn create(scratch: &Scratch, space: ParamAssignments, clients: usize) -> Plane {
        let log_path = scratch.path().join("chronos-control.log");
        let control = Arc::new(open_control(&log_path));
        let admin = control.create_user("admin", PASSWORD, Role::Admin).expect("admin user");
        let system = control.register_system_from_definition(&system_definition()).expect("system");
        let deployment =
            control.create_deployment(system.id, "localhost", "0.1.0").expect("deployment");
        let project = control.create_project("benchmark", "E17", admin.id).expect("project");
        let experiment = control
            .create_experiment(project.id, system.id, "grid", "engine comparison", space)
            .expect("experiment");
        let evaluation = control.create_evaluation(experiment.id).expect("evaluation");
        let planned = evaluation.source.as_ref().map(|s| s.remaining()).unwrap_or(0);
        let tokens = (0..clients)
            .map(|i| {
                let name = format!("client-{i}");
                control.create_user(&name, PASSWORD, Role::Admin).expect("client user");
                control.login(&name, PASSWORD).expect("client login")
            })
            .collect();
        Plane {
            control,
            log_path,
            deployment: deployment.id,
            experiment: experiment.id,
            evaluation: evaluation.id,
            planned,
            system: system.id,
            project: project.id,
            tokens,
        }
    }

    /// Adds a second experiment over `space` to the plane's project.
    pub fn add_experiment(&self, name: &str, space: ParamAssignments) -> Id {
        self.control
            .create_experiment(self.project, self.system, name, "", space)
            .expect("experiment")
            .id
    }

    /// Starts one more lazy evaluation of `experiment`.
    pub fn add_evaluation(&self, experiment: Id) -> Id {
        self.control.create_evaluation(experiment).expect("evaluation").id
    }

    /// Claims and finishes `jobs` jobs through direct `ChronosControl`
    /// calls, uploading the canned result — how set-up populates history.
    pub fn settle_directly(&self, canned: &Canned, jobs: u64, scale: f64) {
        for _ in 0..jobs {
            let job = self
                .control
                .claim_next_job(self.deployment, None)
                .expect("claim")
                .expect("a job to claim");
            self.control
                .finish_job(
                    job.id,
                    canned.data_for(&job.parameters, scale),
                    canned.archive.clone(),
                    Some(job.attempts),
                    None,
                )
                .expect("finish");
        }
    }
}

/// Bodies seen on the wire, kept for the replay probes: the first few
/// requests and responses of every kind.
#[derive(Default)]
pub struct Captured {
    /// `(kind, request, response body)`.
    pub exchanges: Vec<(OpKind, Request, Vec<u8>)>,
}

const CAPTURE_PER_KIND: usize = 16;

/// Counters the harness-served handler keeps.
#[derive(Default)]
pub struct WireCounts {
    /// Responses outside 2xx.
    pub non2xx: AtomicU64,
    /// Request plus response body bytes of agent-protocol calls.
    pub protocol_body_bytes: AtomicU64,
    /// Dispatches per kind, indexed like [`OpKind::ALL`] (`Other` last).
    pub dispatches: [AtomicU64; 13],
}

/// The plane, served over HTTP one of two ways.
pub enum Serving {
    /// The production server: `ChronosServer` on the reactor, sweeper
    /// included. The untraced end-to-end runs use this.
    Production(ChronosServer),
    /// The harness serves `build_router(control)` itself through
    /// `chronos_http::Server`, with a span around every dispatch, and runs
    /// the same periodic sweep.
    Traced {
        http: ServerHandle,
        metrics: Arc<ServerMetrics>,
        stop: Arc<AtomicBool>,
        sweeper: Option<std::thread::JoinHandle<()>>,
        counts: Arc<WireCounts>,
        captured: Arc<Mutex<Captured>>,
    },
}

impl Serving {
    /// Serves `plane` with the production server.
    pub fn production(plane: &Plane) -> Serving {
        let server = ChronosServer::start(Arc::clone(&plane.control), "127.0.0.1:0")
            .expect("cannot start the Chronos server");
        Serving::Production(server)
    }

    /// Serves `plane` from the harness with spans around every dispatch.
    /// The session token identifies the load client, which is the track.
    pub fn traced(plane: &Plane, tracer: &Arc<Tracer>) -> Serving {
        let router = chronos_server::build_router(Arc::clone(&plane.control));
        let metrics = ServerMetrics::shared();
        let counts = Arc::new(WireCounts::default());
        let captured = Arc::new(Mutex::new(Captured::default()));
        let handler = {
            let (tracer, tokens) = (Arc::clone(tracer), plane.tokens.clone());
            let (counts, captured) = (Arc::clone(&counts), Arc::clone(&captured));
            move |request: Request| -> Response {
                let kind = OpKind::classify(&request);
                let token = request.headers.get(chronos_api::TOKEN_HEADER);
                let track = tokens.iter().position(|t| Some(t.as_str()) == token);
                let open =
                    tracer.begin(kind.dispatch_span(), track.unwrap_or(999) as u32, 0, false);
                let response = router.dispatch(&request);
                tracer.end(open);
                if !response.status.is_success() {
                    counts.non2xx.fetch_add(1, Ordering::Relaxed);
                }
                if kind.is_protocol() {
                    let bytes = (request.body.len() + response.body.len()) as u64;
                    counts.protocol_body_bytes.fetch_add(bytes, Ordering::Relaxed);
                }
                let slot = OpKind::ALL.iter().position(|k| *k == kind).unwrap_or(12);
                let seen = counts.dispatches[slot].fetch_add(1, Ordering::Relaxed);
                if (seen as usize) < CAPTURE_PER_KIND && kind != OpKind::Other {
                    let mut captured = captured.lock().expect("capture lock poisoned");
                    captured.exchanges.push((kind, request, response.body.clone()));
                }
                response
            }
        };
        let http = Server::new()
            .with_metrics(Arc::clone(&metrics))
            .serve("127.0.0.1:0", handler)
            .expect("cannot start the traced server");
        let stop = Arc::new(AtomicBool::new(false));
        let sweeper = {
            let (control, stop, tracer) =
                (Arc::clone(&plane.control), Arc::clone(&stop), Arc::clone(tracer));
            std::thread::Builder::new()
                .name("bench-sweeper".into())
                .spawn(move || {
                    while !stop.load(Ordering::SeqCst) {
                        tracer.span("core.check_timeouts", SWEEPER_TRACK, 0, || {
                            let _ = control.check_timeouts();
                        });
                        std::thread::sleep(SWEEP_INTERVAL);
                    }
                })
                .expect("cannot spawn the sweeper")
        };
        Serving::Traced { http, metrics, stop, sweeper: Some(sweeper), counts, captured }
    }

    /// Base URL, e.g. `http://127.0.0.1:43211`.
    pub fn base_url(&self) -> String {
        match self {
            Serving::Production(server) => server.base_url(),
            Serving::Traced { http, .. } => http.base_url(),
        }
    }

    /// The HTTP front end's counters.
    pub fn metrics(&self) -> Arc<ServerMetrics> {
        match self {
            Serving::Production(server) => server.metrics(),
            Serving::Traced { metrics, .. } => Arc::clone(metrics),
        }
    }

    /// Dispatch counters (traced serving only).
    pub fn counts(&self) -> Option<Arc<WireCounts>> {
        match self {
            Serving::Production(_) => None,
            Serving::Traced { counts, .. } => Some(Arc::clone(counts)),
        }
    }

    /// Takes the captured exchanges (traced serving only).
    pub fn take_captured(&self) -> Captured {
        match self {
            Serving::Production(_) => Captured::default(),
            Serving::Traced { captured, .. } => {
                std::mem::take(&mut *captured.lock().expect("capture lock poisoned"))
            }
        }
    }

    /// Stops serving and joins every thread started for it.
    pub fn shutdown(self) {
        match self {
            Serving::Production(mut server) => server.shutdown(),
            Serving::Traced { mut http, stop, mut sweeper, .. } => {
                stop.store(true, Ordering::SeqCst);
                http.shutdown();
                if let Some(sweeper) = sweeper.take() {
                    sweeper.join().expect("sweeper panicked");
                }
            }
        }
    }
}
