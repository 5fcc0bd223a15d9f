//! # chronos-server — the Chronos Control REST API
//!
//! Exposes [`chronos_core::ChronosControl`] over HTTP, exactly in the role
//! of the original's Apache+PHP web service: "a RESTful web service for
//! clients benchmarking the SuEs" that is also "used [...] for the
//! integration of the Chronos toolkit into existing evaluation workflows"
//! (paper §2.2).
//!
//! The API is versioned (`/api/v1` plus a frozen `/api/v0` compatibility
//! subset), token-authenticated (`X-Chronos-Token`), and serves every
//! workflow of the paper: system registration, deployments, projects,
//! experiments, evaluations, the agent protocol (claim / heartbeat / log /
//! result / fail), abort/reschedule, archives, analysis and chart renders.
//!
//! ## Overload protection and graceful degradation
//!
//! The HTTP front end admits every connection and bounds requests: a cap
//! on requests inside handlers and a bounded queue of parsed requests
//! beyond them. Excess requests are shed cheaply with typed
//! `429 {"error":{"code":"overloaded"}}` envelopes carrying `Retry-After`,
//! on connections that stay open.
//! Callers can bound their wait with the `X-Chronos-Deadline-Ms` header;
//! the transport answers a request whose budget is spent when it gets its
//! handler slot with `504 deadline_exceeded`, before any handler runs.
//! `/healthz` (liveness) and `/readyz` (readiness: store healthy and not
//! draining) expose the state to orchestrators, and
//! [`ChronosServer::drain`] performs a two-phase graceful shutdown that
//! finishes in-flight requests.
//!
//! ```no_run
//! use std::sync::Arc;
//! use chronos_core::ChronosControl;
//! use chronos_server::ChronosServer;
//!
//! let control = Arc::new(ChronosControl::in_memory());
//! let server = ChronosServer::start(control, "127.0.0.1:0").unwrap();
//! println!("Chronos Control listening on {}", server.base_url());
//! ```

mod api_v0;
mod api_v1;
mod cluster;
mod read_cache;
mod ui;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use chronos_core::cluster::{ClusterConfig, ClusterState};
use chronos_core::ChronosControl;
use chronos_http::{Response, Router, Server, ServerHandle, ServerMetrics, Status};
use chronos_json::obj;

pub use cluster::{CODE_BAD_SEGMENT, CODE_OFFSET_GAP, CODE_STALE_TERM};

/// How often the background sweeper checks for heartbeat timeouts.
const SWEEP_INTERVAL: Duration = Duration::from_millis(500);

/// A running Chronos Control server (HTTP listener + failure sweeper,
/// plus the replication/election driver in cluster mode).
pub struct ChronosServer {
    http: Option<ServerHandle>,
    control: Arc<ChronosControl>,
    stop: Arc<AtomicBool>,
    draining: Arc<AtomicBool>,
    metrics: Arc<ServerMetrics>,
    sweeper: Option<std::thread::JoinHandle<()>>,
    cluster: Option<Arc<ClusterState>>,
    cluster_runtime: Option<Arc<cluster::ClusterRuntime>>,
    cluster_driver: Option<std::thread::JoinHandle<()>>,
}

impl ChronosServer {
    /// Binds `addr` and starts serving the versioned API with the default
    /// (bounded) admission configuration. A background thread runs the
    /// failure-detection sweep (requirement *(iii)*).
    pub fn start(control: Arc<ChronosControl>, addr: &str) -> std::io::Result<ChronosServer> {
        Self::start_with(control, addr, Server::new())
    }

    /// Like [`ChronosServer::start`], but with a caller-configured HTTP
    /// front end (worker count, admission queue depth, timeouts).
    /// Used by the overload experiment and robustness tests to pin the
    /// admission envelope.
    pub fn start_with(
        control: Arc<ChronosControl>,
        addr: &str,
        http: Server,
    ) -> std::io::Result<ChronosServer> {
        Self::start_inner(control, addr, http, None)
    }

    /// Starts a **cluster-mode** node: the ordinary API plus the peer
    /// endpoints (`/api/v1/cluster/*`), the role guard (non-leaders refuse
    /// writes with a typed `not_leader` envelope and serve reads only
    /// within the staleness bound), and the replication/election driver.
    ///
    /// The node boots as a follower knowing no peers; call
    /// [`ChronosServer::set_cluster_peers`] once every node has bound its
    /// listener (cluster tests bind on port 0, so addresses exist only
    /// after all nodes start). Elections begin after that.
    pub fn start_cluster(
        control: Arc<ChronosControl>,
        addr: &str,
        http: Server,
        config: ClusterConfig,
    ) -> std::io::Result<ChronosServer> {
        Self::start_inner(control, addr, http, Some(config))
    }

    fn start_inner(
        control: Arc<ChronosControl>,
        addr: &str,
        http: Server,
        config: Option<ClusterConfig>,
    ) -> std::io::Result<ChronosServer> {
        let metrics = ServerMetrics::shared();
        let draining = Arc::new(AtomicBool::new(false));
        let state = config.map(|config| Arc::new(ClusterState::new(config)));
        if state.is_none() {
            // A single-node server is trivially its own leader: the gauges
            // read the same whether or not cluster mode is on.
            metrics.cluster_role.set(2);
        }
        let router = router_with_cluster(
            Arc::clone(&control),
            Arc::clone(&metrics),
            Arc::clone(&draining),
            state.clone(),
        );
        let guard_state = state.clone();
        let http = http.with_metrics(Arc::clone(&metrics)).serve(addr, move |request| {
            // Cluster mode: role-aware routing. A follower refuses writes
            // (and stale reads) before the router runs.
            if let Some(state) = &guard_state {
                if let Some(refusal) = cluster::guard(&request, state) {
                    return refusal;
                }
            }
            router.dispatch(&request)
        })?;
        if let Some(state) = &state {
            state.set_advertise(&http.base_url());
        }
        let stop = Arc::new(AtomicBool::new(false));
        let sweeper = {
            let control = Arc::clone(&control);
            let stop = Arc::clone(&stop);
            let state = state.clone();
            std::thread::Builder::new()
                .name("chronos-sweeper".into())
                .spawn(move || {
                    while !stop.load(Ordering::SeqCst) {
                        // In cluster mode only the leader sweeps: followers
                        // rescheduling jobs locally would diverge from the
                        // replicated log (all writes must flow through the
                        // leader's WAL).
                        if state.as_ref().is_none_or(|s| s.is_leader()) {
                            let _ = control.check_timeouts();
                        }
                        std::thread::sleep(SWEEP_INTERVAL);
                    }
                })
                .expect("failed to spawn sweeper")
        };
        let (cluster_runtime, cluster_driver) = match &state {
            Some(state) => {
                let runtime = Arc::new(cluster::ClusterRuntime::new(
                    Arc::clone(state),
                    Arc::clone(&control),
                    Arc::clone(&metrics),
                ));
                let driver = {
                    let runtime = Arc::clone(&runtime);
                    std::thread::Builder::new()
                        .name("chronos-cluster".into())
                        .spawn(move || runtime.run())
                        .expect("failed to spawn cluster driver")
                };
                (Some(runtime), Some(driver))
            }
            None => (None, None),
        };
        Ok(ChronosServer {
            http: Some(http),
            control,
            stop,
            draining,
            metrics,
            sweeper: Some(sweeper),
            cluster: state,
            cluster_runtime,
            cluster_driver,
        })
    }

    /// Cluster mode: announces the other nodes' base URLs. Replication and
    /// elections only involve configured peers, so call this on every node
    /// once all listeners are bound.
    pub fn set_cluster_peers(&self, peers: Vec<String>) {
        if let Some(runtime) = &self.cluster_runtime {
            runtime.set_peers(peers);
        }
    }

    /// The cluster state of this node (`None` outside cluster mode).
    pub fn cluster(&self) -> Option<&Arc<ClusterState>> {
        self.cluster.as_ref()
    }

    /// Base URL, e.g. `http://127.0.0.1:43211`.
    pub fn base_url(&self) -> String {
        self.http.as_ref().expect("server running").base_url()
    }

    /// The bound address.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.http.as_ref().expect("server running").addr()
    }

    /// The control instance behind the server.
    pub fn control(&self) -> &Arc<ChronosControl> {
        &self.control
    }

    /// Live counters for the HTTP front end (accepted, shed, in-flight…).
    pub fn metrics(&self) -> Arc<ServerMetrics> {
        Arc::clone(&self.metrics)
    }

    /// Whether a drain has begun (readiness is reported false from then on).
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Handler panics caught so far (0 on a healthy server).
    pub fn pool_panics(&self) -> usize {
        self.http.as_ref().map(|h| h.pool_panics()).unwrap_or(0)
    }

    /// Two-phase graceful drain: flips `/readyz` to unready, stops
    /// accepting new connections (they are refused with a typed
    /// `503 draining` envelope), lets every in-flight request finish with
    /// `Connection: close`, and joins the HTTP workers. Returns `true` if
    /// all in-flight work completed within the drain window. The sweeper
    /// keeps running until [`ChronosServer::shutdown`].
    pub fn drain(&mut self) -> bool {
        self.draining.store(true, Ordering::SeqCst);
        match self.http.as_mut() {
            Some(http) => http.drain(),
            None => true,
        }
    }

    /// Stops the HTTP listener (draining in-flight requests first) and
    /// the sweeper. Idempotent.
    pub fn shutdown(&mut self) {
        self.draining.store(true, Ordering::SeqCst);
        self.stop.store(true, Ordering::SeqCst);
        if let Some(runtime) = &self.cluster_runtime {
            runtime.request_stop();
        }
        if let Some(driver) = self.cluster_driver.take() {
            let _ = driver.join();
        }
        if let Some(mut http) = self.http.take() {
            http.shutdown();
        }
        if let Some(sweeper) = self.sweeper.take() {
            let _ = sweeper.join();
        }
    }
}

impl Drop for ChronosServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Builds the full routing table (v1 + frozen v0) with a detached set of
/// metrics and a never-draining readiness flag. Prefer
/// [`ChronosServer::start`], which wires the router to the live server
/// state; this entry point serves embedding and router-level tests. The
/// `X-Chronos-Deadline-Ms` budget is checked by the transport when a
/// request gets its handler slot, so a router dispatched without a
/// [`chronos_http::Server`] checks no deadline.
pub fn build_router(control: Arc<ChronosControl>) -> Router {
    router_with(control, ServerMetrics::shared(), Arc::new(AtomicBool::new(false)))
}

/// Builds the routing table wired to live server state: `metrics` counts
/// read-cache hits and is surfaced on the status UI, `draining` drives
/// `/readyz`.
fn router_with(
    control: Arc<ChronosControl>,
    metrics: Arc<ServerMetrics>,
    draining: Arc<AtomicBool>,
) -> Router {
    router_with_cluster(control, metrics, draining, None)
}

/// [`router_with`], optionally in cluster mode: mounts the peer endpoints
/// and extends `/readyz` with role, term, and replication lag (a stale
/// follower reports unready — load balancers stop routing reads to it).
fn router_with_cluster(
    control: Arc<ChronosControl>,
    metrics: Arc<ServerMetrics>,
    draining: Arc<AtomicBool>,
    state: Option<Arc<ClusterState>>,
) -> Router {
    let mut router = Router::new();
    api_v1::mount(&mut router, Arc::clone(&control), Arc::clone(&metrics));
    api_v0::mount(&mut router, Arc::clone(&control));
    ui::mount(&mut router, Arc::clone(&control), Arc::clone(&metrics), Arc::clone(&draining));
    if let Some(state) = &state {
        cluster::mount(&mut router, Arc::clone(state), Arc::clone(&control), Arc::clone(&metrics));
    }
    router.get("/api", |_req, _params| {
        use chronos_api::WireEncode;
        Response::json(&chronos_api::ApiIndex::default().to_value())
    });

    // Liveness: the process is up and the router is dispatching. No auth —
    // orchestrator probes cannot carry tokens.
    router.get("/healthz", |_req, _params| Response::json(&obj! { "status" => "ok" }));

    // Readiness: the store can persist writes and no drain has begun. An
    // unready server answers 503 with the same typed envelope shape the
    // accept thread sheds with, so probes and agents classify it alike.
    // Cluster mode adds the node's role/term/lag, and a follower whose
    // replication lag exceeds the staleness bound reports unready.
    router.get("/readyz", move |_req, _params| {
        let store_healthy = control.store_healthy();
        let is_draining = draining.load(Ordering::SeqCst);
        let mut ready = store_healthy && !is_draining;
        let mut body = obj! {
            "ready" => ready,
            "draining" => is_draining,
            "store_healthy" => store_healthy,
        };
        if let (chronos_json::Value::Object(map), Some(state)) = (&mut body, &state) {
            let now = Instant::now();
            let stale = state.is_stale(now);
            ready = ready && !stale;
            map.insert("ready".into(), chronos_json::Value::from(ready));
            map.insert("role".into(), chronos_json::Value::from(state.role().as_str()));
            map.insert("term".into(), chronos_json::Value::from(state.term() as i64));
            map.insert(
                "replication_lag_ms".into(),
                chronos_json::Value::from(state.lag(now).as_millis() as i64),
            );
            map.insert("stale".into(), chronos_json::Value::from(stale));
        }
        if ready {
            Response::json(&body)
        } else {
            Response::json_status(Status::SERVICE_UNAVAILABLE, &body)
        }
    });
    router
}

/// Maps a [`chronos_core::CoreError`] to the wire error envelope.
pub(crate) fn error_response(error: chronos_core::CoreError) -> Response {
    use chronos_api::{ErrorEnvelope, WireEncode};
    use chronos_core::CoreError;
    let status = match &error {
        CoreError::NotFound { .. } => Status::NOT_FOUND,
        CoreError::Invalid(_) => Status::BAD_REQUEST,
        CoreError::Conflict(_) | CoreError::LeaseLost(_) => Status::CONFLICT,
        CoreError::Forbidden(_) => Status::FORBIDDEN,
        CoreError::Storage(_) | CoreError::Archive(_) => Status::INTERNAL_ERROR,
    };
    if let CoreError::LeaseLost(message) = &error {
        // A distinguishable shape: agents must tell "lease lost, stop the
        // run" apart from ordinary 409 conflicts.
        return Response::json_status(status, &ErrorEnvelope::lease_lost(message).to_value());
    }
    Response::json_status(status, &ErrorEnvelope::status(status.0, error.to_string()).to_value())
}
