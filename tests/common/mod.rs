#![allow(dead_code)] // each integration-test binary uses a different subset

//! Shared fixture for the end-to-end integration tests: a running Chronos
//! Control server, an admin session, and helpers for the demo system.

use std::sync::Arc;
use std::time::Duration;

use chronos::core::auth::Role;
use chronos::core::scheduler::SchedulerConfig;
use chronos::core::store::MetadataStore;
use chronos::core::ChronosControl;
use chronos::http::{Client, Response};
use chronos::json::{arr, obj, Value};
use chronos::server::ChronosServer;
use chronos::util::SystemClock;

/// A live Chronos Control instance for one test.
pub struct TestEnv {
    pub server: ChronosServer,
    pub http: Client,
    pub admin_token: String,
}

impl TestEnv {
    /// Starts a server with the default scheduler policy.
    pub fn start() -> TestEnv {
        Self::start_with_config(SchedulerConfig::default())
    }

    /// Starts a server with a custom scheduler policy (short timeouts etc.).
    pub fn start_with_config(config: SchedulerConfig) -> TestEnv {
        Self::start_with_server(config, chronos::http::Server::new())
    }

    /// Starts a server with a custom scheduler policy *and* a custom HTTP
    /// server configuration (small worker pools, tight admission bounds —
    /// the overload and drain tests need deterministic capacity).
    pub fn start_with_server(
        config: SchedulerConfig,
        http_server: chronos::http::Server,
    ) -> TestEnv {
        Self::start_with_store(MetadataStore::in_memory(), config, http_server)
    }

    /// [`TestEnv::start_with_server`] over a given metadata store (a
    /// durable one, for tests that need the log file's append path).
    pub fn start_with_store(
        store: MetadataStore,
        config: SchedulerConfig,
        http_server: chronos::http::Server,
    ) -> TestEnv {
        let control = Arc::new(ChronosControl::new(store, Arc::new(SystemClock), config));
        control.create_user("admin", "admin-pw", Role::Admin).unwrap();
        let server = ChronosServer::start_with(control, "127.0.0.1:0", http_server).unwrap();
        let http = Client::new(&server.base_url()).with_timeout(Duration::from_secs(10));
        let login = http
            .post_json("/api/v1/login", &obj! {"username" => "admin", "password" => "admin-pw"})
            .unwrap();
        let admin_token =
            login.json_body().unwrap().get("token").and_then(Value::as_str).unwrap().to_string();
        http.set_default_header("X-Chronos-Token", &admin_token);
        TestEnv { server, http, admin_token }
    }

    /// POST with the admin session; asserts 2xx and returns the JSON body.
    pub fn post(&self, path: &str, body: &Value) -> Value {
        let response = self.http.post_json(path, body).unwrap();
        assert!(
            response.status.is_success(),
            "POST {path}: {} {}",
            response.status.0,
            String::from_utf8_lossy(&response.body)
        );
        response.json_body().unwrap_or(Value::Null)
    }

    /// GET with the admin session; asserts 2xx and returns the JSON body.
    pub fn get(&self, path: &str) -> Value {
        let response = self.get_raw(path);
        assert!(
            response.status.is_success(),
            "GET {path}: {} {}",
            response.status.0,
            String::from_utf8_lossy(&response.body)
        );
        response.json_body().unwrap_or(Value::Null)
    }

    /// GET returning the raw response (for non-JSON bodies and error cases).
    pub fn get_raw(&self, path: &str) -> Response {
        self.http.get(path).unwrap()
    }

    /// POST returning the raw response (for asserting error statuses).
    pub fn post_raw(&self, path: &str, body: &Value) -> Response {
        self.http.post_json(path, body).unwrap()
    }

    /// POST of arbitrary bytes (for malformed-body tests).
    pub fn post_bytes_raw(&self, path: &str, content_type: &str, body: &[u8]) -> Response {
        self.http.post_bytes(path, content_type, body.to_vec()).unwrap()
    }

    /// The demo system definition (minidoc with its parameter schema and
    /// charts) — small record/operation counts for fast tests.
    pub fn demo_system_definition() -> Value {
        obj! {
            "name" => "minidoc",
            "description" => "embedded document store with two storage engines",
            "parameters" => arr![
                obj! {
                    "name" => "engine",
                    "description" => "storage engine",
                    "type" => "checkbox",
                    "options" => arr!["wiredtiger", "mmapv1"],
                    "default" => "wiredtiger",
                },
                obj! {
                    "name" => "threads",
                    "description" => "client threads",
                    "type" => "interval",
                    "min" => 1,
                    "max" => 8,
                    "step" => 1,
                    "default" => 1,
                },
                obj! {
                    "name" => "workload",
                    "description" => "YCSB core workload",
                    "type" => "checkbox",
                    "options" => arr!["a", "b", "c", "d", "e", "f"],
                    "default" => "a",
                },
                obj! {
                    "name" => "record_count",
                    "description" => "records to load",
                    "type" => "value",
                    "default" => 200,
                },
                obj! {
                    "name" => "operation_count",
                    "description" => "operations to run",
                    "type" => "value",
                    "default" => 400,
                },
                obj! {
                    "name" => "compression",
                    "description" => "block compression",
                    "type" => "boolean",
                    "default" => true,
                },
            ],
            "charts" => arr![
                obj! {
                    "kind" => "line",
                    "title" => "Throughput by thread count",
                    "x_param" => "threads",
                    "series_param" => "engine",
                    "value_path" => "/throughput_ops_per_sec",
                    "y_label" => "ops/s",
                },
                obj! {
                    "kind" => "bar",
                    "title" => "p99 read latency",
                    "x_param" => "threads",
                    "series_param" => "engine",
                    "value_path" => "/operations/read/latency_micros/p99",
                    "y_label" => "µs",
                },
            ],
        }
    }

    /// Registers the demo system and one deployment; returns
    /// `(system_id, deployment_id)` as strings.
    pub fn register_demo_system(&self) -> (String, String) {
        let system = self.post("/api/v1/systems", &Self::demo_system_definition());
        let system_id = system.get("id").and_then(Value::as_str).unwrap().to_string();
        let deployment = self.post(
            &format!("/api/v1/systems/{system_id}/deployments"),
            &obj! {"environment" => "test-node", "version" => "0.1.0"},
        );
        let deployment_id = deployment.get("id").and_then(Value::as_str).unwrap().to_string();
        (system_id, deployment_id)
    }

    /// Creates a project + experiment over the given parameter assignment;
    /// returns `(project_id, experiment_id)`.
    pub fn create_demo_experiment(&self, system_id: &str, parameters: Value) -> (String, String) {
        let project = self.post(
            "/api/v1/projects",
            &obj! {"name" => "demo project", "description" => "integration test"},
        );
        let project_id = project.get("id").and_then(Value::as_str).unwrap().to_string();
        let experiment = self.post(
            &format!("/api/v1/projects/{project_id}/experiments"),
            &obj! {
                "name" => "engine comparison",
                "system_id" => system_id,
                "parameters" => parameters,
            },
        );
        let experiment_id = experiment.get("id").and_then(Value::as_str).unwrap().to_string();
        (project_id, experiment_id)
    }

    /// Runs a [`chronos::agent::DocstoreClient`] agent against the given
    /// deployment until the queue is idle; returns jobs completed.
    pub fn run_agent(&self, deployment_id: &str) -> u64 {
        use chronos::agent::{AgentConfig, ChronosAgent, ControlClient, DocstoreClient};
        let client = ControlClient::new(&self.server.base_url(), &self.admin_token);
        let deployment = chronos::util::Id::parse_base32(deployment_id).unwrap();
        let mut config = AgentConfig::new(deployment);
        config.heartbeat_interval = Duration::from_millis(100);
        config.poll_interval = Duration::from_millis(50);
        let mut agent = ChronosAgent::new(client, config, DocstoreClient::new());
        agent.run_until_idle(Duration::from_millis(300)).unwrap()
    }
}
