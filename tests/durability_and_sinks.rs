//! Long-running-evaluation realism: Chronos Control survives a full restart
//! on its durable store mid-evaluation (requirement *(iii)*), result
//! archives can be off-loaded to a NAS-style sink (paper §2.2), the
//! tpcc-lite client runs through the whole REST stack, and analysts can
//! export CSV.

mod common;

use std::sync::Arc;
use std::time::Duration;

use chronos::agent::{
    AgentConfig, ChronosAgent, ControlClient, DocstoreClient, LocalDirSink, TpccClient,
};
use chronos::core::auth::Role;
use chronos::core::store::MetadataStore;
use chronos::core::ChronosControl;
use chronos::json::{arr, obj, Value};
use chronos::server::ChronosServer;
use chronos::util::{Id, SystemClock};
use common::TestEnv;

#[test]
fn control_restart_mid_evaluation_resumes_from_the_log() {
    let store_path =
        std::env::temp_dir().join(format!("chronos-e2e-restart-{}.log", std::process::id()));
    let _ = std::fs::remove_file(&store_path);

    let start_server = || {
        let control = Arc::new(ChronosControl::new(
            MetadataStore::open(&store_path).unwrap(),
            Arc::new(SystemClock),
            chronos::core::scheduler::SchedulerConfig {
                heartbeat_timeout_millis: 800,
                max_attempts: 3,
                auto_reschedule: true,
            },
        ));
        if control.find_user("admin").is_none() {
            control.create_user("admin", "pw", Role::Admin).unwrap();
        }
        ChronosServer::start(control, "127.0.0.1:0").unwrap()
    };

    // Phase 1: set everything up, run one of two jobs, crash mid-second-job.
    let (deployment_id, evaluation_id);
    {
        let server = start_server();
        let control = Arc::clone(server.control());
        let system = control
            .register_system(
                "sut",
                "",
                vec![chronos::core::params::ParamDef::new(
                    "threads",
                    "",
                    chronos::core::params::ParamType::Interval { min: 1, max: 4, step: 1 },
                    Value::from(1),
                )
                .unwrap()],
                vec![],
            )
            .unwrap();
        let deployment = control.create_deployment(system.id, "node", "1").unwrap();
        deployment_id = deployment.id;
        let owner = control.find_user("admin").unwrap();
        let project = control.create_project("p", "", owner.id).unwrap();
        let experiment = control
            .create_experiment(
                project.id,
                system.id,
                "e",
                "",
                chronos::core::params::ParamAssignments::new()
                    .sweep("threads", vec![Value::from(1), Value::from(2)]),
            )
            .unwrap();
        let evaluation = control.create_evaluation(experiment.id).unwrap();
        evaluation_id = evaluation.id;
        // Finish job 1 via the core API; claim job 2 and "crash".
        let job1 = control.claim_next_job(deployment.id, None).unwrap().unwrap();
        control.finish_job(job1.id, obj! {"ok" => 1}, vec![], None, None).unwrap();
        control.claim_next_job(deployment.id, None).unwrap().unwrap();
        // Server (and the claimed job's agent) die here.
    }

    // Phase 2: a fresh server over the same store sees everything; the
    // orphaned running job is failed by the sweeper and re-scheduled.
    {
        let server = start_server();
        let control = Arc::clone(server.control());
        let status = control.evaluation_status(evaluation_id).unwrap();
        assert_eq!(status.finished, 1, "completed work survived the restart");
        // Wait for the sweeper to reap the orphaned lease.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            let status = control.evaluation_status(evaluation_id).unwrap();
            if status.scheduled == 1 && status.running == 0 {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "sweeper never reaped: {status:?}");
            std::thread::sleep(Duration::from_millis(100));
        }
        // A healthy agent finishes the evaluation.
        let job = control.claim_next_job(deployment_id, None).unwrap().unwrap();
        control.finish_job(job.id, obj! {"ok" => 2}, vec![], None, None).unwrap();
        let status = control.evaluation_status(evaluation_id).unwrap();
        assert_eq!(status.finished, 2);
        assert!(status.is_settled());
    }
    std::fs::remove_file(&store_path).unwrap();
}

#[test]
fn nas_sink_offloads_archives_from_control() {
    let env = TestEnv::start();
    let (system_id, deployment_id) = env.register_demo_system();
    let (_p, experiment_id) = env
        .create_demo_experiment(&system_id, obj! {"record_count" => 60, "operation_count" => 120});
    let evaluation =
        env.post(&format!("/api/v1/experiments/{experiment_id}/evaluations"), &obj! {});
    let evaluation_id = evaluation.get("id").and_then(Value::as_str).unwrap().to_string();

    let sink_dir = std::env::temp_dir().join(format!("chronos-nas-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&sink_dir);
    let client = ControlClient::new(&env.server.base_url(), &env.admin_token);
    let mut config = AgentConfig::new(Id::parse_base32(&deployment_id).unwrap());
    config.heartbeat_interval = Duration::from_millis(100);
    config.sink = Box::new(LocalDirSink::new(&sink_dir));
    let mut agent = ChronosAgent::new(client, config, DocstoreClient::new());
    assert_eq!(agent.run_until_idle(Duration::from_millis(300)).unwrap(), 1);

    // The control-side result is tiny (no inline archive)...
    let evaluation = env.get(&format!("/api/v1/evaluations/{evaluation_id}"));
    let job_id = evaluation.pointer("/job_ids/0").and_then(Value::as_str).unwrap().to_string();
    let job = env.get(&format!("/api/v1/jobs/{job_id}"));
    let result_id = job.get("result_id").and_then(Value::as_str).unwrap();
    let result = env.get(&format!("/api/v1/results/{result_id}"));
    assert_eq!(result.get("archive_bytes").and_then(Value::as_u64), Some(0));
    // ...but carries a reference to the NAS copy, which is a valid zip.
    let reference = result
        .pointer("/data/archive_ref")
        .and_then(Value::as_str)
        .expect("archive_ref present")
        .to_string();
    let bytes = std::fs::read(&reference).unwrap();
    let zip = chronos::zip::ZipArchive::parse(&bytes).unwrap();
    assert!(zip.names().contains(&"result.json"));
    assert!(zip.names().contains(&"throughput.csv"));
    std::fs::remove_dir_all(&sink_dir).unwrap();
}

#[test]
fn tpcc_client_through_the_full_stack() {
    let env = TestEnv::start();
    // A second SuE with the tpcc parameter schema.
    let system = env.post(
        "/api/v1/systems",
        &obj! {
            "name" => "minidoc-tpcc",
            "parameters" => arr![
                obj! {"name" => "engine", "type" => "checkbox",
                       "options" => arr!["wiredtiger", "mmapv1"], "default" => "wiredtiger"},
                obj! {"name" => "warehouses", "type" => "value", "default" => 1},
                obj! {"name" => "transaction_count", "type" => "value", "default" => 200},
                obj! {"name" => "threads", "type" => "interval", "min" => 1, "max" => 8, "step" => 1, "default" => 2},
            ],
            "charts" => arr![],
        },
    );
    let system_id = system.get("id").and_then(Value::as_str).unwrap().to_string();
    let deployment = env.post(
        &format!("/api/v1/systems/{system_id}/deployments"),
        &obj! {"environment" => "tpcc-node", "version" => "1.0.0"},
    );
    let deployment_id = deployment.get("id").and_then(Value::as_str).unwrap().to_string();
    let (_p, experiment_id) =
        env.create_demo_experiment(&system_id, obj! {"engine" => obj! {"sweep" => "all"}});
    let evaluation =
        env.post(&format!("/api/v1/experiments/{experiment_id}/evaluations"), &obj! {});
    let evaluation_id = evaluation.get("id").and_then(Value::as_str).unwrap().to_string();

    let client = ControlClient::new(&env.server.base_url(), &env.admin_token);
    let mut config = AgentConfig::new(Id::parse_base32(&deployment_id).unwrap());
    config.heartbeat_interval = Duration::from_millis(100);
    let mut agent = ChronosAgent::new(client, config, TpccClient::new());
    assert_eq!(agent.run_until_idle(Duration::from_millis(300)).unwrap(), 2);

    let summary = env.get(&format!("/api/v1/evaluations/{evaluation_id}/summary"));
    let rows = summary.get("rows").and_then(Value::as_array).unwrap();
    assert_eq!(rows.len(), 2);
    for job in env.get(&format!("/api/v1/evaluations/{evaluation_id}/jobs")).as_array().unwrap() {
        let result_id = job.get("result_id").and_then(Value::as_str).unwrap();
        let result = env.get(&format!("/api/v1/results/{result_id}"));
        assert!(
            result.pointer("/data/new_orders_per_minute").and_then(Value::as_f64).unwrap() > 0.0
        );
        assert_eq!(result.pointer("/data/total_errors").and_then(Value::as_u64), Some(0));
    }
}

#[test]
fn csv_export_has_parameter_and_metric_columns() {
    let env = TestEnv::start();
    let (system_id, deployment_id) = env.register_demo_system();
    let (_p, experiment_id) = env.create_demo_experiment(
        &system_id,
        obj! {
            "engine" => obj! {"sweep" => "all"},
            "record_count" => 60,
            "operation_count" => 120,
        },
    );
    let evaluation =
        env.post(&format!("/api/v1/experiments/{experiment_id}/evaluations"), &obj! {});
    let evaluation_id = evaluation.get("id").and_then(Value::as_str).unwrap();
    env.run_agent(&deployment_id);
    let response = env.get_raw(&format!("/api/v1/evaluations/{evaluation_id}/summary.csv"));
    assert!(response.status.is_success());
    assert!(response.headers.get("content-type").unwrap().starts_with("text/csv"));
    let csv = String::from_utf8_lossy(&response.body).into_owned();
    let mut lines = csv.lines();
    let header = lines.next().unwrap();
    assert!(header.starts_with("job_id,"));
    for column in ["engine", "threads", "throughput_ops_per_sec", "total_errors"] {
        assert!(header.contains(column), "missing column {column} in {header}");
    }
    let rows: Vec<&str> = lines.collect();
    assert_eq!(rows.len(), 2, "one row per finished job");
    assert!(rows.iter().any(|r| r.contains("wiredtiger")));
    assert!(rows.iter().any(|r| r.contains("mmapv1")));
    // Every row has the same number of columns as the header.
    let columns = header.split(',').count();
    for row in rows {
        assert_eq!(row.split(',').count(), columns, "{row}");
    }
}

/// A stored result whose archive does not decode is a storage fault the
/// archive route reports, not an empty zip; an empty archive is still one.
#[test]
fn damaged_result_archive_answers_500_and_an_empty_one_200() {
    let store_path =
        std::env::temp_dir().join(format!("chronos-damaged-archive-{}.log", std::process::id()));
    let _ = std::fs::remove_file(&store_path);
    let results = [("!!not base64", 500), ("", 200), ("AAEC", 200)];
    let ids: Vec<Id> = results.iter().map(|_| Id::generate()).collect();
    {
        let store = MetadataStore::open(&store_path).unwrap();
        for (id, (archive, _)) in ids.iter().zip(results) {
            let document = obj! {
                "id" => id.to_base32(),
                "job_id" => Id::generate().to_base32(),
                "data" => obj! {},
                "archive_bytes" => 0,
                "created_at" => 1,
                "archive_b64" => archive,
            };
            store.put("result", &id.to_base32(), document).unwrap();
        }
    }
    let control = Arc::new(ChronosControl::new(
        MetadataStore::open(&store_path).unwrap(),
        Arc::new(SystemClock),
        Default::default(),
    ));
    control.create_user("admin", "pw", Role::Admin).unwrap();
    let mut server = ChronosServer::start(control, "127.0.0.1:0").unwrap();
    let http = chronos::http::Client::new(&server.base_url());
    let login =
        http.post_json("/api/v1/login", &obj! {"username" => "admin", "password" => "pw"}).unwrap();
    let token =
        login.json_body().unwrap().get("token").and_then(Value::as_str).unwrap().to_string();
    http.set_default_header("X-Chronos-Token", &token);
    for (id, (archive, status)) in ids.iter().zip(results) {
        let response = http.get(&format!("/api/v1/results/{id}/archive.zip")).unwrap();
        assert_eq!(response.status.0, status, "archive_b64 {archive:?}");
        if status == 200 {
            let expected = chronos::util::encode::base64_decode(archive).unwrap();
            assert_eq!(response.body, expected, "archive_b64 {archive:?}");
        }
    }
    server.shutdown();
    let _ = std::fs::remove_file(&store_path);
}
