//! The agent runtime's own cost: a job takes as long as its SuE work, not
//! as long as the heartbeat interval — and heartbeats still ship progress
//! and logs while the job runs.

mod common;

use std::time::{Duration, Instant};

use chronos::agent::{AgentConfig, ChronosAgent, ControlClient, EvaluationClient, JobContext};
use chronos::http::Client;
use chronos::json::{obj, Value};
use common::TestEnv;

const MARKER: &str = "sleepy-client: halfway";

/// An evaluation client whose only work is to sleep for `run_for`,
/// reporting half progress and logging [`MARKER`] halfway through, so only
/// a heartbeat after the first can carry them.
struct SleepyClient {
    run_for: Duration,
}

impl EvaluationClient for SleepyClient {
    fn name(&self) -> &str {
        "sleepy"
    }

    fn set_up(&mut self, _ctx: &JobContext) -> Result<(), String> {
        Ok(())
    }

    fn execute(&mut self, ctx: &JobContext) -> Result<Value, String> {
        std::thread::sleep(self.run_for / 2);
        ctx.set_progress(50);
        ctx.log(MARKER);
        std::thread::sleep(self.run_for / 2);
        Ok(obj! {"throughput_ops_per_sec" => 1})
    }
}

/// One single-point evaluation on the demo system; returns
/// `(evaluation_id, deployment_id)`.
fn one_job_evaluation(env: &TestEnv) -> (String, String) {
    let (system_id, deployment_id) = env.register_demo_system();
    let (_project, experiment_id) = env.create_demo_experiment(&system_id, obj! {});
    let evaluation =
        env.post(&format!("/api/v1/experiments/{experiment_id}/evaluations"), &obj! {});
    let evaluation_id = evaluation.get("id").and_then(Value::as_str).unwrap().to_string();
    (evaluation_id, deployment_id)
}

fn agent(
    env: &TestEnv,
    deployment_id: &str,
    heartbeat_interval: Duration,
    client: SleepyClient,
) -> ChronosAgent<SleepyClient> {
    let control = ControlClient::new(&env.server.base_url(), &env.admin_token);
    let mut config = AgentConfig::new(chronos::util::Id::parse_base32(deployment_id).unwrap());
    config.heartbeat_interval = heartbeat_interval;
    ChronosAgent::new(control, config, client)
}

fn only_job(http: &Client, evaluation_id: &str) -> Option<Value> {
    let evaluation =
        http.get(&format!("/api/v1/evaluations/{evaluation_id}")).ok()?.json_body().ok()?;
    let job_id = evaluation.pointer("/job_ids/0").and_then(Value::as_str)?.to_string();
    http.get(&format!("/api/v1/jobs/{job_id}")).ok()?.json_body().ok()
}

fn state(job: &Value) -> Option<&str> {
    job.get("state").and_then(Value::as_str)
}

#[test]
fn a_job_does_not_wait_out_the_heartbeat_interval() {
    let env = TestEnv::start();
    let (evaluation_id, deployment_id) = one_job_evaluation(&env);
    // Long enough for the first beat to go out and the heartbeat thread to
    // fall asleep: the job must end with its work, not with that sleep.
    let mut agent = agent(
        &env,
        &deployment_id,
        Duration::from_secs(30),
        SleepyClient { run_for: Duration::from_millis(200) },
    );

    let start = Instant::now();
    assert!(agent.run_once().unwrap(), "the job must be claimed");
    let took = start.elapsed();
    assert!(took < Duration::from_secs(2), "run_once took {took:?} for 200 ms of work");

    let job = only_job(&env.http, &evaluation_id).unwrap();
    assert_eq!(state(&job), Some("finished"), "{job}");
    assert!(job.get("result_id").and_then(Value::as_str).is_some(), "{job}");
}

#[test]
fn heartbeats_ship_progress_and_logs_while_the_job_runs() {
    let env = TestEnv::start();
    let (evaluation_id, deployment_id) = one_job_evaluation(&env);
    // About 3.5 heartbeat intervals of SuE work.
    let mut agent = agent(
        &env,
        &deployment_id,
        Duration::from_millis(100),
        SleepyClient { run_for: Duration::from_millis(350) },
    );

    let base_url = env.server.base_url();
    let token = env.admin_token.clone();
    let observer = std::thread::spawn(move || {
        let http = Client::new(&base_url).with_timeout(Duration::from_secs(10));
        http.set_default_header("X-Chronos-Token", &token);
        let (mut progress_while_running, mut log_while_running) = (false, false);
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            // The log first, then the state: a marker read before a
            // `running` state reached Chronos Control while the job ran.
            let log = only_job(&http, &evaluation_id).and_then(|job| {
                let job_id = job.get("id").and_then(Value::as_str)?.to_string();
                http.get(&format!("/api/v1/jobs/{job_id}/log")).ok()
            });
            let Some(job) = only_job(&http, &evaluation_id) else {
                std::thread::sleep(Duration::from_millis(10));
                continue;
            };
            if state(&job) == Some("running") {
                progress_while_running |= job.get("progress").and_then(Value::as_i64) == Some(50);
                log_while_running |=
                    log.is_some_and(|log| String::from_utf8_lossy(&log.body).contains(MARKER));
            } else if state(&job) == Some("finished") {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        (progress_while_running, log_while_running)
    });

    assert!(agent.run_once().unwrap(), "the job must be claimed");
    let (progress_while_running, log_while_running) = observer.join().unwrap();
    assert!(progress_while_running, "no heartbeat carried progress while the job ran");
    assert!(log_while_running, "no log batch reached Chronos Control while the job ran");
}
