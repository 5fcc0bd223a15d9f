#![cfg(feature = "failpoints")]

//! End-to-end chaos: Chronos Control + two agents over real sockets with a
//! seeded fault schedule — dropped responses after the server committed,
//! failing heartbeats, failing claims, failing uploads — and still every job
//! must finish **exactly once**: no job lost, no duplicate result.
//!
//! Fault draws are deterministic per (seed, site, hit index); a failure
//! reproduces with `CHRONOS_FAIL_SEED=<seed> cargo test --features
//! failpoints --test chaos`.

mod common;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use chronos::agent::{AgentConfig, ChronosAgent, ControlClient, DocstoreClient};
use chronos::core::model::JobState;
use chronos::core::scheduler::SchedulerConfig;
use chronos::json::{arr, obj, Value};
use chronos::util::fail::{self, Policy};
use chronos::util::Id;
use common::TestEnv;

/// The failpoint registry is process-global; chaos scenarios must not
/// overlap. Resets and re-seeds the registry for replay.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let guard = match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    fail::reset();
    fail::set_seed(chaos_seed());
    guard
}

fn chaos_seed() -> u64 {
    std::env::var("CHRONOS_FAIL_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0xBADCAB)
}

fn replay() -> String {
    format!("(replay with CHRONOS_FAIL_SEED={})", fail::seed())
}

/// How many jobs an evaluation will run in total. Lazy evaluations create
/// job documents on the claim path, so at creation time the count lives in
/// `total_points`, not in the (still empty) `job_ids` list.
fn expected_jobs(evaluation: &Value) -> usize {
    evaluation.get("total_points").and_then(Value::as_i64).map(|n| n as usize).unwrap_or_else(
        || evaluation.get("job_ids").and_then(Value::as_array).map(Vec::len).unwrap(),
    )
}

/// An agent driver that keeps going through injected failures: a failed
/// claim or a failed run is exactly what the storm is supposed to produce;
/// the scheduler's reschedule + fencing machinery has to absorb it. Runs
/// until the main thread signals that every job settled (or the deadline).
fn storm_agent(
    base_url: &str,
    token: &str,
    deployment: Id,
    done: &AtomicBool,
    deadline: Instant,
) -> u64 {
    let client = ControlClient::new(base_url, token);
    let mut config = AgentConfig::new(deployment);
    config.heartbeat_interval = Duration::from_millis(100);
    config.poll_interval = Duration::from_millis(25);
    let mut agent = ChronosAgent::new(client, config, DocstoreClient::new());
    let mut completed = 0u64;
    while !done.load(Ordering::SeqCst) && Instant::now() < deadline {
        match agent.run_once() {
            Ok(true) => completed += 1,
            // Empty queue, or an injected transport/claim/upload failure:
            // either way, keep polling until the storm is over.
            Ok(false) | Err(_) => std::thread::sleep(Duration::from_millis(25)),
        }
    }
    completed
}

#[test]
fn chaos_storm_every_job_finishes_exactly_once() {
    let _guard = serial();
    let env = TestEnv::start_with_config(SchedulerConfig {
        heartbeat_timeout_millis: 1500,
        max_attempts: 12,
        auto_reschedule: true,
    });
    let (system_id, deployment_id) = env.register_demo_system();
    // Both engines × {1, 2} threads — 4 jobs, small workloads so every job
    // runs in well under a heartbeat timeout.
    let (_project_id, experiment_id) = env.create_demo_experiment(
        &system_id,
        obj! {
            "engine" => obj! {"sweep" => "all"},
            "threads" => obj! {"sweep" => arr![1, 2]},
            "record_count" => 60,
            "operation_count" => 120,
        },
    );
    let evaluation =
        env.post(&format!("/api/v1/experiments/{experiment_id}/evaluations"), &obj! {});
    let evaluation_id = evaluation.get("id").and_then(Value::as_str).unwrap().to_string();
    let job_count = expected_jobs(&evaluation);
    assert_eq!(job_count, 4);

    // The storm: every boundary of the claim → run → upload protocol
    // misbehaves with seeded probabilities. `http.server.drop_response`
    // is the nasty one — the server *has committed* and only the response
    // dies, which is exactly what the idempotency keys exist for.
    fail::arm("agent.claim", Policy::ErrorProb(0.10));
    fail::arm("agent.heartbeat", Policy::ErrorProb(0.15));
    fail::arm("agent.upload", Policy::ErrorProb(0.15));
    fail::arm("http.server.drop_response", Policy::ErrorProb(0.05));
    // Synthetic budget breaches ride along: each one costs an attempt and
    // re-runs the job, and with max_attempts=12 the storm still must end
    // with every job *finished* — breaches only delay, never lose work.
    fail::arm("agent.budget.breach", Policy::ErrorProb(0.10));
    // The server core takes its own faults: accepts that die before
    // admission, and sockets that fail mid-read or mid-write (including
    // after the server committed).
    fail::arm("http.reactor.accept", Policy::ErrorProb(0.01));
    fail::arm("http.reactor.read", Policy::ErrorProb(0.01));
    fail::arm("http.reactor.write", Policy::ErrorProb(0.01));

    let deadline = Instant::now() + Duration::from_secs(90);
    let base_url = env.server.base_url();
    let token = env.admin_token.clone();
    let deployment = Id::parse_base32(&deployment_id).unwrap();
    let done = Arc::new(AtomicBool::new(false));
    let agents: Vec<_> = (0..2)
        .map(|i| {
            let base_url = base_url.clone();
            let token = token.clone();
            let done = Arc::clone(&done);
            std::thread::Builder::new()
                .name(format!("chaos-agent-{i}"))
                .spawn(move || storm_agent(&base_url, &token, deployment, &done, deadline))
                .unwrap()
        })
        .collect();

    // Watch from the control side (in-process, unaffected by the armed
    // failpoints) and stop the agents once every job settled exactly once.
    let control = env.server.control();
    let evaluation = Id::parse_base32(&evaluation_id).unwrap();
    while Instant::now() < deadline {
        let jobs = control.list_jobs(evaluation).unwrap();
        if jobs.len() == job_count
            && jobs.iter().all(|j| j.state == JobState::Finished)
            && control.count_results() == job_count
        {
            break;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    done.store(true, Ordering::SeqCst);
    let completed: u64 = agents.into_iter().map(|h| h.join().unwrap()).sum();

    fail::reset();

    // Exactly-once: every job finished, and the number of stored results is
    // exactly the number of jobs — reclaims, retried uploads and dropped
    // responses must all have deduplicated.
    let jobs = control.list_jobs(evaluation).unwrap();
    assert_eq!(jobs.len(), job_count, "jobs vanished {}", replay());
    for job in &jobs {
        assert_eq!(
            job.state,
            JobState::Finished,
            "job {} ended {:?} after {} attempts (agents completed {completed}) {}",
            job.id,
            job.state,
            job.attempts,
            replay()
        );
        assert!(job.result_id.is_some(), "finished job {} has no result {}", job.id, replay());
    }
    assert_eq!(
        control.count_results(),
        job_count,
        "stored results != jobs: duplicate or lost uploads {}",
        replay()
    );
    // `completed` counts runs the *agents* saw succeed; a job whose final
    // upload response was eaten still finishes server-side, so this can
    // undercount — it must never overcount past one success per attempt.
    assert!(completed >= 1, "no agent ever completed a job {}", replay());
}

/// A breach storm against a *tight* attempt limit: jobs whose seeded
/// budget breaches exhaust `max_attempts` must land in quarantine, the
/// rest must finish exactly once, and the two sets together must account
/// for every job — no limbo states, no resurrections, no lost results.
#[test]
fn chaos_breach_storm_quarantines_poison_jobs_and_finishes_the_rest() {
    let _guard = serial();
    let env = TestEnv::start_with_config(SchedulerConfig {
        heartbeat_timeout_millis: 30_000,
        max_attempts: 2,
        auto_reschedule: true,
    });
    let (system_id, deployment_id) = env.register_demo_system();
    // 2 engines × 3 thread counts — 6 jobs, enough for the seeded draws to
    // produce both quarantines and clean finishes.
    let (_project_id, experiment_id) = env.create_demo_experiment(
        &system_id,
        obj! {
            "engine" => obj! {"sweep" => "all"},
            "threads" => obj! {"sweep" => arr![1, 2, 3]},
            "record_count" => 40,
            "operation_count" => 80,
        },
    );
    let evaluation =
        env.post(&format!("/api/v1/experiments/{experiment_id}/evaluations"), &obj! {});
    let evaluation_id = evaluation.get("id").and_then(Value::as_str).unwrap().to_string();
    let job_count = expected_jobs(&evaluation);
    assert_eq!(job_count, 6);

    // Only the breach site is armed: attempt accounting must be driven by
    // budget kills alone, so `attempts` on a quarantined job is exactly
    // the number of breaches it took.
    fail::arm("agent.budget.breach", Policy::ErrorProb(0.70));

    let deadline = Instant::now() + Duration::from_secs(90);
    let deployment = Id::parse_base32(&deployment_id).unwrap();
    let done = Arc::new(AtomicBool::new(false));
    let agent = {
        let base_url = env.server.base_url();
        let token = env.admin_token.clone();
        let done = Arc::clone(&done);
        std::thread::Builder::new()
            .name("breach-agent".into())
            .spawn(move || storm_agent(&base_url, &token, deployment, &done, deadline))
            .unwrap()
    };

    let control = env.server.control();
    let evaluation = Id::parse_base32(&evaluation_id).unwrap();
    while Instant::now() < deadline {
        let jobs = control.list_jobs(evaluation).unwrap();
        if jobs.len() == job_count
            && jobs.iter().all(|j| matches!(j.state, JobState::Finished | JobState::Quarantined))
        {
            break;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    done.store(true, Ordering::SeqCst);
    let _ = agent.join().unwrap();
    fail::reset();

    let jobs = control.list_jobs(evaluation).unwrap();
    assert_eq!(jobs.len(), job_count, "jobs vanished {}", replay());
    let finished = jobs.iter().filter(|j| j.state == JobState::Finished).count();
    let quarantined = jobs.iter().filter(|j| j.state == JobState::Quarantined).count();
    assert_eq!(
        finished + quarantined,
        job_count,
        "every job must settle as finished or quarantined {}",
        replay()
    );
    for job in &jobs {
        match job.state {
            JobState::Finished => {
                assert!(job.result_id.is_some(), "finished {} has no result {}", job.id, replay())
            }
            JobState::Quarantined => {
                assert_eq!(job.attempts, 2, "quarantine fires at max_attempts {}", replay());
                assert!(
                    job.result_id.is_none(),
                    "quarantined {} has a result {}",
                    job.id,
                    replay()
                );
                let failure = job.failure.clone().unwrap_or_default();
                assert!(
                    failure.starts_with("budget_exceeded:"),
                    "quarantine cause is the typed breach: {failure} {}",
                    replay()
                );
                // Terminal means terminal: no manual resurrection...
                assert!(
                    control.reschedule_job(job.id).is_err(),
                    "quarantined job {} was rescheduled {}",
                    job.id,
                    replay()
                );
            }
            other => panic!("job {} in limbo state {:?} {}", job.id, other, replay()),
        }
    }
    // ...and no agent-side resurrection: the queue is permanently empty.
    let probe = ControlClient::new(&env.server.base_url(), &env.admin_token);
    assert!(probe.claim(deployment).unwrap().is_none(), "quarantined job resurfaced {}", replay());
    // Exactly-once on the success side: stored results == finished jobs.
    assert_eq!(control.count_results(), finished, "duplicate or lost uploads {}", replay());
    // Under the default seed the draws produce both outcomes; a custom
    // replay seed may legitimately produce all-finished or all-quarantined.
    if chaos_seed() == 0xBADCAB {
        assert!(quarantined >= 1, "default seed produced no quarantine");
        assert!(finished >= 1, "default seed finished nothing");
    }
}

#[test]
fn zombie_agent_is_fenced_after_lease_loss() {
    let _guard = serial();
    // Short leases + a 500 ms sweeper: a claimed job with no heartbeats is
    // rescheduled in well under two seconds.
    let env = TestEnv::start_with_config(SchedulerConfig {
        heartbeat_timeout_millis: 400,
        max_attempts: 3,
        auto_reschedule: true,
    });
    let (system_id, deployment_id) = env.register_demo_system();
    let (_project, experiment_id) = env
        .create_demo_experiment(&system_id, obj! {"record_count" => 40, "operation_count" => 40});
    env.post(&format!("/api/v1/experiments/{experiment_id}/evaluations"), &obj! {});

    let deployment = Id::parse_base32(&deployment_id).unwrap();
    let zombie = ControlClient::new(&env.server.base_url(), &env.admin_token);
    let job = zombie.claim(deployment).unwrap().expect("a job to claim");
    assert_eq!(job.attempts, 1);

    // The zombie goes silent. The sweeper must take the lease away.
    let start = Instant::now();
    loop {
        let state = env.server.control().get_job(job.id).unwrap();
        if state.state == JobState::Scheduled && state.attempts == 1 {
            break;
        }
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "sweeper never rescheduled the stalled job (state {:?}) {}",
            state.state,
            replay()
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    // A healthy agent picks the job up (attempt 2) and finishes it.
    let healthy = ControlClient::new(&env.server.base_url(), &env.admin_token);
    let reclaimed = healthy.claim(deployment).unwrap().expect("rescheduled job");
    assert_eq!(reclaimed.id, job.id, "different job came back {}", replay());
    assert_eq!(reclaimed.attempts, 2);
    healthy.heartbeat(reclaimed.id, 50, reclaimed.attempts).unwrap();
    let result_id = healthy
        .upload_result(reclaimed.id, reclaimed.attempts, &obj! {"ops" => 40}, b"zip")
        .unwrap();

    // The zombie wakes up and tries to act on its stale lease: every write
    // is fenced with the distinct lease-lost error, not a generic conflict.
    match zombie.heartbeat(job.id, 99, job.attempts) {
        Err(chronos::agent::AgentError::LeaseLost { .. }) => {}
        other => panic!("zombie heartbeat not fenced: {other:?} {}", replay()),
    }
    match zombie.upload_result(job.id, job.attempts, &obj! {"ops" => 40}, b"zombie") {
        Err(chronos::agent::AgentError::LeaseLost { .. }) => {}
        other => panic!("zombie upload not fenced: {other:?} {}", replay()),
    }
    match zombie.fail(job.id, job.attempts, "zombie dying") {
        Err(chronos::agent::AgentError::LeaseLost { .. }) => {}
        other => panic!("zombie fail not fenced: {other:?} {}", replay()),
    }

    // The healthy result is the only one, and it is untouched.
    let control = env.server.control();
    assert_eq!(control.count_results(), 1, "zombie write landed {}", replay());
    let job = control.get_job(job.id).unwrap();
    assert_eq!(job.state, JobState::Finished);
    assert_eq!(job.result_id, Some(result_id));
}

#[test]
fn dropped_response_after_commit_is_deduplicated() {
    let _guard = serial();
    let env = TestEnv::start();
    let (system_id, deployment_id) = env.register_demo_system();
    let (_project, experiment_id) = env
        .create_demo_experiment(&system_id, obj! {"record_count" => 40, "operation_count" => 40});
    env.post(&format!("/api/v1/experiments/{experiment_id}/evaluations"), &obj! {});

    let deployment = Id::parse_base32(&deployment_id).unwrap();
    let client = ControlClient::new(&env.server.base_url(), &env.admin_token);
    let job = client.claim(deployment).unwrap().expect("a job to claim");

    // The server commits the result, then the connection dies before the
    // response leaves. The client's retry carries the same idempotency key,
    // so the second processing must return the already-stored result
    // instead of storing a duplicate.
    fail::arm("http.server.drop_response", Policy::ErrorTimes(1));
    let result_id = client
        .upload_result(job.id, job.attempts, &obj! {"ops" => 40}, b"zip")
        .unwrap_or_else(|e| panic!("retried upload failed: {e} {}", replay()));
    fail::disarm("http.server.drop_response");

    let control = env.server.control();
    assert_eq!(control.count_results(), 1, "duplicate result stored {}", replay());
    let job = control.get_job(job.id).unwrap();
    assert_eq!(job.state, JobState::Finished);
    assert_eq!(job.result_id, Some(result_id), "retry returned a different result {}", replay());

    // Same story for the claim: a lost claim response + retried claim with
    // the same key must not strand a second job in Running.
    fail::arm("http.server.drop_response", Policy::ErrorTimes(1));
    let second = client.claim(deployment).unwrap();
    fail::disarm("http.server.drop_response");
    if let Some(second) = second {
        let running = control
            .list_jobs(second.evaluation_id)
            .unwrap()
            .into_iter()
            .filter(|j| j.state == JobState::Running)
            .count();
        assert_eq!(running, 1, "retried claim left extra jobs running {}", replay());
    }
}

/// A cooperating background client hammering the health endpoint with
/// connection-per-request sockets: the offered load that pushes the bounded
/// server past its admission limits while the agents work. Honors the shed
/// `X-Chronos-Retry-After-Ms` hint (capped so the storm keeps blowing).
fn swarm_client(addr: std::net::SocketAddr, done: &AtomicBool) -> (u64, u64, u64) {
    use std::io::{Read, Write};
    let (mut ok, mut shed, mut errors) = (0u64, 0u64, 0u64);
    while !done.load(Ordering::SeqCst) {
        let outcome = (|| -> Option<u16> {
            let mut stream = std::net::TcpStream::connect(addr).ok()?;
            stream.set_read_timeout(Some(Duration::from_secs(10))).ok()?;
            stream
                .write_all(b"GET /healthz HTTP/1.1\r\nHost: swarm\r\nConnection: close\r\n\r\n")
                .ok()?;
            let mut raw = Vec::new();
            stream.read_to_end(&mut raw).ok()?;
            String::from_utf8_lossy(&raw).split_whitespace().nth(1).and_then(|s| s.parse().ok())
        })();
        match outcome {
            Some(status) if (200..300).contains(&status) => {
                ok += 1;
                std::thread::sleep(Duration::from_millis(2));
            }
            Some(429) | Some(503) => {
                shed += 1;
                std::thread::sleep(Duration::from_millis(10));
            }
            // Dropped responses are expected here: the storm arms
            // `http.server.drop_response` against everyone, swarm included.
            _ => errors += 1,
        }
    }
    (ok, shed, errors)
}

/// The overload storm: a deliberately *undersized* bounded server (five
/// workers, no queue — just enough for the fixture client, two agent
/// connections and their per-job heartbeat connections) takes a fault
/// storm *and* a health-check swarm at the same time. Admission control
/// sheds the excess with typed 429s, the agents retry through it, and at
/// the end a graceful drain completes cleanly with every accepted job
/// finished exactly once. The swarm starts against a server whose every
/// handler slot is held by a write waiting behind a delayed log append, so
/// it is shed whatever the timing; the writes finish before the agents
/// start.
#[test]
fn overload_storm_every_accepted_job_finishes_and_drain_is_clean() {
    let _guard = serial();
    let dir = std::env::temp_dir().join(format!("chronos-overload-storm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let store = chronos::core::store::MetadataStore::open(&dir.join("control.log")).unwrap();
    let mut env = TestEnv::start_with_store(
        store,
        SchedulerConfig { heartbeat_timeout_millis: 1500, max_attempts: 12, auto_reschedule: true },
        chronos::http::Server::new()
            .workers(5)
            .queue_depth(0)
            .retry_after(Duration::from_millis(10)),
    );
    let (system_id, deployment_id) = env.register_demo_system();
    let (_project_id, experiment_id) = env.create_demo_experiment(
        &system_id,
        obj! {
            "engine" => obj! {"sweep" => "all"},
            "record_count" => 60,
            "operation_count" => 120,
        },
    );
    let evaluation =
        env.post(&format!("/api/v1/experiments/{experiment_id}/evaluations"), &obj! {});
    let evaluation_id = evaluation.get("id").and_then(Value::as_str).unwrap().to_string();
    let job_count = expected_jobs(&evaluation);
    assert_eq!(job_count, 2);

    // Fill every handler slot (five workers, no queue) with a write that
    // waits behind a delayed log append, before any fault is armed, so
    // none of them is lost to an injected accept failure.
    let addr = env.server.addr();
    let metrics = env.server.metrics();
    let admitted = metrics.requests.get();
    fail::arm("core.store.wal.append", Policy::Delay(Duration::from_millis(600)));
    let holders: Vec<_> = (0..5)
        .map(|i| {
            let client = chronos::http::Client::new(&env.server.base_url())
                .with_timeout(Duration::from_secs(10));
            client.set_default_header("X-Chronos-Token", &env.admin_token);
            std::thread::spawn(move || {
                let _ = client.post_json("/api/v1/projects", &obj! {"name" => format!("hold-{i}")});
            })
        })
        .collect();
    let full = Instant::now() + Duration::from_secs(5);
    while metrics.requests.get() < admitted + 5 {
        assert!(Instant::now() < full, "holders never filled the server {}", replay());
        std::thread::sleep(Duration::from_millis(5));
    }

    fail::arm("agent.heartbeat", Policy::ErrorProb(0.10));
    fail::arm("http.server.drop_response", Policy::ErrorProb(0.03));
    // Transport-level faults on the server core: the accounting identity
    // (`accepted == completed + shed` at drain) must hold even when accepts
    // die pre-admission and sockets break mid-read/mid-write.
    fail::arm("http.reactor.accept", Policy::ErrorProb(0.01));
    fail::arm("http.reactor.read", Policy::ErrorProb(0.01));
    fail::arm("http.reactor.write", Policy::ErrorProb(0.01));

    let deadline = Instant::now() + Duration::from_secs(90);
    let base_url = env.server.base_url();
    let token = env.admin_token.clone();
    let deployment = Id::parse_base32(&deployment_id).unwrap();
    let done = Arc::new(AtomicBool::new(false));
    let swarm: Vec<_> = (0..2)
        .map(|i| {
            let done = Arc::clone(&done);
            std::thread::Builder::new()
                .name(format!("overload-swarm-{i}"))
                .spawn(move || swarm_client(addr, &done))
                .unwrap()
        })
        .collect();
    // A fixed window in which the full server sheds every swarm request,
    // then the holders let go before the agents need capacity: the first
    // write's append ends its delay, the others append at once.
    std::thread::sleep(Duration::from_millis(300));
    fail::disarm("core.store.wal.append");
    for holder in holders {
        holder.join().expect("holder thread");
    }
    let agents: Vec<_> = (0..2)
        .map(|i| {
            let base_url = base_url.clone();
            let token = token.clone();
            let done = Arc::clone(&done);
            std::thread::Builder::new()
                .name(format!("overload-agent-{i}"))
                .spawn(move || storm_agent(&base_url, &token, deployment, &done, deadline))
                .unwrap()
        })
        .collect();

    // Watch from the control side until every job settled.
    let control = Arc::clone(env.server.control());
    let evaluation = Id::parse_base32(&evaluation_id).unwrap();
    while Instant::now() < deadline {
        let jobs = control.list_jobs(evaluation).unwrap();
        if jobs.len() == job_count
            && jobs.iter().all(|j| j.state == JobState::Finished)
            && control.count_results() == job_count
        {
            break;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    done.store(true, Ordering::SeqCst);
    let completed: u64 = agents.into_iter().map(|h| h.join().unwrap()).sum();
    let (swarm_ok, swarm_shed, _swarm_errors) = swarm
        .into_iter()
        .map(|h| h.join().unwrap())
        .fold((0, 0, 0), |acc, c| (acc.0 + c.0, acc.1 + c.1, acc.2 + c.2));

    fail::reset();

    // Exactly-once under overload: the storm must not have lost or
    // duplicated any accepted job.
    let jobs = control.list_jobs(evaluation).unwrap();
    assert_eq!(jobs.len(), job_count, "jobs vanished {}", replay());
    for job in &jobs {
        assert_eq!(
            job.state,
            JobState::Finished,
            "job {} ended {:?} after {} attempts (agents completed {completed}) {}",
            job.id,
            job.state,
            job.attempts,
            replay()
        );
        assert!(job.result_id.is_some(), "finished job {} has no result {}", job.id, replay());
    }
    assert_eq!(control.count_results(), job_count, "duplicate or lost uploads {}", replay());
    assert!(completed >= 1, "no agent ever completed a job {}", replay());

    // The storm really overloaded admission (the swarm got typed sheds,
    // not hangs or resets), and some health checks still got through.
    assert!(swarm_shed >= 1, "swarm was never shed — server not overloaded {}", replay());
    assert!(swarm_ok >= 1, "no health check ever admitted during the storm {}", replay());
    assert!(metrics.shed_overload.get() >= swarm_shed, "server-side shed accounting {}", replay());

    // Graceful drain after the storm: no in-flight request is dropped, no
    // handler panicked, and teardown completes inside the drain window.
    assert!(env.server.drain(), "drain timed out with requests in flight {}", replay());
    assert!(env.server.is_draining());
    assert_eq!(env.server.pool_panics(), 0, "a handler panicked during the storm {}", replay());
    drop(env);
    let _ = std::fs::remove_dir_all(&dir);
}
