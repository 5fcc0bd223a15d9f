//! Cluster-mode end-to-end tests over real sockets: leader election,
//! follower write refusal with leader hints, term fencing of a deposed
//! leader's late segments, torn shipped tails, bounded-staleness reads —
//! and, under `--features failpoints`, a seeded chaos storm that kills the
//! leader mid-evaluation and still demands every job finish exactly once.
//!
//! Fault draws are deterministic per (seed, site, hit index); a storm
//! failure reproduces with `CHRONOS_FAIL_SEED=<seed> cargo test
//! --features failpoints --test cluster`.

mod common;

use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use chronos::agent::ControlClient;
use chronos::api::{v1, ErrorCode, ErrorEnvelope, WireDecode, WireEncode, TOKEN_HEADER};
use chronos::core::auth::Role;
use chronos::core::cluster::{segment_checksum, ClusterConfig};
use chronos::core::scheduler::SchedulerConfig;
use chronos::core::store::MetadataStore;
use chronos::core::ChronosControl;
use chronos::http::{Client, Server};
use chronos::json::{obj, Value};
use chronos::server::{ChronosServer, CODE_BAD_SEGMENT, CODE_OFFSET_GAP, CODE_STALE_TERM};
use chronos::util::{Id, SystemClock};
use common::TestEnv;

/// Cluster tests share process-global state (bound ports under load and,
/// with `failpoints` on, the fault registry), so they run one at a time.
/// With failpoints compiled in, acquiring the lock also resets and
/// re-seeds the registry for deterministic replay.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let guard = match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    #[cfg(feature = "failpoints")]
    {
        chronos::util::fail::reset();
        chronos::util::fail::set_seed(storm::chaos_seed());
    }
    guard
}

fn default_scheduler() -> SchedulerConfig {
    SchedulerConfig { heartbeat_timeout_millis: 30_000, max_attempts: 3, auto_reschedule: true }
}

/// Starts `n` cluster nodes on port 0, then wires every node's peer list
/// once all listeners are bound (addresses exist only after binding).
fn start_cluster_with(
    n: usize,
    lease: Duration,
    config: impl Fn() -> SchedulerConfig,
) -> Vec<ChronosServer> {
    let servers: Vec<ChronosServer> = (0..n)
        .map(|i| {
            let control = Arc::new(ChronosControl::new(
                MetadataStore::in_memory(),
                Arc::new(SystemClock),
                config(),
            ));
            ChronosServer::start_cluster(
                control,
                "127.0.0.1:0",
                Server::new(),
                ClusterConfig::new(format!("node-{i}")).with_lease(lease),
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
    servers
}

fn wait_for_leader(servers: &[ChronosServer], timeout: Duration) -> usize {
    let deadline = Instant::now() + timeout;
    loop {
        if let Some(i) = servers.iter().position(|s| s.cluster().unwrap().is_leader()) {
            return i;
        }
        assert!(Instant::now() < deadline, "no leader elected within {timeout:?}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Waits until every node's replication feed reaches `offset`.
fn wait_replicated(servers: &[ChronosServer], offset: u64, timeout: Duration) {
    let deadline = Instant::now() + timeout;
    while servers.iter().any(|s| s.control().replication_offset() < offset) {
        assert!(Instant::now() < deadline, "replication never caught up to offset {offset}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Logs in at `base_url` and returns a client with the session header set.
/// Sessions are node-local, so each node a test reads from needs its own.
fn login(base_url: &str, username: &str, password: &str) -> Client {
    let client = Client::new(base_url);
    let response = client
        .post_json(
            "/api/v1/login",
            &v1::LoginRequest { username: username.into(), password: password.into() }.to_value(),
        )
        .expect("login transport");
    assert!(
        response.status.is_success(),
        "login at {base_url} failed: {}",
        String::from_utf8_lossy(&response.body)
    );
    let token = v1::LoginResponse::decode(&response.json_body().unwrap()).unwrap().token;
    client.set_default_header(TOKEN_HEADER, &token);
    client
}

fn post_ok(client: &Client, path: &str, body: &Value) -> Value {
    let response = client.post_json(path, body).expect("transport");
    assert!(
        response.status.is_success(),
        "POST {path} -> {}: {}",
        response.status.0,
        String::from_utf8_lossy(&response.body)
    );
    response.json_body().expect("json body")
}

fn id_of(value: &Value) -> String {
    value.get("id").and_then(Value::as_str).expect("id field").to_string()
}

fn envelope_of(response: &chronos::http::Response) -> ErrorEnvelope {
    ErrorEnvelope::decode(&response.json_body().expect("envelope json")).expect("typed envelope")
}

#[test]
fn followers_refuse_writes_with_a_leader_hint_and_clients_follow_it() {
    let _guard = serial();
    let servers = start_cluster_with(3, Duration::from_millis(300), default_scheduler);
    let leader = wait_for_leader(&servers, Duration::from_secs(10));
    let leader_url = servers[leader].base_url();
    servers[leader].control().create_user("admin", "admin-pw", Role::Admin).unwrap();

    // Set up a system + deployment through the leader's public API.
    let leader_client = login(&leader_url, "admin", "admin-pw");
    let system = post_ok(&leader_client, "/api/v1/systems", &TestEnv::demo_system_definition());
    let system_id = id_of(&system);
    let deployment = post_ok(
        &leader_client,
        &format!("/api/v1/systems/{system_id}/deployments"),
        &obj! {"environment" => "cluster-test", "version" => "0.1.0"},
    );
    let deployment_id = Id::parse_base32(&id_of(&deployment)).unwrap();
    wait_replicated(
        &servers,
        servers[leader].control().replication_offset(),
        Duration::from_secs(5),
    );

    let follower_url = servers[(leader + 1) % servers.len()].base_url();
    let follower_client = login(&follower_url, "admin", "admin-pw");

    // A write against the follower is refused with a typed leader hint.
    let refusal = follower_client
        .post_json("/api/v1/projects", &obj! {"name" => "p", "description" => "d"})
        .unwrap();
    assert_eq!(refusal.status.0, 503);
    let envelope = envelope_of(&refusal);
    assert!(envelope.is_not_leader(), "expected not_leader, got {envelope:?}");
    assert_eq!(envelope.leader_hint(), Some(leader_url.trim_end_matches('/')));
    assert!(refusal.retry_after().is_some(), "not_leader refusals carry a Retry-After hint");

    // Fresh follower reads are served from the replica itself.
    let listing = follower_client.get("/api/v1/systems").unwrap();
    assert_eq!(listing.status.0, 200);
    assert!(String::from_utf8_lossy(&listing.body).contains("minidoc"));

    // The agent client follows the hint transparently: a claim aimed at the
    // follower lands on the leader (who answers 204: nothing scheduled) and
    // the client is re-aimed for subsequent calls.
    let agent = ControlClient::login(&follower_url, "admin", "admin-pw").unwrap();
    assert!(agent.claim(deployment_id).unwrap().is_none());
    assert_eq!(agent.base_url(), leader_url.trim_end_matches('/'));

    for mut server in servers {
        server.shutdown();
    }
}

#[test]
fn fenced_leaders_late_segment_is_refused_with_the_store_byte_identical() {
    let _guard = serial();
    // A lone node with no peers never stands for election: a permanent
    // follower we can ship segments at by hand.
    let mut follower =
        start_cluster_with(1, Duration::from_millis(200), default_scheduler).pop().unwrap();
    let api = Client::new(&follower.base_url());

    // A scratch control plane plays the leader's store: real WAL frames.
    let scratch =
        ChronosControl::new(MetadataStore::in_memory(), Arc::new(SystemClock), default_scheduler());
    scratch.create_user("admin", "admin-pw", Role::Admin).unwrap();
    let first = scratch.read_replication(0, 1 << 20).unwrap();
    assert!(!first.is_empty());

    let ship = |term: u64, start_offset: u64, checksum: u64, frames: Vec<u8>| {
        let request = v1::ReplicateRequest {
            term,
            leader: "http://old-leader:1".into(),
            start_offset,
            checksum,
            frames,
        };
        api.post_json("/api/v1/cluster/replicate", &request.to_value()).expect("transport")
    };
    let assert_code = |response: &chronos::http::Response, code: &str| {
        let envelope = envelope_of(response);
        assert_eq!(
            envelope.code,
            ErrorCode::Named(code.into()),
            "unexpected refusal: {envelope:?}"
        );
    };

    // Term 5 installs and the follower adopts the term.
    let response = ship(5, 0, segment_checksum(&first), first.clone());
    assert_eq!(response.status.0, 200, "{}", String::from_utf8_lossy(&response.body));
    let ack = v1::ReplicateAck::decode(&response.json_body().unwrap()).unwrap();
    assert_eq!((ack.term, ack.offset), (5, first.len() as u64));
    let before = follower.control().read_replication(0, 1 << 20).unwrap();
    assert_eq!(before, first, "install must re-append the exact shipped bytes");

    // The deposed leader (term 4) ships a late segment: refused with
    // `stale_term`, and the follower store is byte-identical afterwards.
    scratch.create_user("zombie", "zombie-pw", Role::Admin).unwrap();
    let delta = scratch.read_replication(first.len() as u64, 1 << 20).unwrap();
    let refusal = ship(4, first.len() as u64, segment_checksum(&delta), delta.clone());
    assert_eq!(refusal.status.0, 409);
    assert_code(&refusal, CODE_STALE_TERM);
    assert_eq!(follower.control().replication_offset(), first.len() as u64);
    assert_eq!(
        follower.control().read_replication(0, 1 << 20).unwrap(),
        before,
        "a fenced segment must not mutate the follower store"
    );

    // A corrupt segment (checksum mismatch) is refused before any install.
    let refusal = ship(6, first.len() as u64, segment_checksum(&delta) ^ 1, delta.clone());
    assert_eq!(refusal.status.0, 400);
    assert_code(&refusal, CODE_BAD_SEGMENT);
    assert_eq!(follower.control().read_replication(0, 1 << 20).unwrap(), before);

    // A segment that does not chain onto the follower's offset is refused.
    let refusal = ship(6, first.len() as u64 + 7, segment_checksum(&delta), delta.clone());
    assert_eq!(refusal.status.0, 409);
    assert_code(&refusal, CODE_OFFSET_GAP);
    assert_eq!(follower.control().read_replication(0, 1 << 20).unwrap(), before);

    // A torn tail (segment truncated mid-frame) installs the complete
    // prefix and acks where shipping must resume — the same recovery rule
    // as the WAL's torn-tail truncation.
    let torn = delta[..delta.len() - 5].to_vec();
    let response = ship(6, first.len() as u64, segment_checksum(&torn), torn.clone());
    assert_eq!(response.status.0, 200, "{}", String::from_utf8_lossy(&response.body));
    let ack = v1::ReplicateAck::decode(&response.json_body().unwrap()).unwrap();
    let applied = (ack.offset - first.len() as u64) as usize;
    assert!(applied < torn.len() || torn.ends_with(b"\n"), "mid-frame bytes must not apply");
    let rest = scratch.read_replication(ack.offset, 1 << 20).unwrap();
    let response = ship(6, ack.offset, segment_checksum(&rest), rest);
    assert_eq!(response.status.0, 200);
    assert_eq!(follower.control().replication_offset(), scratch.replication_offset());
    assert_eq!(
        follower.control().read_replication(0, 1 << 20).unwrap(),
        scratch.read_replication(0, 1 << 20).unwrap(),
        "after catch-up the replica is byte-identical to the leader feed"
    );

    // The replicated frames are live state, not just bytes: the user the
    // "leader" created can log in against the replica.
    login(&follower.base_url(), "zombie", "zombie-pw");
    follower.shutdown();
}

#[test]
fn minority_survivor_goes_stale_and_refuses_reads() {
    let _guard = serial();
    let lease = Duration::from_millis(150);
    let mut servers = start_cluster_with(2, lease, default_scheduler);
    let leader = wait_for_leader(&servers, Duration::from_secs(10));
    servers[leader].control().create_user("admin", "admin-pw", Role::Admin).unwrap();
    wait_replicated(
        &servers,
        servers[leader].control().replication_offset(),
        Duration::from_secs(5),
    );

    let survivor_client = login(&servers[1 - leader].base_url(), "admin", "admin-pw");
    let fresh = survivor_client.get("/api/v1/systems").unwrap();
    assert_eq!(fresh.status.0, 200, "a fresh follower serves reads");

    // The leader dies. One node of two can never reach a majority, so the
    // survivor stands for election, fails, stands again — and must still
    // go stale: standing resets the election timer, not the staleness
    // clock, or a partitioned node would serve its frozen store forever.
    let mut dead = servers.remove(leader);
    dead.shutdown();
    let mut survivor = servers.pop().unwrap();

    let state = Arc::clone(survivor.cluster().unwrap());
    let deadline = Instant::now() + Duration::from_secs(5);
    while !state.is_stale(Instant::now()) {
        assert!(Instant::now() < deadline, "survivor never went stale");
        std::thread::sleep(Duration::from_millis(10));
    }
    let refusal = survivor_client.get("/api/v1/systems").unwrap();
    assert_eq!(refusal.status.0, 503, "stale replica reads must be refused");
    assert!(envelope_of(&refusal).is_not_leader());

    // Readiness agrees, so load balancers stop routing reads here.
    let readyz = survivor_client.get("/readyz").unwrap();
    assert_eq!(readyz.status.0, 503);
    assert!(String::from_utf8_lossy(&readyz.body).contains("\"stale\""));

    // And the survivor did keep standing (term keeps advancing) — it just
    // can never win alone.
    let deadline = Instant::now() + Duration::from_secs(5);
    while state.elections_started() == 0 {
        assert!(Instant::now() < deadline, "survivor never stood for election");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(!state.is_leader(), "one vote of two is not a majority");
    survivor.shutdown();
}

#[cfg(feature = "failpoints")]
mod storm {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    use chronos::agent::{AgentConfig, ChronosAgent, DocstoreClient, EvaluationClient, JobContext};
    use chronos::core::model::JobState;
    use chronos::core::params::{ParamAssignments, ParamDef, ParamType};
    use chronos::core::{AdaptiveConfig, Strategy};
    use chronos::json::arr;
    use chronos::util::fail::{self, Policy};
    use chronos::workload::ResponseSurface;

    pub fn chaos_seed() -> u64 {
        std::env::var("CHRONOS_FAIL_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0xBADCAB)
    }

    fn replay() -> String {
        format!("(replay with CHRONOS_FAIL_SEED={})", fail::seed())
    }

    /// An agent driver that keeps going through injected failures and the
    /// leader's death: claims redirect via `not_leader` hints, a dead node
    /// rotates to the next seed, and the scheduler's fencing machinery has
    /// to absorb everything else.
    fn storm_agent<C: EvaluationClient>(
        client: ControlClient,
        deployment: Id,
        evaluation_client: C,
        done: &AtomicBool,
        deadline: Instant,
    ) -> u64 {
        let mut config = AgentConfig::new(deployment);
        config.heartbeat_interval = Duration::from_millis(100);
        config.poll_interval = Duration::from_millis(25);
        let mut agent = ChronosAgent::new(client, config, evaluation_client);
        let mut completed = 0u64;
        while !done.load(Ordering::SeqCst) && Instant::now() < deadline {
            match agent.run_once() {
                Ok(true) => completed += 1,
                Ok(false) | Err(_) => std::thread::sleep(Duration::from_millis(25)),
            }
        }
        completed
    }

    #[test]
    fn cluster_storm_leader_death_finishes_every_job_exactly_once() {
        let _guard = serial();
        let lease = Duration::from_millis(500);
        let mut servers = start_cluster_with(3, lease, || SchedulerConfig {
            heartbeat_timeout_millis: 2500,
            max_attempts: 12,
            auto_reschedule: true,
        });
        let leader = wait_for_leader(&servers, Duration::from_secs(10));
        let leader_url = servers[leader].base_url();
        servers[leader].control().create_user("admin", "admin-pw", Role::Admin).unwrap();

        // Both engines × {1, 2} threads — 4 jobs, workloads small enough
        // that a job finishes well inside one heartbeat timeout.
        let leader_client = login(&leader_url, "admin", "admin-pw");
        let system = post_ok(&leader_client, "/api/v1/systems", &TestEnv::demo_system_definition());
        let system_id = id_of(&system);
        let deployment = post_ok(
            &leader_client,
            &format!("/api/v1/systems/{system_id}/deployments"),
            &obj! {"environment" => "cluster-storm", "version" => "0.1.0"},
        );
        let deployment_id = Id::parse_base32(&id_of(&deployment)).unwrap();
        let project = post_ok(
            &leader_client,
            "/api/v1/projects",
            &obj! {"name" => "storm", "description" => "cluster chaos"},
        );
        let experiment = post_ok(
            &leader_client,
            &format!("/api/v1/projects/{}/experiments", id_of(&project)),
            &obj! {
                "name" => "failover sweep",
                "system_id" => system_id,
                "parameters" => obj! {
                    "engine" => obj! {"sweep" => "all"},
                    "threads" => obj! {"sweep" => arr![1, 2]},
                    "record_count" => 60,
                    "operation_count" => 120,
                },
            },
        );
        let evaluation = post_ok(
            &leader_client,
            &format!("/api/v1/experiments/{}/evaluations", id_of(&experiment)),
            &obj! {},
        );
        let evaluation_id = Id::parse_base32(&id_of(&evaluation)).unwrap();
        // Lazy planning: the space is known up front, jobs appear on claim.
        let job_count = evaluation.get("total_points").and_then(Value::as_u64).unwrap() as usize;
        assert_eq!(job_count, 4);
        assert!(evaluation.get("job_ids").and_then(Value::as_array).unwrap().is_empty());
        wait_replicated(
            &servers,
            servers[leader].control().replication_offset(),
            Duration::from_secs(5),
        );

        // The storm: the agent protocol misbehaves AND the cluster
        // transport loses replication sends (heartbeats) and vote
        // requests, all from one seeded schedule.
        fail::arm("agent.claim", Policy::ErrorProb(0.05));
        fail::arm("agent.heartbeat", Policy::ErrorProb(0.10));
        fail::arm("agent.upload", Policy::ErrorProb(0.10));
        fail::arm("cluster.replicate.send", Policy::ErrorProb(0.10));
        fail::arm("cluster.vote.send", Policy::ErrorProb(0.05));

        let urls: Vec<String> = servers.iter().map(ChronosServer::base_url).collect();
        let deadline = Instant::now() + Duration::from_secs(90);
        let done = Arc::new(AtomicBool::new(false));

        // A read probe hammers one follower for the whole storm: every
        // read it serves must be within the staleness bound (with one
        // measurement grace), every refusal must be a typed 503.
        let probe_idx = (leader + 1) % servers.len();
        let probe_state = Arc::clone(servers[probe_idx].cluster().unwrap());
        let probe_client = login(&servers[probe_idx].base_url(), "admin", "admin-pw");
        let bound = probe_state.staleness_bound();
        let probe = {
            let done = Arc::clone(&done);
            std::thread::Builder::new()
                .name("cluster-read-probe".into())
                .spawn(move || {
                    let (mut served, mut refused) = (0u64, 0u64);
                    while !done.load(Ordering::SeqCst) {
                        let Ok(response) = probe_client.get("/api/v1/systems") else {
                            std::thread::sleep(Duration::from_millis(20));
                            continue;
                        };
                        let lag = probe_state.lag(Instant::now());
                        if response.status.0 == 200 {
                            served += 1;
                            assert!(
                                probe_state.is_leader()
                                    || lag <= bound + Duration::from_millis(250),
                                "follower served a read at lag {lag:?}, beyond the bound {bound:?}"
                            );
                        } else {
                            refused += 1;
                            assert_eq!(response.status.0, 503, "refusals must be typed 503s");
                        }
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    (served, refused)
                })
                .unwrap()
        };

        // Two agents, each starting at a *follower*: their writes discover
        // the leader through typed hints; the seed list lets them escape a
        // dead node entirely.
        let agents: Vec<_> = (0..2)
            .map(|i| {
                let start = urls[(leader + 1 + i) % urls.len()].clone();
                let urls = urls.clone();
                let done = Arc::clone(&done);
                std::thread::Builder::new()
                    .name(format!("cluster-agent-{i}"))
                    .spawn(move || {
                        let client = ControlClient::login(&start, "admin", "admin-pw")
                            .expect("agent login")
                            .with_seed_nodes(&urls);
                        storm_agent(client, deployment_id, DocstoreClient::new(), &done, deadline)
                    })
                    .unwrap()
            })
            .collect();

        // Phase 1: let the evaluation get under way under the original
        // leader — at least one job must finish before the kill.
        let old_control = Arc::clone(servers[leader].control());
        let phase_deadline = Instant::now() + Duration::from_secs(45);
        loop {
            let finished = old_control
                .list_jobs(evaluation_id)
                .unwrap()
                .iter()
                .filter(|j| j.state == JobState::Finished)
                .count();
            if finished >= 1 {
                break;
            }
            assert!(
                Instant::now() < phase_deadline,
                "no job finished before the kill {}",
                replay()
            );
            std::thread::sleep(Duration::from_millis(50));
        }

        // Kill the leader mid-evaluation.
        let mut dead = servers.remove(leader);
        dead.shutdown();
        let killed_at = Instant::now();

        // Failover: a survivor must win within the lease budget. A clean
        // round is one lease to notice plus under one more of jitter, but
        // the storm also eats vote requests and heartbeats, and a round
        // can die to an early candidacy (the voter's own lease has not
        // expired yet) or a split — each failure costs roughly another
        // lease, so budget several rounds. The *tight* two-lease bound is
        // E14's, measured without the storm.
        let budget = lease * 12;
        let new_leader = loop {
            if let Some(i) = servers.iter().position(|s| s.cluster().unwrap().is_leader()) {
                break i;
            }
            assert!(
                Instant::now() < killed_at + budget,
                "no new leader within {budget:?} of the kill {}",
                replay()
            );
            std::thread::sleep(Duration::from_millis(10));
        };
        let failover = killed_at.elapsed();

        // Phase 2: the evaluation must finish on the new leader.
        let control = Arc::clone(servers[new_leader].control());
        while Instant::now() < deadline {
            let jobs = control.list_jobs(evaluation_id).unwrap();
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
        let (served, refused) = probe.join().expect("read probe panicked");
        fail::reset();

        // Exactly once, across a leader death: every job finished, and the
        // surviving ledger holds exactly one result per job — reclaims,
        // re-executions of unreplicated work, retried uploads and dropped
        // responses must all have deduplicated or fenced.
        let jobs = control.list_jobs(evaluation_id).unwrap();
        assert_eq!(jobs.len(), job_count, "jobs vanished {}", replay());
        for job in &jobs {
            assert_eq!(
                job.state,
                JobState::Finished,
                "job {} ended {:?} after {} attempts (failover {failover:?}, agents \
                 completed {completed}) {}",
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
            "stored results != jobs: duplicate or lost results across the failover {}",
            replay()
        );
        assert!(completed >= 1, "no agent ever completed a job {}", replay());
        assert!(served >= 1, "the read probe never got a single read through {}", replay());
        let _ = refused; // refusals are legal at any count (failover window)

        for mut server in servers {
            server.shutdown();
        }
    }

    /// A deterministic evaluation client over the seeded response surface:
    /// the measured metric is a pure function of the job's `(x, y)`
    /// coordinates, so re-executions after dropped uploads, lease reclaims,
    /// or a leader failover always score identically.
    struct SurfaceClient {
        surface: ResponseSurface,
        axis: i64,
    }

    impl EvaluationClient for SurfaceClient {
        fn name(&self) -> &str {
            "surface-probe"
        }

        fn set_up(&mut self, _ctx: &JobContext) -> Result<(), String> {
            Ok(())
        }

        fn execute(&mut self, ctx: &JobContext) -> Result<Value, String> {
            let x = ctx.param_i64("x").ok_or("missing x")?;
            let y = ctx.param_i64("y").ok_or("missing y")?;
            let d = (self.axis - 1) as f64;
            Ok(self.surface.result_document(&[x as f64 / d, y as f64 / d]))
        }
    }

    #[test]
    fn adaptive_storm_leader_death_replays_identical_pruning_decisions() {
        let _guard = serial();
        // A 6×6 integer grid over the seeded surface; successive halving
        // with initial=8, eta=2 runs rungs of 8, 4, 2 and 1 jobs (15 of 36
        // points) and records three pruning decisions.
        let axis: i64 = 6;
        let surface_seed = 9u64;
        let strategy_seed = 7u64;
        let expected_jobs = 15usize;
        let surface = ResponseSurface::new(surface_seed, 2);

        let lease = Duration::from_millis(500);
        let mut servers = start_cluster_with(3, lease, || SchedulerConfig {
            heartbeat_timeout_millis: 2500,
            max_attempts: 12,
            auto_reschedule: true,
        });
        let leader = wait_for_leader(&servers, Duration::from_secs(10));
        let leader_url = servers[leader].base_url();
        servers[leader].control().create_user("admin", "admin-pw", Role::Admin).unwrap();
        let leader_client = login(&leader_url, "admin", "admin-pw");

        let system = post_ok(
            &leader_client,
            "/api/v1/systems",
            &obj! {
                "name" => "surface-sut",
                "parameters" => arr![
                    obj! {"name" => "x", "type" => "interval", "min" => 0,
                          "max" => axis - 1, "step" => 1, "default" => 0},
                    obj! {"name" => "y", "type" => "interval", "min" => 0,
                          "max" => axis - 1, "step" => 1, "default" => 0},
                ],
                "charts" => arr![],
            },
        );
        let system_id = id_of(&system);
        let deployment = post_ok(
            &leader_client,
            &format!("/api/v1/systems/{system_id}/deployments"),
            &obj! {"environment" => "adaptive-storm", "version" => "0.1.0"},
        );
        let deployment_id = Id::parse_base32(&id_of(&deployment)).unwrap();
        let project = post_ok(
            &leader_client,
            "/api/v1/projects",
            &obj! {"name" => "adaptive-storm", "description" => "failover pruning"},
        );
        let experiment = post_ok(
            &leader_client,
            &format!("/api/v1/projects/{}/experiments", id_of(&project)),
            &obj! {
                "name" => "adaptive failover sweep",
                "system_id" => system_id,
                "parameters" => obj! {
                    "x" => obj! {"sweep" => "all"},
                    "y" => obj! {"sweep" => "all"},
                },
                "strategy" => obj! {
                    "kind" => "adaptive", "seed" => strategy_seed, "initial" => 8,
                    "eta" => 2, "metric" => "/throughput_ops_per_sec", "maximize" => true,
                },
            },
        );
        let evaluation = post_ok(
            &leader_client,
            &format!("/api/v1/experiments/{}/evaluations", id_of(&experiment)),
            &obj! {},
        );
        let evaluation_id = Id::parse_base32(&id_of(&evaluation)).unwrap();
        assert_eq!(evaluation.get("total_points").and_then(Value::as_u64), Some(36));
        assert!(evaluation.get("job_ids").and_then(Value::as_array).unwrap().is_empty());
        wait_replicated(
            &servers,
            servers[leader].control().replication_offset(),
            Duration::from_secs(5),
        );

        // The same seeded storm as the exactly-once test: flaky agent
        // protocol, lossy replication and vote transport.
        fail::arm("agent.claim", Policy::ErrorProb(0.05));
        fail::arm("agent.heartbeat", Policy::ErrorProb(0.10));
        fail::arm("agent.upload", Policy::ErrorProb(0.10));
        fail::arm("cluster.replicate.send", Policy::ErrorProb(0.10));
        fail::arm("cluster.vote.send", Policy::ErrorProb(0.05));

        let urls: Vec<String> = servers.iter().map(ChronosServer::base_url).collect();
        let deadline = Instant::now() + Duration::from_secs(120);
        let done = Arc::new(AtomicBool::new(false));
        let agents: Vec<_> = (0..2)
            .map(|i| {
                let start = urls[(leader + 1 + i) % urls.len()].clone();
                let urls = urls.clone();
                let done = Arc::clone(&done);
                let client = SurfaceClient { surface: ResponseSurface::new(surface_seed, 2), axis };
                std::thread::Builder::new()
                    .name(format!("adaptive-agent-{i}"))
                    .spawn(move || {
                        let control_client = ControlClient::login(&start, "admin", "admin-pw")
                            .expect("agent login")
                            .with_seed_nodes(&urls);
                        storm_agent(control_client, deployment_id, client, &done, deadline)
                    })
                    .unwrap()
            })
            .collect();

        // Phase 1: the evaluation must be genuinely mid-flight — at least
        // one pruning decision recorded — before the leader dies.
        let old_control = Arc::clone(servers[leader].control());
        let phase_deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let decided = old_control
                .get_evaluation(evaluation_id)
                .unwrap()
                .source
                .and_then(|s| s.frontier)
                .map_or(0, |f| f.decisions.len());
            if decided >= 1 {
                break;
            }
            assert!(
                Instant::now() < phase_deadline,
                "no pruning decision before the kill {}",
                replay()
            );
            std::thread::sleep(Duration::from_millis(50));
        }

        let mut dead = servers.remove(leader);
        dead.shutdown();
        let killed_at = Instant::now();
        let budget = lease * 12;
        let new_leader = loop {
            if let Some(i) = servers.iter().position(|s| s.cluster().unwrap().is_leader()) {
                break i;
            }
            assert!(
                Instant::now() < killed_at + budget,
                "no new leader within {budget:?} of the kill {}",
                replay()
            );
            std::thread::sleep(Duration::from_millis(10));
        };

        // Phase 2: the adaptive evaluation must settle on the new leader —
        // every remaining rung issued, scored and pruned down to one
        // survivor, with the unsampled space written off.
        let control = Arc::clone(servers[new_leader].control());
        while Instant::now() < deadline {
            let status = control.evaluation_status(evaluation_id).unwrap();
            if status.is_settled() && status.remaining == Some(0) {
                break;
            }
            std::thread::sleep(Duration::from_millis(100));
        }
        done.store(true, Ordering::SeqCst);
        let completed: u64 = agents.into_iter().map(|h| h.join().unwrap()).sum();
        fail::reset();

        let status = control.evaluation_status(evaluation_id).unwrap();
        assert!(
            status.is_settled() && status.remaining == Some(0),
            "adaptive evaluation never settled after the failover: {status:?} {}",
            replay()
        );
        let frontier = control
            .get_evaluation(evaluation_id)
            .unwrap()
            .source
            .and_then(|s| s.frontier)
            .expect("adaptive evaluation keeps its frontier");
        assert_eq!(frontier.candidates.len(), 1, "exactly one survivor {}", replay());

        // Ledger: one job per issued (rung, candidate) slot, every one
        // finished with exactly one stored result — reclaims and retried
        // uploads across the failover must have deduplicated.
        let jobs = control.list_jobs(evaluation_id).unwrap();
        assert_eq!(jobs.len(), expected_jobs, "issued jobs != rung budget {}", replay());
        for job in &jobs {
            assert_eq!(
                job.state,
                JobState::Finished,
                "job {} ended {:?} after {} attempts {}",
                job.id,
                job.state,
                job.attempts,
                replay()
            );
            assert!(job.result_id.is_some(), "finished job {} has no result {}", job.id, replay());
        }
        assert_eq!(control.count_results(), expected_jobs, "ledger imbalance {}", replay());
        assert!(completed >= 1, "no agent ever completed a job {}", replay());

        // The heart of the property: the decision log assembled across a
        // leader death is identical to a fresh single-node replay of the
        // same seed against the same surface — pruning is a pure function
        // of (seed, scores), never of timing, job ids or which node ruled.
        let replayed = ChronosControl::new(
            MetadataStore::in_memory(),
            Arc::new(SystemClock),
            default_scheduler(),
        );
        let owner = replayed.create_user("replay", "pw", Role::Admin).unwrap();
        let system = replayed
            .register_system(
                "surface-sut",
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
        let replay_deployment = replayed.create_deployment(system.id, "replay", "1").unwrap();
        let replay_project = replayed.create_project("replay", "", owner.id).unwrap();
        let replay_experiment = replayed
            .create_experiment_with_options(
                replay_project.id,
                system.id,
                "adaptive failover sweep",
                "",
                ParamAssignments::new().sweep_all("x").sweep_all("y"),
                Strategy::Adaptive(AdaptiveConfig {
                    seed: strategy_seed,
                    initial: Some(8),
                    eta: 2,
                    metric: "/throughput_ops_per_sec".into(),
                    maximize: true,
                }),
                None,
            )
            .unwrap();
        let replay_evaluation = replayed.create_evaluation(replay_experiment.id).unwrap();
        while let Some(job) = replayed.claim_next_job(replay_deployment.id, None).unwrap() {
            let x = job.parameters.get("x").and_then(Value::as_i64).unwrap();
            let y = job.parameters.get("y").and_then(Value::as_i64).unwrap();
            let d = (axis - 1) as f64;
            replayed
                .finish_job(
                    job.id,
                    surface.result_document(&[x as f64 / d, y as f64 / d]),
                    vec![],
                    Some(job.attempts),
                    None,
                )
                .unwrap();
        }
        let replay_frontier = replayed
            .get_evaluation(replay_evaluation.id)
            .unwrap()
            .source
            .and_then(|s| s.frontier)
            .unwrap();
        assert_eq!(
            frontier.decisions,
            replay_frontier.decisions,
            "pruning decisions diverged across the leader failover {}",
            replay()
        );
        assert_eq!(
            frontier.candidates,
            replay_frontier.candidates,
            "different survivor across the leader failover {}",
            replay()
        );

        for mut server in servers {
            server.shutdown();
        }
    }

    #[test]
    fn torn_shipped_segment_installs_prefix_and_is_reshipped() {
        let _guard = serial();
        let lease = Duration::from_millis(200);
        let servers = start_cluster_with(2, lease, default_scheduler);
        let leader = wait_for_leader(&servers, Duration::from_secs(10));
        wait_replicated(
            &servers,
            servers[leader].control().replication_offset(),
            Duration::from_secs(5),
        );

        // The next *data* segment tears after 20 bytes (torn policies are
        // one-shot, modelling a crash mid-install; heartbeats don't spend
        // it). The follower applies the complete frame prefix — none, for
        // a 20-byte keep — and acks short, so the leader re-ships the
        // segment from the acked offset and the replica self-heals.
        fail::arm("cluster.install.torn", Policy::Torn { keep: 20 });
        servers[leader].control().create_user("torn-user", "torn-pw", Role::Admin).unwrap();
        let target = servers[leader].control().replication_offset();
        let follower = 1 - leader;
        let deadline = Instant::now() + Duration::from_secs(5);
        while fail::hits("cluster.install.torn") == 0 {
            assert!(Instant::now() < deadline, "the torn failpoint never fired");
            std::thread::sleep(Duration::from_millis(10));
        }
        wait_replicated(&servers, target, Duration::from_secs(5));
        assert_eq!(
            servers[follower].control().read_replication(0, 1 << 20).unwrap(),
            servers[leader].control().read_replication(0, 1 << 20).unwrap(),
            "after the re-ship the replica feed is byte-identical: the torn install \
             neither lost nor duplicated frames"
        );
        // State-level proof the torn frame applied exactly once in the end.
        login(&servers[follower].base_url(), "torn-user", "torn-pw");
        for mut server in servers {
            server.shutdown();
        }
    }
}
