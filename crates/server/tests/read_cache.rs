//! The response cache is transparent: whatever a long-lived router (warm
//! cache) answers, a router built a moment ago over the same control (empty
//! cache) answers byte for byte — after any sequence of lifecycle
//! transitions, on a leader and on a follower fed by replication, and with
//! a writer racing the readers. Plus the `ETag` / `If-None-Match` contract
//! over a real server.
//!
//! The routes enumerated in [`cached_paths`] are the table in DESIGN.md
//! § "Read path: versions and the response cache".

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use chronos_api::TOKEN_HEADER;
use chronos_core::auth::Role;
use chronos_core::params::ParamAssignments;
use chronos_core::scheduler::SchedulerConfig;
use chronos_core::store::MetadataStore;
use chronos_core::ChronosControl;
use chronos_http::{Client, Method, Request, Response, Router, Status};
use chronos_json::{arr, obj, Value};
use chronos_server::{build_router, ChronosServer};
use chronos_util::{Id, MockClock, SystemClock};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn system_definition() -> Value {
    obj! {
        "name" => "minidoc",
        "parameters" => arr![
            obj! {
                "name" => "engine", "type" => "checkbox",
                "options" => arr!["wiredtiger", "mmapv1"], "default" => "wiredtiger",
            },
            obj! {
                "name" => "threads", "type" => "interval",
                "min" => 1, "max" => 64, "step" => 1, "default" => 1,
            },
        ],
        "charts" => arr![obj! {
            "kind" => "line", "title" => "Throughput", "x_param" => "threads",
            "series_param" => "engine", "value_path" => "/throughput_ops_per_sec",
            "y_label" => "ops/s",
        }],
    }
}

fn control_with(clock: Arc<dyn chronos_util::Clock>, auto_reschedule: bool) -> Arc<ChronosControl> {
    let config =
        SchedulerConfig { heartbeat_timeout_millis: 10_000, max_attempts: 2, auto_reschedule };
    Arc::new(ChronosControl::new(MetadataStore::in_memory(), clock, config))
}

/// Registers the system, a deployment, a user and `experiments` sweeps of
/// `threads` points each; returns `(deployment, experiment ids)`.
fn seed_graph(control: &ChronosControl, experiments: usize, threads: i64) -> (Id, Vec<Id>) {
    let system = control.register_system_from_definition(&system_definition()).unwrap();
    let deployment = control.create_deployment(system.id, "node", "1.0").unwrap();
    let admin = control.create_user("admin", "pw", Role::Admin).unwrap();
    let project = control.create_project("p", "", admin.id).unwrap();
    let experiments = (0..experiments)
        .map(|i| {
            let sweep = ParamAssignments::new()
                .sweep_all("engine")
                .sweep("threads", (1..=threads).map(Value::from).collect());
            control
                .create_experiment(project.id, system.id, &format!("e{i}"), "", sweep)
                .unwrap()
                .id
        })
        .collect();
    (deployment.id, experiments)
}

fn get(router: &Router, token: &str, path: &str) -> Response {
    let mut request = Request::new(Method::Get, path);
    request.headers.set(TOKEN_HEADER, token);
    router.dispatch(&request)
}

/// Every cached route of one evaluation, with an error (never cached) and
/// a second chart format among them.
fn evaluation_paths(evaluation: Id) -> Vec<String> {
    let base = format!("/api/v1/evaluations/{}", evaluation.to_base32());
    ["", "/jobs", "/summary", "/summary.csv", "/charts/0.svg", "/charts/0.txt", "/charts/9.svg"]
        .iter()
        .map(|suffix| format!("{base}{suffix}"))
        .collect()
}

/// Every cached route there is: the evaluation-scoped ones of each
/// evaluation, and the store-scoped ones (with a query variant each, since
/// the query is part of the key).
fn cached_paths(evaluations: &[Id], experiments: &[Id]) -> Vec<String> {
    let mut paths: Vec<String> = evaluations.iter().flat_map(|e| evaluation_paths(*e)).collect();
    paths.push("/api/v1/stats".into());
    for experiment in experiments {
        let base = format!("/api/v1/experiments/{}", experiment.to_base32());
        paths.push(format!("{base}/trend"));
        paths.push(format!("{base}/trend?threshold=0.5"));
        paths.push(format!("{base}/regressions"));
        paths.push(format!("{base}/regressions?seed=7&min_segment=2"));
    }
    paths
}

/// Fetches every path through the long-lived router and through one built
/// just now; status, content type and body must agree byte for byte.
fn assert_transparent(
    node: &str,
    control: &Arc<ChronosControl>,
    warm: &Router,
    token: &str,
    paths: &[String],
    context: &dyn Fn() -> String,
) {
    let cold = build_router(Arc::clone(control));
    for path in paths {
        let (held, fresh) = (get(warm, token, path), get(&cold, token, path));
        let shape = |r: &Response| (r.status, r.headers.get("Content-Type").map(str::to_string));
        assert_eq!(shape(&held), shape(&fresh), "{node} {path} after {}", context());
        assert!(
            held.body == fresh.body,
            "{node} {path} after {}:\n cached {}\n  fresh {}",
            context(),
            String::from_utf8_lossy(&held.body),
            String::from_utf8_lossy(&fresh.body)
        );
        assert_eq!(held.headers.get("ETag").is_some(), held.status == Status::OK, "{path}");
    }
}

/// The three read-cache counters off the `/ui` overview page.
fn ui_cache_counters(router: &Router, token: &str) -> Vec<u64> {
    let page = get(router, token, &format!("/ui?token={token}"));
    let html = String::from_utf8(page.body).unwrap();
    let row = html.split("not modified (304)</th></tr>").nth(1).expect("read cache table");
    let row = row.split("</tr>").next().unwrap();
    row.split("<td>").skip(1).map(|cell| cell.split('<').next().unwrap().parse().unwrap()).collect()
}

fn differential(seed: u64, auto_reschedule: bool) {
    let clock = MockClock::new(1_000_000);
    let leader = control_with(Arc::new(clock.clone()), auto_reschedule);
    let follower = control_with(Arc::new(clock.clone()), auto_reschedule);
    let (deployment, experiments) = seed_graph(&leader, 2, 2);
    let mut evaluations = vec![
        leader.create_evaluation(experiments[0]).unwrap().id,
        leader.create_evaluation(experiments[0]).unwrap().id,
        leader.create_evaluation(experiments[1]).unwrap().id,
    ];
    let replicate = || {
        let segment = leader.read_replication(follower.replication_offset(), usize::MAX).unwrap();
        follower.install_replication(&segment).unwrap();
    };
    replicate();
    let leader_router = build_router(Arc::clone(&leader));
    let follower_router = build_router(Arc::clone(&follower));
    let leader_token = leader.login("admin", "pw").unwrap();
    let follower_token = follower.login("admin", "pw").unwrap();

    let mut rng = StdRng::seed_from_u64(seed);
    let mut jobs: Vec<Id> = Vec::new();
    let mut log: Vec<String> = Vec::new();
    while log.len() < 520 {
        // Rejected transitions (a finish on an aborted job, a reschedule of
        // a running one) are steps too: they must change no body.
        let job = (!jobs.is_empty()).then(|| jobs[rng.gen_range(0..jobs.len())]);
        let done = match (rng.gen_range(0..14u32), job) {
            (0..=2, _) => {
                let claimed = leader.claim_next_job(deployment, None).unwrap();
                jobs.extend(claimed.iter().map(|j| j.id));
                format!("claim -> {:?}", claimed.map(|j| j.id))
            }
            (3, Some(job)) => {
                format!("heartbeat {:?}", leader.heartbeat(job, Some(50), None).is_ok())
            }
            (4, Some(job)) => format!("log {:?}", leader.append_log(job, "line").is_ok()),
            (5..=6, Some(job)) => {
                let data = obj! {
                    "throughput_ops_per_sec" => rng.gen_range(1_000..9_000u64) as f64 / 10.0,
                    "total_ops" => rng.gen_range(1..1000u64),
                };
                format!("finish {:?}", leader.finish_job(job, data, vec![1, 2], None, None).is_ok())
            }
            (7, Some(job)) => {
                format!("fail {:?}", leader.fail_job(job, "boom", None).map(|j| j.state))
            }
            (8, Some(job)) => format!("abort {:?}", leader.abort_job(job).is_ok()),
            (9, Some(job)) => format!("reschedule {:?}", leader.reschedule_job(job).is_ok()),
            (10, _) if evaluations.len() < 5 => {
                let experiment = experiments[rng.gen_range(0..experiments.len())];
                evaluations.push(leader.create_evaluation(experiment).unwrap().id);
                "create_evaluation".to_string()
            }
            (11, _) => {
                clock.advance_millis(rng.gen_range(1_000..9_000u64));
                format!("sweep -> {:?}", leader.check_timeouts().unwrap().len())
            }
            (12..=13, _) => {
                replicate();
                "replicate".to_string()
            }
            _ => continue,
        };
        log.push(format!("#{} {done}", log.len()));
        let context = || log[log.len().saturating_sub(12)..].join("; ");
        let paths = cached_paths(&evaluations, &experiments);
        assert_transparent("leader", &leader, &leader_router, &leader_token, &paths, &context);
        assert_transparent(
            "follower",
            &follower,
            &follower_router,
            &follower_token,
            &paths,
            &context,
        );
    }
    // The comparison above is vacuous unless the long-lived routers hit.
    for (router, token) in [(&leader_router, &leader_token), (&follower_router, &follower_token)] {
        let counters = ui_cache_counters(router, token);
        assert!(counters[0] > counters[1], "hits, misses, 304s: {counters:?}");
    }
    replicate();
    let summary = |control: &ChronosControl, evaluation: Id| {
        chronos_core::analysis::summary_table(control, evaluation).unwrap()
    };
    for evaluation in &evaluations {
        assert_eq!(summary(&follower, *evaluation), summary(&leader, *evaluation));
    }
}

#[test]
fn cached_routes_equal_a_fresh_router_seed_1() {
    differential(1, true);
}

#[test]
fn cached_routes_equal_a_fresh_router_seed_20260926() {
    differential(20_260_926, true);
}

/// Without automatic rescheduling failed jobs rest in `Failed`, so this
/// seed is the one whose manual reschedules succeed.
#[test]
fn cached_routes_equal_a_fresh_router_seed_7_manual_reschedule() {
    differential(7, false);
}

/// A writer finishes jobs while readers hammer the summary and the detail
/// route through the long-lived router. Whenever the writer is between two
/// writes the cache must agree with a fresh router. This is the test that
/// fails when `finish_job`'s last version bump comes before its analytics
/// ingest: a reader then caches a summary without the new row under the
/// evaluation's final version.
#[test]
fn readers_racing_a_writer_never_leave_a_stale_entry() {
    const JOBS: i64 = 120;
    let control = control_with(Arc::new(SystemClock), true);
    let (deployment, experiments) = seed_graph(&control, 1, JOBS / 2);
    let evaluation = control.create_evaluation(experiments[0]).unwrap().id;
    let token = control.login("admin", "pw").unwrap();
    let warm = build_router(Arc::clone(&control));
    let base = format!("/api/v1/evaluations/{}", evaluation.to_base32());
    let paths = [format!("{base}/summary"), base.clone(), format!("{base}/summary.csv")];
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                while !stop.load(Ordering::SeqCst) {
                    for path in &paths {
                        assert_eq!(get(&warm, &token, path).status, Status::OK);
                    }
                }
            });
        }
        let writer = scope.spawn(|| {
            let mut finished = 0;
            while let Some(job) = control.claim_next_job(deployment, None).unwrap() {
                let data = obj! {"throughput_ops_per_sec" => 100.0 + finished as f64};
                control.finish_job(job.id, data, vec![], Some(job.attempts), None).unwrap();
                finished += 1;
                let context = || format!("{finished} finished jobs, readers running");
                assert_transparent("leader", &control, &warm, &token, &paths, &context);
            }
            finished
        });
        let finished = writer.join();
        stop.store(true, Ordering::SeqCst);
        assert_eq!(finished.expect("writer panicked"), JOBS);
    });
    let context = || "the writer joined".to_string();
    assert_transparent("leader", &control, &warm, &token, &paths, &context);
    let rows = get(&warm, &token, &paths[0]).json_body().unwrap();
    assert_eq!(rows.get("rows").and_then(Value::as_array).map(Vec::len), Some(JOBS as usize));
}

#[test]
fn etags_validate_until_the_evaluation_is_written_and_never_across_a_restart() {
    let dir = std::env::temp_dir().join(format!("chronos-etag-{}", Id::generate().to_base32()));
    let log_path = dir.join("chronos-control.log");
    let open = || {
        let store = MetadataStore::open(&log_path).unwrap();
        Arc::new(ChronosControl::new(store, Arc::new(SystemClock), SchedulerConfig::default()))
    };
    let serve = |control: &Arc<ChronosControl>| {
        let server = ChronosServer::start(Arc::clone(control), "127.0.0.1:0").unwrap();
        let token = control.login("admin", "pw").unwrap();
        (Client::new(&server.base_url()), token, server)
    };
    let fetch = |http: &Client, token: Option<&str>, path: &str, if_none_match: Option<&str>| {
        let mut request = Request::new(Method::Get, path);
        if let Some(token) = token {
            request.headers.set(TOKEN_HEADER, token);
        }
        if let Some(tag) = if_none_match {
            request.headers.set("If-None-Match", tag);
        }
        http.send(request).unwrap()
    };
    let tag_of = |response: &Response| response.headers.get("ETag").unwrap().to_string();

    let control = open();
    let (deployment, experiments) = seed_graph(&control, 1, 2);
    let evaluation = control.create_evaluation(experiments[0]).unwrap().id;
    let job = control.claim_next_job(deployment, None).unwrap().unwrap();
    let (http, token, mut server) = serve(&control);
    let metrics = server.metrics();
    let summary = format!("/api/v1/evaluations/{}/summary", evaluation.to_base32());

    // 200 + tag, then 304 with no body on replay — and a hit without one.
    let first = fetch(&http, Some(&token), &summary, None);
    assert_eq!(first.status, Status::OK);
    let tag = tag_of(&first);
    assert!(tag.starts_with('"') && tag.ends_with('"') && !tag.starts_with("W/"), "strong: {tag}");
    let replay = fetch(&http, Some(&token), &summary, Some(&tag));
    assert_eq!((replay.status, replay.body.len()), (Status::NOT_MODIFIED, 0));
    assert_eq!(tag_of(&replay), tag);
    let listed = fetch(&http, Some(&token), &summary, Some(&format!("\"other\", {tag}")));
    assert_eq!(listed.status, Status::NOT_MODIFIED, "a list naming the tag validates");
    let again = fetch(&http, Some(&token), &summary, None);
    assert_eq!((again.status, &again.body, tag_of(&again)), (Status::OK, &first.body, tag.clone()));
    assert_eq!(
        (
            metrics.read_cache_misses.get(),
            metrics.read_cache_hits.get(),
            metrics.not_modified.get()
        ),
        (1, 1, 2)
    );
    // Without a token the answer is 403, whatever the tag.
    assert_eq!(fetch(&http, None, &summary, Some(&tag)).status, Status::FORBIDDEN);
    assert_eq!(metrics.not_modified.get(), 2);
    // The store-scoped routes carry tags too.
    let stats = fetch(&http, Some(&token), "/api/v1/stats", None);
    let stats_tag = tag_of(&stats);
    assert_eq!(
        fetch(&http, Some(&token), "/api/v1/stats", Some(&stats_tag)).status,
        Status::NOT_MODIFIED
    );

    // A heartbeat on one of the evaluation's jobs: the old tag no longer
    // validates anything read about the evaluation or the store.
    control.heartbeat(job.id, Some(40), None).unwrap();
    let after = fetch(&http, Some(&token), &summary, Some(&tag));
    assert_eq!(after.status, Status::OK);
    let new_tag = tag_of(&after);
    assert_ne!(new_tag, tag);
    assert_eq!(fetch(&http, Some(&token), "/api/v1/stats", Some(&stats_tag)).status, Status::OK);

    // Restart on the same data directory: versions start over, so no tag
    // from the previous process may validate.
    server.shutdown();
    drop((server, control));
    let control = open();
    let (http, token, _server) = serve(&control);
    for old in [&tag, &new_tag] {
        let answer = fetch(&http, Some(&token), &summary, Some(old));
        assert_eq!(answer.status, Status::OK, "a pre-restart tag validated");
        assert_eq!(answer.body, first.body, "same log, same summary");
        assert_ne!(&tag_of(&answer), old);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
