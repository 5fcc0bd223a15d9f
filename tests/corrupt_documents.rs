//! A stored document that does not decode is a storage fault, not a
//! missing one: the server answers 500 naming the document's kind and id,
//! never 404. Each test opens a store whose log holds one damaged document
//! of a kind and reads it through the routes that decode it.

use std::sync::Arc;

use chronos::api::TOKEN_HEADER;
use chronos::core::auth::Role;
use chronos::core::scheduler::SchedulerConfig;
use chronos::core::store::MetadataStore;
use chronos::core::ChronosControl;
use chronos::http::{Method, Request, Response, Router};
use chronos::json::{obj, Value};
use chronos::server::build_router;
use chronos::util::{Id, SystemClock};

/// A router over a store whose log holds `document` as the `kind` document
/// `id`, and an admin session token.
fn serve_damaged(kind: &str, id: Id, document: Value) -> (Router, String) {
    let dir = std::env::temp_dir().join(format!(
        "chronos-corrupt-{kind}-{}-{:x}",
        std::process::id(),
        rand::random::<u64>()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("chronos-control.log");
    let frame = obj! {"op" => "put", "kind" => kind, "id" => id.to_base32(), "doc" => document};
    std::fs::write(&path, format!("{frame}\n")).unwrap();
    let store = MetadataStore::open(&path).expect("the log replays: the frame is whole");
    let control =
        Arc::new(ChronosControl::new(store, Arc::new(SystemClock), SchedulerConfig::default()));
    control.create_user("admin", "admin-pw", Role::Admin).unwrap();
    let token = control.login("admin", "admin-pw").unwrap();
    std::fs::remove_dir_all(&dir).ok();
    (build_router(control), token)
}

fn get(router: &Router, token: &str, path: &str) -> Response {
    let mut request = Request::new(Method::Get, path);
    request.headers.set(TOKEN_HEADER, token);
    router.dispatch(&request)
}

/// A storage fault: 500, and a message naming the kind and the id.
fn assert_storage_fault(response: &Response, kind: &str, id: Id) {
    let body = String::from_utf8_lossy(&response.body).to_string();
    assert_eq!(response.status.0, 500, "a damaged {kind} is a storage fault: {body}");
    let named = format!("{kind} {id}");
    assert!(body.contains(&named), "the fault names {named}: {body}");
}

#[test]
fn a_damaged_job_is_a_storage_fault() {
    let id = Id::generate();
    let (router, token) = serve_damaged("job", id, obj! {"id" => id.to_base32(), "state" => 7});
    for path in [format!("/api/v1/jobs/{id}"), format!("/api/v1/jobs/{id}/log")] {
        assert_storage_fault(&get(&router, &token, &path), "job", id);
    }
    let missing = Id::generate();
    let response = get(&router, &token, &format!("/api/v1/jobs/{missing}"));
    assert_eq!(response.status.0, 404, "a job that is not stored is still not found");
}

#[test]
fn a_damaged_evaluation_is_a_storage_fault() {
    let id = Id::generate();
    let document = obj! {"id" => id.to_base32(), "experiment_id" => 42, "job_ids" => "none"};
    let (router, token) = serve_damaged("evaluation", id, document);
    let detail = get(&router, &token, &format!("/api/v1/evaluations/{id}"));
    assert_storage_fault(&detail, "evaluation", id);
    let body = String::from_utf8_lossy(&detail.body).to_string();
    assert!(body.contains("bad experiment_id"), "a present field is bad, not missing: {body}");
    let chart = get(&router, &token, &format!("/api/v1/evaluations/{id}/charts/0.svg"));
    assert_storage_fault(&chart, "evaluation", id);
    let page = get(&router, &token, &format!("/ui/evaluations/{id}?token={token}"));
    assert_storage_fault(&page, "evaluation", id);
}

#[test]
fn a_damaged_experiment_is_a_storage_fault() {
    let id = Id::generate();
    let document = obj! {"id" => id.to_base32(), "name" => "no owners", "parameters" => 3};
    let (router, token) = serve_damaged("experiment", id, document);
    assert_storage_fault(
        &get(&router, &token, &format!("/api/v1/experiments/{id}")),
        "experiment",
        id,
    );
}

#[test]
fn a_damaged_system_is_a_storage_fault() {
    let id = Id::generate();
    let document = obj! {"id" => id.to_base32(), "description" => "no name"};
    let (router, token) = serve_damaged("system", id, document);
    assert_storage_fault(&get(&router, &token, &format!("/api/v1/systems/{id}")), "system", id);
}
