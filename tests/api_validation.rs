//! Regression tests for the request-validation hardening that came with the
//! typed wire contract: fields the handlers used to silently default are now
//! rejected with a 400 envelope, malformed JSON bodies are 400s instead of
//! being treated as empty objects, and ill-formed path ids are 400s.

mod common;

use chronos::api::{ErrorEnvelope, WireDecode};
use chronos::json::{obj, Value};
use common::TestEnv;

/// Decodes the error envelope of a non-2xx response and asserts the status.
fn expect_error(response: chronos::http::Response, status: u16) -> ErrorEnvelope {
    assert_eq!(
        response.status.0,
        status,
        "expected {status}, got {}: {}",
        response.status.0,
        String::from_utf8_lossy(&response.body)
    );
    let body = response.json_body().expect("error responses carry a JSON body");
    ErrorEnvelope::decode(&body).expect("error responses carry the standard envelope")
}

/// A claimed job to exercise the agent endpoints against.
fn claimed_job(env: &TestEnv, deployment_id: &str, system_id: &str) -> String {
    let (_p, experiment_id) = env
        .create_demo_experiment(system_id, obj! {"engine" => "wiredtiger", "record_count" => 10});
    env.post(&format!("/api/v1/experiments/{experiment_id}/evaluations"), &obj! {});
    let job = env.post("/api/v1/agent/claim", &obj! {"deployment_id" => deployment_id});
    job.get("id").and_then(Value::as_str).expect("claim returns the job").to_string()
}

#[test]
fn deployment_without_version_is_rejected() {
    let env = TestEnv::start();
    let system = env.post("/api/v1/systems", &TestEnv::demo_system_definition());
    let system_id = system.get("id").and_then(Value::as_str).unwrap();
    // `version` used to default to "unknown", which made every deployment
    // indistinguishable in trend analysis. Now it is required.
    let response = env.post_raw(
        &format!("/api/v1/systems/{system_id}/deployments"),
        &obj! {"environment" => "test-node"},
    );
    let envelope = expect_error(response, 400);
    assert!(envelope.message.contains("missing field \"version\""), "got: {}", envelope.message);
    // The documented default for `environment` is still honoured.
    let deployment =
        env.post(&format!("/api/v1/systems/{system_id}/deployments"), &obj! {"version" => "0.1.0"});
    assert_eq!(deployment.get("environment").and_then(Value::as_str), Some("default"));
}

#[test]
fn fail_without_reason_is_rejected() {
    let env = TestEnv::start();
    let (system_id, deployment_id) = env.register_demo_system();
    let job_id = claimed_job(&env, &deployment_id, &system_id);
    // A failure report without a reason used to become a canned string;
    // now the agent must say what went wrong.
    let response =
        env.post_raw(&format!("/api/v1/agent/jobs/{job_id}/fail"), &obj! {"attempt" => 1});
    let envelope = expect_error(response, 400);
    assert!(envelope.message.contains("missing field \"reason\""), "got: {}", envelope.message);
    // The job is untouched by the rejected report.
    let job = env.get(&format!("/api/v1/jobs/{job_id}"));
    assert_eq!(job.get("state").and_then(Value::as_str), Some("running"));
}

#[test]
fn malformed_json_bodies_are_rejected() {
    let env = TestEnv::start();
    let (system_id, deployment_id) = env.register_demo_system();
    let job_id = claimed_job(&env, &deployment_id, &system_id);
    // Garbage bodies used to decode as empty objects and take the silent
    // defaults; every typed endpoint now answers 400.
    for path in [
        format!("/api/v1/agent/jobs/{job_id}/heartbeat"),
        format!("/api/v1/agent/jobs/{job_id}/fail"),
        "/api/v1/agent/claim".to_string(),
    ] {
        let response = env.post_bytes_raw(&path, "application/json", b"{not json");
        let envelope = expect_error(response, 400);
        assert!(envelope.message.contains("bad JSON body"), "{path}: {}", envelope.message);
    }
}

#[test]
fn heartbeat_with_ill_typed_fields_is_rejected() {
    let env = TestEnv::start();
    let (system_id, deployment_id) = env.register_demo_system();
    let job_id = claimed_job(&env, &deployment_id, &system_id);
    let path = format!("/api/v1/agent/jobs/{job_id}/heartbeat");
    // Progress and attempt stay optional, but a present ill-typed value is
    // an error — a heartbeat that silently drops its fencing token would
    // defeat the lease protocol.
    expect_error(env.post_raw(&path, &obj! {"progress" => "later"}), 400);
    expect_error(env.post_raw(&path, &obj! {"progress" => 250}), 400);
    expect_error(env.post_raw(&path, &obj! {"attempt" => "one"}), 400);
    // An empty heartbeat (just liveness) is still fine.
    let ack = env.post(&path, &obj! {});
    assert_eq!(ack.get("state").and_then(Value::as_str), Some("running"));
}

#[test]
fn result_upload_without_data_is_rejected() {
    let env = TestEnv::start();
    let (system_id, deployment_id) = env.register_demo_system();
    let job_id = claimed_job(&env, &deployment_id, &system_id);
    let response =
        env.post_raw(&format!("/api/v1/agent/jobs/{job_id}/result"), &obj! {"attempt" => 1});
    let envelope = expect_error(response, 400);
    assert!(envelope.message.contains("result needs \"data\""), "got: {}", envelope.message);
}

#[test]
fn claim_without_deployment_is_rejected() {
    let env = TestEnv::start();
    let response = env.post_raw("/api/v1/agent/claim", &obj! {});
    let envelope = expect_error(response, 400);
    assert!(
        envelope.message.contains("missing field \"deployment_id\""),
        "got: {}",
        envelope.message
    );
}

#[test]
fn unknown_role_is_rejected_but_absent_role_defaults_to_member() {
    let env = TestEnv::start();
    // Present-but-unknown used to silently downgrade to viewer/member.
    let response = env.post_raw(
        "/api/v1/users",
        &obj! {"username" => "eve", "password" => "pw", "role" => "root"},
    );
    let envelope = expect_error(response, 400);
    assert!(envelope.message.contains("invalid role"), "got: {}", envelope.message);
    // Ill-typed role is rejected too (it used to be ignored).
    expect_error(
        env.post_raw("/api/v1/users", &obj! {"username" => "eve", "password" => "pw", "role" => 7}),
        400,
    );
    // Absent role keeps its documented default.
    let user = env.post("/api/v1/users", &obj! {"username" => "bob", "password" => "pw"});
    assert_eq!(user.get("role").and_then(Value::as_str), Some("member"));
    assert!(user.get("password_hash").is_none(), "hash must never be served");
}

#[test]
fn bad_path_ids_are_rejected_with_a_typed_message() {
    let env = TestEnv::start();
    let envelope = expect_error(env.get_raw("/api/v1/jobs/not-a-valid-id"), 400);
    assert!(envelope.message.contains("invalid :id id"), "got: {}", envelope.message);
    // The numeric envelope code mirrors the HTTP status.
    assert_eq!(envelope, ErrorEnvelope::status(400, envelope.message.clone()));
}

/// A system definition around one parameter and one chart document.
fn definition_with(name: &str, parameter: Value, chart: Value) -> Value {
    obj! {
        "name" => name,
        "parameters" => Value::Array(vec![parameter]),
        "charts" => Value::Array(vec![chart]),
    }
}

/// The chart every definition below declares unless it is the case.
fn good_chart() -> Value {
    obj! {"kind" => "bar", "title" => "t", "x_param" => "p", "value_path" => "/v"}
}

/// Every message a malformed parameter or chart definition and a malformed
/// experiment body can produce, with the status and body bytes the server
/// answers it with. Whoever decodes these documents must keep them.
#[test]
fn malformed_definitions_and_assignments_answer_pinned_bodies() {
    let env = TestEnv::start();
    let bad = |message: &str| {
        let message = message.replace('"', "\\\"");
        format!("{{\"error\":{{\"code\":400,\"message\":\"invalid request: {message}\"}}}}")
    };
    let parameter = |fields: Value| {
        let mut p = obj! {"name" => "p", "description" => "d"};
        for (k, v) in fields.as_object().unwrap().iter() {
            p.set(k, v.clone());
        }
        p
    };
    let systems: Vec<(Value, String)> = vec![
        (obj! {"parameters" => Value::Array(vec![])}, bad("system definition needs a name")),
        (
            definition_with("s", parameter(obj! {"default" => 1}), good_chart()),
            bad("parameter type missing \"type\""),
        ),
        (
            definition_with("s", parameter(obj! {"type" => "alien", "default" => 1}), good_chart()),
            bad("unknown parameter type \"alien\""),
        ),
        (
            definition_with(
                "s",
                parameter(obj! {"type" => "checkbox", "default" => "a"}),
                good_chart(),
            ),
            bad("checkbox needs \"options\""),
        ),
        (
            definition_with(
                "s",
                parameter(
                    obj! {"type" => "checkbox", "options" => Value::Array(vec![]), "default" => "a"},
                ),
                good_chart(),
            ),
            bad("checkbox needs at least one option"),
        ),
        (
            definition_with(
                "s",
                parameter(
                    obj! {"type" => "checkbox", "options" => Value::Array(vec![Value::from(1)]), "default" => "a"},
                ),
                good_chart(),
            ),
            bad("checkbox options must be strings"),
        ),
        (
            definition_with(
                "s",
                parameter(obj! {"type" => "interval", "min" => "one", "max" => 3, "default" => 1}),
                good_chart(),
            ),
            bad("interval needs integer \"min\""),
        ),
        (
            definition_with(
                "s",
                parameter(obj! {"type" => "interval", "min" => 1, "default" => 1}),
                good_chart(),
            ),
            bad("interval needs integer \"max\""),
        ),
        (
            definition_with(
                "s",
                parameter(
                    obj! {"type" => "interval", "min" => 1, "max" => 3, "step" => 0, "default" => 1},
                ),
                good_chart(),
            ),
            bad("interval step must be ≥ 1"),
        ),
        (
            definition_with(
                "s",
                parameter(obj! {"type" => "interval", "min" => 3, "max" => 1, "default" => 1}),
                good_chart(),
            ),
            bad("interval max must be ≥ min"),
        ),
        (
            definition_with("s", obj! {"type" => "boolean", "default" => true}, good_chart()),
            bad("parameter needs a \"name\""),
        ),
        (
            definition_with("s", parameter(obj! {"type" => "boolean"}), good_chart()),
            bad("parameter p needs a default"),
        ),
        (
            definition_with(
                "s",
                parameter(obj! {"type" => "boolean", "default" => 3}),
                good_chart(),
            ),
            bad("value 3 is not a valid boolean"),
        ),
        (
            definition_with(
                "s",
                parameter(
                    obj! {"type" => "checkbox", "options" => Value::Array(vec![Value::from("a")]), "default" => "z"},
                ),
                good_chart(),
            ),
            bad("value \"z\" is not a valid checkbox"),
        ),
        (
            definition_with(
                "s",
                parameter(obj! {"type" => "value", "default" => Value::Array(vec![])}),
                good_chart(),
            ),
            bad("value [] is not a valid value"),
        ),
        (
            definition_with(
                "s",
                parameter(obj! {"type" => "interval", "min" => 1, "max" => 3, "default" => 9}),
                good_chart(),
            ),
            bad("value 9 is not a valid interval"),
        ),
        (
            definition_with(
                "s",
                parameter(obj! {"type" => "ratio", "default" => 1.5}),
                good_chart(),
            ),
            bad("value 1.5 is not a valid ratio"),
        ),
        (
            definition_with(
                "s",
                parameter(
                    obj! {"type" => "interval", "min" => 1, "max" => 7, "step" => 2, "default" => 4},
                ),
                good_chart(),
            ),
            bad("value 4 is not a valid interval"),
        ),
    ];
    let mut cases = systems;
    for field in ["kind", "title", "x_param", "value_path"] {
        let mut chart = good_chart();
        chart.as_object_mut().unwrap().remove(field);
        let definition =
            definition_with("s", parameter(obj! {"type" => "boolean", "default" => true}), chart);
        cases.push((definition, bad(&format!("chart needs \"{field}\""))));
    }
    for (definition, expected) in &cases {
        let response = env.post_raw("/api/v1/systems", definition);
        let body = String::from_utf8_lossy(&response.body);
        assert_eq!((response.status.0, body.as_ref()), (400, expected.as_str()), "{definition}");
    }

    let (system_id, _) = env.register_demo_system();
    let project = env.post("/api/v1/projects", &obj! {"name" => "pins"});
    let project_id = project.get("id").and_then(Value::as_str).unwrap();
    let path = format!("/api/v1/projects/{project_id}/experiments");
    let experiment = |parameters: Value, strategy: Option<Value>| {
        let mut body = obj! {"name" => "e", "system_id" => system_id.as_str()};
        body.set("parameters", parameters);
        if let Some(strategy) = strategy {
            body.set("strategy", strategy);
        }
        body
    };
    let sweep = |values: Value| obj! {"sweep" => values};
    // Intervals whose full sweeps a walk of `v += step` could not build:
    // too many points, or a step past which `v` overflows.
    let interval = |name: &str, max: i64, step: i64| {
        obj! {"name" => name, "type" => "interval", "min" => 0, "max" => max, "step" => step, "default" => 0}
    };
    let wide = obj! {
        "name" => "wide",
        "parameters" => Value::Array(vec![
            interval("every", i64::MAX, 1),
            interval("huge", 1_000_000_000_000, 1),
            interval("coarse", i64::MAX, 1 << 62),
        ]),
        "charts" => Value::Array(vec![good_chart()]),
    };
    let wide = env.post("/api/v1/systems", &wide);
    let wide_id = wide.get("id").and_then(Value::as_str).unwrap();
    let on_wide = |parameters: Value| {
        obj! {"name" => "e", "system_id" => wide_id, "parameters" => parameters}
    };
    let experiments = [
        (
            experiment(obj! {"threads" => sweep(Value::Array(vec![]))}, None),
            bad("sweep list cannot be empty"),
        ),
        (
            experiment(obj! {"threads" => sweep(Value::from(5))}, None),
            bad("\"sweep\" must be a value list or \"all\""),
        ),
        (
            experiment(obj! {"threads" => sweep(Value::from("most"))}, None),
            bad("\"sweep\" must be a value list or \"all\""),
        ),
        (experiment(Value::Array(vec![]), None), bad("parameters must be an object")),
        (experiment(Value::from(7), None), bad("parameters must be an object")),
        (experiment(obj! {"warp" => 9}, None), bad("unknown parameter \"warp\"")),
        (
            experiment(obj! {"threads" => 99}, None),
            bad("parameter \"threads\": value 99 is not a valid interval"),
        ),
        (
            on_wide(obj! {"coarse" => 3}),
            bad("parameter \"coarse\": value 3 is not a valid interval"),
        ),
        (
            on_wide(obj! {"every" => sweep(Value::from("all"))}),
            bad("evaluation space exceeds 10000000 points"),
        ),
        (
            on_wide(obj! {"huge" => sweep(Value::from("all"))}),
            bad("evaluation space exceeds 10000000 points"),
        ),
        (
            experiment(obj! {"record_count" => sweep(Value::from("all"))}, None),
            bad("parameter type value cannot be fully swept; list explicit values"),
        ),
        (
            experiment(obj! {}, Some(obj! {"kind" => "adaptive", "eta" => 1})),
            bad("adaptive eta must be ≥ 2"),
        ),
        (
            experiment(obj! {}, Some(obj! {"kind" => "adaptive", "initial" => 0})),
            bad("adaptive initial must be ≥ 1"),
        ),
        (
            experiment(obj! {}, Some(obj! {"kind" => "adaptive", "metric" => "tp"})),
            bad("adaptive metric must be a JSON pointer (got \"tp\")"),
        ),
        (experiment(obj! {}, Some(Value::from("spiral"))), bad("bad strategy")),
    ];
    for (body, expected) in &experiments {
        let response = env.post_raw(&path, body);
        let text = String::from_utf8_lossy(&response.body);
        assert_eq!((response.status.0, text.as_ref()), (400, expected.as_str()), "{body}");
    }
    // The coarse interval has two points, 0 and 2^62: counted, its full
    // sweep is an ordinary experiment.
    let coarse = env.post_raw(&path, &on_wide(obj! {"coarse" => sweep(Value::from("all"))}));
    assert_eq!(coarse.status.0, 201, "{}", String::from_utf8_lossy(&coarse.body));
}

/// The bytes of `experiment.json` and `system.json` inside a project's
/// archive, with ids and creation times replaced by placeholders.
#[test]
fn project_archive_pins_experiment_and_system_bytes() {
    let env = TestEnv::start();
    let options = |names: &[&str]| Value::Array(names.iter().map(|&n| Value::from(n)).collect());
    let definition = obj! {
        "name" => "every-type",
        "description" => "one parameter of each type",
        "parameters" => Value::Array(vec![
            obj! {"name" => "engine", "type" => "checkbox", "options" => options(&["wt", "mm"]), "default" => "wt"},
            obj! {"name" => "threads", "description" => "clients", "type" => "interval", "min" => 1, "max" => 7, "step" => 2, "default" => 1},
            obj! {"name" => "compression", "type" => "boolean", "default" => false},
            obj! {"name" => "read_ratio", "type" => "ratio", "default" => 0.5},
            obj! {"name" => "record_count", "type" => "value", "default" => 100},
        ]),
        "charts" => Value::Array(vec![
            obj! {"kind" => "line", "title" => "tp", "x_param" => "threads", "series_param" => "engine", "value_path" => "/tp", "y_label" => "ops/s"},
            obj! {"kind" => "pie", "title" => "share", "x_param" => "engine", "value_path" => "/tp"},
        ]),
    };
    let system = env.post("/api/v1/systems", &definition);
    let system_id = system.get("id").and_then(Value::as_str).unwrap().to_string();
    let project = env.post("/api/v1/projects", &obj! {"name" => "archived"});
    let project_id = project.get("id").and_then(Value::as_str).unwrap().to_string();
    let path = format!("/api/v1/projects/{project_id}/experiments");
    let experiment = env.post(
        &path,
        &obj! {
            "name" => "sweeps",
            "system_id" => system_id.as_str(),
            "description" => "every assignment kind",
            "parameters" => obj! {
                "engine" => obj! {"sweep" => "all"},
                "threads" => obj! {"sweep" => Value::Array(vec![Value::from(1), Value::from(3)])},
                "record_count" => 50,
                "read_ratio" => 0.25,
            },
            "strategy" => obj! {"kind" => "adaptive", "seed" => 7, "eta" => 3},
            "budget" => obj! {"wall_millis" => 60_000},
        },
    );
    let experiment_id = experiment.get("id").and_then(Value::as_str).unwrap();
    let archive = env.get_raw(&format!("/api/v1/projects/{project_id}/archive.zip"));
    assert_eq!(archive.status.0, 200);
    let zip = chronos::zip::ZipArchive::parse(&archive.body).unwrap();
    let read = |name: &str, created_at: &Value| {
        let bytes = zip.read(&format!("experiments/{experiment_id}/{name}")).unwrap();
        String::from_utf8(bytes)
            .unwrap()
            .replace(experiment_id, "<experiment>")
            .replace(&project_id, "<project>")
            .replace(&system_id, "<system>")
            .replace(&created_at.to_string(), "<created_at>")
    };
    let experiment_json = read("experiment.json", experiment.get("created_at").unwrap());
    let system_json = read("system.json", system.get("created_at").unwrap());
    assert_eq!(experiment_json, PINNED_EXPERIMENT_JSON);
    assert_eq!(system_json, PINNED_SYSTEM_JSON);
}

const PINNED_EXPERIMENT_JSON: &str = r#"{
  "id": "<experiment>",
  "project_id": "<project>",
  "system_id": "<system>",
  "name": "sweeps",
  "description": "every assignment kind",
  "parameters": {
    "engine": {
      "sweep": "all"
    },
    "threads": {
      "sweep": [
        1,
        3
      ]
    },
    "record_count": 50,
    "read_ratio": 0.25
  },
  "archived": false,
  "created_at": <created_at>,
  "strategy": {
    "kind": "adaptive",
    "seed": 7,
    "eta": 3,
    "metric": "/throughput_ops_per_sec",
    "maximize": true
  },
  "budget": {
    "wall_millis": 60000
  }
}"#;
const PINNED_SYSTEM_JSON: &str = r#"{
  "id": "<system>",
  "name": "every-type",
  "description": "one parameter of each type",
  "parameters": [
    {
      "type": "checkbox",
      "options": [
        "wt",
        "mm"
      ],
      "name": "engine",
      "description": "",
      "default": "wt"
    },
    {
      "type": "interval",
      "min": 1,
      "max": 7,
      "step": 2,
      "name": "threads",
      "description": "clients",
      "default": 1
    },
    {
      "type": "boolean",
      "name": "compression",
      "description": "",
      "default": false
    },
    {
      "type": "ratio",
      "name": "read_ratio",
      "description": "",
      "default": 0.5
    },
    {
      "type": "value",
      "name": "record_count",
      "description": "",
      "default": 100
    }
  ],
  "charts": [
    {
      "kind": "line",
      "title": "tp",
      "x_param": "threads",
      "series_param": "engine",
      "value_path": "/tp",
      "y_label": "ops/s"
    },
    {
      "kind": "pie",
      "title": "share",
      "x_param": "engine",
      "series_param": null,
      "value_path": "/tp",
      "y_label": ""
    }
  ],
  "created_at": <created_at>
}"#;
