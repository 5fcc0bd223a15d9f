//! The Chronos web UI, server-rendered.
//!
//! The original Chronos Control is "designed as a web application allowing
//! the management and analysis of evaluations using common web browsers"
//! (paper §2.2). This module reproduces the UI's information content as
//! plain server-rendered HTML over the same core:
//!
//! * `/ui` — overview: systems, projects, installation stats
//! * `/ui/systems/:id` — system configuration page (paper Fig. 2)
//! * `/ui/projects/:id` — project page with its experiments
//! * `/ui/experiments/:id` — experiment definition (paper Fig. 3a)
//! * `/ui/evaluations/:id` — evaluation detail with the job table
//!   (paper Fig. 3b) and the result charts inline as SVG (paper Fig. 3d)
//! * `/ui/jobs/:id` — job detail: state, progress, log, timeline
//!   (paper Fig. 3c)
//!
//! Browsers cannot set custom headers, so UI pages authenticate with a
//! `?token=` query parameter (obtained from `POST /api/v1/login`); all
//! intra-UI links propagate it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use chronos_core::charts::ChartRegistry;
use chronos_core::model::JobState;
use chronos_core::{analysis, ChronosControl, CoreError, CoreResult};
use chronos_http::{Request, Response, RouteParams, Router, ServerMetrics, Status};
use chronos_util::Id;

/// HTML-escapes text content.
fn esc(s: &str) -> String {
    s.replace('&', "&amp;").replace('<', "&lt;").replace('>', "&gt;").replace('"', "&quot;")
}

/// Wraps page content in the shared layout.
fn page(title: &str, body: &str) -> Response {
    let html = format!(
        "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n\
         <title>{title} — Chronos</title>\n\
         <style>\n\
         body {{ font-family: system-ui, sans-serif; margin: 2rem auto; max-width: 70rem; color: #222; }}\n\
         h1 {{ border-bottom: 2px solid #4e79a7; padding-bottom: .3rem; }}\n\
         table {{ border-collapse: collapse; width: 100%; margin: 1rem 0; }}\n\
         th, td {{ border: 1px solid #ddd; padding: .4rem .6rem; text-align: left; font-size: .9rem; }}\n\
         th {{ background: #f4f6f8; }}\n\
         .state {{ padding: .1rem .5rem; border-radius: .6rem; font-size: .8rem; color: white; }}\n\
         .state.scheduled {{ background: #888; }} .state.running {{ background: #4e79a7; }}\n\
         .state.finished {{ background: #59a14f; }} .state.aborted {{ background: #b07aa1; }}\n\
         .state.failed {{ background: #e15759; }} .state.quarantined {{ background: #6b4226; }}\n\
         .progress {{ background: #eee; border-radius: .3rem; width: 12rem; height: 1rem; }}\n\
         .progress > div {{ background: #4e79a7; height: 100%; border-radius: .3rem; }}\n\
         pre {{ background: #f8f8f8; border: 1px solid #ddd; padding: .8rem; overflow-x: auto; }}\n\
         nav {{ margin-bottom: 1rem; font-size: .9rem; }}\n\
         </style></head><body>\n\
         <nav><a href=\"javascript:history.back()\">&larr; back</a></nav>\n\
         {body}\n\
         <footer><hr><small>Chronos — Evaluations-as-a-Service (EDBT 2020 reproduction)</small></footer>\n\
         </body></html>\n",
        title = esc(title),
    );
    Response::bytes(Status::OK, "text/html; charset=utf-8", html.into_bytes())
}

fn state_badge(state: JobState) -> String {
    format!("<span class=\"state {0}\">{0}</span>", state.as_str())
}

fn authed_ui(control: &ChronosControl, req: &Request) -> CoreResult<()> {
    let token = req.query_param("token").ok_or_else(|| {
        CoreError::Forbidden("append ?token=<session token> (POST /api/v1/login)".into())
    })?;
    control.authenticate(&token).map(|_| ())
}

fn ui_error(error: CoreError) -> Response {
    let status = match &error {
        CoreError::NotFound { .. } => Status::NOT_FOUND,
        CoreError::Forbidden(_) => Status::FORBIDDEN,
        _ => Status::BAD_REQUEST,
    };
    let html = format!(
        "<!DOCTYPE html><html><body><h1>{}</h1><p>{}</p></body></html>",
        status.reason(),
        esc(&error.to_string())
    );
    Response::bytes(status, "text/html; charset=utf-8", html.into_bytes())
}

fn param_id(params: &RouteParams, name: &str) -> CoreResult<Id> {
    params
        .get(name)
        .and_then(|s| Id::parse_base32(s).ok())
        .ok_or_else(|| CoreError::Invalid(format!("invalid :{name}")))
}

fn token_of(req: &Request) -> String {
    req.query_param("token").unwrap_or_default()
}

/// Renders the server-health block on the overview page: drain state, the
/// front-end admission counters, (read from the mirrored gauges) the
/// node's cluster role, term, and replication health, and the read
/// cache's hit, miss and `304` counts.
fn health_section(metrics: &ServerMetrics, draining: bool) -> String {
    let role = match metrics.cluster_role.get() {
        0 => "follower",
        1 => "candidate",
        _ => "leader",
    };
    format!(
        "<h2>Server health</h2><table>\
         <tr><th>state</th><th>in-flight</th><th>accepted</th><th>requests</th>\
         <th>shed (overload)</th><th>shed (draining)</th><th>deadline exceeded</th></tr>\
         <tr><td>{state}</td><td>{inflight}</td><td>{accepted}</td><td>{requests}</td>\
         <td>{shed_overload}</td><td>{shed_draining}</td><td>{deadline}</td></tr></table>\
         <table>\
         <tr><th>role</th><th>term</th><th>replication lag (ms)</th>\
         <th>elections</th><th>segments shipped</th></tr>\
         <tr><td>{role}</td><td>{term}</td><td>{lag}</td>\
         <td>{elections}</td><td>{shipped}</td></tr></table>\
         <table>\
         <tr><th>read cache hits</th><th>read cache misses</th><th>not modified (304)</th></tr>\
         <tr><td>{hits}</td><td>{misses}</td><td>{not_modified}</td></tr></table>",
        state = if draining { "draining" } else { "running" },
        inflight = metrics.inflight.get(),
        accepted = metrics.accepted.get(),
        requests = metrics.requests.get(),
        shed_overload = metrics.shed_overload.get(),
        shed_draining = metrics.shed_draining.get(),
        deadline = metrics.deadline_exceeded.get(),
        term = metrics.cluster_term.get(),
        lag = metrics.replication_lag_ms.get(),
        elections = metrics.elections.get(),
        shipped = metrics.segments_shipped.get(),
        hits = metrics.read_cache_hits.get(),
        misses = metrics.read_cache_misses.get(),
        not_modified = metrics.not_modified.get(),
    )
}

/// Mounts all UI routes.
pub fn mount(
    router: &mut Router,
    control: Arc<ChronosControl>,
    metrics: Arc<ServerMetrics>,
    draining: Arc<AtomicBool>,
) {
    let c = &control;

    // Overview.
    let control_ = Arc::clone(c);
    router.get("/ui", move |req, _p| {
        if let Err(e) = authed_ui(&control_, req) {
            return ui_error(e);
        }
        let token = token_of(req);
        let mut body = String::from("<h1>Chronos Control</h1>");
        body.push_str(&health_section(&metrics, draining.load(Ordering::SeqCst)));
        body.push_str("<h2>Systems under evaluation</h2><table><tr><th>name</th><th>description</th><th>parameters</th><th>charts</th></tr>");
        for system in control_.list_systems() {
            body.push_str(&format!(
                "<tr><td><a href=\"/ui/systems/{id}?token={token}\">{name}</a></td><td>{desc}</td><td>{params}</td><td>{charts}</td></tr>",
                id = system.id,
                name = esc(&system.name),
                desc = esc(&system.description),
                params = system.parameters.len(),
                charts = system.charts.len(),
            ));
        }
        body.push_str("</table><h2>Projects</h2><table><tr><th>name</th><th>description</th><th>members</th><th>archived</th></tr>");
        for project in control_.list_projects() {
            body.push_str(&format!(
                "<tr><td><a href=\"/ui/projects/{id}?token={token}\">{name}</a></td><td>{desc}</td><td>{members}</td><td>{archived}</td></tr>",
                id = project.id,
                name = esc(&project.name),
                desc = esc(&project.description),
                members = project.members.len(),
                archived = project.archived,
            ));
        }
        body.push_str("</table>");
        page("Overview", &body)
    });

    // System configuration (paper Fig. 2).
    let control_ = Arc::clone(c);
    router.get("/ui/systems/:id", move |req, p| {
        let result = (|| {
            authed_ui(&control_, req)?;
            let system = control_.get_system(param_id(p, "id")?)?;
            let token = token_of(req);
            let mut body = format!(
                "<h1>System: {}</h1><p>{}</p><h2>Parameters</h2>\
                 <table><tr><th>name</th><th>type</th><th>default</th><th>description</th></tr>",
                esc(&system.name),
                esc(&system.description)
            );
            for def in &system.parameters {
                body.push_str(&format!(
                    "<tr><td>{}</td><td>{}</td><td><code>{}</code></td><td>{}</td></tr>",
                    esc(&def.name),
                    def.param_type.tag(),
                    esc(&def.default.to_string()),
                    esc(&def.description),
                ));
            }
            body.push_str("</table><h2>Result charts</h2><table><tr><th>kind</th><th>title</th><th>x</th><th>series</th><th>value</th></tr>");
            for chart in &system.charts {
                body.push_str(&format!(
                    "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td><code>{}</code></td></tr>",
                    chart.kind,
                    esc(&chart.title),
                    esc(&chart.x_param),
                    esc(chart.series_param.as_deref().unwrap_or("-")),
                    esc(&chart.value_path),
                ));
            }
            body.push_str("</table><h2>Deployments</h2><table><tr><th>environment</th><th>version</th><th>active</th></tr>");
            for deployment in control_.list_deployments(Some(system.id)) {
                body.push_str(&format!(
                    "<tr><td>{}</td><td>{}</td><td>{}</td></tr>",
                    esc(&deployment.environment),
                    esc(&deployment.version),
                    deployment.active,
                ));
            }
            body.push_str("</table>");
            let _ = token;
            Ok(page(&format!("System {}", system.name), &body))
        })();
        result.unwrap_or_else(ui_error)
    });

    // Project page.
    let control_ = Arc::clone(c);
    router.get("/ui/projects/:id", move |req, p| {
        let result = (|| {
            authed_ui(&control_, req)?;
            let project = control_.get_project(param_id(p, "id")?)?;
            let token = token_of(req);
            let mut body = format!(
                "<h1>Project: {}</h1><p>{}</p><h2>Experiments</h2>\
                 <table><tr><th>name</th><th>description</th><th>evaluations</th><th>archived</th></tr>",
                esc(&project.name),
                esc(&project.description)
            );
            for experiment in control_.list_experiments(Some(project.id)) {
                let evaluations = control_.list_evaluations(Some(experiment.id)).len();
                body.push_str(&format!(
                    "<tr><td><a href=\"/ui/experiments/{id}?token={token}\">{name}</a></td><td>{desc}</td><td>{evaluations}</td><td>{archived}</td></tr>",
                    id = experiment.id,
                    name = esc(&experiment.name),
                    desc = esc(&experiment.description),
                    archived = experiment.archived,
                ));
            }
            body.push_str("</table>");
            Ok(page(&format!("Project {}", project.name), &body))
        })();
        result.unwrap_or_else(ui_error)
    });

    // Experiment page (paper Fig. 3a).
    let control_ = Arc::clone(c);
    router.get("/ui/experiments/:id", move |req, p| {
        let result = (|| {
            authed_ui(&control_, req)?;
            let experiment = control_.get_experiment(param_id(p, "id")?)?;
            let token = token_of(req);
            let mut body = format!(
                "<h1>Experiment: {}</h1><p>{}</p><h2>Parameter assignment</h2><pre>{}</pre>",
                esc(&experiment.name),
                esc(&experiment.description),
                esc(&experiment.assignments.to_json().to_pretty_string()),
            );
            body.push_str("<h2>Evaluations</h2><table><tr><th>created</th><th>jobs</th><th>progress</th></tr>");
            for evaluation in control_.list_evaluations(Some(experiment.id)) {
                let status = control_.evaluation_status(evaluation.id)?;
                body.push_str(&format!(
                    "<tr><td><a href=\"/ui/evaluations/{id}?token={token}\">{created}</a></td><td>{jobs}</td>\
                     <td><div class=\"progress\"><div style=\"width:{pct}%\"></div></div> {pct}%</td></tr>",
                    id = evaluation.id,
                    created = chronos_util::clock::format_timestamp(evaluation.created_at),
                    jobs = status.total(),
                    pct = status.progress_percent(),
                ));
            }
            body.push_str("</table>");
            Ok(page(&format!("Experiment {}", experiment.name), &body))
        })();
        result.unwrap_or_else(ui_error)
    });

    // Evaluation page (paper Fig. 3b + 3d).
    let control_ = Arc::clone(c);
    router.get("/ui/evaluations/:id", move |req, p| {
        let result = (|| {
            authed_ui(&control_, req)?;
            let evaluation = control_.get_evaluation(param_id(p, "id")?)?;
            let status = control_.evaluation_status(evaluation.id)?;
            let experiment = control_.get_experiment(evaluation.experiment_id)?;
            let system = control_.get_system(experiment.system_id)?;
            let token = token_of(req);
            let mut body = format!(
                "<h1>Evaluation of {}</h1>\
                 <p>{} jobs — {} scheduled, {} running, {} finished, {} aborted, {} failed{quarantined}{remaining}</p>\
                 <div class=\"progress\"><div style=\"width:{pct}%\"></div></div><p>{pct}% settled</p>",
                esc(&experiment.name),
                status.total(),
                status.scheduled,
                status.running,
                status.finished,
                status.aborted,
                status.failed,
                quarantined = match status.quarantined {
                    0 => String::new(),
                    q => format!(", {q} quarantined"),
                },
                remaining = match status.remaining {
                    Some(r) if r > 0 => format!(", {r} points not yet materialized"),
                    _ => String::new(),
                },
                pct = status.progress_percent(),
            );
            body.push_str("<h2>Jobs</h2><table><tr><th>job</th><th>parameters</th><th>state</th><th>progress</th><th>attempts</th></tr>");
            for job in control_.list_jobs(evaluation.id)? {
                body.push_str(&format!(
                    "<tr><td><a href=\"/ui/jobs/{id}?token={token}\">{id_short}</a></td><td><code>{params}</code></td>\
                     <td>{state}</td><td>{progress}%</td><td>{attempts}</td></tr>",
                    id = job.id,
                    id_short = &job.id.to_base32()[18..],
                    params = esc(&job.parameters.to_string()),
                    state = state_badge(job.state),
                    progress = job.progress,
                    attempts = job.attempts,
                ));
            }
            body.push_str("</table>");
            // Inline chart renders (Fig. 3d).
            if !system.charts.is_empty() && status.finished > 0 {
                body.push_str("<h2>Result analysis</h2>");
                let registry = ChartRegistry::with_builtins();
                for spec in &system.charts {
                    let data = analysis::chart_data(&control_, evaluation.id, spec)?;
                    if !data.is_empty() {
                        body.push_str(&registry.render_svg(spec, &data)?);
                    }
                }
            }
            Ok(page("Evaluation", &body))
        })();
        result.unwrap_or_else(ui_error)
    });

    // Job page (paper Fig. 3c).
    let control_ = Arc::clone(c);
    router.get("/ui/jobs/:id", move |req, p| {
        let result = (|| {
            authed_ui(&control_, req)?;
            let job = control_.get_job(param_id(p, "id")?)?;
            let mut body = format!(
                "<h1>Job {}</h1><p>state: {} &middot; progress: {}% &middot; attempts: {}</p>\
                 <div class=\"progress\"><div style=\"width:{}%\"></div></div>\
                 <h2>Parameters</h2><pre>{}</pre>",
                job.id,
                state_badge(job.state),
                job.progress,
                job.attempts,
                job.progress,
                esc(&job.parameters.to_pretty_string()),
            );
            if let Some(reason) = &job.failure {
                body.push_str(&format!("<p><b>failure:</b> {}</p>", esc(reason)));
            }
            body.push_str(
                "<h2>Timeline</h2><table><tr><th>time</th><th>event</th><th>message</th></tr>",
            );
            for event in &job.timeline {
                body.push_str(&format!(
                    "<tr><td>{}</td><td>{}</td><td>{}</td></tr>",
                    chronos_util::clock::format_timestamp(event.at),
                    esc(&event.kind),
                    esc(&event.message),
                ));
            }
            body.push_str("</table><h2>Log</h2>");
            body.push_str(&format!(
                "<pre>{}</pre>",
                esc(if job.log.is_empty() { "(no output yet)" } else { &job.log })
            ));
            if let Some(result_id) = job.result_id {
                let result = control_.get_result(result_id)?;
                body.push_str(&format!(
                    "<h2>Result</h2><pre>{}</pre><p>archive: {} bytes</p>",
                    esc(&result.data.to_pretty_string()),
                    result.archive.len(),
                ));
            }
            Ok(page("Job detail", &body))
        })();
        result.unwrap_or_else(ui_error)
    });
}
