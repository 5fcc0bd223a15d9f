//! The frozen legacy API: `/api/v0`.
//!
//! The paper (§2.2) makes API versioning a feature: "This allows new
//! clients to simultaneously use the newly developed features while other
//! clients still use older versions of the REST API." `v0` is the
//! demonstration of that contract — a small read-only subset with the
//! *original* field names (`status` instead of `state`, `percent` instead
//! of `progress`) that keeps working unchanged next to `v1`. Its wire
//! shapes are frozen in [`chronos_api::v0`].

use std::sync::Arc;

use chronos_api::{v0, ApiVersion, WireEncode};
use chronos_core::{ChronosControl, CoreError};
use chronos_http::{Response, Router};
use chronos_util::Id;

use crate::error_response;

/// Mounts the frozen v0 routes. The wire shapes are frozen; the server's
/// deadline check (made by the transport, for every route) only adds a
/// new (never-before-seen) 504 refusal, which legacy clients that do not
/// send `X-Chronos-Deadline-Ms` can never trigger.
pub fn mount(router: &mut Router, control: Arc<ChronosControl>) {
    router.get("/api/v0/version", |_req, _p| Response::json(&ApiVersion::V0.version_body()));

    // v0 predates sessions: job status polling is unauthenticated (ids are
    // unguessable 128-bit tokens), mirroring early Chronos deployments.
    let control_ = Arc::clone(&control);
    router.get("/api/v0/jobs/:id", move |_req, p| {
        let result = (|| {
            let id = p
                .get("id")
                .and_then(|s| Id::parse_base32(s).ok())
                .ok_or_else(|| CoreError::Invalid("invalid job id".into()))?;
            let job = control_.get_job(id)?;
            // The v0 wire shape, kept bit-for-bit stable.
            let status = v0::JobStatusV0 {
                id: job.id,
                status: job.state,
                percent: job.progress,
                evaluation: job.evaluation_id,
            };
            Ok(Response::json(&status.to_value()))
        })();
        result.unwrap_or_else(error_response)
    });

    let control_ = Arc::clone(&control);
    router.get("/api/v0/evaluations/:id/status", move |_req, p| {
        let result = (|| {
            let id = p
                .get("id")
                .and_then(|s| Id::parse_base32(s).ok())
                .ok_or_else(|| CoreError::Invalid("invalid evaluation id".into()))?;
            let status = control_.evaluation_status(id)?;
            let body = v0::EvaluationStatusV0 {
                id,
                // v0 predates lazy evaluations: unmaterialized points are
                // still open work, so they fold into `open`.
                open: status.scheduled + status.running + status.remaining.unwrap_or(0),
                // v0 also predates quarantine: a quarantined job is settled
                // work, so it folds into `closed` like any other failure.
                closed: status.finished + status.aborted + status.failed + status.quarantined,
                percent: status.progress_percent(),
            };
            Ok(Response::json(&body.to_value()))
        })();
        result.unwrap_or_else(error_response)
    });
}
