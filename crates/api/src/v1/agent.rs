//! Agent-protocol DTOs: claim, heartbeat, result upload, failure report.
//!
//! These bodies ride the hot path between every agent and the control
//! server, so the encoders go through `write_into` and the result upload
//! keeps its hand-framed streaming shape (the archive is base64-framed
//! without building an intermediate `Value` tree).

use crate::codec::{self, WireDecode, WireEncode};
use crate::error::WireError;
use crate::state::JobState;
use chronos_json::{obj, Map, Value};
use chronos_util::encode::{base64_decode, base64_encode};
use chronos_util::Id;

/// `POST /api/v1/agent/claim`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClaimRequest {
    pub deployment_id: Id,
    /// Fencing/idempotency key minted by the agent (PR 3 semantics): a
    /// retried claim with the same key returns the same job.
    pub idempotency_key: Option<String>,
}

impl WireEncode for ClaimRequest {
    fn to_value(&self) -> Value {
        let mut map = Map::new();
        map.insert("deployment_id".into(), Value::from(self.deployment_id.to_base32()));
        if let Some(key) = &self.idempotency_key {
            map.insert("idempotency_key".into(), Value::from(key.as_str()));
        }
        Value::Object(map)
    }
}

impl WireDecode for ClaimRequest {
    fn decode(value: &Value) -> Result<Self, WireError> {
        Ok(Self {
            deployment_id: codec::req_id(value, "deployment_id")?,
            idempotency_key: codec::opt_str(value, "idempotency_key"),
        })
    }
}

/// The agent-side projection of a claim response (a full job document).
/// Only the fields the runtime needs are decoded.
#[derive(Debug, Clone, PartialEq)]
pub struct ClaimedJob {
    pub id: Id,
    pub evaluation_id: Id,
    pub parameters: Value,
    /// The attempt number doubling as the fencing token for heartbeats,
    /// result uploads, and failure reports.
    pub attempts: u32,
    /// Resource budget the watchdog enforces; absent means unbudgeted.
    pub budget: Option<crate::v1::JobBudget>,
}

impl WireEncode for ClaimedJob {
    fn to_value(&self) -> Value {
        let mut doc = obj! {
            "id" => self.id.to_base32(),
            "evaluation_id" => self.evaluation_id.to_base32(),
            "parameters" => self.parameters.clone(),
            "attempts" => self.attempts as i64,
        };
        if let Some(budget) = &self.budget {
            doc.set("budget", budget.to_value());
        }
        doc
    }
}

impl WireDecode for ClaimedJob {
    fn decode(value: &Value) -> Result<Self, WireError> {
        Ok(Self {
            id: codec::req_id(value, "id")?,
            evaluation_id: codec::req_id(value, "evaluation_id")?,
            parameters: value.get("parameters").cloned().unwrap_or(Value::Null),
            attempts: u32::try_from(codec::lenient_u64(value, "attempts").unwrap_or(1))
                .unwrap_or(u32::MAX),
            budget: codec::field(value, "budget").map(crate::v1::JobBudget::decode).transpose()?,
        })
    }
}

/// `POST /api/v1/agent/jobs/:id/heartbeat`. Both fields are optional on
/// the wire but a present, ill-typed value is rejected — a heartbeat that
/// silently drops its fencing token would defeat the lease protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeartbeatRequest {
    pub progress: Option<u8>,
    pub attempt: Option<u32>,
}

impl WireEncode for HeartbeatRequest {
    fn to_value(&self) -> Value {
        let mut map = Map::new();
        if let Some(progress) = self.progress {
            map.insert("progress".into(), Value::from(progress as i64));
        }
        if let Some(attempt) = self.attempt {
            map.insert("attempt".into(), Value::from(attempt as i64));
        }
        Value::Object(map)
    }
}

impl WireDecode for HeartbeatRequest {
    fn decode(value: &Value) -> Result<Self, WireError> {
        let progress = match codec::opt_u64(value, "progress")? {
            None => None,
            Some(p) if p <= 100 => Some(p as u8),
            Some(_) => {
                return Err(WireError::OutOfRange {
                    field: "progress",
                    expected: "an integer in 0..=100",
                })
            }
        };
        let attempt = codec::opt_u64(value, "attempt")?
            .map(|a| {
                u32::try_from(a).map_err(|_| WireError::OutOfRange {
                    field: "attempt",
                    expected: "a 32-bit unsigned integer",
                })
            })
            .transpose()?;
        Ok(Self { progress, attempt })
    }
}

/// Heartbeat acknowledgement: the authoritative state and progress as the
/// control server sees them (the agent uses `state` to detect aborts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeartbeatAck {
    pub state: JobState,
    pub progress: u8,
}

impl WireEncode for HeartbeatAck {
    fn to_value(&self) -> Value {
        obj! {
            "state" => self.state.as_str(),
            "progress" => self.progress as i64,
        }
    }
}

impl WireDecode for HeartbeatAck {
    fn decode(value: &Value) -> Result<Self, WireError> {
        let state_name = codec::req_str(value, "state")?;
        Ok(Self {
            state: JobState::parse(&state_name).ok_or(WireError::BadField("state"))?,
            progress: codec::lenient_u64(value, "progress").unwrap_or(0).min(100) as u8,
        })
    }
}

/// `POST /api/v1/agent/jobs/:id/result`. The canonical encode is the
/// hand-rolled frame (`data`, `archive_b64`, `attempt`, `idempotency_key`)
/// so large archives never pass through a `Value` tree.
#[derive(Debug, Clone, PartialEq)]
pub struct UploadResultRequest {
    pub data: Value,
    pub archive: Vec<u8>,
    pub attempt: Option<u32>,
    pub idempotency_key: Option<String>,
}

impl WireEncode for UploadResultRequest {
    fn to_value(&self) -> Value {
        let mut map = Map::new();
        map.insert("data".into(), self.data.clone());
        map.insert("archive_b64".into(), Value::from(base64_encode(&self.archive)));
        if let Some(attempt) = self.attempt {
            map.insert("attempt".into(), Value::from(attempt as i64));
        }
        if let Some(key) = &self.idempotency_key {
            map.insert("idempotency_key".into(), Value::from(key.as_str()));
        }
        Value::Object(map)
    }

    /// Streaming frame: identical bytes to `to_value()` + `write_into`,
    /// without cloning `data` or materialising the archive twice.
    fn encode_into(&self, out: &mut String) {
        write_upload_frame(
            out,
            &self.data,
            &self.archive,
            self.attempt,
            self.idempotency_key.as_deref(),
        );
    }
}

/// Writes the result-upload frame from borrowed parts. This is the one
/// definition of the upload body: agents with only `&Value`/`&[u8]` in hand
/// stream through here without constructing an [`UploadResultRequest`].
pub fn write_upload_frame(
    out: &mut String,
    data: &Value,
    archive: &[u8],
    attempt: Option<u32>,
    idempotency_key: Option<&str>,
) {
    out.push_str("{\"data\":");
    data.write_into(out);
    out.push_str(",\"archive_b64\":");
    chronos_json::write_string(out, &base64_encode(archive));
    if let Some(attempt) = attempt {
        out.push_str(",\"attempt\":");
        out.push_str(&attempt.to_string());
    }
    if let Some(key) = idempotency_key {
        out.push_str(",\"idempotency_key\":");
        chronos_json::write_string(out, key);
    }
    out.push('}');
}

impl WireDecode for UploadResultRequest {
    fn decode(value: &Value) -> Result<Self, WireError> {
        let data = value
            .get("data")
            .cloned()
            .ok_or_else(|| WireError::Invalid("result needs \"data\"".into()))?;
        let archive = match value.get("archive_b64").and_then(Value::as_str) {
            Some(b64) => base64_decode(b64).ok_or(WireError::BadField("archive_b64"))?,
            None => Vec::new(),
        };
        let attempt =
            codec::lenient_u64(value, "attempt").map(|a| u32::try_from(a).unwrap_or(u32::MAX));
        Ok(Self {
            data,
            archive,
            attempt,
            idempotency_key: codec::opt_str(value, "idempotency_key"),
        })
    }
}

/// `POST /api/v1/agent/jobs/:id/fail`. `reason` is required — a failure
/// report without one used to silently become a canned string, which made
/// post-mortems useless.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailRequest {
    pub reason: String,
    pub attempt: Option<u32>,
}

impl WireEncode for FailRequest {
    fn to_value(&self) -> Value {
        let mut map = Map::new();
        map.insert("reason".into(), Value::from(self.reason.as_str()));
        if let Some(attempt) = self.attempt {
            map.insert("attempt".into(), Value::from(attempt as i64));
        }
        Value::Object(map)
    }
}

impl WireDecode for FailRequest {
    fn decode(value: &Value) -> Result<Self, WireError> {
        Ok(Self {
            reason: codec::req_str(value, "reason")?,
            attempt: codec::opt_u64(value, "attempt")?
                .map(|a| {
                    u32::try_from(a).map_err(|_| WireError::OutOfRange {
                        field: "attempt",
                        expected: "a 32-bit unsigned integer",
                    })
                })
                .transpose()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upload_frame_matches_value_tree_encoding() {
        let request = UploadResultRequest {
            data: obj! { "ops" => 12.5, "note" => "q\"uote" },
            archive: vec![1, 2, 3, 4, 5],
            attempt: Some(3),
            idempotency_key: Some("key-1".into()),
        };
        let mut framed = String::new();
        request.encode_into(&mut framed);
        assert_eq!(framed, request.to_value().to_string());

        let bare = UploadResultRequest {
            data: Value::Null,
            archive: Vec::new(),
            attempt: None,
            idempotency_key: None,
        };
        let mut framed = String::new();
        bare.encode_into(&mut framed);
        assert_eq!(framed, bare.to_value().to_string());
    }
}
