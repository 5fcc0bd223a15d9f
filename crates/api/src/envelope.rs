//! The typed error envelope: `{"error":{"code":...,"message":...}}`.
//!
//! Two code shapes exist on the wire today and both are preserved:
//! numeric codes mirror the HTTP status (`{"code":400,...}`), while named
//! codes carry protocol-level conditions (`{"code":"lease_lost",...}`).

use crate::codec::{WireDecode, WireEncode};
use crate::error::WireError;
use chronos_json::{obj, Value};

/// The named code a control server sends when a fencing check rejects a
/// stale agent (HTTP 409 + this code distinguishes lease loss from ordinary
/// conflicts).
pub const CODE_LEASE_LOST: &str = "lease_lost";

/// Named code on `429` responses shed by admission control (the string
/// constant lives in `chronos-http` because the server emits the envelope
/// from its accept thread, below this crate; re-exported here as the
/// contract's source of truth).
pub const CODE_OVERLOADED: &str = chronos_http::CODE_OVERLOADED;

/// Named code on `503` responses refused while the server drains.
pub const CODE_DRAINING: &str = chronos_http::CODE_DRAINING;

/// Named code on `504` responses whose deadline budget ran out server-side.
pub const CODE_DEADLINE_EXCEEDED: &str = chronos_http::CODE_DEADLINE_EXCEEDED;

/// Named code a cluster node sends when it cannot serve the request in its
/// current role: writes on a follower/candidate, or follower reads past the
/// staleness bound. The envelope's `leader` field, when present, carries
/// the base URL of the node currently believed to lead — clients re-aim
/// there instead of guessing.
pub const CODE_NOT_LEADER: &str = "not_leader";

/// An error code: the HTTP status echoed numerically, or a named
/// protocol condition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ErrorCode {
    Status(u16),
    Named(String),
}

/// The standard error body for every non-2xx JSON response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorEnvelope {
    pub code: ErrorCode,
    pub message: String,
    /// Leader base-URL hint, only on `not_leader` refusals from cluster
    /// followers. Omitted from the wire when absent, so every pre-cluster
    /// envelope body is byte-identical to before.
    pub leader: Option<String>,
}

impl ErrorEnvelope {
    /// An envelope echoing the HTTP status numerically.
    pub fn status(status: u16, message: impl Into<String>) -> Self {
        Self { code: ErrorCode::Status(status), message: message.into(), leader: None }
    }

    /// An envelope with a named protocol code.
    pub fn named(code: impl Into<String>, message: impl Into<String>) -> Self {
        Self { code: ErrorCode::Named(code.into()), message: message.into(), leader: None }
    }

    /// The wrong-role refusal from a cluster node (sent with HTTP 503),
    /// carrying the current leader's base URL when this node knows one
    /// (mid-election there is no leader to point at).
    pub fn not_leader(message: impl Into<String>, leader: Option<String>) -> Self {
        Self { code: ErrorCode::Named(CODE_NOT_LEADER.into()), message: message.into(), leader }
    }

    /// The lease-lost envelope (sent with HTTP 409).
    pub fn lease_lost(message: impl Into<String>) -> Self {
        Self::named(CODE_LEASE_LOST, message)
    }

    /// The admission-control shed envelope (sent with HTTP 429).
    pub fn overloaded(message: impl Into<String>) -> Self {
        Self::named(CODE_OVERLOADED, message)
    }

    /// The graceful-drain refusal envelope (sent with HTTP 503).
    pub fn draining(message: impl Into<String>) -> Self {
        Self::named(CODE_DRAINING, message)
    }

    /// The deadline-budget-exhausted envelope (sent with HTTP 504).
    pub fn deadline_exceeded(message: impl Into<String>) -> Self {
        Self::named(CODE_DEADLINE_EXCEEDED, message)
    }

    /// Whether this envelope signals a lost lease / stale fencing token.
    pub fn is_lease_lost(&self) -> bool {
        matches!(&self.code, ErrorCode::Named(code) if code == CODE_LEASE_LOST)
    }

    /// Whether this envelope signals a transient overload condition the
    /// client should retry after backing off: shed by admission control or
    /// refused during a drain (a draining server's peer is usually seconds
    /// from taking over).
    pub fn is_retryable_overload(&self) -> bool {
        matches!(
            &self.code,
            ErrorCode::Named(code) if code == CODE_OVERLOADED || code == CODE_DRAINING
        )
    }

    /// Whether this envelope signals an exhausted deadline budget.
    pub fn is_deadline_exceeded(&self) -> bool {
        matches!(&self.code, ErrorCode::Named(code) if code == CODE_DEADLINE_EXCEEDED)
    }

    /// Whether this envelope is a cluster wrong-role refusal the client
    /// should retry against the leader (the hint, when present).
    pub fn is_not_leader(&self) -> bool {
        matches!(&self.code, ErrorCode::Named(code) if code == CODE_NOT_LEADER)
    }

    /// The leader base-URL hint on a `not_leader` envelope, if the
    /// refusing node knows who leads.
    pub fn leader_hint(&self) -> Option<&str> {
        self.leader.as_deref()
    }
}

impl WireEncode for ErrorEnvelope {
    fn to_value(&self) -> Value {
        let code = match &self.code {
            ErrorCode::Status(status) => Value::from(*status as i64),
            ErrorCode::Named(name) => Value::from(name.clone()),
        };
        let mut inner = obj! {
            "code" => code,
            "message" => self.message.clone(),
        };
        if let (Value::Object(map), Some(leader)) = (&mut inner, &self.leader) {
            map.insert("leader".into(), Value::from(leader.clone()));
        }
        obj! { "error" => inner }
    }
}

impl WireDecode for ErrorEnvelope {
    /// Tolerant decode: accepts either code shape; a missing message falls
    /// back to the empty string so transports can still surface the status.
    fn decode(value: &Value) -> Result<Self, WireError> {
        let inner = value.get("error").ok_or(WireError::Missing("error"))?;
        let code = match inner.get("code") {
            Some(v) => {
                if let Some(n) = v.as_u64() {
                    ErrorCode::Status(n.min(u16::MAX as u64) as u16)
                } else if let Some(s) = v.as_str() {
                    ErrorCode::Named(s.to_string())
                } else {
                    return Err(WireError::BadField("error.code"));
                }
            }
            None => return Err(WireError::Missing("error.code")),
        };
        let message = crate::codec::str_or(inner, "message", "");
        let leader = inner.get("leader").and_then(Value::as_str).map(str::to_string);
        Ok(Self { code, message, leader })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_code_encodes_as_integer() {
        let body = ErrorEnvelope::status(400, "missing field \"username\"").encode();
        assert_eq!(
            body,
            "{\"error\":{\"code\":400,\"message\":\"missing field \\\"username\\\"\"}}"
        );
    }

    #[test]
    fn named_code_encodes_as_string() {
        let body = ErrorEnvelope::lease_lost("heartbeat rejected: stale attempt").encode();
        assert_eq!(
            body,
            "{\"error\":{\"code\":\"lease_lost\",\"message\":\"heartbeat rejected: stale attempt\"}}"
        );
    }

    #[test]
    fn overload_codes_roundtrip_and_classify() {
        let shed = ErrorEnvelope::overloaded("queue full");
        assert_eq!(
            shed.encode(),
            "{\"error\":{\"code\":\"overloaded\",\"message\":\"queue full\"}}"
        );
        assert!(shed.is_retryable_overload());
        let draining = ErrorEnvelope::draining("shutting down");
        assert!(draining.is_retryable_overload());
        let deadline = ErrorEnvelope::deadline_exceeded("budget spent");
        assert!(deadline.is_deadline_exceeded());
        assert!(!deadline.is_retryable_overload(), "a spent budget must not be blindly retried");
        assert!(!ErrorEnvelope::status(503, "plain 503").is_retryable_overload());
        for envelope in [shed, draining, deadline] {
            assert_eq!(ErrorEnvelope::decode(&envelope.to_value()).unwrap(), envelope);
        }
    }

    #[test]
    fn shed_path_and_contract_agree_on_the_wire_shape() {
        // The server sheds a request via chronos_http::Response::error_named —
        // that body must decode into the same typed envelope this crate
        // defines, or agents would see untyped errors exactly when the
        // server is too loaded to be polite.
        let response = chronos_http::Response::error_named(
            chronos_http::Status::TOO_MANY_REQUESTS,
            CODE_OVERLOADED,
            "request queue full; retry later",
        );
        let decoded = ErrorEnvelope::decode(&response.json_body().unwrap()).unwrap();
        assert_eq!(decoded, ErrorEnvelope::overloaded("request queue full; retry later"));
    }

    #[test]
    fn not_leader_carries_an_optional_hint() {
        let hinted =
            ErrorEnvelope::not_leader("writes go to the leader", Some("http://n2:8080".into()));
        assert_eq!(
            hinted.encode(),
            "{\"error\":{\"code\":\"not_leader\",\"message\":\"writes go to the leader\",\
             \"leader\":\"http://n2:8080\"}}"
        );
        assert!(hinted.is_not_leader());
        assert_eq!(hinted.leader_hint(), Some("http://n2:8080"));
        assert!(!hinted.is_retryable_overload(), "not_leader re-aims, it does not blind-retry");
        let decoded = ErrorEnvelope::decode(&hinted.to_value()).unwrap();
        assert_eq!(decoded, hinted);
        // Mid-election: no hint, and the wire omits the field entirely.
        let unhinted = ErrorEnvelope::not_leader("election in progress", None);
        assert_eq!(
            unhinted.encode(),
            "{\"error\":{\"code\":\"not_leader\",\"message\":\"election in progress\"}}"
        );
        assert_eq!(ErrorEnvelope::decode(&unhinted.to_value()).unwrap().leader_hint(), None);
    }

    #[test]
    fn decode_roundtrips_both_shapes() {
        for envelope in [
            ErrorEnvelope::status(404, "no such job"),
            ErrorEnvelope::lease_lost("claim rejected: job re-scheduled"),
        ] {
            let decoded = ErrorEnvelope::decode(&envelope.to_value()).unwrap();
            assert_eq!(decoded, envelope);
        }
        assert!(ErrorEnvelope::lease_lost("x").is_lease_lost());
        assert!(!ErrorEnvelope::status(409, "x").is_lease_lost());
    }
}
