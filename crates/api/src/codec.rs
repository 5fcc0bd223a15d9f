//! Encode/decode codec over `chronos-json`.
//!
//! [`WireEncode`] renders a DTO through the allocation-free `write_into`
//! path; [`WireDecode`] parses one out of a `Value` with typed errors.
//! The field accessors at the bottom are the **only** place in the
//! workspace where raw `Value::get`/`as_str` pointer-chasing on entity
//! documents (system, deployment, project, experiment, evaluation, job,
//! result, user) happens: each document's fields are read by its DTO's
//! decoder, or by the accessors directly for what no DTO carries (a user's
//! password hash, a stored result's archive). What the documents nest is
//! typed as well: a system's parameter definitions and chart specs, an
//! experiment's assignments and strategy and an evaluation's frontier
//! each have one type in [`crate::v1`], decoded once, with its
//! validation, by that type's [`WireDecode`].

use crate::error::WireError;
use chronos_json::Value;
use chronos_util::Id;

/// A type with a canonical wire representation.
pub trait WireEncode {
    /// Builds the wire `Value` (maps are written in insertion order, so the
    /// implementation fixes the canonical key order).
    fn to_value(&self) -> Value;

    /// Appends the compact JSON encoding to `out` without intermediate
    /// allocations beyond the `Value` tree itself.
    fn encode_into(&self, out: &mut String) {
        self.to_value().write_into(out);
    }

    /// The compact JSON encoding as a string.
    fn encode(&self) -> String {
        let mut out = String::new();
        self.encode_into(&mut out);
        out
    }
}

/// A type that can be decoded from its wire representation.
pub trait WireDecode: Sized {
    /// Decodes from a parsed `Value`.
    fn decode(value: &Value) -> Result<Self, WireError>;

    /// Parses and decodes a raw JSON body.
    fn decode_slice(bytes: &[u8]) -> Result<Self, WireError> {
        let text = String::from_utf8_lossy(bytes);
        let value =
            chronos_json::parse(&text).map_err(|e| WireError::MalformedBody(e.to_string()))?;
        Self::decode(&value)
    }
}

// ---------------------------------------------------------------------------
// Field accessors (the one sanctioned pointer-chasing site)
// ---------------------------------------------------------------------------

/// Required string field.
pub fn req_str(value: &Value, field: &'static str) -> Result<String, WireError> {
    opt_str(value, field).ok_or(WireError::Missing(field))
}

/// Optional field, borrowed; `null` reads as absent.
pub fn field<'a>(value: &'a Value, field: &str) -> Option<&'a Value> {
    value.get(field).filter(|v| !v.is_null())
}

/// Optional string field, borrowed (`null`, absent and ill-typed are `None`).
pub fn str_ref<'a>(value: &'a Value, field: &str) -> Option<&'a str> {
    value.get(field).and_then(Value::as_str)
}

/// Optional string field (`null` and absent are both `None`).
pub fn opt_str(value: &Value, field: &str) -> Option<String> {
    str_ref(value, field).map(str::to_string)
}

/// Optional string field with a default for absent/`null`.
pub fn str_or(value: &Value, field: &str, default: &str) -> String {
    opt_str(value, field).unwrap_or_else(|| default.to_string())
}

/// Required id field; absent or `null` renders `missing field`, present but
/// not a string or unparsable `bad <field>`.
pub fn req_id(value: &Value, field: &'static str) -> Result<Id, WireError> {
    opt_id(value, field)?.ok_or(WireError::Missing(field))
}

/// Optional id field; present-but-unparsable is an error.
pub fn opt_id(value: &Value, field: &'static str) -> Result<Option<Id>, WireError> {
    let Some(v) = self::field(value, field) else { return Ok(None) };
    let raw = v.as_str().ok_or(WireError::BadField(field))?;
    Id::parse_base32(raw).map(Some).map_err(|_| WireError::BadField(field))
}

/// Optional array of ids; absent/`null` → empty, any unparsable element
/// fails with `bad` as the message.
pub fn ids_or_empty(value: &Value, field: &str, bad: &'static str) -> Result<Vec<Id>, WireError> {
    let Some(items) = value.get(field).and_then(Value::as_array) else { return Ok(Vec::new()) };
    let id = |item: &Value| item.as_str().and_then(|raw| Id::parse_base32(raw).ok());
    items.iter().map(|item| id(item).ok_or_else(|| WireError::Invalid(bad.into()))).collect()
}

/// Required boolean field; renders `missing boolean "<field>"` when absent
/// or ill-typed (legacy phrasing for `POST /deployments/:id/active`).
pub fn req_bool(value: &Value, field: &'static str) -> Result<bool, WireError> {
    value
        .get(field)
        .and_then(Value::as_bool)
        .ok_or(WireError::MissingTyped { field, ty: "boolean" })
}

/// Optional unsigned integer; present-but-ill-typed is an error.
pub fn opt_u64(value: &Value, field: &'static str) -> Result<Option<u64>, WireError> {
    let Some(v) = self::field(value, field) else { return Ok(None) };
    v.as_u64().map(Some).ok_or(WireError::OutOfRange { field, expected: "an unsigned integer" })
}

/// Optional unsigned integer clamped to `u64` with absent/`null` → `None`,
/// silently ignoring ill-typed values (legacy-lenient decode paths only).
pub fn lenient_u64(value: &Value, field: &str) -> Option<u64> {
    value.get(field).and_then(Value::as_u64)
}

/// Optional field cloned out of the document.
pub fn opt_value(value: &Value, field: &str) -> Option<Value> {
    self::field(value, field).cloned()
}

/// Required field cloned out of the document.
pub fn req_value(value: &Value, field: &'static str) -> Result<Value, WireError> {
    opt_value(value, field).ok_or(WireError::Missing(field))
}

/// Optional array field decoded element-wise; absent, `null` or not an
/// array → empty, and the first element that fails fails the field.
pub fn list_or_empty<T>(
    value: &Value,
    field: &str,
    decode: fn(&Value) -> Result<T, WireError>,
) -> Result<Vec<T>, WireError> {
    let Some(items) = value.get(field).and_then(Value::as_array) else { return Ok(Vec::new()) };
    items.iter().map(decode).collect()
}

/// Optional array field, cloned element-wise; absent/`null` → empty.
pub fn arr_or_empty(value: &Value, field: &str) -> Vec<Value> {
    value.get(field).and_then(Value::as_array).cloned().unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronos_json::obj;

    #[test]
    fn req_id_tells_a_missing_field_from_a_bad_one() {
        let id = Id::generate();
        let render = |doc: Value| req_id(&doc, "experiment_id").map_err(|e| e.to_string());
        assert_eq!(render(obj! {"experiment_id" => id.to_base32()}), Ok(id));
        assert_eq!(render(obj! {}), Err("missing field \"experiment_id\"".to_string()));
        assert_eq!(
            render(obj! {"experiment_id" => Value::Null}),
            Err("missing field \"experiment_id\"".to_string())
        );
        for present in [Value::from(42), Value::from(true), Value::from("not-an-id")] {
            assert_eq!(render(obj! {"experiment_id" => present}), Err("bad experiment_id".into()));
        }
    }
}
