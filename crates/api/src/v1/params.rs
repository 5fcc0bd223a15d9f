//! The parameter vocabulary of a system and its experiments.
//!
//! Chronos Control "provides several parameter [...] types. Parameter types
//! include Boolean, check box, and value types as well [as] intervals and
//! ratios" (paper, §2.2). A system declares its parameters as
//! [`ParamDef`]s; an experiment assigns each one either a single value or a
//! *sweep* over several values ([`ParamAssignments`]). These types are the
//! documents themselves: each is decoded once, straight from the wire or
//! the store, and validated while it is decoded. Expanding assignments into
//! an evaluation space is `chronos-core`'s job.

use crate::codec::{WireDecode, WireEncode};
use crate::error::WireError;
use chronos_json::{obj, Map, Value};

fn invalid(message: impl Into<String>) -> WireError {
    WireError::Invalid(message.into())
}

/// The type of a system parameter.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamType {
    /// `true` / `false`.
    Boolean,
    /// One or more choices from a fixed option list.
    Checkbox {
        /// The selectable options.
        options: Vec<String>,
    },
    /// A free-form scalar (string or number).
    Value,
    /// An integer range with a step; sweeping it yields every point.
    Interval {
        /// Inclusive lower bound.
        min: i64,
        /// Inclusive upper bound.
        max: i64,
        /// Step between points (≥ 1).
        step: i64,
    },
    /// A fraction in `[0, 1]` (e.g. a read/write ratio).
    Ratio,
}

impl ParamType {
    /// The lowercase type tag used in JSON definitions.
    pub fn tag(&self) -> &'static str {
        match self {
            ParamType::Boolean => "boolean",
            ParamType::Checkbox { .. } => "checkbox",
            ParamType::Value => "value",
            ParamType::Interval { .. } => "interval",
            ParamType::Ratio => "ratio",
        }
    }

    /// Checks a single assigned value against this type.
    pub fn validate_value(&self, value: &Value) -> Result<(), WireError> {
        let ok = match self {
            ParamType::Boolean => value.as_bool().is_some(),
            ParamType::Checkbox { options } => {
                value.as_str().map(|s| options.iter().any(|o| o == s)).unwrap_or(false)
            }
            ParamType::Value => {
                matches!(value, Value::String(_) | Value::Number(_) | Value::Bool(_))
            }
            ParamType::Interval { min, max, step } => value
                .as_i64()
                .map(|v| {
                    v >= *min
                        && v <= *max
                        && (i128::from(v) - i128::from(*min)) % step_of(*step) == 0
                })
                .unwrap_or(false),
            ParamType::Ratio => value.as_f64().map(|v| (0.0..=1.0).contains(&v)).unwrap_or(false),
        };
        if ok {
            Ok(())
        } else {
            Err(invalid(format!("value {value} is not a valid {}", self.tag())))
        }
    }

    /// How many points a full sweep over this type has; `None` for types
    /// that cannot be fully swept. Counted, not walked: no bounds or step
    /// overflow it.
    pub fn sweep_len(&self) -> Option<u128> {
        match self {
            ParamType::Boolean => Some(2),
            ParamType::Checkbox { options } => Some(options.len() as u128),
            ParamType::Interval { min, max, step } => {
                let span = i128::from(*max) - i128::from(*min);
                Some(if span < 0 { 0 } else { (span / step_of(*step)) as u128 + 1 })
            }
            ParamType::Value | ParamType::Ratio => None,
        }
    }

    /// All points of a full sweep over this type (used when an experiment
    /// assigns `{"sweep": "all"}`). Only finite types can be fully swept,
    /// and only into at most `max_points` points: the count is checked
    /// before a single point is built.
    pub fn sweep_all(&self, max_points: u64) -> Result<Vec<Value>, WireError> {
        let Some(len) = self.sweep_len() else {
            return Err(invalid(format!(
                "parameter type {} cannot be fully swept; list explicit values",
                self.tag()
            )));
        };
        if len > u128::from(max_points) {
            return Err(invalid(format!("evaluation space exceeds {max_points} points")));
        }
        Ok(match self {
            ParamType::Boolean => vec![Value::Bool(false), Value::Bool(true)],
            ParamType::Checkbox { options } => {
                options.iter().map(|o| Value::from(o.as_str())).collect()
            }
            ParamType::Interval { min, step, .. } => (0..len)
                .map(|i| {
                    let point = i128::from(*min) + i as i128 * step_of(*step);
                    Value::from(point as i64)
                })
                .collect(),
            ParamType::Value | ParamType::Ratio => unreachable!("sweep_len refused it"),
        })
    }
}

/// An interval's step as the divisor of its point arithmetic. Decoding
/// refuses a step below 1; a type built in code with one counts as step 1
/// instead of dividing by zero.
fn step_of(step: i64) -> i128 {
    i128::from(step.max(1))
}

impl WireEncode for ParamType {
    fn to_value(&self) -> Value {
        match self {
            ParamType::Checkbox { options } => obj! {
                "type" => "checkbox",
                "options" => Value::Array(options.iter().map(|o| Value::from(o.as_str())).collect()),
            },
            ParamType::Interval { min, max, step } => obj! {
                "type" => "interval",
                "min" => *min,
                "max" => *max,
                "step" => *step,
            },
            other => obj! { "type" => other.tag() },
        }
    }
}

impl WireDecode for ParamType {
    fn decode(value: &Value) -> Result<Self, WireError> {
        let tag = value
            .get("type")
            .and_then(Value::as_str)
            .ok_or_else(|| invalid("parameter type missing \"type\""))?;
        match tag {
            "boolean" => Ok(ParamType::Boolean),
            "value" => Ok(ParamType::Value),
            "ratio" => Ok(ParamType::Ratio),
            "checkbox" => {
                let options = value
                    .get("options")
                    .and_then(Value::as_array)
                    .ok_or_else(|| invalid("checkbox needs \"options\""))?
                    .iter()
                    .map(|o| {
                        o.as_str()
                            .map(str::to_string)
                            .ok_or_else(|| invalid("checkbox options must be strings"))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                if options.is_empty() {
                    return Err(invalid("checkbox needs at least one option"));
                }
                Ok(ParamType::Checkbox { options })
            }
            "interval" => {
                let get = |k: &str| {
                    value
                        .get(k)
                        .and_then(Value::as_i64)
                        .ok_or_else(|| invalid(format!("interval needs integer \"{k}\"")))
                };
                let (min, max) = (get("min")?, get("max")?);
                let step = value.get("step").and_then(Value::as_i64).unwrap_or(1);
                if step < 1 {
                    return Err(invalid("interval step must be ≥ 1"));
                }
                if max < min {
                    return Err(invalid("interval max must be ≥ min"));
                }
                Ok(ParamType::Interval { min, max, step })
            }
            other => Err(invalid(format!("unknown parameter type {other:?}"))),
        }
    }
}

/// A named parameter a system accepts. Its document is the type's fields
/// followed by `name`, `description` and `default`.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamDef {
    /// Parameter name (unique within a system).
    pub name: String,
    /// Human-readable description shown in the experiment form.
    pub description: String,
    /// The type.
    pub param_type: ParamType,
    /// Default value when an experiment leaves it unassigned.
    pub default: Value,
}

impl ParamDef {
    /// Creates a definition, validating the default against the type.
    pub fn new(
        name: impl Into<String>,
        description: impl Into<String>,
        param_type: ParamType,
        default: Value,
    ) -> Result<Self, WireError> {
        param_type.validate_value(&default)?;
        Ok(ParamDef { name: name.into(), description: description.into(), param_type, default })
    }
}

impl WireEncode for ParamDef {
    fn to_value(&self) -> Value {
        let mut j = self.param_type.to_value();
        j.set("name", self.name.as_str());
        j.set("description", self.description.as_str());
        j.set("default", self.default.clone());
        j
    }
}

impl WireDecode for ParamDef {
    fn decode(value: &Value) -> Result<Self, WireError> {
        let name = value
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| invalid("parameter needs a \"name\""))?;
        let description = value.get("description").and_then(Value::as_str).unwrap_or("");
        let param_type = ParamType::decode(value)?;
        let default = value
            .get("default")
            .cloned()
            .ok_or_else(|| invalid(format!("parameter {name} needs a default")))?;
        ParamDef::new(name, description, param_type, default)
    }
}

/// How an experiment assigns one parameter.
#[derive(Debug, Clone, PartialEq)]
pub enum Assignment {
    /// A single fixed value for all jobs.
    Fixed(Value),
    /// An explicit list of values to sweep.
    Sweep(Vec<Value>),
    /// Sweep every point the type allows (finite types only).
    SweepAll,
}

impl WireEncode for Assignment {
    fn to_value(&self) -> Value {
        match self {
            Assignment::Fixed(v) => v.clone(),
            Assignment::Sweep(values) => obj! { "sweep" => Value::Array(values.clone()) },
            Assignment::SweepAll => obj! { "sweep" => "all" },
        }
    }
}

impl WireDecode for Assignment {
    /// A bare value is `Fixed`; an object `{"sweep": [...]}` or
    /// `{"sweep": "all"}` selects a sweep.
    fn decode(value: &Value) -> Result<Self, WireError> {
        match value.get("sweep") {
            None => Ok(Assignment::Fixed(value.clone())),
            Some(Value::String(s)) if s == "all" => Ok(Assignment::SweepAll),
            Some(Value::Array(items)) if items.is_empty() => {
                Err(invalid("sweep list cannot be empty"))
            }
            Some(Value::Array(items)) => Ok(Assignment::Sweep(items.clone())),
            Some(_) => Err(invalid("\"sweep\" must be a value list or \"all\"")),
        }
    }
}

/// The full parameter assignment of an experiment, in document order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParamAssignments {
    entries: Vec<(String, Assignment)>,
}

impl ParamAssignments {
    /// Creates an empty assignment set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Assigns a fixed value.
    pub fn fix(mut self, name: &str, value: impl Into<Value>) -> Self {
        self.entries.push((name.to_string(), Assignment::Fixed(value.into())));
        self
    }

    /// Assigns an explicit sweep.
    pub fn sweep(mut self, name: &str, values: Vec<Value>) -> Self {
        self.entries.push((name.to_string(), Assignment::Sweep(values)));
        self
    }

    /// Assigns a full sweep.
    pub fn sweep_all(mut self, name: &str) -> Self {
        self.entries.push((name.to_string(), Assignment::SweepAll));
        self
    }

    /// Looks up an assignment.
    pub fn get(&self, name: &str) -> Option<&Assignment> {
        self.entries.iter().find(|(n, _)| n == name).map(|(_, a)| a)
    }

    /// The assignments in document order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Assignment)> {
        self.entries.iter().map(|(name, a)| (name.as_str(), a))
    }
}

impl WireEncode for ParamAssignments {
    fn to_value(&self) -> Value {
        let mut map = Map::with_capacity(self.entries.len());
        for (name, a) in &self.entries {
            map.insert(name.clone(), a.to_value());
        }
        Value::Object(map)
    }
}

impl WireDecode for ParamAssignments {
    /// The object `{param: assignment, ...}`.
    fn decode(value: &Value) -> Result<Self, WireError> {
        let map = value.as_object().ok_or_else(|| invalid("parameters must be an object"))?;
        let entries = map
            .iter()
            .map(|(name, v)| Ok((name.to_string(), Assignment::decode(v)?)))
            .collect::<Result<_, WireError>>()?;
        Ok(ParamAssignments { entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_schema() -> Vec<ParamDef> {
        vec![
            ParamDef::new(
                "engine",
                "storage engine",
                ParamType::Checkbox { options: vec!["wiredtiger".into(), "mmapv1".into()] },
                Value::from("wiredtiger"),
            )
            .unwrap(),
            ParamDef::new(
                "threads",
                "client threads",
                ParamType::Interval { min: 1, max: 64, step: 1 },
                Value::from(1),
            )
            .unwrap(),
            ParamDef::new(
                "compression",
                "block compression",
                ParamType::Boolean,
                Value::Bool(true),
            )
            .unwrap(),
            ParamDef::new("read_ratio", "fraction of reads", ParamType::Ratio, Value::from(0.5))
                .unwrap(),
        ]
    }

    #[test]
    fn type_json_roundtrip() {
        for t in [
            ParamType::Boolean,
            ParamType::Value,
            ParamType::Ratio,
            ParamType::Checkbox { options: vec!["a".into(), "b".into()] },
            ParamType::Interval { min: 1, max: 10, step: 2 },
        ] {
            assert_eq!(ParamType::decode(&t.to_value()).unwrap(), t);
        }
    }

    #[test]
    fn bad_type_json_rejected() {
        assert!(ParamType::decode(&obj! {"type" => "alien"}).is_err());
        assert!(ParamType::decode(&obj! {"type" => "checkbox"}).is_err());
        assert!(ParamType::decode(&obj! {"type" => "interval", "min" => 5, "max" => 1}).is_err());
        assert!(ParamType::decode(
            &obj! {"type" => "interval", "min" => 1, "max" => 5, "step" => 0}
        )
        .is_err());
    }

    #[test]
    fn value_validation() {
        let schema = demo_schema();
        assert!(schema[0].param_type.validate_value(&Value::from("mmapv1")).is_ok());
        assert!(schema[0].param_type.validate_value(&Value::from("rocksdb")).is_err());
        assert!(schema[1].param_type.validate_value(&Value::from(64)).is_ok());
        assert!(schema[1].param_type.validate_value(&Value::from(65)).is_err());
        assert!(schema[2].param_type.validate_value(&Value::Bool(false)).is_ok());
        assert!(schema[2].param_type.validate_value(&Value::from(1)).is_err());
        assert!(schema[3].param_type.validate_value(&Value::from(0.75)).is_ok());
        assert!(schema[3].param_type.validate_value(&Value::from(1.5)).is_err());
    }

    #[test]
    fn interval_values_must_be_on_step() {
        let odd = ParamType::Interval { min: 1, max: 7, step: 2 };
        for v in [1, 3, 7] {
            assert!(odd.validate_value(&Value::from(v)).is_ok(), "{v}");
        }
        for v in [2, 4, 8, -1] {
            assert!(odd.validate_value(&Value::from(v)).is_err(), "{v}");
        }
        let wide = ParamType::Interval { min: i64::MIN, max: i64::MAX, step: 3 };
        assert!(wide.validate_value(&Value::from(i64::MIN + 3)).is_ok());
        assert!(wide.validate_value(&Value::from(i64::MAX)).is_ok(), "2^64 - 1 is a multiple of 3");
        assert!(wide.validate_value(&Value::from(i64::MAX - 1)).is_err());
    }

    #[test]
    fn full_sweeps_are_counted_before_they_are_built() {
        let odd = ParamType::Interval { min: 1, max: 7, step: 2 };
        assert_eq!(odd.sweep_len(), Some(4));
        let points: Vec<Value> = [1, 3, 5, 7].into_iter().map(Value::from).collect();
        assert_eq!(odd.sweep_all(4).unwrap(), points);
        assert!(odd.sweep_all(3).is_err(), "four points exceed a cap of three");
        // A walk of `v += step` overflows past 2^62; the count does not.
        let coarse = ParamType::Interval { min: 0, max: i64::MAX, step: 1 << 62 };
        assert_eq!(coarse.sweep_all(10).unwrap(), vec![Value::from(0), Value::from(1i64 << 62)]);
        let every = ParamType::Interval { min: i64::MIN, max: i64::MAX, step: 1 };
        assert_eq!(every.sweep_len(), Some(1 << 64));
        assert!(every.sweep_all(u64::MAX).is_err());
        let huge = ParamType::Interval { min: 0, max: 1_000_000_000_000, step: 1 };
        let refused = huge.sweep_all(10_000_000).unwrap_err();
        assert_eq!(refused.to_string(), "evaluation space exceeds 10000000 points");
        assert_eq!(ParamType::Boolean.sweep_len(), Some(2));
        assert_eq!(ParamType::Ratio.sweep_len(), None);
        assert!(ParamType::Value.sweep_all(10).is_err());
    }

    #[test]
    fn assignment_json_roundtrip() {
        let a = ParamAssignments::new()
            .fix("engine", "mmapv1")
            .sweep("threads", vec![Value::from(1), Value::from(2)])
            .sweep_all("compression");
        let parsed = ParamAssignments::decode(&a.to_value()).unwrap();
        assert_eq!(parsed, a);
    }

    #[test]
    fn param_def_json_roundtrip() {
        for def in demo_schema() {
            assert_eq!(ParamDef::decode(&def.to_value()).unwrap(), def);
        }
    }

    #[test]
    fn default_must_match_type() {
        assert!(ParamDef::new("x", "", ParamType::Boolean, Value::from(3)).is_err());
    }
}
