//! Experiment parameters and evaluation-space expansion.
//!
//! Chronos Control "provides several parameter [...] types. Parameter types
//! include Boolean, check box, and value types as well [as] intervals and
//! ratios" (paper, §2.2). A system declares its parameters as
//! [`ParamDef`]s; an experiment assigns each one either a single value or a
//! *sweep* over several values; creating an evaluation expands the cartesian
//! product of all sweeps into one job per point — the paper's running
//! example ("every job would execute the benchmark for a specific number of
//! threads for each engine") is exactly a 2-parameter expansion.
//!
//! The parameter documents are `chronos-api` types, re-exported here; this
//! module owns what the control plane does with them: the [`PointSpace`]
//! and its eager oracle [`expand`], and the analysis axes
//! ([`swept_names`]).

use chronos_json::{Map, Value};

pub use chronos_api::v1::{Assignment, ParamAssignments, ParamDef, ParamType};

use crate::error::{CoreError, CoreResult};

/// Eagerly expands the assignments against a system's parameter schema
/// into the **evaluation space**: one concrete parameter object per job.
///
/// Kept as the reference enumeration (and oracle in tests): the lazy
/// [`PointSpace`] used by the scheduler must produce the identical
/// sequence via `point_at(0..total)`. The eager path keeps the historic
/// 100 000-point materialization cap.
pub fn expand(assignments: &ParamAssignments, schema: &[ParamDef]) -> CoreResult<Vec<Value>> {
    let space = PointSpace::build(assignments, schema)?;
    const MAX_JOBS: u64 = 100_000;
    let total = space.total();
    if total > MAX_JOBS {
        return Err(CoreError::Invalid(format!(
            "evaluation space has {total} points (limit {MAX_JOBS})"
        )));
    }
    let mut points = Vec::with_capacity(total as usize);
    let mut indexes = vec![0usize; space.axes.len()];
    loop {
        let mut map = Map::with_capacity(space.axes.len());
        for (axis, &i) in space.axes.iter().zip(&indexes) {
            map.insert(axis.0.clone(), axis.1[i].clone());
        }
        points.push(Value::Object(map));
        // Odometer increment, last axis fastest.
        let mut pos = space.axes.len();
        loop {
            if pos == 0 {
                return Ok(points);
            }
            pos -= 1;
            indexes[pos] += 1;
            if indexes[pos] < space.axes[pos].1.len() {
                break;
            }
            indexes[pos] = 0;
        }
    }
}

/// The names of swept (multi-valued) parameters, in assignment order —
/// these become the x-axis / series keys during analysis.
pub fn swept_names(assignments: &ParamAssignments, schema: &[ParamDef]) -> Vec<String> {
    assignments
        .iter()
        .filter(|(name, a)| match a {
            Assignment::Fixed(_) => false,
            Assignment::Sweep(vs) => vs.len() > 1,
            Assignment::SweepAll => schema
                .iter()
                .find(|d| d.name == *name)
                .and_then(|d| d.param_type.sweep_len())
                .map(|len| len > 1)
                .unwrap_or(false),
        })
        .map(|(name, _)| name.to_string())
        .collect()
}

/// The evaluation space as an **indexed point codec**: the same axes the
/// eager [`expand`] builds, but points are decoded on
/// demand by index instead of being materialized up front.
///
/// Point `i` is the mixed-radix decomposition of `i` over the axis sizes,
/// last axis fastest — exactly the odometer order of `expand`, so
/// `(0..total).map(point_at)` reproduces the eager sequence value-for-value.
/// This is what lets the scheduler treat a 10^5-point space as O(in-flight)
/// storage: only claimed points ever become job documents.
#[derive(Debug, Clone, PartialEq)]
pub struct PointSpace {
    /// Per schema parameter, in schema order: the values it takes.
    axes: Vec<(String, Vec<Value>)>,
    /// Product of all axis sizes.
    total: u64,
}

impl PointSpace {
    /// Hard cap on the *addressable* space. Far above the eager
    /// materialization cap — lazy evaluations never allocate per point, so
    /// the limit only guards against nonsensical experiment definitions.
    pub const MAX_POINTS: u64 = 10_000_000;

    /// Validates `assignments` against `schema` and builds the space.
    /// Performs the same checks the eager expansion always did (unknown
    /// parameters, per-value type validation) without materializing points.
    pub fn build(assignments: &ParamAssignments, schema: &[ParamDef]) -> CoreResult<PointSpace> {
        for (name, _) in assignments.iter() {
            if !schema.iter().any(|d| d.name == name) {
                return Err(CoreError::Invalid(format!("unknown parameter {name:?}")));
            }
        }
        let mut axes: Vec<(String, Vec<Value>)> = Vec::with_capacity(schema.len());
        let mut total: u64 = 1;
        for def in schema {
            let values = match assignments.get(&def.name) {
                None => vec![def.default.clone()],
                Some(Assignment::Fixed(v)) => vec![v.clone()],
                Some(Assignment::Sweep(vs)) => vs.clone(),
                Some(Assignment::SweepAll) => def.param_type.sweep_all(Self::MAX_POINTS)?,
            };
            for v in &values {
                def.param_type
                    .validate_value(v)
                    .map_err(|e| CoreError::Invalid(format!("parameter {:?}: {e}", def.name)))?;
            }
            total = total
                .checked_mul(values.len() as u64)
                .filter(|&t| t <= Self::MAX_POINTS)
                .ok_or_else(|| {
                    CoreError::Invalid(format!(
                        "evaluation space exceeds {} points",
                        Self::MAX_POINTS
                    ))
                })?;
            axes.push((def.name.clone(), values));
        }
        Ok(PointSpace { axes, total })
    }

    /// Number of points in the space (≥ 1: the empty product is the single
    /// all-defaults point).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Decodes point `index` into its concrete parameter object, or `None`
    /// when `index >= total()`. Mixed-radix, last axis fastest.
    pub fn point_at(&self, index: u64) -> Option<Value> {
        if index >= self.total {
            return None;
        }
        let mut map = Map::with_capacity(self.axes.len());
        let mut stride = self.total;
        for (name, values) in &self.axes {
            stride /= values.len() as u64;
            let i = (index / stride) % values.len() as u64;
            map.insert(name.clone(), values[i as usize].clone());
        }
        Some(Value::Object(map))
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
    fn paper_example_expansion() {
        // "compare the performance of two storage engines [...] for
        // different numbers of threads; every job would execute the
        // benchmark for a specific number of threads for each engine."
        let schema = demo_schema();
        let assignments = ParamAssignments::new()
            .sweep_all("engine")
            .sweep("threads", vec![Value::from(1), Value::from(2), Value::from(4)]);
        let points = expand(&assignments, &schema).unwrap();
        assert_eq!(points.len(), 6); // 2 engines x 3 thread counts
                                     // Defaults filled in:
        assert_eq!(points[0].get("compression"), Some(&Value::Bool(true)));
        assert_eq!(points[0].get("read_ratio"), Some(&Value::from(0.5)));
        // Schema order, last axis fastest:
        assert_eq!(points[0].get("engine").unwrap().as_str(), Some("wiredtiger"));
        assert_eq!(points[0].get("threads").unwrap().as_i64(), Some(1));
        assert_eq!(points[1].get("threads").unwrap().as_i64(), Some(2));
        assert_eq!(points[3].get("engine").unwrap().as_str(), Some("mmapv1"));
        // Swept names:
        assert_eq!(swept_names(&assignments, &schema), vec!["engine", "threads"]);
    }

    #[test]
    fn single_point_when_everything_fixed() {
        let schema = demo_schema();
        let assignments = ParamAssignments::new().fix("engine", "mmapv1").fix("threads", 8);
        let points = expand(&assignments, &schema).unwrap();
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].get("engine").unwrap().as_str(), Some("mmapv1"));
        assert_eq!(points[0].get("threads").unwrap().as_i64(), Some(8));
    }

    #[test]
    fn interval_sweep_all_respects_step() {
        let def = ParamDef::new(
            "n",
            "",
            ParamType::Interval { min: 2, max: 10, step: 3 },
            Value::from(2),
        )
        .unwrap();
        let points = expand(&ParamAssignments::new().sweep_all("n"), &[def]).unwrap();
        let values: Vec<i64> =
            points.iter().map(|p| p.get("n").unwrap().as_i64().unwrap()).collect();
        assert_eq!(values, vec![2, 5, 8]);
    }

    #[test]
    fn unknown_parameter_rejected() {
        let schema = demo_schema();
        let err = expand(&ParamAssignments::new().fix("warp", 9), &schema);
        assert!(matches!(err, Err(CoreError::Invalid(_))));
    }

    #[test]
    fn invalid_sweep_value_rejected() {
        let schema = demo_schema();
        let assignments =
            ParamAssignments::new().sweep("threads", vec![Value::from(1), Value::from(9999)]);
        let err = expand(&assignments, &schema);
        assert!(matches!(err, Err(CoreError::Invalid(_))));
    }

    #[test]
    fn sweep_all_on_unbounded_type_rejected() {
        let def = ParamDef::new("name", "", ParamType::Value, Value::from("x")).unwrap();
        let err = expand(&ParamAssignments::new().sweep_all("name"), &[def]);
        assert!(matches!(err, Err(CoreError::Invalid(_))));
    }

    #[test]
    fn space_size_limit_enforced() {
        let defs: Vec<ParamDef> = (0..4)
            .map(|i| {
                ParamDef::new(
                    format!("p{i}"),
                    "",
                    ParamType::Interval { min: 0, max: 99, step: 1 },
                    Value::from(0),
                )
                .unwrap()
            })
            .collect();
        let mut a = ParamAssignments::new();
        for i in 0..4 {
            a = a.sweep_all(&format!("p{i}"));
        }
        assert!(matches!(expand(&a, &defs), Err(CoreError::Invalid(_)))); // 100^4 points
    }

    #[test]
    fn point_space_matches_eager_expansion() {
        // The oracle: lazy nth-point decode must reproduce the eager
        // odometer sequence value-for-value, for several axis shapes.
        let schema = demo_schema();
        for assignments in [
            ParamAssignments::new()
                .sweep_all("engine")
                .sweep("threads", vec![Value::from(1), Value::from(2), Value::from(4)]),
            ParamAssignments::new().fix("engine", "mmapv1").fix("threads", 8),
            ParamAssignments::new()
                .sweep_all("engine")
                .sweep_all("compression")
                .sweep("read_ratio", vec![Value::from(0.1), Value::from(0.9)]),
            ParamAssignments::new(),
        ] {
            let eager = expand(&assignments, &schema).unwrap();
            let space = PointSpace::build(&assignments, &schema).unwrap();
            assert_eq!(space.total() as usize, eager.len());
            let lazy: Vec<Value> = (0..space.total()).map(|i| space.point_at(i).unwrap()).collect();
            assert_eq!(lazy, eager);
            assert_eq!(space.point_at(space.total()), None);
        }
    }

    #[test]
    fn point_space_random_access_is_o1_on_huge_spaces() {
        // 4 axes of 50 points = 6.25M points: addressable lazily, far past
        // the eager materialization cap.
        let defs: Vec<ParamDef> = (0..4)
            .map(|i| {
                ParamDef::new(
                    format!("p{i}"),
                    "",
                    ParamType::Interval { min: 0, max: 49, step: 1 },
                    Value::from(0),
                )
                .unwrap()
            })
            .collect();
        let mut a = ParamAssignments::new();
        for i in 0..4 {
            a = a.sweep_all(&format!("p{i}"));
        }
        assert!(expand(&a, &defs).is_err(), "eager path keeps its cap");
        let space = PointSpace::build(&a, &defs).unwrap();
        assert_eq!(space.total(), 50u64.pow(4));
        // Last axis fastest: index 51 = [0, 0, 1, 1].
        let p = space.point_at(51).unwrap();
        assert_eq!(p.get("p0").unwrap().as_i64(), Some(0));
        assert_eq!(p.get("p2").unwrap().as_i64(), Some(1));
        assert_eq!(p.get("p3").unwrap().as_i64(), Some(1));
        // And the very last point is all-max.
        let last = space.point_at(space.total() - 1).unwrap();
        assert!((0..4).all(|i| last.get(&format!("p{i}")).unwrap().as_i64() == Some(49)));
    }

    #[test]
    fn point_space_rejects_oversized_spaces() {
        let defs: Vec<ParamDef> = (0..4)
            .map(|i| {
                ParamDef::new(
                    format!("p{i}"),
                    "",
                    ParamType::Interval { min: 0, max: 99, step: 1 },
                    Value::from(0),
                )
                .unwrap()
            })
            .collect();
        let mut a = ParamAssignments::new();
        for i in 0..4 {
            a = a.sweep_all(&format!("p{i}"));
        }
        // 100^4 = 10^8 > MAX_POINTS.
        assert!(matches!(PointSpace::build(&a, &defs), Err(CoreError::Invalid(_))));
    }
}
