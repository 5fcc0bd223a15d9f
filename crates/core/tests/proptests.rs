//! Property tests for Chronos Control invariants:
//!
//! * evaluation-space expansion size and contents,
//! * metadata-store consistency against a model.

#![allow(clippy::disallowed_methods)] // drives the store below the control plane

use std::collections::BTreeMap;

use chronos_core::params::{self, ParamAssignments, ParamDef, ParamType};
use chronos_core::store::MetadataStore;
use chronos_json::{obj, Value};
use proptest::prelude::*;

fn arb_interval() -> impl Strategy<Value = (i64, i64, i64)> {
    (0i64..50, 1i64..20, 1i64..7).prop_map(|(min, span, step)| (min, min + span, step))
}

proptest! {
    /// Expansion size equals the product of the per-axis point counts, every
    /// point validates against the schema, and all points are distinct.
    #[test]
    fn expansion_size_and_validity(
        (min, max, step) in arb_interval(),
        options in prop::collection::btree_set("[a-z]{1,6}", 1..5),
        sweep_bool in any::<bool>(),
    ) {
        let options: Vec<String> = options.into_iter().collect();
        let schema = vec![
            ParamDef::new(
                "n", "", ParamType::Interval { min, max, step }, Value::from(min),
            ).unwrap(),
            ParamDef::new(
                "choice", "",
                ParamType::Checkbox { options: options.clone() },
                Value::from(options[0].as_str()),
            ).unwrap(),
            ParamDef::new("flag", "", ParamType::Boolean, Value::Bool(false)).unwrap(),
        ];
        let mut assignments = ParamAssignments::new().sweep_all("n").sweep_all("choice");
        if sweep_bool {
            assignments = assignments.sweep_all("flag");
        }
        let points = params::expand(&assignments, &schema).unwrap();
        let interval_points = (max - min) / step + 1;
        let expected = interval_points as usize
            * options.len()
            * if sweep_bool { 2 } else { 1 };
        prop_assert_eq!(points.len(), expected);
        let mut seen = std::collections::HashSet::new();
        for point in &points {
            for def in &schema {
                let value = point.get(&def.name).expect("every parameter present");
                def.param_type.validate_value(value).unwrap();
            }
            prop_assert!(seen.insert(point.to_string()), "duplicate point {point}");
        }
    }

    /// The metadata store behaves like a map, including across a
    /// compaction at a random step and a reopen.
    #[test]
    fn store_matches_model(
        ops in prop::collection::vec(("[a-c]", "[a-z]{1,4}", any::<i64>()), 1..60),
        compact_at in 0usize..60,
    ) {
        let path = std::env::temp_dir().join(format!(
            "chronos-store-prop-{}-{:x}.log",
            std::process::id(),
            rand::random::<u64>()
        ));
        let mut model: BTreeMap<(String, String), i64> = BTreeMap::new();
        {
            let store = MetadataStore::open(&path).unwrap();
            for (step, (kind, id, v)) in ops.iter().enumerate() {
                if step == compact_at % ops.len() {
                    store.compact().unwrap();
                    prop_assert_eq!(store.log_records(), model.len() as u64);
                }
                store.put(kind, id, obj! {"v" => *v}).unwrap();
                model.insert((kind.clone(), id.clone()), *v);
            }
            prop_assert_eq!(store.live_docs(), model.len() as u64);
        }
        // Reopen and compare the full contents.
        let store = MetadataStore::open(&path).unwrap();
        for ((kind, id), v) in &model {
            let doc = store.get(kind, id).expect("present after reopen");
            prop_assert_eq!(doc.get("v").and_then(Value::as_i64), Some(*v));
        }
        for kind in ["a", "b", "c"] {
            let expected = model.keys().filter(|(k, _)| k == kind).count();
            prop_assert_eq!(store.count(kind), expected);
        }
        std::fs::remove_file(&path).ok();
    }
}
