//! Predicate pushdown: for arbitrary documents and filters, evaluating a
//! `Filter` directly on the encoded bytes (`doc::matches_encoded`) must
//! agree with the reference path — `doc::decode` followed by
//! `Filter::matches` — and `doc::decode_path` must agree with navigating
//! the decoded document.

use chronos_json::{Map, Value};
use chronos_util::SplitMix64;
use minidoc::doc;
use minidoc::Filter;
use proptest::prelude::*;

const FIELD_NAMES: [&str; 6] = ["a", "b", "c", "tags", "nested", "x"];
const STRINGS: [&str; 5] = ["", "basel", "bern", "zürich", "aa"];

fn scalar(rng: &mut SplitMix64) -> Value {
    match rng.next_below(7) {
        0 => Value::Null,
        1 => Value::Bool(rng.next_below(2) == 1),
        2 => Value::from(rng.next_below(10) as i64 - 5),
        3 => Value::from((rng.next_below(9) as f64 - 4.0) / 2.0),
        // Past 2^53: distinguishes exact i64 equality from f64 equality.
        4 => Value::from(i64::MAX - rng.next_below(3) as i64),
        5 => Value::from(STRINGS[rng.next_below(STRINGS.len() as u64) as usize]),
        _ => Value::from(rng.next_below(1000) as i64 * 10),
    }
}

fn value(rng: &mut SplitMix64, depth: u32) -> Value {
    if depth == 0 || rng.next_below(3) > 0 {
        return scalar(rng);
    }
    if rng.next_below(2) == 0 {
        Value::Array((0..rng.next_below(4)).map(|_| value(rng, depth - 1)).collect())
    } else {
        let n = rng.next_below(4);
        let mut map = Map::with_capacity(n as usize);
        for i in 0..n {
            map.insert(FIELD_NAMES[(i % 6) as usize].to_string(), value(rng, depth - 1));
        }
        Value::Object(map)
    }
}

fn document(rng: &mut SplitMix64) -> Value {
    let n = 1 + rng.next_below(5);
    let mut map = Map::with_capacity(n as usize);
    for i in 0..n {
        map.insert(FIELD_NAMES[(i % 6) as usize].to_string(), value(rng, 2));
    }
    Value::Object(map)
}

/// Every dotted path addressing a node of `doc` (array elements included).
fn all_paths(doc: &Value) -> Vec<String> {
    fn walk(value: &Value, prefix: &str, out: &mut Vec<String>) {
        match value {
            Value::Object(map) => {
                for (name, child) in map.iter() {
                    let path = if prefix.is_empty() {
                        name.to_string()
                    } else {
                        format!("{prefix}.{name}")
                    };
                    out.push(path.clone());
                    walk(child, &path, out);
                }
            }
            Value::Array(items) => {
                for (i, child) in items.iter().enumerate() {
                    let path = format!("{prefix}.{i}");
                    out.push(path.clone());
                    walk(child, &path, out);
                }
            }
            _ => {}
        }
    }
    let mut out = Vec::new();
    walk(doc, "", &mut out);
    out
}

/// Reference path navigation over the decoded document (same rules as the
/// filter's lookup: dotted object fields, numeric array indexes).
fn lookup<'a>(doc: &'a Value, path: &str) -> Option<&'a Value> {
    let mut current = doc;
    for part in path.split('.') {
        current = match current {
            Value::Object(map) => map.get(part)?,
            Value::Array(items) => items.get(part.parse::<usize>().ok()?)?,
            _ => return None,
        };
    }
    Some(current)
}

fn pick_path(rng: &mut SplitMix64, paths: &[String]) -> String {
    // Mostly real paths; sometimes a missing or non-sensical one.
    if !paths.is_empty() && rng.next_below(4) > 0 {
        paths[rng.next_below(paths.len() as u64) as usize].clone()
    } else {
        ["missing", "a.zz", "tags.9", "a.b.c.d", ""][rng.next_below(5) as usize].to_string()
    }
}

fn operand(rng: &mut SplitMix64, doc: &Value, path: &str) -> Value {
    // Mostly the actual value at the path (or something near it), so
    // equality and range boundaries are actually exercised.
    match rng.next_below(4) {
        0 => scalar(rng),
        1 => lookup(doc, path).cloned().unwrap_or(Value::Null),
        2 => match lookup(doc, path) {
            Some(v) => match v.as_f64() {
                Some(f) => Value::from(f + ((rng.next_below(3) as f64) - 1.0)),
                None => scalar(rng),
            },
            None => scalar(rng),
        },
        _ => value(rng, 1),
    }
}

fn filter(rng: &mut SplitMix64, doc: &Value, paths: &[String], depth: u32) -> Filter {
    let leaf_only = depth == 0;
    match rng.next_below(if leaf_only { 7 } else { 10 }) {
        kind @ 0..=6 => {
            let path = pick_path(rng, paths);
            if kind == 6 {
                return Filter::Exists(path);
            }
            let op = operand(rng, doc, &path);
            match kind {
                0 => Filter::Eq(path, op),
                1 => Filter::Ne(path, op),
                2 => Filter::Gt(path, op),
                3 => Filter::Gte(path, op),
                4 => Filter::Lt(path, op),
                _ => Filter::Lte(path, op),
            }
        }
        7 => Filter::And(
            (0..1 + rng.next_below(3)).map(|_| filter(rng, doc, paths, depth - 1)).collect(),
        ),
        8 => Filter::Or(
            (0..1 + rng.next_below(3)).map(|_| filter(rng, doc, paths, depth - 1)).collect(),
        ),
        _ => Filter::Not(Box::new(filter(rng, doc, paths, depth - 1))),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// The encoded-bytes walker and decode-then-match agree on arbitrary
    /// (document, filter) pairs.
    #[test]
    fn walker_agrees_with_decoded_matching(seed in any::<u64>()) {
        let mut rng = SplitMix64::new(seed);
        let doc = document(&mut rng);
        let bytes = doc::encode(&doc).unwrap();
        prop_assert_eq!(doc::decode(&bytes).unwrap(), doc.clone());
        let paths = all_paths(&doc);
        for _ in 0..8 {
            let f = filter(&mut rng, &doc, &paths, 2);
            let expected = f.matches(&doc);
            let got = doc::matches_encoded(&bytes, &f).unwrap();
            prop_assert_eq!(got, expected, "filter {:?} on doc {:?}", f, doc);
        }
    }

    /// `decode_path` extracts exactly the value the decoded document holds
    /// at that path, for both existing and missing paths.
    #[test]
    fn decode_path_agrees_with_navigation(seed in any::<u64>()) {
        let mut rng = SplitMix64::new(seed);
        let doc = document(&mut rng);
        let bytes = doc::encode(&doc).unwrap();
        let paths = all_paths(&doc);
        for _ in 0..8 {
            let path = pick_path(&mut rng, &paths);
            let expected = lookup(&doc, &path).cloned();
            let got = doc::decode_path(&bytes, &path).unwrap();
            prop_assert_eq!(got, expected, "path {:?} in doc {:?}", path, doc);
        }
    }
}
