//! Secondary indexes.
//!
//! MongoDB's single-field secondary indexes, reproduced above the storage
//! engine: an index maps an *order-preserving encoding* of a document
//! field's value to the set of document keys holding that value. Indexes
//! are maintained synchronously on every write and consulted by the query
//! planner in [`Collection::find`](crate::Collection::find) for equality
//! and range predicates.
//!
//! Value ordering follows a BSON-like type order: null < booleans < numbers
//! (cross-type, `3 == 3.0`) < strings. Arrays/objects are not indexable
//! (matching the stand-in's query semantics).

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;

use chronos_json::{Number, Value};

/// An order-preserving byte encoding of an indexable scalar.
///
/// Layout: one type-class byte, then a payload whose byte order equals the
/// value order within the class. Numbers encode as IEEE doubles with the
/// usual sign-flip trick so negative values sort before positive ones.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct IndexKey(Vec<u8>);

const CLASS_NULL: u8 = 0x10;
const CLASS_BOOL: u8 = 0x20;
const CLASS_NUMBER: u8 = 0x30;
const CLASS_STRING: u8 = 0x40;

impl IndexKey {
    /// Encodes a scalar; `None` for non-indexable values (arrays/objects).
    pub fn encode(value: &Value) -> Option<IndexKey> {
        let mut out = Vec::with_capacity(10);
        match value {
            Value::Null => out.push(CLASS_NULL),
            Value::Bool(b) => {
                out.push(CLASS_BOOL);
                out.push(*b as u8);
            }
            Value::Number(n) => {
                out.push(CLASS_NUMBER);
                out.extend_from_slice(&encode_f64(match n {
                    Number::Int(i) => *i as f64,
                    Number::Float(f) => *f,
                }));
            }
            Value::String(s) => {
                out.push(CLASS_STRING);
                out.extend_from_slice(s.as_bytes());
            }
            Value::Array(_) | Value::Object(_) => return None,
        }
        Some(IndexKey(out))
    }

    /// The smallest possible key (for unbounded range starts).
    pub fn min() -> IndexKey {
        IndexKey(vec![0x00])
    }

    /// A key greater than every encodable key (for unbounded range ends).
    pub fn max() -> IndexKey {
        IndexKey(vec![0xFF])
    }

    /// The immediate successor in the key order (for exclusive bounds).
    pub fn successor(&self) -> IndexKey {
        let mut bytes = self.0.clone();
        bytes.push(0x00);
        IndexKey(bytes)
    }
}

/// Total-order encoding of an f64: flip the sign bit for positives, flip
/// all bits for negatives, then big-endian.
fn encode_f64(v: f64) -> [u8; 8] {
    let bits = v.to_bits();
    let ordered = if bits >> 63 == 0 { bits ^ (1 << 63) } else { !bits };
    ordered.to_be_bytes()
}

/// One single-field index: ordered value → document keys.
#[derive(Debug, Default, Clone)]
pub struct FieldIndex {
    entries: BTreeMap<IndexKey, BTreeSet<Vec<u8>>>,
    /// Total (value, key) pairs, for stats.
    len: usize,
}

impl FieldIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        FieldIndex::default()
    }

    /// Adds a `(value, document key)` pair.
    pub fn insert(&mut self, value: &Value, key: &[u8]) {
        if let Some(ik) = IndexKey::encode(value) {
            if self.entries.entry(ik).or_default().insert(key.to_vec()) {
                self.len += 1;
            }
        }
    }

    /// Removes a `(value, document key)` pair.
    pub fn remove(&mut self, value: &Value, key: &[u8]) {
        if let Some(ik) = IndexKey::encode(value) {
            if let Some(keys) = self.entries.get_mut(&ik) {
                if keys.remove(key) {
                    self.len -= 1;
                }
                if keys.is_empty() {
                    self.entries.remove(&ik);
                }
            }
        }
    }

    /// Borrowed document keys whose value equals `value` — no per-lookup
    /// cloning; callers copy only the keys they keep.
    pub fn lookup_eq_iter(&self, value: &Value) -> impl Iterator<Item = &[u8]> {
        IndexKey::encode(value)
            .and_then(|ik| self.entries.get(&ik))
            .into_iter()
            .flatten()
            .map(Vec::as_slice)
    }

    /// Borrowed document keys whose value lies in `[low, high)` (half-open
    /// over the encoded order).
    pub fn lookup_range_iter<'a>(
        &'a self,
        low: &IndexKey,
        high: &IndexKey,
    ) -> impl Iterator<Item = &'a [u8]> {
        self.entries
            .range((Bound::Included(low), Bound::Excluded(high)))
            .flat_map(|(_, keys)| keys.iter().map(Vec::as_slice))
    }

    /// Document keys whose value equals `value`, copied out.
    pub fn lookup_eq(&self, value: &Value) -> Vec<Vec<u8>> {
        self.lookup_eq_iter(value).map(<[u8]>::to_vec).collect()
    }

    /// Document keys whose value lies in `[low, high)`, copied out.
    pub fn lookup_range(&self, low: &IndexKey, high: &IndexKey) -> Vec<Vec<u8>> {
        self.lookup_range_iter(low, high).map(<[u8]>::to_vec).collect()
    }

    /// Number of `(value, key)` pairs.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the index has no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of distinct indexed values (posting-list entries). Stays
    /// bounded under churn because [`FieldIndex::remove`] prunes entries
    /// whose key set drains empty.
    pub fn distinct_values(&self) -> usize {
        self.entries.len()
    }
}

/// Range bounds for the number class only (used by the planner for
/// `Gt`/`Gte`/`Lt`/`Lte` over numbers and strings).
pub fn range_for(op: RangeOp, operand: &Value) -> Option<(IndexKey, IndexKey)> {
    let key = IndexKey::encode(operand)?;
    // Class bounds: scan only within the operand's type class.
    let class = match operand {
        Value::Number(_) => CLASS_NUMBER,
        Value::String(_) => CLASS_STRING,
        _ => return None,
    };
    let class_low = IndexKey(vec![class]);
    let class_high = IndexKey(vec![class + 0x10]);
    Some(match op {
        RangeOp::Gt => (key.successor(), class_high),
        RangeOp::Gte => (key, class_high),
        RangeOp::Lt => (class_low, key),
        RangeOp::Lte => (class_low, key.successor()),
    })
}

/// Range comparison operators the planner understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RangeOp {
    /// Strictly greater.
    Gt,
    /// Greater or equal.
    Gte,
    /// Strictly less.
    Lt,
    /// Less or equal.
    Lte,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_order_matches_value_order() {
        let values = [
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::from(f64::MIN),
            Value::from(-1000.5),
            Value::from(-1),
            Value::from(0),
            Value::from(0.5),
            Value::from(1),
            Value::from(1000),
            Value::from(f64::MAX),
            Value::from(""),
            Value::from("a"),
            Value::from("ab"),
            Value::from("b"),
        ];
        let keys: Vec<IndexKey> = values.iter().map(|v| IndexKey::encode(v).unwrap()).collect();
        for pair in keys.windows(2) {
            assert!(pair[0] < pair[1], "{pair:?}");
        }
        assert!(IndexKey::min() < keys[0].clone());
        assert!(keys.last().unwrap().clone() < IndexKey::max());
    }

    #[test]
    fn int_and_float_encode_identically() {
        assert_eq!(IndexKey::encode(&Value::from(3)), IndexKey::encode(&Value::from(3.0)));
    }

    #[test]
    fn containers_are_not_indexable() {
        assert!(IndexKey::encode(&chronos_json::arr![1]).is_none());
        assert!(IndexKey::encode(&chronos_json::obj! {"a" => 1}).is_none());
    }

    #[test]
    fn insert_lookup_remove() {
        let mut index = FieldIndex::new();
        index.insert(&Value::from("basel"), b"p1");
        index.insert(&Value::from("basel"), b"p3");
        index.insert(&Value::from("bern"), b"p2");
        assert_eq!(index.len(), 3);
        let mut hits = index.lookup_eq(&Value::from("basel"));
        hits.sort();
        assert_eq!(hits, vec![b"p1".to_vec(), b"p3".to_vec()]);
        index.remove(&Value::from("basel"), b"p1");
        assert_eq!(index.lookup_eq(&Value::from("basel")), vec![b"p3".to_vec()]);
        assert_eq!(index.len(), 2);
        // Removing a non-member is a no-op.
        index.remove(&Value::from("basel"), b"p1");
        assert_eq!(index.len(), 2);
    }

    #[test]
    fn churn_does_not_grow_distinct_values() {
        let mut index = FieldIndex::new();
        // Delete-heavy churn over a rotating value domain: every (value, key)
        // pair is removed again, so the posting map must shrink back instead
        // of accumulating empty per-value entries.
        for round in 0..50i64 {
            for k in 0..20u32 {
                let key = format!("k{k}");
                index.insert(&Value::from(round * 100 + k as i64), key.as_bytes());
            }
            for k in 0..20u32 {
                let key = format!("k{k}");
                index.remove(&Value::from(round * 100 + k as i64), key.as_bytes());
            }
        }
        assert_eq!(index.len(), 0);
        assert_eq!(index.distinct_values(), 0, "empty posting entries must be pruned");
        // A live remainder keeps exactly its own entries.
        index.insert(&Value::from("alive"), b"k");
        assert_eq!(index.distinct_values(), 1);
    }

    #[test]
    fn borrowed_lookups_agree_with_cloning_lookups() {
        let mut index = FieldIndex::new();
        for age in [10, 20, 20, 30, 40] {
            index.insert(&Value::from(age), format!("p{age}").as_bytes());
        }
        let eq_borrowed: Vec<Vec<u8>> =
            index.lookup_eq_iter(&Value::from(20)).map(<[u8]>::to_vec).collect();
        assert_eq!(eq_borrowed, index.lookup_eq(&Value::from(20)));
        let (low, high) = range_for(RangeOp::Gte, &Value::from(20)).unwrap();
        let range_borrowed: Vec<Vec<u8>> =
            index.lookup_range_iter(&low, &high).map(<[u8]>::to_vec).collect();
        assert_eq!(range_borrowed, index.lookup_range(&low, &high));
    }

    #[test]
    fn duplicate_insert_is_idempotent() {
        let mut index = FieldIndex::new();
        index.insert(&Value::from(1), b"k");
        index.insert(&Value::from(1), b"k");
        assert_eq!(index.len(), 1);
    }

    #[test]
    fn numeric_range_lookup() {
        let mut index = FieldIndex::new();
        for age in [10, 20, 30, 40] {
            index.insert(&Value::from(age), format!("p{age}").as_bytes());
        }
        // age > 20
        let (low, high) = range_for(RangeOp::Gt, &Value::from(20)).unwrap();
        let mut hits = index.lookup_range(&low, &high);
        hits.sort();
        assert_eq!(hits, vec![b"p30".to_vec(), b"p40".to_vec()]);
        // age <= 20
        let (low, high) = range_for(RangeOp::Lte, &Value::from(20)).unwrap();
        let mut hits = index.lookup_range(&low, &high);
        hits.sort();
        assert_eq!(hits, vec![b"p10".to_vec(), b"p20".to_vec()]);
    }

    #[test]
    fn range_does_not_cross_type_classes() {
        let mut index = FieldIndex::new();
        index.insert(&Value::from(5), b"num");
        index.insert(&Value::from("zzz"), b"str");
        index.insert(&Value::Null, b"null");
        let (low, high) = range_for(RangeOp::Gte, &Value::from(0)).unwrap();
        assert_eq!(index.lookup_range(&low, &high), vec![b"num".to_vec()]);
        let (low, high) = range_for(RangeOp::Lt, &Value::from("zzzz")).unwrap();
        assert_eq!(index.lookup_range(&low, &high), vec![b"str".to_vec()]);
    }

    #[test]
    fn range_for_rejects_unrangeable_operands() {
        assert!(range_for(RangeOp::Gt, &Value::Bool(true)).is_none());
        assert!(range_for(RangeOp::Lt, &Value::Null).is_none());
    }
}
