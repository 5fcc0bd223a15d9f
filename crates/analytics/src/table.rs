//! The per-evaluation columnar result table.
//!
//! One [`ResultTable`] holds every finished job of one evaluation:
//!
//! * `row_ids` — the job id of each row (insertion = upload order; query
//!   paths re-order rows via [`ResultTable::gather`] so aggregation runs
//!   in the evaluation's canonical job-id (creation) order, which keeps
//!   float accumulation bit-identical to the row-at-a-time JSON path).
//! * `params_json` — each row's full parameter document, serialized and
//!   dictionary-encoded (grid evaluations repeat parameter sets heavily).
//! * one [`ParamColumn`] per parameter key, holding the display label the
//!   chart/CSV endpoints use.
//! * one [`DataColumn`] per scalar leaf path of the result documents
//!   (JSON-pointer named, e.g. `/operations/read/latency_micros/p99`).
//!   Non-scalar values are captured verbatim at explicitly requested
//!   paths (`json_paths`, the standard metric pointers).

use std::collections::HashMap;

use chronos_json::Value;
use minidoc::doc::encode_varint;

use crate::column::{DataColumn, ParamColumn};
use crate::encoding::{decode_strings, encode_strings, read_u8, read_varint, CodecError};

/// Current encoded-table format version.
const FORMAT_VERSION: u8 = 1;

/// Renders one parameter value as its stable label — the exact rule the
/// row-oriented chart path has always used (`None`/null → absent, strings
/// verbatim, everything else via canonical JSON serialization).
fn value_label(value: &Value) -> Option<String> {
    match value {
        Value::Null => None,
        Value::String(s) => Some(s.clone()),
        other => Some(other.to_string()),
    }
}

/// Escapes one key as a JSON-pointer token (RFC 6901).
fn escape_token(key: &str) -> String {
    if key.contains('~') || key.contains('/') {
        key.replace('~', "~0").replace('/', "~1")
    } else {
        key.to_string()
    }
}

/// A column-oriented view of one evaluation's uploaded results.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResultTable {
    row_ids: Vec<u128>,
    row_index: HashMap<u128, usize>,
    params_json: ParamColumn,
    params: Vec<(String, ParamColumn)>,
    data: Vec<(String, DataColumn)>,
}

impl ResultTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of result rows.
    pub fn rows(&self) -> usize {
        self.row_ids.len()
    }

    /// True when a result row for `job_id` exists.
    pub fn contains(&self, job_id: u128) -> bool {
        self.row_index.contains_key(&job_id)
    }

    /// The job id of `row`.
    pub fn row_id(&self, row: usize) -> u128 {
        self.row_ids[row]
    }

    /// The serialized parameter document of `row`.
    pub fn params_json(&self, row: usize) -> Option<&str> {
        self.params_json.label_at(row)
    }

    /// The label column of one parameter key.
    pub fn param_column(&self, name: &str) -> Option<&ParamColumn> {
        self.params.iter().find(|(n, _)| n == name).map(|(_, c)| c)
    }

    /// Parameter keys that appeared in any row, insertion order.
    pub fn param_names(&self) -> impl Iterator<Item = &str> {
        self.params.iter().map(|(n, _)| n.as_str())
    }

    /// The measurement column at a JSON pointer path. Falls back to a
    /// canonically re-escaped lookup so `/a~01` style spellings behave
    /// like [`Value::pointer`].
    pub fn data_column(&self, pointer: &str) -> Option<&DataColumn> {
        if let Some(col) = self.data.iter().find(|(n, _)| n == pointer).map(|(_, c)| c) {
            return Some(col);
        }
        if !pointer.starts_with('/') {
            return None;
        }
        let canonical: String = pointer[1..]
            .split('/')
            .map(|raw| format!("/{}", escape_token(&raw.replace("~1", "/").replace("~0", "~"))))
            .collect();
        self.data.iter().find(|(n, _)| *n == canonical).map(|(_, c)| c)
    }

    /// Appends one finished job's result. No-op when the job is already
    /// present (idempotent upload retries). Non-scalar values at any of
    /// the `json_paths` pointers are captured verbatim so policy layers
    /// (standard metrics) can serve them byte-identically.
    pub fn append(&mut self, job_id: u128, parameters: &Value, data: &Value, json_paths: &[&str]) {
        if self.contains(job_id) {
            return;
        }
        let row = self.row_ids.len();
        self.row_index.insert(job_id, row);
        self.row_ids.push(job_id);
        self.params_json.push(Some(&parameters.to_string()));

        // Parameter label columns: set present keys, pad the rest.
        if let Some(map) = parameters.as_object() {
            for (key, value) in map.iter() {
                let column = self.param_column_mut(key, row);
                column.push(value_label(value).as_deref());
            }
        }
        for (_, column) in &mut self.params {
            if column.rows() == row {
                column.push(None);
            }
        }

        // Measurement columns: flatten scalar leaves, pad the rest.
        flatten_into(&mut self.data, row, "", data);
        for path in json_paths {
            if let Some(v) = data.pointer(path) {
                if matches!(v, Value::Array(_) | Value::Object(_)) {
                    let column = Self::data_column_mut(&mut self.data, path, row);
                    if column.rows() == row {
                        column.push_json(v);
                    }
                }
            }
        }
        for (_, column) in &mut self.data {
            if column.rows() == row {
                column.push_missing();
            }
        }
        debug_assert!(self.params.iter().all(|(_, c)| c.rows() == row + 1));
        debug_assert!(self.data.iter().all(|(_, c)| c.rows() == row + 1));
    }

    fn param_column_mut(&mut self, name: &str, row: usize) -> &mut ParamColumn {
        if let Some(i) = self.params.iter().position(|(n, _)| n == name) {
            return &mut self.params[i].1;
        }
        let mut column = ParamColumn::new();
        for _ in 0..row {
            column.push(None); // back-fill rows that predate this key
        }
        self.params.push((name.to_string(), column));
        &mut self.params.last_mut().unwrap().1
    }

    fn data_column_mut<'a>(
        data: &'a mut Vec<(String, DataColumn)>,
        path: &str,
        row: usize,
    ) -> &'a mut DataColumn {
        if let Some(i) = data.iter().position(|(n, _)| n == path) {
            return &mut data[i].1;
        }
        let mut column = DataColumn::new();
        for _ in 0..row {
            column.push_missing();
        }
        data.push((path.to_string(), column));
        &mut data.last_mut().unwrap().1
    }

    /// Row indices for `ids`, in the given order, skipping ids with no
    /// row. Aggregations gather through this so results are independent
    /// of upload completion order.
    pub fn gather(&self, ids: impl IntoIterator<Item = u128>) -> Vec<usize> {
        ids.into_iter().filter_map(|id| self.row_index.get(&id).copied()).collect()
    }

    /// Encodes the whole table (header, row ids, then every column).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.push(FORMAT_VERSION);
        encode_varint(self.row_ids.len() as u64, &mut out);
        for id in &self.row_ids {
            out.extend_from_slice(&id.to_le_bytes());
        }
        self.params_json.encode(&mut out);
        let param_names: Vec<String> = self.params.iter().map(|(n, _)| n.clone()).collect();
        encode_strings(&param_names, &mut out);
        for (_, column) in &self.params {
            column.encode(&mut out);
        }
        let data_names: Vec<String> = self.data.iter().map(|(n, _)| n.clone()).collect();
        encode_strings(&data_names, &mut out);
        for (_, column) in &self.data {
            column.encode(&mut out);
        }
        out
    }

    /// Inverse of [`ResultTable::encode`].
    pub fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut pos = 0;
        let version = read_u8(bytes, &mut pos)?;
        if version != FORMAT_VERSION {
            return Err(CodecError(format!("unknown table format version {version}")));
        }
        let rows = read_varint(bytes, &mut pos)? as usize;
        let mut row_ids = Vec::with_capacity(rows.min(bytes.len() / 16 + 1));
        for _ in 0..rows {
            let end = pos
                .checked_add(16)
                .filter(|&e| e <= bytes.len())
                .ok_or_else(|| CodecError("truncated row ids".into()))?;
            row_ids.push(u128::from_le_bytes(bytes[pos..end].try_into().unwrap()));
            pos = end;
        }
        let params_json = ParamColumn::decode(bytes, &mut pos)?;
        let param_names = decode_strings(bytes, &mut pos)?;
        let mut params = Vec::with_capacity(param_names.len());
        for name in param_names {
            params.push((name, ParamColumn::decode(bytes, &mut pos)?));
        }
        let data_names = decode_strings(bytes, &mut pos)?;
        let mut data = Vec::with_capacity(data_names.len());
        for name in data_names {
            data.push((name, DataColumn::decode(bytes, &mut pos)?));
        }
        let row_index = row_ids.iter().enumerate().map(|(i, &id)| (id, i)).collect();
        Ok(ResultTable { row_ids, row_index, params_json, params, data })
    }
}

/// Recursively flattens `value` into pointer-named leaf columns.
fn flatten_into(data: &mut Vec<(String, DataColumn)>, row: usize, prefix: &str, value: &Value) {
    match value {
        Value::Object(map) => {
            for (key, child) in map.iter() {
                let path = format!("{prefix}/{}", escape_token(key));
                flatten_into(data, row, &path, child);
            }
        }
        Value::Array(items) => {
            for (i, child) in items.iter().enumerate() {
                let path = format!("{prefix}/{i}");
                flatten_into(data, row, &path, child);
            }
        }
        scalar => {
            if prefix.is_empty() {
                return; // a bare scalar result document has no addressable leaves
            }
            let column = ResultTable::data_column_mut(data, prefix, row);
            if column.rows() == row {
                column.push_scalar(scalar);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Cell;
    use chronos_json::obj;

    fn demo_row(tp: f64, threads: i64, engine: &str) -> (Value, Value) {
        (
            obj! {"engine" => engine, "threads" => threads},
            obj! {
                "throughput_ops_per_sec" => tp,
                "total_ops" => 1000,
                "operations" => obj! {
                    "read" => obj! {"latency_micros" => obj! {"p99" => 420}},
                },
            },
        )
    }

    #[test]
    fn append_flattens_leaves_and_pads_columns() {
        let mut table = ResultTable::new();
        let (p1, d1) = demo_row(100.0, 1, "wiredtiger");
        table.append(1, &p1, &d1, &[]);
        // Second row has an extra field and misses one.
        let p2 = obj! {"engine" => "mmapv1"};
        let d2 = obj! {"throughput_ops_per_sec" => 90.0, "wall_millis" => 2000};
        table.append(2, &p2, &d2, &[]);
        assert_eq!(table.rows(), 2);
        let tp = table.data_column("/throughput_ops_per_sec").unwrap().materialize();
        assert_eq!(tp, vec![Cell::Float(100.0), Cell::Float(90.0)]);
        let p99 = table.data_column("/operations/read/latency_micros/p99").unwrap().materialize();
        assert_eq!(p99, vec![Cell::Int(420), Cell::Missing]);
        let wall = table.data_column("/wall_millis").unwrap().materialize();
        assert_eq!(wall, vec![Cell::Missing, Cell::Int(2000)]);
        let threads = table.param_column("threads").unwrap();
        assert_eq!(threads.label_at(0), Some("1"));
        assert_eq!(threads.label_at(1), None);
    }

    #[test]
    fn append_is_idempotent_per_job() {
        let mut table = ResultTable::new();
        let (p, d) = demo_row(100.0, 1, "wiredtiger");
        table.append(7, &p, &d, &[]);
        table.append(7, &p, &d, &[]);
        assert_eq!(table.rows(), 1);
    }

    #[test]
    fn encode_decode_roundtrips() {
        let mut table = ResultTable::new();
        for i in 0..10u128 {
            let (p, d) = demo_row(100.0 + i as f64, (i % 4) as i64, "wiredtiger");
            table.append(i, &p, &d, &[]);
        }
        let bytes = table.encode();
        let back = ResultTable::decode(&bytes).unwrap();
        assert_eq!(back, table);
        // Dictionary + delta encodings keep the table much smaller than
        // the serialized JSON rows it replaces.
        let json_bytes: usize = (0..10)
            .map(|i| demo_row(100.0 + i as f64, (i % 4) as i64, "wiredtiger"))
            .map(|(p, d)| p.to_string().len() + d.to_string().len())
            .sum();
        assert!(bytes.len() < json_bytes, "{} vs {json_bytes}", bytes.len());
    }

    #[test]
    fn gather_orders_rows_by_requested_ids() {
        let mut table = ResultTable::new();
        for id in [5u128, 3, 9] {
            let (p, d) = demo_row(id as f64, 1, "wiredtiger");
            table.append(id, &p, &d, &[]);
        }
        assert_eq!(table.gather([3u128, 5, 9, 42]), vec![1, 0, 2]);
    }

    #[test]
    fn json_paths_capture_containers_verbatim() {
        let mut table = ResultTable::new();
        let d = obj! {"operations" => obj! {"read" => obj! {"count" => 10}}};
        table.append(1, &obj! {}, &d, &["/operations"]);
        let col = table.data_column("/operations").unwrap().materialize();
        match col[0] {
            Cell::Json(s) => assert_eq!(s, "{\"read\":{\"count\":10}}"),
            ref other => panic!("expected Json cell, got {other:?}"),
        }
    }

    #[test]
    fn pointer_lookup_handles_escapes() {
        let mut table = ResultTable::new();
        let d = obj! {"a/b" => 1, "c~d" => 2};
        table.append(1, &obj! {}, &d, &[]);
        assert!(table.data_column("/a~1b").is_some());
        assert!(table.data_column("/c~0d").is_some());
        assert!(table.data_column("/a/b").is_none());
    }
}
