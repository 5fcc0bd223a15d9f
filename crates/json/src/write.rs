//! Compact and pretty JSON writers.
//!
//! Serialization sits on the control-plane hot path twice over: every WAL
//! append frames a document, and every HTTP response renders one. The
//! writer is therefore allocation-free past the output buffer itself:
//! one generic core drives three sinks (append to a caller-owned
//! `String`, stream to `io::Write`, or feed a `fmt::Formatter`), strings
//! without escapes are copied in one bulk `memcpy` instead of
//! char-by-char, and numbers render through a stack buffer rather than
//! `format!` temporaries.

use std::io;

use crate::value::Value;

/// Serializes `value` as compact JSON (no whitespace).
pub fn write_compact(value: &Value) -> String {
    let mut out = String::new();
    write_into(&mut out, value);
    out
}

/// Serializes `value` as pretty JSON with two-space indentation.
pub fn write_pretty(value: &Value) -> String {
    let mut out = String::new();
    write_pretty_into(&mut out, value);
    out
}

/// Appends compact JSON for `value` to `out`, reusing its capacity.
///
/// This is the hot-path entry point: callers that serialize in a loop
/// (WAL appends, response bodies) keep one buffer and `clear()` it
/// between documents, so steady state performs no allocations at all.
pub fn write_into(out: &mut String, value: &Value) {
    let mut sink = StringSink(out);
    match write_value(&mut sink, value, None, 0) {
        Ok(()) => {}
        Err(never) => match never {},
    }
}

/// Appends pretty JSON for `value` to `out`, reusing its capacity.
pub fn write_pretty_into(out: &mut String, value: &Value) {
    let mut sink = StringSink(out);
    match write_value(&mut sink, value, Some(2), 0) {
        Ok(()) => {}
        Err(never) => match never {},
    }
}

/// Streams compact JSON for `value` to `writer` without building an
/// intermediate `String`.
///
/// Emission happens in many small pieces; hand in a `Vec<u8>`, a
/// `BufWriter`, or another buffered sink rather than a raw file or
/// socket.
pub fn write_to<W: io::Write + ?Sized>(writer: &mut W, value: &Value) -> io::Result<()> {
    write_value(&mut IoSink(writer), value, None, 0)
}

/// Drives `value` into a `fmt::Write` sink (how `Display` avoids
/// allocating a full intermediate rendering).
pub(crate) fn write_fmt(f: &mut dyn std::fmt::Write, value: &Value) -> std::fmt::Result {
    write_value(&mut FmtSink(f), value, None, 0)
}

/// Output abstraction for the single writer core. Only `put_str` is
/// required; everything the writer emits is valid UTF-8 text.
trait Sink {
    type Error;
    fn put_str(&mut self, s: &str) -> Result<(), Self::Error>;
}

/// Infallible append to a caller-owned `String`.
struct StringSink<'a>(&'a mut String);

impl Sink for StringSink<'_> {
    type Error = std::convert::Infallible;
    #[inline]
    fn put_str(&mut self, s: &str) -> Result<(), Self::Error> {
        self.0.push_str(s);
        Ok(())
    }
}

/// Streaming to byte sinks (files, sockets, `Vec<u8>`).
struct IoSink<'a, W: io::Write + ?Sized>(&'a mut W);

impl<W: io::Write + ?Sized> Sink for IoSink<'_, W> {
    type Error = io::Error;
    #[inline]
    fn put_str(&mut self, s: &str) -> Result<(), Self::Error> {
        self.0.write_all(s.as_bytes())
    }
}

/// Feeding a `fmt::Formatter` (the `Display` impl).
struct FmtSink<'a>(&'a mut dyn std::fmt::Write);

impl Sink for FmtSink<'_> {
    type Error = std::fmt::Error;
    #[inline]
    fn put_str(&mut self, s: &str) -> Result<(), Self::Error> {
        self.0.write_str(s)
    }
}

fn write_value<S: Sink>(
    sink: &mut S,
    value: &Value,
    indent: Option<usize>,
    level: usize,
) -> Result<(), S::Error> {
    match value {
        Value::Null => sink.put_str("null"),
        Value::Bool(true) => sink.put_str("true"),
        Value::Bool(false) => sink.put_str("false"),
        Value::Number(n) => n.with_text(|text| sink.put_str(text)),
        Value::String(s) => write_json_string(sink, s),
        Value::Array(items) => {
            if items.is_empty() {
                return sink.put_str("[]");
            }
            sink.put_str("[")?;
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    sink.put_str(",")?;
                }
                newline_indent(sink, indent, level + 1)?;
                write_value(sink, item, indent, level + 1)?;
            }
            newline_indent(sink, indent, level)?;
            sink.put_str("]")
        }
        Value::Object(map) => {
            if map.is_empty() {
                return sink.put_str("{}");
            }
            sink.put_str("{")?;
            for (i, (key, val)) in map.iter().enumerate() {
                if i > 0 {
                    sink.put_str(",")?;
                }
                newline_indent(sink, indent, level + 1)?;
                write_json_string(sink, key)?;
                sink.put_str(if indent.is_some() { ": " } else { ":" })?;
                write_value(sink, val, indent, level + 1)?;
            }
            newline_indent(sink, indent, level)?;
            sink.put_str("}")
        }
    }
}

fn newline_indent<S: Sink>(
    sink: &mut S,
    indent: Option<usize>,
    level: usize,
) -> Result<(), S::Error> {
    const SPACES: &str = "                                ";
    if let Some(width) = indent {
        sink.put_str("\n")?;
        let mut remaining = width * level;
        while remaining > 0 {
            let chunk = remaining.min(SPACES.len());
            sink.put_str(&SPACES[..chunk])?;
            remaining -= chunk;
        }
    }
    Ok(())
}

/// True for bytes that cannot appear verbatim inside a JSON string.
/// Multi-byte UTF-8 units are all `>= 0x80` and pass through untouched,
/// so the scan can work on raw bytes.
#[inline]
fn needs_escape(b: u8) -> bool {
    b < 0x20 || b == b'"' || b == b'\\'
}

fn write_json_string<S: Sink>(sink: &mut S, s: &str) -> Result<(), S::Error> {
    sink.put_str("\"")?;
    let bytes = s.as_bytes();
    // Bulk-copy maximal escape-free runs; the common case (IDs, kinds,
    // field names, most payloads) is a single run covering the whole
    // string, i.e. one memcpy instead of a per-char loop.
    let mut run_start = 0;
    for (i, &b) in bytes.iter().enumerate() {
        if needs_escape(b) {
            if run_start < i {
                sink.put_str(&s[run_start..i])?;
            }
            run_start = i + 1;
            match b {
                b'"' => sink.put_str("\\\"")?,
                b'\\' => sink.put_str("\\\\")?,
                b'\n' => sink.put_str("\\n")?,
                b'\r' => sink.put_str("\\r")?,
                b'\t' => sink.put_str("\\t")?,
                0x08 => sink.put_str("\\b")?,
                0x0C => sink.put_str("\\f")?,
                b => {
                    const HEX: &[u8; 16] = b"0123456789abcdef";
                    let esc = [
                        b'\\',
                        b'u',
                        b'0',
                        b'0',
                        HEX[usize::from(b >> 4)],
                        HEX[usize::from(b & 0xF)],
                    ];
                    // The buffer is pure ASCII by construction.
                    sink.put_str(std::str::from_utf8(&esc).expect("ascii escape"))?;
                }
            }
        }
    }
    if run_start < bytes.len() {
        sink.put_str(&s[run_start..])?;
    }
    sink.put_str("\"")
}

/// Appends a JSON string literal (escaped per RFC 8259) to `out`.
pub fn write_string(out: &mut String, s: &str) {
    let mut sink = StringSink(out);
    match write_json_string(&mut sink, s) {
        Ok(()) => {}
        Err(never) => match never {},
    }
}

#[cfg(test)]
mod tests {
    use crate::{arr, obj, parse, Value};

    #[test]
    fn compact_output() {
        let v = obj! { "a" => 1, "b" => arr![true, Value::Null], "c" => "x\ny" };
        assert_eq!(v.to_string(), r#"{"a":1,"b":[true,null],"c":"x\ny"}"#);
    }

    #[test]
    fn pretty_output() {
        let v = obj! { "a" => 1, "b" => arr![2] };
        assert_eq!(v.to_pretty_string(), "{\n  \"a\": 1,\n  \"b\": [\n    2\n  ]\n}");
    }

    #[test]
    fn empty_containers_stay_inline() {
        let v = obj! { "a" => obj! {}, "b" => arr![] };
        assert_eq!(v.to_pretty_string(), "{\n  \"a\": {},\n  \"b\": []\n}");
    }

    #[test]
    fn control_chars_escaped() {
        let v = Value::from("\u{0001}\u{001F}");
        assert_eq!(v.to_string(), "\"\\u0001\\u001f\"");
    }

    #[test]
    fn unicode_passes_through() {
        let v = Value::from("héllo 😀");
        assert_eq!(v.to_string(), "\"héllo 😀\"");
        assert_eq!(parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn floats_reparse_as_floats() {
        let v = Value::from(2.0);
        let reparsed = parse(&v.to_string()).unwrap();
        assert!(matches!(reparsed, Value::Number(crate::Number::Float(_))));
    }

    #[test]
    fn compact_roundtrips() {
        let docs = [
            r#"{"jobs":[{"id":"j1","state":"finished","metrics":{"tp":1234.5,"p99":0.75}}]}"#,
            r#"[[[]],{},{"":""},-0.5,1e-7]"#,
            "\"\\u0000\"",
        ];
        for doc in docs {
            let v = parse(doc).unwrap();
            assert_eq!(parse(&v.to_string()).unwrap(), v, "roundtrip failed for {doc}");
            assert_eq!(parse(&v.to_pretty_string()).unwrap(), v);
        }
    }

    #[test]
    fn write_into_appends_and_reuses_capacity() {
        let v = obj! { "a" => 1 };
        let mut buf = String::from("prefix:");
        v.write_into(&mut buf);
        assert_eq!(buf, r#"prefix:{"a":1}"#);

        buf.clear();
        let capacity = buf.capacity();
        v.write_into(&mut buf);
        assert_eq!(buf, r#"{"a":1}"#);
        assert_eq!(buf.capacity(), capacity, "reuse must not reallocate");
    }

    #[test]
    fn write_to_streams_identical_bytes() {
        let v = obj! {
            "name" => "esc\"aped\\str\ting",
            "nums" => arr![1, -2.5, 1e300],
            "nested" => obj! { "deep" => arr![obj! {}, Value::Null] },
        };
        let mut bytes = Vec::new();
        v.write_to(&mut bytes).unwrap();
        assert_eq!(String::from_utf8(bytes).unwrap(), v.to_string());
    }

    #[test]
    fn display_matches_to_string() {
        let v = obj! { "k" => arr!["v", 1.5, false] };
        assert_eq!(format!("{v}"), v.to_string());
    }

    #[test]
    fn escape_free_fast_path_handles_boundaries() {
        // Escapes at the start, middle, end, back-to-back, and none.
        for s in ["\"abc", "ab\"cd", "abc\"", "a\\\"\nb", "plain ascii", "", "😀é"] {
            let v = Value::from(s);
            let parsed = parse(&v.to_string()).unwrap();
            assert_eq!(parsed.as_str(), Some(s));
        }
    }
}
