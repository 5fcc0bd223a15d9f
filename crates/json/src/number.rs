//! JSON number semantics.
//!
//! Chronos results mix integer counts (operations executed, thread counts)
//! with floating-point measurements (latencies, throughput). To avoid silent
//! precision loss on large counters, integers and floats are kept distinct:
//! a number parsed without a fraction or exponent stays an `i64` as long as
//! it fits.

use std::cmp::Ordering;
use std::fmt;

/// A JSON number: either an exact 64-bit integer or an IEEE double.
#[derive(Debug, Clone, Copy)]
pub enum Number {
    /// An integer that fits in `i64` exactly.
    Int(i64),
    /// Any other finite double. (JSON has no NaN/Infinity; constructors
    /// normalize non-finite input to null at the [`Value`](crate::Value)
    /// level.)
    Float(f64),
}

impl Number {
    /// The value as `f64` (integers convert losslessly up to 2^53).
    pub fn as_f64(&self) -> f64 {
        match *self {
            Number::Int(i) => i as f64,
            Number::Float(f) => f,
        }
    }

    /// The value as `i64` if exactly representable.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Number::Int(i) => Some(i),
            Number::Float(f) => {
                if f.fract() == 0.0 && f >= i64::MIN as f64 && f <= i64::MAX as f64 {
                    Some(f as i64)
                } else {
                    None
                }
            }
        }
    }

    /// The value as `u64` if exactly representable and non-negative.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_i64().and_then(|i| u64::try_from(i).ok())
    }

    /// True when the number is stored as an integer.
    pub fn is_int(&self) -> bool {
        matches!(self, Number::Int(_))
    }
}

impl PartialEq for Number {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Number::Int(a), Number::Int(b)) => a == b,
            _ => self.as_f64() == other.as_f64(),
        }
    }
}

impl PartialOrd for Number {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        match (self, other) {
            (Number::Int(a), Number::Int(b)) => a.partial_cmp(b),
            _ => self.as_f64().partial_cmp(&other.as_f64()),
        }
    }
}

impl Number {
    /// Hands the canonical JSON form, rendered on the stack, to `emit` —
    /// the serializer hot path, with no heap allocation.
    pub(crate) fn with_text<R>(&self, emit: impl FnOnce(&str) -> R) -> R {
        use fmt::Write;
        match *self {
            Number::Int(i) => {
                // Digits right to left into a stack array: integers are
                // most numbers written, and `write!` costs several times
                // this through the formatting machinery. 20 bytes hold
                // `i64::MIN`.
                let mut text = [0u8; 20];
                let mut start = text.len();
                let mut rest = i.unsigned_abs();
                loop {
                    start -= 1;
                    text[start] = b'0' + (rest % 10) as u8;
                    rest /= 10;
                    if rest == 0 {
                        break;
                    }
                }
                if i < 0 {
                    start -= 1;
                    text[start] = b'-';
                }
                emit(std::str::from_utf8(&text[start..]).expect("digits are ascii"))
            }
            Number::Float(v) => {
                let mut buf = ShortBuf::new();
                // `{}` on f64 never prints NaN/inf here (constructors
                // forbid them) and prints shortest round-trip form.
                let _ = write!(buf, "{v}");
                // Ensure a decimal marker, checked in place on the bytes
                // just written, so the value re-parses as a float.
                let needs_marker = !buf.as_str().bytes().any(|b| matches!(b, b'.' | b'e' | b'E'));
                if needs_marker {
                    let _ = buf.write_str(".0");
                }
                emit(buf.as_str())
            }
        }
    }

    /// Appends the canonical JSON rendering to `out` without allocating.
    pub fn write_into(&self, out: &mut String) {
        self.with_text(|text| out.push_str(text));
    }
}

/// A stack buffer for float rendering. `f64`'s `Display` never uses
/// scientific notation, so the longest output is a subnormal's full
/// decimal expansion (sign + `0.` + 307 leading zeros + 17 significant
/// digits = 327 bytes); the capacity leaves headroom beyond that.
pub(crate) struct ShortBuf {
    bytes: [u8; 352],
    len: usize,
}

impl ShortBuf {
    pub(crate) fn new() -> Self {
        ShortBuf { bytes: [0; 352], len: 0 }
    }

    pub(crate) fn as_str(&self) -> &str {
        // Only `fmt::Write` appends here, so the contents are valid UTF-8
        // (and in practice pure ASCII).
        std::str::from_utf8(&self.bytes[..self.len]).expect("number rendering is ascii")
    }
}

impl fmt::Write for ShortBuf {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        let end = self.len + s.len();
        if end > self.bytes.len() {
            return Err(fmt::Error);
        }
        self.bytes[self.len..end].copy_from_slice(s.as_bytes());
        self.len = end;
        Ok(())
    }
}

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.with_text(|text| f.write_str(text))
    }
}

impl From<i64> for Number {
    fn from(v: i64) -> Self {
        Number::Int(v)
    }
}

impl From<f64> for Number {
    fn from(v: f64) -> Self {
        Number::Float(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_accessors() {
        let n = Number::Int(42);
        assert_eq!(n.as_i64(), Some(42));
        assert_eq!(n.as_u64(), Some(42));
        assert_eq!(n.as_f64(), 42.0);
        assert!(n.is_int());
    }

    #[test]
    fn negative_int_has_no_u64() {
        assert_eq!(Number::Int(-1).as_u64(), None);
        assert_eq!(Number::Int(-1).as_i64(), Some(-1));
    }

    #[test]
    fn whole_float_converts_to_int() {
        assert_eq!(Number::Float(7.0).as_i64(), Some(7));
        assert_eq!(Number::Float(7.5).as_i64(), None);
        assert_eq!(Number::Float(1e30).as_i64(), None);
    }

    #[test]
    fn ints_render_as_display_does() {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let edges = [0, 1, -1, 9, 10, -10, 99, 100, i64::MAX, i64::MIN, i64::MIN + 1];
        let random = (0..1_000).map(|_| {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            (x as i64) >> (x % 64)
        });
        for i in edges.into_iter().chain(random) {
            assert_eq!(Number::Int(i).to_string(), format!("{i}"));
        }
    }

    #[test]
    fn display_int_vs_float() {
        assert_eq!(Number::Int(5).to_string(), "5");
        assert_eq!(Number::Float(5.0).to_string(), "5.0");
        assert_eq!(Number::Float(2.5).to_string(), "2.5");
        assert_eq!(Number::Int(i64::MIN).to_string(), "-9223372036854775808");
    }

    #[test]
    fn write_into_appends_without_marker_damage() {
        let mut out = String::from("x=");
        Number::Float(5.0).write_into(&mut out);
        out.push(',');
        Number::Float(2.5).write_into(&mut out);
        out.push(',');
        Number::Int(i64::MIN).write_into(&mut out);
        assert_eq!(out, "x=5.0,2.5,-9223372036854775808");
    }

    #[test]
    fn extreme_floats_render_in_full() {
        // Rust's f64 Display expands these fully (no exponent), which
        // must fit the render buffer and keep a decimal marker.
        for v in [f64::MAX, -f64::MAX, f64::MIN_POSITIVE, 5e-324, 1e300, -1e300] {
            let mut out = String::new();
            Number::Float(v).write_into(&mut out);
            assert!(
                out.contains('.') || out.contains(['e', 'E']),
                "missing decimal marker in {out:?}"
            );
            assert_eq!(out.parse::<f64>().unwrap(), v, "did not round-trip: {out:?}");
        }
    }

    #[test]
    fn cross_type_equality() {
        assert_eq!(Number::Int(3), Number::Float(3.0));
        assert_ne!(Number::Int(3), Number::Float(3.5));
    }

    #[test]
    fn ordering() {
        assert!(Number::Int(2) < Number::Float(2.5));
        assert!(Number::Float(-1.0) < Number::Int(0));
    }
}
