//! Chunk-level wire encodings for column data.
//!
//! Every chunk is written as `[varint length][payload]`, with LEB128
//! varints shared with minidoc (`minidoc::doc::{encode_varint,
//! decode_varint}`), so the column store speaks the same low-level
//! dialect as the document engine:
//!
//! | chunk          | encoding                                          |
//! |----------------|---------------------------------------------------|
//! | `i64` values   | zigzag + delta + LEB128 (first value, then deltas)|
//! | `f64` values   | raw IEEE-754 little-endian (8 bytes each)         |
//! | `bool` values  | bit-packed, 8 per byte                            |
//! | `u32` codes    | plain LEB128 (dictionary/selection codes)         |
//! | string dict    | varint count, then varint-length-prefixed UTF-8   |
//!
//! Decoders are fail-closed: any truncation or overflow is a
//! [`CodecError`], never a panic.
//!
//! This is a size/export format with no request-path caller: the store
//! keeps tables live and decoded ([`crate::store`]) and encodes one only
//! to report [`AnalyticsStore::encoded_size`](crate::AnalyticsStore::encoded_size).

use minidoc::doc::{decode_varint, encode_varint};

/// A malformed encoded chunk (truncated, overflowing, or bad UTF-8).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub String);

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "column codec: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

fn corrupt(what: &str) -> CodecError {
    CodecError(what.to_string())
}

/// Reads one varint, mapping minidoc's error into ours.
pub fn read_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, CodecError> {
    decode_varint(bytes, pos).map_err(|e| CodecError(e.to_string()))
}

/// Reads a varint and checks it fits `usize` and is a sane element count.
fn read_len(bytes: &[u8], pos: &mut usize) -> Result<usize, CodecError> {
    let n = read_varint(bytes, pos)?;
    usize::try_from(n).map_err(|_| corrupt("length overflow"))
}

/// Zigzag maps signed to unsigned so small magnitudes stay small.
fn zigzag(v: i64) -> u64 {
    (v.wrapping_shl(1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Delta + zigzag + LEB128. Monotonic or clustered series (timestamps,
/// counters) collapse to one or two bytes per value; the first value is
/// stored verbatim (zigzagged), every following one as the wrapping
/// difference to its predecessor, so `i64::MIN`/`i64::MAX` round-trip.
pub fn encode_i64s(values: &[i64], out: &mut Vec<u8>) {
    encode_varint(values.len() as u64, out);
    let mut prev = 0i64;
    for &v in values {
        encode_varint(zigzag(v.wrapping_sub(prev)), out);
        prev = v;
    }
}

/// Inverse of [`encode_i64s`].
pub fn decode_i64s(bytes: &[u8], pos: &mut usize) -> Result<Vec<i64>, CodecError> {
    let len = read_len(bytes, pos)?;
    let mut out = Vec::with_capacity(len.min(bytes.len()));
    let mut prev = 0i64;
    for _ in 0..len {
        let v = prev.wrapping_add(unzigzag(read_varint(bytes, pos)?));
        out.push(v);
        prev = v;
    }
    Ok(out)
}

/// Raw little-endian doubles: measurements have no exploitable delta
/// structure, and bit-exactness is non-negotiable for the aggregation
/// equivalence guarantees.
pub fn encode_f64s(values: &[f64], out: &mut Vec<u8>) {
    encode_varint(values.len() as u64, out);
    for &v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Inverse of [`encode_f64s`].
pub fn decode_f64s(bytes: &[u8], pos: &mut usize) -> Result<Vec<f64>, CodecError> {
    let len = read_len(bytes, pos)?;
    let end = len.checked_mul(8).and_then(|n| pos.checked_add(n)).filter(|&e| e <= bytes.len());
    let end = end.ok_or_else(|| corrupt("truncated f64 chunk"))?;
    let out = bytes[*pos..end]
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
        .collect();
    *pos = end;
    Ok(out)
}

/// Bit-packed booleans, 8 per byte, LSB first.
pub fn encode_bools(values: &[bool], out: &mut Vec<u8>) {
    encode_varint(values.len() as u64, out);
    let mut byte = 0u8;
    for (i, &v) in values.iter().enumerate() {
        if v {
            byte |= 1 << (i % 8);
        }
        if i % 8 == 7 {
            out.push(byte);
            byte = 0;
        }
    }
    if !values.len().is_multiple_of(8) {
        out.push(byte);
    }
}

/// Inverse of [`encode_bools`].
pub fn decode_bools(bytes: &[u8], pos: &mut usize) -> Result<Vec<bool>, CodecError> {
    let len = read_len(bytes, pos)?;
    let nbytes = len.div_ceil(8);
    let end = pos.checked_add(nbytes).filter(|&e| e <= bytes.len());
    let end = end.ok_or_else(|| corrupt("truncated bool chunk"))?;
    let packed = &bytes[*pos..end];
    *pos = end;
    Ok((0..len).map(|i| packed[i / 8] & (1 << (i % 8)) != 0).collect())
}

/// Plain LEB128 codes (dictionary references are small by construction).
pub fn encode_u32s(values: &[u32], out: &mut Vec<u8>) {
    encode_varint(values.len() as u64, out);
    for &v in values {
        encode_varint(v as u64, out);
    }
}

/// Inverse of [`encode_u32s`].
pub fn decode_u32s(bytes: &[u8], pos: &mut usize) -> Result<Vec<u32>, CodecError> {
    let len = read_len(bytes, pos)?;
    let mut out = Vec::with_capacity(len.min(bytes.len()));
    for _ in 0..len {
        let v = read_varint(bytes, pos)?;
        out.push(u32::try_from(v).map_err(|_| corrupt("u32 code overflow"))?);
    }
    Ok(out)
}

/// A dictionary (or any string list): varint count, then varint-length-
/// prefixed UTF-8 entries.
pub fn encode_strings(values: &[String], out: &mut Vec<u8>) {
    encode_varint(values.len() as u64, out);
    for v in values {
        encode_varint(v.len() as u64, out);
        out.extend_from_slice(v.as_bytes());
    }
}

/// Inverse of [`encode_strings`].
pub fn decode_strings(bytes: &[u8], pos: &mut usize) -> Result<Vec<String>, CodecError> {
    let len = read_len(bytes, pos)?;
    let mut out = Vec::with_capacity(len.min(bytes.len()));
    for _ in 0..len {
        let n = read_len(bytes, pos)?;
        let end = pos.checked_add(n).filter(|&e| e <= bytes.len());
        let end = end.ok_or_else(|| corrupt("truncated string chunk"))?;
        let s = std::str::from_utf8(&bytes[*pos..end]).map_err(|_| corrupt("invalid UTF-8"))?;
        *pos = end;
        out.push(s.to_string());
    }
    Ok(out)
}

/// One raw byte (chunk tags, format version).
pub fn read_u8(bytes: &[u8], pos: &mut usize) -> Result<u8, CodecError> {
    let b = *bytes.get(*pos).ok_or_else(|| corrupt("truncated byte"))?;
    *pos += 1;
    Ok(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_i64(values: &[i64]) {
        let mut buf = Vec::new();
        encode_i64s(values, &mut buf);
        let mut pos = 0;
        assert_eq!(decode_i64s(&buf, &mut pos).unwrap(), values);
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn i64_boundary_values_roundtrip() {
        roundtrip_i64(&[]);
        roundtrip_i64(&[0]);
        roundtrip_i64(&[1]);
        roundtrip_i64(&[i64::MIN]);
        roundtrip_i64(&[i64::MAX]);
        roundtrip_i64(&[0, 1, -1, i64::MIN, i64::MAX, i64::MIN, 0]);
        roundtrip_i64(&[i64::MAX, i64::MIN]);
    }

    #[test]
    fn delta_encoding_is_compact_for_monotonic_series() {
        let values: Vec<i64> = (0..1000).map(|i| 1_700_000_000_000 + i).collect();
        let mut buf = Vec::new();
        encode_i64s(&values, &mut buf);
        // First value ~6 bytes, every delta exactly 1 byte.
        assert!(buf.len() < 1_020, "{} bytes", buf.len());
    }

    #[test]
    fn f64_roundtrip_is_bit_exact() {
        let values = [0.0, -0.0, 1.5, f64::MIN_POSITIVE, f64::MAX, -1e300, f64::NAN];
        let mut buf = Vec::new();
        encode_f64s(&values, &mut buf);
        let mut pos = 0;
        let back = decode_f64s(&buf, &mut pos).unwrap();
        for (a, b) in values.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn bool_bitpacking_roundtrips_at_boundaries() {
        for n in [0usize, 1, 7, 8, 9, 63, 64, 65] {
            let values: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
            let mut buf = Vec::new();
            encode_bools(&values, &mut buf);
            let mut pos = 0;
            assert_eq!(decode_bools(&buf, &mut pos).unwrap(), values);
        }
    }

    #[test]
    fn strings_and_codes_roundtrip() {
        let dict = vec!["".to_string(), "wiredtiger".to_string(), "日本語".to_string()];
        let codes = vec![0u32, 2, 1, 1, u32::MAX];
        let mut buf = Vec::new();
        encode_strings(&dict, &mut buf);
        encode_u32s(&codes, &mut buf);
        let mut pos = 0;
        assert_eq!(decode_strings(&buf, &mut pos).unwrap(), dict);
        assert_eq!(decode_u32s(&buf, &mut pos).unwrap(), codes);
    }

    #[test]
    fn truncated_chunks_are_errors_not_panics() {
        let mut buf = Vec::new();
        encode_i64s(&[1, 2, 3], &mut buf);
        for cut in 0..buf.len() {
            let mut pos = 0;
            assert!(decode_i64s(&buf[..cut], &mut pos).is_err());
        }
        let mut buf = Vec::new();
        encode_strings(&["hello".into()], &mut buf);
        for cut in 0..buf.len() {
            let mut pos = 0;
            assert!(decode_strings(&buf[..cut], &mut pos).is_err());
        }
    }
}
