//! Percent-encoding and query-string handling.

use std::borrow::Cow;

/// Percent-encodes a path segment or query component (RFC 3986 unreserved
/// characters pass through; everything else is `%XX`-encoded).
pub fn encode_component(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for &b in s.as_bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

/// Percent-decodes a component. `+` decodes to a space (form encoding).
/// Malformed escapes pass through literally rather than erroring — the REST
/// API treats them as opaque text.
pub fn decode_component(s: &str) -> String {
    percent_decode(s, true)
}

/// Percent-decodes a single path segment, exactly once. Unlike
/// [`decode_component`], `+` stays literal — plus-as-space applies only to
/// form-encoded query strings, never to paths. An encoded `%2F` decodes to
/// a literal `/` *inside* the segment without becoming a path separator,
/// because segmentation happens before this runs. The returned `String`
/// is the one allocation.
pub fn decode_segment(s: &str) -> String {
    decode_segment_cow(s).into_owned()
}

/// [`decode_segment`] that borrows `s` when it holds no `%` (nothing to
/// decode), so routing a plain path allocates nothing per segment.
pub(crate) fn decode_segment_cow(s: &str) -> Cow<'_, str> {
    if s.contains('%') {
        Cow::Owned(percent_decode(s, false))
    } else {
        Cow::Borrowed(s)
    }
}

/// Decodes `%XX` escapes (and `+` as a space when `plus_as_space`) into one
/// buffer; bytes that are not valid UTF-8 after decoding become U+FFFD.
fn percent_decode(s: &str, plus_as_space: bool) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes.get(i + 1..i + 3).and_then(|h| {
                    let hi = (h[0] as char).to_digit(16)?;
                    let lo = (h[1] as char).to_digit(16)?;
                    Some(((hi << 4) | lo) as u8)
                });
                match hex {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b'+' if plus_as_space => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out)
        .unwrap_or_else(|invalid| String::from_utf8_lossy(invalid.as_bytes()).into_owned())
}

/// Parses `a=1&b=two` into decoded pairs. Keys without `=` get empty values.
pub fn parse_query(query: &str) -> Vec<(String, String)> {
    if query.is_empty() {
        return Vec::new();
    }
    query
        .split('&')
        .filter(|part| !part.is_empty())
        .map(|part| match part.split_once('=') {
            Some((k, v)) => (decode_component(k), decode_component(v)),
            None => (decode_component(part), String::new()),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_unreserved_passthrough() {
        assert_eq!(encode_component("AZaz09-_.~"), "AZaz09-_.~");
    }

    #[test]
    fn encode_specials() {
        assert_eq!(encode_component("a b/c?d&e=f"), "a%20b%2Fc%3Fd%26e%3Df");
        assert_eq!(encode_component("é"), "%C3%A9");
    }

    #[test]
    fn decode_roundtrip() {
        for s in ["hello world", "a/b?c=d&e", "üñîçødé 😀", ""] {
            assert_eq!(decode_component(&encode_component(s)), s);
        }
    }

    #[test]
    fn decode_plus_as_space() {
        assert_eq!(decode_component("a+b"), "a b");
    }

    #[test]
    fn decode_tolerates_malformed_escapes() {
        assert_eq!(decode_component("100%"), "100%");
        assert_eq!(decode_component("%zz"), "%zz");
        assert_eq!(decode_component("%4"), "%4");
    }

    #[test]
    fn segment_decoding_keeps_plus_literal() {
        assert_eq!(decode_segment("a+b"), "a+b");
        assert_eq!(decode_segment("a%20b"), "a b");
        // One decode only: a double-encoded escape survives as its
        // single-decoded form.
        assert_eq!(decode_segment("a%2520b"), "a%20b");
        // An encoded slash decodes inside the segment; it can no longer
        // change path segmentation at this point.
        assert_eq!(decode_segment("a%2Fb"), "a/b");
        // Malformed escapes and bytes that are not UTF-8 after decoding
        // read as they do through `decode_component`.
        assert_eq!(decode_segment("100%"), "100%");
        assert_eq!(decode_segment("%G1"), "%G1");
        assert_eq!(decode_segment("%FF"), "\u{FFFD}");
        assert_eq!(decode_segment("%C3%A9+"), "é+");
    }

    #[test]
    fn segments_without_escapes_are_borrowed() {
        assert!(matches!(decode_segment_cow("a+b"), Cow::Borrowed("a+b")));
        assert!(matches!(decode_segment_cow("a%20b"), Cow::Owned(ref s) if s == "a b"));
    }

    #[test]
    fn parse_query_pairs() {
        let pairs = parse_query("a=1&b=two+words&flag&empty=");
        assert_eq!(
            pairs,
            vec![
                ("a".into(), "1".into()),
                ("b".into(), "two words".into()),
                ("flag".into(), "".into()),
                ("empty".into(), "".into()),
            ]
        );
        assert!(parse_query("").is_empty());
    }
}
