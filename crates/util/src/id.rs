//! Sortable unique identifiers.
//!
//! Chronos Control assigns every entity (project, experiment, evaluation,
//! job, system, deployment, result) an [`Id`]. Ids are ULID-like: a 48-bit
//! millisecond timestamp followed by 80 bits of randomness, rendered in
//! Crockford Base32. Lexicographic order of the rendered form equals
//! creation order, which keeps job listings and timelines naturally sorted
//! without a secondary sort key.

use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

/// Crockford Base32 alphabet (no I, L, O, U).
const ALPHABET: &[u8; 32] = b"0123456789ABCDEFGHJKMNPQRSTVWXYZ";

/// A 128-bit, time-ordered, globally unique identifier.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Id(u128);

/// Monotonic counter mixed into the random part so that ids generated within
/// the same millisecond on the same process still sort in creation order.
static SEQ: AtomicU64 = AtomicU64::new(0);

impl Id {
    /// Generates a fresh id using the system clock and thread-local RNG.
    pub fn generate() -> Self {
        let millis =
            SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_millis() as u64).unwrap_or(0);
        Self::from_parts(millis, rand::random::<u64>())
    }

    /// Builds an id from an explicit timestamp and entropy value. The
    /// process-wide sequence counter is folded in to preserve ordering for
    /// ids minted within the same millisecond.
    pub fn from_parts(unix_millis: u64, entropy: u64) -> Self {
        let seq = SEQ.fetch_add(1, Ordering::Relaxed) & 0xFFFF;
        let ts = (unix_millis as u128 & 0xFFFF_FFFF_FFFF) << 80;
        let mid = (seq as u128) << 64;
        Id(ts | mid | entropy as u128)
    }

    /// Raw 128-bit value.
    pub fn as_u128(&self) -> u128 {
        self.0
    }

    /// Rebuilds an id from its raw 128-bit value.
    pub fn from_u128(raw: u128) -> Self {
        Id(raw)
    }

    /// Renders the canonical 26-character Crockford Base32 form.
    pub fn to_base32(&self) -> String {
        let mut out = String::with_capacity(26);
        self.push_base32(&mut out);
        out
    }

    /// Appends [`Id::to_base32`]'s form to `out`, with no intermediate
    /// `String`.
    pub fn push_base32(&self, out: &mut String) {
        let mut text = [0u8; 26];
        let mut v = self.0;
        for slot in text.iter_mut().rev() {
            *slot = ALPHABET[(v & 0x1F) as usize];
            v >>= 5;
        }
        // 26 * 5 = 130 bits; the top 2 bits are always zero for a 128-bit
        // value, so the first character is in '0'..='7'.
        out.push_str(std::str::from_utf8(&text).expect("the alphabet is ascii"));
    }

    /// Parses the canonical form produced by [`Id::to_base32`].
    pub fn parse_base32(s: &str) -> Result<Self, IdParseError> {
        if s.len() != 26 {
            return Err(IdParseError::BadLength(s.len()));
        }
        let mut v: u128 = 0;
        for (i, c) in s.bytes().enumerate() {
            let digit = decode_char(c).ok_or(IdParseError::BadChar(i, c as char))?;
            if i == 0 && digit > 7 {
                return Err(IdParseError::Overflow);
            }
            v = (v << 5) | digit as u128;
        }
        Ok(Id(v))
    }
}

fn decode_char(c: u8) -> Option<u8> {
    let c = c.to_ascii_uppercase();
    match c {
        b'0'..=b'9' => Some(c - b'0'),
        b'A'..=b'H' => Some(c - b'A' + 10),
        b'J' | b'K' => Some(c - b'J' + 18),
        b'M' | b'N' => Some(c - b'M' + 20),
        b'P'..=b'T' => Some(c - b'P' + 22),
        b'V'..=b'Z' => Some(c - b'V' + 27),
        _ => None,
    }
}

/// Errors produced when parsing the textual id form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IdParseError {
    /// The input was not exactly 26 characters.
    BadLength(usize),
    /// The input contained a character outside the Crockford alphabet.
    BadChar(usize, char),
    /// The encoded value exceeds 128 bits.
    Overflow,
}

impl fmt::Display for IdParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IdParseError::BadLength(n) => write!(f, "id must be 26 chars, got {n}"),
            IdParseError::BadChar(i, c) => write!(f, "invalid id character {c:?} at {i}"),
            IdParseError::Overflow => write!(f, "id value exceeds 128 bits"),
        }
    }
}

impl std::error::Error for IdParseError {}

impl fmt::Display for Id {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_base32())
    }
}

impl fmt::Debug for Id {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Id({})", self.to_base32())
    }
}

impl FromStr for Id {
    type Err = IdParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Id::parse_base32(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_base32() {
        for _ in 0..100 {
            let id = Id::generate();
            let text = id.to_base32();
            assert_eq!(Id::parse_base32(&text).unwrap(), id);
        }
    }

    #[test]
    fn ids_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            assert!(seen.insert(Id::generate()));
        }
    }

    #[test]
    fn ids_sort_by_time() {
        let early = Id::from_parts(1_000, 0xFFFF_FFFF_FFFF_FFFF);
        let late = Id::from_parts(2_000, 0);
        assert!(early < late);
        assert!(early.to_base32() < late.to_base32());
    }

    #[test]
    fn same_millisecond_ids_sort_by_sequence() {
        let a = Id::from_parts(1_000, 42);
        let b = Id::from_parts(1_000, 42);
        assert!(a < b, "sequence counter must break ties");
    }

    #[test]
    fn the_timestamp_is_the_top_48_bits() {
        let id = Id::from_parts(123_456_789, 7);
        assert_eq!(id.as_u128() >> 80, 123_456_789);
    }

    #[test]
    fn parse_rejects_bad_length() {
        assert_eq!(Id::parse_base32("ABC"), Err(IdParseError::BadLength(3)));
    }

    #[test]
    fn parse_rejects_bad_char() {
        let mut s = Id::generate().to_base32();
        s.replace_range(3..4, "U"); // 'U' is not in the Crockford alphabet
        assert!(matches!(Id::parse_base32(&s), Err(IdParseError::BadChar(3, 'U'))));
    }

    #[test]
    fn parse_rejects_overflow() {
        let s = "Z".repeat(26);
        assert_eq!(Id::parse_base32(&s), Err(IdParseError::Overflow));
    }

    #[test]
    fn parse_is_case_insensitive() {
        let id = Id::generate();
        let lower = id.to_base32().to_ascii_lowercase();
        assert_eq!(Id::parse_base32(&lower).unwrap(), id);
    }

    #[test]
    fn display_matches_base32() {
        let id = Id::generate();
        assert_eq!(format!("{id}"), id.to_base32());
        assert_eq!(format!("{id:?}"), format!("Id({})", id.to_base32()));
    }

    #[test]
    fn raw_u128_roundtrip() {
        let id = Id::generate();
        assert_eq!(Id::from_u128(id.as_u128()), id);
    }
}
