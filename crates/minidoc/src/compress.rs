//! Block compression for the wiredTiger-like engine.
//!
//! WiredTiger ships with snappy block compression enabled by default, and
//! the MongoDB demo's storage-footprint difference between the engines comes
//! largely from it. This module implements a small LZ77-family compressor
//! (greedy longest-match against a 64 KiB window via a 4-byte-prefix hash
//! table) with an escape to stored blocks when data is incompressible.
//!
//! The engine pays the whole of this on every write and keeps the block's
//! length as the record's stored size. What it pays is the algorithm's own
//! work, not its bookkeeping: the hash table is kept per thread and reset
//! rather than allocated per block, a candidate whose 4-byte prefix differs
//! is rejected with one compare, matches are extended eight bytes at a time,
//! and [`compress_or_store`] compresses straight into its tagged block. The
//! unit tests check every block against a bytewise reference compressor,
//! and `tests/golden_blocks.rs` pins the blocks of the benchmark's documents.
//!
//! Format: `varint uncompressed_len`, then a sequence of
//! * `0x00, varint n, n literal bytes`
//! * `0x01, varint match_len, varint back_offset` (match_len ≥ 4)

use std::cell::RefCell;

use crate::doc::{decode_varint, encode_varint};
use crate::error::{DbError, DbResult};

const MIN_MATCH: usize = 4;
const MAX_OFFSET: usize = 64 * 1024;
const MAX_HASH_BITS: u32 = 14;

const TAG_LITERAL: u8 = 0;
const TAG_MATCH: u8 = 1;

/// Sizes the prefix hash table to the input so small blocks (typical
/// documents are ~1 KiB) only reset the part of the table they use.
fn hash_bits_for(len: usize) -> u32 {
    (usize::BITS - len.next_power_of_two().leading_zeros() - 1).clamp(8, MAX_HASH_BITS)
}

/// The four bytes at `pos`, little-endian (one bounds check).
fn read4(data: &[u8], pos: usize) -> u32 {
    u32::from_le_bytes(data[pos..pos + 4].try_into().expect("a four-byte slice"))
}

fn hash4(v: u32, bits: u32) -> usize {
    (v.wrapping_mul(0x9E37_79B1) >> (32 - bits)) as usize
}

/// Length of the common prefix of `data[earlier..]` and `data[pos..]`,
/// bounded by the end of `data` (`earlier < pos`; the two may overlap).
fn common_prefix(data: &[u8], earlier: usize, pos: usize) -> usize {
    let max = data.len() - pos;
    let mut n = 0;
    while n + 8 <= max {
        let a = u64::from_le_bytes(data[earlier + n..][..8].try_into().expect("eight bytes"));
        let b = u64::from_le_bytes(data[pos + n..][..8].try_into().expect("eight bytes"));
        let diff = a ^ b;
        if diff != 0 {
            return n + (diff.trailing_zeros() / 8) as usize;
        }
        n += 8;
    }
    while n < max && data[earlier + n] == data[pos + n] {
        n += 1;
    }
    n
}

thread_local! {
    /// The prefix hash table, one per thread, grown to the largest block
    /// the thread has compressed.
    static TABLE: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// Compresses `data`. The output always starts with the uncompressed length;
/// callers that want a stored-block fallback should compare sizes (see
/// [`compress_or_store`]).
pub fn compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 16);
    compress_into(data, &mut out);
    out
}

/// Appends the compressed form of `data` to `out`.
fn compress_into(data: &[u8], out: &mut Vec<u8>) {
    encode_varint(data.len() as u64, out);
    let bits = hash_bits_for(data.len());
    TABLE.with_borrow_mut(|table| {
        let size = 1 << bits;
        if table.len() < size {
            table.resize(size, u32::MAX);
        }
        let table = &mut table[..size];
        table.fill(u32::MAX);
        let mut pos = 0;
        let mut literal_start = 0;

        while pos + MIN_MATCH <= data.len() {
            let head = read4(data, pos);
            let h = hash4(head, bits);
            let candidate = table[h] as usize;
            table[h] = pos as u32;
            // A candidate whose first four bytes differ cannot reach
            // MIN_MATCH; one compare rejects it.
            let match_len = if candidate != u32::MAX as usize
                && pos - candidate <= MAX_OFFSET
                && read4(data, candidate) == head
            {
                MIN_MATCH + common_prefix(data, candidate + MIN_MATCH, pos + MIN_MATCH)
            } else {
                0
            };
            if match_len >= MIN_MATCH {
                flush_literals(&data[literal_start..pos], out);
                out.push(TAG_MATCH);
                encode_varint(match_len as u64, out);
                encode_varint((pos - candidate) as u64, out);
                // Index a few positions inside the match so later data can
                // reference it (sparse to keep compression fast).
                let end = pos + match_len;
                let mut p = pos + 1;
                while p + MIN_MATCH <= data.len() && p < end {
                    table[hash4(read4(data, p), bits)] = p as u32;
                    p += 3;
                }
                pos = end;
                literal_start = pos;
            } else {
                pos += 1;
            }
        }
        flush_literals(&data[literal_start..], out);
    });
}

fn flush_literals(literals: &[u8], out: &mut Vec<u8>) {
    if literals.is_empty() {
        return;
    }
    out.push(TAG_LITERAL);
    encode_varint(literals.len() as u64, out);
    out.extend_from_slice(literals);
}

/// Decompresses a block produced by [`compress`].
pub fn decompress(block: &[u8]) -> DbResult<Vec<u8>> {
    let mut pos = 0;
    let expected = decode_varint(block, &mut pos)? as usize;
    // Guard against hostile length prefixes before allocating.
    if expected > block.len().saturating_mul(MAX_OFFSET).max(1 << 30) {
        return Err(DbError::Corrupt("implausible uncompressed length".into()));
    }
    let mut out = Vec::with_capacity(expected.min(1 << 20));
    while pos < block.len() {
        let tag = block[pos];
        pos += 1;
        match tag {
            TAG_LITERAL => {
                let n = decode_varint(block, &mut pos)? as usize;
                let lits = block
                    .get(pos..pos + n)
                    .ok_or_else(|| DbError::Corrupt("truncated literals".into()))?;
                out.extend_from_slice(lits);
                pos += n;
            }
            TAG_MATCH => {
                let len = decode_varint(block, &mut pos)? as usize;
                let offset = decode_varint(block, &mut pos)? as usize;
                if offset == 0 || offset > out.len() {
                    return Err(DbError::Corrupt("match offset out of range".into()));
                }
                if out.len() + len > expected {
                    return Err(DbError::Corrupt("match overruns output".into()));
                }
                let start = out.len() - offset;
                // Byte-by-byte copy: matches may overlap themselves (RLE).
                for i in 0..len {
                    let b = out[start + i];
                    out.push(b);
                }
            }
            other => return Err(DbError::Corrupt(format!("bad block tag {other}"))),
        }
    }
    if out.len() != expected {
        return Err(DbError::Corrupt(format!(
            "decompressed {} bytes, header said {expected}",
            out.len()
        )));
    }
    Ok(out)
}

/// Compresses `data` unless that would grow it; the first byte distinguishes
/// `C` (compressed) from `S` (stored).
pub fn compress_or_store(data: &[u8]) -> Vec<u8> {
    // Room for the stored form, which a compressed block is shorter than.
    let mut out = Vec::with_capacity(data.len() + 1);
    out.push(b'C');
    compress_into(data, &mut out);
    // The block after its tag byte is no shorter than the data.
    if out.len() > data.len() {
        out.clear();
        out.push(b'S');
        out.extend_from_slice(data);
    }
    out
}

/// Inverse of [`compress_or_store`].
pub fn decompress_or_load(block: &[u8]) -> DbResult<Vec<u8>> {
    match block.first() {
        Some(b'C') => decompress(&block[1..]),
        Some(b'S') => Ok(block[1..].to_vec()),
        _ => Err(DbError::Corrupt("empty or untagged block".into())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_basic() {
        for data in [
            b"".to_vec(),
            b"a".to_vec(),
            b"hello hello hello hello".to_vec(),
            b"abcdefghij".to_vec(),
            vec![0u8; 10_000],
            (0..=255u8).cycle().take(5_000).collect::<Vec<u8>>(),
        ] {
            let block = compress(&data);
            assert_eq!(decompress(&block).unwrap(), data);
        }
    }

    #[test]
    fn repetitive_data_compresses_well() {
        let data = b"fieldvalue".repeat(1_000);
        let block = compress(&data);
        assert!(
            block.len() * 10 < data.len(),
            "10x expected on repetitive data, got {} -> {}",
            data.len(),
            block.len()
        );
    }

    #[test]
    fn incompressible_data_stored() {
        // Pseudo-random bytes.
        let mut x: u64 = 0x12345;
        let data: Vec<u8> = (0..4096)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        let block = compress_or_store(&data);
        assert_eq!(block[0], b'S');
        assert_eq!(decompress_or_load(&block).unwrap(), data);
    }

    #[test]
    fn compressible_data_tagged_c() {
        let data = b"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa".to_vec();
        let block = compress_or_store(&data);
        assert_eq!(block[0], b'C');
        assert_eq!(decompress_or_load(&block).unwrap(), data);
    }

    #[test]
    fn overlapping_matches_rle() {
        let data = vec![7u8; 100_000];
        let block = compress(&data);
        assert!(block.len() < 100);
        assert_eq!(decompress(&block).unwrap(), data);
    }

    #[test]
    fn corrupt_blocks_rejected() {
        assert!(decompress(&[]).is_err());
        assert!(decompress(&[0xFF, 0xFF, 0xFF]).is_err());
        assert!(decompress_or_load(&[]).is_err());
        assert!(decompress_or_load(b"Xabc").is_err());
        let good = compress(b"hello world hello world");
        // Truncations must error, never panic.
        for cut in 0..good.len() {
            let _ = decompress(&good[..cut]);
        }
    }

    /// The compressor as first written: a fresh table per call, the prefix
    /// read byte by byte, and a bytewise match loop.
    fn bytewise_compress(data: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        encode_varint(data.len() as u64, &mut out);
        let bits = hash_bits_for(data.len());
        let hash = |p: usize| {
            hash4(u32::from_le_bytes([data[p], data[p + 1], data[p + 2], data[p + 3]]), bits)
        };
        let mut table = vec![u32::MAX; 1 << bits];
        let (mut pos, mut literal_start) = (0, 0);
        while pos + MIN_MATCH <= data.len() {
            let h = hash(pos);
            let candidate = table[h] as usize;
            table[h] = pos as u32;
            let mut match_len = 0;
            if candidate != u32::MAX as usize && pos - candidate <= MAX_OFFSET {
                while match_len < data.len() - pos
                    && data[candidate + match_len] == data[pos + match_len]
                {
                    match_len += 1;
                }
            }
            if match_len >= MIN_MATCH {
                flush_literals(&data[literal_start..pos], &mut out);
                out.push(TAG_MATCH);
                encode_varint(match_len as u64, &mut out);
                encode_varint((pos - candidate) as u64, &mut out);
                let end = pos + match_len;
                let mut p = pos + 1;
                while p + MIN_MATCH <= data.len() && p < end {
                    table[hash(p)] = p as u32;
                    p += 3;
                }
                pos = end;
                literal_start = pos;
            } else {
                pos += 1;
            }
        }
        flush_literals(&data[literal_start..], &mut out);
        out
    }

    #[test]
    fn blocks_equal_the_bytewise_compressor() {
        let mut x: u64 = 0xC0FF_EE00_1234_5678;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        // Alternating blocks call-to-call also checks that the per-thread
        // table carries nothing from one block into the next.
        for alphabet in [1u64, 3, 26, 256] {
            for _ in 0..400 {
                let len = (next() % 3000) as usize;
                let data: Vec<u8> = (0..len).map(|_| (next() % alphabet) as u8).collect();
                assert_eq!(
                    compress(&data),
                    bytewise_compress(&data),
                    "alphabet {alphabet}, len {len}"
                );
                let stored = compress_or_store(&data);
                let reference = bytewise_compress(&data);
                assert_eq!(stored[0] == b'C', reference.len() < data.len());
                if stored[0] == b'C' {
                    assert_eq!(stored[1..], reference[..]);
                }
            }
        }
        for len in [70_000usize, 200_000] {
            let data: Vec<u8> = (0..len).map(|_| b'a' + (next() % 4) as u8).collect();
            assert_eq!(compress(&data), bytewise_compress(&data), "len {len}");
        }
    }

    #[test]
    fn header_length_mismatch_detected() {
        let mut block = compress(b"abcabcabcabc");
        // Corrupt the header length (first varint byte).
        block[0] = block[0].wrapping_add(1);
        assert!(decompress(&block).is_err());
    }
}
