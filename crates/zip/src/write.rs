//! ZIP writer (STORE method).

use chronos_util::encode::crc32;

use crate::{validate_name, ZipError};

const LOCAL_HEADER_SIG: u32 = 0x0403_4B50;
const CENTRAL_HEADER_SIG: u32 = 0x0201_4B50;
const EOCD_SIG: u32 = 0x0605_4B50;
/// "Version needed to extract": 2.0 (stored entries, directories).
const VERSION: u16 = 20;
/// DOS time and date stamped on every entry: 2020-03-30 00:00:00 (EDBT
/// 2020). Fixed, so archives are byte-reproducible, which Chronos relies on
/// for result fingerprints.
const DOS_TIME: u16 = 0;
const DOS_DATE: u16 = ((2020 - 1980) << 9) | (3 << 5) | 30;

struct PendingEntry {
    name: String,
    crc: u32,
    size: u32,
    local_header_offset: u32,
    is_dir: bool,
}

/// Builds a ZIP archive in memory.
///
/// Entries are written with the STORE method. Call [`ZipWriter::finish`] to
/// append the central directory and obtain the archive bytes.
pub struct ZipWriter {
    buf: Vec<u8>,
    entries: Vec<PendingEntry>,
}

impl Default for ZipWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl ZipWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        ZipWriter { buf: Vec::new(), entries: Vec::new() }
    }

    /// Adds a file entry with the given payload.
    pub fn add_file(&mut self, name: &str, data: &[u8]) -> Result<(), ZipError> {
        validate_name(name)?;
        if self.entries.iter().any(|e| e.name == name) {
            return Err(ZipError::DuplicateEntry(name.to_string()));
        }
        let size = u32::try_from(data.len()).map_err(|_| ZipError::TooLarge)?;
        let offset = u32::try_from(self.buf.len()).map_err(|_| ZipError::TooLarge)?;
        let crc = crc32(data);
        self.write_local_header(name, crc, size);
        self.buf.extend_from_slice(data);
        self.entries.push(PendingEntry {
            name: name.to_string(),
            crc,
            size,
            local_header_offset: offset,
            is_dir: false,
        });
        Ok(())
    }

    /// Adds an explicit directory entry (`name` need not end with `/`).
    pub fn add_directory(&mut self, name: &str) -> Result<(), ZipError> {
        let name = name.strip_suffix('/').unwrap_or(name);
        validate_name(name)?;
        let dir_name = format!("{name}/");
        if self.entries.iter().any(|e| e.name == dir_name) {
            return Err(ZipError::DuplicateEntry(dir_name));
        }
        let offset = u32::try_from(self.buf.len()).map_err(|_| ZipError::TooLarge)?;
        self.write_local_header(&dir_name, 0, 0);
        self.entries.push(PendingEntry {
            name: dir_name,
            crc: 0,
            size: 0,
            local_header_offset: offset,
            is_dir: true,
        });
        Ok(())
    }

    /// Number of entries added so far.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries have been added.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn write_local_header(&mut self, name: &str, crc: u32, size: u32) {
        push_u32(&mut self.buf, LOCAL_HEADER_SIG);
        push_u16(&mut self.buf, VERSION); // version needed
        push_u16(&mut self.buf, 0x0800); // flags: UTF-8 names
        push_u16(&mut self.buf, 0); // method: STORE
        push_u16(&mut self.buf, DOS_TIME);
        push_u16(&mut self.buf, DOS_DATE);
        push_u32(&mut self.buf, crc);
        push_u32(&mut self.buf, size); // compressed
        push_u32(&mut self.buf, size); // uncompressed
        push_u16(&mut self.buf, name.len() as u16);
        push_u16(&mut self.buf, 0); // extra length
        self.buf.extend_from_slice(name.as_bytes());
    }

    /// Writes the central directory and returns the complete archive.
    pub fn finish(mut self) -> Vec<u8> {
        let cd_start = self.buf.len() as u32;
        for entry in &self.entries {
            push_u32(&mut self.buf, CENTRAL_HEADER_SIG);
            push_u16(&mut self.buf, VERSION); // version made by
            push_u16(&mut self.buf, VERSION); // version needed
            push_u16(&mut self.buf, 0x0800); // flags: UTF-8 names
            push_u16(&mut self.buf, 0); // method
            push_u16(&mut self.buf, DOS_TIME);
            push_u16(&mut self.buf, DOS_DATE);
            push_u32(&mut self.buf, entry.crc);
            push_u32(&mut self.buf, entry.size);
            push_u32(&mut self.buf, entry.size);
            push_u16(&mut self.buf, entry.name.len() as u16);
            push_u16(&mut self.buf, 0); // extra
            push_u16(&mut self.buf, 0); // comment
            push_u16(&mut self.buf, 0); // disk number
            push_u16(&mut self.buf, 0); // internal attrs
            push_u32(&mut self.buf, if entry.is_dir { 0x10 } else { 0 }); // external attrs
            push_u32(&mut self.buf, entry.local_header_offset);
            self.buf.extend_from_slice(entry.name.as_bytes());
        }
        let cd_size = self.buf.len() as u32 - cd_start;
        push_u32(&mut self.buf, EOCD_SIG);
        push_u16(&mut self.buf, 0); // this disk
        push_u16(&mut self.buf, 0); // cd disk
        push_u16(&mut self.buf, self.entries.len() as u16);
        push_u16(&mut self.buf, self.entries.len() as u16);
        push_u32(&mut self.buf, cd_size);
        push_u32(&mut self.buf, cd_start);
        push_u16(&mut self.buf, 0); // comment length
        self.buf
    }
}

fn push_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn push_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_archive_is_just_eocd() {
        let bytes = ZipWriter::new().finish();
        assert_eq!(bytes.len(), 22);
        assert_eq!(&bytes[0..4], &EOCD_SIG.to_le_bytes());
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut w = ZipWriter::new();
        w.add_file("a", b"1").unwrap();
        assert_eq!(w.add_file("a", b"2"), Err(ZipError::DuplicateEntry("a".into())));
    }

    #[test]
    fn traversal_names_rejected() {
        let mut w = ZipWriter::new();
        assert!(matches!(w.add_file("../evil", b""), Err(ZipError::BadEntryName(_))));
    }

    #[test]
    fn archives_are_reproducible() {
        let build = || {
            let mut w = ZipWriter::new();
            w.add_file("r.json", b"{}").unwrap();
            w.add_file("log.txt", b"hello").unwrap();
            w.finish()
        };
        assert_eq!(build(), build());
    }
}
