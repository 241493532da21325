//! The versioned snapshot codec: typed errors and length-checked byte I/O.
//!
//! A snapshot serializes the complete observable state of a
//! [`RegionRuntime`](crate::RegionRuntime) — the simulated heap image, the
//! region table, the page map and its host mirror, statistics and safety
//! costs, the shadow stack, the fault-injection schedule, recorded
//! violations, and the global pointer ledger — into a self-describing byte
//! stream (`RSNP`, version 1). Restoring it yields a runtime that is
//! *bit-identical* to the captured one: continuing from the restored state
//! produces the same digests, instruction counters, trace suffix, and
//! `sanitize()` verdict as the uninterrupted run. See DESIGN §14 for the
//! layout and compatibility rules.
//!
//! This module holds the parts shared by every producer and consumer: the
//! typed [`SnapshotError`] (corrupt input must *never* panic — the chaos
//! harness feeds truncated and bit-flipped snapshots in by design) and the
//! [`SnapWriter`] / [`SnapReader`] pair, a little-endian codec in the style
//! of the golden-trace format whose every read is bounds-checked.
//!
//! The reader that restore runs is the only `RSNP` decoder. Each read
//! names its field, and [`snapshot_fields`] runs restore's decode with
//! the reader's field log on, so tools that name drifted fields (the
//! golden end-state diff) read the format through restore's own code.

use std::fmt;

/// Leading magic of a runtime snapshot.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"RSNP";

/// Current snapshot format version. Readers reject anything newer; older
/// versions are listed in DESIGN §14 with their upgrade rules (none yet —
/// version 1 is the first).
pub const SNAPSHOT_VERSION: u32 = 1;

/// Why a snapshot could not be decoded or accepted.
///
/// `Copy` on purpose, like [`RegionError`](crate::RegionError): errors
/// carry only scalars and static section names, so chaos harnesses can
/// record and fold them into deterministic digests without allocation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SnapshotError {
    /// The input does not start with [`SNAPSHOT_MAGIC`] — it is not a
    /// snapshot at all (or the header was corrupted).
    BadMagic,
    /// The input claims a format version this build cannot read.
    UnsupportedVersion {
        /// The version the input claims.
        version: u32,
    },
    /// The input ended before the named section was fully read.
    Truncated {
        /// Section being decoded when the bytes ran out.
        section: &'static str,
    },
    /// A section decoded but its contents are structurally impossible
    /// (e.g. a heap image that is not a whole number of pages, a
    /// descriptor with out-of-bounds pointer offsets, an unknown enum
    /// tag). The byte offset pins the first bad field.
    Malformed {
        /// Section that failed validation.
        section: &'static str,
        /// Byte offset of the offending field within the input.
        offset: usize,
    },
    /// The input decoded fully but left unconsumed trailing bytes —
    /// almost certainly a truncation of a *different* snapshot spliced
    /// onto this one, so it is rejected rather than silently ignored.
    TrailingBytes {
        /// Number of bytes left over.
        extra: usize,
    },
    /// The restored runtime failed its mandatory post-restore
    /// [`sanitize()`](crate::RegionRuntime::sanitize) gate: the decoded
    /// books are internally inconsistent (reference counts or the
    /// page-map mirror do not recompute), so execution must not resume
    /// from this state. Violations *recorded before capture* round-trip
    /// as data and do not trip the gate.
    SanitizeFailed {
        /// Regions whose recomputed rc disagrees with the decoded one.
        rc_mismatches: usize,
        /// Pages where the decoded mirror disagrees with the in-heap map.
        mirror_mismatches: usize,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            SnapshotError::BadMagic => write!(f, "snapshot rejected: bad magic"),
            SnapshotError::UnsupportedVersion { version } => write!(
                f,
                "snapshot rejected: unsupported format version {version} (this build reads <= {SNAPSHOT_VERSION})"
            ),
            SnapshotError::Truncated { section } => {
                write!(f, "snapshot rejected: truncated in section '{section}'")
            }
            SnapshotError::Malformed { section, offset } => {
                write!(f, "snapshot rejected: malformed section '{section}' at byte {offset}")
            }
            SnapshotError::TrailingBytes { extra } => {
                write!(f, "snapshot rejected: {extra} trailing byte(s) after the last section")
            }
            SnapshotError::SanitizeFailed { rc_mismatches, mirror_mismatches } => write!(
                f,
                "restored state failed the sanitize gate: {rc_mismatches} rc mismatch(es), \
                 {mirror_mismatches} mirror mismatch(es)"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Little-endian byte writer for snapshot sections.
///
/// The writer is infallible; all validation lives on the read side.
#[derive(Default, Debug)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// An empty writer.
    pub fn new() -> SnapWriter {
        SnapWriter::default()
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `i64` (two's complement).
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends raw bytes with no length prefix (caller encodes the length).
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a `u32` length prefix followed by the bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.u32(bytes.len() as u32);
        self.raw(bytes);
    }

    /// Appends `Some`/`None` as a tag byte plus the value when present.
    pub fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.u8(1);
                self.u64(x);
            }
            None => self.u8(0),
        }
    }

    /// Appends `Some`/`None` as a tag byte plus the value when present.
    pub fn opt_u32(&mut self, v: Option<u32>) {
        match v {
            Some(x) => {
                self.u8(1);
                self.u32(x);
            }
            None => self.u8(0),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer and returns the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// A field's name in a [`SnapReader`] log: a static name, or a closure
/// that formats an indexed one (`region[3].rc`) only when a log is kept.
pub trait FieldName {
    /// The name as logged.
    fn name(self) -> String;
}

impl FieldName for &str {
    fn name(self) -> String {
        self.to_string()
    }
}

impl<F: FnOnce() -> String> FieldName for F {
    fn name(self) -> String {
        self()
    }
}

/// Bounds-checked little-endian reader over snapshot bytes.
///
/// Every read names the section being decoded (set with
/// [`SnapReader::section`]) so a truncation error pins where the input
/// ran out. No read panics: past-the-end access returns
/// [`SnapshotError::Truncated`].
///
/// Every read also names its field. A reader made with
/// [`SnapReader::logging`] records each field as `(name, value)` in
/// stream order; [`snapshot_fields`] returns that log, so the golden
/// end-state diff names fields from the very decode restore runs.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
    section: &'static str,
    log: Option<Vec<(String, u64)>>,
}

impl<'a> SnapReader<'a> {
    /// A reader positioned at the start of `buf`, keeping no field log.
    pub fn new(buf: &'a [u8]) -> SnapReader<'a> {
        SnapReader { buf, pos: 0, section: "header", log: None }
    }

    /// A reader that logs every field it reads. Integers log their value
    /// (an `i64` as its two's-complement bits), options log `value + 1`
    /// with 0 for `None`, and `raw`/`bytes` reads log a digest of every
    /// byte they consumed, length prefix included.
    pub fn logging(buf: &'a [u8]) -> SnapReader<'a> {
        SnapReader { log: Some(Vec::new()), ..SnapReader::new(buf) }
    }

    /// The field log, in stream order (empty for a reader made with
    /// [`SnapReader::new`]).
    pub fn into_log(self) -> Vec<(String, u64)> {
        self.log.unwrap_or_default()
    }

    /// Names the section subsequent reads belong to (for error reporting).
    pub fn section(&mut self, name: &'static str) {
        self.section = name;
    }

    /// Current byte offset.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// A [`SnapshotError::Malformed`] at the current offset in the current
    /// section — for callers that decode a field successfully but find its
    /// value structurally impossible.
    pub fn malformed(&self) -> SnapshotError {
        SnapshotError::Malformed { section: self.section, offset: self.pos }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).ok_or(SnapshotError::Truncated { section: self.section })?;
        if end > self.buf.len() {
            return Err(SnapshotError::Truncated { section: self.section });
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], SnapshotError> {
        let mut a = [0; N];
        a.copy_from_slice(self.take(N)?);
        Ok(a)
    }

    fn note(&mut self, name: impl FieldName, value: u64) {
        if let Some(log) = &mut self.log {
            log.push((name.name(), value));
        }
    }

    /// Logs a digest of the bytes read since `start`.
    fn note_digest(&mut self, name: impl FieldName, start: usize) {
        if self.log.is_some() {
            let digest = self.buf[start..self.pos]
                .iter()
                .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3));
            self.note(name, digest);
        }
    }

    /// Reads one byte.
    pub fn u8(&mut self, name: impl FieldName) -> Result<u8, SnapshotError> {
        let [v] = self.array::<1>()?;
        self.note(name, u64::from(v));
        Ok(v)
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self, name: impl FieldName) -> Result<u32, SnapshotError> {
        let v = u32::from_le_bytes(self.array()?);
        self.note(name, u64::from(v));
        Ok(v)
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self, name: impl FieldName) -> Result<u64, SnapshotError> {
        let v = u64::from_le_bytes(self.array()?);
        self.note(name, v);
        Ok(v)
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self, name: impl FieldName) -> Result<i64, SnapshotError> {
        let v = i64::from_le_bytes(self.array()?);
        self.note(name, v as u64);
        Ok(v)
    }

    /// Reads exactly `n` raw bytes.
    pub fn raw(&mut self, n: usize, name: impl FieldName) -> Result<&'a [u8], SnapshotError> {
        let start = self.pos;
        let s = self.take(n)?;
        self.note_digest(name, start);
        Ok(s)
    }

    /// Reads a `u32` length prefix followed by that many bytes.
    pub fn bytes(&mut self, name: impl FieldName) -> Result<&'a [u8], SnapshotError> {
        let start = self.pos;
        let n = u32::from_le_bytes(self.array()?) as usize;
        let s = self.take(n)?;
        self.note_digest(name, start);
        Ok(s)
    }

    /// Reads an option written by [`SnapWriter::opt_u64`].
    pub fn opt_u64(&mut self, name: impl FieldName) -> Result<Option<u64>, SnapshotError> {
        let v = match self.array::<1>()? {
            [0] => None,
            [1] => Some(u64::from_le_bytes(self.array()?)),
            _ => return Err(self.malformed()),
        };
        self.note(name, v.map_or(0, |v| v.wrapping_add(1)));
        Ok(v)
    }

    /// Reads an option written by [`SnapWriter::opt_u32`].
    pub fn opt_u32(&mut self, name: impl FieldName) -> Result<Option<u32>, SnapshotError> {
        let v = match self.array::<1>()? {
            [0] => None,
            [1] => Some(u32::from_le_bytes(self.array()?)),
            _ => return Err(self.malformed()),
        };
        self.note(name, v.map_or(0, |v| u64::from(v) + 1));
        Ok(v)
    }

    /// Asserts the input is fully consumed; trailing bytes are rejected.
    pub fn finish(&self) -> Result<(), SnapshotError> {
        let extra = self.buf.len() - self.pos;
        if extra != 0 {
            return Err(SnapshotError::TrailingBytes { extra });
        }
        Ok(())
    }
}

/// Decodes `RSNP` v1 bytes with the decode
/// [`RegionRuntime::restore_snapshot`](crate::RegionRuntime::restore_snapshot)
/// runs and returns every field it read as `(name, value)`, in stream
/// order: `heap.page[12]`, `region[3].rc`, `costs.deletes`, `mirror[40]`.
/// It stops short of restore's object re-walk and sanitize gates, so a
/// snapshot whose books drifted still lists its fields. Input the
/// decode rejects returns its [`SnapshotError`].
pub fn snapshot_fields(bytes: &[u8]) -> Result<Vec<(String, u64)>, SnapshotError> {
    let mut r = SnapReader::logging(bytes);
    crate::RegionRuntime::decode_snapshot(&mut r)?;
    Ok(r.into_log())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_reader_round_trip() {
        let mut w = SnapWriter::new();
        w.raw(&SNAPSHOT_MAGIC);
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.i64(-42);
        w.bytes(b"hello");
        w.opt_u64(Some(99));
        w.opt_u64(None);
        w.opt_u32(Some(3));
        let bytes = w.into_bytes();

        let mut r = SnapReader::logging(&bytes);
        assert_eq!(r.raw(4, "magic").unwrap(), &SNAPSHOT_MAGIC);
        assert_eq!(r.u8("a").unwrap(), 7);
        assert_eq!(r.u32("b").unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64("c").unwrap(), u64::MAX - 1);
        assert_eq!(r.i64(|| format!("d[{}]", 0)).unwrap(), -42);
        assert_eq!(r.bytes("e").unwrap(), b"hello");
        assert_eq!(r.opt_u64("f").unwrap(), Some(99));
        assert_eq!(r.opt_u64("g").unwrap(), None);
        assert_eq!(r.opt_u32("h").unwrap(), Some(3));
        r.finish().unwrap();
        let log = r.into_log();
        let names: Vec<&str> = log.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["magic", "a", "b", "c", "d[0]", "e", "f", "g", "h"]);
        let values: Vec<u64> = log[1..5].iter().chain(&log[6..]).map(|&(_, v)| v).collect();
        assert_eq!(values, [7, 0xDEAD_BEEF, u64::MAX - 1, -42i64 as u64, 100, 0, 4]);
        assert!(SnapReader::new(&bytes).into_log().is_empty());
    }

    #[test]
    fn truncation_is_typed_and_names_the_section() {
        let mut w = SnapWriter::new();
        w.u64(1);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes[..5]);
        r.section("stats");
        assert_eq!(r.u64("x"), Err(SnapshotError::Truncated { section: "stats" }));
    }

    #[test]
    fn length_prefix_cannot_read_past_end() {
        let mut w = SnapWriter::new();
        w.u32(1_000_000); // claims a million bytes follow
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        r.section("heap");
        assert_eq!(r.bytes("x"), Err(SnapshotError::Truncated { section: "heap" }));
    }

    #[test]
    fn bad_option_tag_is_malformed() {
        let mut r = SnapReader::new(&[9]);
        r.section("fault-plan");
        assert!(matches!(
            r.opt_u64("x"),
            Err(SnapshotError::Malformed { section: "fault-plan", .. })
        ));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let r = SnapReader::new(&[1, 2, 3]);
        assert_eq!(r.finish(), Err(SnapshotError::TrailingBytes { extra: 3 }));
    }

    #[test]
    fn display_messages_are_stable() {
        assert!(SnapshotError::BadMagic.to_string().contains("bad magic"));
        assert!(SnapshotError::UnsupportedVersion { version: 9 }
            .to_string()
            .contains("unsupported format version 9"));
        assert!(SnapshotError::SanitizeFailed { rc_mismatches: 1, mirror_mismatches: 0 }
            .to_string()
            .contains("sanitize gate"));
    }
}
