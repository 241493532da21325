//! Golden access-trace recording and comparison for Figure 10.
//!
//! The cache simulator's stall counts are only as trustworthy as the
//! access stream feeding them. A *golden trace* pins that stream down: a
//! recording of every simulated load/store a workload performs, written
//! to `results/golden/`, that later runs are diffed against. Because the
//! whole heap is simulated, the stream is bit-deterministic — any
//! divergence is a real behaviour change, and the comparison reports the
//! **first diverging access** so the culprit operation can be found by
//! ordinal.
//!
//! The file format is a small binary (the full stream for `cfrac` at
//! scale 2 is tens of millions of accesses — JSON would be absurd).
//! **Version 2** (written by [`GoldenTrace::to_bytes`]) compresses runs
//! of equally-strided accesses into range records, mirroring the batched
//! [`simheap::AccessEvent`] protocol:
//!
//! ```text
//! magic    b"RGLD"        4 bytes
//! version  u32 LE         2
//! scale    u32 LE         workload scale the trace was recorded at
//! total    u64 LE         total word accesses in the run
//! hash     u64 LE         FNV-1a over the entire word stream
//! kept     u32 LE         word accesses covered by the records below
//! nrecords u32 LE         number of records that follow
//! record   tag u8:
//!   0 = word   addr u32 LE, then (size & 0x7f) | kind<<7     (6 bytes)
//!   1 = range  start u32, len u32, stride u32, sizekind u8  (14 bytes)
//! ```
//!
//! A range record stands for `len` accesses at `start + i*stride`
//! (wrapping), all with the same size and kind — runs shorter than
//! [`MIN_RUN`] are stored as word records. `total`, `hash`, the kept
//! count, and [`GoldenTrace::compare`] are all defined over the **word
//! expansion**, so a v2 file diffs exactly against streams recorded
//! before batching existed; [`GoldenTrace::from_bytes`] is the
//! canonicalizing expander and still reads the v1 format (version 1,
//! no `nrecords`, 5-byte word records), which keeps previously committed
//! goldens checkable.
//!
//! Only a bounded prefix ([`TraceRecorder::CAP`] words) is stored;
//! the `total`/`hash` pair still covers the whole stream, so a
//! divergence past the prefix is detected (reported as "beyond the
//! recorded prefix") even though the exact offset is then unknown.

use simheap::{Access, AccessKind, AccessSink};
use workloads::{RegionEnv, RegionKind, Workload};

use crate::rng::{fold, FNV_OFFSET};

/// Runs the safe-region variant of a workload with a [`TraceRecorder`]
/// attached, returning the finished recording.
pub fn record_region_trace(w: Workload, scale: u32) -> TraceRecorder {
    let mut env = RegionEnv::new(RegionKind::Safe);
    env.heap().attach_sink(Box::new(TraceRecorder::new()));
    w.run_region(&mut env, scale);
    let mut heap = env.into_heap();
    let sink = heap.detach_sink().expect("sink attached");
    *sink.into_any().downcast::<TraceRecorder>().expect("TraceRecorder attached")
}

/// An [`AccessSink`] that keeps a bounded prefix of the stream plus a
/// running hash and count of all of it.
#[derive(Debug, Clone)]
pub struct TraceRecorder {
    /// Verbatim prefix of the stream, capped at [`TraceRecorder::CAP`].
    pub prefix: Vec<Access>,
    /// Total accesses observed (may exceed the prefix length).
    pub total: u64,
    /// FNV-1a hash over every access observed.
    pub hash: u64,
}

fn access_word(a: Access) -> u64 {
    let kind = match a.kind {
        AccessKind::Read => 0u64,
        AccessKind::Write => 1,
    };
    (a.addr as u64) | ((a.size as u64) << 32) | (kind << 40)
}

impl TraceRecorder {
    /// Maximum number of accesses stored verbatim (~5 MB on disk).
    pub const CAP: usize = 1_000_000;

    /// An empty recorder.
    pub fn new() -> TraceRecorder {
        TraceRecorder { prefix: Vec::new(), total: 0, hash: FNV_OFFSET }
    }
}

impl Default for TraceRecorder {
    fn default() -> TraceRecorder {
        TraceRecorder::new()
    }
}

impl AccessSink for TraceRecorder {
    fn access(&mut self, access: Access) {
        self.total += 1;
        self.hash = fold(self.hash, access_word(access));
        if self.prefix.len() < TraceRecorder::CAP {
            self.prefix.push(access);
        }
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
}

/// A golden trace, as stored on disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GoldenTrace {
    /// Workload scale the trace was recorded at.
    pub scale: u32,
    /// Total accesses in the recorded run.
    pub total: u64,
    /// FNV-1a hash of the whole stream.
    pub hash: u64,
    /// Verbatim prefix of the stream.
    pub prefix: Vec<Access>,
}

const MAGIC: &[u8; 4] = b"RGLD";
const VERSION: u32 = 2;

/// Minimum equally-strided run length worth a range record (a range
/// record is 14 bytes; four 6-byte word records are 24).
pub const MIN_RUN: usize = 4;

fn sizekind_byte(a: Access) -> u8 {
    let kind = match a.kind {
        AccessKind::Read => 0u8,
        AccessKind::Write => 0x80,
    };
    (a.size & 0x7f) | kind
}

fn parse_sizekind(b: u8) -> (u8, AccessKind) {
    (b & 0x7f, if b & 0x80 != 0 { AccessKind::Write } else { AccessKind::Read })
}

impl GoldenTrace {
    /// Builds a golden trace from a finished recorder.
    pub fn from_recorder(rec: &TraceRecorder, scale: u32) -> GoldenTrace {
        GoldenTrace { scale, total: rec.total, hash: rec.hash, prefix: rec.prefix.clone() }
    }

    /// Serializes to the version-2 binary golden format, run-length
    /// compressing the word prefix into range records. Lossless:
    /// [`GoldenTrace::from_bytes`] expands back to the identical word
    /// prefix (asserted by a round-trip property test).
    pub fn to_bytes(&self) -> Vec<u8> {
        let p = &self.prefix;
        let mut recs = Vec::with_capacity(p.len());
        let mut nrecords: u32 = 0;
        // Longest equally-strided same-size/kind run starting at `i`.
        let run_at = |i: usize| -> (usize, u32) {
            let a = p[i];
            if i + 1 >= p.len() || p[i + 1].size != a.size || p[i + 1].kind != a.kind {
                return (1, 0);
            }
            let stride = p[i + 1].addr.wrapping_sub(a.addr);
            let mut run = 2;
            while i + run < p.len()
                && p[i + run].size == a.size
                && p[i + run].kind == a.kind
                && p[i + run].addr == a.addr.wrapping_add((run as u32).wrapping_mul(stride))
            {
                run += 1;
            }
            (run, stride)
        };
        let mut i = 0;
        while i < p.len() {
            let a = p[i];
            let (run, stride) = run_at(i);
            if run >= MIN_RUN {
                recs.push(1u8);
                recs.extend_from_slice(&a.addr.to_le_bytes());
                recs.extend_from_slice(&(run as u32).to_le_bytes());
                recs.extend_from_slice(&stride.to_le_bytes());
                recs.push(sizekind_byte(a));
                i += run;
            } else {
                recs.push(0u8);
                recs.extend_from_slice(&a.addr.to_le_bytes());
                recs.push(sizekind_byte(a));
                i += 1;
            }
            nrecords += 1;
        }
        let mut out = Vec::with_capacity(36 + recs.len());
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&self.scale.to_le_bytes());
        out.extend_from_slice(&self.total.to_le_bytes());
        out.extend_from_slice(&self.hash.to_le_bytes());
        out.extend_from_slice(&(self.prefix.len() as u32).to_le_bytes());
        out.extend_from_slice(&nrecords.to_le_bytes());
        out.extend_from_slice(&recs);
        out
    }

    /// Parses the binary golden format — the canonicalizing expander.
    /// Accepts both version 1 (one 5-byte record per word) and version 2
    /// (tagged word/range records); either way the result is the plain
    /// word prefix, so traces written before and after batching compare
    /// under the same [`GoldenTrace::compare`].
    pub fn from_bytes(data: &[u8]) -> Result<GoldenTrace, String> {
        let take4 = |at: usize| -> Result<[u8; 4], String> {
            data.get(at..at + 4)
                .and_then(|s| s.try_into().ok())
                .ok_or_else(|| format!("truncated golden trace at byte {at}"))
        };
        let take8 = |at: usize| -> Result<[u8; 8], String> {
            data.get(at..at + 8)
                .and_then(|s| s.try_into().ok())
                .ok_or_else(|| format!("truncated golden trace at byte {at}"))
        };
        if data.get(..4) != Some(MAGIC.as_slice()) {
            return Err("not a golden trace (bad magic)".to_string());
        }
        let version = u32::from_le_bytes(take4(4)?);
        if version != 1 && version != VERSION {
            return Err(format!("golden trace version {version}, expected 1 or {VERSION}"));
        }
        let scale = u32::from_le_bytes(take4(8)?);
        let total = u64::from_le_bytes(take8(12)?);
        let hash = u64::from_le_bytes(take8(20)?);
        let kept = u32::from_le_bytes(take4(28)?) as usize;
        let mut prefix = Vec::with_capacity(kept);
        if version == 1 {
            let body = data
                .get(32..32 + kept * 5)
                .ok_or_else(|| format!("truncated golden trace: {kept} records promised"))?;
            for rec in body.chunks_exact(5) {
                let addr = u32::from_le_bytes(rec[..4].try_into().expect("chunk of 5"));
                let (size, kind) = parse_sizekind(rec[4]);
                prefix.push(Access { addr, size, kind });
            }
        } else {
            let nrecords = u32::from_le_bytes(take4(32)?);
            let mut at = 36;
            for _ in 0..nrecords {
                let tag = *data
                    .get(at)
                    .ok_or_else(|| format!("truncated golden trace at byte {at}"))?;
                match tag {
                    0 => {
                        let addr = u32::from_le_bytes(take4(at + 1)?);
                        let (size, kind) = parse_sizekind(
                            *data
                                .get(at + 5)
                                .ok_or_else(|| format!("truncated golden trace at byte {at}"))?,
                        );
                        prefix.push(Access { addr, size, kind });
                        at += 6;
                    }
                    1 => {
                        let start = u32::from_le_bytes(take4(at + 1)?);
                        let len = u32::from_le_bytes(take4(at + 5)?);
                        let stride = u32::from_le_bytes(take4(at + 9)?);
                        let (size, kind) = parse_sizekind(
                            *data
                                .get(at + 13)
                                .ok_or_else(|| format!("truncated golden trace at byte {at}"))?,
                        );
                        for i in 0..len {
                            prefix.push(Access {
                                addr: start.wrapping_add(i.wrapping_mul(stride)),
                                size,
                                kind,
                            });
                        }
                        at += 14;
                    }
                    t => return Err(format!("unknown golden record tag {t} at byte {at}")),
                }
            }
            if prefix.len() != kept {
                return Err(format!(
                    "golden trace expands to {} words but header promises {kept}",
                    prefix.len()
                ));
            }
        }
        Ok(GoldenTrace { scale, total, hash, prefix })
    }

    /// Compares a fresh recording against this golden trace. `Ok(())`
    /// means the streams are identical (same total, same whole-stream
    /// hash); `Err` describes the first observable divergence.
    pub fn compare(&self, fresh: &TraceRecorder, fresh_scale: u32) -> Result<(), String> {
        if self.scale != fresh_scale {
            return Err(format!(
                "scale mismatch: golden recorded at scale {}, replay ran at {fresh_scale}",
                self.scale
            ));
        }
        let n = self.prefix.len().min(fresh.prefix.len());
        for i in 0..n {
            let (g, f) = (self.prefix[i], fresh.prefix[i]);
            if g != f {
                return Err(format!(
                    "first divergence at access #{i}: golden {g:?}, replay {f:?}"
                ));
            }
        }
        if self.total != fresh.total {
            return Err(format!(
                "prefix matches but stream length changed: golden {} accesses, replay {} \
                 (first divergence beyond the recorded prefix of {})",
                self.total, fresh.total, n
            ));
        }
        if self.hash != fresh.hash {
            return Err(format!(
                "prefix and length match but whole-stream hash differs \
                 (divergence beyond the recorded prefix of {n}): \
                 golden {:016x}, replay {:016x}",
                self.hash, fresh.hash
            ));
        }
        Ok(())
    }
}

/// The on-disk location for a figure's golden trace.
pub fn golden_path(bench: &str, workload: &str, scale: u32) -> std::path::PathBuf {
    std::path::Path::new("results")
        .join("golden")
        .join(format!("{bench}-{workload}-s{scale}.trace"))
}

/// The on-disk location for a figure's golden end-of-run *state*
/// snapshot (the `RSNP` bytes of
/// [`RegionRuntime::capture_snapshot`](region_core::RegionRuntime::capture_snapshot)).
///
/// Where a golden trace pins the access *stream*, a golden state pins
/// the complete final runtime — every heap byte, region record, counter,
/// and page-map entry — so a behaviour change that happens to leave the
/// stream-shape alone (or one too cheap to trace) is still caught, and
/// [`crate::diff::snapshot_divergence`] can name the exact field that
/// moved.
pub fn golden_state_path(bench: &str, workload: &str, scale: u32) -> std::path::PathBuf {
    std::path::Path::new("results")
        .join("golden")
        .join(format!("{bench}-{workload}-s{scale}.state"))
}

/// Runs the safe-region variant of a workload untraced and captures the
/// final runtime state as snapshot bytes. The whole heap is simulated,
/// so the bytes are deterministic: any two runs of the same workload at
/// the same scale on any machine produce identical output.
pub fn record_region_state(w: Workload, scale: u32) -> Vec<u8> {
    let mut env = RegionEnv::new(RegionKind::Safe);
    w.run_region(&mut env, scale);
    env.runtime().expect("safe-region env has a real runtime").capture_snapshot()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(n: u32) -> TraceRecorder {
        let mut rec = TraceRecorder::new();
        for i in 0..n {
            rec.access(Access::read(0x1000 + i * 4, 4));
            rec.access(Access::write(0x2000 + i * 4, if i % 2 == 0 { 4 } else { 1 }));
        }
        rec
    }

    #[test]
    fn round_trips_through_bytes() {
        let rec = stream(100);
        let g = GoldenTrace::from_recorder(&rec, 2);
        let back = GoldenTrace::from_bytes(&g.to_bytes()).expect("parses");
        assert_eq!(g, back);
        assert!(back.compare(&rec, 2).is_ok());
    }

    #[test]
    fn v2_compresses_strided_runs_and_expands_back() {
        let mut rec = TraceRecorder::new();
        // A long word-strided store run (one range record) …
        for i in 0..1000u32 {
            rec.access(Access::write(0x4000 + i * 4, 4));
        }
        // … an isolated access, a same-address run (stride 0) …
        rec.access(Access::read(0x9000, 1));
        for _ in 0..5 {
            rec.access(Access::read(0x9100, 4));
        }
        // … and a wide-strided read run.
        for i in 0..7u32 {
            rec.access(Access::read(0x5000 + i * 64, 4));
        }
        let g = GoldenTrace::from_recorder(&rec, 1);
        let bytes = g.to_bytes();
        assert!(
            bytes.len() < 200,
            "1013 accesses must compress into a handful of records: {} bytes",
            bytes.len()
        );
        let back = GoldenTrace::from_bytes(&bytes).expect("parses");
        assert_eq!(back, g, "expansion must be lossless");
        assert!(back.compare(&rec, 1).is_ok());
    }

    #[test]
    fn runs_shorter_than_min_run_stay_word_records() {
        let mut rec = TraceRecorder::new();
        for i in 0..(MIN_RUN as u32 - 1) {
            rec.access(Access::read(0x1000 + i * 4, 4));
        }
        let g = GoldenTrace::from_recorder(&rec, 1);
        let bytes = g.to_bytes();
        // 36-byte header + three 6-byte word records, no range records.
        assert_eq!(bytes.len(), 36 + (MIN_RUN - 1) * 6);
        assert_eq!(GoldenTrace::from_bytes(&bytes).expect("parses"), g);
    }

    /// Goldens recorded before the batched protocol (format version 1,
    /// one 5-byte record per word) must keep parsing and comparing —
    /// this is the compatibility contract that lets committed v1 traces
    /// guard the refactor itself.
    #[test]
    fn v1_files_still_parse_and_compare() {
        let rec = stream(40);
        let g = GoldenTrace::from_recorder(&rec, 3);
        let mut v1 = Vec::new();
        v1.extend_from_slice(b"RGLD");
        v1.extend_from_slice(&1u32.to_le_bytes());
        v1.extend_from_slice(&3u32.to_le_bytes());
        v1.extend_from_slice(&g.total.to_le_bytes());
        v1.extend_from_slice(&g.hash.to_le_bytes());
        v1.extend_from_slice(&(g.prefix.len() as u32).to_le_bytes());
        for a in &g.prefix {
            v1.extend_from_slice(&a.addr.to_le_bytes());
            let kind = if a.kind == AccessKind::Write { 0x80u8 } else { 0 };
            v1.push((a.size & 0x7f) | kind);
        }
        let back = GoldenTrace::from_bytes(&v1).expect("v1 parses");
        assert_eq!(back, g, "v1 and v2 expand to the same words");
        assert!(back.compare(&rec, 3).is_ok());
    }

    #[test]
    fn reports_first_divergence_offset() {
        let golden = GoldenTrace::from_recorder(&stream(100), 1);
        let mut fresh = TraceRecorder::new();
        for (i, &a) in golden.prefix.iter().enumerate() {
            let mut a = a;
            if i == 57 {
                a.addr ^= 4; // a single flipped access
            }
            fresh.access(a);
        }
        let err = golden.compare(&fresh, 1).expect_err("must diverge");
        assert!(err.contains("access #57"), "got: {err}");
    }

    #[test]
    fn detects_divergence_past_the_prefix_by_hash_and_length() {
        let mut golden_rec = stream(50);
        let mut fresh = stream(50);
        // Same prefix, one extra access in the replay.
        fresh.access(Access::read(0x9000, 4));
        let golden = GoldenTrace::from_recorder(&golden_rec, 1);
        let err = golden.compare(&fresh, 1).expect_err("length changed");
        assert!(err.contains("stream length changed"), "got: {err}");

        // Same length, but pretend the tail (past the stored prefix)
        // differed: truncate the stored prefix, then perturb the hash.
        golden_rec.hash ^= 1;
        let golden = GoldenTrace {
            prefix: golden_rec.prefix[..10].to_vec(),
            ..GoldenTrace::from_recorder(&golden_rec, 1)
        };
        let fresh = stream(50);
        let err = golden.compare(&fresh, 1).expect_err("hash differs");
        assert!(err.contains("hash differs"), "got: {err}");
    }

    #[test]
    fn rejects_foreign_files() {
        assert!(GoldenTrace::from_bytes(b"JSON{}").is_err());
        let mut bytes = GoldenTrace::from_recorder(&stream(3), 1).to_bytes();
        bytes[4] = 99; // version
        assert!(GoldenTrace::from_bytes(&bytes).unwrap_err().contains("version"));
        bytes.truncate(30);
        bytes[4] = 1;
        assert!(GoldenTrace::from_bytes(&bytes).is_err());
    }
}
