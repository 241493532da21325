//! World snapshots: capture and restore of a whole sharded address space
//! (DESIGN §15.4).
//!
//! A v1 `RSNP` snapshot ([`RegionRuntime::capture_snapshot`]) serializes
//! one runtime on one private heap. A **world snapshot** (version 2 of
//! the same `RSNP` container) serializes a [`SharedSpace`] and every
//! runtime mutating it: the space geometry, the global page table with
//! zero-page elision, the atomic ownership mirror, and then — per worker,
//! in worker order — the shard's sbrk/counter state followed by the
//! runtime body in exactly the v1 byte layout
//! ([`RegionRuntime::write_snapshot_body`]).
//!
//! Restore is gated the same way v1 restore is, per runtime: untrusted
//! bytes never panic, every decoded address is bounds-checked against its
//! own shard (a corrupt snapshot cannot point worker *w*'s books at
//! worker *v*'s pages), each runtime must pass the object re-walk and the
//! mandatory sanitize pass, and the decoded space mirror must agree with
//! every runtime's page map. Re-capturing a restored world yields the
//! original bytes.
//!
//! Capture requires a quiescent world — the caller holds `&` references
//! to every runtime, so no worker thread can be mutating the space.

use std::sync::Arc;

use simheap::{HeapBackend, HeapShard, SharedSpace, SpaceConfig, PAGE_SIZE};

use crate::runtime::RegionRuntime;
use crate::snapshot::{SnapReader, SnapWriter, SnapshotError, SNAPSHOT_MAGIC};

/// Version tag of world (sharded) snapshots inside the `RSNP` container.
/// Version 1 is the single-heap layout of
/// [`RegionRuntime::capture_snapshot`]; readers of either version reject
/// the other with [`SnapshotError::UnsupportedVersion`], so the two
/// formats can evolve independently.
pub const WORLD_SNAPSHOT_VERSION: u32 = 2;

/// A restored world: the rebuilt space plus one runtime per worker, in
/// worker order, each already past its restore gates.
pub struct RestoredWorld {
    /// The rebuilt shared space (all shards claimed by the runtimes).
    pub space: Arc<SharedSpace>,
    /// Runtime `w` sits on worker `w`'s shard.
    pub runtimes: Vec<RegionRuntime<HeapShard>>,
}

impl std::fmt::Debug for RestoredWorld {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RestoredWorld")
            .field("space", &self.space)
            .field("runtimes", &self.runtimes.len())
            .finish()
    }
}

/// Serializes a sharded world — the space and one runtime per worker, in
/// worker order — into a version-2 `RSNP` byte stream.
///
/// # Panics
///
/// Panics if `runtimes` does not hold exactly one runtime per worker of
/// `space` in worker order, if any runtime sits on a different space, or
/// if any shard still has a trace sink attached (sinks are live host
/// objects with no serial form; detach first, re-attach after restore).
pub fn capture_world(space: &Arc<SharedSpace>, runtimes: &[&RegionRuntime<HeapShard>]) -> Vec<u8> {
    assert_eq!(
        runtimes.len(),
        space.workers() as usize,
        "world capture needs one runtime per worker"
    );
    for (w, rt) in runtimes.iter().enumerate() {
        assert!(
            Arc::ptr_eq(rt.heap().space(), space),
            "runtime {w} sits on a different SharedSpace"
        );
        assert_eq!(rt.heap().worker(), w as u32, "runtimes must be in worker order");
        assert!(
            !rt.heap().is_tracing(),
            "cannot capture a world while worker {w} has a trace sink attached"
        );
    }
    let mut w = SnapWriter::new();
    w.raw(&SNAPSHOT_MAGIC);
    w.u32(WORLD_SNAPSHOT_VERSION);
    // -- space geometry --
    w.u64(space.max_bytes());
    w.u32(space.workers());
    // -- global page table + ownership mirror --
    let slots = space.total_pages();
    w.u32(slots);
    for page in 0..slots {
        match space.page_snapshot(page) {
            None => w.u8(0),
            Some(words) => {
                if words.iter().all(|&v| v == 0) {
                    w.u8(2); // mapped all-zero page, written or not: tag only
                } else {
                    w.u8(1);
                    for &v in &words {
                        w.raw(&v.to_le_bytes());
                    }
                }
                w.u32(space.mirror_entry(page));
            }
        }
    }
    // -- per-worker shard state + runtime body (v1 layout) --
    for rt in runtimes {
        let shard = rt.heap();
        w.u32(shard.allocated_pages());
        w.opt_u64(shard.sbrk_fault_after());
        w.u64(shard.load_count());
        w.u64(shard.store_count());
        rt.write_snapshot_body(&mut w);
    }
    w.into_bytes()
}

/// Rebuilds a world from [`capture_world`] bytes.
///
/// Untrusted input never panics: bad magic, a non-world version,
/// truncation, unknown page tags, impossible geometry (zero or >255
/// workers, a space too small for its workers, a slot count that does
/// not match), pages mapped outside every worker's allocated prefix,
/// mirror entries naming out-of-range workers or pages outside the named
/// worker's shard, and trailing garbage are all rejected with a typed
/// [`SnapshotError`]. Each decoded runtime must then pass the same gates
/// as a v1 restore (object re-walk + mandatory sanitize), and finally the
/// space-wide mirror must agree entry-for-entry with the runtimes' page
/// maps.
pub fn restore_world(bytes: &[u8]) -> Result<RestoredWorld, SnapshotError> {
    let mut r = SnapReader::new(bytes);
    if r.raw(4, "magic")? != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = r.u32("version")?;
    if version != WORLD_SNAPSHOT_VERSION {
        return Err(SnapshotError::UnsupportedVersion { version });
    }
    // -- space geometry --
    r.section("space");
    let max_bytes = r.u64("space.max_bytes")?;
    let workers = r.u32("space.workers")?;
    if !(1..=255).contains(&workers) {
        return Err(r.malformed());
    }
    let total_pages = max_bytes.min(u64::from(u32::MAX)) / u64::from(PAGE_SIZE);
    if total_pages <= u64::from(workers) {
        return Err(r.malformed());
    }
    let space = SharedSpace::new(SpaceConfig { max_bytes, workers });
    // -- global page table + ownership mirror --
    r.section("pages");
    let slots = r.u32("pages")?;
    if slots != space.total_pages() {
        return Err(r.malformed());
    }
    let span = space.span_pages();
    let psize = PAGE_SIZE as usize;
    let mut mapped = vec![false; slots as usize];
    for page in 0..slots {
        let tag = r.u8("page.tag")?;
        if tag == 0 {
            continue;
        }
        // Only workers' spans hold pages; slot 0 is the guard page.
        if page == 0 || tag > 2 {
            return Err(r.malformed());
        }
        let words: Option<Vec<u32>> = if tag == 1 {
            let chunks = r.raw(psize, "page")?.chunks_exact(4);
            Some(chunks.map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]])).collect())
        } else {
            None
        };
        let mirror = r.u32("page.mirror")?;
        match SharedSpace::decode_mirror(mirror) {
            Some((owner, _cell)) => {
                let in_owner_span = owner < workers
                    && page >= space.base_page(owner)
                    && page < space.base_page(owner) + span;
                if !in_owner_span {
                    return Err(r.malformed());
                }
            }
            // A nonzero word that decodes to no owner (zero worker byte)
            // is not something the writer can emit.
            None if mirror != 0 => return Err(r.malformed()),
            None => {}
        }
        // An all-zero page stays unborn, as it was before capture: the
        // adopted break maps it and it reads as zero until written.
        if let Some(words) = words {
            space.install_page(page, &words);
        }
        space.set_mirror_entry(page, mirror);
        mapped[page as usize] = true;
    }
    // -- per-worker shard state + runtime body --
    r.section("shards");
    let mut runtimes = Vec::new();
    for w in 0..workers {
        let allocated = r.u32("shard.allocated")?;
        if allocated > span {
            return Err(r.malformed());
        }
        let base = space.base_page(w);
        // The shard's mapped range is exactly the prefix of its span
        // below the break: a hole inside it or a stray page beyond it is
        // corrupt.
        for i in 0..span {
            if mapped[(base + i) as usize] != (i < allocated) {
                return Err(r.malformed());
            }
        }
        let fault_after = r.opt_u64("shard.sbrk_fault_after")?;
        let loads = r.u64("shard.loads")?;
        let stores = r.u64("shard.stores")?;
        let shard = space.adopt_shard(w, allocated, loads, stores, fault_after);
        let floor = base.checked_mul(PAGE_SIZE).ok_or_else(|| r.malformed())?;
        let rt = RegionRuntime::read_snapshot_body(&mut r, shard, floor)?;
        runtimes.push(rt.finish_restore()?);
    }
    r.finish()?;
    // Final gate: the decoded space mirror must say exactly what the
    // runtimes' page maps say.
    let mirror_mismatches = world_mirror_mismatches(&space, runtimes.iter());
    if mirror_mismatches != 0 {
        return Err(SnapshotError::SanitizeFailed { rc_mismatches: 0, mirror_mismatches });
    }
    Ok(RestoredWorld { space, runtimes })
}

/// Counts disagreements between the space-wide atomic ownership mirror
/// and the runtimes' per-worker page maps: an owned page whose mirror
/// entry is missing or names the wrong worker/region, or a mirror entry
/// claiming a page its worker's runtime does not own. Zero on every
/// consistent world; the chaos harness calls this after injected panics
/// and restores.
pub fn world_mirror_mismatches<'a, I>(space: &SharedSpace, runtimes: I) -> usize
where
    I: Iterator<Item = &'a RegionRuntime<HeapShard>>,
{
    let mut mismatches = 0;
    for rt in runtimes {
        let w = rt.heap().worker();
        let base = space.base_page(w);
        let end = base + space.span_pages();
        let map = rt.map_mirror_entries();
        for page in base..end {
            let cell = map.get(page as usize).copied().unwrap_or(0);
            let expect = if cell == 0 { 0 } else { (w + 1) << 24 | cell };
            if space.mirror_entry(page) != expect {
                mismatches += 1;
            }
        }
    }
    mismatches
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::RegionConfig;
    use crate::TypeDescriptor;
    use simheap::Addr;

    fn shard_config() -> RegionConfig {
        RegionConfig::default()
    }

    fn small_space(workers: u32) -> Arc<SharedSpace> {
        SharedSpace::new(SpaceConfig { max_bytes: 4 * 1024 * 1024, workers })
    }

    fn populated_world(workers: u32) -> (Arc<SharedSpace>, Vec<RegionRuntime<HeapShard>>) {
        let space = small_space(workers);
        let mut runtimes = Vec::new();
        for w in 0..workers {
            let mut rt = RegionRuntime::with_config_on(shard_config(), space.shard(w));
            let d = rt.register_type(TypeDescriptor::new("pair", 8, vec![4]));
            let r = rt.new_region();
            for i in 0..20u32 {
                let a = rt.ralloc(r, d);
                rt.heap_mut().store_u32(a, w * 1000 + i);
            }
            let s = rt.rstralloc(r, 100 + w);
            rt.heap_mut().store_u32(s, 0xfeed_0000 | w);
            runtimes.push(rt);
        }
        (space, runtimes)
    }

    #[test]
    fn world_roundtrip_is_byte_identical() {
        let (space, runtimes) = populated_world(3);
        let refs: Vec<&RegionRuntime<HeapShard>> = runtimes.iter().collect();
        let bytes = capture_world(&space, &refs);
        let world = restore_world(&bytes).expect("restore");
        assert_eq!(world.runtimes.len(), 3);
        let refs2: Vec<&RegionRuntime<HeapShard>> = world.runtimes.iter().collect();
        let bytes2 = capture_world(&world.space, &refs2);
        assert_eq!(bytes, bytes2, "re-capture must reproduce the exact stream");
    }

    #[test]
    fn restored_world_keeps_running_identically() {
        let (space, mut runtimes) = populated_world(2);
        let refs: Vec<&RegionRuntime<HeapShard>> = runtimes.iter().collect();
        let bytes = capture_world(&space, &refs);
        let mut world = restore_world(&bytes).expect("restore");
        // Drive both the original and the restored world through the same
        // suffix; every address and counter must match.
        for (orig, rest) in runtimes.iter_mut().zip(world.runtimes.iter_mut()) {
            let d_o = orig.register_type(TypeDescriptor::new("post", 12, vec![]));
            let d_r = rest.register_type(TypeDescriptor::new("post", 12, vec![]));
            assert_eq!(d_o, d_r);
            let r_o = orig.new_region();
            let r_r = rest.new_region();
            assert_eq!(r_o, r_r);
            for _ in 0..50 {
                assert_eq!(orig.ralloc(r_o, d_o), rest.ralloc(r_r, d_r));
            }
            assert_eq!(orig.stats(), rest.stats());
            assert_eq!(orig.heap().load_count(), rest.heap().load_count());
            assert_eq!(orig.heap().store_count(), rest.heap().store_count());
            assert!(rest.sanitize().is_clean());
        }
    }

    #[test]
    fn v1_and_v2_streams_reject_each_other() {
        let (space, runtimes) = populated_world(1);
        let refs: Vec<&RegionRuntime<HeapShard>> = runtimes.iter().collect();
        let world_bytes = capture_world(&space, &refs);
        assert!(matches!(
            RegionRuntime::restore_snapshot(&world_bytes),
            Err(SnapshotError::UnsupportedVersion { version: 2 })
        ));
        let rt = RegionRuntime::new_safe();
        let v1 = rt.capture_snapshot();
        assert!(matches!(
            restore_world(&v1),
            Err(SnapshotError::UnsupportedVersion { version: 1 })
        ));
    }

    #[test]
    fn truncation_and_corruption_are_typed_errors() {
        let (space, runtimes) = populated_world(2);
        let refs: Vec<&RegionRuntime<HeapShard>> = runtimes.iter().collect();
        let bytes = capture_world(&space, &refs);
        for cut in [0, 3, 8, 16, bytes.len() / 2, bytes.len() - 1] {
            assert!(restore_world(&bytes[..cut]).is_err(), "truncation at {cut} must fail");
        }
        // Corrupt the worker count (bytes 16..20, after magic, version and
        // max_bytes): zero workers is impossible geometry.
        let mut bad = bytes.clone();
        bad[16..20].copy_from_slice(&0u32.to_le_bytes());
        assert!(restore_world(&bad).is_err());
    }

    #[test]
    fn mirror_tampering_trips_the_restore_gate() {
        let (space, runtimes) = populated_world(1);
        let refs: Vec<&RegionRuntime<HeapShard>> = runtimes.iter().collect();
        let bytes = capture_world(&space, &refs);
        // Find an owned page's mirror entry in the stream and retarget it
        // at a different region id. The per-runtime sanitize still passes
        // (the page map is untouched) but the world mirror gate must not.
        let world = restore_world(&bytes).expect("clean restore first");
        let owned_page = {
            let map = world.runtimes[0].map_mirror_entries();
            (0..map.len()).find(|&p| map[p] != 0).expect("some owned page") as u32
        };
        drop(world);
        let tampered = {
            let mut b = bytes.clone();
            let entry = tamper_mirror_offset(&bytes, owned_page);
            let old = u32::from_le_bytes([b[entry], b[entry + 1], b[entry + 2], b[entry + 3]]);
            let new = old ^ 0x0000_0001; // different region cell, same worker
            b[entry..entry + 4].copy_from_slice(&new.to_le_bytes());
            b
        };
        match restore_world(&tampered) {
            Err(SnapshotError::SanitizeFailed { mirror_mismatches, .. }) => {
                assert!(mirror_mismatches > 0);
            }
            other => panic!("tampered mirror must fail the gate, got {other:?}"),
        }
    }

    /// Byte offset of page `target`'s mirror entry inside a v2 stream
    /// (test-only mirror of the writer's layout).
    fn tamper_mirror_offset(bytes: &[u8], target: u32) -> usize {
        let mut off = 4 + 4 + 8 + 4; // magic, version, max_bytes, workers
        let slots = u32::from_le_bytes([bytes[off], bytes[off + 1], bytes[off + 2], bytes[off + 3]]);
        off += 4;
        assert!(target < slots);
        for _page in 0..target {
            let tag = bytes[off];
            off += 1;
            match tag {
                0 => {}
                1 => off += PAGE_SIZE as usize + 4,
                2 => off += 4,
                _ => panic!("bad tag"),
            }
        }
        assert_eq!(bytes[off], 1, "target page must be a data page");
        off + 1 + PAGE_SIZE as usize
    }

    #[test]
    fn world_mirror_mismatch_counter_sees_divergence() {
        let (space, runtimes) = populated_world(2);
        assert_eq!(world_mirror_mismatches(&space, runtimes.iter()), 0);
        // Clobber one live mirror entry behind the runtimes' backs.
        let page = (0..space.total_pages())
            .find(|&p| space.mirror_entry(p) != 0)
            .expect("some owned page");
        let old = space.mirror_entry(page);
        space.set_mirror_entry(page, 0);
        assert_eq!(world_mirror_mismatches(&space, runtimes.iter()), 1);
        space.set_mirror_entry(page, old);
        assert_eq!(world_mirror_mismatches(&space, runtimes.iter()), 0);
    }

    #[test]
    fn single_worker_world_matches_private_heap_addresses() {
        // The W=1 shard contract: the same program on a private SimHeap
        // and on a single-shard world produces identical addresses,
        // counters and stats.
        let mut on_sim = RegionRuntime::with_config(shard_config());
        let space = small_space(1);
        let mut on_shard = RegionRuntime::with_config_on(shard_config(), space.shard(0));
        let d1 = on_sim.register_type(TypeDescriptor::new("t", 16, vec![0, 8]));
        let d2 = on_shard.register_type(TypeDescriptor::new("t", 16, vec![0, 8]));
        let r1 = on_sim.new_region();
        let r2 = on_shard.new_region();
        for i in 0..200u32 {
            let a = on_sim.ralloc(r1, d1);
            let b = on_shard.ralloc(r2, d2);
            assert_eq!(a, b);
            on_sim.heap_mut().store_u32(a.offset(4), i);
            on_shard.heap_mut().store_u32(b.offset(4), i);
        }
        let g1 = on_sim.alloc_globals(64);
        let g2 = on_shard.alloc_globals(64);
        assert_eq!(g1, g2);
        on_sim.store_ptr_global(g1, Addr::new(g1.raw()));
        on_shard.store_ptr_global(g2, Addr::new(g2.raw()));
        assert_eq!(on_sim.stats(), on_shard.stats());
        assert_eq!(on_sim.costs(), on_shard.costs());
        assert_eq!(on_sim.heap().load_count(), on_shard.heap().load_count());
        assert_eq!(on_sim.heap().store_count(), on_shard.heap().store_count());
        assert!(on_shard.sanitize().is_clean());
    }
}
