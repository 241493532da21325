//! Diffing for reproduction artifacts: the Table 1 line diff, and a
//! field-level diff over `RSNP` runtime snapshots.
//!
//! For Table 1 the paper counts "the number of changed or extra lines of
//! code in the region-based version, based on the results of `diff -f`".
//! We compute the same quantity between our malloc-variant and
//! region-variant source sections: the number of lines of the region
//! version that do not appear (in order) in the malloc version — i.e.
//! its lines minus the longest common subsequence.
//!
//! For golden *state* checks ([`crate::golden::golden_state_path`]) a
//! byte compare alone would only say "changed"; [`snapshot_divergence`]
//! decodes both snapshots field by field and names the first field that
//! moved — a region id and its drifted counter, a heap page, a stat or
//! cost by name — so the culprit subsystem is identified from the
//! failure message alone.

/// Number of changed-or-added lines in `region` relative to `malloc`
/// (whitespace-trimmed; blank lines ignored).
pub fn changed_lines(malloc: &str, region: &str) -> usize {
    let a: Vec<&str> = malloc.lines().map(str::trim).filter(|l| !l.is_empty()).collect();
    let b: Vec<&str> = region.lines().map(str::trim).filter(|l| !l.is_empty()).collect();
    b.len() - lcs_len(&a, &b)
}

/// Number of significant (non-blank) lines.
pub fn significant_lines(src: &str) -> usize {
    src.lines().map(str::trim).filter(|l| !l.is_empty()).count()
}

/// Compares two runtime snapshots and describes the **first diverging
/// field** by name — `region[3].rc`, `heap.page[12]`, `costs.deletes`,
/// `mirror[40]` — with both values. `None` means the snapshots are
/// byte-identical. Undecodable input is reported as a divergence too
/// (a golden state that no longer parses *is* a divergence).
pub fn snapshot_divergence(golden: &[u8], fresh: &[u8]) -> Option<String> {
    if golden == fresh {
        return None;
    }
    let g = match snapshot_fields(golden) {
        Ok(f) => f,
        Err(e) => return Some(format!("golden snapshot does not decode: {e}")),
    };
    let f = match snapshot_fields(fresh) {
        Ok(f) => f,
        Err(e) => return Some(format!("fresh snapshot does not decode: {e}")),
    };
    for (i, (gf, ff)) in g.iter().zip(&f).enumerate() {
        if gf.0 != ff.0 {
            // Field *names* diverged: a structural change upstream of
            // this point (e.g. a different region count) already renamed
            // the walk; the last common prefix field is the culprit.
            return Some(format!(
                "structure diverges at field #{i}: golden has {}, fresh has {}",
                gf.0, ff.0
            ));
        }
        if gf.1 != ff.1 {
            return Some(format!("first divergence: {} — golden {}, fresh {}", gf.0, gf.1, ff.1));
        }
    }
    if g.len() != f.len() {
        return Some(format!(
            "snapshots share {} fields, then lengths differ (golden {}, fresh {} fields)",
            g.len().min(f.len()),
            g.len(),
            f.len()
        ));
    }
    Some("snapshots differ in bytes but not in any decoded field".to_string())
}

/// Decodes an `RSNP` snapshot into a flat `(name, value)` field list —
/// the same layout [`RegionRuntime::capture_snapshot`] writes (DESIGN
/// §14). Heap pages and descriptor names are folded to one digest value
/// per item so the list stays proportional to the *structure*, not the
/// heap size.
///
/// [`RegionRuntime::capture_snapshot`]: region_core::RegionRuntime::capture_snapshot
fn snapshot_fields(bytes: &[u8]) -> Result<Vec<(String, u64)>, region_core::SnapshotError> {
    use region_core::{SnapReader, SNAPSHOT_MAGIC};

    use crate::rng::{fold, FNV_OFFSET};

    fn fnv(bytes: &[u8]) -> u64 {
        bytes.iter().fold(FNV_OFFSET, |h, &b| fold(h, u64::from(b)))
    }

    let mut r = SnapReader::new(bytes);
    let mut out: Vec<(String, u64)> = Vec::new();
    let push = |name: String, v: u64, out: &mut Vec<(String, u64)>| out.push((name, v));

    let magic = r.raw(4)?;
    push("magic".into(), fnv(magic), &mut out);
    if magic != SNAPSHOT_MAGIC {
        return Ok(out); // nothing after the magic is trustworthy
    }
    push("version".into(), u64::from(r.u32()?), &mut out);

    r.section("heap");
    push("heap.max_bytes".into(), r.u64()?, &mut out);
    let sbrk = r.opt_u64()?;
    push("heap.sbrk_fault_after".into(), sbrk.map_or(0, |v| v + 1), &mut out);
    push("heap.loads".into(), r.u64()?, &mut out);
    push("heap.stores".into(), r.u64()?, &mut out);
    let n_pages = r.u32()?;
    push("heap.pages".into(), u64::from(n_pages), &mut out);
    for p in 0..n_pages {
        let digest = match r.u8()? {
            0 => 0,
            1 => fnv(r.raw(simheap::PAGE_SIZE as usize)?),
            _ => return Err(r.malformed()),
        };
        push(format!("heap.page[{p}]"), digest, &mut out);
    }

    r.section("config");
    for name in ["config.mode", "config.stagger", "config.clear_on_alloc"] {
        push(name.into(), u64::from(r.u8()?), &mut out);
    }
    push("config.stack_pages".into(), u64::from(r.u32()?), &mut out);
    push("config.heap.max_bytes".into(), r.u64()?, &mut out);
    let sbrk = r.opt_u64()?;
    push("config.heap.sbrk_fault_after".into(), sbrk.map_or(0, |v| v + 1), &mut out);

    r.section("descriptors");
    let n_descs = r.u32()?;
    push("descriptors".into(), u64::from(n_descs), &mut out);
    for d in 0..n_descs {
        push(format!("desc[{d}].name"), fnv(r.bytes()?), &mut out);
        push(format!("desc[{d}].size"), u64::from(r.u32()?), &mut out);
        let n_offs = r.u32()?;
        push(format!("desc[{d}].ptr_offsets"), u64::from(n_offs), &mut out);
        for o in 0..n_offs {
            push(format!("desc[{d}].ptr_offset[{o}]"), u64::from(r.u32()?), &mut out);
        }
    }

    r.section("regions");
    let n_regions = r.u32()?;
    push("regions".into(), u64::from(n_regions), &mut out);
    for i in 0..n_regions {
        push(format!("region[{i}].rc"), r.i64()? as u64, &mut out);
        let live = r.u8()?;
        push(format!("region[{i}].live"), u64::from(live), &mut out);
        if live == 2 {
            // Parked mid-deletion: the phase payload comes next.
            let phase = r.u8()?;
            push(format!("region[{i}].phase"), u64::from(phase), &mut out);
            match phase {
                0 => {
                    push(format!("region[{i}].scan.attempt_frames"), r.u64()?, &mut out);
                    push(format!("region[{i}].scan.attempt_slots"), r.u64()?, &mut out);
                }
                1 => {
                    let n = r.u32()?;
                    push(format!("region[{i}].cleanup.marks"), u64::from(n), &mut out);
                    for j in 0..n {
                        for part in ["page", "start", "cursor"] {
                            let v = u64::from(r.u32()?);
                            push(format!("region[{i}].cleanup.mark[{j}].{part}"), v, &mut out);
                        }
                    }
                }
                2 => {
                    let n = r.u32()?;
                    push(format!("region[{i}].return.pages"), u64::from(n), &mut out);
                    for j in 0..n {
                        let v = u64::from(r.u32()?);
                        push(format!("region[{i}].return.page[{j}]"), v, &mut out);
                    }
                }
                _ => return Err(r.malformed()),
            }
        }
        for bump in ["normal", "string"] {
            let n = r.u32()?;
            push(format!("region[{i}].{bump}.pages"), u64::from(n), &mut out);
            for j in 0..n {
                push(format!("region[{i}].{bump}.page[{j}].addr"), u64::from(r.u32()?), &mut out);
                push(format!("region[{i}].{bump}.page[{j}].start"), u64::from(r.u32()?), &mut out);
            }
            push(format!("region[{i}].{bump}.alloc_from"), u64::from(r.u32()?), &mut out);
        }
        push(format!("region[{i}].bytes"), r.u64()?, &mut out);
        push(format!("region[{i}].allocs"), r.u64()?, &mut out);
    }

    r.section("page-pool");
    let n_free = r.u32()?;
    push("free_pages".into(), u64::from(n_free), &mut out);
    for i in 0..n_free {
        push(format!("free_page[{i}]"), u64::from(r.u32()?), &mut out);
    }
    r.section("page-map");
    let n_root = r.u32()?;
    push("map_root".into(), u64::from(n_root), &mut out);
    for i in 0..n_root {
        let c = r.opt_u32()?;
        push(format!("map_root[{i}]"), c.map_or(0, |v| u64::from(v) + 1), &mut out);
    }
    let n_mirror = r.u32()?;
    push("mirror".into(), u64::from(n_mirror), &mut out);
    for i in 0..n_mirror {
        push(format!("mirror[{i}]"), u64::from(r.u32()?), &mut out);
    }

    r.section("stats");
    for name in [
        "stats.total_allocs",
        "stats.total_bytes",
        "stats.live_bytes",
        "stats.max_live_bytes",
        "stats.total_regions",
        "stats.live_regions",
        "stats.max_live_regions",
        "stats.max_region_bytes",
    ] {
        push(name.into(), r.u64()?, &mut out);
    }
    r.section("costs");
    for name in [
        "costs.barriers_global",
        "costs.barriers_region",
        "costs.barriers_unknown",
        "costs.barriers_elided",
        "costs.barrier_instrs",
        "costs.frames_scanned",
        "costs.slots_scanned",
        "costs.frames_unscanned",
        "costs.slots_unscanned",
        "costs.scan_instrs",
        "costs.cleanup_objects",
        "costs.cleanup_ptrs",
        "costs.cleanup_pages",
        "costs.cleanup_instrs",
        "costs.deletes",
        "costs.deletes_failed",
    ] {
        push(name.into(), r.u64()?, &mut out);
    }

    r.section("stack");
    push("stack.base".into(), u64::from(r.u32()?), &mut out);
    push("stack.slots".into(), u64::from(r.u32()?), &mut out);
    let n_frames = r.u32()?;
    push("stack.frames".into(), u64::from(n_frames), &mut out);
    for i in 0..n_frames {
        push(format!("stack.frame[{i}].base_slot"), u64::from(r.u32()?), &mut out);
        push(format!("stack.frame[{i}].n_slots"), u64::from(r.u32()?), &mut out);
    }
    push("stack.top_slot".into(), u64::from(r.u32()?), &mut out);
    push("stack.hwm".into(), r.u64()?, &mut out);

    r.section("footprint");
    for name in ["footprint.data_pages", "footprint.map_pages", "footprint.globals_pages"] {
        push(name.into(), r.u64()?, &mut out);
    }

    r.section("fault-plan");
    let n_fail = r.u32()?;
    push("faults.fail_pages".into(), u64::from(n_fail), &mut out);
    for i in 0..n_fail {
        push(format!("faults.fail_page[{i}]"), r.u64()?, &mut out);
    }
    for name in ["faults.every_mth_alloc", "faults.alloc_one_in", "faults.sbrk_after"] {
        let v = r.opt_u64()?;
        push(name.into(), v.map_or(0, |v| v.wrapping_add(1)), &mut out);
    }
    for name in ["faults.rng", "faults.pages_seen", "faults.allocs_seen", "faults.injected"] {
        push(name.into(), r.u64()?, &mut out);
    }

    r.section("violations");
    let n_viol = r.u32()?;
    push("violations".into(), u64::from(n_viol), &mut out);
    for i in 0..n_viol {
        let tag = r.u8()?;
        push(format!("violation[{i}].tag"), u64::from(tag), &mut out);
        match tag {
            0 | 1 => push(format!("violation[{i}].region"), u64::from(r.u32()?), &mut out),
            2 => {
                push(format!("violation[{i}].region"), u64::from(r.u32()?), &mut out);
                push(format!("violation[{i}].rc"), r.i64()? as u64, &mut out);
            }
            3 => {
                for side in ["loc", "value"] {
                    let v = r.opt_u32()?;
                    push(
                        format!("violation[{i}].{side}_region"),
                        v.map_or(0, |v| u64::from(v) + 1),
                        &mut out,
                    );
                }
            }
            _ => return Err(r.malformed()),
        }
    }

    r.section("globals");
    let n_globals = r.u32()?;
    push("global_ptr_locs".into(), u64::from(n_globals), &mut out);
    for i in 0..n_globals {
        push(format!("global_ptr_loc[{i}]"), u64::from(r.u32()?), &mut out);
    }
    r.finish()?;
    Ok(out)
}

/// Classic O(n·m) LCS length with a rolling row.
fn lcs_len(a: &[&str], b: &[&str]) -> usize {
    let mut prev = vec![0usize; b.len() + 1];
    let mut cur = vec![0usize; b.len() + 1];
    for &la in a {
        for (j, &lb) in b.iter().enumerate() {
            cur[j + 1] = if la == lb { prev[j] + 1 } else { cur[j].max(prev[j + 1]) };
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_sources_have_zero_changes() {
        let s = "a\nb\nc\n";
        assert_eq!(changed_lines(s, s), 0);
    }

    #[test]
    fn counts_added_and_modified_lines() {
        let a = "one\ntwo\nthree\n";
        let b = "one\ntwo-changed\nthree\nfour\n";
        assert_eq!(changed_lines(a, b), 2);
    }

    #[test]
    fn deletions_do_not_count_as_region_lines() {
        // Lines only in the malloc version (e.g. free() calls) are not
        // "lines in the region-based version".
        let a = "one\nfree(x)\ntwo\n";
        let b = "one\ntwo\n";
        assert_eq!(changed_lines(a, b), 0);
    }

    #[test]
    fn whitespace_and_blanks_are_ignored() {
        let a = "  one\n\n two \n";
        let b = "one\ntwo\n\n\n";
        assert_eq!(changed_lines(a, b), 0);
        assert_eq!(significant_lines(b), 2);
    }

    #[test]
    fn reordered_lines_count_once() {
        let a = "a\nb\nc\n";
        let b = "c\na\nb\n"; // LCS is "a b" (or "b c"): one changed line
        assert_eq!(changed_lines(a, b), 1);
    }

    use region_core::{RegionRuntime, TypeDescriptor};

    /// A runtime with a few regions, objects and cross-region pointers —
    /// enough state that every snapshot section is non-trivial.
    fn busy_snapshot() -> Vec<u8> {
        let mut rt = RegionRuntime::new_safe();
        let d = rt.register_type(TypeDescriptor::new("list", 8, vec![4]));
        let r1 = rt.new_region();
        let r2 = rt.new_region();
        let a = rt.ralloc(r1, d);
        let b = rt.ralloc(r2, d);
        rt.store_ptr_region(a + 4, b);
        rt.rstralloc(r2, 100);
        rt.delete_region(r2); // blocked by the cross-region pointer
        rt.capture_snapshot()
    }

    #[test]
    fn snapshot_fields_walk_a_real_snapshot_to_the_end() {
        let snap = busy_snapshot();
        let fields = snapshot_fields(&snap).expect("real snapshot must decode");
        // Spot-check that the walk reaches every section.
        for want in ["heap.loads", "region[0].rc", "stats.total_allocs", "costs.deletes", "stack.hwm", "faults.injected", "global_ptr_locs"] {
            assert!(fields.iter().any(|(n, _)| n == want), "missing field {want}");
        }
    }

    #[test]
    fn identical_snapshots_have_no_divergence() {
        let snap = busy_snapshot();
        assert_eq!(snapshot_divergence(&snap, &snap.clone()), None);
    }

    #[test]
    fn first_diverging_field_is_named_with_both_values() {
        let golden = busy_snapshot();
        let mut fresh = golden.clone();
        fresh[8] ^= 0xFF; // low byte of heap.max_bytes, directly after magic+version
        let msg = snapshot_divergence(&golden, &fresh).expect("doctored snapshot must diverge");
        assert!(msg.contains("heap.max_bytes"), "message was: {msg}");
        assert!(msg.contains("golden") && msg.contains("fresh"), "message was: {msg}");
    }

    #[test]
    fn behavioural_divergence_names_a_field() {
        // Two runs that differ by one allocation diverge somewhere concrete
        // (a heap page digest, since pages precede the counters).
        let golden = busy_snapshot();
        let fresh = {
            let mut rt = RegionRuntime::new_safe();
            let d = rt.register_type(TypeDescriptor::new("list", 8, vec![4]));
            let r1 = rt.new_region();
            let r2 = rt.new_region();
            let a = rt.ralloc(r1, d);
            let b = rt.ralloc(r2, d);
            rt.store_ptr_region(a + 4, b);
            rt.rstralloc(r2, 100);
            rt.ralloc(r1, d); // the extra op
            rt.delete_region(r2);
            rt.capture_snapshot()
        };
        let msg = snapshot_divergence(&golden, &fresh).expect("extra alloc must diverge");
        assert!(msg.contains("first divergence") || msg.contains("structure"), "message was: {msg}");
    }

    #[test]
    fn parked_snapshot_decodes_and_a_doctored_cursor_is_named() {
        // Parked mid-cleanup: budget 1 releases one object per step.
        let mut rt = RegionRuntime::new_safe();
        let d = rt.register_type(TypeDescriptor::new("list", 8, vec![4]));
        let (r1, r2) = (rt.new_region(), rt.new_region());
        for _ in 0..6 {
            let a = rt.ralloc(r1, d);
            let b = rt.ralloc(r2, d);
            rt.store_ptr_region(a + 4, b);
        }
        rt.set_delete_budget(1);
        for _ in 0..3 {
            rt.try_delete_region_step(r1).expect("a step");
        }
        assert!(rt.is_parked(r1));
        let golden = rt.capture_snapshot();
        let fields = snapshot_fields(&golden).expect("a parked snapshot must decode");
        let get = |name: &str| {
            fields.iter().find(|(n, _)| n == name).unwrap_or_else(|| panic!("no {name}")).1 as u32
        };
        assert_eq!(get("region[0].live"), 2);
        assert_eq!(get("region[0].phase"), 1, "parked in cleanup");
        assert!(fields.iter().any(|(n, _)| n == "global_ptr_locs"), "decoded to the end");

        // Move the cursor one word on; the field diff must name it.
        let mark = "region[0].cleanup.mark[0]";
        let [page, start, cursor] =
            ["page", "start", "cursor"].map(|part| get(&format!("{mark}.{part}")));
        assert!(cursor > start, "the cursor sits mid-page");
        let pattern: Vec<u8> = [page, start, cursor].iter().flat_map(|v| v.to_le_bytes()).collect();
        let at = golden.windows(12).position(|w| w == pattern).expect("mark bytes");
        assert_eq!(golden.windows(12).rposition(|w| w == pattern), Some(at), "mark bytes unique");
        let mut fresh = golden.clone();
        fresh[at + 8..at + 12].copy_from_slice(&(cursor + 4).to_le_bytes());
        let msg = snapshot_divergence(&golden, &fresh).expect("doctored cursor must diverge");
        assert_eq!(
            msg,
            format!("first divergence: {mark}.cursor — golden {cursor}, fresh {}", cursor + 4)
        );
    }

    #[test]
    fn undecodable_fresh_snapshot_is_reported_not_panicked() {
        let golden = busy_snapshot();
        let fresh = &golden[..golden.len() - 2]; // truncated
        let msg = snapshot_divergence(&golden, fresh).expect("truncation must diverge");
        assert!(msg.contains("does not decode"), "message was: {msg}");
    }
}
