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
//! names the first field that moved — a region id and its drifted
//! counter, a heap page, a stat or cost by name — so the culprit
//! subsystem is identified from the failure message alone. The fields
//! come from [`region_core::snapshot_fields`], the restore decode run
//! with its field log on; this module does not read `RSNP` itself.

use region_core::snapshot_fields;

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
/// byte-identical. Input the restore decode rejects is reported as a
/// divergence too (a golden state that no longer parses *is* a
/// divergence).
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

    /// A runtime parked mid-cleanup: budget 1 releases one object per
    /// step, so the region table carries a cleanup mark.
    fn parked_snapshot() -> Vec<u8> {
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
        rt.capture_snapshot()
    }

    /// The offsets [`every_flipped_byte_is_rejected_or_named`] flips:
    /// every byte outside the raw heap-page bodies, plus the first byte
    /// of each body. A body is logged as one digest of all its bytes, so
    /// one byte stands for the page and keeps the sweep fast in a debug
    /// build. Bodies are found by the heap section's layout (DESIGN §14):
    /// a 37-byte header while `sbrk_fault_after` is `None`, then per page
    /// a tag byte, followed by the page's bytes when the tag is 1.
    fn sweep_offsets(snap: &[u8]) -> Vec<usize> {
        let fields = snapshot_fields(snap).expect("a real snapshot decodes");
        assert!(fields.contains(&("heap.sbrk_fault_after".to_string(), 0)));
        let mut bodies = Vec::new();
        let mut at = 37;
        for (_, tag) in fields.iter().filter(|(n, _)| n.starts_with("heap.page[") && n.ends_with(".tag")) {
            at += 1;
            if *tag == 1 {
                bodies.push(at + 1..at + simheap::PAGE_SIZE as usize);
                at += simheap::PAGE_SIZE as usize;
            }
        }
        (0..snap.len()).filter(|i| !bodies.iter().any(|b| b.contains(i))).collect()
    }

    #[test]
    fn every_flipped_byte_is_rejected_or_named() {
        // The field log covers every byte the decode consumes, so no
        // single-byte change can hide between two decoded fields. Flipping
        // the low bit too keeps flag and tag bytes decodable (0 <-> 1).
        for golden in [busy_snapshot(), parked_snapshot()] {
            let flips = sweep_offsets(&golden).into_iter().flat_map(|at| [(at, 0xFF), (at, 1)]);
            for (at, mask) in flips {
                let mut fresh = golden.clone();
                fresh[at] ^= mask;
                let msg = snapshot_divergence(&golden, &fresh).expect("a flipped byte diverges");
                let named = ["first divergence: ", "structure diverges", "snapshots share"]
                    .iter()
                    .any(|p| msg.starts_with(p));
                assert!(
                    named || msg.starts_with("fresh snapshot does not decode"),
                    "byte {at} of {} ^ {mask:#x}: {msg}",
                    golden.len()
                );
            }
        }
    }

    #[test]
    fn undecodable_fresh_snapshot_is_reported_not_panicked() {
        let golden = busy_snapshot();
        let fresh = &golden[..golden.len() - 2]; // truncated
        let msg = snapshot_divergence(&golden, fresh).expect("truncation must diverge");
        assert!(msg.contains("does not decode"), "message was: {msg}");
    }
}
