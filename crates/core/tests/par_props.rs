//! Property test for the parallel-region counting protocol.
//!
//! Random seeded interleavings of `retain` / `release` / `exchange_ref`
//! / `acquire` (plus thread deaths and RAII drops) across 2–4 scripted
//! threads must preserve the protocol's accounting identity at every
//! step:
//!
//! > sum of local counts (including the orphan ledger) == live
//! > references (raw retain strands + held `ParRef`s + published cells)
//!
//! The interleaving is scripted — one op at a time, the rng choosing
//! which thread acts — so a violation is perfectly reproducible from
//! its seed. On failure the harness shrinks the op sequence with a
//! greedy delta-debugging pass (the workspace `proptest` shim does not
//! shrink) and reports the minimal sequence that still violates the
//! invariant.

use std::collections::HashMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use region_core::par::{ParRef, ParRegionId, ParRegionPool, ParThread, RefCell32};
use region_core::ParRegionError;

/// One scripted step. `thread`, `region`, and `cell` are indices into
/// the world's tables, not pool identifiers, so a sequence replays
/// against a fresh pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Op {
    /// `retain` on a region: a new raw reference strand.
    Retain { thread: usize, region: usize },
    /// `release` one outstanding raw strand of the region (no-op when
    /// none exist — a release must destroy a reference that exists).
    Release { thread: usize, region: usize },
    /// Publish the region into a shared cell via `exchange_ref`.
    Publish { thread: usize, cell: usize, region: usize },
    /// Clear a shared cell via `exchange_ref(.., None)`.
    Clear { thread: usize, cell: usize },
    /// Take an RAII `ParRef` handle on the region.
    Acquire { thread: usize, region: usize },
    /// Drop the thread's oldest held `ParRef` (no-op when none held).
    DropRef { thread: usize },
    /// Drop the `ParThread` itself: settle-on-drop releases its held
    /// refs and folds its residual counts into the orphan ledger.
    DropThread { thread: usize },
}

/// Executes a sequence against a fresh pool, checking the accounting
/// identity after every op. Returns the first violation, or `None`.
fn check(threads: usize, regions: usize, cells: usize, ops: &[Op]) -> Option<String> {
    let pool = ParRegionPool::new();
    let cell_arr: Vec<Arc<RefCell32>> = (0..cells).map(|_| pool.register_cell()).collect();
    let mut handles: Vec<Option<ParThread>> = (0..threads).map(|_| Some(pool.register_thread())).collect();
    let region_ids: Vec<ParRegionId> = {
        let t = handles[0].as_mut().expect("thread 0 starts live");
        (0..regions).map(|_| t.create_region()).collect()
    };

    // The model: how many live references each region should have.
    // Raw strands are global (any live thread may release one — the
    // reference may have been handed across threads); held ParRefs are
    // tracked per thread so DropThread can forget them.
    let mut raw_strands: Vec<i64> = vec![0; regions];
    let mut held: Vec<Vec<(usize, ParRef)>> = (0..threads).map(|_| Vec::new()).collect();
    let mut published: Vec<Option<usize>> = vec![None; cells];

    for (step, &op) in ops.iter().enumerate() {
        match op {
            Op::Retain { thread, region } => {
                if let Some(t) = handles[thread].as_mut() {
                    t.retain(region_ids[region]);
                    raw_strands[region] += 1;
                }
            }
            Op::Release { thread, region } => {
                if raw_strands[region] > 0 {
                    if let Some(t) = handles[thread].as_mut() {
                        t.release(region_ids[region]);
                        raw_strands[region] -= 1;
                    }
                }
            }
            Op::Publish { thread, cell, region } => {
                if let Some(t) = handles[thread].as_mut() {
                    t.exchange_ref(&cell_arr[cell], Some(region_ids[region]));
                    published[cell] = Some(region);
                }
            }
            Op::Clear { thread, cell } => {
                if let Some(t) = handles[thread].as_mut() {
                    t.exchange_ref(&cell_arr[cell], None);
                    published[cell] = None;
                }
            }
            Op::Acquire { thread, region } => {
                if let Some(t) = handles[thread].as_mut() {
                    let r = t.acquire(region_ids[region]);
                    held[thread].push((region, r));
                }
            }
            Op::DropRef { thread } => {
                if handles[thread].is_some() && !held[thread].is_empty() {
                    held[thread].remove(0);
                }
            }
            Op::DropThread { thread } => {
                // Settle order matters: ParThread::drop marks the
                // ledger settled, making later ParRef drops no-ops, so
                // the held handles must go first to exercise both
                // paths across the suite.
                held[thread].clear();
                handles[thread] = None;
            }
        }

        // The identity must hold after *every* op, not just at the end.
        let mut expected: Vec<i64> = raw_strands.clone();
        for per_thread in &held {
            for &(region, _) in per_thread {
                expected[region] += 1;
            }
        }
        for &p in &published {
            if let Some(region) = p {
                expected[region] += 1;
            }
        }
        for (i, &r) in region_ids.iter().enumerate() {
            let got = pool.global_count(r);
            if got != expected[i] {
                return Some(format!(
                    "after step {step} ({op:?}): region {i} global_count {got} != {} live refs",
                    expected[i]
                ));
            }
        }
        let audit = pool.audit();
        if !audit.is_clean() {
            return Some(format!("after step {step} ({op:?}): audit unclean:\n{audit}"));
        }
    }

    // Full lifecycle: tear everything down and demand that every region
    // deletes or quarantines-then-reaps — never leaks.
    drop(held);
    let mut finisher = pool.register_thread();
    for cell in &cell_arr {
        finisher.exchange_ref(cell, None);
    }
    for (i, &n) in raw_strands.iter().enumerate() {
        for _ in 0..n {
            finisher.release(region_ids[i]);
        }
    }
    for &r in &region_ids {
        match pool.try_delete_checked(r) {
            Ok(()) => {}
            Err(ParRegionError::BlockedByOrphans { .. }) => {}
            Err(e) => return Some(format!("teardown: {e}")),
        }
    }
    drop(finisher);
    let report = pool.reap_orphans();
    if !report.is_fully_reclaimed() {
        return Some(format!("teardown: reap left regions blocked:\n{report}"));
    }
    if !pool.live_regions().is_empty() {
        return Some("teardown: regions leaked past delete + reap".to_string());
    }
    let audit = pool.audit();
    if !audit.is_clean() {
        return Some(format!("teardown: final audit unclean:\n{audit}"));
    }
    None
}

/// Draws a random scripted interleaving. Thread 0 never dies before the
/// last quarter so region creation and some activity always survive.
fn gen_ops(rng: &mut StdRng, threads: usize, regions: usize, cells: usize, len: usize) -> Vec<Op> {
    let mut ops = Vec::with_capacity(len);
    for step in 0..len {
        let thread = rng.gen_range(0..threads);
        let region = rng.gen_range(0..regions);
        let cell = rng.gen_range(0..cells);
        let op = match rng.gen_range(0..12) {
            0 | 1 => Op::Retain { thread, region },
            2 | 3 => Op::Release { thread, region },
            4 | 5 | 6 => Op::Publish { thread, cell, region },
            7 => Op::Clear { thread, cell },
            8 | 9 => Op::Acquire { thread, region },
            10 => Op::DropRef { thread },
            // Thread deaths are rare and back-loaded so most seeds
            // exercise plenty of traffic before a settle.
            _ if thread != 0 || step >= len * 3 / 4 => Op::DropThread { thread },
            _ => Op::Retain { thread, region },
        };
        ops.push(op);
    }
    ops
}

/// Greedy delta-debugging: repeatedly removes chunks (halving the chunk
/// size when stuck) while the predicate keeps failing. Minimal in the
/// 1-op-removal sense: dropping any single remaining op makes the
/// sequence pass.
fn shrink<F: Fn(&[Op]) -> bool>(ops: &[Op], fails: F) -> Vec<Op> {
    let mut cur = ops.to_vec();
    let mut chunk = (cur.len() / 2).max(1);
    loop {
        let mut progressed = false;
        let mut i = 0;
        while i < cur.len() {
            let end = (i + chunk).min(cur.len());
            let mut cand = cur.clone();
            cand.drain(i..end);
            if fails(&cand) {
                cur = cand;
                progressed = true;
                // Re-test from the same index: the next chunk slid in.
            } else {
                i += chunk;
            }
        }
        if chunk == 1 && !progressed {
            return cur;
        }
        if !progressed {
            chunk = (chunk / 2).max(1);
        }
    }
}

#[test]
fn random_interleavings_preserve_the_counting_identity() {
    for seed in 0..150u64 {
        let mut rng = StdRng::seed_from_u64(0x9E37_79B9 ^ seed);
        let threads = rng.gen_range(2..=4);
        let regions = rng.gen_range(2..=3);
        let cells = rng.gen_range(2..=4);
        let len = rng.gen_range(30..=90);
        let ops = gen_ops(&mut rng, threads, regions, cells, len);
        if let Some(err) = check(threads, regions, cells, &ops) {
            let minimal = shrink(&ops, |cand| check(threads, regions, cells, cand).is_some());
            let replay = check(threads, regions, cells, &minimal)
                .unwrap_or_else(|| "shrunk sequence no longer fails".to_string());
            panic!(
                "seed {seed} ({threads} threads, {regions} regions, {cells} cells) \
                 violated the identity: {err}\nminimal sequence ({} ops): {minimal:#?}\n{replay}",
                minimal.len()
            );
        }
    }
}

#[test]
fn crash_after_cross_thread_first_touch_is_orphaned_and_reaped() {
    let pool = ParRegionPool::new();
    let cell = pool.register_cell();
    let mut a = pool.register_thread();
    let r1 = a.create_region();
    let r2 = a.create_region();
    a.exchange_ref(&cell, Some(r1));
    std::thread::spawn({
        let pool = pool.clone();
        let cell = cell.clone();
        move || {
            let mut b = pool.register_thread();
            // B's first touch of both of A's regions is one exchange:
            // +1 on r2, -1 on the displaced r1.
            b.exchange_ref(&cell, Some(r2));
            b.retain(r2); // a raw strand the panic leaves behind
            panic!("worker dies after a cross-thread first touch");
        }
    })
    .join()
    .unwrap_err();
    assert_eq!(pool.audit().threads_audited, 1, "the dead thread left the pool");
    // A's +1 on r1 meets B's orphaned -1.
    assert_eq!(pool.orphan_count(r1), -1);
    assert!(pool.try_delete(r1));
    assert_eq!(pool.global_count(r2), 2);
    let e = pool.try_delete_checked(r2).unwrap_err();
    assert!(matches!(e, ParRegionError::BlockedByOrphans { live_sum: 0, orphan_sum: 2, .. }), "{e}");
    let audit = pool.audit();
    assert!(audit.is_clean(), "{audit}");
    // Still published: the reaper refuses until the cell is cleared.
    assert_eq!(pool.reap_orphans().still_blocked.len(), 1);
    a.exchange_ref(&cell, None);
    let report = pool.reap_orphans();
    assert!(report.is_fully_reclaimed(), "{report}");
    assert_eq!(report.reaped.len(), 1);
    assert_eq!((report.reaped[0].orphan_count, report.reaped[0].live_residue), (2, -1));
    assert!(pool.live_regions().is_empty());
    let audit = pool.audit();
    assert!(audit.is_clean(), "{audit}");
}

#[test]
fn every_op_kind_is_exercised_across_the_seed_range() {
    // Guards the generator: if a refactor stops drawing some op kind,
    // the property test silently weakens. Count kinds over the same
    // seeds the property test uses.
    let mut kinds: HashMap<&'static str, usize> = HashMap::new();
    for seed in 0..150u64 {
        let mut rng = StdRng::seed_from_u64(0x9E37_79B9 ^ seed);
        let threads = rng.gen_range(2..=4);
        let regions = rng.gen_range(2..=3);
        let cells = rng.gen_range(2..=4);
        let len = rng.gen_range(30..=90);
        for op in gen_ops(&mut rng, threads, regions, cells, len) {
            let name = match op {
                Op::Retain { .. } => "retain",
                Op::Release { .. } => "release",
                Op::Publish { .. } => "publish",
                Op::Clear { .. } => "clear",
                Op::Acquire { .. } => "acquire",
                Op::DropRef { .. } => "drop_ref",
                Op::DropThread { .. } => "drop_thread",
            };
            *kinds.entry(name).or_default() += 1;
        }
    }
    for kind in ["retain", "release", "publish", "clear", "acquire", "drop_ref", "drop_thread"] {
        assert!(kinds.get(kind).copied().unwrap_or(0) > 0, "generator never draws {kind}");
    }
}

#[test]
fn shrinker_finds_a_minimal_failing_subsequence() {
    // Synthetic predicate: "fails" iff the sequence still contains both
    // the Retain on region 1 and the DropThread of thread 2. The
    // shrinker must strip all 38 decoys and return exactly those two.
    let needle_a = Op::Retain { thread: 1, region: 1 };
    let needle_b = Op::DropThread { thread: 2 };
    let mut ops = Vec::new();
    for i in 0..40 {
        ops.push(match i {
            13 => needle_a,
            29 => needle_b,
            _ => Op::Publish { thread: 0, cell: i % 3, region: 0 },
        });
    }
    let fails = |cand: &[Op]| cand.contains(&needle_a) && cand.contains(&needle_b);
    let minimal = shrink(&ops, fails);
    assert_eq!(minimal, vec![needle_a, needle_b]);
}
