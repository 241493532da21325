//! Cross-crate integration tests: the C@ language on the region runtime,
//! the workloads across every allocator, and the emulation library's
//! equivalence with real regions.

use explicit_regions::cq_lang::{compile, Vm};
use explicit_regions::region_core::SafetyMode;
use explicit_regions::workloads::{MallocEnv, MallocKind, RegionEnv, RegionKind, Workload};

/// FNV-1a over a byte string: the hash the pinned captures and books
/// were recorded with.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Every workload computes the same answer under every memory manager —
/// the correctness anchor of the whole evaluation.
#[test]
fn workloads_agree_across_all_seven_memory_managers() {
    for w in Workload::ALL {
        let expected = w.run_malloc(&mut MallocEnv::new(MallocKind::Sun), 1);
        for kind in [MallocKind::Bsd, MallocKind::Lea, MallocKind::Gc] {
            let got = w.run_malloc(&mut MallocEnv::new(kind), 1);
            assert_eq!(got, expected, "{} under {}", w.name(), kind.name());
        }
        for kind in [RegionKind::Safe, RegionKind::Unsafe, RegionKind::Emulated(MallocKind::Lea)]
        {
            let got = w.run_region(&mut RegionEnv::new(kind), 1);
            assert_eq!(got, expected, "{} under {}", w.name(), kind.name());
        }
    }
}

/// Region runs leave nothing behind: no live regions, no live bytes, no
/// failed deletions (every workload was written to clear its stale
/// pointers, as §5.1 required of the original ports).
#[test]
fn region_workloads_clean_up_completely() {
    for w in Workload::ALL {
        let mut env = RegionEnv::new(RegionKind::Safe);
        w.run_region(&mut env, 1);
        let stats = env.stats();
        assert_eq!(stats.live_regions, 0, "{}", w.name());
        assert_eq!(stats.live_bytes, 0, "{}", w.name());
        assert_eq!(env.costs().unwrap().deletes_failed, 0, "{}", w.name());
    }
}

/// Malloc runs under real allocators free every byte (no leaks in the
/// malloc variants), and the GC reclaims everything reachable-no-more.
#[test]
fn malloc_workloads_do_not_leak() {
    for w in Workload::ALL {
        for kind in [MallocKind::Sun, MallocKind::Bsd, MallocKind::Lea] {
            let mut env = MallocEnv::new(kind);
            w.run_malloc(&mut env, 1);
            assert_eq!(env.stats().live_bytes, 0, "{} under {}", w.name(), kind.name());
        }
    }
}

/// A C@ program whose behaviour depends on every layer at once:
/// compiler-placed barriers, the page map, stack scanning, and cleanup.
#[test]
fn cq_program_exercises_full_stack() {
    let program = compile(
        r#"
        struct node { int v; node@ next; };
        global node@ cache;

        node@ build(Region r, int n) {
            node@ head = null;
            int i = 0;
            while (i < n) {
                node@ fresh = ralloc(r, node);
                fresh.v = i;
                fresh.next = head;
                head = fresh;
                i = i + 1;
            }
            return head;
        }

        int total(node@ l) {
            int s = 0;
            while (l != null) { s = s + l.v; l = l.next; }
            return s;
        }

        void main() {
            Region work = newregion();
            node@ list = build(work, 100);
            print(total(list));
            cache = list;                 // global keeps the region alive
            list = null;
            print(deleteregion(work));    // 0
            cache = null;
            print(deleteregion(work));    // 1
        }
    "#,
    )
    .expect("compiles");
    let mut vm = Vm::new(program, SafetyMode::Safe);
    vm.run().expect("runs");
    assert_eq!(vm.output(), &[4950, 0, 1]);
    let costs = vm.runtime().costs();
    assert_eq!(costs.barriers_region, 100, "one barrier per next-link");
    assert!(costs.barriers_global >= 2);
    assert_eq!(costs.deletes_failed, 1);
    assert_eq!(costs.deletes, 1);
    assert!(costs.cleanup_objects >= 100);
    assert_eq!(vm.runtime().stats().live_regions, 0);
}

/// The same C@ program runs in both safety modes with identical output
/// (when it deletes nothing that is still referenced).
#[test]
fn cq_safe_and_unsafe_modes_agree_when_program_is_clean() {
    let src = r#"
        struct pair { int a; pair@ link; };
        void main() {
            int round = 0;
            while (round < 10) {
                Region r = newregion();
                pair@ arr = rarrayalloc(r, 50, pair);
                int i = 0;
                while (i < 50) {
                    arr[i].a = i * round;
                    i = i + 1;
                }
                print(arr[49].a);
                arr = null;
                deleteregion(r);
                round = round + 1;
            }
        }
    "#;
    let p = compile(src).expect("compiles");
    let mut safe = Vm::new(p.clone(), SafetyMode::Safe);
    safe.run().expect("safe run");
    let mut unsafe_vm = Vm::new(p, SafetyMode::Unsafe);
    unsafe_vm.run().expect("unsafe run");
    assert_eq!(safe.output(), unsafe_vm.output());
    assert!(safe.runtime().costs().total_instrs() > 0);
    assert_eq!(unsafe_vm.runtime().costs().total_instrs(), 0);
}

/// Emulated regions behave observably like real regions for
/// region-structured code (the paper used emulation to get the
/// malloc bars of mudlle and lcc).
#[test]
fn emulation_is_observationally_equivalent_to_real_regions() {
    for w in [Workload::Mudlle, Workload::Lcc] {
        let real = w.run_region(&mut RegionEnv::new(RegionKind::Safe), 1);
        for mk in [MallocKind::Sun, MallocKind::Bsd, MallocKind::Lea] {
            let emu = w.run_region(&mut RegionEnv::new(RegionKind::Emulated(mk)), 1);
            assert_eq!(emu, real, "{} emulated over {}", w.name(), mk.name());
        }
    }
}

/// The region-level statistics of an emulated run match the real
/// runtime's (same program, same region structure).
#[test]
fn emulation_statistics_match_real_region_structure() {
    let mut real = RegionEnv::new(RegionKind::Safe);
    Workload::Mudlle.run_region(&mut real, 1);
    let mut emu = RegionEnv::new(RegionKind::Emulated(MallocKind::Lea));
    Workload::Mudlle.run_region(&mut emu, 1);
    assert_eq!(real.stats().total_regions, emu.stats().total_regions);
    assert_eq!(real.stats().total_allocs, emu.stats().total_allocs);
    assert_eq!(real.stats().total_bytes, emu.stats().total_bytes);
    // The emulation overhead is visible only in the inner malloc stats.
    let inner = emu.emulation_inner_stats().unwrap();
    assert_eq!(
        inner.total_bytes,
        emu.stats().total_bytes + 4 * emu.stats().total_allocs,
        "one link word per object"
    );
}

/// The parallel pool end to end: two real threads exchange references
/// through registered cells while one of them dies mid-schedule holding
/// a raw reference. The dead thread's counts survive in the orphan
/// ledger, the stranded region quarantines, the reaper reclaims it, and
/// the audit balances the books throughout.
#[test]
fn par_pool_survives_a_worker_crash() {
    use explicit_regions::region_core::par::{ParRegionError, ParRegionPool};

    let pool = ParRegionPool::new();
    let cells = [pool.register_cell(), pool.register_cell()];
    let mut main = pool.register_thread();
    let shared: Vec<_> = (0..4).map(|_| main.create_region()).collect();
    let stranded = main.create_region();
    std::thread::scope(|s| {
        let worker = |crash: bool| {
            let (pool, cells, shared) = (pool.clone(), cells.clone(), shared.clone());
            move || {
                let mut t = pool.register_thread();
                for k in 0..2000 {
                    t.exchange_ref(&cells[k % 2], Some(shared[(k / 2 + usize::from(crash)) % 4]));
                    if crash && k == 999 {
                        t.retain(stranded);
                        panic!("worker dies mid-schedule");
                    }
                }
            }
        };
        let survivor = s.spawn(worker(false));
        let crasher = s.spawn(worker(true));
        survivor.join().expect("survivor finishes");
        crasher.join().expect_err("crasher panics");
    });

    let audit = pool.audit();
    assert!(audit.is_clean(), "{audit}");
    assert_eq!(audit.threads_audited, 1, "only main is still registered");
    for &r in &shared {
        let published = cells.iter().filter(|c| c.get() == Some(r)).count() as i64;
        assert_eq!(pool.global_count(r), published, "{r:?}");
    }
    assert_eq!(pool.global_count(stranded), 1);
    assert_eq!(pool.orphan_count(stranded), 1);

    for cell in &cells {
        main.exchange_ref(cell, None);
    }
    for &r in &shared {
        pool.try_delete_checked(r).expect("exchanged regions balance once the cells clear");
    }
    let e = pool.try_delete_checked(stranded).unwrap_err();
    assert!(matches!(e, ParRegionError::BlockedByOrphans { orphan_sum: 1, .. }), "{e}");
    assert_eq!(pool.quarantined(), vec![stranded]);
    let report = pool.reap_orphans();
    assert!(report.is_fully_reclaimed(), "{report}");
    assert_eq!(report.reaped.len(), 1);
    assert!(pool.live_regions().is_empty());
    let audit = pool.audit();
    assert!(audit.is_clean(), "{audit}");
}

/// Regression: the cfrac region variant once held a bignum constant in a
/// host variable across a region rotation — a dangling pointer invisible
/// to the stack scan (host variables are not shadow-stack slots). Larger
/// scales exercise several rotations.
#[test]
fn cfrac_agrees_across_rotations_at_larger_scale() {
    let m = Workload::Cfrac.run_malloc(&mut MallocEnv::new(MallocKind::Lea), 2);
    let r = Workload::Cfrac.run_region(&mut RegionEnv::new(RegionKind::Unsafe), 2);
    assert_eq!(m, r);
}

/// A short region-op script: allocation, data and pointer stores
/// through every barrier kind, a stack frame holding a reference, a
/// blocked delete, then teardown. Returns what a caller sees.
fn region_script<H: explicit_regions::simheap::HeapBackend>(
    rt: &mut explicit_regions::region_core::RegionRuntime<H>,
) -> Vec<u64> {
    use explicit_regions::region_core::TypeDescriptor;
    use explicit_regions::simheap::Addr;

    let pair = rt.register_type(TypeDescriptor::new("pair", 8, vec![4]));
    let (a, b) = (rt.new_region(), rt.new_region());
    let globals = rt.alloc_globals(8);
    let mut seen = Vec::new();
    let (mut last_a, mut last_b) = (Addr::NULL, Addr::NULL);
    for i in 0..40u32 {
        // b's objects chain within b; a's point into a or across to b.
        let in_b = i % 3 == 0;
        let x = rt.ralloc(if in_b { b } else { a }, pair);
        rt.heap_mut().store_u32(x, i);
        rt.store_ptr_unknown(x + 4, if in_b || i % 2 == 0 { last_b } else { last_a });
        if in_b {
            last_b = x;
        } else {
            last_a = x;
        }
        seen.push(u64::from(x.raw()));
    }
    let arr = rt.rarrayalloc(b, 9, pair);
    let s = rt.rstralloc(a, 37);
    rt.heap_mut().store_u32(s, 0xfeed);
    rt.store_ptr_global(globals, arr);
    seen.push(rt.region_of(s).map_or(0, |r| u64::from(r.index()) + 1));
    rt.push_frame(2);
    rt.set_local(1, last_b);
    seen.push(u64::from(rt.delete_region(b)));
    rt.store_ptr_global(globals, Addr::NULL);
    rt.pop_frame();
    seen.push(u64::from(rt.delete_region(a)));
    seen.push(u64::from(rt.delete_region(b)));
    seen
}

/// Tier-1 smoke of the sharded heap: a runtime on the single shard of a
/// one-worker `SharedSpace` matches one on a private `SimHeap` book for
/// book, and a two-worker world whose stack pages were never written
/// survives capture → restore → re-capture byte for byte.
#[test]
fn shard_matches_private_heap_and_unwritten_world_round_trips() {
    use explicit_regions::region_core::{capture_world, restore_world, RegionConfig, RegionRuntime};
    use explicit_regions::simheap::{HeapBackend, HeapShard, SharedSpace, SpaceConfig};

    let mut private = RegionRuntime::new_safe();
    let space = SharedSpace::new(SpaceConfig::default());
    let mut shard = RegionRuntime::with_config_on(RegionConfig::default(), space.shard(0));
    let seen = region_script(&mut private);
    assert_eq!(seen[seen.len() - 3..], [0, 1, 1], "b blocked, then both deleted");
    assert_eq!(region_script(&mut shard), seen);
    assert_eq!(private.stats(), shard.stats());
    assert_eq!(private.costs(), shard.costs());
    assert_eq!(private.heap().load_count(), shard.heap().load_count());
    assert_eq!(private.heap().store_count(), shard.heap().store_count());
    assert!(shard.sanitize().is_clean());

    let space = SharedSpace::new(SpaceConfig { max_bytes: 4 << 20, workers: 2 });
    let mut runtimes: Vec<RegionRuntime<HeapShard>> = (0..2)
        .map(|w| RegionRuntime::with_config_on(RegionConfig::default(), space.shard(w)))
        .collect();
    let rt = &mut runtimes[1];
    let r = rt.new_region();
    let x = rt.rstralloc(r, 64);
    rt.heap_mut().store_u32(x, 7);
    assert_eq!(runtimes[0].heap().materialized_pages(), 0, "worker 0 never wrote a page");
    let refs: Vec<&RegionRuntime<HeapShard>> = runtimes.iter().collect();
    let bytes = capture_world(&space, &refs);
    let world = restore_world(&bytes).expect("a captured world restores");
    let refs: Vec<&RegionRuntime<HeapShard>> = world.runtimes.iter().collect();
    assert_eq!(capture_world(&world.space, &refs), bytes, "re-capture is byte-identical");
}

/// Leaves `rt` as far from fresh as a run gets: a page-map mirror grown
/// over 300 pages (far past what `region_script` needs), a fault plan
/// that has fired and stays armed, a stack frame, and a budget-1
/// deletion parked mid-cleanup. Returns an object on a born page.
fn dirty_runtime<H: explicit_regions::simheap::HeapBackend>(
    rt: &mut explicit_regions::region_core::RegionRuntime<H>,
) -> explicit_regions::simheap::Addr {
    use explicit_regions::region_core::{DeleteProgress, FaultPlan, TypeDescriptor};

    let node = rt.register_type(TypeDescriptor::new("pair", 60, vec![4, 32]));
    let big = rt.new_region();
    for _ in 0..300 {
        rt.rstralloc(big, 4000);
    }
    rt.set_fault_plan(FaultPlan::seeded(3).fail_allocs_one_in(4));
    let (keep, doomed) = (rt.new_region(), rt.new_region());
    let faults = (0..20).filter(|_| rt.try_rstralloc(keep, 16).is_err()).count();
    assert!(faults > 0, "the fault plan never fired");
    let target = std::iter::repeat_with(|| rt.try_ralloc(keep, node)).find_map(Result::ok).unwrap();
    rt.heap_mut().store_u32(target, 0x7e57);
    for _ in 0..100 {
        if let Ok(x) = rt.try_ralloc(doomed, node) {
            rt.store_ptr_region(x + 4, target);
        }
    }
    rt.push_frame(1);
    rt.set_local(0, target);
    rt.set_delete_budget(1);
    for _ in 0..10 {
        assert_eq!(rt.try_delete_region_step(doomed), Ok(DeleteProgress::Parked));
    }
    target
}

/// `RegionRuntime::reset` returns a runtime to a fresh one's state, on a
/// private heap and on the shards of a shared space: after a dirty run
/// (see `dirty_runtime`), the reset runtime's capture is byte-equal to a
/// fresh runtime's, and after the same requests so are the capture, the
/// `AllocStats`, the `SafetyCosts` and the sanitize report.
#[test]
fn a_reset_runtime_is_a_fresh_runtime() {
    use explicit_regions::region_core::{capture_world, RegionConfig, RegionRuntime};
    use explicit_regions::simheap::{HeapBackend, HeapShard, SharedSpace, SpaceConfig};

    let mut fresh = RegionRuntime::new_safe();
    let mut reset = RegionRuntime::new_safe();
    let _ = dirty_runtime(&mut reset);
    reset.reset(RegionConfig::default());
    assert!(reset.capture_snapshot() == fresh.capture_snapshot(), "a reset runtime captures as a fresh one");
    assert_eq!(region_script(&mut reset), region_script(&mut fresh));
    assert!(reset.capture_snapshot() == fresh.capture_snapshot(), "and runs on as a fresh one");
    assert_eq!(reset.stats(), fresh.stats());
    assert_eq!(reset.costs(), fresh.costs());
    assert_eq!(format!("{:?}", reset.sanitize()), format!("{:?}", fresh.sanitize()));

    // Both shards of a two-worker space, worker 1 caching a page of
    // worker 0 (a page its reset must not reuse).
    let world = |space: &std::sync::Arc<SharedSpace>| -> Vec<RegionRuntime<HeapShard>> {
        (0..2).map(|w| RegionRuntime::with_config_on(RegionConfig::default(), space.shard(w))).collect()
    };
    let config = SpaceConfig { max_bytes: 8 << 20, workers: 2 };
    let (fresh_space, reset_space) = (SharedSpace::new(config), SharedSpace::new(config));
    let (mut fresh, mut reset) = (world(&fresh_space), world(&reset_space));
    let foreign = dirty_runtime(&mut reset[0]);
    dirty_runtime(&mut reset[1]);
    assert_eq!(reset[1].heap_mut().load_u32(foreign), 0x7e57, "worker 1 reads a born page of worker 0");
    for rt in &mut reset {
        rt.reset(RegionConfig::default());
    }
    let capture = |space, rts: &[RegionRuntime<HeapShard>]| capture_world(space, &rts.iter().collect::<Vec<_>>());
    assert!(capture(&reset_space, &reset) == capture(&fresh_space, &fresh), "a reset world captures as a fresh one");
    for (a, b) in reset.iter_mut().zip(&mut fresh) {
        assert_eq!(region_script(a), region_script(b));
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.costs(), b.costs());
        assert_eq!(format!("{:?}", a.sanitize()), format!("{:?}", b.sanitize()));
    }
    assert!(capture(&reset_space, &reset) == capture(&fresh_space, &fresh), "and runs on as a fresh one");
}

/// Figure 9's memory share is a positive part of every run: the memory
/// clock's estimate, before the bound that caps it at the wall time, is
/// above zero and no more than the run itself, on both the region and
/// the malloc side.
#[test]
fn memory_time_is_a_positive_share_of_every_run() {
    use std::time::{Duration, Instant};

    fn check(cell: String, total: Duration, estimate_ns: i64, mem: Duration) {
        let total_ns = total.as_nanos() as i64;
        assert!(estimate_ns > 0, "{cell}: memory estimate {estimate_ns} ns is not positive");
        assert!(estimate_ns <= total_ns, "{cell}: memory estimate {estimate_ns} ns exceeds total {total_ns} ns");
        assert!(mem > Duration::ZERO && mem <= total, "{cell}: memory time {mem:?}, total {total:?}");
    }
    for w in Workload::ALL {
        for kind in [RegionKind::Safe, RegionKind::Unsafe] {
            let mut env = RegionEnv::new(kind);
            let t = Instant::now();
            w.run_region(&mut env, 1);
            let (est, mem) = (env.mem_estimate_ns(), env.mem_time());
            check(format!("{}/{}", w.name(), kind.name()), t.elapsed(), est, mem);
        }
        for kind in [MallocKind::Lea, MallocKind::Gc] {
            let mut env = MallocEnv::new(kind);
            let t = Instant::now();
            w.run_malloc(&mut env, 1);
            let (est, mem) = (env.mem_estimate_ns(), env.mem_time());
            check(format!("{}/{}", w.name(), kind.name()), t.elapsed(), est, mem);
        }
    }
}

/// Tier-1 smoke of bounded-pause deletion: the deletion budget is host
/// tuning only, so an unbounded, a 64-unit and a 1-unit budget give the
/// same stats, safety costs and snapshot bytes. A finite budget large
/// enough to finish in one increment must also emit the unbounded
/// deletion's access stream word for word, so every budget runs the one
/// `deleteregion` whose order the golden traces pin.
#[test]
fn deletion_budget_leaves_the_books_unchanged() {
    use explicit_regions::region_core::{RegionRuntime, TypeDescriptor};
    use explicit_regions::simheap::RecordingSink;

    let run = |budget: u64| {
        let mut rt = RegionRuntime::new_safe();
        rt.set_delete_budget(budget);
        let seen = region_script(&mut rt);
        // A region big enough that cleanup and page return span many
        // 64-unit increments, each object holding a count on `keep`.
        let node = rt.register_type(TypeDescriptor::new("node", 8, vec![4]));
        let (big, keep) = (rt.new_region(), rt.new_region());
        let target = rt.ralloc(keep, node);
        for _ in 0..500 {
            let x = rt.ralloc(big, node);
            rt.store_ptr_region(x + 4, target);
            rt.rstralloc(big, 200);
        }
        // The newest frame points into `keep`: the delete scans it, and
        // where its unscan falls relative to the cleanup walk shows in
        // the recorded stream.
        rt.push_frame(1);
        rt.set_local(0, target);
        rt.heap_mut().attach_sink(Box::new(RecordingSink::default()));
        assert!(rt.delete_region(big), "budget {budget}");
        let sink = rt.heap_mut().detach_sink().expect("a sink is attached");
        let stream = sink.into_any().downcast::<RecordingSink>().expect("a RecordingSink").log;
        rt.pop_frame();
        assert!(rt.delete_region(keep), "budget {budget}");
        assert!(rt.sanitize().is_clean(), "budget {budget}");
        ((seen, *rt.stats(), *rt.costs(), rt.capture_snapshot()), stream)
    };
    let (unbounded, stream) = run(u64::MAX);
    for budget in [64, 1] {
        assert!(run(budget).0 == unbounded, "budget {budget} changed the books");
    }
    let (books, one_increment) = run(1 << 40);
    assert!(books == unbounded, "budget 2^40 changed the books");
    assert!(
        one_increment == stream,
        "a one-increment finite budget reordered the access stream ({} vs {} accesses)",
        one_increment.len(),
        stream.len()
    );
}

/// Tier-1 reach of the golden access traces: cfrac's and tile's
/// safe-region streams at scale 1 — every stack scan, cleanup walk, page
/// release and unscan of their deletions, in order — must match the
/// committed Figure 10 goldens. cfrac's file is trace format v2 (range
/// records); tile's is v1, recorded before batching, so it also holds
/// the expander's compatibility path.
#[test]
fn cfrac_access_stream_matches_its_committed_golden() {
    use bench_harness::golden::{golden_path, record_region_trace, GoldenTrace};

    for w in [Workload::Cfrac, Workload::Tile] {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(golden_path("fig10", w.name(), 1));
        let bytes = std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let golden =
            GoldenTrace::from_bytes(&bytes).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let fresh = record_region_trace(w, 1);
        if let Err(e) = golden.compare(&fresh, 1) {
            panic!("{}'s access stream diverged from {}: {e}", w.name(), path.display());
        }
    }
}

/// Tier-1 reach of the golden end states: tile's and cfrac's
/// safe-region runtimes after a scale-1 run — regions, heap pages,
/// counters — must match the committed RSNP snapshots byte for byte. A
/// mismatch names the first drifted field.
#[test]
fn tile_end_state_matches_its_committed_golden() {
    use bench_harness::diff::snapshot_divergence;
    use bench_harness::golden::{golden_state_path, record_region_state};

    for w in [Workload::Tile, Workload::Cfrac] {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(golden_state_path("fig10", w.name(), 1));
        let golden = std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let fresh = record_region_state(w, 1);
        if let Some(field) = snapshot_divergence(&golden, &fresh) {
            panic!("{}'s end state diverged from {}: {field}", w.name(), path.display());
        }
    }
}

/// Tier-1 smoke of RSNP v1: a single runtime captured mid-run (live
/// regions, cross-region counts, a held stack frame) restores, and the
/// restored runtime re-captures byte for byte and carries on identically.
#[test]
fn v1_snapshot_round_trips_byte_identically() {
    use explicit_regions::region_core::{RegionRuntime, TypeDescriptor, SNAPSHOT_VERSION};
    use explicit_regions::simheap::Addr;

    let mut rt = RegionRuntime::new_safe();
    let node = rt.register_type(TypeDescriptor::new("node", 8, vec![4]));
    let (a, b) = (rt.new_region(), rt.new_region());
    let globals = rt.alloc_globals(4);
    // a's objects point into b; b's chain within b.
    let mut last_b = Addr::NULL;
    for i in 0..60u32 {
        let x = rt.ralloc(if i % 3 == 0 { b } else { a }, node);
        rt.heap_mut().store_u32(x, i);
        rt.store_ptr_unknown(x + 4, last_b);
        if i % 3 == 0 {
            last_b = x;
        }
    }
    rt.store_ptr_global(globals, last_b);
    rt.push_frame(1);
    rt.set_local(0, last_b);

    let bytes = rt.capture_snapshot();
    assert_eq!(bytes[4..8], SNAPSHOT_VERSION.to_le_bytes(), "a v1 stream");
    let mut back = RegionRuntime::restore_snapshot(&bytes).expect("a captured runtime restores");
    assert_eq!(back.capture_snapshot(), bytes, "re-capture is byte-identical");
    for rt in [&mut rt, &mut back] {
        assert!(!rt.delete_region(b), "a, the local and the global hold b");
        rt.set_local(0, Addr::NULL);
        rt.store_ptr_global(globals, Addr::NULL);
        rt.pop_frame();
        assert!(rt.delete_region(a) && rt.delete_region(b));
    }
    assert_eq!(back.capture_snapshot(), rt.capture_snapshot(), "continued identically");
}

/// The service books that `server --quick` prints: the quick config at
/// seed 42 lands on one digest, and its encoded books (ledgers, digest,
/// footprint, quarantine counters) do not move with the thread count or
/// the deletion budget (unbounded, 64 and 1, the budgets ci.sh sweeps).
#[test]
fn service_books_match_their_quick_pin() {
    use bench_harness::server::{run_service, ServiceConfig};

    let quick = ServiceConfig::quick(42);
    let mut first: Option<Vec<u8>> = None;
    for threads in [1, 2] {
        for delete_budget in [u64::MAX, 64, 1] {
            let report = run_service(&ServiceConfig { threads, delete_budget, ..quick });
            let arm = format!("{threads} threads, budget {delete_budget}");
            assert_eq!(report.digest, 0x4d44_ec2f_d9b9_b10a, "{arm}: digest {:016x}", report.digest);
            let books = report.encode_books();
            assert!(first.get_or_insert_with(|| books.clone()) == &books, "{arm}: books differ");
        }
    }
}

/// The full-scale service books at perfbench's shape (2 threads, budget
/// 64) keep their pinned digest and encoded-books hash. perfbench only
/// compares full-scale books against a same-seed rerun, and the quick
/// pin runs smaller watermarks and rotations, so this is what catches a
/// drift in the full configuration or the service's fixed constants
/// (attempts, index entries, space size). Recorded at 7bbc474, before
/// those constants were fields of `ServiceConfig`.
#[test]
fn service_books_match_their_full_scale_pin() {
    use bench_harness::server::{run_service, ServiceConfig};

    let report = run_service(&ServiceConfig { threads: 2, delete_budget: 64, ..ServiceConfig::full(42) });
    let got = format!("digest {:016x}, books {:016x}", report.digest, fnv(&report.encode_books()));
    assert_eq!(got, "digest 69afdf9831478a8c, books 7fdb1688843b8f9f", "full-scale service books moved");
}

/// The four fresh-recording trace pins: grobner's, mudlle's, lcc's and
/// moss's safe-region streams at scale 1 keep the access count, the
/// verbatim prefix length and the stream hash that
/// `fig10 --quick --record-golden` prints for them, so a reordered or
/// dropped access fails here.
#[test]
fn fresh_trace_recordings_keep_their_pinned_hashes() {
    use bench_harness::golden::record_region_trace;

    for (w, total, kept, hash) in [
        (Workload::Grobner, 465_356, 465_356, 0x1779_36f7_80af_b031),
        (Workload::Mudlle, 98_874, 98_874, 0x74e1_f726_559f_576d),
        (Workload::Lcc, 64_033, 64_033, 0xec6b_b2cb_d63e_80a7),
        (Workload::Moss, 1_183_586, 1_000_000, 0x1381_0a2e_ea31_ec08),
    ] {
        let rec = record_region_trace(w, 1);
        let got = format!(
            "{} accesses ({} kept verbatim), hash {:016x}",
            rec.total,
            rec.prefix.len(),
            rec.hash
        );
        assert_eq!((rec.total, rec.prefix.len(), rec.hash), (total, kept, hash), "{}: {got}", w.name());
    }
}

/// The host page-map mirror charges exactly what the in-heap map costs:
/// every program's untraced safe-region run counts as many loads and
/// stores as the cache simulator sees when the same run is traced (the
/// traced run reads the in-heap map, the untraced one charges a load per
/// mirror answer).
#[test]
fn untraced_runs_charge_what_the_traced_heap_performs() {
    use explicit_regions::cache_sim::MemorySystem;

    for w in Workload::ALL {
        let mut env = RegionEnv::new(RegionKind::Safe);
        w.run_region(&mut env, 1);
        let untraced = (env.heap().load_count(), env.heap().store_count());

        let mut env = RegionEnv::new(RegionKind::Safe);
        env.heap().attach_sink(Box::new(MemorySystem::default()));
        w.run_region(&mut env, 1);
        let sink = env.into_heap().detach_sink().expect("a sink is attached");
        let mem = MemorySystem::from_sink(sink).stats();
        let traced = (mem.reads, mem.writes);
        assert_eq!(untraced, traced, "{}: untraced vs traced (loads, stores)", w.name());
    }
}

/// Tier-1 pin of the parked-deletion RSNP layout. A region with objects
/// on two normal pages (each object pointing out of the region and
/// along its own chain) and one string page is deleted at budget 1
/// while the newest frame points into it; the refused attempt is
/// followed by a successful one once the local is cleared. At every
/// increment boundary — stack scan, mid-page cleanup, page return —
/// the capture must hash as pinned, re-capture byte for byte after a
/// restore, and, restored with the budget re-armed, finish on the
/// straight-through end state.
#[test]
fn parked_deletion_captures_keep_their_pinned_hashes() {
    use explicit_regions::region_core::{
        DeleteProgress, RegionError, RegionId, RegionRuntime, TypeDescriptor,
    };
    use explicit_regions::simheap::Addr;

    // One budget-1 increment; `Err` is the refusal, after which the
    // local holding the doomed region is cleared.
    fn step(rt: &mut RegionRuntime, doomed: RegionId) -> Option<DeleteProgress> {
        match rt.try_delete_region_step(doomed) {
            Ok(progress) => Some(progress),
            Err(RegionError::DeleteBlocked { .. }) => {
                rt.set_local(0, Addr::NULL);
                None
            }
            Err(e) => panic!("{e}"),
        }
    }

    let mut rt = RegionRuntime::new_safe();
    let node = rt.register_type(TypeDescriptor::new("pair", 60, vec![4, 32]));
    let (keep, doomed) = (rt.new_region(), rt.new_region());
    let target = rt.ralloc(keep, node);
    let mut last = Addr::NULL;
    for _ in 0..100 {
        let x = rt.ralloc(doomed, node);
        rt.store_ptr_region(x + 4, target);
        rt.store_ptr_region(x + 32, last);
        last = x;
    }
    rt.rstralloc(doomed, 500);
    rt.push_frame(2);
    rt.set_local(1, target);
    rt.push_frame(1);
    rt.set_local(0, last);
    rt.set_delete_budget(1);

    let mut captures = Vec::new();
    while step(&mut rt, doomed) != Some(DeleteProgress::Done) {
        captures.push(rt.capture_snapshot());
    }
    let end = rt.capture_snapshot();
    let hashes: Vec<u8> = captures.iter().flat_map(|c| fnv(c).to_le_bytes()).collect();
    let got = format!("{} boundaries, hash {:016x}, end {:016x}", captures.len(), fnv(&hashes), fnv(&end));
    assert_eq!(got, "107 boundaries, hash 9a6b3c36a4f9f233, end d2be996683b4440b", "parked-deletion captures moved");
    for (i, bytes) in captures.iter().enumerate() {
        let mut back = RegionRuntime::restore_snapshot(bytes).unwrap_or_else(|e| panic!("boundary {i}: {e}"));
        assert!(back.capture_snapshot() == *bytes, "boundary {i}: re-capture differs");
        back.set_delete_budget(1);
        while step(&mut back, doomed) != Some(DeleteProgress::Done) {}
        assert!(back.capture_snapshot() == end, "boundary {i}: resumed deletion ends elsewhere");
    }
}
