//! Cross-crate integration tests: the C@ language on the region runtime,
//! the workloads across every allocator, and the emulation library's
//! equivalence with real regions.

use explicit_regions::cq_lang::{compile, Vm};
use explicit_regions::region_core::SafetyMode;
use explicit_regions::workloads::{MallocEnv, MallocKind, RegionEnv, RegionKind, Workload};

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
