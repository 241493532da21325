//! Property tests for region runtimes on a sharded address space
//! (DESIGN §15).
//!
//! Two families:
//!
//! 1. **W=1 parity.** A random region-op program driven against a
//!    runtime on a private `SimHeap` and against a runtime on the single
//!    shard of a one-worker [`SharedSpace`] must be observationally
//!    identical: every returned address, every loaded value, every
//!    delete verdict, the full stats/costs/counter books, and a clean
//!    sanitize on both sides. On divergence the op sequence is shrunk
//!    with the same greedy delta-debugging pass as `par_props` (the
//!    workspace `proptest` shim does not shrink) and the minimal
//!    diverging program is reported with its seed.
//!
//! 2. **Merge determinism.** W runtimes on one shared space, each with a
//!    per-worker stamping sink, run fixed per-worker programs under
//!    different seeded interleavings — including real OS threads — and the
//!    canonical (worker, seq) merge of their access streams must be
//!    bit-identical across schedules.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use region_core::{RegionConfig, RegionId, RegionRuntime, TypeDescriptor};
use simheap::{Addr, HeapBackend, HeapShard, SharedEventLog, SharedSpace, SpaceConfig};

/// One step of a random region program. Indices are resolved modulo the
/// live tables at execution time, so any sequence is executable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Op {
    NewRegion,
    Ralloc { region: usize },
    ArrayAlloc { region: usize, n: u32 },
    StrAlloc { region: usize, size: u32 },
    /// Raw word store into a *data* field (never the pointer field —
    /// those go through barriers, which is exactly what the sanitizer
    /// checks).
    StoreData { obj: usize, field: u8, value: u32 },
    LoadData { obj: usize, field: u8 },
    /// Barriered store of one object's address into another's pointer
    /// field (the paper's unknown-barrier dispatch).
    Link { from: usize, to: usize },
    /// Clear a pointer field through the barrier.
    Unlink { obj: usize },
    /// Barriered store into global storage.
    GlobalSet { slot: usize, to: usize },
    GlobalClear { slot: usize },
    PushFrame { slots: u32 },
    PopFrame,
    SetLocal { slot: u32, obj: usize },
    Delete { region: usize },
    RegionOf { obj: usize },
}

/// The observation stream a program produces: everything a caller can
/// see. Two backends agree iff their streams agree.
type Obs = Vec<u64>;

const NODE_FIELDS: [u32; 3] = [0, 4, 12]; // data words of the 16-byte node (ptr at +8)

fn drive<H: HeapBackend>(mut rt: RegionRuntime<H>, ops: &[Op]) -> Obs {
    let mut obs = Obs::new();
    let node = rt.register_type(TypeDescriptor::new("node", 16, vec![8]));
    let mut regions: Vec<RegionId> = Vec::new();
    let mut objs: Vec<(Addr, RegionId)> = Vec::new(); // node objects only
    let mut frames: Vec<u32> = Vec::new();
    let globals = rt.alloc_globals(16 * 4);
    for &op in ops {
        match op {
            Op::NewRegion => {
                let r = rt.new_region();
                regions.push(r);
                obs.push(u64::from(r.index()));
            }
            Op::Ralloc { region } => {
                if regions.is_empty() {
                    continue;
                }
                let r = regions[region % regions.len()];
                match rt.try_ralloc(r, node) {
                    Ok(a) => {
                        objs.push((a, r));
                        obs.push(u64::from(a.raw()));
                    }
                    Err(e) => obs.push(0x8000_0000_0000_0000 | e.to_string().len() as u64),
                }
            }
            Op::ArrayAlloc { region, n } => {
                if regions.is_empty() {
                    continue;
                }
                let r = regions[region % regions.len()];
                match rt.try_rarrayalloc(r, 1 + n % 12, node) {
                    Ok(a) => obs.push(u64::from(a.raw())),
                    Err(e) => obs.push(0x8000_0000_0000_0000 | e.to_string().len() as u64),
                }
            }
            Op::StrAlloc { region, size } => {
                if regions.is_empty() {
                    continue;
                }
                let r = regions[region % regions.len()];
                match rt.try_rstralloc(r, 4 + size % 600) {
                    Ok(a) => obs.push(u64::from(a.raw())),
                    Err(e) => obs.push(0x8000_0000_0000_0000 | e.to_string().len() as u64),
                }
            }
            Op::StoreData { obj, field, value } => {
                if objs.is_empty() {
                    continue;
                }
                let (a, _) = objs[obj % objs.len()];
                let off = NODE_FIELDS[field as usize % NODE_FIELDS.len()];
                rt.heap_mut().store_u32(a.offset(off), value);
            }
            Op::LoadData { obj, field } => {
                if objs.is_empty() {
                    continue;
                }
                let (a, _) = objs[obj % objs.len()];
                let off = NODE_FIELDS[field as usize % NODE_FIELDS.len()];
                obs.push(u64::from(rt.heap_mut().load_u32(a.offset(off))));
            }
            Op::Link { from, to } => {
                if objs.is_empty() {
                    continue;
                }
                let (loc, _) = objs[from % objs.len()];
                let (val, _) = objs[to % objs.len()];
                rt.store_ptr_unknown(loc.offset(8), val);
            }
            Op::Unlink { obj } => {
                if objs.is_empty() {
                    continue;
                }
                let (loc, _) = objs[obj % objs.len()];
                rt.store_ptr_unknown(loc.offset(8), Addr::NULL);
            }
            Op::GlobalSet { slot, to } => {
                if objs.is_empty() {
                    continue;
                }
                let (val, _) = objs[to % objs.len()];
                rt.store_ptr_global(globals.offset((slot % 16) as u32 * 4), val);
            }
            Op::GlobalClear { slot } => {
                rt.store_ptr_global(globals.offset((slot % 16) as u32 * 4), Addr::NULL);
            }
            Op::PushFrame { slots } => {
                let n = 1 + slots % 4;
                rt.push_frame(n);
                frames.push(n);
            }
            Op::PopFrame => {
                if frames.pop().is_some() {
                    rt.pop_frame();
                }
            }
            Op::SetLocal { slot, obj } => {
                let Some(&n) = frames.last() else { continue };
                let val = if objs.is_empty() {
                    Addr::NULL
                } else {
                    objs[obj % objs.len()].0
                };
                rt.set_local(slot % n, val);
            }
            Op::Delete { region } => {
                if regions.is_empty() {
                    continue;
                }
                let r = regions[region % regions.len()];
                let deleted = match rt.try_delete_region(r) {
                    Ok(()) => true,
                    Err(e) => {
                        obs.push(0x4000_0000_0000_0000 | e.to_string().len() as u64);
                        false
                    }
                };
                obs.push(u64::from(deleted));
                if deleted {
                    // Dangling stores into pages a future region may own
                    // would corrupt object headers; drop the objects.
                    objs.retain(|&(_, owner)| owner != r);
                }
            }
            Op::RegionOf { obj } => {
                if objs.is_empty() {
                    continue;
                }
                let (a, _) = objs[obj % objs.len()];
                obs.push(rt.region_of(a).map_or(u64::MAX, |r| u64::from(r.index())));
            }
        }
    }
    // Close with the full books: stats, costs, counters, and the
    // sanitizer verdict — parity must cover the accounting, not just the
    // values.
    let s = rt.stats();
    obs.extend([
        s.total_allocs,
        s.total_bytes,
        s.live_bytes,
        s.max_live_bytes,
        s.total_regions,
        s.live_regions,
        s.max_live_regions,
        s.max_region_bytes,
    ]);
    let c = rt.costs();
    obs.extend([
        c.barriers_global,
        c.barriers_region,
        c.barriers_unknown,
        c.barriers_elided,
        c.barrier_instrs,
        c.frames_scanned,
        c.slots_scanned,
        c.scan_instrs,
        c.cleanup_objects,
        c.cleanup_ptrs,
        c.cleanup_pages,
        c.cleanup_instrs,
        c.deletes,
        c.deletes_failed,
    ]);
    obs.push(rt.heap().load_count());
    obs.push(rt.heap().store_count());
    obs.push(u64::from(rt.heap().brk().raw()));
    let rep = rt.sanitize();
    assert!(rep.mirror_mismatches.is_empty(), "page-map mirror out of sync: {rep}");
    obs.push(u64::from(rep.is_clean()));
    obs.push(rep.mirror_entries_checked);
    obs
}

fn on_simheap(ops: &[Op]) -> Obs {
    drive(RegionRuntime::with_config(RegionConfig::default()), ops)
}

fn on_single_shard(ops: &[Op]) -> Obs {
    let space = SharedSpace::new(SpaceConfig {
        max_bytes: RegionConfig::default().heap.max_bytes,
        workers: 1,
    });
    drive(RegionRuntime::with_config_on(RegionConfig::default(), space.shard(0)), ops)
}

fn gen_ops(rng: &mut StdRng, len: usize) -> Vec<Op> {
    (0..len)
        .map(|_| {
            let obj = rng.gen_range(0..64);
            let region = rng.gen_range(0..8);
            match rng.gen_range(0..16) {
                0 => Op::NewRegion,
                1 | 2 | 3 => Op::Ralloc { region },
                4 => Op::ArrayAlloc { region, n: rng.gen_range(0..12) },
                5 => Op::StrAlloc { region, size: rng.gen_range(0..600) },
                6 => Op::StoreData { obj, field: rng.gen(), value: rng.gen() },
                7 => Op::LoadData { obj, field: rng.gen() },
                8 => Op::Link { from: obj, to: rng.gen_range(0..64) },
                9 => Op::Unlink { obj },
                10 => Op::GlobalSet { slot: rng.gen_range(0..16), to: obj },
                11 => Op::GlobalClear { slot: rng.gen_range(0..16) },
                12 => Op::PushFrame { slots: rng.gen_range(0..4) },
                13 => Op::PopFrame,
                14 => Op::SetLocal { slot: rng.gen_range(0..4), obj },
                _ => {
                    if rng.gen_bool(0.5) {
                        Op::Delete { region }
                    } else {
                        Op::RegionOf { obj }
                    }
                }
            }
        })
        .collect()
}

/// Greedy delta-debugging, as in `par_props`: remove chunks while the
/// predicate keeps failing, halving the chunk when stuck.
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
fn single_shard_runtime_matches_simheap_runtime() {
    for seed in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(0x5AAD ^ seed);
        let ops = gen_ops(&mut rng, 220);
        if on_simheap(&ops) != on_single_shard(&ops) {
            let minimal = shrink(&ops, |cand| on_simheap(cand) != on_single_shard(cand));
            panic!(
                "seed {seed}: shard W=1 diverged from SimHeap; minimal {}-op program:\n{:#?}\n\
                 simheap obs: {:?}\nshard obs:   {:?}",
                minimal.len(),
                minimal,
                on_simheap(&minimal),
                on_single_shard(&minimal),
            );
        }
    }
}

// ---------------------------------------------------------------------
// Merge determinism across schedules
// ---------------------------------------------------------------------

/// The fixed program worker `w` runs, one step per call; every access it
/// performs depends only on (w, step), so the worker's trace stream is
/// schedule-independent by construction — which is what makes the
/// canonical merge deterministic.
struct WorkerScript {
    rt: RegionRuntime<HeapShard>,
    node: region_core::DescId,
    region: RegionId,
    objs: Vec<Addr>,
}

impl WorkerScript {
    fn new(space: &std::sync::Arc<SharedSpace>, w: u32) -> WorkerScript {
        let mut rt = RegionRuntime::with_config_on(RegionConfig::default(), space.shard(w));
        let node = rt.register_type(TypeDescriptor::new("node", 16, vec![8]));
        let region = rt.new_region();
        WorkerScript { rt, node, region, objs: Vec::new() }
    }

    fn step(&mut self, w: u32, i: u32) {
        match i % 5 {
            0 | 1 => {
                let a = self.rt.ralloc(self.region, self.node);
                self.objs.push(a);
            }
            2 => {
                let a = self.objs[(i as usize / 5) % self.objs.len()];
                self.rt.heap_mut().store_u32(a, w * 1_000_000 + i);
            }
            3 => {
                let a = self.objs[(i as usize / 5) % self.objs.len()];
                let _ = self.rt.heap_mut().load_u32(a.offset(4));
            }
            _ => {
                let from = self.objs[(i as usize / 5) % self.objs.len()];
                let to = self.objs[(i as usize / 3) % self.objs.len()];
                self.rt.store_ptr_unknown(from.offset(8), to);
            }
        }
    }
}

const MERGE_STEPS: u32 = 120;

/// Runs W workers to completion under a seeded scripted interleaving and
/// returns the canonical merge digest plus per-worker counters.
fn merged_run(workers: u32, order_seed: u64) -> (u64, Vec<(u64, u64)>) {
    let space = SharedSpace::new(SpaceConfig { max_bytes: 64 * 1024 * 1024, workers });
    let log = SharedEventLog::new();
    let mut scripts: Vec<WorkerScript> =
        (0..workers).map(|w| WorkerScript::new(&space, w)).collect();
    for (w, s) in scripts.iter_mut().enumerate() {
        s.rt.heap_mut().attach_sink(Box::new(log.sink(w as u32)));
    }
    let mut next = vec![0u32; workers as usize];
    let mut rng = StdRng::seed_from_u64(order_seed);
    for _ in 0..workers * MERGE_STEPS {
        let mut w = rng.gen_range(0..workers);
        while next[w as usize] == MERGE_STEPS {
            w = (w + 1) % workers;
        }
        scripts[w as usize].step(w, next[w as usize]);
        next[w as usize] += 1;
    }
    let counters = scripts
        .iter_mut()
        .map(|s| {
            s.rt.heap_mut().detach_sink();
            assert!(s.rt.sanitize().is_clean(), "worker runtime failed sanitize");
            (s.rt.heap().load_count(), s.rt.heap().store_count())
        })
        .collect();
    (log.digest(), counters)
}

/// The same W workers, each on its own OS thread with no scripted order
/// at all — true wall-clock nondeterminism.
fn threaded_run(workers: u32) -> (u64, Vec<(u64, u64)>) {
    let space = SharedSpace::new(SpaceConfig { max_bytes: 64 * 1024 * 1024, workers });
    let log = SharedEventLog::new();
    let mut counters = vec![(0u64, 0u64); workers as usize];
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let space = std::sync::Arc::clone(&space);
                let log = log.clone();
                scope.spawn(move || {
                    let mut s = WorkerScript::new(&space, w);
                    s.rt.heap_mut().attach_sink(Box::new(log.sink(w)));
                    for i in 0..MERGE_STEPS {
                        s.step(w, i);
                    }
                    s.rt.heap_mut().detach_sink();
                    assert!(s.rt.sanitize().is_clean(), "worker runtime failed sanitize");
                    (s.rt.heap().load_count(), s.rt.heap().store_count())
                })
            })
            .collect();
        for (w, h) in handles.into_iter().enumerate() {
            counters[w] = h.join().expect("worker thread panicked");
        }
    });
    (log.digest(), counters)
}

#[test]
fn canonical_merge_is_bit_identical_across_schedules() {
    for workers in 1..=4u32 {
        let (d1, c1) = merged_run(workers, 0xA11CE);
        let (d2, c2) = merged_run(workers, 0xB0B0_CAFE);
        assert_eq!(d1, d2, "workers={workers}: digests differ between interleaving seeds");
        assert_eq!(c1, c2, "workers={workers}: per-worker counters differ between seeds");
        let (d3, c3) = threaded_run(workers);
        assert_eq!(d1, d3, "workers={workers}: threaded digest differs from scripted");
        assert_eq!(c1, c3, "workers={workers}: threaded counters differ from scripted");
    }
}

#[test]
fn shrinker_reports_minimal_diverging_programs() {
    // Sanity-check the shrinker against a synthetic predicate: "contains
    // a Delete and a NewRegion" — it must strip everything else.
    let mut rng = StdRng::seed_from_u64(7);
    let mut ops = gen_ops(&mut rng, 60);
    ops.retain(|o| !matches!(o, Op::Delete { .. } | Op::NewRegion));
    ops.insert(20.min(ops.len()), Op::NewRegion);
    ops.insert(40.min(ops.len()), Op::Delete { region: 0 });
    let fails = |cand: &[Op]| {
        cand.iter().any(|o| matches!(o, Op::Delete { .. }))
            && cand.iter().any(|o| matches!(o, Op::NewRegion))
    };
    let minimal = shrink(&ops, fails);
    assert_eq!(minimal.len(), 2);
    assert!(matches!(minimal[0], Op::NewRegion));
    assert!(matches!(minimal[1], Op::Delete { .. }));
}

#[test]
fn default_runtime_on_a_shard_materializes_no_stack_page() {
    // The stack is mapped at construction; like an OS page, each of its
    // pages costs nothing until written.
    let space = SharedSpace::new(SpaceConfig { max_bytes: 8 << 20, workers: 2 });
    let mut rt = RegionRuntime::with_config_on(RegionConfig::default(), space.shard(0));
    let stack_pages = RegionConfig::default().stack_pages;
    assert_eq!(rt.heap().allocated_pages(), stack_pages);
    assert_eq!(rt.heap().materialized_pages(), 0, "no stack page was born");
    let d = rt.register_type(TypeDescriptor::new("node", 16, vec![8]));
    let r = rt.new_region();
    let a = rt.ralloc(r, d);
    rt.heap_mut().store_u32(a, 1);
    assert!(rt.heap().allocated_pages() > stack_pages);
    assert!(
        rt.heap().materialized_pages() <= rt.heap().allocated_pages() - stack_pages,
        "only pages above the stack were born"
    );
}
