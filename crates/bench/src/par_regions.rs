//! Parallel-region stress bench — the paper's §1 sketch under real
//! threads.
//!
//! Every worker registers with a shared [`ParRegionPool`], creates a
//! batch of regions, and then hammers a shared array of [`RefCell32`]
//! cells with atomic-exchange reference publishes (`exchange_ref`),
//! exactly the racy-write pattern the paper says must use an exchange.
//! Local reference counts are adjusted without synchronization; at the
//! end the main thread clears every cell and `try_delete` must succeed
//! for every region — the cross-thread count sums must all be zero no
//! matter how the schedule interleaved.
//!
//! The checksum folds only schedule-independent facts (regions
//! created, operations performed, final liveness, final global counts,
//! and the pool auditor's counters), so for a fixed worker count it is
//! identical across runs no matter how the threads interleaved: an
//! interleaving-dependent digest would make the row useless as a
//! regression anchor.
//!
//! The shared-space mode ([`run_shared`]) runs [`LOGICAL_SHARDS`]
//! shards of one address space on any number of OS threads to one
//! digest, and [`private_vs_shard`] runs the same script on a private
//! heap and on the single shard of a one-worker space, whose books must
//! be bit-identical. The `par_regions` binary times, prints and records
//! these runs; `tests/chaos_pins.rs` pins their quick-scale digests.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::rng::FNV_OFFSET;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use region_core::par::{ParRegionPool, RefCell32};
use region_core::{
    world_mirror_mismatches, DescId, RegionConfig, RegionId, RegionRuntime, TypeDescriptor,
};
use simheap::{Addr, HeapBackend, HeapShard, SharedSpace, SpaceConfig};


/// Cells shared by every worker.
const CELLS: usize = 64;
/// Regions created by each worker.
const REGIONS_PER_WORKER: usize = 16;
/// Exchange operations per worker per unit of scale.
const OPS_PER_SCALE: u64 = 100_000;
/// Logical shards in the shared-space mode. Fixed — the digest anchors
/// on the shard count, not on how many OS threads execute them.
pub const LOGICAL_SHARDS: u32 = 4;
/// Barrier-separated rounds the shared-space scripts are split into, so
/// shards genuinely migrate between OS threads mid-run.
pub const SHARD_ROUNDS: u64 = 8;
/// Region operations per logical shard per unit of scale.
const SHARD_OPS_PER_SCALE: u64 = 24_000;

/// FNV-1a with the standard 64-bit prime. The other digests fold with
/// [`crate::rng::fold`], whose multiplier differs; this one
/// stays because the pool and shard digests are pinned with it.
fn fnv(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x0000_0100_0000_01b3)
}

/// One timed run of the pool protocol or of the shared-space shards.
pub struct RunResult {
    /// Wall clock of the run's timed section.
    pub elapsed: Duration,
    /// Regions created.
    pub regions: u64,
    /// Exchanges (pool) or region operations (shards) performed.
    pub ops: u64,
    /// Fold of the run's schedule-independent facts.
    pub digest: u64,
}

/// Runs the pool protocol with `workers` threads and verifies every
/// schedule-independent postcondition. The digest depends on `workers`.
pub fn run(workers: usize, scale: u32) -> RunResult {
    let pool = ParRegionPool::new();
    // Registering the cells lets `pool.audit()` recompute the published
    // side of the books after the run.
    let cells: Vec<Arc<RefCell32>> = (0..CELLS).map(|_| pool.register_cell()).collect();
    let ops_per_worker = OPS_PER_SCALE * u64::from(scale);

    let t = Instant::now();
    let regions = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let pool = &pool;
                let cells = &cells;
                s.spawn(move || {
                    let mut thread = pool.register_thread();
                    let mine: Vec<_> =
                        (0..REGIONS_PER_WORKER).map(|_| thread.create_region()).collect();
                    // Deterministic per-thread schedule; the interleaving
                    // across threads is whatever the machine does.
                    let mut rng = StdRng::seed_from_u64(0xC0FFEE ^ w as u64);
                    for _ in 0..ops_per_worker {
                        let cell = &cells[rng.gen_range(0..CELLS)];
                        if rng.gen_range(0..4) == 0 {
                            thread.exchange_ref(cell, None);
                        } else {
                            let r = mine[rng.gen_range(0..mine.len())];
                            thread.exchange_ref(cell, Some(r));
                        }
                    }
                    mine
                })
            })
            .collect();
        let mut all = Vec::new();
        for h in handles {
            all.extend(h.join().expect("worker panicked"));
        }
        all
    });

    // Drop the references still parked in cells, then deletion must
    // succeed everywhere: the local counts sum to zero exactly when every
    // publish was balanced by a displacement or a clear.
    let mut main_thread = pool.register_thread();
    for cell in &cells {
        main_thread.exchange_ref(cell, None);
    }
    let mut digest = FNV_OFFSET;
    // The books must balance before any deletion: counted == recomputed
    // for every region, no dead-thread residue, no dangling cells.
    let audit = pool.audit();
    assert!(audit.is_clean(), "pre-delete audit failed:\n{audit}");
    digest = fnv(digest, audit.regions_audited as u64);
    digest = fnv(digest, audit.cells_audited as u64);
    for &r in &regions {
        let count = pool.global_count(r);
        assert_eq!(count, 0, "unbalanced local counts for {r:?}");
        assert!(pool.try_delete(r), "zero-count region must delete");
        assert!(!pool.is_live(r));
        digest = fnv(digest, count as u64);
        digest = fnv(digest, u64::from(!pool.is_live(r)));
    }
    // And they must still balance after every region is gone.
    let audit = pool.audit();
    assert!(audit.is_clean(), "post-delete audit failed:\n{audit}");
    assert_eq!(audit.quarantined, 0, "a clean run must quarantine nothing");
    digest = fnv(digest, audit.quarantined as u64);
    let elapsed = t.elapsed();
    let regions = regions.len() as u64;
    let ops = ops_per_worker * workers as u64;
    digest = fnv(digest, regions);
    RunResult { elapsed, regions, ops, digest }
}

/// A deterministic region workload bound to one runtime. The digest
/// folds every observable — returned addresses, loaded values, delete
/// verdicts, the full stats/costs books, heap counters, and the
/// sanitizer verdict — so two backends, or the same backend under
/// different schedules, agree iff their digests agree.
struct ShardScript<H: HeapBackend> {
    id: u32,
    rt: RegionRuntime<H>,
    rng: StdRng,
    node: DescId,
    regions: Vec<RegionId>,
    objs: Vec<(Addr, RegionId)>,
    created: u64,
    digest: u64,
}

impl<H: HeapBackend> ShardScript<H> {
    fn new(id: u32, mut rt: RegionRuntime<H>) -> ShardScript<H> {
        let node = rt.register_type(TypeDescriptor::new("node", 16, vec![8]));
        ShardScript {
            id,
            rt,
            rng: StdRng::seed_from_u64(0x5EED_0000 ^ u64::from(id)),
            node,
            regions: Vec::new(),
            objs: Vec::new(),
            created: 0,
            digest: FNV_OFFSET,
        }
    }

    fn fold(&mut self, v: u64) {
        self.digest = fnv(self.digest, v);
    }

    /// One deterministic op. The mix leans on allocation, barriered
    /// pointer stores, and region deletion — the operations a sharded
    /// space must keep worker-local.
    fn step(&mut self) {
        match self.rng.gen_range(0..10u32) {
            0 => {
                if self.regions.len() < 24 {
                    let r = self.rt.new_region();
                    self.regions.push(r);
                    self.created += 1;
                    self.fold(u64::from(r.index()));
                }
            }
            1 | 2 | 3 => {
                if self.regions.is_empty() {
                    return;
                }
                let r = self.regions[self.rng.gen_range(0..self.regions.len())];
                match self.rt.try_ralloc(r, self.node) {
                    Ok(a) => {
                        self.objs.push((a, r));
                        self.fold(u64::from(a.raw()));
                    }
                    Err(e) => self.fold(0x8000_0000_0000_0000 | e.to_string().len() as u64),
                }
            }
            4 => {
                if self.objs.is_empty() {
                    return;
                }
                let (a, _) = self.objs[self.rng.gen_range(0..self.objs.len())];
                let v: u32 = self.rng.gen();
                self.rt.heap_mut().store_u32(a.offset(4 * (v % 2)), v);
            }
            5 => {
                if self.objs.is_empty() {
                    return;
                }
                let (a, _) = self.objs[self.rng.gen_range(0..self.objs.len())];
                let v = self.rt.heap_mut().load_u32(a);
                self.fold(u64::from(v));
            }
            6 | 7 => {
                if self.objs.is_empty() {
                    return;
                }
                let (loc, _) = self.objs[self.rng.gen_range(0..self.objs.len())];
                let (val, _) = self.objs[self.rng.gen_range(0..self.objs.len())];
                self.rt.store_ptr_unknown(loc.offset(8), val);
            }
            8 => {
                if self.objs.is_empty() {
                    return;
                }
                let (loc, _) = self.objs[self.rng.gen_range(0..self.objs.len())];
                self.rt.store_ptr_unknown(loc.offset(8), Addr::NULL);
            }
            _ => {
                if self.regions.is_empty() {
                    return;
                }
                let r = self.regions[self.rng.gen_range(0..self.regions.len())];
                let deleted = match self.rt.try_delete_region(r) {
                    Ok(()) => true,
                    Err(e) => {
                        self.fold(0x4000_0000_0000_0000 | e.to_string().len() as u64);
                        false
                    }
                };
                self.fold(u64::from(deleted));
                if deleted {
                    // Dangling stores into pages a future region may own
                    // would corrupt object headers; drop the objects.
                    self.objs.retain(|&(_, owner)| owner != r);
                }
            }
        }
    }

    fn run_ops(&mut self, n: u64) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Closes the books: folds stats, costs, heap counters, and the
    /// sanitizer verdict, returning the digest and the runtime.
    fn finish(mut self) -> (u64, RegionRuntime<H>) {
        let s = self.rt.stats();
        for v in [s.total_allocs, s.total_bytes, s.max_live_bytes, s.total_regions, s.live_regions]
        {
            self.digest = fnv(self.digest, v);
        }
        let c = self.rt.costs();
        for v in [c.barrier_instrs, c.cleanup_instrs, c.deletes, c.deletes_failed] {
            self.digest = fnv(self.digest, v);
        }
        self.digest = fnv(self.digest, self.rt.heap().load_count());
        self.digest = fnv(self.digest, self.rt.heap().store_count());
        self.digest = fnv(self.digest, u64::from(self.rt.heap().brk().raw()));
        let report = self.rt.sanitize();
        assert!(report.is_clean(), "shard {} failed sanitize:\n{report}", self.id);
        self.digest = fnv(self.digest, 1);
        (self.digest, self.rt)
    }
}

/// Runs the four fixed logical shards of one [`SharedSpace`] to
/// completion on `threads` OS threads, in barrier-separated rounds with
/// the shards redistributed round-robin each round. Each shard's op
/// stream depends only on its own seed, so the combined digest is
/// identical no matter how many threads execute it.
pub fn run_shared(threads: usize, scale: u32) -> RunResult {
    let space = SharedSpace::new(SpaceConfig {
        max_bytes: RegionConfig::default().heap.max_bytes,
        workers: LOGICAL_SHARDS,
    });
    let mut scripts: Vec<ShardScript<HeapShard>> = (0..LOGICAL_SHARDS)
        .map(|w| ShardScript::new(w, RegionRuntime::with_config_on(RegionConfig::default(), space.shard(w))))
        .collect();
    let ops_per_shard = SHARD_OPS_PER_SCALE * u64::from(scale);
    let chunk = ops_per_shard.div_ceil(SHARD_ROUNDS);
    let t = Instant::now();
    let mut done = 0;
    while done < ops_per_shard {
        let n = chunk.min(ops_per_shard - done);
        let mut buckets: Vec<Vec<ShardScript<HeapShard>>> =
            (0..threads).map(|_| Vec::new()).collect();
        // Rotate the assignment with the round so every shard really
        // crosses OS threads over the run.
        let round = done / chunk;
        for (i, sc) in scripts.drain(..).enumerate() {
            buckets[(i + round as usize) % threads].push(sc);
        }
        let mut back: Vec<ShardScript<HeapShard>> = std::thread::scope(|s| {
            let handles: Vec<_> = buckets
                .into_iter()
                .map(|mut b| {
                    s.spawn(move || {
                        for sc in &mut b {
                            sc.run_ops(n);
                        }
                        b
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("shard worker panicked"))
                .collect()
        });
        back.sort_by_key(|sc| sc.id);
        scripts = back;
        done += n;
    }
    let elapsed = t.elapsed();
    let mut digest = FNV_OFFSET;
    let mut regions = 0;
    let mut runtimes = Vec::new();
    for sc in scripts {
        regions += sc.created;
        let (d, rt) = sc.finish();
        digest = fnv(digest, d);
        runtimes.push(rt);
    }
    // Every worker's private page map must agree with the published
    // atomic mirror — the cross-shard audit the snapshot gate also uses.
    let mismatches = world_mirror_mismatches(&space, runtimes.iter());
    assert_eq!(mismatches, 0, "shared-space mirror diverged from the shards' books");
    digest = fnv(digest, mismatches as u64);
    RunResult {
        elapsed,
        regions,
        ops: ops_per_shard * u64::from(LOGICAL_SHARDS),
        digest,
    }
}

/// The books of one run of the shard script: they must be bit-identical
/// on a private heap and on a one-worker shard.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScriptBooks {
    /// The script's digest (see `ShardScript`).
    pub digest: u64,
    /// Regions created.
    pub regions: u64,
    /// Simulated loads.
    pub loads: u64,
    /// Simulated stores.
    pub stores: u64,
    /// Final break.
    pub brk: u32,
}

/// Runs the shard script to completion on `rt`, returning its wall
/// clock in ms and its books.
fn script_arm<H: HeapBackend>(rt: RegionRuntime<H>, ops: u64) -> (f64, ScriptBooks) {
    let t = Instant::now();
    let mut sc = ShardScript::new(0, rt);
    sc.run_ops(ops);
    let wall = t.elapsed().as_secs_f64() * 1e3;
    let regions = sc.created;
    let (digest, rt) = sc.finish();
    let heap = rt.heap();
    (
        wall,
        ScriptBooks {
            digest,
            regions,
            loads: heap.load_count(),
            stores: heap.store_count(),
            brk: heap.brk().raw(),
        },
    )
}

/// One pair of arms at `scale`: the shard script on a private `SimHeap`,
/// then on the single shard of a one-worker [`SharedSpace`]. Returns
/// each arm's wall clock in ms and books, private first.
pub fn private_vs_shard(scale: u32) -> [(f64, ScriptBooks); 2] {
    let ops = SHARD_OPS_PER_SCALE * u64::from(scale);
    let private = script_arm(RegionRuntime::with_config(RegionConfig::default()), ops);
    let space = SharedSpace::new(SpaceConfig {
        max_bytes: RegionConfig::default().heap.max_bytes,
        workers: 1,
    });
    let shard_rt = RegionRuntime::with_config_on(RegionConfig::default(), space.shard(0));
    let shard = script_arm(shard_rt, ops);
    [private, shard]
}
