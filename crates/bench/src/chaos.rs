//! Chaos soak: randomized region workloads under injected faults.
//!
//! Drives a [`RegionRuntime`] through a long, seeded stream of
//! create/alloc/store/call/delete operations while a [`FaultPlan`]
//! (and a squeezed [`HeapConfig`]) injects failures, asserting after
//! **every** fault that
//!
//! * `sanitize()` is clean — recomputed reference counts, the page-map
//!   mirror, and the violation log all agree with the incremental state;
//! * a failed `deleteregion` freed nothing (refcount, page count, and
//!   liveness are unchanged, and the region still allocates);
//! * a faulted allocation was observationally a no-op;
//! * the whole soak is deterministic: the same seed produces a
//!   bit-identical event digest on a second run.
//!
//! The scenarios cover the fault families:
//!
//! | scenario | injects |
//! |---|---|
//! | `alloc-faults`  | every-Mth + seeded 1-in-N allocation faults, Nth-page-acquisition faults |
//! | `sbrk-squeeze`  | sbrk faults once the heap passes a byte budget |
//! | `oom`           | genuine simulated OOM from a tiny `max_bytes` |
//! | `vm-chaos`      | seeded random C@ programs (linked lists; arrays + nested regions; recursive call trees; region-typed returns) through the compiler + VM with alloc/sbrk faults and fuel exhaustion, each run A/B with barrier elision off and on under [`supervise`] — the runs must be observationally identical outside the barrier split, and the VM must trap, never panic |
//! | `par-chaos`     | supervised `ParRegionPool` workers panic mid-schedule holding published references; the pool must quarantine, audit clean, and reap — never leak or panic at the API. A second phase reruns the chaos with every worker also mutating its shard of ONE shared address space: the abandoned runtimes must sanitize clean, the published page→region mirror must match every shard's books, and the whole world must capture → restore → recapture byte-equal each round |
//! | `kill-restore`  | kills the soak at a seeded uniform op index (including mid-fault-window, under the alloc-fault plan), snapshots runtime + driver, restores into a fresh context through the sanitize gate, and replays the remainder — the digest and every counter must equal the uninterrupted control run; corrupted snapshots (truncation, bit flips, bad magic/version, trailing bytes) must be rejected with a typed [`SnapshotError`], never a panic |
//! | `server-chaos`  | full adversity rounds of the long-lived region service ([`crate::run_service`]): per-request regions under injected allocation faults (bounded deterministic retry), injected worker panics (each strands a half-served request region in its session's runtime, which the retry reclaims), and footprint watermarks (degrade, then shed with a typed error), with ledger conservation, stranded == reclaimed == panics and sanitize every round, and the encoded books asserted byte-identical at 1/2/4 OS threads |
//!
//! When a Soak-shaped scenario fails, the soak re-runs its seed and
//! writes a complete pre-first-fault image (`RSNP` runtime snapshot +
//! driver state) under `target/triage/` before the panic continues, so
//! the failure can be single-stepped from the last known good state.
//!
//! [`run_scenario`] runs one scenario and returns its [`Tally`];
//! [`check_floors`] asserts the floors a run must reach. The `chaos`
//! binary prints them and reruns for determinism; `tests/chaos_pins.rs`
//! pins each scenario's quick-scale digest.

use crate::rng::{fold, Rng, FNV_OFFSET};
use crate::server::PAR_PANIC_MARKER;
use crate::{supervise, JobOutcome, SuperviseConfig, WorkerReport};
use region_core::par::{ParRegionPool, ReapReport};
use region_core::{
    DeleteProgress, DescId, FaultPlan, FaultSite, ParRegionError, RegionConfig, RegionError,
    RegionId, RegionRuntime, SnapReader, SnapWriter, SnapshotError, TypeDescriptor,
};
use simheap::{Addr, HeapConfig, PAGE_SIZE};

fn err_code(e: RegionError) -> u64 {
    match e {
        RegionError::OutOfMemory { requested, limit } => fold(fold(1, requested), limit),
        RegionError::RegionDeleted { region } => fold(2, region.index() as u64),
        RegionError::DeleteBlocked { region, rc } => {
            fold(fold(3, region.index() as u64), rc as u64)
        }
        RegionError::SizeOverflow { count, stride } => {
            fold(fold(4, count as u64), stride as u64)
        }
        RegionError::ObjectTooLarge { bytes } => fold(5, bytes as u64),
        RegionError::ZeroAlloc => 6,
        RegionError::NullDeref => 7,
        RegionError::StackOverflow { slots } => fold(8, slots as u64),
        RegionError::FaultInjected { site, count } => {
            let s = match site {
                FaultSite::PageAcquisition => 1u64,
                FaultSite::Allocation => 2,
                FaultSite::Sbrk => 3,
            };
            fold(fold(9, s), count)
        }
        RegionError::Snapshot(e) => fold(10, snap_err_code(e)),
        RegionError::Overloaded { pages, hard_pages } => fold(fold(11, pages), hard_pages),
        RegionError::RegionDoomed { region } => fold(12, region.index() as u64),
    }
}

/// Folds a typed snapshot rejection into the digest — the kill-restore
/// scenario's corrupt-input battery makes these part of the observable
/// history.
fn snap_err_code(e: SnapshotError) -> u64 {
    match e {
        SnapshotError::BadMagic => 1,
        SnapshotError::UnsupportedVersion { version } => fold(2, u64::from(version)),
        SnapshotError::Truncated { section } => fold_str(3, section),
        SnapshotError::Malformed { section, offset } => {
            fold(fold_str(4, section), offset as u64)
        }
        SnapshotError::TrailingBytes { extra } => fold(5, extra as u64),
        SnapshotError::SanitizeFailed { rc_mismatches, mirror_mismatches } => {
            fold(fold(6, rc_mismatches as u64), mirror_mismatches as u64)
        }
    }
}

/// One allocated object the soak can later store pointers into/of.
#[derive(Clone, Copy)]
enum Obj {
    /// `node { word; node@ next; word; word }` — pointer field at +4.
    Node(RegionId, Addr),
    /// Array of `n` nodes; element pointer fields at `+i*16+4`.
    Array(RegionId, Addr, u32),
}

impl Obj {
    fn region(self) -> RegionId {
        match self {
            Obj::Node(r, _) | Obj::Array(r, _, _) => r,
        }
    }

    fn addr(self) -> Addr {
        match self {
            Obj::Node(_, a) | Obj::Array(_, a, _) => a,
        }
    }

    /// A pointer-typed location inside the object, as declared by its
    /// type descriptor (the sanitizer's object walk must see every
    /// pointer the soak stores).
    fn ptr_field(self, rng: &mut Rng) -> Addr {
        match self {
            Obj::Node(_, a) => a + 4,
            Obj::Array(_, a, n) => a + (rng.below(n as u64) as u32) * 16 + 4,
        }
    }
}

/// Everything counted over one scenario; digests must match re-runs.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct Tally {
    /// Operations driven (soak steps, programs, pool ops, requests).
    pub ops: u64,
    /// Fold of every observable event, in order.
    pub digest: u64,
    /// Injected allocation faults.
    pub alloc_faults: u64,
    /// Injected page-acquisition faults.
    pub page_faults: u64,
    /// Injected sbrk faults.
    pub sbrk_faults: u64,
    /// Genuine simulated out-of-memory errors.
    pub oom: u64,
    /// Deletions refused because the region was still referenced.
    pub blocked_deletes: u64,
    /// Deletions of an already-deleted region, refused with a typed error.
    pub double_deletes: u64,
    /// Sanitizer and audit passes run.
    pub sanitize_runs: u64,
    /// Injected worker panics contained by `supervise` (par-chaos).
    pub worker_panics: u64,
    /// Regions a delete attempt explicitly quarantined (par-chaos).
    pub quarantined: u64,
    /// Quarantined regions `reap_orphans` reclaimed (par-chaos).
    pub reaped: u64,
    /// Kill-and-restore cycles that replayed to the control run's digest
    /// (kill-restore).
    pub restores: u64,
    /// Corrupted snapshot inputs rejected with a typed error, no panic
    /// (kill-restore).
    pub corrupt_rejected: u64,
}

impl Tally {
    /// Every injected or simulated memory fault.
    pub fn faults(&self) -> u64 {
        self.alloc_faults + self.page_faults + self.sbrk_faults + self.oom
    }

    /// Adds `other`'s counters to these and folds its digest into this
    /// digest.
    pub fn add(&mut self, other: &Tally) {
        self.digest = fold(self.digest, other.digest);
        self.ops += other.ops;
        self.alloc_faults += other.alloc_faults;
        self.page_faults += other.page_faults;
        self.sbrk_faults += other.sbrk_faults;
        self.oom += other.oom;
        self.blocked_deletes += other.blocked_deletes;
        self.double_deletes += other.double_deletes;
        self.sanitize_runs += other.sanitize_runs;
        self.worker_panics += other.worker_panics;
        self.quarantined += other.quarantined;
        self.reaped += other.reaped;
        self.restores += other.restores;
        self.corrupt_rejected += other.corrupt_rejected;
    }
}

struct Soak {
    rt: RegionRuntime,
    rng: Rng,
    node: region_core::DescId,
    live: Vec<RegionId>,
    dead: Vec<RegionId>,
    pool: Vec<Obj>,
    globals: Addr,
    n_globals: u32,
    frames: u32,
    /// An in-progress incremental `deleteregion` — the doomed region and
    /// the budget it runs under. At most one at a time; other ops (and
    /// their injected faults) interleave between its increments, and a
    /// kill may land while it is parked. The budget rides in the driver
    /// image because the runtime snapshot deliberately does not persist
    /// it (restore resets to `u64::MAX`).
    parked: Option<(RegionId, u64)>,
    tally: Tally,
}

const MAX_REGIONS: usize = 24;
const MAX_POOL: usize = 2048;
const MAX_FRAMES: u32 = 8;
const GLOBAL_SLOTS: u32 = 64;

impl Soak {
    fn new(seed: u64, config: RegionConfig, plan: Option<FaultPlan>) -> Soak {
        let mut rt = RegionRuntime::with_config(config);
        let node = rt.register_type(TypeDescriptor::new("chaos_node", 16, vec![4]));
        let globals = rt.alloc_globals(GLOBAL_SLOTS * 4);
        rt.push_frame(8); // the "main" frame
        if let Some(plan) = plan {
            rt.set_fault_plan(plan);
        }
        Soak {
            rt,
            rng: Rng::seeded(seed),
            node,
            live: Vec::new(),
            dead: Vec::new(),
            pool: Vec::new(),
            globals,
            n_globals: GLOBAL_SLOTS,
            frames: 1,
            parked: None,
            tally: Tally::default(),
        }
    }

    fn note(&mut self, v: u64) {
        self.tally.digest = fold(self.tally.digest, v);
    }

    /// Runs `sanitize()` and asserts the runtime is perfectly coherent.
    /// Called after every injected fault (and at scenario end).
    fn assert_clean(&mut self, when: &str) {
        let report = self.rt.sanitize();
        self.tally.sanitize_runs += 1;
        assert!(report.is_clean(), "sanitize dirty {when}: {report}");
        assert!(self.rt.violations().is_empty(), "rc violations recorded {when}");
        self.tally.digest = fold(self.tally.digest, report.objects_walked);
        self.tally.digest = fold(self.tally.digest, report.live_regions);
    }

    /// Classifies a typed failure, asserts the runtime is still clean,
    /// and folds the error into the digest. Panics (failing the soak) on
    /// error kinds the operation cannot legally produce.
    fn on_err(&mut self, e: RegionError, allowed_deleted: bool) {
        self.note(err_code(e));
        match e {
            RegionError::FaultInjected { site: FaultSite::Allocation, .. } => {
                self.tally.alloc_faults += 1
            }
            RegionError::FaultInjected { site: FaultSite::PageAcquisition, .. } => {
                self.tally.page_faults += 1
            }
            RegionError::FaultInjected { site: FaultSite::Sbrk, .. } => {
                self.tally.sbrk_faults += 1
            }
            RegionError::OutOfMemory { .. } => self.tally.oom += 1,
            RegionError::RegionDeleted { .. } if allowed_deleted => {
                self.tally.double_deletes += 1
            }
            other => panic!("unexpected error from soak op: {other}"),
        }
        self.assert_clean("after injected fault");
    }

    fn random_live(&mut self) -> Option<RegionId> {
        if self.live.is_empty() {
            return None;
        }
        let i = self.rng.below(self.live.len() as u64) as usize;
        Some(self.live[i])
    }

    fn op_create(&mut self) {
        if self.live.len() >= MAX_REGIONS {
            return self.op_delete();
        }
        match self.rt.try_new_region() {
            Ok(r) => {
                self.note(fold(11, r.index() as u64));
                self.live.push(r);
            }
            Err(e) => self.on_err(e, false),
        }
    }

    fn op_alloc(&mut self) {
        let Some(r) = self.random_live() else { return self.op_create() };
        let allocs_before = self.rt.stats().total_allocs;
        let pages_before = self.rt.data_pages();
        let res = match self.rng.below(4) {
            0 => {
                let n = 1 + self.rng.below(12) as u32;
                self.rt.try_rarrayalloc(r, n, self.node).map(|a| Some(Obj::Array(r, a, n)))
            }
            1 => {
                // Pointer-free storage: folded into the digest but never
                // handed to stores (string pages carry no descriptors, so
                // the sanitizer's object walk would miss a pointer there).
                let size = 1 + self.rng.below(64) as u32;
                self.rt.try_rstralloc(r, size).map(|a| {
                    self.tally.digest = fold(self.tally.digest, a.raw() as u64);
                    None
                })
            }
            _ => self.rt.try_ralloc(r, self.node).map(|a| Some(Obj::Node(r, a))),
        };
        match res {
            Ok(obj) => {
                if let Some(obj) = obj {
                    self.note(fold(12, obj.addr().raw() as u64));
                    if self.pool.len() >= MAX_POOL {
                        let i = self.rng.below(self.pool.len() as u64) as usize;
                        self.pool.swap_remove(i);
                    }
                    self.pool.push(obj);
                }
            }
            Err(e) => {
                // A failed allocation is observationally a no-op.
                assert_eq!(self.rt.stats().total_allocs, allocs_before, "faulted alloc counted");
                assert_eq!(self.rt.data_pages(), pages_before, "faulted alloc took a page");
                self.on_err(e, false);
            }
        }
    }

    fn op_store(&mut self) {
        if self.pool.is_empty() {
            return self.op_alloc();
        }
        let src = self.pool[self.rng.below(self.pool.len() as u64) as usize];
        let target = if self.rng.below(4) == 0 {
            Addr::NULL
        } else {
            self.pool[self.rng.below(self.pool.len() as u64) as usize].addr()
        };
        match self.rng.below(4) {
            // Global slot: the canonical "external reference".
            0 => {
                let slot = self.globals + (self.rng.below(self.n_globals as u64) as u32) * 4;
                self.rt.store_ptr_global(slot, target);
                self.note(fold(13, slot.raw() as u64));
            }
            // Stack local in the current frame.
            1 => {
                let slot = self.rng.below(8) as u32;
                self.rt.set_local(slot, target);
                self.note(fold(14, slot as u64));
            }
            // Heap field, statically-known-region barrier.
            2 => {
                let loc = src.ptr_field(&mut self.rng);
                self.rt.store_ptr_region(loc, target);
                self.note(fold(15, loc.raw() as u64));
            }
            // Heap field through the "unknown location" barrier.
            _ => {
                let loc = src.ptr_field(&mut self.rng);
                self.rt.store_ptr_unknown(loc, target);
                self.note(fold(16, loc.raw() as u64));
            }
        }
        self.note(target.raw() as u64);
    }

    fn op_call(&mut self) {
        if self.frames < MAX_FRAMES && self.rng.below(2) == 0 {
            self.rt.push_frame(8);
            self.frames += 1;
            self.note(17);
        } else if self.frames > 1 {
            self.rt.pop_frame();
            self.frames -= 1;
            self.note(18);
        }
    }

    fn op_delete(&mut self) {
        // Occasionally aim at a tombstone to exercise the double-delete
        // error path.
        if !self.dead.is_empty() && self.rng.below(16) == 0 {
            let r = self.dead[self.rng.below(self.dead.len() as u64) as usize];
            match self.rt.try_delete_region(r) {
                Ok(()) => panic!("deleted {r:?} twice"),
                Err(e @ RegionError::RegionDeleted { .. }) => return self.on_err(e, true),
                Err(e) => panic!("double delete of {r:?} produced {e}"),
            }
        }
        let Some(r) = self.random_live() else { return self.op_create() };
        // A third of the deletions go incremental: park the region under
        // a small seeded budget and let later ops interleave with the
        // remaining increments.
        if self.parked.is_none() && self.rng.below(3) == 0 {
            return self.op_delete_incremental(r);
        }
        let pages_before = self.rt.data_pages();
        let allocs_before = self.rt.stats().total_allocs;
        match self.rt.try_delete_region(r) {
            Ok(()) => {
                self.note(fold(19, r.index() as u64));
                self.live.retain(|&x| x != r);
                self.pool.retain(|o| o.region() != r);
                if self.dead.len() < 64 {
                    self.dead.push(r);
                }
            }
            Err(e @ RegionError::DeleteBlocked { region, rc }) => {
                assert_eq!(region, r);
                assert!(rc > 0, "blocked delete with rc {rc}");
                // The blocked delete must have freed nothing. (The rc
                // itself may legally *grow*: the attempt scans stack
                // frames up to the high-water mark, and scanned frames'
                // references stay counted — the paper's deferred scan.)
                assert!(self.rt.is_live(r), "blocked delete killed {r:?}");
                assert_eq!(self.rt.data_pages(), pages_before, "blocked delete freed pages");
                assert_eq!(self.rt.stats().total_allocs, allocs_before);
                self.tally.blocked_deletes += 1;
                self.note(err_code(e));
                // …and the region must still be usable.
                match self.rt.try_ralloc(r, self.node) {
                    Ok(a) => self.note(fold(20, a.raw() as u64)),
                    Err(probe) => self.on_err(probe, false),
                }
                self.assert_clean("after blocked delete");
            }
            Err(e) => panic!("delete of live {r:?} produced {e}"),
        }
    }

    /// Starts an incremental `deleteregion` under a small seeded budget.
    /// A first increment that finishes or is refused resolves here; one
    /// that parks leaves the region doomed for later ops to interleave
    /// with ([`Soak::op_step_parked`]).
    fn op_delete_incremental(&mut self, r: RegionId) {
        let budget = 4 + self.rng.below(60);
        self.rt.set_delete_budget(budget);
        let pages_before = self.rt.data_pages();
        let allocs_before = self.rt.stats().total_allocs;
        match self.rt.try_delete_region_step(r) {
            Ok(DeleteProgress::Done) => {
                self.rt.set_delete_budget(u64::MAX);
                self.note(fold(22, r.index() as u64));
                self.live.retain(|&x| x != r);
                self.pool.retain(|o| o.region() != r);
                if self.dead.len() < 64 {
                    self.dead.push(r);
                }
            }
            Ok(DeleteProgress::Parked) => {
                self.note(fold(23, r.index() as u64));
                self.live.retain(|&x| x != r);
                self.pool.retain(|o| o.region() != r);
                self.parked = Some((r, budget));
                self.assert_clean("at first increment boundary");
            }
            Err(e @ RegionError::DeleteBlocked { region, rc }) => {
                assert_eq!(region, r);
                assert!(rc > 0, "blocked delete with rc {rc}");
                self.rt.set_delete_budget(u64::MAX);
                assert!(self.rt.is_live(r), "refused incremental delete killed {r:?}");
                assert_eq!(self.rt.data_pages(), pages_before, "refused delete freed pages");
                assert_eq!(self.rt.stats().total_allocs, allocs_before);
                self.tally.blocked_deletes += 1;
                self.note(err_code(e));
                self.assert_clean("after refused incremental delete");
            }
            Err(e) => panic!("incremental delete of live {r:?} produced {e}"),
        }
    }

    /// Advances the parked incremental deletion by one budgeted
    /// increment, sanitizing at the boundary. Occasionally probes first
    /// that the doomed region refuses allocation with the typed
    /// [`RegionError::RegionDoomed`] and that the refusal is a no-op.
    fn op_step_parked(&mut self) {
        let Some((r, _)) = self.parked else { return self.op_delete() };
        if self.rng.below(4) == 0 {
            let allocs_before = self.rt.stats().total_allocs;
            match self.rt.try_ralloc(r, self.node) {
                Err(e @ RegionError::RegionDoomed { region }) => {
                    assert_eq!(region, r);
                    assert_eq!(self.rt.stats().total_allocs, allocs_before, "doomed alloc counted");
                    self.note(err_code(e));
                }
                Ok(a) => panic!("doomed {r:?} allocated {a:?}"),
                Err(e) => panic!("doomed-alloc probe produced {e}"),
            }
        }
        match self.rt.try_delete_region_step(r) {
            Ok(DeleteProgress::Done) => {
                self.parked = None;
                self.rt.set_delete_budget(u64::MAX);
                self.note(fold(24, r.index() as u64));
                if self.dead.len() < 64 {
                    self.dead.push(r);
                }
                self.assert_clean("after incremental delete finished");
            }
            Ok(DeleteProgress::Parked) => {
                self.note(fold(25, r.index() as u64));
                self.assert_clean("at increment boundary");
            }
            Err(e @ RegionError::DeleteBlocked { region, rc }) => {
                // The stack scan completed on a later increment and found
                // references: the region revives, still fully usable.
                assert_eq!(region, r);
                assert!(rc > 0, "blocked delete with rc {rc}");
                self.parked = None;
                self.rt.set_delete_budget(u64::MAX);
                assert!(self.rt.is_live(r), "refused delete did not revive {r:?}");
                self.live.push(r);
                self.tally.blocked_deletes += 1;
                self.note(err_code(e));
                self.assert_clean("after mid-scan refusal");
            }
            Err(e) => panic!("parked deletion step of {r:?} produced {e}"),
        }
    }

    /// When the heap is squeezed shut (sbrk fault budget or OOM), shed
    /// load so the soak keeps making progress: clear all global roots and
    /// pop back to the main frame, then delete every region that will go.
    fn relieve(&mut self) {
        self.drain_parked();
        for i in 0..self.n_globals {
            self.rt.store_ptr_global(self.globals + i * 4, Addr::NULL);
        }
        while self.frames > 1 {
            self.rt.pop_frame();
            self.frames -= 1;
        }
        let regions: Vec<RegionId> = self.live.clone();
        for r in regions {
            if self.rt.try_delete_region(r).is_ok() {
                self.live.retain(|&x| x != r);
                self.pool.retain(|o| o.region() != r);
            }
        }
        self.note(21);
        self.assert_clean("after pressure relief");
    }

    fn step(&mut self) {
        self.tally.ops += 1;
        let before = self.tally.faults();
        match self.rng.below(100) {
            0..=7 => self.op_create(),
            8..=53 => self.op_alloc(),
            54..=74 => self.op_store(),
            75..=84 => self.op_call(),
            85..=90 => self.op_step_parked(),
            _ => self.op_delete(),
        }
        // Under sustained memory pressure (sbrk squeeze / tiny heap),
        // shed load once faults start landing so later ops still exercise
        // the success paths too.
        let t = &self.tally;
        if t.faults() > before && (t.sbrk_faults + t.oom) % 7 == 3 {
            self.relieve();
        }
    }

    /// Runs the parked incremental deletion (if any) to its resolution —
    /// completion or a reviving refusal.
    fn drain_parked(&mut self) {
        let Some((r, _)) = self.parked.take() else { return };
        loop {
            match self.rt.try_delete_region_step(r) {
                Ok(DeleteProgress::Done) => {
                    self.note(fold(26, r.index() as u64));
                    break;
                }
                Ok(DeleteProgress::Parked) => {}
                Err(RegionError::DeleteBlocked { .. }) => {
                    self.live.push(r);
                    self.tally.blocked_deletes += 1;
                    self.note(fold(27, r.index() as u64));
                    break;
                }
                Err(e) => panic!("draining parked deletion of {r:?} produced {e}"),
            }
        }
        self.rt.set_delete_budget(u64::MAX);
    }

    fn finish(mut self) -> Tally {
        self.drain_parked();
        self.assert_clean("at scenario end");
        let stats = *self.rt.stats();
        self.note(stats.total_allocs);
        self.note(stats.total_bytes);
        self.note(self.rt.data_pages());
        self.note(self.rt.os_heap_bytes());
        self.tally
    }

    /// Serializes the complete soak — the runtime's `RSNP` snapshot plus
    /// the driver's own state (rng, region lists, object pool, tally) —
    /// so a kill at any op index can be resumed bit-identically.
    fn capture(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.bytes(&self.rt.capture_snapshot());
        w.u64(self.rng.0);
        w.u32(self.node.index());
        for list in [&self.live, &self.dead] {
            w.u32(list.len() as u32);
            for &r in list {
                w.u32(r.index());
            }
        }
        w.u32(self.pool.len() as u32);
        for &obj in &self.pool {
            match obj {
                Obj::Node(r, a) => {
                    w.u8(0);
                    w.u32(r.index());
                    w.u32(a.raw());
                }
                Obj::Array(r, a, n) => {
                    w.u8(1);
                    w.u32(r.index());
                    w.u32(a.raw());
                    w.u32(n);
                }
            }
        }
        w.u32(self.globals.raw());
        w.u32(self.n_globals);
        w.u32(self.frames);
        // The runtime snapshot carries the parked DeletionState itself;
        // the driver adds which region it is stepping and the budget
        // (which the runtime deliberately does not persist).
        match self.parked {
            None => w.u8(0),
            Some((r, budget)) => {
                w.u8(1);
                w.u32(r.index());
                w.u64(budget);
            }
        }
        let t = &self.tally;
        for v in [
            t.ops,
            t.digest,
            t.alloc_faults,
            t.page_faults,
            t.sbrk_faults,
            t.oom,
            t.blocked_deletes,
            t.double_deletes,
            t.sanitize_runs,
            t.worker_panics,
            t.quarantined,
            t.reaped,
            t.restores,
            t.corrupt_rejected,
        ] {
            w.u64(v);
        }
        w.into_bytes()
    }

    /// Rebuilds a soak from [`Soak::capture`] bytes. The embedded runtime
    /// snapshot passes through [`RegionRuntime::restore_snapshot`] — and
    /// with it the mandatory sanitize gate — before the driver resumes.
    fn restore(bytes: &[u8]) -> Result<Soak, SnapshotError> {
        let mut r = SnapReader::new(bytes);
        r.section("soak-runtime");
        let rt = RegionRuntime::restore_snapshot(r.bytes("runtime")?)?;
        r.section("soak-driver");
        let rng = Rng(r.u64("rng")?);
        let node = DescId::from_index(r.u32("node")?);
        let mut lists = [Vec::new(), Vec::new()];
        for list in &mut lists {
            let n = r.u32("regions")?;
            for _ in 0..n {
                list.push(RegionId::from_index(r.u32("region")?));
            }
        }
        let [live, dead] = lists;
        let n_pool = r.u32("pool")?;
        let mut pool = Vec::new();
        for _ in 0..n_pool {
            let obj = match r.u8("obj")? {
                0 => Obj::Node(RegionId::from_index(r.u32("region")?), Addr::new(r.u32("addr")?)),
                1 => Obj::Array(
                    RegionId::from_index(r.u32("region")?),
                    Addr::new(r.u32("addr")?),
                    r.u32("len")?,
                ),
                _ => return Err(r.malformed()),
            };
            pool.push(obj);
        }
        let globals = Addr::new(r.u32("globals")?);
        let n_globals = r.u32("n_globals")?;
        let frames = r.u32("frames")?;
        let parked = match r.u8("parked")? {
            0 => None,
            1 => Some((RegionId::from_index(r.u32("parked")?), r.u64("budget")?)),
            _ => return Err(r.malformed()),
        };
        let mut t = [0u64; 14];
        for v in &mut t {
            *v = r.u64("tally")?;
        }
        r.finish()?;
        let tally = Tally {
            ops: t[0],
            digest: t[1],
            alloc_faults: t[2],
            page_faults: t[3],
            sbrk_faults: t[4],
            oom: t[5],
            blocked_deletes: t[6],
            double_deletes: t[7],
            sanitize_runs: t[8],
            worker_panics: t[9],
            quarantined: t[10],
            reaped: t[11],
            restores: t[12],
            corrupt_rejected: t[13],
        };
        let mut rt = rt;
        if let Some((_, budget)) = parked {
            // Restore resets the (unserialized) budget to `u64::MAX`; the
            // resumed deletion must keep increment-for-increment pace with
            // the control run, so reinstate the budget it was parked under.
            rt.set_delete_budget(budget);
        }
        Ok(Soak { rt, rng, node, live, dead, pool, globals, n_globals, frames, parked, tally })
    }
}

/// Kill-and-restore chaos: every trial runs the same seeded soak twice —
/// once straight through (the control), once killed at a uniformly seeded
/// op index (under the alloc-fault plan, so kills land before, inside,
/// and after injected-fault windows), snapshotted, dropped, restored
/// through the sanitize gate, and replayed. The resumed
/// run's digest and *every* counter must equal the control's. A seeded
/// corrupt-input battery (truncations, bit flips, bad magic, bad
/// version, trailing bytes) then asserts every rejection is a typed
/// [`SnapshotError`], never a panic.
fn scenario_kill_restore(seed: u64, ops: u64) -> Tally {
    let trials = (ops / 30).max(8);
    let mut meta = Rng::seeded(seed ^ 0x4B13_57E5);
    let mut tally = Tally::default();
    for trial in 0..trials {
        let trial_seed = seed ^ fold(0x5AFE, trial);
        let trial_ops = 120 + meta.below(120);
        // Uniform over [0, trial_ops]: kills before the first op and
        // after the last are as legal as any mid-stream point.
        let kill_at = meta.below(trial_ops + 1);
        let plan = || {
            FaultPlan::seeded(trial_seed).fail_every_mth_alloc(23).fail_allocs_one_in(61)
        };

        let mut control = Soak::new(trial_seed, RegionConfig::default(), Some(plan()));
        for _ in 0..trial_ops {
            control.step();
        }
        let want = control.finish();

        let mut victim = Soak::new(trial_seed, RegionConfig::default(), Some(plan()));
        for _ in 0..kill_at {
            victim.step();
        }
        let image = victim.capture();
        drop(victim); // the kill: nothing survives but the bytes
        let mut revived = Soak::restore(&image)
            .unwrap_or_else(|e| panic!("trial {trial}: clean snapshot refused: {e}"));
        for _ in kill_at..trial_ops {
            revived.step();
        }
        let got = revived.finish();
        assert_eq!(
            got.digest, want.digest,
            "trial {trial}: replay after kill at op {kill_at}/{trial_ops} diverged from control"
        );
        assert_eq!(got, want, "trial {trial}: counters diverged despite equal digests");
        // A soak counts one op per step and no restores, panics or
        // quarantines, so this adds `trial_ops` ops and the fault books.
        tally.add(&want);
        tally.digest = fold(tally.digest, kill_at);
        tally.restores += 1;
    }

    // Mid-deletion kill battery: every trial parks a budgeted
    // `deleteregion` mid-flight (a pointer-bearing region partway through
    // its cleanup walk), kills at a different increment boundary,
    // restores through the sanitize gate, reinstates the budget, and
    // resumes — the final runtime bytes must equal an unkilled control's.
    for k in 0..8u64 {
        let tseed = seed ^ fold(0xD00D, k);
        let budget = 3 + k; // small budgets spread the kills across phases
        let build = || {
            let mut rt = RegionRuntime::new_safe();
            rt.set_fault_plan(FaultPlan::seeded(tseed).fail_allocs_one_in(43));
            let node = rt.register_type(TypeDescriptor::new("kr_node", 16, vec![4]));
            let keep = rt.new_region();
            let doomed = rt.new_region();
            let mut prev = Addr::NULL;
            for i in 0..200u32 {
                if let Ok(a) = rt.try_ralloc(doomed, node) {
                    if i % 3 == 0 {
                        if let Ok(t) = rt.try_ralloc(keep, node) {
                            rt.store_ptr_region(a + 4, t); // counted, cross-region
                        }
                    } else {
                        rt.store_ptr_region(a + 4, prev); // same-region list link
                        prev = a;
                    }
                }
            }
            let _ = rt.try_rstralloc(doomed, 2000);
            rt.push_frame(4);
            (rt, doomed)
        };

        let (mut ctl, target) = build();
        ctl.set_delete_budget(budget);
        let mut ctl_incs = 0u64;
        loop {
            match ctl.try_delete_region_step(target) {
                Ok(DeleteProgress::Done) => break,
                Ok(DeleteProgress::Parked) => ctl_incs += 1,
                Err(e) => panic!("trial {k}: control deletion failed: {e}"),
            }
        }
        assert!(ctl_incs >= 2, "trial {k}: deletion too small to kill mid-flight");
        let want = ctl.capture_snapshot();

        let (mut victim, vt) = build();
        victim.set_delete_budget(budget);
        let kill_at = 1 + k * (ctl_incs - 1) / 8; // 1..=ctl_incs-ish, spread
        for i in 0..kill_at {
            match victim.try_delete_region_step(vt) {
                Ok(DeleteProgress::Parked) => {}
                other => panic!("trial {k}: increment {i} resolved early: {other:?}"),
            }
        }
        let image = victim.capture_snapshot();
        drop(victim); // the kill lands between increments
        let mut revived = RegionRuntime::restore_snapshot(&image)
            .unwrap_or_else(|e| panic!("trial {k}: mid-deletion snapshot refused: {e}"));
        tally.sanitize_runs += 1; // restore's mandatory sanitize gate
        revived.set_delete_budget(budget);
        loop {
            match revived.try_delete_region_step(vt) {
                Ok(DeleteProgress::Done) => break,
                Ok(DeleteProgress::Parked) => {}
                Err(e) => panic!("trial {k}: resumed deletion failed: {e}"),
            }
        }
        assert_eq!(
            revived.capture_snapshot(),
            want,
            "trial {k}: kill at increment {kill_at}/{ctl_incs} diverged from control"
        );
        tally.restores += 1;
        tally.digest = fold(fold(tally.digest, 0xD00D), fold(kill_at, ctl_incs));
    }

    // Corrupt-input battery on a real mid-flight runtime snapshot: every
    // outcome must be a typed error (folded into the digest — rejection
    // reasons are observable history), never a panic.
    let mut probe = Soak::new(seed ^ 0x0BAD, RegionConfig::default(), Some(
        FaultPlan::seeded(seed ^ 0x0BAD).fail_every_mth_alloc(17),
    ));
    for _ in 0..200 {
        probe.step();
    }
    let snap = probe.rt.capture_snapshot();
    let reject = |e: SnapshotError, t: &mut Tally| {
        t.corrupt_rejected += 1;
        t.digest = fold(t.digest, snap_err_code(e));
    };
    // Bad magic and unsupported version.
    let mut c = snap.clone();
    c[0] ^= 0x40;
    reject(RegionRuntime::restore_snapshot(&c).expect_err("bad magic accepted"), &mut tally);
    let mut c = snap.clone();
    c[4] = 0xEE;
    reject(RegionRuntime::restore_snapshot(&c).expect_err("future version accepted"), &mut tally);
    // Seeded truncations, dense near the start (section headers) and
    // spread across the body.
    for i in 0..24u64 {
        let cut = if i < 8 { i as usize } else { (meta.below(snap.len() as u64)) as usize };
        let e = RegionRuntime::restore_snapshot(&snap[..cut])
            .expect_err("truncated snapshot accepted");
        assert!(
            matches!(e, SnapshotError::Truncated { .. } | SnapshotError::Malformed { .. }),
            "truncation at {cut} produced {e:?}"
        );
        reject(e, &mut tally);
    }
    // Trailing garbage.
    let mut c = snap.clone();
    c.push(0);
    reject(RegionRuntime::restore_snapshot(&c).expect_err("trailing byte accepted"), &mut tally);
    // Seeded bit flips: a flip may corrupt structure (typed rejection) or
    // land in bytes no invariant depends on (restores fine) — both are
    // legal; a panic is not.
    for _ in 0..64 {
        let mut c = snap.clone();
        let at = meta.below(snap.len() as u64) as usize;
        c[at] ^= 1 << meta.below(8);
        match RegionRuntime::restore_snapshot(&c) {
            Ok(_) => tally.digest = fold(tally.digest, 77),
            Err(e) => reject(e, &mut tally),
        }
    }
    tally
}

/// The configured soak for each Soak-shaped scenario, in one place so
/// the triage capturer ([`capture_triage`]) replays *exactly* the
/// stream a failing run saw. `None` for scenarios that are not driven
/// by a single [`Soak`] (vm/par/kill-restore/server build their own
/// machinery).
fn soak_for(name: &str, seed: u64, ops: u64) -> Option<Soak> {
    match name {
        "alloc-faults" => {
            let mut plan = FaultPlan::seeded(seed)
                .fail_every_mth_alloc(41)
                .fail_allocs_one_in(127);
            // A seeded scatter of page-acquisition ordinals.
            let mut rng = Rng::seeded(seed ^ 0xface);
            for _ in 0..(ops / 200).max(8) {
                plan = plan.fail_page_acquisition(1 + rng.below(ops / 4 + 1));
            }
            Some(Soak::new(seed, RegionConfig::default(), Some(plan)))
        }
        "sbrk-squeeze" => {
            let config = RegionConfig {
                stack_pages: 16,
                heap: HeapConfig { max_bytes: 512 << 20, sbrk_fault_after: None },
                ..RegionConfig::default()
            };
            let budget = 40 * PAGE_SIZE as u64;
            let plan = FaultPlan::seeded(seed).fail_sbrk_after(budget);
            Some(Soak::new(seed, config, Some(plan)))
        }
        "oom" => {
            let config = RegionConfig {
                stack_pages: 16,
                heap: HeapConfig { max_bytes: 40 * PAGE_SIZE as u64, sbrk_fault_after: None },
                ..RegionConfig::default()
            };
            Some(Soak::new(seed, config, None))
        }
        _ => None,
    }
}

/// Runs the Soak-shaped scenario `name` for `ops` steps.
fn scenario_soak(name: &str, seed: u64, ops: u64) -> Tally {
    let mut soak = soak_for(name, seed, ops).expect("soak-shaped");
    for _ in 0..ops {
        soak.step();
    }
    soak.finish()
}

/// Time-travel triage for a failed Soak-shaped scenario: re-runs the
/// same seeded stream, finds the op that lands the first injected
/// fault (or dies trying — a panicking step marks the spot just as
/// well), then replays a fresh soak to *immediately before* that op
/// and writes its complete image ([`Soak::capture`] — runtime `RSNP`
/// snapshot plus driver state) under `target/triage/`.
/// [`Soak::restore`] on the file resumes one op short of the first
/// fault, so the failure can be single-stepped from the last known
/// good state instead of re-soaked from op zero. Returns `None` for
/// scenarios without a [`soak_for`] entry or streams that never fault.
/// `CHAOS_TRIAGE_DIR` overrides the output directory.
fn capture_triage(name: &str, seed: u64, ops: u64) -> Option<std::path::PathBuf> {
    let mut probe = soak_for(name, seed, ops)?;
    let mut fault_op = None;
    for op in 0..ops {
        let stepped =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| probe.step())).is_ok();
        if !stepped || probe.tally.faults() > 0 {
            fault_op = Some(op);
            break;
        }
    }
    let fault_op = fault_op?;
    let mut pre = soak_for(name, seed, ops)?;
    for _ in 0..fault_op {
        pre.step();
    }
    assert_eq!(pre.tally.faults(), 0, "triage replay diverged from the probe");
    let dir = std::env::var_os("CHAOS_TRIAGE_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::Path::new("target").join("triage"));
    std::fs::create_dir_all(&dir).ok()?;
    let path = dir.join(format!("{name}-seed{seed:016x}-op{fault_op}.rsnp"));
    std::fs::write(&path, pre.capture()).ok()?;
    Some(path)
}

/// Scenario names, in the order a whole soak runs them.
pub const SCENARIOS: [&str; 7] = [
    "alloc-faults",
    "sbrk-squeeze",
    "oom",
    "vm-chaos",
    "par-chaos",
    "kill-restore",
    "server-chaos",
];

/// Runs the scenario `name` of a soak of `ops` operations per scenario
/// (`alloc-faults` runs all of them, every other scenario half). On
/// failure it captures the pre-first-fault triage snapshot before
/// letting the panic continue: the soak dies exactly as it would have,
/// but leaves a resumable image behind.
///
/// # Panics
///
/// Panics when an invariant of the scenario breaks, or when `name` is
/// not one of [`SCENARIOS`].
pub fn run_scenario(name: &str, seed: u64, ops: u64) -> Tally {
    let ops = if name == "alloc-faults" { ops } else { ops / 2 };
    let run = || match name {
        "alloc-faults" | "sbrk-squeeze" | "oom" => scenario_soak(name, seed, ops),
        "vm-chaos" => scenario_vm(seed, ops),
        "par-chaos" => scenario_par(seed, ops),
        "kill-restore" => scenario_kill_restore(seed, ops),
        "server-chaos" => scenario_server(seed, ops),
        _ => panic!("unknown chaos scenario {name:?}; known: {SCENARIOS:?}"),
    };
    match std::panic::catch_unwind(run) {
        Ok(t) => t,
        Err(payload) => {
            if let Some(path) = capture_triage(name, seed, ops) {
                eprintln!(
                    "chaos: {name} failed; pre-fault triage snapshot at {}",
                    path.display()
                );
            }
            std::panic::resume_unwind(payload);
        }
    }
}

/// Folds a string into the digest byte by byte (trap messages are part
/// of the observable history).
fn fold_str(mut h: u64, s: &str) -> u64 {
    for b in s.bytes() {
        h = fold(h, u64::from(b));
    }
    h
}

/// Folds bytes into the digest one little-endian word at a time, the
/// last word zero-padded.
fn fold_words(mut h: u64, bytes: &[u8]) -> u64 {
    for chunk in bytes.chunks(8) {
        let mut v = [0u8; 8];
        v[..chunk.len()].copy_from_slice(chunk);
        h = fold(h, u64::from_le_bytes(v));
    }
    h
}

/// Renders a seeded random C@ program from one of four template
/// families. Every generated program is well-typed; what varies under
/// fault injection is how far it gets.
///
/// * family 0 — linked lists across two regions with a deletion pattern
///   that (depending on the dice) deletes cleanly, is blocked by a live
///   stack reference, or leaves regions for the VM teardown;
/// * family 1 — struct arrays indexed at the bounds-adjacent first and
///   last elements, filled inside nested per-iteration regions that are
///   deleted as soon as their summary escapes by value;
/// * family 2 — a recursively generated call tree of functions whose
///   nested regions live and die with the call stack, over
///   self-recursive list builders;
/// * family 3 — region-typed function returns: helpers that return
///   fresh region pointers (and whole `Region` values) which callers
///   settle into locals and store into fields.
fn gen_program(rng: &mut Rng, family: u64) -> String {
    match family {
        1 => gen_array_program(rng),
        2 => gen_recursive_program(rng),
        3 => gen_return_program(rng),
        _ => gen_list_program(rng),
    }
}

/// Family 0: linked lists, blocked deletes (the original vm-chaos
/// template).
fn gen_list_program(rng: &mut Rng) -> String {
    let na = 1 + rng.below(24);
    let nb = 1 + rng.below(24);
    let hold = rng.below(3) == 0; // keep a live ref so deleteregion is blocked
    let delete_b = rng.below(4) != 0;
    let body = if hold {
        format!(
            "node@ keep = x;\n    print(deleteregion(a));\n    keep = null;\n    \
             x = null;\n    print(deleteregion(a));"
        )
    } else {
        format!("x = null;\n    print(deleteregion(a));")
    };
    let tail = if delete_b {
        "y = null;\n    print(deleteregion(b));"
    } else {
        "print(sum(y));"
    };
    format!(
        r#"
struct node {{ int v; node@ next; }};

node@ build(Region r, int n) {{
    node@ head = null;
    while (n > 0) {{
        node@ p = ralloc(r, node);
        p.v = n;
        p.next = head;
        head = p;
        n = n - 1;
    }}
    return head;
}}

int sum(node@ l) {{
    int s = 0;
    while (l != null) {{ s = s + l.v; l = l.next; }}
    return s;
}}

void main() {{
    Region a = newregion();
    Region b = newregion();
    node@ x = build(a, {na});
    node@ y = build(b, {nb});
    print(sum(x));
    print(sum(y));
    {body}
    {tail}
}}
"#
    )
}

/// Family 1: struct arrays with bounds-adjacent indexing plus nested
/// regions — an outer region holding a long-lived array while a loop
/// creates, fills, and deletes one inner region per iteration.
fn gen_array_program(rng: &mut Rng) -> String {
    let n_outer = 2 + rng.below(20);
    let n_inner = 1 + rng.below(12);
    let rounds = 1 + rng.below(5);
    // Sometimes keep the outer array live across the deleteregion so the
    // blocked path is exercised in the array family too.
    let hold_outer = rng.below(3) == 0;
    let outer_tail = if hold_outer {
        "print(deleteregion(outer));\n    big = null;\n    print(deleteregion(outer));"
    } else {
        "big = null;\n    print(deleteregion(outer));"
    };
    format!(
        r#"
struct cell {{ int v; cell@ peer; }};

int fill(Region r, int n) {{
    cell@ arr = rarrayalloc(r, n, cell);
    int i = 0;
    while (i < n) {{
        arr[i].v = i + 1;
        i = i + 1;
    }}
    int edges = arr[0].v + arr[n - 1].v;
    arr = null;
    return edges;
}}

void main() {{
    Region outer = newregion();
    cell@ big = rarrayalloc(outer, {n_outer}, cell);
    big[0].v = 100;
    big[{n_outer} - 1].v = 1;
    int total = big[0].v + big[{n_outer} - 1].v;
    int k = 0;
    while (k < {rounds}) {{
        Region inner = newregion();
        total = total + fill(inner, {n_inner});
        print(deleteregion(inner));
        k = k + 1;
    }}
    print(total);
    {outer_tail}
}}
"#
    )
}

/// Family 2: a recursively *generated* call tree. The generator itself
/// recurses over a seeded shape, and every node of the shape becomes a
/// C@ function: leaves build and sum short lists via the self-recursive
/// `grow`/`tally` helpers on the caller's region; interior functions
/// open a nested region, hand it (or the caller's region — seeded per
/// call site) to their children, and delete it on the way out, so region
/// lifetimes nest with the call tree. A seeded minority of interior
/// nodes keeps a reference live across the first `deleteregion`,
/// exercising the blocked-delete path deep inside the call stack.
///
/// Functions are emitted children-first, so every call site names an
/// already-emitted function; only `grow`/`tally` call themselves.
fn gen_recursive_program(rng: &mut Rng) -> String {
    fn emit(rng: &mut Rng, depth: u64, next_id: &mut u32, out: &mut Vec<String>) -> u32 {
        let id = *next_id;
        *next_id += 1;
        if depth == 0 || rng.below(4) == 0 {
            // Leaf: allocate into whichever region the parent passed.
            let n = 1 + rng.below(12);
            out.push(format!("int f{id}(Region r) {{\n    return tally(grow(r, {n}));\n}}\n"));
            return id;
        }
        let n_kids = 1 + rng.below(3);
        let mut calls = String::new();
        for _ in 0..n_kids {
            let kid = emit(rng, depth - 1, next_id, out);
            let target = if rng.below(3) == 0 { "r" } else { "s" };
            calls.push_str(&format!("    t = t + f{kid}({target});\n"));
        }
        let hold = if rng.below(3) == 0 {
            "    node@ keep = grow(s, 1);\n    print(deleteregion(s));\n    keep = null;\n"
        } else {
            ""
        };
        out.push(format!(
            "int f{id}(Region r) {{\n    Region s = newregion();\n    int t = 0;\n\
             {calls}{hold}    print(deleteregion(s));\n    return t;\n}}\n"
        ));
        id
    }

    let mut out = Vec::new();
    let mut next_id = 0;
    let depth = 1 + rng.below(3);
    let root = emit(rng, depth, &mut next_id, &mut out);
    let funcs = out.concat();
    format!(
        r#"
struct node {{ int v; node@ next; }};

node@ grow(Region r, int n) {{
    if (n == 0) {{ return null; }}
    node@ p = ralloc(r, node);
    p.v = n;
    p.next = grow(r, n - 1);
    return p;
}}

int tally(node@ l) {{
    if (l == null) {{ return 0; }}
    return l.v + tally(l.next);
}}

{funcs}
void main() {{
    Region top = newregion();
    print(f{root}(top));
    print(deleteregion(top));
}}
"#
    )
}

/// Family 3: region-typed function returns. Every allocation flows out
/// of a helper as a returned region pointer — `mk` returns a fresh
/// node, `extend` links a returned node onto a returned tail, `chain`
/// loops over `extend` — and `pick` returns a whole `Region` chosen
/// between its arguments, so the caller's facts come entirely from
/// call-return transfer. A seeded minority keeps a reference live
/// across the first `deleteregion` to exercise the blocked path.
fn gen_return_program(rng: &mut Rng) -> String {
    let n1 = 1 + rng.below(16);
    let n2 = 1 + rng.below(16);
    let which = rng.below(2);
    let grow = 1 + rng.below(6);
    let body = if rng.below(3) == 0 {
        "node@ keep = x;\n    print(deleteregion(a));\n    keep = null;"
    } else {
        ""
    };
    format!(
        r#"
struct node {{ int v; node@ next; }};

node@ mk(Region r, int v) {{
    node@ p = ralloc(r, node);
    p.v = v;
    return p;
}}

node@ extend(Region r, node@ tail, int n) {{
    node@ p = mk(r, n);
    p.next = tail;
    return p;
}}

node@ chain(Region r, int n) {{
    node@ h = null;
    while (n > 0) {{
        h = extend(r, h, n);
        n = n - 1;
    }}
    return h;
}}

Region pick(Region a, Region b, int which) {{
    if (which != 0) {{ return a; }}
    return b;
}}

int total(node@ l) {{
    int s = 0;
    while (l != null) {{ s = s + l.v; l = l.next; }}
    return s;
}}

void main() {{
    Region a = newregion();
    Region b = newregion();
    Region c = pick(a, b, {which});
    node@ x = chain(c, {n1});
    node@ y = chain(a, {n2});
    int i = 0;
    while (i < {grow}) {{
        y = extend(a, y, i + 50);
        i = i + 1;
    }}
    print(total(x));
    print(total(y));
    {body}
    x = null;
    y = null;
    print(deleteregion(a));
    print(deleteregion(b));
}}
"#
    )
}

/// Seeded random C@ programs through the full compiler + VM pipeline
/// with a [`FaultPlan`] injected into the VM's runtime: whatever the
/// fault timing, the VM must **trap** (a typed [`cq_lang::VmError`]) or
/// finish — never panic — and its runtime must sanitize clean
/// afterwards.
/// Everything observable about one VM run of a generated program.
/// The differential below demands that *all* of it except the barrier
/// split is bit-identical with elision on and off.
struct VmObs {
    output: Vec<i32>,
    instructions: u64,
    trap: Option<String>,
    /// FNV fold of every mapped heap byte at exit.
    heap_digest: u64,
    /// Full write barriers executed (global + region + unknown).
    barriers_full: u64,
    /// Barrier-free (statically elided) region-pointer stores executed.
    barriers_elided: u64,
    total_allocs: u64,
    total_bytes: u64,
    data_pages: u64,
}

/// Compiles `source` (with or without barrier elision) and runs it to
/// completion or trap under the given fuel budget and fault plan,
/// asserting the runtime sanitizes clean and recorded no rc violation
/// — an [`ElisionUnsound`] here means the inference lied.
///
/// [`ElisionUnsound`]: region_core::RcViolation::ElisionUnsound
fn run_vm_once(
    i: u64,
    source: &str,
    elide: bool,
    fuel: Option<u64>,
    plan: Option<FaultPlan>,
) -> VmObs {
    use region_core::SafetyMode;

    let program = if elide { cq_lang::compile_elide(source) } else { cq_lang::compile(source) }
        .unwrap_or_else(|e| panic!("generated program must compile: {e}\n{source}"));
    let mut vm = cq_lang::Vm::new(program, SafetyMode::Safe);
    if let Some(fuel) = fuel {
        vm.set_fuel(fuel);
    }
    if let Some(plan) = plan {
        vm.runtime_mut().set_fault_plan(plan);
    }
    let trap = vm.run().err().map(|t| t.message);
    let report = vm.runtime_mut().sanitize();
    assert!(report.is_clean(), "VM runtime dirty after program {i} (elide {elide}): {report}");
    assert!(
        vm.runtime().violations().is_empty(),
        "rc violations after program {i} (elide {elide}): {:?}\n{source}",
        vm.runtime().violations()
    );
    let heap = vm.runtime().heap();
    let mut heap_digest = FNV_OFFSET;
    for b in heap.snapshot(Addr::new(0), heap.brk().raw()) {
        heap_digest = fold(heap_digest, u64::from(b));
    }
    let costs = vm.runtime().costs();
    let stats = vm.runtime().stats();
    VmObs {
        output: vm.output().to_vec(),
        instructions: vm.instructions(),
        trap,
        heap_digest,
        barriers_full: costs.barriers_global + costs.barriers_region + costs.barriers_unknown,
        barriers_elided: costs.barriers_elided,
        total_allocs: stats.total_allocs,
        total_bytes: stats.total_bytes,
        data_pages: vm.runtime().data_pages(),
    }
}

/// What one supervised worker reports back for one generated program:
/// the baseline run's observables folded into a per-program digest,
/// plus the barrier split on both sides of the A/B.
struct VmRun {
    digest: u64,
    finished: bool,
    injected_fault: bool,
    sanitize_runs: u64,
    barriers_base: u64,
    barriers_opt: u64,
    elided: u64,
}

/// Runs one generated program twice — elision off, then on — under
/// identical fuel and fault plans, and asserts the runs are
/// observationally identical everywhere except the barrier split:
/// same output, same trap (or none), same executed-instruction count,
/// same allocation totals, and a bit-identical final heap. The only
/// licensed difference is that full barriers become elided stores,
/// one for one.
fn run_vm_differential(
    i: u64,
    source: &str,
    fuel: Option<u64>,
    plan: Option<FaultPlan>,
) -> VmRun {
    let base = run_vm_once(i, source, false, fuel, plan.clone());
    let opt = run_vm_once(i, source, true, fuel, plan);
    assert_eq!(base.output, opt.output, "elision changed output (program {i})\n{source}");
    assert_eq!(base.trap, opt.trap, "elision changed the trap (program {i})\n{source}");
    assert_eq!(
        base.instructions, opt.instructions,
        "elision changed the executed-instruction count (program {i})\n{source}"
    );
    assert_eq!(
        base.heap_digest, opt.heap_digest,
        "elision changed the final heap (program {i})\n{source}"
    );
    assert_eq!(base.total_allocs, opt.total_allocs, "elision changed allocs (program {i})");
    assert_eq!(base.total_bytes, opt.total_bytes, "elision changed alloc bytes (program {i})");
    assert_eq!(base.data_pages, opt.data_pages, "elision changed page usage (program {i})");
    assert_eq!(base.barriers_elided, 0, "baseline compile emitted an elided store (program {i})");
    assert_eq!(
        base.barriers_full,
        opt.barriers_full + opt.barriers_elided,
        "elision changed the number of classified stores (program {i})\n{source}"
    );
    // The digest folds only the baseline run — the A/B just proved the
    // eliding run observationally identical.
    let mut d = 0u64;
    match &base.trap {
        None => d = fold(d, 31),
        Some(msg) => d = fold_str(fold(d, 32), msg),
    }
    for &v in &base.output {
        d = fold(d, v as u64);
    }
    d = fold(d, base.instructions);
    VmRun {
        digest: d,
        finished: base.trap.is_none(),
        injected_fault: base.trap.as_deref().is_some_and(|m| m.contains("injected fault")),
        sanitize_runs: 2,
        barriers_base: base.barriers_full,
        barriers_opt: opt.barriers_full,
        elided: opt.barriers_elided,
    }
}

fn scenario_vm(seed: u64, ops: u64) -> Tally {
    let mut rng = Rng::seeded(seed ^ 0x5EED_C0DE);
    let mut tally = Tally::default();
    let programs = (ops / 100).max(12);
    let mut family_runs = [0u64; 4];
    // Generate every program (and its fuel/fault dice) serially so the
    // rng stream is independent of the supervised execution order.
    let mut jobs: Vec<Box<dyn Fn(u32) -> VmRun + Send + Sync>> = Vec::new();
    for i in 0..programs {
        tally.ops += 1;
        // Programs 0–3 pin one template family each so every family is
        // exercised structurally, not by a bet on the dice.
        let family = match i {
            0 => 0,
            1 => 1,
            2 => 2,
            3 => 3,
            _ => rng.below(4),
        };
        family_runs[family as usize] += 1;
        tally.digest = fold(tally.digest, 30 + family);
        let source = gen_program(&mut rng, family);
        // Program 0 always runs clean and program 1 always faults its
        // very first allocation, so the finished/trapped floor below is
        // structural rather than a bet on the dice.
        let (fuel, plan) = if i == 0 {
            (None, None)
        } else {
            // Small budgets make some runs die of fuel exhaustion: the
            // fuel trap must be as clean as a fault trap.
            let fuel = if rng.below(6) == 0 { Some(200 + rng.below(2000)) } else { None };
            let plan = if i == 1 {
                FaultPlan::seeded(seed ^ i).fail_every_mth_alloc(1)
            } else {
                FaultPlan::seeded(seed ^ i)
                    .fail_every_mth_alloc(3 + rng.below(40))
                    .fail_allocs_one_in(4 + rng.below(40))
            };
            let plan = if rng.below(4) == 0 {
                plan.fail_sbrk_after(PAGE_SIZE as u64 * (1 + rng.below(6)))
            } else {
                plan
            };
            (fuel, Some(plan))
        };
        jobs.push(Box::new(move |_attempt| {
            run_vm_differential(i, &source, fuel, plan.clone())
        }));
    }
    // Untrusted generated code runs under the supervisor: a panic is
    // contained and reported (then failed, with the program index), and
    // a wedged program is abandoned at the deadline instead of hanging
    // the soak.
    let cfg = SuperviseConfig {
        workers: 4,
        deadline: Some(std::time::Duration::from_secs(120)),
        max_attempts: 1,
    };
    let reports = supervise(jobs, &cfg);
    let (mut finished, mut trapped) = (0u64, 0u64);
    let (mut base_total, mut opt_total, mut elided_total) = (0u64, 0u64, 0u64);
    for rep in reports {
        let run = match rep.outcome {
            JobOutcome::Completed(run) => run,
            JobOutcome::Panicked(msg) => {
                panic!("vm-chaos program {} failed under supervision: {msg}", rep.job)
            }
            JobOutcome::TimedOut(d) => {
                panic!("vm-chaos program {} wedged past the deadline ({d:?})", rep.job)
            }
        };
        if run.finished {
            finished += 1;
        } else {
            trapped += 1;
        }
        if run.injected_fault {
            tally.alloc_faults += 1;
        }
        tally.sanitize_runs += run.sanitize_runs;
        tally.digest = fold(tally.digest, run.digest);
        base_total += run.barriers_base;
        opt_total += run.barriers_opt;
        elided_total += run.elided;
    }
    assert!(finished > 0, "no generated program ever finished");
    assert!(trapped > 0, "no generated program ever trapped");
    assert!(
        family_runs.iter().all(|&n| n > 0),
        "a template family was never generated: {family_runs:?}"
    );
    assert!(elided_total > 0, "the inference never elided a barrier across the whole soak");
    assert!(opt_total <= base_total, "elision added barriers: {opt_total} > {base_total}");
    tally
}

/// Shared reference cells per round.
const PAR_CELLS: usize = 24;
/// Regions the main thread creates and shares with every worker.
const PAR_SHARED: usize = 8;
/// Supervised worker jobs per round: 3 soft panickers (die on attempt 0,
/// succeed on retry), 1 hard panicker (dies every attempt), 2 clean.
const PAR_JOBS: usize = 6;
/// Pool operations per worker attempt.
const PAR_JOB_OPS: u64 = 40;

/// Folds one par-chaos round's worker reports into `tally`: a job that
/// completed folds its attempt count and op digest, a job that died on
/// every attempt its attempt count. Every contained panic must be an
/// injected one.
fn settle_workers(tally: &mut Tally, reports: &[WorkerReport<u64>], round: &str) {
    for rep in reports {
        match &rep.outcome {
            JobOutcome::Completed(d) => {
                // attempts − 1 contained panics preceded the success.
                tally.worker_panics += u64::from(rep.attempts - 1);
                tally.digest = fold(fold(fold(tally.digest, 1), u64::from(rep.attempts)), *d);
            }
            JobOutcome::Panicked(msg) => {
                assert!(
                    msg.contains(PAR_PANIC_MARKER),
                    "{round}: a pool-API panic escaped through worker {}: {msg}",
                    rep.job
                );
                tally.worker_panics += u64::from(rep.attempts);
                tally.digest = fold(fold(tally.digest, 2), u64::from(rep.attempts));
            }
            JobOutcome::TimedOut(d) => {
                panic!("{round}: worker {} wedged ({d:?}) — the pool blocked it", rep.job)
            }
        }
    }
}

/// Deletes every live region of `pool`, where orphaned counts block a
/// delete the region must be quarantined, and then one reap pass must
/// reclaim every quarantined region: nothing is held, published, or
/// positively counted by a live thread any more. The pool must audit
/// clean afterwards with no region left. Returns the reap report.
fn quarantine_and_reap(pool: &ParRegionPool, tally: &mut Tally, round: &str) -> ReapReport {
    let mut quarantined = 0u64;
    for r in pool.live_regions() {
        match pool.try_delete_checked(r) {
            Ok(()) => {}
            Err(e @ ParRegionError::BlockedByOrphans { .. }) => {
                quarantined += 1;
                assert!(pool.is_quarantined(r), "{round}: blocked region not quarantined: {e}");
            }
            Err(e) => panic!("{round}: delete of {r:?} failed unexpectedly: {e}"),
        }
    }
    let reap = pool.reap_orphans();
    assert!(reap.is_fully_reclaimed(), "{round}: regions left quarantined: {reap}");
    assert_eq!(reap.reaped.len() as u64, quarantined, "{round}: a quarantine went unreaped");
    tally.blocked_deletes += quarantined;
    tally.quarantined += quarantined;
    tally.reaped += quarantined;
    let audit = pool.audit();
    tally.sanitize_runs += 1;
    assert!(audit.is_clean(), "{round}: audit dirty after reap: {audit}");
    assert!(pool.live_regions().is_empty(), "{round}: regions leaked");
    reap
}

/// Supervised `ParRegionPool` workers panic mid-schedule while holding
/// published [`RefCell32`] references, leaked RAII handles, and
/// unbalanced raw retains. Invariants, asserted every round:
///
/// * **trap, not panic, at the pool API** — every contained panic is one
///   of ours (it carries [`PAR_PANIC_MARKER`]); the pool itself never
///   panics under the supervisor;
/// * **audit-clean after every fault** — [`ParRegionPool::audit`]
///   balances the books right after the crashed workers settle, and
///   again after reclamation;
/// * **no silent leak** — after the main thread clears the cells, every
///   region is either deleted or explicitly reported
///   [`ParRegionError::BlockedByOrphans`] (quarantined), and one
///   [`reap_orphans`] pass reclaims every quarantined region;
/// * **determinism** — the digest folds only schedule-independent facts
///   (per-job op digests, outcome kinds and attempt counts, stranded
///   totals after the cells are cleared, quarantine/reap counts), so the
///   same seed reproduces it bit-identically.
///
/// A second phase (DESIGN §15) reruns the panic chaos with the workers
/// *also* mutating disjoint shards of one shared address space. The
/// per-worker runtimes live in mutex slots that outlive a panicked
/// attempt, so a retry resumes the same runtime mid-state and a dead
/// worker's abandoned runtime is still there to be audited: every slot
/// must sanitize clean, [`world_mirror_mismatches`] must be zero, and
/// `capture_world` → `restore_world` → `capture_world` must be
/// byte-identical every round — the sharded kill-restore proof.
///
/// [`world_mirror_mismatches`]: region_core::world_mirror_mismatches
/// [`ParRegionPool::audit`]: region_core::par::ParRegionPool::audit
/// [`reap_orphans`]: region_core::par::ParRegionPool::reap_orphans
/// [`RefCell32`]: region_core::par::RefCell32
fn scenario_par(seed: u64, ops: u64) -> Tally {
    use region_core::par::{ParRef, ParRegionId, RefCell32};
    use region_core::{capture_world, restore_world, world_mirror_mismatches};
    use simheap::{HeapBackend, HeapShard, SharedSpace, SpaceConfig};
    use std::sync::{Arc, Mutex};

    let mut tally = Tally::default();
    let rounds = (ops / 60).max(3);
    let cfg = SuperviseConfig {
        workers: PAR_JOBS,
        deadline: Some(std::time::Duration::from_secs(60)),
        max_attempts: 2,
    };
    for round in 0..rounds {
        let pool = ParRegionPool::new();
        let cells: Vec<Arc<RefCell32>> = (0..PAR_CELLS).map(|_| pool.register_cell()).collect();
        let mut main = pool.register_thread();
        let shared: Vec<ParRegionId> = (0..PAR_SHARED).map(|_| main.create_region()).collect();

        let mut jobs: Vec<Box<dyn Fn(u32) -> u64 + Send + Sync>> = Vec::new();
        for w in 0..PAR_JOBS {
            let pool = pool.clone();
            let cells = cells.clone();
            let shared = shared.clone();
            let job_seed = seed ^ fold(round, w as u64 + 100);
            let (soft, hard) = (w <= 2, w == 3);
            jobs.push(Box::new(move |attempt: u32| {
                // Retries get their own stream: a retried schedule need
                // not mirror the crashed one, only be deterministic.
                let mut rng = Rng::seeded(job_seed ^ (u64::from(attempt) << 32));
                // Late registration: the shared regions (and possibly
                // orphan residue from this worker's own crashed attempt)
                // pre-exist this thread.
                let mut t = pool.register_thread();
                let mut digest = 0u64;
                let mut held: Vec<ParRef> = Vec::new();
                let mut raw_held: Vec<ParRegionId> = Vec::new();
                let mut own: Vec<ParRegionId> = Vec::new();
                // Drawn unconditionally so every role consumes the same
                // stream prefix regardless of whether it will die.
                let panic_at = 5 + rng.below(PAR_JOB_OPS - 10);
                for op in 0..PAR_JOB_OPS {
                    if op == panic_at && (hard || (soft && attempt == 0)) {
                        // Die mid-schedule holding live state: leak one
                        // handle outright (only the settle can release
                        // it); the rest unwind through ParRef::drop and
                        // ParThread::drop inside catch_unwind.
                        if let Some(h) = held.pop() {
                            std::mem::forget(h);
                        }
                        panic!(
                            "{PAR_PANIC_MARKER} (round {round} worker {w} attempt {attempt})"
                        );
                    }
                    match rng.below(10) {
                        // A private region, kept alive by an RAII handle.
                        0 => {
                            if own.len() < 4 {
                                let r = t.create_region();
                                held.push(t.acquire(r));
                                own.push(r);
                                digest = fold(digest, 41);
                            }
                        }
                        // Owned reference to a shared region.
                        1..=2 => {
                            let i = rng.below(PAR_SHARED as u64) as usize;
                            if held.len() >= 8 {
                                held.remove(0);
                            }
                            held.push(t.acquire(shared[i]));
                            digest = fold(fold(digest, 42), i as u64);
                        }
                        // Raw retain — the reference the pool cannot see.
                        // Mostly kept unbalanced: if this worker dies,
                        // these become the orphaned counts that force
                        // quarantine.
                        3..=4 => {
                            let i = rng.below(PAR_SHARED as u64) as usize;
                            t.retain(shared[i]);
                            if rng.below(4) == 0 {
                                t.release(shared[i]);
                                digest = fold(fold(digest, 43), i as u64);
                            } else {
                                raw_held.push(shared[i]);
                                digest = fold(fold(digest, 44), i as u64);
                            }
                        }
                        // Atomic-exchange publish/clear on a shared cell.
                        _ => {
                            let c = rng.below(PAR_CELLS as u64) as usize;
                            let target = if rng.below(4) != 0 {
                                Some(shared[rng.below(PAR_SHARED as u64) as usize])
                            } else {
                                None
                            };
                            t.exchange_ref(&cells[c], target);
                            digest = fold(fold(digest, 45), c as u64);
                        }
                    }
                }
                // Clean exit: balance every raw reference, drop the RAII
                // handles, delete the private regions. Residual exchange
                // counts settle into the orphan ledger when `t` drops —
                // that fold must leave every sum exactly as it was.
                for r in raw_held.drain(..) {
                    t.release(r);
                }
                drop(held);
                for r in own.drain(..) {
                    assert!(pool.try_delete(r), "private region must delete cleanly");
                }
                digest
            }));
        }

        settle_workers(&mut tally, &supervise(jobs, &cfg), &format!("round {round}"));

        // Audit right after the crashed workers settled, before cleanup.
        let audit = pool.audit();
        tally.sanitize_runs += 1;
        assert!(audit.is_clean(), "round {round}: audit dirty after faults: {audit}");
        tally.digest = fold(tally.digest, audit.regions_audited);
        tally.digest = fold(tally.digest, audit.threads_audited);
        tally.digest = fold(tally.digest, audit.cells_audited);

        // The main thread clears every published reference; what remains
        // on each shared region is exactly the raw references stranded by
        // dead workers — a schedule-independent number.
        for c in &cells {
            main.exchange_ref(c, None);
        }
        for (i, &r) in shared.iter().enumerate() {
            tally.digest = fold(fold(tally.digest, i as u64), pool.global_count(r) as u64);
        }

        // Every region now deletes or is *explicitly* quarantined.
        // Every region now deletes or is *explicitly* quarantined, and
        // one reap pass reclaims every quarantined one.
        let reap = quarantine_and_reap(&pool, &mut tally, &format!("round {round}"));
        let quarantined = reap.reaped.len() as u64;
        for _ in 0..quarantined {
            tally.digest = fold(tally.digest, 46);
        }
        tally.digest = fold(fold(tally.digest, 47), quarantined);
        for rr in &reap.reaped {
            // orphan + live residue = the stranded total (deterministic);
            // the two components on their own are interleaving-dependent.
            tally.digest = fold(tally.digest, (rr.orphan_count + rr.live_residue) as u64);
        }
        tally.ops += PAR_JOBS as u64 * PAR_JOB_OPS;
    }

    // ---- Phase 2: the same panic chaos on ONE shared address space ----
    //
    // Six workers, each owning a shard of a fresh [`SharedSpace`] AND
    // registered with a shared [`ParRegionPool`]; soft workers panic once
    // and retry, the hard worker stays dead. Panics are injected *between*
    // operations, outside the slot lock, so the abandoned runtime stays
    // consistent in its Mutex slot. After the faults: the pool must audit
    // clean with the dead workers' ledgers settled (orphan ledger
    // balanced, quarantine + reap explicit), every runtime — survivor or
    // abandoned — must sanitize clean on the shared space, the published
    // page→region mirror must agree with every shard's private books, and
    // the whole world must capture → restore → recapture byte-equal.

    /// One worker's shard runtime plus the op tables its deterministic
    /// script needs across retry attempts.
    struct ShardSlot {
        rt: RegionRuntime<HeapShard>,
        node: DescId,
        regions: Vec<RegionId>,
        objs: Vec<(Addr, RegionId)>,
    }

    impl ShardSlot {
        fn new(mut rt: RegionRuntime<HeapShard>) -> ShardSlot {
            let node = rt.register_type(TypeDescriptor::new("node", 16, vec![8]));
            ShardSlot { rt, node, regions: Vec::new(), objs: Vec::new() }
        }

        /// One region op on this worker's shard, returning an observation
        /// fold. Streams depend only on the worker's own rng, so the
        /// fold is schedule-independent.
        fn op(&mut self, rng: &mut Rng) -> u64 {
            match rng.below(8) {
                0 => {
                    if self.regions.len() >= 12 {
                        return 0;
                    }
                    let r = self.rt.new_region();
                    self.regions.push(r);
                    fold(51, r.index() as u64)
                }
                1..=3 => {
                    if self.regions.is_empty() {
                        return 0;
                    }
                    let r = self.regions[rng.below(self.regions.len() as u64) as usize];
                    match self.rt.try_ralloc(r, self.node) {
                        Ok(a) => {
                            self.objs.push((a, r));
                            fold(52, u64::from(a.raw()))
                        }
                        Err(e) => fold(53, err_code(e)),
                    }
                }
                4 => {
                    if self.objs.is_empty() {
                        return 0;
                    }
                    let (a, _) = self.objs[rng.below(self.objs.len() as u64) as usize];
                    let v = rng.next_u64() as u32;
                    self.rt.heap_mut().store_u32(a.offset(4), v);
                    fold(54, u64::from(v))
                }
                5 => {
                    if self.objs.is_empty() {
                        return 0;
                    }
                    let (a, _) = self.objs[rng.below(self.objs.len() as u64) as usize];
                    fold(55, u64::from(self.rt.heap_mut().load_u32(a)))
                }
                6 => {
                    if self.objs.is_empty() {
                        return 0;
                    }
                    let (loc, _) = self.objs[rng.below(self.objs.len() as u64) as usize];
                    let (val, _) = self.objs[rng.below(self.objs.len() as u64) as usize];
                    self.rt.store_ptr_unknown(loc.offset(8), val);
                    56
                }
                _ => {
                    if self.regions.is_empty() {
                        return 0;
                    }
                    let r = self.regions[rng.below(self.regions.len() as u64) as usize];
                    match self.rt.try_delete_region(r) {
                        Ok(()) => {
                            // Dangling stores into recycled pages would
                            // corrupt object headers; drop the objects.
                            self.objs.retain(|&(_, owner)| owner != r);
                            57
                        }
                        Err(e) => fold(58, err_code(e)),
                    }
                }
            }
        }
    }

    let p2_rounds = (ops / 120).max(3);
    for round in 0..p2_rounds {
        let space = SharedSpace::new(SpaceConfig {
            max_bytes: 64 * 1024 * 1024,
            workers: PAR_JOBS as u32,
        });
        let pool = ParRegionPool::new();
        let cells: Vec<Arc<RefCell32>> = (0..PAR_CELLS).map(|_| pool.register_cell()).collect();
        let mut main_t = pool.register_thread();
        let shared: Vec<ParRegionId> = (0..PAR_SHARED).map(|_| main_t.create_region()).collect();
        let slots: Vec<Arc<Mutex<ShardSlot>>> = (0..PAR_JOBS)
            .map(|w| {
                Arc::new(Mutex::new(ShardSlot::new(RegionRuntime::with_config_on(
                    RegionConfig::default(),
                    space.shard(w as u32),
                ))))
            })
            .collect();

        let mut jobs: Vec<Box<dyn Fn(u32) -> u64 + Send + Sync>> = Vec::new();
        for w in 0..PAR_JOBS {
            let pool = pool.clone();
            let cells = cells.clone();
            let shared = shared.clone();
            let slot = Arc::clone(&slots[w]);
            let job_seed = seed ^ fold(round, w as u64 + 500);
            let (soft, hard) = (w <= 2, w == 3);
            jobs.push(Box::new(move |attempt: u32| {
                let mut rng = Rng::seeded(job_seed ^ (u64::from(attempt) << 32));
                let mut t = pool.register_thread();
                let mut digest = 0u64;
                let mut held: Vec<ParRef> = Vec::new();
                let panic_at = 5 + rng.below(PAR_JOB_OPS - 10);
                for op in 0..PAR_JOB_OPS {
                    if op == panic_at && (hard || (soft && attempt == 0)) {
                        if let Some(h) = held.pop() {
                            std::mem::forget(h);
                        }
                        panic!(
                            "{PAR_PANIC_MARKER} (shared round {round} worker {w} \
                             attempt {attempt})"
                        );
                    }
                    match rng.below(10) {
                        // Region ops on this worker's own shard. The
                        // slot outlives a panicked attempt, so a retry
                        // resumes the same runtime mid-state.
                        0..=5 => {
                            let mut s =
                                slot.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                            let v = s.op(&mut rng);
                            digest = fold(digest, v);
                        }
                        // Owned reference to a shared pool region.
                        6..=7 => {
                            let i = rng.below(PAR_SHARED as u64) as usize;
                            if held.len() >= 8 {
                                held.remove(0);
                            }
                            held.push(t.acquire(shared[i]));
                            digest = fold(fold(digest, 61), i as u64);
                        }
                        // Atomic-exchange publish/clear on a shared cell.
                        _ => {
                            let c = rng.below(PAR_CELLS as u64) as usize;
                            let target = if rng.below(4) != 0 {
                                Some(shared[rng.below(PAR_SHARED as u64) as usize])
                            } else {
                                None
                            };
                            t.exchange_ref(&cells[c], target);
                            digest = fold(fold(digest, 62), c as u64);
                        }
                    }
                }
                drop(held);
                digest
            }));
        }

        settle_workers(&mut tally, &supervise(jobs, &cfg), &format!("shared round {round}"));

        // The pool's books must balance with the dead workers settled.
        let audit = pool.audit();
        tally.sanitize_runs += 1;
        assert!(audit.is_clean(), "shared round {round}: audit dirty after faults: {audit}");
        for c in &cells {
            main_t.exchange_ref(c, None);
        }
        quarantine_and_reap(&pool, &mut tally, &format!("shared round {round}"));

        // The sharded world itself: every runtime — survivors and the
        // dead worker's abandoned one — must pass the full sanitizer on
        // the shared space, and the published mirror must agree with
        // every shard's private page map.
        // An attempt `supervise` abandoned can outlive the call holding
        // its job, so the slot Arcs may still be shared — go through the
        // locks, not `try_unwrap`.
        let mut world: Vec<std::sync::MutexGuard<'_, ShardSlot>> = slots
            .iter()
            .map(|s| s.lock().unwrap_or_else(std::sync::PoisonError::into_inner))
            .collect();
        for (w, s) in world.iter_mut().enumerate() {
            let report = s.rt.sanitize();
            tally.sanitize_runs += 1;
            assert!(
                report.is_clean(),
                "shared round {round}: shard {w} dirty after faults:\n{report}"
            );
        }
        let mismatches = world_mirror_mismatches(&space, world.iter().map(|s| &s.rt));
        assert_eq!(mismatches, 0, "shared round {round}: mirror diverged from the books");

        // Kill-restore: serialize the whole sharded world, restore it
        // (which re-runs every per-shard gate), and demand the restored
        // world re-captures byte-identically.
        let refs: Vec<&RegionRuntime<HeapShard>> = world.iter().map(|s| &s.rt).collect();
        let bytes = capture_world(&space, &refs);
        let restored = restore_world(&bytes)
            .unwrap_or_else(|e| panic!("shared round {round}: world restore failed: {e}"));
        let rrefs: Vec<&RegionRuntime<HeapShard>> = restored.runtimes.iter().collect();
        let again = capture_world(&restored.space, &rrefs);
        assert_eq!(bytes, again, "shared round {round}: sharded snapshot did not round-trip");
        tally.restores += 1;
        tally.digest = fold_words(fold(tally.digest, bytes.len() as u64), &bytes);
        tally.ops += PAR_JOBS as u64 * PAR_JOB_OPS;
    }
    tally
}

/// Region-service chaos: full adversity rounds of the long-lived
/// service engine ([`crate::run_service`]) — per-request
/// regions on one shared address space under injected allocation
/// faults (bounded deterministic retry), injected worker panics (each
/// strands a half-served request region in its session's runtime, which
/// the batch's retry reclaims while the fleet keeps serving), and
/// footprint watermarks (degrade, then shed with a typed `Overloaded`
/// error). The engine itself asserts ledger conservation, one stranded
/// and one reclaimed region per injected panic, and (with
/// `sanitize_rounds`, forced on here) a clean sanitize for every
/// session after every round; this scenario additionally runs every
/// trial at 1, 2 and 4 OS threads and asserts the encoded books — fleet
/// ledger, per-session ledgers, digest, footprint high-water,
/// stranded/reclaimed counters — are byte-identical across the thread
/// counts.
fn scenario_server(seed: u64, ops: u64) -> Tally {
    use crate::{run_service, ServiceConfig};

    let trials = (ops / 700).max(1);
    let mut tally = Tally::default();
    for trial in 0..trials {
        let mut cfg = ServiceConfig::quick(seed ^ fold(0x5E4D, trial));
        cfg.sanitize_rounds = true;
        let mut books: Option<Vec<u8>> = None;
        for threads in [1usize, 2, 4] {
            let r = run_service(&ServiceConfig { threads, ..cfg });
            assert!(r.ledger.conserves(), "trial {trial}: ledger does not conserve");
            let enc = r.encode_books();
            match &books {
                None => books = Some(enc),
                Some(b) => assert_eq!(
                    *b, enc,
                    "trial {trial}: books diverged between 1 and {threads} threads"
                ),
            }
            tally.ops += r.ledger.submitted;
            tally.alloc_faults += r.ledger.faults;
            tally.worker_panics += r.ledger.panics;
            tally.quarantined += r.quarantined;
            tally.reaped += r.reaped;
            tally.sanitize_runs += r.sanitize_runs;
        }
        // Incremental rounds: the same trial under bounded deleteregion
        // budgets (including the degenerate budget 1) must land on the
        // very same books — the budget moves deletion work in time, it
        // never changes what the work does. Faults, panics, and sheds
        // all interleave with parked deletions here, and sanitize_rounds
        // is on, so every round barrier proves parked books balance.
        for budget in [64u64, 1] {
            let r = run_service(&ServiceConfig { threads: 2, delete_budget: budget, ..cfg });
            assert_eq!(
                books.as_deref(),
                Some(r.encode_books().as_slice()),
                "trial {trial}: books diverged under delete budget {budget}"
            );
            tally.sanitize_runs += r.sanitize_runs;
        }
        // The books are schedule-independent by construction; fold every
        // word of them (shed/degraded/retry counts included) into the
        // soak digest so a re-run diff pinpoints the drifted trial.
        tally.digest = fold_words(tally.digest, &books.expect("at least one arm ran"));
    }
    tally
}


/// Asserts the floors a soak must reach. `t` is the tally of the
/// scenario `only`, or with `None` the sum ([`Tally::add`]) of a whole
/// soak's; `quick` selects the floors of a `--quick` soak.
///
/// # Panics
///
/// Panics naming the first floor `t` falls short of.
pub fn check_floors(t: &Tally, only: Option<&str>, quick: bool) {
    let ran = |name: &str| only.is_none_or(|o| o == name);
    if ran("alloc-faults") {
        assert!(t.alloc_faults > 0, "no allocation faults injected");
        assert!(t.page_faults > 0, "no page-acquisition faults injected");
    }
    if ran("sbrk-squeeze") {
        assert!(t.sbrk_faults > 0, "no sbrk faults injected");
    }
    if ran("oom") {
        assert!(t.oom > 0, "no simulated OOM hit");
    }
    if only.is_none() {
        assert!(t.faults() >= if quick { 25 } else { 100 }, "too few faults: {}", t.faults());
        assert!(t.blocked_deletes > 0, "no delete was ever blocked");
        assert!(t.double_deletes > 0, "double-delete path never exercised");
        assert!(t.ops >= if quick { 3000 } else { 12_000 });
    }
    if ran("kill-restore") {
        // A full soak replays >= 100 kill points to the control digest
        // (quick: >= 20), and the corrupt-input battery rejected
        // everything it was fed without a panic.
        let floor = if quick { 20 } else { 100 };
        assert!(t.restores >= floor, "too few kill-restore replays: {} < {floor}", t.restores);
        assert!(t.corrupt_rejected > 0, "the corrupt-input battery never ran");
    }
    if ran("par-chaos") {
        // A full soak injects >= 200 worker panics, every one contained
        // (the Panicked-marker assert in the scenario), every round
        // audit-clean with explicit reclamation.
        let floor = if quick { 40 } else { 200 };
        assert!(
            t.worker_panics >= floor,
            "too few injected worker panics: {} < {floor}",
            t.worker_panics
        );
        assert!(t.quarantined > 0, "no region was ever quarantined");
        assert!(t.reaped > 0, "the reaper never reclaimed a region");
        assert_eq!(t.quarantined, t.reaped, "every quarantined region must be reaped");
        // The shared-space phase: every round snapshots the whole sharded
        // world after the faults and round-trips it (full soak >= 20).
        let floor = if quick { 3 } else { 20 };
        assert!(
            t.restores >= floor,
            "too few sharded-world kill-restores: {} < {floor}",
            t.restores
        );
    }
    if ran("server-chaos") {
        // A full service soak absorbs >= 100 injected faults + panics
        // (quick: >= 20), every one resolved by retry, quarantine, or a
        // typed error — zero unhandled panics — with books byte-identical
        // at 1/2/4 threads (asserted in the scenario) and every
        // quarantined region reaped.
        let floor = if quick { 20 } else { 100 };
        let injected = t.alloc_faults + t.worker_panics;
        assert!(injected >= floor, "too few injected service faults/panics: {injected} < {floor}");
        assert!(t.quarantined > 0, "no service region was ever quarantined");
        assert_eq!(t.quarantined, t.reaped, "every quarantined region must be reaped");
        assert!(t.sanitize_runs > 0, "the service never sanitized a session");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every seeded shape of the recursive family must compile, run to
    /// completion without faults, and leave the runtime sanitize-clean.
    #[test]
    fn recursive_programs_compile_and_run_clean_for_many_seeds() {
        for seed in 0..32u64 {
            let mut rng = Rng::seeded(seed);
            let source = gen_recursive_program(&mut rng);
            let program = cq_lang::compile(&source)
                .unwrap_or_else(|e| panic!("seed {seed} failed to compile: {e}\n{source}"));
            let mut vm = cq_lang::Vm::new(program, region_core::SafetyMode::Safe);
            vm.run().unwrap_or_else(|t| {
                panic!("seed {seed} trapped without faults: {}\n{source}", t.message)
            });
            let report = vm.runtime_mut().sanitize();
            assert!(report.is_clean(), "seed {seed} left a dirty runtime: {report}");
        }
    }

    /// Every seeded shape of the region-typed-returns family must
    /// compile, run identically with elision off and on, and elide at
    /// least one barrier: every store in the family's helpers is a
    /// provable sameregion store, so a seed that elides nothing means
    /// the call-return transfer broke.
    #[test]
    fn return_programs_elide_and_stay_observationally_identical() {
        for seed in 0..32u64 {
            let mut rng = Rng::seeded(seed);
            let source = gen_return_program(&mut rng);
            let run = run_vm_differential(seed, &source, None, None);
            assert!(run.finished, "seed {seed} trapped without faults\n{source}");
            assert!(run.elided > 0, "seed {seed} elided nothing\n{source}");
            assert!(run.barriers_opt < run.barriers_base, "seed {seed} kept every barrier");
        }
    }

    /// The triage image must restore to *exactly* one op short of the
    /// first injected fault, and replaying the remainder from it must
    /// converge on the uninterrupted control run — the whole point of
    /// time travel is that nothing is lost by taking the shortcut.
    #[test]
    fn triage_snapshot_resumes_one_op_short_of_the_first_fault() {
        let (seed, ops) = (7, 600);
        let dir = std::env::temp_dir().join("chaos-triage-test");
        std::env::set_var("CHAOS_TRIAGE_DIR", &dir);
        let path = capture_triage("alloc-faults", seed, ops)
            .expect("the alloc-fault plan must land at least one fault");
        let bytes = std::fs::read(&path).expect("triage image must be on disk");
        let mut resumed = Soak::restore(&bytes).expect("triage image must restore");
        assert_eq!(resumed.tally.faults(), 0, "image must predate the first fault");
        let fault_op = resumed.tally.ops;
        resumed.step();
        assert!(
            resumed.tally.faults() > 0,
            "the very next op must be the one that faults"
        );
        for _ in fault_op + 1..ops {
            resumed.step();
        }
        let control = scenario_soak("alloc-faults", seed, ops);
        assert_eq!(resumed.finish(), control, "time-travel replay diverged from control");
    }

    /// The service books must be byte-identical across thread counts
    /// and carry real adversity (faults, panics, quarantines) even at
    /// the scenario's smallest scale.
    #[test]
    fn server_chaos_scenario_is_deterministic_and_adversarial() {
        crate::install_service_panic_filter();
        let a = scenario_server(11, 700);
        let b = scenario_server(11, 700);
        assert_eq!(a, b, "same-seed server-chaos runs diverged");
        assert!(a.alloc_faults > 0, "no allocation faults injected");
        assert!(a.worker_panics > 0, "no worker panics injected");
        assert_eq!(a.quarantined, a.reaped, "every quarantined region must be reaped");
        assert!(a.sanitize_runs > 0);
    }
}
