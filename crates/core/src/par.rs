//! Parallel regions — the paper's §1 sketch, implemented crash-safely.
//!
//! > "Another advantage of region-based memory management is that it can
//! > be used nearly unchanged in an explicitly-parallel programming
//! > language. The only operations that require synchronization amongst
//! > all processes are region creation and deletion. Each process keeps a
//! > local reference count for each region which counts the references
//! > created or deleted by that process. A region can be deleted if the
//! > sum of all its local reference counts is zero. Writes of references
//! > to regions must be done with an atomic exchange (rather than a
//! > simple write) to prevent incorrect behaviour in the presence of data
//! > races, however the local reference counts can be adjusted without
//! > synchronization or communication."
//!
//! [`ParRegionPool`] implements exactly that protocol for host threads:
//!
//! * a registered [`ParThread`] keeps one local count per region it has
//!   *touched*, adjusted with `Relaxed` atomics (only the owning thread
//!   writes it — the atomic exists so `try_delete` can read it);
//! * each region's row in the pool's table lists the count slots of the
//!   threads that touched it: creating a region books the creator's slot
//!   under the lock creation already takes, and a thread's first touch of
//!   another thread's region books its slot once — every later
//!   adjustment is lock-free;
//! * [`ParThread::exchange_ref`] updates a shared reference cell with an
//!   atomic swap and adjusts only the *local* counts for the old and new
//!   referents;
//! * [`ParRegionPool::try_delete`] takes the pool lock (the one global
//!   synchronization point, shared with region creation) and deletes the
//!   region iff the counts in its row, plus the orphan ledger, sum to
//!   zero — no other lock, and no thread that never touched the region.
//!
//! A local count may be negative — thread A can release a reference that
//! thread B created; only the sum is meaningful.
//!
//! # Crash safety
//!
//! The paper's sketch assumes every process lives to settle its counts: a
//! worker that dies mid-schedule strands its local counts and makes the
//! sum-to-zero test meaningless forever. This module closes that hole
//! with four mechanisms (DESIGN §12):
//!
//! * **Owned-reference accounting.** [`ParThread::acquire`] returns an
//!   RAII [`ParRef`]; the thread's slot records every handle it still
//!   holds. When a `ParThread` is dropped — *including drop during a
//!   panic unwind* — it settles the slots it touched, and only those:
//!   held handles are released (the thread owned them, they die with it)
//!   and any residual ± counts are folded into a pool-owned **orphan
//!   ledger**, so the global sum stays exactly what it was and deletion
//!   stays meaningful.
//! * **Quarantine.** [`ParRegionPool::try_delete_checked`] distinguishes
//!   a region blocked by live threads' references
//!   ([`ParRegionError::BlockedByLiveRefs`]) from one blocked by counts
//!   orphaned by dead threads ([`ParRegionError::BlockedByOrphans`]);
//!   the latter moves the region into a quarantined state — still alive,
//!   but flagged for the reaper.
//! * **Reaping.** [`ParRegionPool::reap_orphans`] reclaims quarantined
//!   regions *explicitly and with a report*, never silently: a region is
//!   reaped only when no live thread holds any count or handle on it and
//!   no registered cell publishes it, so the only residue is untracked
//!   raw counts attributable to dead threads.
//! * **Auditing.** [`ParRegionPool::audit`] is the pool's counterpart to
//!   the runtime's `sanitize()`: it recomputes every region's expected
//!   count from first principles (registered cells' current referents +
//!   RAII-held handles + the raw-retain tally) and diffs it against the
//!   incrementally maintained local counts plus the orphan ledger.
//!
//! `audit` and `reap_orphans` are supervisor-phase operations: call them
//! from a quiescent point (after workers joined or were reaped), like
//! `sanitize()`. The hot-path operations stay exactly as cheap as the
//! paper promises — `exchange_ref` is one atomic swap plus two `Relaxed`
//! RMWs on thread-owned counters.
//!
//! Lock order everywhere: `regions` → a thread's `settled` flag;
//! `cells` is only ever taken after `regions` or alone.

use std::sync::atomic::{AtomicI64, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

pub use crate::error::ParRegionError;

/// Locks a mutex, ignoring poison: every critical section here is a
/// handful of loads/stores that cannot leave the structures inconsistent.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Identifier of a region in a [`ParRegionPool`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ParRegionId(pub(crate) u32);

impl ParRegionId {
    fn index(self) -> usize {
        self.0 as usize
    }
    fn to_cell(self) -> u32 {
        self.0 + 1
    }
    fn from_cell(raw: u32) -> Option<ParRegionId> {
        raw.checked_sub(1).map(ParRegionId)
    }
}

/// A shared mutable cell holding an optional region reference, updated
/// with atomic exchange as the paper prescribes.
///
/// Cells created through [`ParRegionPool::register_cell`] are known to
/// the pool's [auditor](ParRegionPool::audit) and
/// [reaper](ParRegionPool::reap_orphans); free-standing cells work for
/// the count protocol but make the audit's recomputation blind to the
/// references they publish.
#[derive(Debug, Default)]
pub struct RefCell32 {
    raw: AtomicU32,
}

impl RefCell32 {
    /// Creates an empty (null) reference cell.
    pub fn new() -> RefCell32 {
        RefCell32::default()
    }

    /// Current referent (a racy read; counts are not affected).
    pub fn get(&self) -> Option<ParRegionId> {
        ParRegionId::from_cell(self.raw.load(Ordering::Acquire))
    }
}

/// One thread's books for one region it touched. Written only by the
/// owning thread and its [`ParRef`]s (and by the reaper at a quiescent
/// point); read under the pool lock through the region's row. The
/// counters publish no other data, so writers use `Relaxed`.
#[derive(Debug, Default)]
struct Slot {
    /// References to the region created minus released by the thread —
    /// the paper's local count.
    count: AtomicI64,
    /// Audit tally of *raw* [`ParThread::retain`]/[`ParThread::release`]
    /// calls — references the pool cannot locate (they live in program
    /// memory, not in registered cells or RAII handles).
    raw: AtomicI64,
    /// RAII [`ParRef`] handles the thread holds on the region.
    held: AtomicU64,
}

/// Lifecycle of one region.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum RegionState {
    /// Created, not deleted.
    Live,
    /// Alive, but a delete attempt found it blocked by orphaned counts;
    /// waiting for live threads to settle the sum or for the reaper.
    Quarantined,
    /// Deleted (normally or by the reaper).
    Deleted,
}

/// One region's row: its state, the slots of the live threads that
/// touched it, and its orphan ledger entries.
#[derive(Debug)]
struct RegionRow {
    state: RegionState,
    slots: Vec<Arc<Slot>>,
    /// Residual counts folded in from dead threads.
    orphan: i64,
    /// Residual *raw-tally* folded in from dead threads (audit
    /// bookkeeping only; always a sub-component of `orphan`'s history).
    orphan_raw: i64,
}

impl RegionRow {
    fn is_alive(&self) -> bool {
        matches!(self.state, RegionState::Live | RegionState::Quarantined)
    }

    /// Sum of the live threads' local counts.
    fn live_sum(&self) -> i64 {
        self.slots.iter().map(|s| s.count.load(Ordering::Acquire)).sum()
    }

    /// RAII handles held across the live threads.
    fn held(&self) -> u64 {
        self.slots.iter().map(|s| s.held.load(Ordering::Acquire)).sum()
    }
}

/// The region table, mutated under one lock so `try_delete`'s sum, a
/// first touch, and the settle of a dying thread are atomic with respect
/// to each other.
#[derive(Debug, Default)]
struct RegionTable {
    rows: Vec<RegionRow>,
    /// Registered threads not yet dropped.
    threads: u64,
}

impl RegionTable {
    fn row(&self, r: ParRegionId) -> Option<&RegionRow> {
        self.rows.get(r.index())
    }

    /// Ids of the rows satisfying `keep`, in id order.
    fn ids(&self, keep: impl Fn(&RegionRow) -> bool) -> Vec<ParRegionId> {
        (0..self.rows.len() as u32)
            .map(ParRegionId)
            .filter(|&r| keep(&self.rows[r.index()]))
            .collect()
    }
}

#[derive(Debug)]
struct PoolShared {
    regions: Mutex<RegionTable>,
    cells: Mutex<Vec<Arc<RefCell32>>>,
}

/// A pool of regions shared between threads, with per-thread local
/// reference counts (paper §1) and crash-safe settlement (DESIGN §12).
///
/// # Example
///
/// ```
/// use region_core::par::ParRegionPool;
///
/// let pool = ParRegionPool::new();
/// let mut t = pool.register_thread();
/// let r = t.create_region();
/// t.retain(r);
/// assert!(!pool.try_delete(r), "outstanding reference");
/// t.release(r);
/// assert!(pool.try_delete(r));
/// ```
///
/// A worker that panics while holding references no longer wedges the
/// pool: its [`ParThread`] settles on drop, `try_delete_checked` reports
/// the orphaned residue, and [`ParRegionPool::reap_orphans`] reclaims it
/// explicitly:
///
/// ```
/// use region_core::par::{ParRegionPool, ParRegionError};
///
/// let pool = ParRegionPool::new();
/// let mut main = pool.register_thread();
/// let r = main.create_region();
/// std::thread::spawn({
///     let pool = pool.clone();
///     move || {
///         let mut t = pool.register_thread();
///         t.retain(r); // a raw reference the panic will strand
///         panic!("worker dies mid-schedule");
///     }
/// })
/// .join()
/// .unwrap_err();
/// let e = pool.try_delete_checked(r).unwrap_err();
/// assert!(matches!(e, ParRegionError::BlockedByOrphans { .. }));
/// let report = pool.reap_orphans();
/// assert_eq!(report.reaped.len(), 1);
/// assert!(!pool.is_live(r));
/// ```
#[derive(Clone, Debug)]
pub struct ParRegionPool {
    shared: Arc<PoolShared>,
}

impl Default for ParRegionPool {
    fn default() -> ParRegionPool {
        ParRegionPool::new()
    }
}

impl ParRegionPool {
    /// Creates an empty pool.
    pub fn new() -> ParRegionPool {
        ParRegionPool {
            shared: Arc::new(PoolShared {
                regions: Mutex::new(RegionTable::default()),
                cells: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Registers the calling thread, returning its handle. Registration
    /// and each first touch of a region are the only per-thread setup
    /// costs; afterwards count adjustments are unsynchronized (`Relaxed`
    /// on thread-owned counters).
    pub fn register_thread(&self) -> ParThread {
        lock(&self.shared.regions).threads += 1;
        ParThread {
            pool: self.clone(),
            settled: Arc::new(Mutex::new(false)),
            slots: Vec::new(),
            touched: Vec::new(),
        }
    }

    /// Creates a shared reference cell the pool knows about: its current
    /// referent is included in [`audit`](ParRegionPool::audit)'s
    /// recomputation and checked by [`reap_orphans`] before a region is
    /// force-reclaimed.
    pub fn register_cell(&self) -> Arc<RefCell32> {
        let cell = Arc::new(RefCell32::new());
        lock(&self.shared.cells).push(cell.clone());
        cell
    }

    /// `true` if the region has not been deleted (a quarantined region is
    /// still alive).
    pub fn is_live(&self, r: ParRegionId) -> bool {
        lock(&self.shared.regions).row(r).is_some_and(RegionRow::is_alive)
    }

    /// `true` if a delete attempt flagged the region as blocked by
    /// orphaned counts and it has not been deleted since.
    pub fn is_quarantined(&self, r: ParRegionId) -> bool {
        lock(&self.shared.regions).row(r).is_some_and(|row| row.state == RegionState::Quarantined)
    }

    /// Every region currently alive (live or quarantined), in id order.
    pub fn live_regions(&self) -> Vec<ParRegionId> {
        lock(&self.shared.regions).ids(RegionRow::is_alive)
    }

    /// Every region currently quarantined, in id order.
    pub fn quarantined(&self) -> Vec<ParRegionId> {
        lock(&self.shared.regions).ids(|row| row.state == RegionState::Quarantined)
    }

    /// Attempts to delete a region: takes the pool lock (the paper's
    /// global synchronization for deletion) — and no other — sums the
    /// local counts in the region's row plus the orphan ledger, and
    /// deletes iff the sum is zero.
    ///
    /// On failure the typed error says *why*: blocked by live threads'
    /// references (retry once they release), or blocked by counts
    /// orphaned by dead threads — in which case the region is moved to
    /// the quarantined state for [`reap_orphans`].
    pub fn try_delete_checked(&self, r: ParRegionId) -> Result<(), ParRegionError> {
        let mut regions = lock(&self.shared.regions);
        let row = match regions.rows.get_mut(r.index()) {
            Some(row) if row.is_alive() => row,
            _ => return Err(ParRegionError::DeadOrUnknown { region: r }),
        };
        let live_sum = row.live_sum();
        let orphan_sum = row.orphan;
        if live_sum + orphan_sum == 0 {
            row.state = RegionState::Deleted;
            return Ok(());
        }
        if orphan_sum != 0 {
            row.state = RegionState::Quarantined;
            Err(ParRegionError::BlockedByOrphans { region: r, live_sum, orphan_sum })
        } else {
            Err(ParRegionError::BlockedByLiveRefs { region: r, sum: live_sum })
        }
    }

    /// [`try_delete_checked`](ParRegionPool::try_delete_checked) with the
    /// historical bool interface: `true` on deletion, `false` when
    /// blocked (by live references *or* orphans).
    ///
    /// # Panics
    ///
    /// Panics if the region was already deleted or never existed.
    pub fn try_delete(&self, r: ParRegionId) -> bool {
        match self.try_delete_checked(r) {
            Ok(()) => true,
            Err(ParRegionError::DeadOrUnknown { .. }) => {
                panic!("try_delete of dead or unknown region {r:?}")
            }
            Err(_) => false,
        }
    }

    /// Exact global reference count — the sum of every live thread's
    /// local count plus the orphan ledger, taken under the lock; for
    /// tests and diagnostics.
    pub fn global_count(&self, r: ParRegionId) -> i64 {
        lock(&self.shared.regions).row(r).map_or(0, |row| row.live_sum() + row.orphan)
    }

    /// The orphan ledger entry for a region (counts stranded by dead
    /// threads, net); diagnostics.
    pub fn orphan_count(&self, r: ParRegionId) -> i64 {
        lock(&self.shared.regions).row(r).map_or(0, |row| row.orphan)
    }

    /// Reclaims quarantined regions, explicitly and with a report.
    ///
    /// For each quarantined region:
    ///
    /// * if the global sum has settled to zero in the meantime (a live
    ///   thread released the orphaned reference), it is deleted normally
    ///   and listed in [`ReapReport::settled`];
    /// * if **no live thread** holds any count or RAII handle on it and
    ///   **no registered cell** publishes it, the orphaned residue can
    ///   only be raw counts stranded by dead threads — the region is
    ///   force-deleted, its ledger entries zeroed, and the action listed
    ///   in [`ReapReport::reaped`] (never silent: the caller sees exactly
    ///   how many counts were written off);
    /// * otherwise it stays quarantined and is listed in
    ///   [`ReapReport::still_blocked`] with the evidence.
    ///
    /// Supervisor-phase: call from a quiescent point. Reaping zeroes the
    /// per-thread counters of the reaped region, which races with an
    /// owner thread actively adjusting them — don't reap while workers
    /// are mid-schedule.
    pub fn reap_orphans(&self) -> ReapReport {
        let mut regions = lock(&self.shared.regions);
        let cells: Vec<Arc<RefCell32>> = lock(&self.shared.cells).clone();
        let mut report = ReapReport::default();
        for r in regions.ids(|row| row.state == RegionState::Quarantined) {
            let row = &mut regions.rows[r.index()];
            let live_sum = row.live_sum();
            let orphan_sum = row.orphan;
            if live_sum + orphan_sum == 0 {
                row.state = RegionState::Deleted;
                report.settled.push(r);
                continue;
            }
            let held = row.held();
            let published =
                cells.iter().filter(|c| c.get() == Some(r)).count() as u64;
            let positive_live =
                row.slots.iter().any(|s| s.count.load(Ordering::Acquire) > 0);
            if held == 0 && published == 0 && !positive_live {
                // Residue is attributable only to dead threads' raw
                // counts (their RAII handles were released at settle) and
                // live threads' negative (release-side) counts. Zero the
                // whole row so the books stay balanced post-delete.
                for s in &row.slots {
                    s.count.store(0, Ordering::Release);
                    s.raw.store(0, Ordering::Release);
                }
                row.orphan = 0;
                row.orphan_raw = 0;
                row.state = RegionState::Deleted;
                report.reaped.push(ReapedRegion { region: r, orphan_count: orphan_sum, live_residue: live_sum });
            } else {
                report.still_blocked.push(BlockedRegion {
                    region: r,
                    live_sum,
                    orphan_sum,
                    held_refs: held,
                    published_cells: published,
                });
            }
        }
        report
    }

    /// Recomputes every region's expected reference count from first
    /// principles and diffs it against the maintained local counts — the
    /// pool's counterpart to the runtime's `sanitize()`.
    ///
    /// For a live (or quarantined) region the *recomputed* count is:
    /// registered cells currently publishing it, plus RAII handles held
    /// across live threads, plus the raw-retain tally (live threads' raw
    /// ledgers + the orphaned raw residue). The *counted* value is the
    /// live threads' local counts plus the orphan ledger. Any difference
    /// is a [`ParCountMismatch`] — a lost update, a double settle, or an
    /// exchange on an unregistered cell.
    ///
    /// Deleted regions must show a zero total ([`DeadResidue`] otherwise
    /// — somebody adjusted counts after deletion), and no registered
    /// cell may publish a deleted region ([`DanglingCell`]).
    ///
    /// Supervisor-phase: run at a quiescent point; an exchange in flight
    /// between its swap and its count adjustments would be reported as a
    /// (transient) mismatch.
    pub fn audit(&self) -> ParAuditReport {
        let regions = lock(&self.shared.regions);
        let cells: Vec<Arc<RefCell32>> = lock(&self.shared.cells).clone();
        let n = regions.rows.len();
        let mut report = ParAuditReport {
            regions_audited: n as u64,
            threads_audited: regions.threads,
            cells_audited: cells.len() as u64,
            ..ParAuditReport::default()
        };

        let mut published = vec![0i64; n];
        for (ci, cell) in cells.iter().enumerate() {
            if let Some(r) = cell.get() {
                if let Some(p) = published.get_mut(r.index()) {
                    *p += 1;
                }
                if regions.row(r).is_some_and(|row| row.state == RegionState::Deleted) {
                    report.dangling_cells.push(DanglingCell { cell: ci, region: r });
                }
            }
        }

        for (i, row) in regions.rows.iter().enumerate() {
            let r = ParRegionId(i as u32);
            let counted = row.live_sum() + row.orphan;
            match row.state {
                RegionState::Deleted => {
                    if counted != 0 {
                        report.dead_residue.push(DeadResidue { region: r, residue: counted });
                    }
                }
                RegionState::Live | RegionState::Quarantined => {
                    if row.state == RegionState::Quarantined {
                        report.quarantined += 1;
                    }
                    let raw: i64 = row.slots.iter().map(|s| s.raw.load(Ordering::Acquire)).sum::<i64>()
                        + row.orphan_raw;
                    let recomputed = published[i] + row.held() as i64 + raw;
                    if recomputed != counted {
                        report.mismatches.push(ParCountMismatch { region: r, counted, recomputed });
                    }
                }
            }
        }
        report
    }
}

/// One region the reaper force-deleted, with the counts written off.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReapedRegion {
    /// The reclaimed region.
    pub region: ParRegionId,
    /// The orphan-ledger residue that was zeroed.
    pub orphan_count: i64,
    /// The (non-positive) live-thread residue that was zeroed with it.
    pub live_residue: i64,
}

/// One quarantined region the reaper refused to touch, with the evidence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockedRegion {
    /// The region left quarantined.
    pub region: ParRegionId,
    /// Sum of live threads' local counts.
    pub live_sum: i64,
    /// The orphan-ledger residue.
    pub orphan_sum: i64,
    /// RAII handles still held by live threads.
    pub held_refs: u64,
    /// Registered cells currently publishing the region.
    pub published_cells: u64,
}

/// Outcome of one [`ParRegionPool::reap_orphans`] pass.
#[derive(Clone, Debug, Default)]
pub struct ReapReport {
    /// Quarantined regions whose counts had settled to zero: deleted
    /// normally, nothing written off.
    pub settled: Vec<ParRegionId>,
    /// Regions force-deleted with orphaned counts written off.
    pub reaped: Vec<ReapedRegion>,
    /// Regions still quarantined because live state references them.
    pub still_blocked: Vec<BlockedRegion>,
}

impl ReapReport {
    /// `true` if no region remains quarantined after the pass.
    pub fn is_fully_reclaimed(&self) -> bool {
        self.still_blocked.is_empty()
    }
}

impl std::fmt::Display for ReapReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "reap: {} settled, {} reaped, {} still blocked",
            self.settled.len(),
            self.reaped.len(),
            self.still_blocked.len()
        )?;
        for r in &self.reaped {
            write!(
                f,
                "\n  reaped {:?}: wrote off orphan {} (live residue {})",
                r.region, r.orphan_count, r.live_residue
            )?;
        }
        for b in &self.still_blocked {
            write!(
                f,
                "\n  blocked {:?}: live {} orphan {} held {} published {}",
                b.region, b.live_sum, b.orphan_sum, b.held_refs, b.published_cells
            )?;
        }
        Ok(())
    }
}

/// A live region whose recomputed count disagrees with the counted one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParCountMismatch {
    /// The region concerned.
    pub region: ParRegionId,
    /// Live threads' local counts + orphan ledger (the maintained view).
    pub counted: i64,
    /// Cells + held handles + raw tally (the recomputed view).
    pub recomputed: i64,
}

/// A deleted region whose counts have drifted off zero since deletion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeadResidue {
    /// The deleted region.
    pub region: ParRegionId,
    /// The nonzero total found.
    pub residue: i64,
}

/// A registered cell publishing a reference to a deleted region.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DanglingCell {
    /// Index of the cell in registration order.
    pub cell: usize,
    /// The deleted region it points at.
    pub region: ParRegionId,
}

/// Outcome of one [`ParRegionPool::audit`] pass.
#[derive(Clone, Debug, Default)]
pub struct ParAuditReport {
    /// Region slots inspected (live, quarantined, and deleted).
    pub regions_audited: u64,
    /// Live thread ledgers inspected.
    pub threads_audited: u64,
    /// Registered cells inspected.
    pub cells_audited: u64,
    /// Regions found in the quarantined state.
    pub quarantined: u64,
    /// Live regions where the two views disagree.
    pub mismatches: Vec<ParCountMismatch>,
    /// Deleted regions with a nonzero count total.
    pub dead_residue: Vec<DeadResidue>,
    /// Registered cells pointing at deleted regions.
    pub dangling_cells: Vec<DanglingCell>,
}

impl ParAuditReport {
    /// `true` if the recomputation agrees with the counts everywhere and
    /// nothing dangles.
    pub fn is_clean(&self) -> bool {
        self.mismatches.is_empty() && self.dead_residue.is_empty() && self.dangling_cells.is_empty()
    }
}

impl std::fmt::Display for ParAuditReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "par audit: {} region(s), {} thread(s), {} cell(s), {} quarantined — ",
            self.regions_audited, self.threads_audited, self.cells_audited, self.quarantined
        )?;
        if self.is_clean() {
            return f.write_str("clean");
        }
        write!(
            f,
            "{} mismatch(es), {} dead residue(s), {} dangling cell(s)",
            self.mismatches.len(),
            self.dead_residue.len(),
            self.dangling_cells.len()
        )?;
        for m in &self.mismatches {
            write!(
                f,
                "\n  mismatch: {:?} counted {} recomputed {}",
                m.region, m.counted, m.recomputed
            )?;
        }
        for d in &self.dead_residue {
            write!(f, "\n  dead residue: {:?} total {}", d.region, d.residue)?;
        }
        for c in &self.dangling_cells {
            write!(f, "\n  dangling cell {} -> deleted {:?}", c.cell, c.region)?;
        }
        Ok(())
    }
}

/// An RAII-owned reference to a region, created by
/// [`ParThread::acquire`].
///
/// Dropping the handle releases the reference (one `Relaxed` decrement on
/// the owning thread's counter). If the owning [`ParThread`] has already
/// settled — it was dropped, possibly during a panic unwind, and released
/// every handle its slots recorded — the drop is a no-op, so a handle
/// can never double-release.
#[derive(Debug)]
pub struct ParRef {
    settled: Arc<Mutex<bool>>,
    slot: Arc<Slot>,
    region: ParRegionId,
}

impl ParRef {
    /// The region this handle keeps alive.
    pub fn region(&self) -> ParRegionId {
        self.region
    }
}

impl Drop for ParRef {
    fn drop(&mut self) {
        if *lock(&self.settled) {
            return; // the dying thread already released this handle
        }
        self.slot.held.fetch_sub(1, Ordering::Relaxed);
        self.slot.count.fetch_sub(1, Ordering::Relaxed);
    }
}

/// A thread's handle into a [`ParRegionPool`].
///
/// Dropping the handle — in an orderly return *or during a panic unwind*
/// — settles the slots the thread touched into the pool: RAII-held
/// references are released, residual ± counts are folded into the
/// orphan ledger, and the slots leave their region rows, so the
/// sum-to-zero protocol stays meaningful after a crash.
#[derive(Debug)]
pub struct ParThread {
    pool: ParRegionPool,
    /// Set under its lock when the thread settles; shared with the
    /// thread's [`ParRef`]s so a late handle drop is a no-op.
    settled: Arc<Mutex<bool>>,
    /// `slots[r]` is this thread's slot for region `r` once touched, so
    /// the hot path is one lookup and `Relaxed` RMWs.
    slots: Vec<Option<Arc<Slot>>>,
    /// The regions this thread touched, in first-touch order — all the
    /// settle walks.
    touched: Vec<ParRegionId>,
}

impl ParThread {
    /// Creates a region (global synchronization, like deletion) and
    /// books the creator's slot in its row under the same lock.
    pub fn create_region(&mut self) -> ParRegionId {
        let slot = Arc::new(Slot::default());
        let id = {
            let mut regions = lock(&self.pool.shared.regions);
            let id = ParRegionId(regions.rows.len() as u32);
            regions.rows.push(RegionRow {
                state: RegionState::Live,
                slots: vec![slot.clone()],
                orphan: 0,
                orphan_raw: 0,
            });
            id
        };
        self.remember(id, slot);
        id
    }

    /// This thread's slot for `r`. The first touch of a region the
    /// thread did not create books a fresh slot in the region's row
    /// under the pool lock; every later call is a lock-free lookup.
    fn slot(&mut self, r: ParRegionId) -> &Arc<Slot> {
        if self.slots.get(r.index()).is_none_or(Option::is_none) {
            let slot = Arc::new(Slot::default());
            lock(&self.pool.shared.regions)
                .rows
                .get_mut(r.index())
                .unwrap_or_else(|| panic!("region {r:?} unknown to this pool"))
                .slots
                .push(slot.clone());
            self.remember(r, slot);
        }
        self.slots[r.index()].as_ref().expect("just booked")
    }

    fn remember(&mut self, r: ParRegionId, slot: Arc<Slot>) {
        if self.slots.len() <= r.index() {
            self.slots.resize(r.index() + 1, None);
        }
        self.slots[r.index()] = Some(slot);
        self.touched.push(r);
    }

    /// Adjusts only the local count — shared by the tracked entry points.
    fn bump(&mut self, r: ParRegionId, delta: i64) {
        self.slot(r).count.fetch_add(delta, Ordering::Relaxed);
    }

    /// Adjusts the local count and the raw tally together.
    fn bump_raw(&mut self, r: ParRegionId, delta: i64) {
        let slot = self.slot(r);
        slot.count.fetch_add(delta, Ordering::Relaxed);
        slot.raw.fetch_add(delta, Ordering::Relaxed);
    }

    /// Records that this thread created a reference to `r` — no
    /// synchronization or communication (paper §1). The reference lives
    /// in program memory the pool cannot see; the raw tally keeps
    /// [`ParRegionPool::audit`] able to balance the books regardless.
    pub fn retain(&mut self, r: ParRegionId) {
        self.bump_raw(r, 1);
    }

    /// Records that this thread destroyed a reference to `r`. The local
    /// count may go negative if the reference was created elsewhere; only
    /// the cross-thread sum matters.
    pub fn release(&mut self, r: ParRegionId) {
        self.bump_raw(r, -1);
    }

    /// Creates an **owned** reference to `r`: the count is incremented
    /// and the handle recorded in this thread's slot, so the reference
    /// is released exactly once no matter how the thread dies.
    pub fn acquire(&mut self, r: ParRegionId) -> ParRef {
        let slot = self.slot(r).clone();
        slot.count.fetch_add(1, Ordering::Relaxed);
        slot.held.fetch_add(1, Ordering::Relaxed);
        ParRef { settled: self.settled.clone(), slot, region: r }
    }

    /// Publishes a reference into a shared cell with an **atomic
    /// exchange**, as the paper requires for racy reference writes, and
    /// adjusts this thread's local counts for the old and new referents.
    pub fn exchange_ref(&mut self, cell: &RefCell32, new: Option<ParRegionId>) {
        let new_raw = new.map_or(0, ParRegionId::to_cell);
        let old_raw = cell.raw.swap(new_raw, Ordering::AcqRel);
        if let Some(n) = new {
            self.bump(n, 1);
        }
        if let Some(o) = ParRegionId::from_cell(old_raw) {
            self.bump(o, -1);
        }
    }
}

impl Drop for ParThread {
    fn drop(&mut self) {
        // Settle, touching only the rows of regions this thread touched.
        let mut regions = lock(&self.pool.shared.regions);
        *lock(&self.settled) = true;
        for r in &self.touched {
            let slot = self.slots[r.index()].as_ref().expect("touched regions are cached");
            let row = &mut regions.rows[r.index()];
            // Release every RAII handle the slot still records: the
            // thread owned them, they die with it. (Handles already
            // dropped removed themselves; handles leaked or still alive
            // during an unwind are exactly what this pass catches.) Then
            // fold the residual counts into the pool-owned orphan ledger
            // so the global sum is unchanged by the thread's death.
            let held = slot.held.swap(0, Ordering::Acquire) as i64;
            row.orphan += slot.count.swap(0, Ordering::Acquire) - held;
            row.orphan_raw += slot.raw.swap(0, Ordering::Acquire);
            row.slots.retain(|s| !Arc::ptr_eq(s, slot));
        }
        regions.threads -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_thread_protocol() {
        let pool = ParRegionPool::new();
        let mut t = pool.register_thread();
        let r = t.create_region();
        assert!(pool.is_live(r));
        t.retain(r);
        t.retain(r);
        assert_eq!(pool.global_count(r), 2);
        assert!(!pool.try_delete(r));
        t.release(r);
        t.release(r);
        assert!(pool.try_delete(r));
        assert!(!pool.is_live(r));
    }

    #[test]
    fn counts_balance_across_threads() {
        // Thread A creates a reference, thread B destroys it: A's count is
        // +1, B's is -1, the sum is 0 and deletion succeeds.
        let pool = ParRegionPool::new();
        let mut a = pool.register_thread();
        let mut b = pool.register_thread();
        let r = a.create_region();
        a.retain(r);
        assert!(!pool.try_delete(r));
        b.release(r);
        assert_eq!(pool.global_count(r), 0);
        assert!(pool.try_delete(r));
    }

    #[test]
    fn exchange_ref_moves_counts() {
        let pool = ParRegionPool::new();
        let mut t = pool.register_thread();
        let r1 = t.create_region();
        let r2 = t.create_region();
        let cell = RefCell32::new();
        t.exchange_ref(&cell, Some(r1));
        assert_eq!(cell.get(), Some(r1));
        assert_eq!(pool.global_count(r1), 1);
        t.exchange_ref(&cell, Some(r2));
        assert_eq!((pool.global_count(r1), pool.global_count(r2)), (0, 1));
        t.exchange_ref(&cell, None);
        assert!(cell.get().is_none());
        assert!(pool.try_delete(r1));
        assert!(pool.try_delete(r2));
    }

    #[test]
    #[should_panic(expected = "dead or unknown region")]
    fn double_delete_panics() {
        let pool = ParRegionPool::new();
        let mut t = pool.register_thread();
        let r = t.create_region();
        assert!(pool.try_delete(r));
        pool.try_delete(r);
    }

    #[test]
    fn concurrent_exchange_never_loses_counts() {
        // N threads hammer one shared cell with atomic exchanges; when the
        // dust settles the only outstanding reference is whatever the cell
        // holds. Clearing it makes every region deletable.
        const THREADS: usize = 4;
        const ITERS: usize = 2000;
        let pool = ParRegionPool::new();
        let mut main = pool.register_thread();
        let regions: Vec<_> = (0..THREADS).map(|_| main.create_region()).collect();
        let cell = RefCell32::new();
        std::thread::scope(|s| {
            for i in 0..THREADS {
                let pool = pool.clone();
                let regions = regions.clone();
                let cell = &cell;
                s.spawn(move || {
                    let mut t = pool.register_thread();
                    for k in 0..ITERS {
                        t.exchange_ref(cell, Some(regions[(i + k) % THREADS]));
                    }
                });
            }
        });
        let held = cell.get().expect("cell ends non-null");
        // All regions except the held one must be deletable. (The worker
        // threads have settled into the orphan ledger by now; the sums
        // must be unchanged by their deaths.)
        for &r in &regions {
            if r != held {
                assert!(pool.try_delete(r), "region {r:?} had leftover counts");
            } else {
                assert!(!pool.try_delete(r), "held region must not be deletable");
            }
        }
        main.exchange_ref(&cell, None);
        assert!(pool.try_delete(held));
    }

    #[test]
    fn pool_survives_a_poisoned_lock() {
        // A worker that panics inside pool code must degrade its own jobs,
        // not the whole pool (chaos-harness invariant): the poison-ignoring
        // `lock` helper keeps the pool fully usable for every other worker.
        let pool = ParRegionPool::new();
        let mut t = pool.register_thread();
        let r = t.create_region();
        t.retain(r);
        let poisoner = pool.clone();
        let panicked = std::thread::spawn(move || {
            poisoner.try_delete(ParRegionId(999)); // panics: unknown region
        })
        .join();
        assert!(panicked.is_err(), "expected the bad delete to panic");
        // The surviving worker sees consistent state and full function.
        assert!(pool.is_live(r));
        assert_eq!(pool.global_count(r), 1);
        assert!(!pool.try_delete(r));
        let r2 = t.create_region();
        t.release(r);
        assert!(pool.try_delete(r));
        assert!(pool.try_delete(r2));
    }

    #[test]
    fn late_registered_thread_sees_preexisting_regions() {
        // Regression: a ParThread registered *after* regions exist books
        // its count slots lazily on first touch; retain/release and
        // exchange against pre-existing regions must balance exactly.
        let pool = ParRegionPool::new();
        let mut early = pool.register_thread();
        let r0 = early.create_region();
        let r1 = early.create_region();
        let r2 = early.create_region();
        early.retain(r2);

        let mut late = pool.register_thread();
        // Release a reference the early thread created: late's slot for
        // r2 is booked on demand and goes negative.
        late.release(r2);
        assert_eq!(pool.global_count(r2), 0);
        assert!(pool.try_delete(r2));

        // Retain/release cycles on the oldest region (slot 0) from the
        // late thread.
        late.retain(r0);
        assert_eq!(pool.global_count(r0), 1);
        assert!(!pool.try_delete(r0));
        late.release(r0);
        assert!(pool.try_delete(r0));

        // Exchange against a pre-existing region, via a registered cell
        // so the audit can balance the books.
        let cell = pool.register_cell();
        late.exchange_ref(&cell, Some(r1));
        assert_eq!(pool.global_count(r1), 1);
        let audit = pool.audit();
        assert!(audit.is_clean(), "{audit}");
        late.exchange_ref(&cell, None);
        assert!(pool.try_delete(r1));
        assert!(pool.audit().is_clean());
    }

    /// Slots booked across every region row.
    fn booked_slots(pool: &ParRegionPool) -> usize {
        lock(&pool.shared.regions).rows.iter().map(|row| row.slots.len()).sum()
    }

    #[test]
    fn settle_walks_only_the_regions_a_thread_touched() {
        // A long-lived thread leaves 10,000 regions behind; a thread that
        // then creates, deletes and drops one region books and settles
        // exactly one slot, however many regions the pool has seen.
        let pool = ParRegionPool::new();
        let mut a = pool.register_thread();
        for _ in 0..10_000 {
            let r = a.create_region();
            assert!(pool.try_delete(r));
        }
        assert_eq!(booked_slots(&pool), 10_000);
        let mut b = pool.register_thread();
        let r = b.create_region();
        assert!(pool.try_delete(r));
        assert_eq!(b.touched.len(), 1, "b touched only its own region");
        assert_eq!(booked_slots(&pool), 10_001);
        drop(b);
        assert_eq!(booked_slots(&pool), 10_000, "b settled exactly its one slot");
        let audit = pool.audit();
        assert!(audit.is_clean(), "{audit}");
        assert_eq!((audit.regions_audited, audit.threads_audited), (10_001, 1));
    }

    #[test]
    fn par_ref_raii_releases_once() {
        let pool = ParRegionPool::new();
        let mut t = pool.register_thread();
        let r = t.create_region();
        let h1 = t.acquire(r);
        let h2 = t.acquire(r);
        assert_eq!(h1.region(), r);
        assert_eq!(pool.global_count(r), 2);
        assert!(!pool.try_delete(r));
        drop(h1);
        assert_eq!(pool.global_count(r), 1);
        drop(h2);
        assert!(pool.try_delete(r));
        assert!(pool.audit().is_clean());
    }

    #[test]
    fn thread_drop_settles_held_refs_and_orphans() {
        let pool = ParRegionPool::new();
        let mut main = pool.register_thread();
        let r_held = main.create_region();
        let r_raw = main.create_region();
        std::thread::spawn({
            let pool = pool.clone();
            move || {
                let mut t = pool.register_thread();
                let h = t.acquire(r_held);
                std::mem::forget(h); // leaked handle: only the settle can release it
                t.retain(r_raw); // raw reference the panic strands
                panic!("worker dies");
            }
        })
        .join()
        .unwrap_err();
        // The leaked RAII handle was released by the settle...
        assert_eq!(pool.global_count(r_held), 0);
        assert!(pool.try_delete(r_held));
        // ...while the raw retain became an orphan count.
        assert_eq!(pool.global_count(r_raw), 1);
        assert_eq!(pool.orphan_count(r_raw), 1);
        let e = pool.try_delete_checked(r_raw).unwrap_err();
        assert!(matches!(e, ParRegionError::BlockedByOrphans { orphan_sum: 1, .. }), "{e}");
        assert!(pool.is_quarantined(r_raw));
        assert!(pool.is_live(r_raw), "quarantined is still alive");
        // The audit balances: the raw tally explains the orphan count.
        let audit = pool.audit();
        assert!(audit.is_clean(), "{audit}");
        assert_eq!(audit.quarantined, 1);
        // The reaper reclaims it, explicitly.
        let report = pool.reap_orphans();
        assert_eq!(report.reaped.len(), 1);
        assert_eq!(report.reaped[0].orphan_count, 1);
        assert!(report.is_fully_reclaimed());
        assert!(!pool.is_live(r_raw));
        assert!(pool.audit().is_clean());
    }

    #[test]
    fn live_blocked_and_orphan_blocked_are_distinguished() {
        let pool = ParRegionPool::new();
        let mut t = pool.register_thread();
        let r = t.create_region();
        t.retain(r);
        let e = pool.try_delete_checked(r).unwrap_err();
        assert!(matches!(e, ParRegionError::BlockedByLiveRefs { sum: 1, .. }), "{e}");
        assert!(!pool.is_quarantined(r), "live-blocked must not quarantine");
        t.release(r);
        assert!(pool.try_delete_checked(r).is_ok());
    }

    #[test]
    fn reaper_refuses_published_and_held_regions() {
        let pool = ParRegionPool::new();
        let cell = pool.register_cell();
        let mut main = pool.register_thread();
        let r = main.create_region();
        // A dead worker leaves an orphan count AND a published reference.
        std::thread::spawn({
            let pool = pool.clone();
            let cell = cell.clone();
            move || {
                let mut t = pool.register_thread();
                t.retain(r); // stranded raw count
                t.exchange_ref(&cell, Some(r)); // published, still standing
                panic!("worker dies");
            }
        })
        .join()
        .unwrap_err();
        assert_eq!(pool.global_count(r), 2);
        assert!(matches!(
            pool.try_delete_checked(r),
            Err(ParRegionError::BlockedByOrphans { .. })
        ));
        // Still published: the reaper must refuse.
        let report = pool.reap_orphans();
        assert_eq!(report.reaped.len(), 0);
        assert_eq!(report.still_blocked.len(), 1);
        assert_eq!(report.still_blocked[0].published_cells, 1);
        assert!(pool.is_live(r));
        // Clear the cell; the raw residue alone is reapable.
        main.exchange_ref(&cell, None);
        let report = pool.reap_orphans();
        assert_eq!(report.reaped.len(), 1);
        assert_eq!(report.reaped[0].orphan_count, 2);
        assert_eq!(report.reaped[0].live_residue, -1);
        assert!(!pool.is_live(r));
        let audit = pool.audit();
        assert!(audit.is_clean(), "{audit}");
    }

    #[test]
    fn quarantined_region_settles_when_counts_balance() {
        let pool = ParRegionPool::new();
        let mut main = pool.register_thread();
        let r = main.create_region();
        std::thread::spawn({
            let pool = pool.clone();
            move || {
                let mut t = pool.register_thread();
                t.retain(r);
                panic!("worker dies");
            }
        })
        .join()
        .unwrap_err();
        assert!(matches!(
            pool.try_delete_checked(r),
            Err(ParRegionError::BlockedByOrphans { .. })
        ));
        assert!(pool.is_quarantined(r));
        // A live thread releases the stranded reference (it found and
        // destroyed the dead worker's pointer): the sum settles and the
        // region deletes normally — listed as settled, nothing written off.
        main.release(r);
        let report = pool.reap_orphans();
        assert_eq!(report.settled, vec![r]);
        assert!(report.reaped.is_empty());
        assert!(!pool.is_live(r));
    }

    #[test]
    fn audit_detects_unbalanced_books() {
        // An exchange through an *unregistered* cell hides a published
        // reference from the auditor — exactly the imbalance audit() is
        // built to flag.
        let pool = ParRegionPool::new();
        let mut t = pool.register_thread();
        let r = t.create_region();
        let hidden = RefCell32::new();
        t.exchange_ref(&hidden, Some(r));
        let audit = pool.audit();
        assert!(!audit.is_clean());
        assert_eq!(audit.mismatches.len(), 1);
        assert_eq!(audit.mismatches[0].counted, 1);
        assert_eq!(audit.mismatches[0].recomputed, 0);
        // Through a registered cell the books balance.
        t.exchange_ref(&hidden, None);
        let cell = pool.register_cell();
        t.exchange_ref(&cell, Some(r));
        let audit = pool.audit();
        assert!(audit.is_clean(), "{audit}");
    }
}
