//! The region runtime: pages, allocation, reference counts, deletion.
//!
//! This is the library of §4.1–4.2 of the paper. A region is a list of 4 KB
//! pages with two bump allocators — `normal` for objects that may contain
//! region pointers and `string` for pointer-free data — plus a reference
//! count. A page map records which region owns each page, so `regionof` is
//! a single lookup. Deleting a region releases all its pages at once, after
//! scanning the stack (deferred local counts, §4.2.1/4.2.3) and walking the
//! region's own objects to release the counts they hold on other regions
//! (§4.2.4).

use std::collections::BTreeSet;

use simheap::{align_up, Addr, HeapBackend, HeapConfig, HeapImage, SimHeap, PAGE_SIZE, WORD};

use crate::costs::{
    SafetyCosts, ScanAttribution, CLEANUP_OBJECT_INSTRS, CLEANUP_PTR_INSTRS, ELIDED_WRITE_INSTRS,
    GLOBAL_WRITE_INSTRS, REGION_WRITE_INSTRS, UNKNOWN_WRITE_INSTRS,
};
use crate::descriptor::{DescId, DescriptorTable, TypeDescriptor};
use crate::error::RegionError;
use crate::fault::{FaultPlan, FaultSite};
use crate::sanitize::{MirrorMismatch, RcMismatch, RcViolation, SanitizeReport};
use crate::snapshot::{SnapReader, SnapWriter, SnapshotError, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
use crate::stats::AllocStats;

/// Whether the runtime maintains reference counts.
///
/// The paper's unsafe library is "identical to the safe version, except
/// that all support for maintaining reference counts is disabled" (§4):
/// no object headers, no write barriers, no stack scans, no cleanup, and
/// `deleteregion` always succeeds.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SafetyMode {
    /// Maintain region reference counts; deletion fails while external
    /// references exist.
    #[default]
    Safe,
    /// No reference counting; deletion always succeeds (the programmer is
    /// trusted, as in Hanson's arenas).
    Unsafe,
}

/// Configuration for a [`RegionRuntime`].
#[derive(Clone, Copy, Debug)]
pub struct RegionConfig {
    /// Safe or unsafe operation.
    pub mode: SafetyMode,
    /// Stagger successive regions' first allocations by 64 bytes (the L2
    /// line size), up to 512 bytes, "to reduce cache conflicts between
    /// region structures" (§4.1). Disable for the ablation benchmark.
    pub stagger: bool,
    /// Clear memory returned by `ralloc`/`rarrayalloc` (§3.2). Required for
    /// safety; disable only to measure its cost in unsafe mode.
    pub clear_on_alloc: bool,
    /// Pages reserved for the region-pointer shadow stack.
    pub stack_pages: u32,
    /// Underlying simulated-heap configuration.
    pub heap: HeapConfig,
}

impl Default for RegionConfig {
    fn default() -> RegionConfig {
        RegionConfig {
            mode: SafetyMode::Safe,
            stagger: true,
            clear_on_alloc: true,
            stack_pages: 256,
            heap: HeapConfig::default(),
        }
    }
}

/// Identifier of a region. Ids are never reused within one runtime.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct RegionId(pub(crate) u32);

impl RegionId {
    /// Raw index of the region (diagnostics only).
    pub fn index(self) -> u32 {
        self.0
    }

    /// Reconstructs a `RegionId` from [`RegionId::index`]. Intended for
    /// hosts (like the C@ VM) that round-trip handles through untyped
    /// storage; passing an index never issued by the same runtime panics
    /// on first use.
    pub fn from_index(index: u32) -> RegionId {
        RegionId(index)
    }
}

/// One bump allocator: a list of pages with allocation on the last page.
#[derive(Debug, Default, Clone)]
struct BumpState {
    /// Pages owned by this allocator with the offset of the first object
    /// on each (the first page of a region may be staggered).
    pages: Vec<(Addr, u32)>,
    /// Offset at which to allocate on the last page (`PAGE_SIZE` = full).
    alloc_from: u32,
}

impl BumpState {
    fn current_page(&self) -> Option<Addr> {
        self.pages.last().map(|&(p, _)| p)
    }
}

/// Liveness of a region slot. Historically a boolean; incremental
/// deletion adds the middle state: a *parked* region has passed the
/// zero-reference proof (or skipped it, mid-scan) but still holds pages
/// while its deletion is resumed one budgeted increment at a time. The
/// parked state carries the resumable work itself, so a deletion in
/// progress is booked in one place.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Liveness {
    Live,
    /// Deletion in progress, to be resumed from this phase. Only in the
    /// stack-scan phase is the region's own count still maintained
    /// exactly (a scanned local may yet block the delete); from cleanup
    /// onward any count traffic on the region is a misuse.
    Parked(DeletePhase),
    Dead,
}

#[derive(Debug)]
struct RegionInfo {
    rc: i64,
    liveness: Liveness,
    normal: BumpState,
    string: BumpState,
    /// Requested bytes (rounded to four) allocated in this region.
    bytes: u64,
    /// Number of allocations in this region.
    allocs: u64,
}

impl RegionInfo {
    /// The region's normal pages followed by its string pages, from
    /// index `from` on: during page return, the pages it still holds.
    fn pages_from(&self, from: u32) -> impl DoubleEndedIterator<Item = Addr> + Clone + '_ {
        let skip = (from as usize).min(self.normal.pages.len());
        let rest = &self.string.pages[(from as usize - skip).min(self.string.pages.len())..];
        self.normal.pages[skip..].iter().chain(rest).map(|&(p, _)| p)
    }
}

/// Progress of one incremental deletion step
/// ([`RegionRuntime::try_delete_region_step`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DeleteProgress {
    /// The region is fully deleted; its pages are back in the pool.
    Done,
    /// The budget ran out mid-phase; the region is parked and the next
    /// step resumes exactly where this one stopped.
    Parked,
}

/// The phase split of an incremental `deleteregion`: bring the doomed
/// region's count up to date (stack scan), release the counts its
/// objects hold on other regions (the Figure 7 walk, resumable at any
/// object), then return pages. The two later phases hold only an index
/// into the region's own page lists, so parking a deletion copies
/// nothing. A parked region's phase is serialized into `RSNP`
/// snapshots after its liveness byte, so a kill-and-restore
/// mid-deletion replays the remaining increments exactly.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum DeletePhase {
    /// Scanning unscanned stack frames, one frame per work unit. The
    /// `attempt_*` totals track the scan work done by *this* delete
    /// attempt so a refusal can be attributed
    /// ([`crate::ScanAttribution`]).
    ScanStack { attempt_frames: u64, attempt_slots: u64 },
    /// The cleanup walk, at normal page `page` (an index into the
    /// normal allocator's list; the pages before it are done), whose
    /// next unprocessed object header is at offset `cursor` (at most
    /// the page's first object offset: the walk starts there).
    Cleanup { page: u32, cursor: u32 },
    /// Returning pages to the pool: `page` indexes the normal pages
    /// followed by the string pages, and every page before it has been
    /// returned.
    ReturnPages { page: u32 },
}

/// A stack frame of region-pointer locals (see `stack.rs`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Frame {
    pub(crate) base_slot: u32,
    pub(crate) n_slots: u32,
}

/// What `regionof` learns about one address: its page-map cell (the
/// owner's index plus one, 0 = no owner) and the simulated loads reading
/// that cell costs (0 for null or a page whose map chunk does not exist).
#[derive(Clone, Copy)]
struct PageClass {
    cell: u32,
    loads: u64,
}

impl PageClass {
    const NONE: PageClass = PageClass { cell: 0, loads: 0 };

    #[inline]
    fn region(self) -> Option<RegionId> {
        self.cell.checked_sub(1).map(RegionId)
    }
}

/// Host-side mirror of the in-heap page map, indexed by page number
/// (same `owner + 1` encoding, 0 = no owner). The in-heap map stays
/// authoritative — the paper charges footprint for it and traced runs
/// read it — but untraced `region_of` answers from the mirror with one
/// charged load instead of a simulated chunk walk.
///
/// `cells` is host capacity that a reset keeps, zeroed, at its old
/// length; `len` is the length a fresh runtime's mirror would have (one
/// past the highest page ever written), and the only one observable:
/// snapshots write `cells[..len]`. Every cell at or past `len` is zero.
#[derive(Debug)]
struct PageMirror {
    cells: Vec<u32>,
    len: usize,
    /// Lowest cell written since the last clear: cells below it are zero.
    lo: usize,
}

impl PageMirror {
    /// A mirror holding exactly `cells` (snapshot restore).
    fn from_cells(cells: Vec<u32>) -> PageMirror {
        let lo = cells.iter().position(|&c| c != 0).unwrap_or(usize::MAX);
        PageMirror { len: cells.len(), lo, cells }
    }

    /// The cell of `page_index` (0 past the end).
    #[inline]
    fn get(&self, page_index: u32) -> u32 {
        self.cells.get(page_index as usize).copied().unwrap_or(0)
    }

    fn set(&mut self, page_index: u32, cell: u32) {
        let i = page_index as usize;
        if self.cells.len() <= i {
            self.cells.resize(i + 1, 0);
        }
        self.cells[i] = cell;
        self.len = self.len.max(i + 1);
        self.lo = self.lo.min(i);
    }

    /// The cells a fresh runtime's mirror would hold.
    fn entries(&self) -> &[u32] {
        &self.cells[..self.len]
    }

    /// Back to a fresh runtime's empty mirror, keeping the zeroed cells.
    fn clear(&mut self) {
        if self.lo < self.len {
            self.cells[self.lo..self.len].fill(0);
        }
        self.len = 0;
        self.lo = usize::MAX;
    }
}

const ARRAY_FLAG: u32 = 0x8000_0000;
/// Pages of address space covered by one page-map chunk.
const CHUNK_COVER: u32 = 1024;

/// The region-based memory management runtime of Gay & Aiken.
///
/// # Example
///
/// The paper's Figure 1, in this API:
///
/// ```
/// use region_core::{RegionRuntime, TypeDescriptor};
///
/// let mut rt = RegionRuntime::new_safe();
/// let r = rt.new_region();
/// for i in 0..10u32 {
///     let x = rt.rstralloc(r, (i + 1) * 4); // int arrays: no region pointers
///     rt.heap_mut().store_u32(x, i);
/// }
/// assert!(rt.delete_region(r)); // frees all ten arrays at once
/// ```
///
/// The runtime is generic over its backing store: `H` is a private
/// [`SimHeap`] by default (every historical call site compiles and
/// behaves unchanged), or a [`simheap::HeapShard`] when several
/// runtimes — one per worker — share one sharded address space. All
/// region bookkeeping (page map, mirror, counters, sanitizer) is
/// per-runtime either way; the only sharded addition is that page-map
/// writes are also announced through
/// [`HeapBackend::publish_page_owner`] so the space-wide mirror stays
/// current.
pub struct RegionRuntime<H: HeapBackend = SimHeap> {
    heap: H,
    config: RegionConfig,
    descs: DescriptorTable,
    regions: Vec<RegionInfo>,
    /// Emptied page-list buffers of dead regions, which new regions
    /// take their lists from, so creating and deleting regions
    /// allocates no host memory in steady state. Host capacity only:
    /// not serialized, empty in a restored runtime.
    spare_lists: Vec<Vec<(Addr, u32)>>,
    free_pages: Vec<Addr>,
    /// Root of the two-level page map; each chunk page covers
    /// [`CHUNK_COVER`] heap pages.
    map_root: Vec<Option<Addr>>,
    map_mirror: PageMirror,
    stats: AllocStats,
    costs: SafetyCosts,
    // --- shadow stack of region-pointer locals ---
    pub(crate) stack_base: Addr,
    pub(crate) stack_slots: u32,
    pub(crate) frames: Vec<Frame>,
    pub(crate) top_slot: u32,
    /// Frames `[0, hwm)` are scanned (their slots are reflected in region
    /// reference counts).
    pub(crate) hwm: usize,
    // --- OS-footprint accounting ---
    data_pages: u64,
    map_pages: u64,
    globals_pages: u64,
    // --- robustness ---
    /// Injected-failure schedule (empty by default: no faults).
    faults: FaultPlan,
    /// Reference-count misuses recorded instead of aborting; surfaced by
    /// [`RegionRuntime::sanitize`].
    violations: Vec<RcViolation>,
    /// Every global-storage location that ever held a region pointer
    /// (host-side bookkeeping; lets the sanitizer recompute the global
    /// contribution to reference counts exactly).
    global_ptr_locs: BTreeSet<u32>,
    // --- incremental deletion ---
    /// Work units one [`RegionRuntime::try_delete_region_step`] may spend
    /// before parking (`u64::MAX` = unbounded: every deletion finishes in
    /// one increment). One unit ≈ one frame scanned, one object's counts
    /// released, or one page returned. Host-side tuning state: not
    /// serialized, restored runtimes default to unbounded.
    delete_budget: u64,
    /// Refused-scan attribution ([`ScanAttribution`]); host-side
    /// diagnostics, not serialized.
    scan_attr: ScanAttribution,
}

impl<H: HeapBackend> std::fmt::Debug for RegionRuntime<H> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RegionRuntime")
            .field("mode", &self.config.mode)
            .field("regions", &self.regions.len())
            .field("live_regions", &self.stats.live_regions)
            .field("frames", &self.frames.len())
            .finish()
    }
}

impl RegionRuntime {
    /// Creates a runtime in [`SafetyMode::Safe`] with default configuration.
    pub fn new_safe() -> RegionRuntime {
        RegionRuntime::with_config(RegionConfig::default())
    }

    /// Creates a runtime in [`SafetyMode::Unsafe`] with default
    /// configuration.
    pub fn new_unsafe() -> RegionRuntime {
        RegionRuntime::with_config(RegionConfig { mode: SafetyMode::Unsafe, ..RegionConfig::default() })
    }

    /// Creates a runtime with the given configuration.
    pub fn with_config(config: RegionConfig) -> RegionRuntime {
        RegionRuntime::with_config_on(config, SimHeap::with_config(config.heap))
    }
}

impl<H: HeapBackend> RegionRuntime<H> {
    /// Creates a runtime with the given configuration on a recycled heap
    /// (warm per-worker reuse): an empty runtime, then
    /// [`RegionRuntime::reset`], so every address the runtime hands out
    /// replays exactly as on a brand-new heap; only the host allocation
    /// backing the heap is reused.
    pub fn with_config_on(config: RegionConfig, heap: H) -> RegionRuntime<H> {
        let mut rt = RegionRuntime {
            heap,
            config,
            descs: DescriptorTable::new(),
            regions: Vec::new(),
            spare_lists: Vec::new(),
            free_pages: Vec::new(),
            map_root: Vec::new(),
            map_mirror: PageMirror::from_cells(Vec::new()),
            stats: AllocStats::default(),
            costs: SafetyCosts::default(),
            stack_base: Addr::NULL,
            stack_slots: 0,
            frames: Vec::new(),
            top_slot: 0,
            hwm: 0,
            data_pages: 0,
            map_pages: 0,
            globals_pages: 0,
            faults: FaultPlan::new(),
            violations: Vec::new(),
            global_ptr_locs: BTreeSet::new(),
            delete_budget: u64::MAX,
            scan_attr: ScanAttribution::default(),
        };
        rt.reset(config);
        rt
    }

    /// Returns the runtime to the state of a fresh
    /// `with_config_on(config, heap)` on its own heap: the heap is reset
    /// (see [`HeapBackend::reset_with`]), every region, descriptor,
    /// frame, counter, fault plan and the delete budget start over, and
    /// a snapshot captured now is byte-identical to a fresh runtime's.
    /// The host capacity stays: the region table, the page-map root and
    /// mirror (zeroed), the page pool, the frames, and the page lists of
    /// every region, which go to the spare lists new regions take from.
    /// So a reused runtime replays a fresh one's run without growing
    /// any of them again.
    pub fn reset(&mut self, config: RegionConfig) {
        // Destructured so that a new field cannot be left out.
        let RegionRuntime {
            heap,
            config: own_config,
            descs,
            regions,
            spare_lists,
            free_pages,
            map_root,
            map_mirror,
            stats,
            costs,
            stack_base,
            stack_slots,
            frames,
            top_slot,
            hwm,
            data_pages,
            map_pages,
            globals_pages,
            faults,
            violations,
            global_ptr_locs,
            delete_budget,
            scan_attr,
        } = self;
        heap.reset_with(config.heap);
        *stack_base = heap.sbrk_pages(config.stack_pages);
        *stack_slots = config.stack_pages * (PAGE_SIZE / WORD);
        *own_config = config;
        *descs = DescriptorTable::new();
        for info in regions.drain(..) {
            // A dead region's buffers are already spares; its lists are
            // empty `Vec::new()`s that would only crowd them out.
            for mut pages in [info.string.pages, info.normal.pages] {
                if pages.capacity() > 0 {
                    pages.clear();
                    spare_lists.push(pages);
                }
            }
        }
        free_pages.clear();
        map_root.clear();
        map_mirror.clear();
        *stats = AllocStats::default();
        *costs = SafetyCosts::default();
        frames.clear();
        *top_slot = 0;
        *hwm = 0;
        *data_pages = 0;
        *map_pages = 0;
        *globals_pages = 0;
        *faults = FaultPlan::new();
        violations.clear();
        global_ptr_locs.clear();
        *delete_budget = u64::MAX;
        *scan_attr = ScanAttribution::default();
    }

    /// Installs a fault-injection schedule. The plan's sbrk byte budget
    /// (if any) is threaded into the underlying heap; page-acquisition
    /// and allocation faults are checked by the `try_*` entry points
    /// before any state changes.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.heap.set_sbrk_fault_after(plan.sbrk_after());
        self.faults = plan;
    }

    /// The installed fault-injection schedule (a no-op plan by default).
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.faults
    }

    /// Removes any installed fault-injection schedule.
    pub fn clear_fault_plan(&mut self) {
        self.heap.set_sbrk_fault_after(None);
        self.faults = FaultPlan::new();
    }

    /// Reference-count misuses recorded since creation (e.g. `dec_rc` of a
    /// deleted region). Always empty in correct executions; also included
    /// in every [`RegionRuntime::sanitize`] report.
    pub fn violations(&self) -> &[RcViolation] {
        &self.violations
    }

    /// The runtime's configuration.
    pub fn config(&self) -> &RegionConfig {
        &self.config
    }

    /// `true` if the runtime maintains reference counts.
    pub fn is_safe(&self) -> bool {
        self.config.mode == SafetyMode::Safe
    }

    /// Read access to the underlying simulated heap.
    pub fn heap(&self) -> &H {
        &self.heap
    }

    /// Mutable access to the underlying simulated heap (for loads/stores of
    /// non-pointer data; pointer stores must go through the
    /// `store_ptr_*` barriers in safe mode).
    pub fn heap_mut(&mut self) -> &mut H {
        &mut self.heap
    }

    /// Consumes the runtime and returns its heap (e.g. to detach an
    /// attached cache-simulator sink after a run).
    pub fn into_heap(self) -> H {
        self.heap
    }

    /// Registers a type descriptor (the compiler-generated cleanup
    /// function) and returns its id.
    pub fn register_type(&mut self, desc: TypeDescriptor) -> DescId {
        self.descs.register(desc)
    }

    /// The descriptor table.
    pub fn descriptors(&self) -> &DescriptorTable {
        &self.descs
    }

    /// Allocation statistics (paper Table 2).
    pub fn stats(&self) -> &AllocStats {
        &self.stats
    }

    /// Safety-cost counters (paper Figure 11).
    pub fn costs(&self) -> &SafetyCosts {
        &self.costs
    }

    pub(crate) fn costs_mut(&mut self) -> &mut SafetyCosts {
        &mut self.costs
    }

    /// Pages of region data obtained from the OS (never returned; freed
    /// pages are recycled through the runtime's pool).
    pub fn data_pages(&self) -> u64 {
        self.data_pages
    }

    /// Pages used by the page map.
    pub fn map_pages(&self) -> u64 {
        self.map_pages
    }

    /// Bytes of OS memory attributable to the allocator (data + page map),
    /// the "OS" bar of the paper's Figure 8.
    ///
    /// Deliberately excludes [`RegionRuntime::host_mirror_bytes`]: the
    /// host-side page-map mirror is a simulator acceleration whose
    /// simulated cost is already paid by the in-heap map (`map_pages`),
    /// so charging the mirror would double-count the paper's page-map
    /// overhead. See DESIGN "Footprint accounting".
    pub fn os_heap_bytes(&self) -> u64 {
        (self.data_pages + self.map_pages) * u64::from(PAGE_SIZE)
    }

    /// Host memory held by the page-map mirror (the untraced `regionof`
    /// accelerator). Exposed so tests can assert it is *never* part of a
    /// footprint figure: the mirror is host bookkeeping, not simulated
    /// memory.
    pub fn host_mirror_bytes(&self) -> u64 {
        (self.map_mirror.cells.len() * std::mem::size_of::<u32>()) as u64
    }

    /// Allocates a zeroed area of global storage (outside any region).
    /// Pointers stored here must use [`RegionRuntime::store_ptr_global`].
    pub fn try_alloc_globals(&mut self, bytes: u32) -> Result<Addr, RegionError> {
        let pages = bytes.div_ceil(PAGE_SIZE).max(1);
        let a = self.heap.try_sbrk_pages(pages)?;
        self.globals_pages += u64::from(pages);
        Ok(a)
    }

    /// Panicking form of [`RegionRuntime::try_alloc_globals`].
    pub fn alloc_globals(&mut self, bytes: u32) -> Addr {
        self.try_alloc_globals(bytes).unwrap_or_else(|e| panic!("{e}"))
    }

    // ------------------------------------------------------------------
    // Page management
    // ------------------------------------------------------------------

    fn try_acquire_page(&mut self, owner: Option<RegionId>) -> Result<Addr, RegionError> {
        if let Some(count) = self.faults.check_page() {
            return Err(RegionError::FaultInjected { site: FaultSite::PageAcquisition, count });
        }
        let (page, fresh) = match self.free_pages.pop() {
            Some(p) => (p, false),
            None => (self.heap.try_sbrk_pages(1)?, true),
        };
        if fresh {
            self.data_pages += 1;
        }
        // The page-map chunk must exist before the page can be handed
        // out; if chunk growth fails the page goes back to the pool (its
        // map entry is already "no owner") and the caller sees a no-op.
        match self.try_chunk_for(page.page_index()) {
            Ok(chunk) => {
                self.write_map_entry(chunk, page.page_index(), owner);
                Ok(page)
            }
            Err(e) => {
                self.free_pages.push(page);
                Err(e)
            }
        }
    }

    fn release_page(&mut self, page: Addr) {
        self.set_page_owner(page, None);
        self.free_pages.push(page);
    }

    /// The map chunk covering `page_index`, allocating it if needed.
    fn try_chunk_for(&mut self, page_index: u32) -> Result<Addr, RegionError> {
        let root = (page_index / CHUNK_COVER) as usize;
        if self.map_root.len() <= root {
            self.map_root.resize(root + 1, None);
        }
        match self.map_root[root] {
            Some(c) => Ok(c),
            None => {
                // Map chunks come straight from the OS (they are zeroed,
                // i.e. "no owner", which is what a fresh chunk must say).
                let c = self.heap.try_sbrk_pages(1)?;
                self.map_pages += 1;
                self.map_root[root] = Some(c);
                Ok(c)
            }
        }
    }

    fn write_map_entry(&mut self, chunk: Addr, page_index: u32, owner: Option<RegionId>) {
        let entry = chunk + (page_index % CHUNK_COVER) * WORD;
        let cell = owner.map_or(0, |r| r.0 + 1);
        self.heap.store_u32(entry, cell);
        self.map_mirror.set(page_index, cell);
        // Sharded backends additionally announce ownership space-wide so
        // sibling workers can audit the page without reading this worker's
        // in-heap map; on SimHeap this is a no-op.
        self.heap.publish_page_owner(page_index, cell);
    }

    fn set_page_owner(&mut self, page: Addr, owner: Option<RegionId>) {
        let chunk = self.try_chunk_for(page.page_index()).unwrap_or_else(|e| panic!("{e}"));
        self.write_map_entry(chunk, page.page_index(), owner);
    }

    /// The region containing `addr`, if any — the paper's `regionof`.
    /// One page-map load (§4.1: "an array mapping page addresses to
    /// regions").
    ///
    /// With a sink attached the load is performed against the in-heap map
    /// so cache traces see the real page-map access pattern; untraced, the
    /// host mirror answers and the load is charged to the counters, so
    /// totals are identical either way.
    #[inline]
    pub fn region_of(&mut self, addr: Addr) -> Option<RegionId> {
        self.locate(addr).region()
    }

    /// [`RegionRuntime::region_of`] as a page-map class, charging the
    /// load it stands for.
    #[inline]
    fn locate(&mut self, addr: Addr) -> PageClass {
        if self.heap.is_tracing() {
            return self.locate_traced(addr);
        }
        let class = self.classify(addr);
        self.heap.charge_loads(class.loads);
        class
    }

    /// [`RegionRuntime::locate`] for a value stored at `loc`, whose class
    /// `at_loc` the barrier has already charged. Untraced, a value on a
    /// region page `loc` shares needs no second mirror read: it has the
    /// same class and is charged the same load.
    #[inline]
    fn locate_near(&mut self, addr: Addr, loc: Addr, at_loc: PageClass) -> PageClass {
        if at_loc.cell != 0 && addr.page_index() == loc.page_index() && !self.heap.is_tracing() {
            self.heap.charge_loads(at_loc.loads);
            return at_loc;
        }
        self.locate(addr)
    }

    /// The traced `regionof`: the map entry is loaded from the in-heap
    /// chunk, so the sink sees it.
    #[cold]
    #[inline(never)]
    fn locate_traced(&mut self, addr: Addr) -> PageClass {
        if addr.is_null() {
            return PageClass::NONE;
        }
        let page_index = addr.page_index();
        match self.map_root.get((page_index / CHUNK_COVER) as usize) {
            Some(&Some(chunk)) => {
                let cell = self.heap.load_u32(chunk + (page_index % CHUNK_COVER) * WORD);
                PageClass { cell, loads: 1 }
            }
            _ => PageClass::NONE,
        }
    }

    /// `addr`'s page-map class from the host mirror, uncounted and
    /// untraced. A nonzero cell proves its page-map chunk exists, so
    /// only an ownerless page looks at the chunk root.
    #[inline]
    fn classify(&self, addr: Addr) -> PageClass {
        if addr.is_null() {
            return PageClass::NONE;
        }
        match self.map_mirror.get(addr.page_index()) {
            0 => self.classify_ownerless(addr),
            cell => PageClass { cell, loads: 1 },
        }
    }

    /// [`RegionRuntime::classify`] for a non-null address on a page no
    /// region owns: reading its map entry costs a load only when its
    /// chunk exists.
    #[cold]
    #[inline(never)]
    fn classify_ownerless(&self, addr: Addr) -> PageClass {
        let root = (addr.page_index() / CHUNK_COVER) as usize;
        let mapped = matches!(self.map_root.get(root), Some(Some(_)));
        PageClass { cell: 0, loads: u64::from(mapped) }
    }

    /// Host-side view of the page-map mirror, indexed by absolute page
    /// index with the `owner + 1` cell encoding (world capture/audit).
    pub(crate) fn map_mirror_entries(&self) -> &[u32] {
        self.map_mirror.entries()
    }

    // ------------------------------------------------------------------
    // Region creation and allocation
    // ------------------------------------------------------------------

    /// Creates a new, empty region (`newregion`). Constant time; the first
    /// page is acquired eagerly, as the paper stores the region structure
    /// in its region's first page. On failure (simulated OOM or injected
    /// fault) no region is created and the runtime is unchanged.
    pub fn try_new_region(&mut self) -> Result<RegionId, RegionError> {
        let id = RegionId(self.regions.len() as u32);
        // Stagger successive regions by 64 bytes (L2 line), wrapping at 512+64.
        let first_off = if self.config.stagger {
            align_up((self.stats.total_regions as u32 % 9) * 64, WORD)
        } else {
            0
        };
        // Acquire the first page before registering the region so a
        // failed acquisition leaves no half-created region behind.
        let page = self.try_acquire_page(Some(id))?;
        let mut pages = self.spare_lists.pop().unwrap_or_default();
        pages.push((page, first_off));
        let normal = BumpState { pages, alloc_from: first_off };
        let string = BumpState { pages: self.spare_lists.pop().unwrap_or_default(), alloc_from: 0 };
        self.regions.push(RegionInfo { rc: 0, liveness: Liveness::Live, normal, string, bytes: 0, allocs: 0 });
        // The page may be recycled (dirty); the cleanup scan must find a
        // null cleanup word at the scan start even if nothing is ever
        // allocated here.
        if self.config.mode == SafetyMode::Safe {
            self.heap.store_u32(page + first_off, 0);
        }
        self.stats.on_region_created();
        Ok(id)
    }

    /// Panicking form of [`RegionRuntime::try_new_region`].
    pub fn new_region(&mut self) -> RegionId {
        self.try_new_region().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Reference count of a region (diagnostics and tests). Always zero in
    /// unsafe mode.
    ///
    /// # Panics
    ///
    /// Panics if `r` was deleted.
    pub fn rc(&self, r: RegionId) -> i64 {
        let info = &self.regions[r.0 as usize];
        assert!(!matches!(info.liveness, Liveness::Dead), "rc of deleted region {r:?}");
        info.rc
    }

    /// `true` if the region is fully live: not deleted and not parked
    /// mid-incremental-deletion.
    pub fn is_live(&self, r: RegionId) -> bool {
        matches!(self.regions[r.0 as usize].liveness, Liveness::Live)
    }

    /// `true` if the region is parked mid-incremental-deletion: doomed
    /// (no allocation can succeed) but still holding pages until the
    /// remaining [`RegionRuntime::try_delete_region_step`] increments run.
    pub fn is_parked(&self, r: RegionId) -> bool {
        matches!(self.regions[r.0 as usize].liveness, Liveness::Parked(_))
    }

    /// The incremental-deletion work budget
    /// (see [`RegionRuntime::set_delete_budget`]).
    pub fn delete_budget(&self) -> u64 {
        self.delete_budget
    }

    /// Sets the work-increment budget for incremental deletion: the
    /// maximum number of work units — frames scanned, objects whose
    /// counts are released, pages returned — one
    /// [`RegionRuntime::try_delete_region_step`] call may spend before
    /// parking the region. `u64::MAX` (the default) finishes every
    /// `deleteregion` in one increment, whose access stream is the
    /// paper's scan, cleanup walk, page release, unscan. The budget is
    /// host-side tuning state: it is not serialized into snapshots, and
    /// the final books of a deletion are identical under any budget.
    pub fn set_delete_budget(&mut self, budget: u64) {
        assert!(budget > 0, "delete budget must be positive");
        self.delete_budget = budget;
    }

    /// Refused-scan attribution (see [`ScanAttribution`]). Host-side
    /// diagnostics: not serialized, zero after a restore.
    pub fn scan_attribution(&self) -> ScanAttribution {
        self.scan_attr
    }

    /// Bump-allocates `total` bytes (word-aligned) in the given allocator
    /// of region `r`; returns the start address. Fails without side
    /// effects on a dead region, an oversized request, or a page
    /// acquisition failure.
    ///
    /// "If the allocation fits on the first page just return
    /// firstpage+allocfrom and increment allocfrom, if not allocate a new
    /// page and try again." (§4.1) The fit is the one test made inline;
    /// the refill and every error are in [`RegionRuntime::bump_refill`].
    #[inline(always)]
    fn try_bump(&mut self, r: RegionId, total: u32, string: bool) -> Result<Addr, RegionError> {
        debug_assert_eq!(total % WORD, 0);
        let info = &mut self.regions[r.0 as usize];
        let live = matches!(info.liveness, Liveness::Live);
        let s = if string { &mut info.string } else { &mut info.normal };
        // `total <= PAGE_SIZE` is tested first, so the sum cannot wrap.
        let (page, offset) = match s.current_page() {
            Some(p) if live && total <= PAGE_SIZE && s.alloc_from + total <= PAGE_SIZE => {
                let off = s.alloc_from;
                s.alloc_from += total;
                (p, off)
            }
            _ => self.bump_refill(r, total, string)?,
        };
        // Maintain the end-of-page marker for the cleanup scan: the word
        // after the last object must read as a null cleanup (Figure 7).
        if self.is_safe() && !string {
            let next = offset + total;
            if next + WORD <= PAGE_SIZE {
                self.heap.store_u32(page + next, 0);
            }
        }
        Ok(page + offset)
    }

    /// The slow path of [`RegionRuntime::try_bump`]: a region that is not
    /// live, a request larger than a page, or a full (or missing) page,
    /// which a fresh one replaces. Returns the page and offset allocated.
    #[cold]
    #[inline(never)]
    fn bump_refill(
        &mut self,
        r: RegionId,
        total: u32,
        string: bool,
    ) -> Result<(Addr, u32), RegionError> {
        match self.regions[r.0 as usize].liveness {
            Liveness::Live => {}
            Liveness::Parked(_) => return Err(RegionError::RegionDoomed { region: r }),
            Liveness::Dead => return Err(RegionError::RegionDeleted { region: r }),
        }
        if total > PAGE_SIZE {
            return Err(RegionError::ObjectTooLarge { bytes: total });
        }
        let p = self.try_acquire_page(Some(r))?;
        let info = &mut self.regions[r.0 as usize];
        let s = if string { &mut info.string } else { &mut info.normal };
        s.pages.push((p, 0));
        s.alloc_from = total;
        Ok((p, 0))
    }

    #[inline]
    fn account_alloc(&mut self, r: RegionId, requested: u32) {
        let rounded = self.stats.on_alloc(requested);
        let info = &mut self.regions[r.0 as usize];
        info.bytes += u64::from(rounded);
        info.allocs += 1;
        let bytes = info.bytes;
        self.stats.note_region_bytes(bytes);
    }

    /// Allocates one object of the given type in region `r` (`ralloc`).
    /// The returned memory is cleared. In safe mode the object is preceded
    /// by a four-byte cleanup header. Fails without side effects on a
    /// deleted region, an oversized object, OOM, or an injected fault.
    #[inline]
    pub fn try_ralloc(&mut self, r: RegionId, desc: DescId) -> Result<Addr, RegionError> {
        if let Some(count) = self.faults.check_alloc() {
            return Err(RegionError::FaultInjected { site: FaultSite::Allocation, count });
        }
        let size = self.descs.get(desc).size();
        if size > PAGE_SIZE {
            std::hint::cold_path();
            return Err(RegionError::ObjectTooLarge { bytes: size });
        }
        let asize = align_up(size, WORD);
        let header = if self.is_safe() { WORD } else { 0 };
        let start = self.try_bump(r, header + asize, false)?;
        if self.is_safe() {
            self.heap.store_u32(start, desc.index() + 1);
        }
        let data = start + header;
        if self.config.clear_on_alloc {
            self.heap.fill(data, asize, 0);
        }
        self.account_alloc(r, size);
        Ok(data)
    }

    /// Panicking form of [`RegionRuntime::try_ralloc`].
    ///
    /// # Panics
    ///
    /// Panics if the region was deleted or the object exceeds one page.
    #[inline]
    pub fn ralloc(&mut self, r: RegionId, desc: DescId) -> Addr {
        self.try_ralloc(r, desc).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Allocates an array of `n` objects of the given element type
    /// (`rarrayalloc`). The memory is cleared. In safe mode the array is
    /// preceded by a twelve-byte header (cleanup, count, stride) — the
    /// paper's "twelve bytes of bookkeeping for arrays". Fails without
    /// side effects on a deleted region, a size overflow, an array
    /// exceeding one page, OOM, or an injected fault.
    pub fn try_rarrayalloc(
        &mut self,
        r: RegionId,
        n: u32,
        elem: DescId,
    ) -> Result<Addr, RegionError> {
        if let Some(count) = self.faults.check_alloc() {
            return Err(RegionError::FaultInjected { site: FaultSite::Allocation, count });
        }
        let stride = align_up(self.descs.get(elem).size(), WORD);
        let overflow = RegionError::SizeOverflow { count: n, stride };
        let payload = n.checked_mul(stride).ok_or(overflow)?;
        let data = if self.is_safe() {
            let total = payload.checked_add(3 * WORD).ok_or(overflow)?;
            let start = self.try_bump(r, total, false)?;
            self.heap.store_u32(start, (elem.index() + 1) | ARRAY_FLAG);
            self.heap.store_u32(start + WORD, n);
            self.heap.store_u32(start + 2 * WORD, stride);
            start + 3 * WORD
        } else {
            self.try_bump(r, payload.max(WORD), false)?
        };
        if self.config.clear_on_alloc {
            self.heap.fill(data, payload, 0);
        }
        self.account_alloc(r, payload);
        Ok(data)
    }

    /// Panicking form of [`RegionRuntime::try_rarrayalloc`].
    ///
    /// # Panics
    ///
    /// Panics if the region was deleted, the size overflows, or the array
    /// exceeds one page.
    pub fn rarrayalloc(&mut self, r: RegionId, n: u32, elem: DescId) -> Addr {
        self.try_rarrayalloc(r, n, elem).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Allocates `size` bytes of pointer-free storage (`rstralloc`). The
    /// memory is **not** cleared and carries no bookkeeping. Fails without
    /// side effects on a deleted region, a zero or oversized request, OOM,
    /// or an injected fault.
    #[inline]
    pub fn try_rstralloc(&mut self, r: RegionId, size: u32) -> Result<Addr, RegionError> {
        if let Some(count) = self.faults.check_alloc() {
            return Err(RegionError::FaultInjected { site: FaultSite::Allocation, count });
        }
        if size == 0 || size > PAGE_SIZE {
            std::hint::cold_path();
            return Err(if size == 0 {
                RegionError::ZeroAlloc
            } else {
                RegionError::ObjectTooLarge { bytes: size }
            });
        }
        let asize = align_up(size, WORD);
        let addr = self.try_bump(r, asize, true)?;
        self.account_alloc(r, size);
        Ok(addr)
    }

    /// Panicking form of [`RegionRuntime::try_rstralloc`].
    ///
    /// # Panics
    ///
    /// Panics if the region was deleted, `size` is zero, or the block
    /// exceeds one page.
    #[inline]
    pub fn rstralloc(&mut self, r: RegionId, size: u32) -> Addr {
        self.try_rstralloc(r, size).unwrap_or_else(|e| panic!("{e}"))
    }

    // ------------------------------------------------------------------
    // Reference counting
    // ------------------------------------------------------------------

    // Count misuses (inc/dec of a dead region, a negative count) cannot
    // happen in correct executions; instead of aborting the process they
    // are recorded as violations and surfaced by `sanitize()` — a faulted
    // benchmark cell or chaos step must not kill the whole run.

    // A region parked in the stack-scan phase still maintains exact
    // counts (its own scan may yet find a blocking local); from cleanup
    // onward — and once dead — any count traffic on it is a misuse.
    fn counts_maintained(&self, r: RegionId) -> bool {
        matches!(
            self.regions[r.0 as usize].liveness,
            Liveness::Live | Liveness::Parked(DeletePhase::ScanStack { .. })
        )
    }

    #[inline]
    pub(crate) fn inc_rc(&mut self, r: RegionId) {
        let info = &mut self.regions[r.0 as usize];
        if matches!(info.liveness, Liveness::Live) {
            info.rc += 1;
        } else {
            self.inc_rc_slow(r);
        }
    }

    #[cold]
    #[inline(never)]
    fn inc_rc_slow(&mut self, r: RegionId) {
        if !self.counts_maintained(r) {
            self.violations.push(RcViolation::IncOfDeleted { region: r });
            return;
        }
        self.regions[r.0 as usize].rc += 1;
    }

    #[inline]
    pub(crate) fn dec_rc(&mut self, r: RegionId) {
        let info = &mut self.regions[r.0 as usize];
        if matches!(info.liveness, Liveness::Live) && info.rc > 0 {
            info.rc -= 1;
        } else {
            self.dec_rc_slow(r);
        }
    }

    #[cold]
    #[inline(never)]
    fn dec_rc_slow(&mut self, r: RegionId) {
        if !self.counts_maintained(r) {
            self.violations.push(RcViolation::DecOfDeleted { region: r });
            return;
        }
        let info = &mut self.regions[r.0 as usize];
        info.rc -= 1;
        let rc = info.rc;
        if rc < 0 {
            self.violations.push(RcViolation::NegativeRc { region: r, rc });
        }
    }

    /// Adjusts counts for replacing `old` with `new` at `loc`, whose class
    /// `at_loc` names its own region (`PageClass::NONE` for global storage
    /// and stack slots). This is the body of both methods of paper
    /// Figure 5.
    #[inline]
    fn barrier_update(&mut self, loc: Addr, at_loc: PageClass, old: Addr, new: Addr) {
        // Overwriting a pointer with itself moves no counts; skip the
        // page-map lookups entirely.
        if old == new {
            return;
        }
        let ro = self.locate_near(old, loc, at_loc).cell;
        let rn = self.locate_near(new, loc, at_loc).cell;
        if ro != rn {
            if ro != at_loc.cell && ro != 0 {
                self.dec_rc(RegionId(ro - 1));
            }
            if rn != at_loc.cell && rn != 0 {
                self.inc_rc(RegionId(rn - 1));
            }
        }
    }

    /// Stores region pointer `new` into global storage at `loc`,
    /// maintaining reference counts (paper Figure 5, "Global writes — 16
    /// instructions"). A plain store in unsafe mode.
    pub fn store_ptr_global(&mut self, loc: Addr, new: Addr) {
        if self.is_safe() {
            debug_assert!(
                self.region_of_peek(loc).is_none(),
                "store_ptr_global to a location inside a region"
            );
            self.global_ptr_locs.insert(loc.raw());
            self.costs.barriers_global += 1;
            self.costs.barrier_instrs += GLOBAL_WRITE_INSTRS;
            let old = self.heap.load_addr(loc);
            self.barrier_update(loc, PageClass::NONE, old, new);
        }
        self.heap.store_addr(loc, new);
    }

    /// Stores region pointer `new` into a location inside a region,
    /// maintaining reference counts and exploiting *sameregion* pointers
    /// (paper Figure 5, "Region writes — 23 instructions").
    #[inline]
    pub fn store_ptr_region(&mut self, loc: Addr, new: Addr) {
        if self.is_safe() {
            let at_loc = self.locate(loc);
            debug_assert!(at_loc.cell != 0, "store_ptr_region to a non-region location");
            self.costs.barriers_region += 1;
            self.costs.barrier_instrs += REGION_WRITE_INSTRS;
            let old = self.heap.load_addr(loc);
            self.barrier_update(loc, at_loc, old, new);
        }
        self.heap.store_addr(loc, new);
    }

    /// Stores region pointer `new` into a location inside a region whose
    /// barrier the compiler elided with a *sameregion* proof: `new` is
    /// statically known to be null or to live in the same region as
    /// `loc`, so the barrier of Figure 5 would move no counts. Charges
    /// [`ELIDED_WRITE_INSTRS`] instead of [`REGION_WRITE_INSTRS`] and
    /// skips the old-value load entirely.
    ///
    /// The proof obligation is checked at runtime: an elided store whose
    /// value is in a *different* region records
    /// [`RcViolation::ElisionUnsound`] (surfaced by `sanitize()`) and
    /// falls back to the full barrier so counts stay exact — the
    /// violation, not a corrupted count, is the signal.
    pub fn store_ptr_region_same(&mut self, loc: Addr, new: Addr) {
        if self.is_safe() {
            // `loc`'s region is a static fact the compiler already proved;
            // the uncounted mirror peek keeps the re-check from charging a
            // second classify on top of the value's.
            let at_loc = self.classify(loc);
            let lr = at_loc.region();
            debug_assert!(lr.is_some(), "store_ptr_region_same to a non-region location");
            let vr = self.region_of(new);
            if vr.is_some() && vr != lr {
                self.violations
                    .push(RcViolation::ElisionUnsound { loc_region: lr, value_region: vr });
                self.costs.barriers_region += 1;
                self.costs.barrier_instrs += REGION_WRITE_INSTRS;
                let old = self.heap.load_addr(loc);
                self.barrier_update(loc, at_loc, old, new);
                self.heap.store_addr(loc, new);
                return;
            }
            self.costs.barriers_elided += 1;
            self.costs.barrier_instrs += ELIDED_WRITE_INSTRS;
        }
        self.heap.store_addr(loc, new);
    }

    /// Stores region pointer `new` into global storage with the barrier
    /// elided: the compiler proved every value stored at `loc` is null,
    /// so no count can move. Charges [`ELIDED_WRITE_INSTRS`] instead of
    /// [`GLOBAL_WRITE_INSTRS`]. The location is still recorded in
    /// `global_ptr_locs` so the sanitizer audits it; a non-null store
    /// records [`RcViolation::ElisionUnsound`] and takes the full
    /// barrier.
    pub fn store_ptr_global_norc(&mut self, loc: Addr, new: Addr) {
        if self.is_safe() {
            debug_assert!(
                self.region_of_peek(loc).is_none(),
                "store_ptr_global_norc to a location inside a region"
            );
            self.global_ptr_locs.insert(loc.raw());
            let vr = self.region_of(new);
            if vr.is_some() {
                self.violations
                    .push(RcViolation::ElisionUnsound { loc_region: None, value_region: vr });
                self.costs.barriers_global += 1;
                self.costs.barrier_instrs += GLOBAL_WRITE_INSTRS;
                let old = self.heap.load_addr(loc);
                self.barrier_update(loc, PageClass::NONE, old, new);
                self.heap.store_addr(loc, new);
                return;
            }
            self.costs.barriers_elided += 1;
            self.costs.barrier_instrs += ELIDED_WRITE_INSTRS;
        }
        self.heap.store_addr(loc, new);
    }

    /// Stores region pointer `new` at a location that could not be
    /// classified at compile time — the paper's "more expensive runtime
    /// routine" (§4.2.2). Dispatches on whether `loc` is on the shadow
    /// stack (and whether that frame is scanned), in a region, or in
    /// global storage.
    pub fn store_ptr_unknown(&mut self, loc: Addr, new: Addr) {
        if !self.is_safe() {
            self.heap.store_addr(loc, new);
            return;
        }
        self.costs.barriers_unknown += 1;
        self.costs.barrier_instrs += UNKNOWN_WRITE_INSTRS;
        let stack_end = self.stack_base + self.stack_slots * WORD;
        if loc >= self.stack_base && loc < stack_end {
            // A write to a local through a pointer. Only counts if the
            // frame holding the slot has been scanned.
            let slot = (loc - self.stack_base) / WORD;
            if self.slot_in_scanned_frame(slot) {
                let old = self.heap.load_addr(loc);
                self.barrier_update(loc, PageClass::NONE, old, new);
            }
            self.heap.store_addr(loc, new);
            return;
        }
        let at_loc = self.locate(loc);
        if at_loc.cell == 0 {
            // Classified as global storage: remember the location so the
            // sanitizer can recompute the global rc contribution.
            self.global_ptr_locs.insert(loc.raw());
        }
        let old = self.heap.load_addr(loc);
        self.barrier_update(loc, at_loc, old, new);
        self.heap.store_addr(loc, new);
    }

    fn slot_in_scanned_frame(&self, slot: u32) -> bool {
        // Frames are pushed/popped stack-wise, so they are sorted by
        // `base_slot`; binary-search the candidate instead of scanning.
        let i = self.frames.partition_point(|f| f.base_slot <= slot);
        match i.checked_sub(1) {
            Some(i) => {
                let f = self.frames[i];
                slot < f.base_slot + f.n_slots && i < self.hwm
            }
            None => false,
        }
    }

    // ------------------------------------------------------------------
    // Deletion
    // ------------------------------------------------------------------

    /// Attempts to delete region `r` (`deleteregion`).
    ///
    /// In safe mode the shadow stack is scanned to bring the region's
    /// reference count up to date (§4.2.1); if the count is non-zero the
    /// deletion fails with [`RegionError::DeleteBlocked`], nothing is
    /// freed, and the region stays fully usable. On success the region's
    /// objects are walked to release the counts they hold on other regions
    /// (§4.2.4, Figure 7) and all pages are returned to the page pool.
    ///
    /// In unsafe mode deletion is unconditional.
    ///
    /// Runs [`RegionRuntime::try_delete_region_step`] until the region is
    /// gone (or resumes a parked deletion and finishes it). Under the
    /// default unbounded budget that is a single increment, which emits
    /// the paper's operation order: scan, count check, cleanup walk, page
    /// release, unscan.
    pub fn try_delete_region(&mut self, r: RegionId) -> Result<(), RegionError> {
        while self.try_delete_region_step(r)? == DeleteProgress::Parked {}
        Ok(())
    }

    /// Runs **one increment** of an incremental `deleteregion` on `r`,
    /// spending at most [`RegionRuntime::delete_budget`] work units, and
    /// parks the region if the work is not finished.
    ///
    /// The deletion is a resumable state machine
    /// ([`DeletePhase`]): scan the shadow stack one frame at a time,
    /// then walk the doomed region's objects page by page from a cursor,
    /// decrementing outgoing references (Figure 7), then return pages to
    /// the pool one at a time. The books balance at *every* increment
    /// boundary — [`RegionRuntime::sanitize`] is clean between any two
    /// steps — and a parked region refuses allocation with
    /// [`RegionError::RegionDoomed`].
    ///
    /// The zero-reference check happens exactly once, in the same
    /// increment that scans the last stack frame; a refusal
    /// ([`RegionError::DeleteBlocked`]) revives the region to fully
    /// `Live` with nothing freed.
    ///
    /// Every increment ends by unscanning the newest frame, whatever its
    /// outcome, so invariant (*) holds at every park point and on return
    /// to the mutator. Unscanning at increment exit rather than right
    /// after the count check keeps an unbounded increment's access stream
    /// in the paper's order, with the cleanup walk and page release
    /// before the unscan.
    ///
    /// Returns [`DeleteProgress::Done`] when the region is gone and
    /// [`DeleteProgress::Parked`] when budget ran out mid-phase.
    pub fn try_delete_region_step(&mut self, r: RegionId) -> Result<DeleteProgress, RegionError> {
        let phase = match self.regions[r.0 as usize].liveness {
            Liveness::Dead => return Err(RegionError::RegionDeleted { region: r }),
            Liveness::Parked(phase) => phase,
            // Unsafe mode has no counts to prove or release: deletion is
            // unconditional and the only work is handing pages back,
            // which is still budgeted.
            Liveness::Live if !self.is_safe() => DeletePhase::ReturnPages { page: 0 },
            Liveness::Live => DeletePhase::ScanStack { attempt_frames: 0, attempt_slots: 0 },
        };
        let outcome = self.run_increment(r, phase);
        self.unscan_top();
        outcome
    }

    /// Parks `r` at `phase`, where the next increment resumes.
    fn park(&mut self, r: RegionId, phase: DeletePhase) -> DeleteProgress {
        self.regions[r.0 as usize].liveness = Liveness::Parked(phase);
        DeleteProgress::Parked
    }

    /// Body of one increment: spend up to `delete_budget` units on
    /// `phase`, parking the region when the budget runs out. Phase
    /// transitions within one increment are free; every unit of real
    /// work (a frame scanned, an object's fields released, a page
    /// returned) is charged.
    fn run_increment(
        &mut self,
        r: RegionId,
        mut phase: DeletePhase,
    ) -> Result<DeleteProgress, RegionError> {
        let mut budget = self.delete_budget;
        loop {
            // The region's liveness names the running phase, which is
            // all the count rules read.
            self.regions[r.0 as usize].liveness = Liveness::Parked(phase);
            match phase {
                DeletePhase::ScanStack { mut attempt_frames, mut attempt_slots } => {
                    while self.hwm < self.frames.len() {
                        if budget == 0 {
                            let phase = DeletePhase::ScanStack { attempt_frames, attempt_slots };
                            return Ok(self.park(r, phase));
                        }
                        let slots = self.scan_one_frame();
                        attempt_frames += 1;
                        attempt_slots += u64::from(slots);
                        budget -= 1;
                    }
                    // The count check rides free with the final frame;
                    // the caller unscans the newest frame when this
                    // increment exits.
                    let rc = self.regions[r.0 as usize].rc;
                    if rc != 0 {
                        self.costs.deletes_failed += 1;
                        self.scan_attr.refused_frames += attempt_frames;
                        self.scan_attr.refused_slots += attempt_slots;
                        self.regions[r.0 as usize].liveness = Liveness::Live;
                        return Err(RegionError::DeleteBlocked { region: r, rc });
                    }
                    phase = DeletePhase::Cleanup { page: 0, cursor: 0 };
                }
                DeletePhase::Cleanup { page, cursor } => {
                    let Some(&(p, start)) = self.regions[r.0 as usize].normal.pages.get(page as usize) else {
                        self.costs.deletes += 1;
                        phase = DeletePhase::ReturnPages { page: 0 };
                        continue;
                    };
                    if let Some(cursor) = self.cleanup_page(r, p, start, cursor.max(start), &mut budget) {
                        return Ok(self.park(r, DeletePhase::Cleanup { page, cursor }));
                    }
                    phase = DeletePhase::Cleanup { page: page + 1, cursor: 0 };
                }
                DeletePhase::ReturnPages { page } => {
                    let Some(p) = self.regions[r.0 as usize].pages_from(page).next() else { break };
                    if budget == 0 {
                        return Ok(self.park(r, phase));
                    }
                    self.release_page(p);
                    budget -= 1;
                    phase = DeletePhase::ReturnPages { page: page + 1 };
                }
            }
        }
        let info = &mut self.regions[r.0 as usize];
        info.liveness = Liveness::Dead;
        // The emptied lists serve the next new regions, the string list
        // pushed first so the next region takes each list in its old role.
        for bump in [&mut info.string, &mut info.normal] {
            bump.pages.clear();
            self.spare_lists.push(std::mem::take(&mut bump.pages));
        }
        let bytes = info.bytes;
        self.stats.on_region_deleted(bytes);
        Ok(DeleteProgress::Done)
    }

    /// The historical boolean form of [`RegionRuntime::try_delete_region`]:
    /// `true` on success, `false` when blocked by external references.
    ///
    /// # Panics
    ///
    /// Panics if `r` was already deleted.
    pub fn delete_region(&mut self, r: RegionId) -> bool {
        match self.try_delete_region(r) {
            Ok(()) => true,
            Err(RegionError::DeleteBlocked { .. }) => false,
            Err(e) => panic!("double delete of {r:?}: {e}"),
        }
    }

    /// Walks one normal page of the dying region `r` from offset `cursor`
    /// (its objects begin at `start`), releasing the counts each object
    /// holds on other regions — paper Figure 7, with the descriptor as
    /// Figure 6's cleanup function — until the page ends or `budget` runs
    /// out. Returns the offset to resume from when the budget parks the
    /// walk mid-page. An object is processed atomically and charged 1 +
    /// the number of pointer fields released; ending the page costs 1.
    fn cleanup_page(
        &mut self,
        r: RegionId,
        page: Addr,
        start: u32,
        cursor: u32,
        budget: &mut u64,
    ) -> Option<u32> {
        if *budget == 0 {
            return Some(cursor);
        }
        if cursor == start {
            self.costs.cleanup_pages += 1;
        }
        let (mut cur, end) = (page + cursor, page + PAGE_SIZE);
        loop {
            // "the end of unfilled pages is marked with a NULL"; a full
            // page just ends.
            let hdr = if cur + WORD <= end { self.heap.load_u32(cur) } else { 0 };
            if hdr == 0 {
                *budget -= 1;
                return None;
            }
            self.costs.cleanup_objects += 1;
            self.costs.cleanup_instrs += CLEANUP_OBJECT_INSTRS;
            let (released, next) = if hdr & ARRAY_FLAG == 0 {
                let desc = DescId(hdr - 1);
                let data = cur + WORD;
                let (nptrs, first, size) = self.object_shape(desc);
                self.cleanup_fields(r, desc, data, nptrs, first);
                (nptrs as u64, data + align_up(size, WORD))
            } else {
                let desc = DescId((hdr & !ARRAY_FLAG) - 1);
                let n = self.heap.load_u32(cur + WORD);
                let stride = self.heap.load_u32(cur + 2 * WORD);
                let data = cur + 3 * WORD;
                let (nptrs, first, _) = self.object_shape(desc);
                // Single-pointer arrays whose fields are all still null
                // (cleared on alloc, never linked) release nothing, so the
                // walk is one strided bulk load — one Range record to a
                // sink, and bit-for-bit the per-field walk, since
                // `region_of(null)` loads nothing.
                let all_null = nptrs == 1
                    && n > 1
                    && stride > 0
                    && (0..n).all(|i| self.heap.peek_u32(data + i * stride + first) == 0);
                if all_null {
                    self.costs.cleanup_ptrs += u64::from(n);
                    self.costs.cleanup_instrs += u64::from(n) * CLEANUP_PTR_INSTRS;
                    self.heap.load_u32_range(data + first, n, stride);
                } else {
                    for i in 0..n {
                        self.cleanup_fields(r, desc, data + i * stride, nptrs, first);
                    }
                }
                (u64::from(n) * nptrs as u64, data + n * stride)
            };
            *budget = budget.saturating_sub(1 + released);
            cur = next;
            if *budget == 0 {
                return Some(cur - page);
            }
        }
    }

    /// How many pointer fields `desc` has, the offset of the first (0 if
    /// none) and its size: one descriptor lookup per object walked.
    #[inline]
    fn object_shape(&self, desc: DescId) -> (usize, u32, u32) {
        let d = self.descs.get(desc);
        let offsets = d.ptr_offsets();
        (offsets.len(), offsets.first().copied().unwrap_or(0), d.size())
    }

    /// Releases the `nptrs` pointer fields of the object of type `desc`
    /// at `data`, the first at offset `first`. Each release needs
    /// `&mut self`, so a field past the first indexes the descriptor's
    /// offsets again; the common one-pointer object never does.
    #[inline]
    fn cleanup_fields(
        &mut self,
        dying: RegionId,
        desc: DescId,
        data: Addr,
        nptrs: usize,
        first: u32,
    ) {
        if nptrs == 0 {
            return;
        }
        self.cleanup_release(dying, data + first);
        for k in 1..nptrs {
            let off = self.descs.get(desc).ptr_offsets()[k];
            self.cleanup_release(dying, data + off);
        }
    }

    /// `destroy(x->field)` of paper Figure 6: release the count a pointer
    /// field of a dying object holds on another region.
    fn cleanup_release(&mut self, dying: RegionId, field: Addr) {
        self.costs.cleanup_ptrs += 1;
        self.costs.cleanup_instrs += CLEANUP_PTR_INSTRS;
        let v = Addr::new(self.heap.load_u32(field));
        if let Some(s) = self.region_of(v) {
            if s != dying {
                self.dec_rc(s);
            }
        }
    }

    // ------------------------------------------------------------------
    // The refcount sanitizer
    // ------------------------------------------------------------------

    /// Uncounted, untraced `regionof` for the sanitizer: answers from the
    /// host mirror without touching the load counters or a trace sink.
    fn region_of_peek(&self, addr: Addr) -> Option<RegionId> {
        self.classify(addr).region()
    }

    /// Recomputes every live region's reference count from first
    /// principles and diffs it against the incrementally-maintained
    /// counts and the page-map mirror.
    ///
    /// The recomputation mirrors exactly what the write barriers and the
    /// stack scan count (§4.2): pointers held in global storage (every
    /// location ever written through [`RegionRuntime::store_ptr_global`]
    /// or classified as global by [`RegionRuntime::store_ptr_unknown`]),
    /// pointers in *scanned* stack frames, and cross-region pointer
    /// fields of live regions' objects, found by the same descriptor walk
    /// the cleanup scan performs (Figure 7). Sameregion pointers and
    /// unscanned frames contribute nothing, exactly as in the incremental
    /// scheme.
    ///
    /// All reads are uncounted `peek`s, so a sanitize pass is invisible
    /// to the load/store counters and to any attached trace sink —
    /// benchmark figures are identical with the audit on or off.
    ///
    /// In unsafe mode there are no counts or headers; only the page-map
    /// mirror and recorded violations are checked. In safe mode the
    /// object walk assumes `clear_on_alloc` (the default, and required
    /// for safety): uncleared fresh objects would contain garbage that
    /// the barriers never counted.
    pub fn sanitize(&self) -> SanitizeReport {
        let mut report =
            SanitizeReport { violations: self.violations.clone(), ..SanitizeReport::default() };
        // Page-map audit: the host mirror must agree with the
        // authoritative in-heap map on every entry of every chunk.
        for (root, chunk) in self.map_root.iter().enumerate() {
            let Some(chunk) = *chunk else { continue };
            for slot in 0..CHUNK_COVER {
                let in_heap = self.heap.peek_u32(chunk + slot * WORD);
                let page_index = root as u32 * CHUNK_COVER + slot;
                let mirrored = self.map_mirror.get(page_index);
                report.mirror_entries_checked += 1;
                if in_heap != mirrored {
                    report.mirror_mismatches.push(MirrorMismatch { page_index, in_heap, mirrored });
                }
            }
        }
        if !self.is_safe() {
            return report;
        }
        let mut recomputed = vec![0i64; self.regions.len()];
        // 1. Global storage: every location that ever held a pointer.
        for &loc in &self.global_ptr_locs {
            report.global_locs_walked += 1;
            let v = Addr::new(self.heap.peek_u32(Addr::new(loc)));
            if let Some(s) = self.region_of_peek(v) {
                recomputed[s.0 as usize] += 1;
            }
        }
        // 2. Scanned stack frames [0, hwm): the only frames whose locals
        //    are reflected in the counts.
        for f in &self.frames[..self.hwm] {
            for s in 0..f.n_slots {
                report.stack_slots_walked += 1;
                let v = Addr::new(self.heap.peek_u32(self.slot_addr(f.base_slot + s)));
                if let Some(region) = self.region_of_peek(v) {
                    recomputed[region.0 as usize] += 1;
                }
            }
        }
        // 3. Every live region's objects, via descriptors (read-only
        //    Figure 7 walk); sameregion pointers are not counted.
        let mut ptr_fields = 0;
        let walked = self.walk_objects(|owner, field| {
            ptr_fields += 1;
            let v = Addr::new(self.heap.peek_u32(field));
            if let Some(s) = self.region_of_peek(v) {
                if s != owner {
                    recomputed[s.0 as usize] += 1;
                }
            }
        });
        report.objects_walked =
            walked.unwrap_or_else(|at| panic!("sanitize: corrupt object header at {at:?}"));
        report.ptr_fields_walked = ptr_fields;
        for (i, info) in self.regions.iter().enumerate() {
            // Parked regions proved rc == 0 before cleanup began and
            // nothing may point into them afterwards, so they are held
            // to the same recount as live ones.
            match info.liveness {
                Liveness::Live => report.live_regions += 1,
                Liveness::Parked(_) => report.parked_regions += 1,
                Liveness::Dead => continue,
            }
            if recomputed[i] != info.rc {
                report.rc_mismatches.push(RcMismatch {
                    region: RegionId(i as u32),
                    recorded: info.rc,
                    recomputed: recomputed[i],
                });
            }
        }
        report
    }

    // ------------------------------------------------------------------
    // Snapshot / restore (orthogonal persistence, DESIGN §14)
    // ------------------------------------------------------------------

    /// Serializes every runtime field *after* the heap image — the
    /// portion of the `RSNP` stream that is identical whether the
    /// runtime sits on a private [`SimHeap`] (v1 snapshots) or on a
    /// shard of a shared space (the per-runtime section of v2 world
    /// snapshots). Byte-for-byte the v1 layout from "region config"
    /// onward.
    pub(crate) fn write_snapshot_body(&self, w: &mut SnapWriter) {
        // -- region config --
        w.u8(match self.config.mode {
            SafetyMode::Safe => 0,
            SafetyMode::Unsafe => 1,
        });
        w.u8(u8::from(self.config.stagger));
        w.u8(u8::from(self.config.clear_on_alloc));
        w.u32(self.config.stack_pages);
        w.u64(self.config.heap.max_bytes);
        w.opt_u64(self.config.heap.sbrk_fault_after);
        // -- descriptors (ids are registration order) --
        w.u32(self.descs.len() as u32);
        for i in 0..self.descs.len() as u32 {
            let d = self.descs.get(DescId(i));
            w.bytes(d.name().as_bytes());
            w.u32(d.size());
            w.u32(d.ptr_offsets().len() as u32);
            for &off in d.ptr_offsets() {
                w.u32(off);
            }
        }
        // -- regions --
        w.u32(self.regions.len() as u32);
        for info in &self.regions {
            w.i64(info.rc);
            // Liveness byte: 0 = dead, 1 = live (the historical bool,
            // byte-identical when no deletion is parked), 2 = parked —
            // followed by the phase payload so a restore resumes the
            // deletion exactly where it parked.
            // The two later phases are written in their historical
            // layout: the mark stack is the unprocessed normal pages in
            // reverse, with only the top entry mid-page; the page queue
            // is the pages still held, in reverse, and both lists are
            // written empty while it drains.
            let returning = matches!(info.liveness, Liveness::Parked(DeletePhase::ReturnPages { .. }));
            match info.liveness {
                Liveness::Dead => w.u8(0),
                Liveness::Live => w.u8(1),
                Liveness::Parked(phase) => {
                    w.u8(2);
                    match phase {
                        DeletePhase::ScanStack { attempt_frames, attempt_slots } => {
                            w.u8(0);
                            w.u64(attempt_frames);
                            w.u64(attempt_slots);
                        }
                        DeletePhase::Cleanup { page, cursor } => {
                            w.u8(1);
                            let marks = &info.normal.pages[page as usize..];
                            w.u32(marks.len() as u32);
                            for (k, &(p, start)) in marks.iter().enumerate().rev() {
                                w.u32(p.raw());
                                w.u32(start);
                                w.u32(if k == 0 { cursor.max(start) } else { start });
                            }
                        }
                        DeletePhase::ReturnPages { page } => {
                            w.u8(2);
                            let held = info.pages_from(page);
                            w.u32(held.clone().count() as u32);
                            for p in held.rev() {
                                w.u32(p.raw());
                            }
                        }
                    }
                }
            }
            for bump in [&info.normal, &info.string] {
                let list: &[(Addr, u32)] = if returning { &[] } else { &bump.pages };
                w.u32(list.len() as u32);
                for &(p, off) in list {
                    w.u32(p.raw());
                    w.u32(off);
                }
                w.u32(bump.alloc_from);
            }
            w.u64(info.bytes);
            w.u64(info.allocs);
        }
        // -- page pool and page map --
        w.u32(self.free_pages.len() as u32);
        for &p in &self.free_pages {
            w.u32(p.raw());
        }
        w.u32(self.map_root.len() as u32);
        for &c in &self.map_root {
            w.opt_u32(c.map(Addr::raw));
        }
        let mirror = self.map_mirror.entries();
        w.u32(mirror.len() as u32);
        for &m in mirror {
            w.u32(m);
        }
        // -- stats and costs --
        let s = &self.stats;
        for v in [
            s.total_allocs,
            s.total_bytes,
            s.live_bytes,
            s.max_live_bytes,
            s.total_regions,
            s.live_regions,
            s.max_live_regions,
            s.max_region_bytes,
        ] {
            w.u64(v);
        }
        let c = &self.costs;
        for v in [
            c.barriers_global,
            c.barriers_region,
            c.barriers_unknown,
            c.barriers_elided,
            c.barrier_instrs,
            c.frames_scanned,
            c.slots_scanned,
            c.frames_unscanned,
            c.slots_unscanned,
            c.scan_instrs,
            c.cleanup_objects,
            c.cleanup_ptrs,
            c.cleanup_pages,
            c.cleanup_instrs,
            c.deletes,
            c.deletes_failed,
        ] {
            w.u64(v);
        }
        // -- shadow stack --
        w.u32(self.stack_base.raw());
        w.u32(self.stack_slots);
        w.u32(self.frames.len() as u32);
        for f in &self.frames {
            w.u32(f.base_slot);
            w.u32(f.n_slots);
        }
        w.u32(self.top_slot);
        w.u64(self.hwm as u64);
        // -- OS-footprint accounting --
        w.u64(self.data_pages);
        w.u64(self.map_pages);
        w.u64(self.globals_pages);
        // -- fault plan (schedule + progress) --
        let (fail_pages, mth, one_in, sbrk, counters) = self.faults.raw_state();
        w.u32(fail_pages.len() as u32);
        for &n in fail_pages {
            w.u64(n);
        }
        w.opt_u64(mth);
        w.opt_u64(one_in);
        w.opt_u64(sbrk);
        for v in counters {
            w.u64(v);
        }
        // -- recorded violations --
        w.u32(self.violations.len() as u32);
        for v in &self.violations {
            match *v {
                RcViolation::IncOfDeleted { region } => {
                    w.u8(0);
                    w.u32(region.0);
                }
                RcViolation::DecOfDeleted { region } => {
                    w.u8(1);
                    w.u32(region.0);
                }
                RcViolation::NegativeRc { region, rc } => {
                    w.u8(2);
                    w.u32(region.0);
                    w.i64(rc);
                }
                RcViolation::ElisionUnsound { loc_region, value_region } => {
                    w.u8(3);
                    w.opt_u32(loc_region.map(|r| r.0));
                    w.opt_u32(value_region.map(|r| r.0));
                }
            }
        }
        // -- global pointer ledger --
        w.u32(self.global_ptr_locs.len() as u32);
        for &loc in &self.global_ptr_locs {
            w.u32(loc);
        }
    }

    /// Decodes the stream written by [`RegionRuntime::write_snapshot_body`]
    /// onto an already-rebuilt heap, validating every address against the
    /// heap's break and `floor` — the lowest byte a data page may start at
    /// (`PAGE_SIZE` for a private heap, the shard's base for a shard, so a
    /// corrupt world snapshot cannot point one worker's books at another
    /// worker's pages). The caller must still run
    /// [`RegionRuntime::finish_restore`] before using the runtime.
    pub(crate) fn read_snapshot_body(
        r: &mut SnapReader<'_>,
        heap: H,
        floor: u32,
    ) -> Result<RegionRuntime<H>, SnapshotError> {
        let brk = heap.brk().raw();
        // Every decoded address that later code dereferences must point at
        // a whole mapped non-guard page; everything else is `Malformed`.
        let page_ok =
            |p: u32| p >= floor && p % PAGE_SIZE == 0 && u64::from(p) + u64::from(PAGE_SIZE) <= u64::from(brk);
        // -- region config --
        r.section("config");
        let mode = match r.u8("config.mode")? {
            0 => SafetyMode::Safe,
            1 => SafetyMode::Unsafe,
            _ => return Err(r.malformed()),
        };
        let stagger = decode_bool(r, "config.stagger")?;
        let clear_on_alloc = decode_bool(r, "config.clear_on_alloc")?;
        let stack_pages = r.u32("config.stack_pages")?;
        let config = RegionConfig {
            mode,
            stagger,
            clear_on_alloc,
            stack_pages,
            heap: HeapConfig {
                max_bytes: r.u64("config.heap.max_bytes")?,
                sbrk_fault_after: r.opt_u64("config.heap.sbrk_fault_after")?,
            },
        };
        // -- descriptors --
        r.section("descriptors");
        let n_descs = r.u32("descriptors")?;
        if n_descs >= (1 << 30) {
            return Err(r.malformed());
        }
        let mut descs = DescriptorTable::new();
        for d in 0..n_descs {
            let name = r.bytes(|| format!("desc[{d}].name"))?;
            let name = std::str::from_utf8(name).map_err(|_| r.malformed())?.to_string();
            let size = r.u32(|| format!("desc[{d}].size"))?;
            if size == 0 {
                return Err(r.malformed());
            }
            let n_offs = r.u32(|| format!("desc[{d}].ptr_offsets"))?;
            let mut offs = Vec::new();
            let mut prev: Option<u32> = None;
            for o in 0..n_offs {
                let off = r.u32(|| format!("desc[{d}].ptr_offset[{o}]"))?;
                let in_bounds = off % WORD == 0 && u64::from(off) + u64::from(WORD) <= u64::from(size);
                if !in_bounds || prev.is_some_and(|p| off <= p) {
                    return Err(r.malformed());
                }
                prev = Some(off);
                offs.push(off);
            }
            descs.register(TypeDescriptor::new(name, size, offs));
        }
        // -- regions --
        r.section("regions");
        let n_regions = r.u32("regions")?;
        let mut regions = Vec::new();
        for i in 0..n_regions {
            let at = |field: &str| format!("region[{i}].{field}");
            let rc = r.i64(|| at("rc"))?;
            // Liveness byte 2 = parked mid-deletion; its phase payload
            // precedes the bump allocators in the stream, so decode it
            // first and translate it to page indices once the page
            // lists are known.
            let (mut marks, mut queue) = (Vec::new(), Vec::new());
            let mut liveness = match r.u8(|| at("live"))? {
                0 => Liveness::Dead,
                1 => Liveness::Live,
                2 => {
                    let phase = match r.u8(|| at("phase"))? {
                        0 => DeletePhase::ScanStack {
                            attempt_frames: r.u64(|| at("scan.attempt_frames"))?,
                            attempt_slots: r.u64(|| at("scan.attempt_slots"))?,
                        },
                        1 => {
                            let n = r.u32(|| at("cleanup.marks"))?;
                            if n >= (1 << 24) {
                                return Err(r.malformed());
                            }
                            for j in 0..n {
                                let mark = |part: &str| at(&format!("cleanup.mark[{j}].{part}"));
                                let p = r.u32(|| mark("page"))?;
                                let start = r.u32(|| mark("start"))?;
                                let cursor = r.u32(|| mark("cursor"))?;
                                let in_page = start <= cursor
                                    && cursor <= PAGE_SIZE
                                    && start % WORD == 0
                                    && cursor % WORD == 0;
                                if !page_ok(p) || !in_page {
                                    return Err(r.malformed());
                                }
                                marks.push((Addr::new(p), start, cursor));
                            }
                            DeletePhase::Cleanup { page: 0, cursor: 0 }
                        }
                        2 => {
                            let n = r.u32(|| at("return.pages"))?;
                            if n >= (1 << 24) {
                                return Err(r.malformed());
                            }
                            for j in 0..n {
                                let p = r.u32(|| at(&format!("return.page[{j}]")))?;
                                if !page_ok(p) {
                                    return Err(r.malformed());
                                }
                                queue.push(Addr::new(p));
                            }
                            DeletePhase::ReturnPages { page: 0 }
                        }
                        _ => return Err(r.malformed()),
                    };
                    Liveness::Parked(phase)
                }
                _ => return Err(r.malformed()),
            };
            let mut bumps = [BumpState::default(), BumpState::default()];
            for (b, bump) in bumps.iter_mut().zip(["normal", "string"]) {
                let n = r.u32(|| at(&format!("{bump}.pages")))?;
                for j in 0..n {
                    let page = |part: &str| at(&format!("{bump}.page[{j}].{part}"));
                    let p = r.u32(|| page("addr"))?;
                    let off = r.u32(|| page("start"))?;
                    if !page_ok(p) || off > PAGE_SIZE || off % WORD != 0 {
                        return Err(r.malformed());
                    }
                    b.pages.push((Addr::new(p), off));
                }
                b.alloc_from = r.u32(|| at(&format!("{bump}.alloc_from")))?;
                if b.alloc_from > PAGE_SIZE {
                    return Err(r.malformed());
                }
            }
            let [mut normal, string] = bumps;
            let bytes = r.u64(|| at("bytes"))?;
            let allocs = r.u64(|| at("allocs"))?;
            let listed = !normal.pages.is_empty() || !string.pages.is_empty();
            match &mut liveness {
                // A deleted region's pages are all back in the pool.
                Liveness::Dead if listed => return Err(r.malformed()),
                Liveness::Dead | Liveness::Live => {}
                // Only the page-return phase exists in unsafe mode (no
                // counts to prove or release).
                Liveness::Parked(phase)
                    if mode == SafetyMode::Unsafe
                        && !matches!(phase, DeletePhase::ReturnPages { .. }) =>
                {
                    return Err(r.malformed());
                }
                Liveness::Parked(DeletePhase::ScanStack { .. }) => {}
                Liveness::Parked(DeletePhase::Cleanup { page, cursor }) => {
                    // The mark stack is the still-unprocessed pages
                    // in reverse, so reversed it must be a suffix
                    // of the normal allocator's page list, and only
                    // the top mark may sit mid-page.
                    if marks.len() > normal.pages.len() {
                        return Err(r.malformed());
                    }
                    let tail = &normal.pages[normal.pages.len() - marks.len()..];
                    for (m, &(p, start)) in marks.iter().rev().zip(tail) {
                        if m.0 != p || m.1 != start {
                            return Err(r.malformed());
                        }
                    }
                    for m in &marks[..marks.len().saturating_sub(1)] {
                        if m.2 != m.1 {
                            return Err(r.malformed());
                        }
                    }
                    *page = (normal.pages.len() - marks.len()) as u32;
                    *cursor = marks.last().map_or(0, |m| m.2);
                }
                Liveness::Parked(DeletePhase::ReturnPages { .. }) => {
                    // Both allocators are written empty while pages
                    // return; the queue holds the pages still held, in
                    // reverse, which are returned from index 0 on.
                    if listed {
                        return Err(r.malformed());
                    }
                    normal.pages = queue.iter().rev().map(|&p| (p, 0)).collect();
                }
            }
            regions.push(RegionInfo { rc, liveness, normal, string, bytes, allocs });
        }
        // -- page pool and page map --
        r.section("page-pool");
        let n_free = r.u32("free_pages")?;
        let mut free_pages = Vec::new();
        for i in 0..n_free {
            let p = r.u32(|| format!("free_page[{i}]"))?;
            if !page_ok(p) {
                return Err(r.malformed());
            }
            free_pages.push(Addr::new(p));
        }
        r.section("page-map");
        let n_root = r.u32("map_root")?;
        let mut map_root = Vec::new();
        for i in 0..n_root {
            let c = r.opt_u32(|| format!("map_root[{i}]"))?;
            if let Some(c) = c {
                if !page_ok(c) {
                    return Err(r.malformed());
                }
            }
            map_root.push(c.map(Addr::new));
        }
        let n_mirror = r.u32("mirror")?;
        let mut map_mirror = Vec::new();
        for i in 0..n_mirror {
            let m = r.u32(|| format!("mirror[{i}]"))?;
            // `owner + 1` encoding: a nonzero entry must name a region.
            if m != 0 && u64::from(m) > u64::from(n_regions) {
                return Err(r.malformed());
            }
            map_mirror.push(m);
        }
        // Every page a region holds is its own in the map, every pooled
        // page is unowned, and no page is held twice: otherwise deleting
        // one region would unown a page another still allocates on.
        r.section("page-ownership");
        let cell = |p: Addr| map_mirror.get(p.page_index() as usize).copied().unwrap_or(0);
        let mut held: Vec<u32> = free_pages.iter().map(|p| p.raw()).collect();
        if free_pages.iter().any(|&p| cell(p) != 0) {
            return Err(r.malformed());
        }
        for (i, info) in regions.iter().enumerate() {
            // A decoded page return starts at index 0.
            for p in info.pages_from(0) {
                if cell(p) != i as u32 + 1 {
                    return Err(r.malformed());
                }
                held.push(p.raw());
            }
        }
        held.sort_unstable();
        if held.windows(2).any(|w| w[0] == w[1]) {
            return Err(r.malformed());
        }
        // -- stats and costs --
        r.section("stats");
        let stats = AllocStats {
            total_allocs: r.u64("stats.total_allocs")?,
            total_bytes: r.u64("stats.total_bytes")?,
            live_bytes: r.u64("stats.live_bytes")?,
            max_live_bytes: r.u64("stats.max_live_bytes")?,
            total_regions: r.u64("stats.total_regions")?,
            live_regions: r.u64("stats.live_regions")?,
            max_live_regions: r.u64("stats.max_live_regions")?,
            max_region_bytes: r.u64("stats.max_region_bytes")?,
        };
        r.section("costs");
        let costs = SafetyCosts {
            barriers_global: r.u64("costs.barriers_global")?,
            barriers_region: r.u64("costs.barriers_region")?,
            barriers_unknown: r.u64("costs.barriers_unknown")?,
            barriers_elided: r.u64("costs.barriers_elided")?,
            barrier_instrs: r.u64("costs.barrier_instrs")?,
            frames_scanned: r.u64("costs.frames_scanned")?,
            slots_scanned: r.u64("costs.slots_scanned")?,
            frames_unscanned: r.u64("costs.frames_unscanned")?,
            slots_unscanned: r.u64("costs.slots_unscanned")?,
            scan_instrs: r.u64("costs.scan_instrs")?,
            cleanup_objects: r.u64("costs.cleanup_objects")?,
            cleanup_ptrs: r.u64("costs.cleanup_ptrs")?,
            cleanup_pages: r.u64("costs.cleanup_pages")?,
            cleanup_instrs: r.u64("costs.cleanup_instrs")?,
            deletes: r.u64("costs.deletes")?,
            deletes_failed: r.u64("costs.deletes_failed")?,
        };
        // -- shadow stack --
        r.section("stack");
        let stack_base = r.u32("stack.base")?;
        let stack_slots = r.u32("stack.slots")?;
        let stack_end = u64::from(stack_base) + u64::from(stack_slots) * u64::from(WORD);
        if stack_base < floor || stack_base % WORD != 0 || stack_end > u64::from(brk) {
            return Err(r.malformed());
        }
        let n_frames = r.u32("stack.frames")?;
        let mut frames = Vec::new();
        for i in 0..n_frames {
            let base_slot = r.u32(|| format!("stack.frame[{i}].base_slot"))?;
            let n_slots = r.u32(|| format!("stack.frame[{i}].n_slots"))?;
            if u64::from(base_slot) + u64::from(n_slots) > u64::from(stack_slots) {
                return Err(r.malformed());
            }
            frames.push(Frame { base_slot, n_slots });
        }
        let top_slot = r.u32("stack.top_slot")?;
        if top_slot > stack_slots {
            return Err(r.malformed());
        }
        let hwm = r.u64("stack.hwm")? as usize;
        if hwm > frames.len() {
            return Err(r.malformed());
        }
        // -- OS-footprint accounting --
        r.section("footprint");
        let data_pages = r.u64("footprint.data_pages")?;
        let map_pages = r.u64("footprint.map_pages")?;
        let globals_pages = r.u64("footprint.globals_pages")?;
        // -- fault plan --
        r.section("fault-plan");
        let n_fail = r.u32("faults.fail_pages")?;
        let mut fail_pages = Vec::new();
        for i in 0..n_fail {
            fail_pages.push(r.u64(|| format!("faults.fail_page[{i}]"))?);
        }
        let mth = r.opt_u64("faults.every_mth_alloc")?;
        let one_in = r.opt_u64("faults.alloc_one_in")?;
        // Zero periods would divide by zero in `check_alloc`; the builders
        // reject them, so a snapshot containing one is corrupt.
        if mth == Some(0) || one_in == Some(0) {
            return Err(r.malformed());
        }
        let sbrk = r.opt_u64("faults.sbrk_after")?;
        let counters = [
            r.u64("faults.rng")?,
            r.u64("faults.pages_seen")?,
            r.u64("faults.allocs_seen")?,
            r.u64("faults.injected")?,
        ];
        let faults = FaultPlan::from_raw_state(fail_pages, mth, one_in, sbrk, counters);
        // -- recorded violations --
        r.section("violations");
        let n_viol = r.u32("violations")?;
        let mut violations = Vec::new();
        for i in 0..n_viol {
            let at = |field: &str| format!("violation[{i}].{field}");
            let v = match r.u8(|| at("tag"))? {
                0 => RcViolation::IncOfDeleted { region: RegionId(r.u32(|| at("region"))?) },
                1 => RcViolation::DecOfDeleted { region: RegionId(r.u32(|| at("region"))?) },
                2 => RcViolation::NegativeRc {
                    region: RegionId(r.u32(|| at("region"))?),
                    rc: r.i64(|| at("rc"))?,
                },
                3 => RcViolation::ElisionUnsound {
                    loc_region: r.opt_u32(|| at("loc_region"))?.map(RegionId),
                    value_region: r.opt_u32(|| at("value_region"))?.map(RegionId),
                },
                _ => return Err(r.malformed()),
            };
            violations.push(v);
        }
        // -- global pointer ledger --
        r.section("globals");
        let n_globals = r.u32("global_ptr_locs")?;
        let mut global_ptr_locs = BTreeSet::new();
        for i in 0..n_globals {
            let loc = r.u32(|| format!("global_ptr_loc[{i}]"))?;
            if loc % WORD != 0 || u64::from(loc) + u64::from(WORD) > u64::from(brk) {
                return Err(r.malformed());
            }
            global_ptr_locs.insert(loc);
        }
        Ok(RegionRuntime {
            heap,
            config,
            descs,
            regions,
            spare_lists: Vec::new(),
            free_pages,
            map_root,
            map_mirror: PageMirror::from_cells(map_mirror),
            stats,
            costs,
            stack_base: Addr::new(stack_base),
            stack_slots,
            frames,
            top_slot,
            hwm,
            data_pages,
            map_pages,
            globals_pages,
            faults,
            violations,
            global_ptr_locs,
            // Host-side tuning knobs and diagnostics are deliberately
            // not serialized: a restored runtime defaults to an unbounded
            // delete budget (the caller re-applies its own) and fresh
            // attribution.
            delete_budget: u64::MAX,
            scan_attr: ScanAttribution::default(),
        })
    }

    /// Restore gates shared by v1 snapshots and v2 world snapshots: the
    /// fully bounds-checked object re-walk, then a mandatory
    /// [`RegionRuntime::sanitize`] pass whose books must recompute —
    /// reference counts and the page-map mirror must agree with the
    /// decoded state. Violations recorded *before* capture are data and
    /// round-trip without tripping the gate.
    pub(crate) fn finish_restore(self) -> Result<Self, SnapshotError> {
        self.walk_objects(|_, _| {})
            .map_err(|_| SnapshotError::Malformed { section: "object-walk", offset: 0 })?;
        let report = self.sanitize();
        if !report.rc_mismatches.is_empty() || !report.mirror_mismatches.is_empty() {
            return Err(SnapshotError::SanitizeFailed {
                rc_mismatches: report.rc_mismatches.len(),
                mirror_mismatches: report.mirror_mismatches.len(),
            });
        }
        Ok(self)
    }
}

impl RegionRuntime {
    /// Serializes the runtime's *complete* observable state — heap image
    /// (pages with zero-page run-length elision, break, counters, fault
    /// budget), configuration, descriptor table, region table with both
    /// bump allocators, page pool, two-level page map and its host mirror,
    /// allocation statistics, safety costs, the shadow stack (frames,
    /// top slot, high-water mark), OS-footprint accounting, the
    /// fault-injection schedule *including its progress counters* (so a
    /// snapshot taken inside a fault window replays the remaining faults
    /// exactly), recorded violations, and the global pointer ledger — into
    /// a versioned `RSNP` byte stream.
    ///
    /// [`RegionRuntime::restore_snapshot`] rebuilds a runtime that is
    /// bit-identical to this one: continuing from the restored state
    /// produces the same addresses, digests, counters, trace suffix, and
    /// `sanitize()` verdict as the uninterrupted run, and
    /// re-capturing the restored runtime yields these exact bytes.
    ///
    /// # Panics
    ///
    /// Panics if a trace sink is attached to the heap (sinks are live
    /// host objects with no serial form); detach it first and re-attach
    /// after restore.
    pub fn capture_snapshot(&self) -> Vec<u8> {
        let image = self.heap.capture_image();
        let mut w = SnapWriter::new();
        w.raw(&SNAPSHOT_MAGIC);
        w.u32(SNAPSHOT_VERSION);
        // -- heap image --
        w.u64(image.config.max_bytes);
        w.opt_u64(image.config.sbrk_fault_after);
        w.u64(image.loads);
        w.u64(image.stores);
        let psize = PAGE_SIZE as usize;
        let n_pages = image.bytes.len() / psize;
        w.u32(n_pages as u32);
        for p in 0..n_pages {
            let page = &image.bytes[p * psize..(p + 1) * psize];
            if page.iter().all(|&b| b == 0) {
                w.u8(0); // zero page: one marker byte instead of 4 KB
            } else {
                w.u8(1);
                w.raw(page);
            }
        }
        self.write_snapshot_body(&mut w);
        w.into_bytes()
    }

    /// Rebuilds a runtime from [`RegionRuntime::capture_snapshot`] bytes.
    ///
    /// Untrusted input never panics: bad magic, an unknown version,
    /// truncation anywhere, unknown tags, structurally impossible values
    /// (out-of-range pages, invalid descriptors, a fault plan that would
    /// divide by zero), and trailing garbage are all rejected with a
    /// typed [`SnapshotError`]. Before the runtime is handed back it must
    /// pass two gates: a fully bounds-checked re-walk of every live
    /// region's objects (so corrupted object headers cannot fault a later
    /// cleanup or sanitize pass), and a mandatory
    /// [`RegionRuntime::sanitize`] pass whose books must recompute —
    /// reference counts and the page-map mirror must agree with the
    /// decoded state. Violations recorded *before* capture are data and
    /// round-trip without tripping the gate.
    ///
    /// The restored heap has no trace sink attached (callers re-attach
    /// after restore if they were tracing).
    pub fn restore_snapshot(bytes: &[u8]) -> Result<RegionRuntime, SnapshotError> {
        RegionRuntime::decode_snapshot(&mut SnapReader::new(bytes))?.finish_restore()
    }

    /// Decodes a whole v1 snapshot — header, heap image, the body of
    /// [`RegionRuntime::read_snapshot_body`], no trailing bytes — short
    /// of the restore gates. [`RegionRuntime::restore_snapshot`] runs it
    /// and then [`RegionRuntime::finish_restore`];
    /// [`snapshot_fields`](crate::snapshot_fields) runs it with the
    /// reader's field log on.
    pub(crate) fn decode_snapshot(r: &mut SnapReader<'_>) -> Result<RegionRuntime, SnapshotError> {
        if r.raw(4, "magic")? != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = r.u32("version")?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion { version });
        }
        // -- heap image --
        r.section("heap");
        let heap_config = HeapConfig {
            max_bytes: r.u64("heap.max_bytes")?,
            sbrk_fault_after: r.opt_u64("heap.sbrk_fault_after")?,
        };
        let loads = r.u64("heap.loads")?;
        let stores = r.u64("heap.stores")?;
        let n_pages = r.u32("heap.pages")?;
        let psize = PAGE_SIZE as usize;
        if (u64::from(n_pages) + 1) * u64::from(PAGE_SIZE) > u64::from(u32::MAX) {
            return Err(r.malformed());
        }
        let mut body = Vec::new();
        for p in 0..n_pages {
            match r.u8(|| format!("heap.page[{p}].tag"))? {
                0 => body.extend_from_slice(&[0; PAGE_SIZE as usize]),
                1 => body.extend_from_slice(r.raw(psize, || format!("heap.page[{p}]"))?),
                _ => return Err(r.malformed()),
            }
        }
        let heap = SimHeap::from_image(&HeapImage { config: heap_config, bytes: body, loads, stores });
        let rt = RegionRuntime::read_snapshot_body(r, heap, PAGE_SIZE)?;
        r.finish()?;
        Ok(rt)
    }
}

impl<H: HeapBackend> RegionRuntime<H> {
    /// The object walk shared by [`RegionRuntime::sanitize`] and restore:
    /// every object of every region that still holds counts, decoded
    /// from its header the way the cleanup scan does (Figure 7), with
    /// `field(owner, addr)` called for each pointer field. Returns the
    /// number of objects walked.
    ///
    /// Parked regions route by deletion phase: before or during the
    /// stack scan the region is still fully counted, so it walks like a
    /// live one; mid-cleanup only the unprocessed remainder (from the
    /// cleanup's page and cursor) still holds counts, since everything
    /// before the cursor has been released and no longer holds
    /// decodable objects; once only page returns remain the region
    /// contributes nothing.
    ///
    /// Every step is checked, so decoded heap bytes whose object headers
    /// are corrupt (a chaos bit-flip, say) stop the walk with the
    /// offending header's address instead of faulting it. The checks are
    /// exactly the invariants `try_bump`/`try_ralloc` establish, so a
    /// runtime's own heap always passes.
    fn walk_objects(&self, mut field: impl FnMut(RegionId, Addr)) -> Result<u64, Addr> {
        let mut objects = 0;
        for (i, info) in self.regions.iter().enumerate() {
            let (from, cursor) = match info.liveness {
                Liveness::Live | Liveness::Parked(DeletePhase::ScanStack { .. }) => (0, 0),
                Liveness::Parked(DeletePhase::Cleanup { page, cursor }) => (page as usize, cursor),
                Liveness::Parked(DeletePhase::ReturnPages { .. }) | Liveness::Dead => continue,
            };
            let owner = RegionId(i as u32);
            for (k, &(page, start)) in info.normal.pages.iter().enumerate().skip(from) {
                let start = if k == from { cursor.max(start) } else { start };
                let mut cur = page + start;
                let end = page + PAGE_SIZE;
                while cur + WORD <= end {
                    let hdr = self.heap.peek_u32(cur);
                    if hdr == 0 {
                        break;
                    }
                    objects += 1;
                    if hdr & ARRAY_FLAG != 0 {
                        let idx = hdr & !ARRAY_FLAG;
                        if idx == 0 || idx as usize > self.descs.len() || cur + 3 * WORD > end {
                            return Err(cur);
                        }
                        let desc = self.descs.get(DescId(idx - 1));
                        let n = self.heap.peek_u32(cur + WORD);
                        let stride = self.heap.peek_u32(cur + 2 * WORD);
                        let data = cur + 3 * WORD;
                        let span = u64::from(n) * u64::from(stride);
                        if stride != align_up(desc.size(), WORD)
                            || u64::from(data.raw()) + span > u64::from(end.raw())
                        {
                            return Err(cur);
                        }
                        for e in 0..n {
                            for &off in desc.ptr_offsets() {
                                field(owner, data + e * stride + off);
                            }
                        }
                        cur = data + span as u32;
                    } else {
                        if hdr as usize > self.descs.len() {
                            return Err(cur);
                        }
                        let desc = self.descs.get(DescId(hdr - 1));
                        let size = align_up(desc.size(), WORD);
                        let data = cur + WORD;
                        if u64::from(data.raw()) + u64::from(size) > u64::from(end.raw()) {
                            return Err(cur);
                        }
                        for &off in desc.ptr_offsets() {
                            field(owner, data + off);
                        }
                        cur = data + size;
                    }
                }
            }
        }
        Ok(objects)
    }
}

/// Decodes a strict boolean byte (0/1; anything else is malformed).
fn decode_bool(r: &mut SnapReader<'_>, name: &'static str) -> Result<bool, SnapshotError> {
    match r.u8(name)? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(r.malformed()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn list_desc(rt: &mut RegionRuntime) -> DescId {
        // struct list { int i; struct list @next; }
        rt.register_type(TypeDescriptor::new("list", 8, vec![4]))
    }

    #[test]
    fn figure1_loop_allocate_then_delete() {
        let mut rt = RegionRuntime::new_safe();
        let r = rt.new_region();
        for i in 0..10u32 {
            let x = rt.rstralloc(r, (i + 1) * 4);
            rt.heap_mut().store_u32(x, i * 7);
            assert_eq!(rt.heap_mut().load_u32(x), i * 7);
        }
        assert_eq!(rt.stats().total_allocs, 10);
        assert!(rt.delete_region(r));
        assert!(!rt.is_live(r));
        assert_eq!(rt.stats().live_bytes, 0);
    }

    #[test]
    fn ralloc_clears_memory() {
        let mut rt = RegionRuntime::new_safe();
        let d = list_desc(&mut rt);
        let r = rt.new_region();
        let a = rt.ralloc(r, d);
        assert_eq!(rt.heap_mut().load_u32(a), 0);
        assert_eq!(rt.heap_mut().load_u32(a + 4), 0);
    }

    #[test]
    fn region_of_identifies_owner() {
        let mut rt = RegionRuntime::new_safe();
        let d = list_desc(&mut rt);
        let r1 = rt.new_region();
        let r2 = rt.new_region();
        let a = rt.ralloc(r1, d);
        let b = rt.ralloc(r2, d);
        assert_eq!(rt.region_of(a), Some(r1));
        assert_eq!(rt.region_of(b), Some(r2));
        assert_eq!(rt.region_of(Addr::NULL), None);
        let g = rt.alloc_globals(16);
        assert_eq!(rt.region_of(g), None);
    }

    #[test]
    fn same_region_pointers_are_not_counted() {
        let mut rt = RegionRuntime::new_safe();
        let d = list_desc(&mut rt);
        let r = rt.new_region();
        let a = rt.ralloc(r, d);
        let b = rt.ralloc(r, d);
        rt.store_ptr_region(a + 4, b); // a.next = b, same region
        assert_eq!(rt.rc(r), 0);
        assert!(rt.delete_region(r)); // cycle-free same-region data deletes fine
    }

    #[test]
    fn cross_region_pointer_blocks_deletion() {
        let mut rt = RegionRuntime::new_safe();
        let d = list_desc(&mut rt);
        let r1 = rt.new_region();
        let r2 = rt.new_region();
        let a = rt.ralloc(r1, d);
        let b = rt.ralloc(r2, d);
        rt.store_ptr_region(a + 4, b); // r1 object points into r2
        assert_eq!(rt.rc(r2), 1);
        assert!(!rt.delete_region(r2), "deletion must fail: external ref exists");
        assert!(rt.is_live(r2));
        // Deleting r1 releases the count via cleanup...
        assert!(rt.delete_region(r1));
        assert_eq!(rt.rc(r2), 0);
        // ...after which r2 can be deleted.
        assert!(rt.delete_region(r2));
    }

    #[test]
    fn overwriting_pointer_moves_count() {
        let mut rt = RegionRuntime::new_safe();
        let d = list_desc(&mut rt);
        let r1 = rt.new_region();
        let r2 = rt.new_region();
        let r3 = rt.new_region();
        let a = rt.ralloc(r1, d);
        let b = rt.ralloc(r2, d);
        let c = rt.ralloc(r3, d);
        rt.store_ptr_region(a + 4, b);
        assert_eq!((rt.rc(r2), rt.rc(r3)), (1, 0));
        rt.store_ptr_region(a + 4, c); // overwrite: r2 count drops, r3 rises
        assert_eq!((rt.rc(r2), rt.rc(r3)), (0, 1));
        rt.store_ptr_region(a + 4, Addr::NULL);
        assert_eq!((rt.rc(r2), rt.rc(r3)), (0, 0));
    }

    #[test]
    fn global_pointer_blocks_and_releases() {
        let mut rt = RegionRuntime::new_safe();
        let d = list_desc(&mut rt);
        let g = rt.alloc_globals(WORD);
        let r = rt.new_region();
        let a = rt.ralloc(r, d);
        rt.store_ptr_global(g, a);
        assert_eq!(rt.rc(r), 1);
        assert!(!rt.delete_region(r));
        rt.store_ptr_global(g, Addr::NULL); // clear the stale global (as mudlle required!)
        assert_eq!(rt.rc(r), 0);
        assert!(rt.delete_region(r));
    }

    #[test]
    fn cycles_within_a_region_are_collected() {
        let mut rt = RegionRuntime::new_safe();
        let d = list_desc(&mut rt);
        let r = rt.new_region();
        let a = rt.ralloc(r, d);
        let b = rt.ralloc(r, d);
        rt.store_ptr_region(a + 4, b);
        rt.store_ptr_region(b + 4, a); // cycle
        assert!(rt.delete_region(r), "cycles within one region must not block deletion");
    }

    #[test]
    fn cleanup_releases_array_elements() {
        let mut rt = RegionRuntime::new_safe();
        let d = list_desc(&mut rt);
        let r1 = rt.new_region();
        let r2 = rt.new_region();
        let arr = rt.rarrayalloc(r1, 5, d);
        let target = rt.ralloc(r2, d);
        for i in 0..5u32 {
            rt.store_ptr_region(arr + i * 8 + 4, target);
        }
        assert_eq!(rt.rc(r2), 5);
        assert!(rt.delete_region(r1));
        assert_eq!(rt.rc(r2), 0);
    }

    #[test]
    fn unsafe_mode_ignores_counts() {
        let mut rt = RegionRuntime::new_unsafe();
        let d = list_desc(&mut rt);
        let r1 = rt.new_region();
        let r2 = rt.new_region();
        let a = rt.ralloc(r1, d);
        let b = rt.ralloc(r2, d);
        rt.store_ptr_region(a + 4, b);
        assert_eq!(rt.rc(r2), 0, "unsafe mode maintains no counts");
        assert!(rt.delete_region(r2), "unsafe deletion is unconditional");
        assert_eq!(rt.costs().total_instrs(), 0);
    }

    #[test]
    fn unsafe_mode_has_no_headers() {
        // Two identical allocation sequences; unsafe mode must use
        // strictly less page space for header-bearing objects.
        let mut safe = RegionRuntime::new_safe();
        let mut unsf = RegionRuntime::new_unsafe();
        let ds = list_desc(&mut safe);
        let du = list_desc(&mut unsf);
        let rs = safe.new_region();
        let ru = unsf.new_region();
        // 1024 8-byte objects with 4-byte headers need more pages than
        // 1024 header-less ones.
        for _ in 0..1024 {
            safe.ralloc(rs, ds);
            unsf.ralloc(ru, du);
        }
        assert!(safe.data_pages() > unsf.data_pages());
    }

    #[test]
    fn recycled_dirty_pages_do_not_confuse_cleanup() {
        // Regression: fill string pages with non-zero data, delete the
        // region, then let a fresh region adopt a dirty page as its first
        // normal page without ever allocating on it. Its deletion must
        // still scan cleanly (null marker written at creation).
        let mut rt = RegionRuntime::new_safe();
        let a = rt.new_region();
        for _ in 0..8 {
            let s = rt.rstralloc(a, 4000);
            rt.heap_mut().fill(s, 4000, 0xE3); // plausible garbage headers
        }
        assert!(rt.delete_region(a));
        for _ in 0..8 {
            let b = rt.new_region(); // adopts recycled dirty pages
            assert!(rt.delete_region(b), "cleanup must not read stale data");
        }
    }

    #[test]
    fn pages_are_recycled_after_delete() {
        let mut rt = RegionRuntime::new_safe();
        let r1 = rt.new_region();
        for _ in 0..100 {
            rt.rstralloc(r1, 1024);
        }
        let pages_after_r1 = rt.data_pages();
        assert!(rt.delete_region(r1));
        let r2 = rt.new_region();
        for _ in 0..100 {
            rt.rstralloc(r2, 1024);
        }
        assert_eq!(rt.data_pages(), pages_after_r1, "freed pages must be reused");
        assert!(rt.delete_region(r2));
    }

    #[test]
    fn stagger_offsets_first_allocations() {
        let mut rt = RegionRuntime::with_config(RegionConfig::default());
        let d = list_desc(&mut rt);
        let r0 = rt.new_region();
        let r1 = rt.new_region();
        let a0 = rt.ralloc(r0, d);
        let a1 = rt.ralloc(r1, d);
        assert_eq!(a0.page_offset(), 4); // header word first
        assert_eq!(a1.page_offset(), 64 + 4);
        let mut plain = RegionRuntime::with_config(RegionConfig { stagger: false, ..RegionConfig::default() });
        let d = list_desc(&mut plain);
        let r0 = plain.new_region();
        let r1 = plain.new_region();
        assert_eq!(plain.ralloc(r0, d).page_offset(), 4);
        assert_eq!(plain.ralloc(r1, d).page_offset(), 4);
    }

    #[test]
    #[should_panic(expected = "exceeds one page")]
    fn oversized_allocation_panics() {
        let mut rt = RegionRuntime::new_safe();
        let r = rt.new_region();
        rt.rstralloc(r, PAGE_SIZE + 1);
    }

    #[test]
    #[should_panic(expected = "double delete")]
    fn double_delete_panics() {
        let mut rt = RegionRuntime::new_unsafe();
        let r = rt.new_region();
        assert!(rt.delete_region(r));
        rt.delete_region(r);
    }

    #[test]
    #[should_panic(expected = "use of deleted region")]
    fn alloc_in_deleted_region_panics() {
        let mut rt = RegionRuntime::new_unsafe();
        let r = rt.new_region();
        rt.delete_region(r);
        rt.rstralloc(r, 8);
    }

    #[test]
    fn failed_delete_frees_nothing() {
        let mut rt = RegionRuntime::new_safe();
        let d = list_desc(&mut rt);
        let g = rt.alloc_globals(WORD);
        let r = rt.new_region();
        let a = rt.ralloc(r, d);
        rt.heap_mut().store_u32(a, 42);
        rt.store_ptr_global(g, a);
        let live = rt.stats().live_bytes;
        assert!(!rt.delete_region(r));
        assert_eq!(rt.stats().live_bytes, live);
        assert_eq!(rt.heap_mut().load_u32(a), 42, "object must be untouched");
        assert_eq!(rt.costs().deletes_failed, 1);
    }

    #[test]
    fn string_allocations_use_separate_pages() {
        let mut rt = RegionRuntime::new_safe();
        let d = list_desc(&mut rt);
        let r = rt.new_region();
        let a = rt.ralloc(r, d);
        let s = rt.rstralloc(r, 16);
        assert_ne!(a.page_base(), s.page_base(), "normal and string allocators use distinct pages");
        assert_eq!(rt.region_of(s), Some(r));
        assert!(rt.delete_region(r));
    }

    #[test]
    fn table2_statistics_track_regions() {
        let mut rt = RegionRuntime::new_safe();
        let r1 = rt.new_region();
        let r2 = rt.new_region();
        rt.rstralloc(r1, 100);
        rt.rstralloc(r1, 100);
        rt.rstralloc(r2, 50);
        assert_eq!(rt.stats().total_regions, 2);
        assert_eq!(rt.stats().max_live_regions, 2);
        assert_eq!(rt.stats().max_region_bytes, 200);
        assert_eq!(rt.stats().total_bytes, 252);
        assert!(rt.delete_region(r1));
        assert_eq!(rt.stats().live_bytes, 52);
        assert_eq!(rt.stats().live_regions, 1);
    }

    #[test]
    fn barrier_instruction_costs_match_figure5() {
        let mut rt = RegionRuntime::new_safe();
        let d = list_desc(&mut rt);
        let g = rt.alloc_globals(WORD);
        let r = rt.new_region();
        let a = rt.ralloc(r, d);
        rt.store_ptr_global(g, a);
        assert_eq!(rt.costs().barrier_instrs, 16);
        rt.store_ptr_region(a + 4, a);
        assert_eq!(rt.costs().barrier_instrs, 16 + 23);
        rt.store_ptr_unknown(g, Addr::NULL);
        assert_eq!(rt.costs().barrier_instrs, 16 + 23 + 31);
        assert_eq!(rt.costs().barriers_global, 1);
        assert_eq!(rt.costs().barriers_region, 1);
        assert_eq!(rt.costs().barriers_unknown, 1);
    }

    #[test]
    fn elided_store_is_cheap_and_sanitize_stays_clean() {
        let mut rt = RegionRuntime::new_safe();
        let d = list_desc(&mut rt);
        let g = rt.alloc_globals(WORD);
        let r = rt.new_region();
        let a = rt.ralloc(r, d);
        let b = rt.ralloc(r, d);
        // Same-region field store: no count moves, 2 instrs, no old-value load.
        let l0 = rt.heap().load_count();
        rt.store_ptr_region_same(a + 4, b);
        assert_eq!(rt.heap().load_count() - l0, 1, "only the value's page-map classify");
        rt.store_ptr_region_same(b + 4, Addr::NULL);
        // Null global store: no count moves either.
        rt.store_ptr_global_norc(g, Addr::NULL);
        assert_eq!(rt.costs().barriers_elided, 3);
        assert_eq!(rt.costs().barrier_instrs, 3 * ELIDED_WRITE_INSTRS);
        assert_eq!(rt.rc(r), 0, "intra-region references are uncounted");
        let rep = rt.sanitize();
        assert!(rep.is_clean(), "{rep}");
        assert_eq!(rep.global_locs_walked, 1, "elided global loc still audited");
        rt.store_ptr_region_same(a + 4, Addr::NULL);
        assert!(rt.delete_region(r));
        assert!(rt.sanitize().is_clean());
    }

    #[test]
    fn unsound_elision_is_recorded_and_falls_back_to_the_barrier() {
        let mut rt = RegionRuntime::new_safe();
        let d = list_desc(&mut rt);
        let g = rt.alloc_globals(WORD);
        let r1 = rt.new_region();
        let r2 = rt.new_region();
        let a = rt.ralloc(r1, d);
        let b = rt.ralloc(r2, d);
        // Cross-region value through the "same-region" entry point: the
        // claim is false; the runtime records it and keeps counts exact.
        rt.store_ptr_region_same(a + 4, b);
        assert_eq!(rt.rc(r2), 1, "fallback barrier still moved the count");
        rt.store_ptr_global_norc(g, a);
        assert_eq!(rt.rc(r1), 1);
        assert_eq!(rt.costs().barriers_elided, 0);
        let rep = rt.sanitize();
        assert!(!rep.is_clean());
        assert_eq!(
            rep.violations,
            [
                RcViolation::ElisionUnsound { loc_region: Some(r1), value_region: Some(r2) },
                RcViolation::ElisionUnsound { loc_region: None, value_region: Some(r1) },
            ]
        );
        assert!(rep.rc_mismatches.is_empty(), "counts themselves stayed exact");
    }

    #[test]
    fn page_map_mirror_stays_consistent() {
        let mut rt = RegionRuntime::new_safe();
        let d = list_desc(&mut rt);
        let mut live = Vec::new();
        for round in 0..6 {
            let r = rt.new_region();
            for _ in 0..(round * 300) {
                rt.ralloc(r, d);
            }
            live.push(r);
            if round % 2 == 1 {
                let victim = live.remove(0);
                assert!(rt.delete_region(victim));
            }
            let rep = rt.sanitize();
            assert!(rep.mirror_mismatches.is_empty() && rep.mirror_entries_checked > 0);
        }
        for r in live {
            assert!(rt.delete_region(r));
            assert!(rt.sanitize().mirror_mismatches.is_empty());
        }
    }

    #[test]
    fn region_of_charges_one_load_untraced() {
        let mut rt = RegionRuntime::new_safe();
        let d = list_desc(&mut rt);
        let r = rt.new_region();
        let a = rt.ralloc(r, d);
        let l0 = rt.heap().load_count();
        assert_eq!(rt.region_of(a), Some(r));
        assert_eq!(rt.heap().load_count() - l0, 1, "regionof is one page-map load");
        // Unmapped chunk: no load at all, same as the in-heap walk.
        let l1 = rt.heap().load_count();
        assert_eq!(rt.region_of(Addr::new(0xF000_0000)), None);
        assert_eq!(rt.heap().load_count(), l1);
    }

    /// The simulated loads and stores each barrier kind charges, pinned,
    /// untraced and traced alike: the host mirror must charge exactly the
    /// page-map loads the in-heap walk performs, in debug builds too.
    #[test]
    fn every_barrier_kind_charges_its_pinned_loads_and_stores() {
        type Store = fn(&mut RegionRuntime, Addr, Addr);
        let region: Store = RegionRuntime::store_ptr_region;
        let same: Store = RegionRuntime::store_ptr_region_same;
        let global: Store = RegionRuntime::store_ptr_global;
        let norc: Store = RegionRuntime::store_ptr_global_norc;
        let unknown: Store = RegionRuntime::store_ptr_unknown;
        let run = |traced: bool| {
            let mut rt = RegionRuntime::new_safe();
            let d = list_desc(&mut rt);
            let g = rt.alloc_globals(2 * WORD);
            let (r1, r2) = (rt.new_region(), rt.new_region());
            let (a, b, c) = (rt.ralloc(r1, d), rt.ralloc(r2, d), rt.ralloc(r1, d));
            rt.push_frame(1);
            let slot = rt.stack_base;
            // (what, barrier, location, value, loads, stores)
            let cases: [(&str, Store, Addr, Addr, u64, u64); 10] = [
                ("region, old null", region, a + 4, b, 3, 1),
                ("region, old == new", region, a + 4, b, 2, 1),
                ("region, value on the location's page", region, a + 4, c, 4, 1),
                ("global, old null", global, g, b, 2, 1),
                ("global, new null", global, g, Addr::NULL, 2, 1),
                ("unknown, global storage", unknown, g, a, 3, 1),
                ("unknown, region", unknown, c + 4, b, 3, 1),
                ("unknown, unscanned stack slot", unknown, slot, a, 0, 1),
                ("sameregion", same, b + 4, b, 1, 1),
                ("global norc, null", norc, g + WORD, Addr::NULL, 0, 1),
            ];
            let mut charged = Vec::new();
            for (what, store, loc, v, loads, stores) in cases {
                if traced {
                    rt.heap_mut().attach_sink(Box::new(simheap::RecordingSink::default()));
                }
                let (l0, s0) = (rt.heap().load_count(), rt.heap().store_count());
                store(&mut rt, loc, v);
                let got = (rt.heap().load_count() - l0, rt.heap().store_count() - s0);
                assert_eq!(got, (loads, stores), "{what} (traced: {traced})");
                if traced {
                    let sink = rt.heap_mut().detach_sink().expect("a sink is attached");
                    let log = sink.into_any().downcast::<simheap::RecordingSink>().expect("a recorder");
                    let reads = log.log.iter().filter(|x| x.kind == simheap::AccessKind::Read).count();
                    let seen = (reads as u64, (log.log.len() - reads) as u64);
                    assert_eq!(seen, got, "{what}: the sink saw");
                }
                charged.push(got);
            }
            charged
        };
        assert_eq!(run(false), run(true));

        // Unsafe mode: every barrier is a plain store.
        let mut rt = RegionRuntime::new_unsafe();
        let d = list_desc(&mut rt);
        let g = rt.alloc_globals(WORD);
        let r = rt.new_region();
        let a = rt.ralloc(r, d);
        for (store, loc) in [(region, a + 4), (same, a + 4), (global, g), (norc, g), (unknown, g)] {
            let (l0, s0) = (rt.heap().load_count(), rt.heap().store_count());
            store(&mut rt, loc, a);
            assert_eq!((rt.heap().load_count() - l0, rt.heap().store_count() - s0), (0, 1));
        }
    }

    #[test]
    fn self_overwrite_barrier_moves_no_counts() {
        let mut rt = RegionRuntime::new_safe();
        let d = list_desc(&mut rt);
        let g = rt.alloc_globals(WORD);
        let r = rt.new_region();
        let a = rt.ralloc(r, d);
        rt.store_ptr_global(g, a);
        assert_eq!(rt.rc(r), 1);
        let l0 = rt.heap().load_count();
        rt.store_ptr_unknown(g, a); // overwrite with itself
        assert_eq!(rt.rc(r), 1, "rc unchanged by self-overwrite");
        // classify loc (1 load) + read old value (1); the old == new
        // fast-out skips both barrier page-map lookups
        assert_eq!(rt.heap().load_count() - l0, 2);
        rt.store_ptr_global(g, Addr::NULL);
        assert!(rt.delete_region(r));
    }

    #[test]
    fn sanitize_is_clean_after_mixed_operations() {
        let mut rt = RegionRuntime::new_safe();
        let d = list_desc(&mut rt);
        let g = rt.alloc_globals(4 * WORD);
        let r1 = rt.new_region();
        let r2 = rt.new_region();
        let a = rt.ralloc(r1, d);
        let b = rt.ralloc(r2, d);
        let arr = rt.rarrayalloc(r1, 5, d);
        rt.rstralloc(r2, 100);
        rt.store_ptr_region(a + 4, b); // cross-region: rc(r2) += 1
        rt.store_ptr_region(arr + 2 * 8 + 4, b); // rc(r2) += 1
        rt.store_ptr_global(g, a); // rc(r1) += 1
        rt.push_frame(2);
        rt.set_local(0, b);
        assert!(!rt.delete_region(r2), "blocked by two object fields");
        // The failed delete scanned and unscanned; counts stay exact.
        let rep = rt.sanitize();
        assert!(rep.is_clean(), "{rep}");
        assert!(rep.objects_walked >= 3);
        assert!(rep.ptr_fields_walked >= 7, "list + 5 array elems + list");
        assert_eq!(rep.global_locs_walked, 1);
        assert_eq!(rep.live_regions, 2);
        // Clear the refs, delete everything, audit again.
        rt.set_local(0, Addr::NULL);
        rt.store_ptr_global(g, Addr::NULL);
        rt.store_ptr_region(a + 4, Addr::NULL);
        rt.store_ptr_region(arr + 2 * 8 + 4, Addr::NULL);
        assert!(rt.delete_region(r2));
        assert!(rt.delete_region(r1));
        rt.pop_frame();
        let rep = rt.sanitize();
        assert!(rep.is_clean(), "{rep}");
        assert_eq!(rep.live_regions, 0);
    }

    #[test]
    fn sanitize_counts_scanned_frames_only() {
        let mut rt = RegionRuntime::new_safe();
        let d = list_desc(&mut rt);
        let r = rt.new_region();
        let a = rt.ralloc(r, d);
        rt.push_frame(1); // caller
        rt.set_local(0, a);
        rt.push_frame(1); // callee
        assert!(!rt.delete_region(r), "caller's local blocks");
        // Caller frame is scanned (hwm = 1): one counted slot.
        let rep = rt.sanitize();
        assert!(rep.is_clean(), "{rep}");
        assert_eq!(rep.stack_slots_walked, 1);
        rt.pop_frame();
        rt.pop_frame();
        let rep = rt.sanitize();
        assert!(rep.is_clean(), "{rep}");
        assert_eq!(rep.stack_slots_walked, 0);
    }

    #[test]
    fn sanitize_catches_a_barrier_bypass() {
        // Storing a cross-region pointer with a *plain* store (the misuse
        // the paper's compiler prevents) leaves the incremental rc behind
        // reality; the audit must notice.
        let mut rt = RegionRuntime::new_safe();
        let d = list_desc(&mut rt);
        let r1 = rt.new_region();
        let r2 = rt.new_region();
        let a = rt.ralloc(r1, d);
        let b = rt.ralloc(r2, d);
        rt.heap_mut().store_u32(a + 4, b.raw()); // bypasses store_ptr_region
        let rep = rt.sanitize();
        assert!(!rep.is_clean());
        assert_eq!(
            rep.rc_mismatches,
            vec![RcMismatch { region: r2, recorded: 0, recomputed: 1 }]
        );
    }

    #[test]
    fn sanitize_reports_recorded_violations() {
        let mut rt = RegionRuntime::new_safe();
        let r = rt.new_region();
        assert!(rt.delete_region(r));
        rt.dec_rc(r); // misuse: recorded, not fatal
        rt.inc_rc(r);
        assert_eq!(
            rt.violations(),
            &[RcViolation::DecOfDeleted { region: r }, RcViolation::IncOfDeleted { region: r }]
        );
        let rep = rt.sanitize();
        assert!(!rep.is_clean());
        assert_eq!(rep.violations.len(), 2);
    }

    #[test]
    fn injected_alloc_faults_are_periodic_and_side_effect_free() {
        let mut rt = RegionRuntime::new_safe();
        let d = list_desc(&mut rt);
        let r = rt.new_region();
        rt.set_fault_plan(FaultPlan::new().fail_every_mth_alloc(3));
        let mut failed = 0;
        for i in 1..=9u32 {
            let before = *rt.stats();
            match rt.try_ralloc(r, d) {
                Ok(_) => {}
                Err(RegionError::FaultInjected { site: FaultSite::Allocation, count }) => {
                    failed += 1;
                    assert_eq!(count % 3, 0, "every 3rd attempt fails, got #{count}");
                    assert_eq!(rt.stats().total_allocs, before.total_allocs, "fault is a no-op");
                }
                Err(e) => panic!("unexpected {e} at alloc {i}"),
            }
            let rep = rt.sanitize();
            assert!(rep.is_clean(), "{rep}");
        }
        assert_eq!(failed, 3);
        assert_eq!(rt.fault_plan().injected(), 3);
        rt.clear_fault_plan();
        rt.try_ralloc(r, d).expect("faults cleared");
        assert!(rt.delete_region(r));
    }

    #[test]
    fn simulated_oom_is_typed_and_survivable() {
        let mut rt = RegionRuntime::with_config(RegionConfig {
            heap: simheap::HeapConfig { max_bytes: 300 * 4096, ..simheap::HeapConfig::default() },
            stack_pages: 16,
            ..RegionConfig::default()
        });
        let r = rt.new_region();
        let mut oom = None;
        for _ in 0..4096 {
            match rt.try_rstralloc(r, 4096) {
                Ok(_) => {}
                Err(e) => {
                    oom = Some(e);
                    break;
                }
            }
        }
        assert!(
            matches!(oom, Some(RegionError::OutOfMemory { .. })),
            "expected typed OOM, got {oom:?}"
        );
        // The runtime survives: the region is intact, auditable, deletable.
        let rep = rt.sanitize();
        assert!(rep.is_clean(), "{rep}");
        assert!(rt.delete_region(r));
        // ...and freed pages make allocation work again.
        let r2 = rt.new_region();
        rt.try_rstralloc(r2, 4096).expect("recycled pages after OOM");
    }

    #[test]
    fn faulted_new_region_leaves_no_half_created_region() {
        let mut rt = RegionRuntime::new_safe();
        let total_before = rt.stats().total_regions;
        rt.set_fault_plan(FaultPlan::new().fail_page_acquisition(1));
        let err = rt.try_new_region().unwrap_err();
        assert!(matches!(
            err,
            RegionError::FaultInjected { site: FaultSite::PageAcquisition, count: 1 }
        ));
        assert_eq!(rt.stats().total_regions, total_before);
        assert!(rt.sanitize().is_clean());
        let r = rt.try_new_region().expect("only the first acquisition faults");
        assert!(rt.delete_region(r));
    }

    #[test]
    fn store_ptr_unknown_classifies_all_targets() {
        let mut rt = RegionRuntime::new_safe();
        let d = list_desc(&mut rt);
        let g = rt.alloc_globals(WORD);
        let r1 = rt.new_region();
        let r2 = rt.new_region();
        let a = rt.ralloc(r1, d);
        let b = rt.ralloc(r2, d);
        // global location
        rt.store_ptr_unknown(g, a);
        assert_eq!(rt.rc(r1), 1);
        // region location (sameregion: no count)
        rt.store_ptr_unknown(a + 4, a);
        assert_eq!(rt.rc(r1), 1);
        // region location, cross-region
        rt.store_ptr_unknown(a + 4, b);
        assert_eq!(rt.rc(r2), 1);
        rt.store_ptr_unknown(g, Addr::NULL);
        assert_eq!(rt.rc(r1), 0);
    }

    /// Builds a runtime mid-flight: live and dead regions, cross-region and
    /// same-region pointers, arrays, string allocations, globals, unscanned
    /// frames, a blocked delete, and a half-consumed seeded fault plan.
    fn busy_runtime() -> (RegionRuntime, RegionId, RegionId, DescId) {
        let mut rt = RegionRuntime::new_safe();
        let d = list_desc(&mut rt);
        rt.set_fault_plan(FaultPlan::seeded(11).fail_allocs_one_in(37));
        let g = rt.alloc_globals(4 * WORD);
        let r1 = rt.new_region();
        let r2 = rt.new_region();
        let dead = rt.new_region();
        let mut last = Addr::NULL;
        for _ in 0..120 {
            if let Ok(a) = rt.try_ralloc(r1, d) {
                if last != Addr::NULL {
                    rt.store_ptr_region_same(a + 4, last);
                }
                last = a;
            }
        }
        let arr = rt.rarrayalloc(r2, 16, d);
        let b = rt.ralloc(r2, d);
        rt.store_ptr_region(arr + 4, last); // r2 array -> r1
        rt.store_ptr_global(g, b); // global -> r2
        let _s = rt.rstralloc(r1, 1000);
        let _ = rt.try_rstralloc(dead, 64);
        assert!(rt.delete_region(dead));
        assert!(!rt.delete_region(r1), "r2 still points into r1");
        rt.push_frame(6);
        rt.set_local(0, b);
        rt.push_frame(2); // above the high-water mark once scanned
        (rt, r1, r2, d)
    }

    #[test]
    fn snapshot_round_trips_bit_identically() {
        let (rt, _, _, _) = busy_runtime();
        let bytes = rt.capture_snapshot();
        let restored = RegionRuntime::restore_snapshot(&bytes).expect("clean snapshot restores");
        assert_eq!(
            restored.capture_snapshot(),
            bytes,
            "capture(restore(s)) must be byte-for-byte s"
        );
    }

    #[test]
    fn restored_runtime_continues_identically() {
        let (mut a, r1, r2, d) = busy_runtime();
        let bytes = a.capture_snapshot();
        let mut b = RegionRuntime::restore_snapshot(&bytes).unwrap();
        // Drive both runtimes through the same op suffix; every observable
        // — addresses, errors, counters, fault dice, sanitize verdict —
        // must match the uninterrupted run.
        for rt in [&mut a, &mut b] {
            for i in 0..200u32 {
                match rt.try_ralloc(if i % 3 == 0 { r2 } else { r1 }, d) {
                    Ok(x) => rt.store_ptr_unknown(x + 4, x),
                    Err(e) => assert!(matches!(e, RegionError::FaultInjected { .. })),
                }
            }
            rt.pop_frame();
            let _ = rt.try_delete_region(r2);
        }
        assert_eq!(a.heap().load_count(), b.heap().load_count());
        assert_eq!(a.heap().store_count(), b.heap().store_count());
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.costs(), b.costs());
        assert_eq!(a.fault_plan().injected(), b.fault_plan().injected());
        assert_eq!(a.rc(r1), b.rc(r1));
        assert_eq!(a.sanitize().is_clean(), b.sanitize().is_clean());
        assert_eq!(a.capture_snapshot(), b.capture_snapshot());
    }

    #[test]
    fn truncation_at_every_prefix_is_rejected_without_panic() {
        let (rt, _, _, _) = busy_runtime();
        let bytes = rt.capture_snapshot();
        // Exhaustive over section boundaries and cheap enough to run over
        // every single prefix length.
        for n in 0..bytes.len() {
            let err = RegionRuntime::restore_snapshot(&bytes[..n])
                .expect_err("a strict prefix can never be a valid snapshot");
            assert!(
                matches!(err, SnapshotError::Truncated { .. } | SnapshotError::Malformed { .. }),
                "prefix of {n} bytes gave unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn bit_flips_never_panic() {
        let (rt, _, _, _) = busy_runtime();
        let bytes = rt.capture_snapshot();
        let stride = (bytes.len() / 997).max(1);
        for i in (0..bytes.len()).step_by(stride) {
            for bit in [0u8, 3, 7] {
                let mut c = bytes.clone();
                c[i] ^= 1 << bit;
                // Either a typed rejection or a state that restores and
                // still satisfies the gates (a flip in unreferenced heap
                // bytes can be benign). Never a panic.
                let _ = RegionRuntime::restore_snapshot(&c);
            }
        }
    }

    #[test]
    fn bad_magic_and_version_are_typed() {
        let (rt, _, _, _) = busy_runtime();
        let mut bytes = rt.capture_snapshot();
        assert_eq!(
            RegionRuntime::restore_snapshot(b"NOPE").unwrap_err(),
            SnapshotError::BadMagic
        );
        bytes[0] ^= 0xFF;
        assert_eq!(
            RegionRuntime::restore_snapshot(&bytes).unwrap_err(),
            SnapshotError::BadMagic
        );
        bytes[0] ^= 0xFF;
        bytes[4] = 0xFE; // version 254
        assert_eq!(
            RegionRuntime::restore_snapshot(&bytes).unwrap_err(),
            SnapshotError::UnsupportedVersion { version: 0xFE }
        );
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let (rt, _, _, _) = busy_runtime();
        let mut bytes = rt.capture_snapshot();
        bytes.extend_from_slice(b"xx");
        assert_eq!(
            RegionRuntime::restore_snapshot(&bytes).unwrap_err(),
            SnapshotError::TrailingBytes { extra: 2 }
        );
    }

    #[test]
    fn doctored_books_fail_the_sanitize_gate() {
        let (rt, _, _, _) = busy_runtime();
        let bytes = rt.capture_snapshot();
        // Re-encode with one region's rc inflated: structurally valid, so
        // only the mandatory post-restore sanitize pass can catch it.
        let region_sec = {
            let mut r = SnapReader::new(&bytes);
            r.raw(4, "_").unwrap();
            r.u32("_").unwrap(); // version
            // skip heap: config(u64+opt)+loads+stores+pages
            r.u64("_").unwrap();
            r.opt_u64("_").unwrap();
            r.u64("_").unwrap();
            r.u64("_").unwrap();
            let n_pages = r.u32("_").unwrap();
            for _ in 0..n_pages {
                if r.u8("_").unwrap() == 1 {
                    r.raw(PAGE_SIZE as usize, "_").unwrap();
                }
            }
            // skip config
            r.u8("_").unwrap();
            r.u8("_").unwrap();
            r.u8("_").unwrap();
            r.u32("_").unwrap();
            r.u64("_").unwrap();
            r.opt_u64("_").unwrap();
            // skip descriptors
            let n_descs = r.u32("_").unwrap();
            for _ in 0..n_descs {
                r.bytes("_").unwrap();
                r.u32("_").unwrap();
                let n = r.u32("_").unwrap();
                for _ in 0..n {
                    r.u32("_").unwrap();
                }
            }
            r.u32("_").unwrap(); // region count
            r.offset() // first region's rc starts here
        };
        let mut doctored = bytes.clone();
        doctored[region_sec] = doctored[region_sec].wrapping_add(5);
        assert!(matches!(
            RegionRuntime::restore_snapshot(&doctored),
            Err(SnapshotError::SanitizeFailed { .. })
        ));
    }

    #[test]
    fn violations_round_trip_without_tripping_the_gate() {
        let mut rt = RegionRuntime::new_safe();
        let r = rt.new_region();
        assert!(rt.delete_region(r));
        rt.inc_rc(r); // recorded as IncOfDeleted, not a panic
        assert_eq!(rt.violations().len(), 1);
        let bytes = rt.capture_snapshot();
        let restored = RegionRuntime::restore_snapshot(&bytes)
            .expect("recorded violations are data, not inconsistency");
        assert_eq!(restored.violations(), rt.violations());
        assert_eq!(restored.capture_snapshot(), bytes);
    }

    /// A runtime with one deletable multi-page region full of
    /// cross-region and same-region pointers, an array, string pages,
    /// and scanned/unscanned stack frames — everything the deletion
    /// state machine has to get right.
    fn deletion_workload(budget: u64) -> (RegionRuntime, RegionId, RegionId) {
        let mut rt = RegionRuntime::new_safe();
        let d = list_desc(&mut rt);
        rt.set_delete_budget(budget);
        let keep = rt.new_region();
        let doomed = rt.new_region();
        let k = rt.ralloc(keep, d);
        let mut last = Addr::NULL;
        for i in 0..600u32 {
            let a = rt.ralloc(doomed, d);
            if i % 3 == 0 {
                rt.store_ptr_region(a + 4, k); // doomed -> keep, counted
            } else if last != Addr::NULL {
                rt.store_ptr_region_same(a + 4, last);
            }
            last = a;
        }
        let arr = rt.rarrayalloc(doomed, 40, d);
        rt.store_ptr_region(arr + 4, k);
        let _ = rt.rstralloc(doomed, 3000);
        rt.push_frame(4);
        rt.set_local(0, k);
        rt.push_frame(2);
        (rt, keep, doomed)
    }

    #[test]
    fn budget_one_deletion_matches_monolithic_bit_for_bit() {
        let (mut mono, _, victim) = deletion_workload(u64::MAX);
        let (mut inc, _, victim2) = deletion_workload(1);
        assert!(mono.delete_region(victim));
        let mut steps = 0u64;
        loop {
            match inc.try_delete_region_step(victim2).unwrap() {
                DeleteProgress::Done => break,
                DeleteProgress::Parked => {
                    steps += 1;
                    assert!(inc.is_parked(victim2));
                    // Books balance at every single increment boundary.
                    if steps % 25 == 0 {
                        let rep = inc.sanitize();
                        assert!(rep.is_clean(), "dirty books mid-deletion: {rep}");
                        assert_eq!(rep.parked_regions, 1);
                    }
                }
            }
        }
        assert!(steps > 100, "budget 1 must park many times, parked {steps}x");
        assert!(!inc.is_parked(victim2));
        assert_eq!(mono.stats(), inc.stats());
        assert_eq!(mono.costs(), inc.costs());
        assert_eq!(
            mono.capture_snapshot(),
            inc.capture_snapshot(),
            "incremental and monolithic deletion must land on identical state"
        );
    }

    #[test]
    fn doomed_region_refuses_allocation_then_reads_as_deleted() {
        let (mut rt, _, doomed) = deletion_workload(8);
        assert_eq!(rt.try_delete_region_step(doomed).unwrap(), DeleteProgress::Parked);
        assert!(rt.is_parked(doomed));
        assert!(!rt.is_live(doomed));
        assert!(matches!(
            rt.try_rstralloc(doomed, 8),
            Err(RegionError::RegionDoomed { .. })
        ));
        assert!(matches!(
            rt.try_ralloc(doomed, DescId(0)),
            Err(RegionError::RegionDoomed { .. })
        ));
        // `try_delete_region` on a parked region resumes it to the end.
        rt.set_delete_budget(64);
        rt.try_delete_region(doomed).unwrap();
        assert!(matches!(
            rt.try_rstralloc(doomed, 8),
            Err(RegionError::RegionDeleted { .. })
        ));
        assert!(rt.sanitize().is_clean());
    }

    #[test]
    fn blocked_budgeted_delete_revives_the_region_and_attributes_the_scan() {
        let mut rt = RegionRuntime::new_safe();
        let d = list_desc(&mut rt);
        let r1 = rt.new_region();
        let r2 = rt.new_region();
        let a = rt.ralloc(r1, d);
        let b = rt.ralloc(r2, d);
        rt.store_ptr_region(a + 4, b); // external ref into r2
        rt.push_frame(2);
        rt.set_local(0, b); // stack ref too, found by the scan
        rt.set_delete_budget(1);
        let err = rt.try_delete_region(r2).unwrap_err();
        assert!(matches!(err, RegionError::DeleteBlocked { rc: 2, .. }), "{err:?}");
        assert!(rt.is_live(r2), "refusal must fully revive the region");
        assert!(!rt.is_parked(r2));
        assert_eq!(rt.costs().deletes_failed, 1);
        // Satellite: the refused scan is attributed separately from the
        // total scan counters the paper's cost model charges.
        assert_eq!(rt.scan_attribution().refused_frames, 1);
        assert_eq!(rt.scan_attribution().refused_slots, 2);
        assert_eq!(rt.costs().frames_scanned, 1);
        // The revived region is fully usable and deletable once the
        // blocking refs go away.
        rt.store_ptr_region(a + 4, Addr::NULL);
        rt.set_local(0, Addr::NULL);
        rt.try_delete_region(r2).unwrap();
        // A successful delete adds nothing to the refused attribution.
        assert_eq!(rt.scan_attribution().refused_frames, 1);
        assert!(rt.costs().frames_scanned > 1);
        assert!(rt.sanitize().is_clean());
    }

    #[test]
    fn monolithic_refusal_is_attributed_too() {
        let mut rt = RegionRuntime::new_safe();
        let d = list_desc(&mut rt);
        let r1 = rt.new_region();
        let r2 = rt.new_region();
        let a = rt.ralloc(r1, d);
        let b = rt.ralloc(r2, d);
        rt.store_ptr_region(a + 4, b);
        rt.push_frame(3);
        assert!(!rt.delete_region(r2));
        assert_eq!(rt.scan_attribution().refused_frames, 1);
        assert_eq!(rt.scan_attribution().refused_slots, 3);
    }

    #[test]
    fn parked_deletion_snapshots_resume_exactly() {
        let (mut rt, _, doomed) = deletion_workload(7);
        let mut boundaries = 0u64;
        let mut finals: Vec<Vec<u8>> = Vec::new();
        loop {
            match rt.try_delete_region_step(doomed).unwrap() {
                DeleteProgress::Done => break,
                DeleteProgress::Parked => {
                    boundaries += 1;
                    if boundaries % 11 != 1 {
                        continue; // sample boundaries, keep the test quick
                    }
                    let bytes = rt.capture_snapshot();
                    let mut restored =
                        RegionRuntime::restore_snapshot(&bytes).expect("parked state restores");
                    assert_eq!(
                        restored.capture_snapshot(),
                        bytes,
                        "capture(restore(s)) must be byte-for-byte s mid-deletion"
                    );
                    assert!(restored.is_parked(doomed));
                    // The restored twin finishes the deletion on its own
                    // (restore defaults to an unbounded budget; the parked
                    // machine resumes regardless).
                    restored.try_delete_region(doomed).unwrap();
                    assert!(restored.sanitize().is_clean());
                    finals.push(restored.capture_snapshot());
                }
            }
        }
        assert!(boundaries > 10, "expected many park points, got {boundaries}");
        assert!(!finals.is_empty());
        let original_final = rt.capture_snapshot();
        for f in &finals {
            assert_eq!(
                *f, original_final,
                "every kill-and-restore point must converge on the same end state"
            );
        }
    }

    #[test]
    fn unsafe_mode_budgeted_delete_returns_pages_incrementally() {
        let mut rt = RegionRuntime::new_unsafe();
        rt.set_delete_budget(1);
        let r = rt.new_region();
        for _ in 0..4 {
            let _ = rt.rstralloc(r, PAGE_SIZE / 2);
        }
        let pages_before = rt.free_pages.len();
        // First step parks (several pages to return at one per step).
        assert_eq!(rt.try_delete_region_step(r).unwrap(), DeleteProgress::Parked);
        assert!(rt.is_parked(r));
        assert!(matches!(rt.try_rstralloc(r, 8), Err(RegionError::RegionDoomed { .. })));
        // Mid-return snapshot round-trips.
        let bytes = rt.capture_snapshot();
        let restored = RegionRuntime::restore_snapshot(&bytes).unwrap();
        assert_eq!(restored.capture_snapshot(), bytes);
        rt.try_delete_region(r).unwrap();
        assert!(rt.free_pages.len() > pages_before);
        assert_eq!(*rt.costs(), SafetyCosts::default(), "unsafe mode never counts");
    }

    #[test]
    fn restore_rejects_pages_held_by_the_wrong_owner() {
        let mut rt = RegionRuntime::new_safe();
        let d = list_desc(&mut rt);
        let (b, a) = (rt.new_region(), rt.new_region());
        let gone = rt.new_region();
        for _ in 0..400 {
            rt.ralloc(a, d);
        }
        rt.ralloc(b, d);
        assert!(rt.delete_region(gone));
        let (pa, pa1) = (rt.regions[1].normal.pages[0], rt.regions[1].normal.pages[1]);
        let (pb, free) = (rt.regions[0].normal.pages[0], rt.free_pages[0]);
        let bytes = rt.capture_snapshot();
        assert!(RegionRuntime::restore_snapshot(&bytes).is_ok());
        // Replaces the one occurrence of two consecutive words.
        let edit = |from: [u32; 2], to: [u32; 2]| {
            let le = |w: [u32; 2]| [w[0].to_le_bytes(), w[1].to_le_bytes()].concat();
            let at: Vec<usize> = bytes.windows(8).enumerate().filter(|(_, w)| *w == le(from)).map(|(i, _)| i).collect();
            assert_eq!(at.len(), 1, "{from:?} must occur once");
            let mut doctored = bytes.clone();
            doctored[at[0]..at[0] + 8].copy_from_slice(&le(to));
            doctored
        };
        let rejected = |doctored: Vec<u8>| {
            let got = RegionRuntime::restore_snapshot(&doctored).map(|_| ());
            assert!(matches!(got, Err(SnapshotError::Malformed { section: "page-ownership", .. })), "{got:?}");
        };
        // a's page list names live b's page: deleting a would unown the
        // page b's object lives on, and the next region would reuse it.
        rejected(edit([pa.0.raw(), pa.1], [pb.0.raw(), pa.1]));
        // a lists its own page twice (its second page goes unlisted).
        rejected(edit([pa1.0.raw(), pa1.1], [pa.0.raw(), pa1.1]));
        // The pool offers a page b still holds.
        rejected(edit([1, free.raw()], [1, pb.0.raw()]));
    }

    #[test]
    fn dead_regions_hand_their_page_lists_to_new_regions() {
        for budget in [1, u64::MAX] {
            let mut rt = RegionRuntime::new_safe();
            let d = list_desc(&mut rt);
            rt.set_delete_budget(budget);
            for _ in 0..1000 {
                let r = rt.new_region();
                rt.ralloc(r, d);
                rt.rstralloc(r, 8);
                rt.try_delete_region(r).unwrap();
                assert!(rt.spare_lists.len() <= 2, "{} spare lists", rt.spare_lists.len());
            }
            for info in &rt.regions {
                assert_eq!(info.liveness, Liveness::Dead);
                assert_eq!(info.normal.pages.capacity() + info.string.pages.capacity(), 0);
            }
            assert!(rt.sanitize().is_clean());
        }
    }

    #[test]
    fn set_delete_budget_rejects_zero() {
        let mut rt = RegionRuntime::new_safe();
        assert_eq!(rt.delete_budget(), u64::MAX);
        rt.set_delete_budget(64);
        assert_eq!(rt.delete_budget(), 64);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rt.set_delete_budget(0)
        }));
        assert!(r.is_err(), "a zero budget could never make progress");
    }
}
