//! One simulated address space, many mutators.
//!
//! [`SharedSpace`] carves a single 32-bit address space into
//! `workers` disjoint page-range *shards*; each worker holds a
//! [`HeapShard`] handle that grows, writes and reads **its own** shard
//! with exactly the semantics of a private [`crate::SimHeap`] (same
//! panic messages, same counter accounting, same OOM/fault error
//! fields), and may additionally *read* any page another worker has
//! mapped. Writes outside the owner's shard are a simulated protection
//! fault: the paper's discipline is that a region — and therefore its
//! pages — has one owning mutator, while cross-thread structures hold
//! read references published through exchanges (the parallel region
//! pool's bookkeeping, which stays heap-agnostic).
//!
//! Layout: page 0 is the guard page of the whole space; worker `w` owns
//! the absolute page range `[1 + w*span, 1 + (w+1)*span)` where
//! `span = (total_pages - 1) / workers`. With `workers = 1`, shard 0
//! starts at `PAGE_SIZE` and spans the whole space — every address,
//! counter and error a `SimHeap` would produce is reproduced
//! bit-for-bit, which is what keeps the committed goldens valid.
//!
//! Shared state is kept safe-Rust-concurrent the same way
//! `region_core::par` keeps its books: the global page table is a
//! `Mutex<Vec<Option<Arc<[AtomicU32]>>>>` touched only on page birth,
//! foreign reads and host-side audits, while an owner's word traffic
//! goes through the per-page atomics it holds. Like an OS page, a shard
//! page costs nothing until it is first written: `sbrk` only advances
//! the shard's break, which it publishes in a per-worker atomic, and the
//! first store to a page creates it and installs it in the table. A
//! page is *mapped* iff it lies below its owner's published break; a
//! mapped page nobody wrote reads as zero. Only the owner's `reset_with`
//! uninstalls a page, and a foreign read looks its page up in the table
//! under the lock each time, so no reader reads a page after its owner
//! reset. The page→region *mirror* is a flat `Vec<AtomicU32>` over
//! absolute page indices, published by the owner on every page-map
//! write (see
//! [`crate::HeapBackend::publish_page_owner`]) and encoded as
//! `(worker + 1) << 24 | (region_index + 1)`, 0 = unowned — so any
//! thread (or the world auditor) can classify a foreign address without
//! touching the owner's in-heap map.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::backend::HeapBackend;
use crate::{
    Access, AccessEvent, AccessKind, AccessRange, AccessSink, Addr, HeapConfig, HeapError,
    PAGE_SIZE, WORD,
};

/// Words per simulated page.
const PAGE_WORDS: usize = (PAGE_SIZE / WORD) as usize;

/// One simulated page of shared storage.
type PageArc = Arc<[AtomicU32]>;

/// Locks a mutex, tolerating poison: space-level sections only install
/// pages (an all-or-nothing `Vec` slot write), so state guarded by a
/// lock whose holder panicked is still consistent — same policy as the
/// parallel region pool's ledgers.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Allocates one zeroed shared page.
fn new_page() -> PageArc {
    (0..PAGE_WORDS).map(|_| AtomicU32::new(0)).collect()
}

/// Configuration for a [`SharedSpace`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpaceConfig {
    /// Total size of the shared address space in bytes (guard page
    /// included), rounded down to whole pages. Defaults to 512 MB — the
    /// same limit as a default private [`crate::SimHeap`].
    pub max_bytes: u64,
    /// Number of shard slots the space is carved into (1..=255). Each
    /// shard spans `(total_pages - 1) / workers` pages.
    pub workers: u32,
}

impl Default for SpaceConfig {
    fn default() -> SpaceConfig {
        SpaceConfig { max_bytes: HeapConfig::default().max_bytes, workers: 1 }
    }
}

/// The shared side of a sharded address space: the global page table,
/// the atomic page→region mirror, and the shard-claim registry. Always
/// handled through an `Arc`; per-worker mutation goes through
/// [`HeapShard`] handles created with [`SharedSpace::shard`].
pub struct SharedSpace {
    max_bytes: u64,
    workers: u32,
    span_pages: u32,
    /// Absolute page index → installed page. Slot 0 (the guard page) is
    /// permanently `None`; a mapped page is installed on its first write.
    /// Locked only on page birth and host audits.
    table: Mutex<Vec<Option<PageArc>>>,
    /// Worker → published break, in pages from the worker's base page.
    /// The pages below it are mapped, written or not.
    breaks: Vec<AtomicU32>,
    /// Absolute page index → `(worker + 1) << 24 | cell` ownership
    /// mirror (0 = unowned), published by owners, readable lock-free.
    mirror: Vec<AtomicU32>,
    /// Which shard slots have been handed out (shards are single-use).
    claimed: Mutex<Vec<bool>>,
}

impl std::fmt::Debug for SharedSpace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedSpace")
            .field("max_bytes", &self.max_bytes)
            .field("workers", &self.workers)
            .field("span_pages", &self.span_pages)
            .finish()
    }
}

impl SharedSpace {
    /// Creates a space carved into `config.workers` equal shards.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is 0 or exceeds 255 (the mirror encoding
    /// reserves 8 bits for `worker + 1`), or if the space is too small
    /// to give every shard at least one page.
    pub fn new(config: SpaceConfig) -> Arc<SharedSpace> {
        assert!(
            (1..=255).contains(&config.workers),
            "SharedSpace workers must be in 1..=255, got {}",
            config.workers
        );
        let total_pages = (config.max_bytes.min(u64::from(u32::MAX)) / u64::from(PAGE_SIZE)) as u32;
        assert!(
            total_pages > config.workers,
            "SharedSpace of {} bytes cannot give {} shards a page each",
            config.max_bytes,
            config.workers
        );
        let span_pages = (total_pages - 1) / config.workers;
        let slots = 1 + span_pages as usize * config.workers as usize;
        Arc::new(SharedSpace {
            max_bytes: config.max_bytes,
            workers: config.workers,
            span_pages,
            table: Mutex::new(vec![None; slots]),
            breaks: (0..config.workers).map(|_| AtomicU32::new(0)).collect(),
            mirror: (0..slots).map(|_| AtomicU32::new(0)).collect(),
            claimed: Mutex::new(vec![false; config.workers as usize]),
        })
    }

    /// Number of shard slots.
    pub fn workers(&self) -> u32 {
        self.workers
    }

    /// Pages per shard.
    pub fn span_pages(&self) -> u32 {
        self.span_pages
    }

    /// Total addressable pages (guard page included).
    pub fn total_pages(&self) -> u32 {
        1 + self.span_pages * self.workers
    }

    /// The configured byte limit of the whole space.
    pub fn max_bytes(&self) -> u64 {
        self.max_bytes
    }

    /// First absolute page index of `worker`'s shard.
    pub fn base_page(&self, worker: u32) -> u32 {
        assert!(worker < self.workers, "worker {worker} out of range");
        1 + worker * self.span_pages
    }

    /// `true` if `page_index` lies below its owner's published break.
    /// The guard page and indices past the space are never mapped.
    fn is_mapped(&self, page_index: u32) -> bool {
        if page_index == 0 || page_index >= self.total_pages() {
            return false;
        }
        let owner = (page_index - 1) / self.span_pages;
        page_index - self.base_page(owner) < self.breaks[owner as usize].load(Ordering::Acquire)
    }

    fn publish_break(&self, worker: u32, pages: u32) {
        self.breaks[worker as usize].store(pages, Ordering::Release);
    }

    fn claim(&self, worker: u32) {
        assert!(worker < self.workers, "worker {worker} out of range");
        let mut claimed = lock(&self.claimed);
        assert!(!claimed[worker as usize], "shard {worker} already claimed (shards are single-use)");
        claimed[worker as usize] = true;
    }

    /// Hands out the (fresh, unclaimed) shard handle for `worker`.
    ///
    /// # Panics
    ///
    /// Panics if the slot was already claimed: a shard handle is
    /// single-use, like the thread that owns it.
    pub fn shard(self: &Arc<Self>, worker: u32) -> HeapShard {
        self.claim(worker);
        HeapShard {
            space: Arc::clone(self),
            worker,
            base_page: self.base_page(worker),
            local: Vec::new(),
            spares: Vec::new(),
            fault_after: None,
            loads: 0,
            stores: 0,
            sink: None,
            tracing: false,
        }
    }

    /// Rebinds a shard handle onto the first `allocated_pages` pages of
    /// `worker`'s span — the world-restore path. Pages already installed
    /// in the table are adopted; the rest read as zero until written.
    /// The break is published; counters and the fault budget are adopted
    /// as given.
    ///
    /// # Panics
    ///
    /// Panics on a double claim or if `allocated_pages` overflows the
    /// span.
    pub fn adopt_shard(
        self: &Arc<Self>,
        worker: u32,
        allocated_pages: u32,
        loads: u64,
        stores: u64,
        fault_after: Option<u64>,
    ) -> HeapShard {
        self.claim(worker);
        let base = self.base_page(worker);
        assert!(allocated_pages <= self.span_pages, "adopted shard overflows its span");
        let local = lock(&self.table)[base as usize..(base + allocated_pages) as usize].to_vec();
        self.publish_break(worker, allocated_pages);
        HeapShard {
            space: Arc::clone(self),
            worker,
            base_page: base,
            local,
            spares: Vec::new(),
            fault_after,
            loads,
            stores,
            sink: None,
            tracing: false,
        }
    }

    /// Installs a page at an absolute index (world-restore path).
    ///
    /// # Panics
    ///
    /// Panics if the slot is the guard page, out of range, or occupied.
    pub fn install_page(&self, page_index: u32, words: &[u32]) {
        assert!(page_index >= 1 && (page_index as usize) < self.total_pages() as usize);
        assert_eq!(words.len(), PAGE_WORDS, "a page is {PAGE_WORDS} words");
        let page: PageArc = words.iter().map(|&w| AtomicU32::new(w)).collect();
        let mut table = lock(&self.table);
        assert!(table[page_index as usize].is_none(), "page {page_index} already installed");
        table[page_index as usize] = Some(page);
    }

    /// The words of a mapped page (all zero if nobody wrote it yet), or
    /// `None` for an unmapped slot. Host-side (capture/audit): charges
    /// nothing, traces nothing. Only meaningful while no worker is
    /// concurrently mutating the page.
    pub fn page_snapshot(&self, page_index: u32) -> Option<Vec<u32>> {
        if !self.is_mapped(page_index) {
            return None;
        }
        Some(match lock(&self.table)[page_index as usize].clone() {
            Some(page) => page.iter().map(|w| w.load(Ordering::Acquire)).collect(),
            None => vec![0; PAGE_WORDS],
        })
    }

    /// The ownership-mirror entry for an absolute page index
    /// (`(worker + 1) << 24 | cell`, 0 = unowned).
    pub fn mirror_entry(&self, page_index: u32) -> u32 {
        self.mirror[page_index as usize].load(Ordering::Acquire)
    }

    /// Writes a mirror entry directly (world-restore path; live
    /// publication goes through the owning shard's
    /// [`HeapBackend::publish_page_owner`]).
    pub fn set_mirror_entry(&self, page_index: u32, encoded: u32) {
        self.mirror[page_index as usize].store(encoded, Ordering::Release);
    }

    /// Splits a mirror entry into `(worker, cell)`. `None` for the
    /// unowned entry 0 and for malformed words whose worker byte is zero
    /// (untrusted snapshot bytes go through here; never panics).
    pub fn decode_mirror(encoded: u32) -> Option<(u32, u32)> {
        let owner = (encoded >> 24).checked_sub(1)?;
        Some((owner, encoded & 0x00ff_ffff))
    }
}

/// One worker's handle onto its shard of a [`SharedSpace`] — the
/// sharded drop-in for a private [`crate::SimHeap`] (it implements
/// [`HeapBackend`] with identical observable semantics on its own
/// pages), plus lock-light read access to every other worker's pages.
pub struct HeapShard {
    space: Arc<SharedSpace>,
    worker: u32,
    base_page: u32,
    /// Pages of this shard, contiguous from `base_page`: one slot per
    /// page below the break (sbrk appends `None`), filled on first write.
    local: Vec<Option<PageArc>>,
    /// Zeroed buffers of pages a reset uninstalled, which page births
    /// take before allocating.
    spares: Vec<PageArc>,
    fault_after: Option<u64>,
    loads: u64,
    stores: u64,
    sink: Option<Box<dyn AccessSink>>,
    tracing: bool,
}

impl std::fmt::Debug for HeapShard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HeapShard")
            .field("worker", &self.worker)
            .field("base_page", &self.base_page)
            .field("allocated_pages", &self.local.len())
            .field("loads", &self.loads)
            .field("stores", &self.stores)
            .finish()
    }
}

impl HeapShard {
    /// The shard slot this handle owns.
    pub fn worker(&self) -> u32 {
        self.worker
    }

    /// First absolute page index of this shard.
    pub fn base_page(&self) -> u32 {
        self.base_page
    }

    /// Pages this shard has obtained from the shared sbrk.
    pub fn allocated_pages(&self) -> u32 {
        self.local.len() as u32
    }

    /// Pages of this shard that have been written, and so exist on the
    /// host; the rest of the mapped pages read as zero.
    pub fn materialized_pages(&self) -> u32 {
        self.local.iter().filter(|p| p.is_some()).count() as u32
    }

    /// The space this shard belongs to.
    pub fn space(&self) -> &Arc<SharedSpace> {
        &self.space
    }

    /// The injected sbrk fault budget currently armed, if any.
    pub fn sbrk_fault_after(&self) -> Option<u64> {
        self.fault_after
    }

    /// Attaches an access sink; subsequent loads/stores are forwarded to
    /// it. Replaces (and drops) any previously attached sink.
    pub fn attach_sink(&mut self, sink: Box<dyn AccessSink>) {
        self.sink = Some(sink);
        self.tracing = true;
    }

    /// Detaches and returns the current access sink, if any.
    pub fn detach_sink(&mut self) -> Option<Box<dyn AccessSink>> {
        self.tracing = false;
        self.sink.take()
    }

    fn emit_event(&mut self, event: AccessEvent) {
        if let Some(sink) = self.sink.as_mut() {
            sink.event(event);
        }
    }

    /// `true` if `page` lies inside this shard's span (mapped or not).
    fn in_own_span(&self, page: u32) -> bool {
        page >= self.base_page && page < self.base_page + self.space.span_pages
    }

    /// Bounds/alignment validation with `SimHeap`-identical messages on
    /// the owned shard, plus the two sharded cases: writes outside the
    /// shard are a protection fault, reads resolve against the shared
    /// table. Check order matches `SimHeap::check`: null, bounds,
    /// alignment.
    fn check(&self, addr: Addr, size: u32, align: u32, what: &str, write: bool) {
        assert!(
            addr.raw() >= PAGE_SIZE,
            "simulated segfault: {what} of {size} bytes at {addr} (null/guard page)"
        );
        let page = addr.page_index();
        if self.in_own_span(page) {
            assert!(
                (u64::from(addr.raw()) + u64::from(size)) <= u64::from(self.brk().raw()),
                "simulated segfault: {what} of {size} bytes at {addr} past break {}",
                self.brk()
            );
        } else if write {
            panic!(
                "simulated protection fault: {what} of {size} bytes at {addr} outside worker \
                 {}'s shard",
                self.worker
            );
        } else {
            assert!(
                self.space.is_mapped(page),
                "simulated segfault: {what} of {size} bytes at {addr} (unmapped in shared space)"
            );
        }
        assert!(
            addr.is_aligned(align),
            "simulated bus error: misaligned {what} of {size} bytes at {addr}"
        );
    }

    /// The word at `addr`, assuming [`HeapShard::check`] already passed.
    /// A page nobody wrote reads as zero.
    #[inline]
    fn read_word(&self, addr: Addr) -> u32 {
        let page = addr.page_index();
        let w = (addr.page_offset() / WORD) as usize;
        if self.in_own_span(page) {
            self.local[(page - self.base_page) as usize]
                .as_ref()
                .map_or(0, |p| p[w].load(Ordering::Relaxed))
        } else {
            // A foreign page is read through the table, under its lock,
            // so an owner's reset can never leave a reader on old words.
            lock(&self.space.table)[page as usize]
                .as_ref()
                .map_or(0, |p| p[w].load(Ordering::Relaxed))
        }
    }

    #[inline]
    fn write_word(&mut self, addr: Addr, value: u32) {
        let i = (addr.page_index() - self.base_page) as usize;
        self.own_page(i)[(addr.page_offset() / WORD) as usize].store(value, Ordering::Relaxed);
    }

    /// Own page `i` (below the break), born here if this is its first
    /// write.
    #[inline]
    fn own_page(&mut self, i: usize) -> &PageArc {
        if self.local[i].is_none() {
            self.materialize(i);
        }
        self.local[i].as_ref().expect("materialized above")
    }

    /// The word a scalar access at `addr` touches, after the one test the
    /// hot path makes: `addr` is word-aligned and its page is a born page
    /// of this shard below the break. The guard page and foreign pages
    /// wrap past `local.len()`. `None` sends the access to the cold path.
    #[inline(always)]
    fn hot_word(&self, addr: Addr) -> Option<&AtomicU32> {
        let a = addr.raw();
        if !a.is_multiple_of(WORD) {
            return None;
        }
        let page = self.local.get((a / PAGE_SIZE).wrapping_sub(self.base_page) as usize)?.as_ref()?;
        Some(&page[(a % PAGE_SIZE / WORD) as usize])
    }

    /// The whole checked load for every case [`HeapShard::hot_word`]
    /// leaves out: faults (with [`HeapShard::check`]'s text and order),
    /// foreign reads, unborn pages and traced accesses. Cold and out of
    /// line, so `load_u32` stays small enough to inline (DESIGN §19).
    #[cold]
    #[inline(never)]
    fn load_slow(&mut self, addr: Addr) -> u32 {
        self.check(addr, WORD, WORD, "load", false);
        self.loads += 1;
        if self.tracing {
            self.emit_event(AccessEvent::Word(Access::read(addr.raw(), 4)));
        }
        self.read_word(addr)
    }

    /// The store twin of [`HeapShard::load_slow`]; a first write to an
    /// unborn page births it here.
    #[cold]
    #[inline(never)]
    fn store_slow(&mut self, addr: Addr, value: u32) {
        self.check(addr, WORD, WORD, "store", true);
        self.stores += 1;
        if self.tracing {
            self.emit_event(AccessEvent::Word(Access::write(addr.raw(), 4)));
        }
        self.write_word(addr, value);
    }

    /// Page birth: creates own page `i` (zeroed, from a spare if a reset
    /// left one) on its first write and installs it in the shared table
    /// for other workers' reads.
    #[cold]
    fn materialize(&mut self, i: usize) {
        let page = self.spares.pop().unwrap_or_else(new_page);
        let slot = self.base_page as usize + i;
        let mut table = lock(&self.space.table);
        debug_assert!(table[slot].is_none(), "an unwritten page was already installed");
        table[slot] = Some(Arc::clone(&page));
        drop(table);
        self.local[i] = Some(page);
    }
}

impl HeapBackend for HeapShard {
    #[inline]
    fn brk(&self) -> Addr {
        Addr::from_page(self.base_page + self.local.len() as u32)
    }

    fn try_sbrk_pages(&mut self, pages: u32) -> Result<Addr, HeapError> {
        let old = self.brk();
        let allocated = self.local.len() as u32;
        // "Occupied bytes" are counted from the base of the address
        // space through the end of this shard's allocation, so with one
        // shard the arithmetic (and both error variants' fields) is
        // byte-identical to a private SimHeap's.
        let new_len =
            u64::from(self.base_page + allocated + pages) * u64::from(PAGE_SIZE);
        if let Some(budget) = self.fault_after {
            if new_len > budget {
                return Err(HeapError::FaultInjected {
                    granted: u64::from(old.raw()),
                    budget,
                });
            }
        }
        if allocated + pages > self.space.span_pages {
            let limit = if self.space.workers == 1 {
                self.space.max_bytes.min(u64::from(u32::MAX))
            } else {
                u64::from(self.base_page + self.space.span_pages) * u64::from(PAGE_SIZE)
            };
            return Err(HeapError::OutOfMemory { requested: new_len, limit });
        }
        // Mapping is only a break move: pages are born on first write.
        self.local.resize((allocated + pages) as usize, None);
        self.space.publish_break(self.worker, allocated + pages);
        Ok(old)
    }

    fn set_sbrk_fault_after(&mut self, budget: Option<u64>) {
        self.fault_after = budget;
    }

    fn reset_with(&mut self, config: HeapConfig) {
        // The span is fixed by the space; `config.max_bytes` is the
        // *private-heap* limit and is ignored here — shard capacity is
        // `span_pages`. The fault budget carries over as configured.
        // A born page is uninstalled, then kept as a zeroed spare unless
        // another handle (a host-side snapshot in flight) still holds it.
        self.space.publish_break(self.worker, 0);
        let mut table = lock(&self.space.table);
        for (i, page) in self.local.drain(..).enumerate() {
            let slot = self.base_page as usize + i;
            if let Some(mut page) = page {
                table[slot] = None;
                if let Some(words) = Arc::get_mut(&mut page) {
                    words.iter_mut().for_each(|w| *w.get_mut() = 0);
                    self.spares.push(page);
                }
            }
            self.space.mirror[slot].store(0, Ordering::Release);
        }
        drop(table);
        self.fault_after = config.sbrk_fault_after;
        self.loads = 0;
        self.stores = 0;
        self.sink = None;
        self.tracing = false;
    }

    #[inline]
    fn load_u32(&mut self, addr: Addr) -> u32 {
        match self.hot_word(addr) {
            Some(word) if !self.tracing => {
                let value = word.load(Ordering::Relaxed);
                self.loads += 1;
                value
            }
            _ => self.load_slow(addr),
        }
    }

    #[inline]
    fn store_u32(&mut self, addr: Addr, value: u32) {
        match self.hot_word(addr) {
            Some(word) if !self.tracing => {
                word.store(value, Ordering::Relaxed);
                self.stores += 1;
            }
            _ => self.store_slow(addr, value),
        }
    }

    /// As `SimHeap::peek_u32` on the guard page and on this shard's own
    /// span: the guard page reads zero, and a word past the break is
    /// "out of range". A foreign page must be mapped by its owner.
    fn peek_u32(&self, addr: Addr) -> u32 {
        assert!(addr.is_aligned(WORD), "misaligned peek at {addr}");
        let page = addr.page_index();
        if page == 0 {
            return 0;
        }
        if self.in_own_span(page) {
            assert!(addr < self.brk(), "peek out of range at {addr}");
        } else {
            assert!(
                self.space.is_mapped(page),
                "simulated segfault: peek of {WORD} bytes at {addr} (unmapped in shared space)"
            );
        }
        self.read_word(addr)
    }

    fn fill(&mut self, addr: Addr, len: u32, byte: u8) {
        if len == 0 {
            return;
        }
        self.check(addr, len, 1, "fill", true);
        // Same memset cost model as SimHeap::fill: head bytes to reach
        // word alignment, whole words, tail bytes.
        let head = ((WORD - addr.raw() % WORD) % WORD).min(len);
        let rest = len - head;
        let (words, tail) = (rest / WORD, rest % WORD);
        self.stores += u64::from(head) + u64::from(words) + u64::from(tail);
        // Byte-granular edges read-modify-write their word; the aligned
        // middle stores whole words.
        let fill_word = u32::from_le_bytes([byte; 4]);
        for b in 0..head {
            self.write_byte(addr + b, byte);
        }
        // Whole words: one page lookup per page-sized run.
        let words_start = addr + head;
        let mut word = words_start.raw() / WORD;
        let mut left = words as usize;
        while left > 0 {
            let first = word as usize % PAGE_WORDS;
            let run = left.min(PAGE_WORDS - first);
            let page = self.own_page((word / PAGE_WORDS as u32 - self.base_page) as usize);
            for w in &page[first..first + run] {
                w.store(fill_word, Ordering::Relaxed);
            }
            word += run as u32;
            left -= run;
        }
        let tail_start = words_start + words * WORD;
        for b in 0..tail {
            self.write_byte(tail_start + b, byte);
        }
        if !self.tracing {
            return;
        }
        if head > 0 {
            self.emit_event(AccessEvent::Range(AccessRange {
                start: addr.raw(),
                len: head,
                stride: 1,
                size: 1,
                kind: AccessKind::Write,
            }));
        }
        if words > 0 {
            self.emit_event(AccessEvent::Range(AccessRange {
                start: addr.raw() + head,
                len: words,
                stride: WORD,
                size: WORD as u8,
                kind: AccessKind::Write,
            }));
        }
        if tail > 0 {
            self.emit_event(AccessEvent::Range(AccessRange {
                start: addr.raw() + head + words * WORD,
                len: tail,
                stride: 1,
                size: 1,
                kind: AccessKind::Write,
            }));
        }
    }

    fn load_u32_range(&mut self, start: Addr, len: u32, stride: u32) -> Vec<u32> {
        if len == 0 {
            return Vec::new();
        }
        assert!(stride % WORD == 0, "misaligned stride {stride} in bulk load at {start}");
        self.check(start, WORD, WORD, "load", false);
        let last = u64::from(start.raw()) + u64::from(len - 1) * u64::from(stride);
        assert!(
            last + u64::from(WORD) <= u64::from(self.brk().raw())
                && self.in_own_span(start.page_index()),
            "simulated segfault: bulk load of {len} words (stride {stride}) at {start} past \
             break {}",
            self.brk()
        );
        self.loads += u64::from(len);
        if self.tracing {
            self.emit_event(AccessEvent::Range(AccessRange {
                start: start.raw(),
                len,
                stride,
                size: WORD as u8,
                kind: AccessKind::Read,
            }));
        }
        (0..len).map(|i| self.read_word(start + i * stride)).collect()
    }

    #[inline]
    fn is_tracing(&self) -> bool {
        self.tracing
    }

    #[inline]
    fn charge_loads(&mut self, n: u64) {
        debug_assert!(!self.tracing, "charge_loads while tracing loses sink records");
        self.loads += n;
    }

    #[inline]
    fn load_count(&self) -> u64 {
        self.loads
    }

    #[inline]
    fn store_count(&self) -> u64 {
        self.stores
    }

    fn publish_page_owner(&mut self, page_index: u32, cell: u32) {
        debug_assert!(self.in_own_span(page_index), "publishing a page outside the shard");
        assert!(cell < 1 << 24, "region cell {cell} overflows the mirror encoding");
        let encoded = if cell == 0 { 0 } else { ((self.worker + 1) << 24) | cell };
        self.space.mirror[page_index as usize].store(encoded, Ordering::Release);
    }
}

impl HeapShard {
    /// Read-modify-writes one byte of an owned word (fill edges).
    fn write_byte(&mut self, addr: Addr, byte: u8) {
        let word_addr = Addr::new(addr.raw() & !(WORD - 1));
        let shift = (addr.raw() % WORD) * 8;
        let old = self.read_word(word_addr);
        let new = (old & !(0xffu32 << shift)) | (u32::from(byte) << shift);
        self.write_word(word_addr, new);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimHeap;

    #[test]
    fn single_shard_matches_simheap_word_for_word() {
        let space = SharedSpace::new(SpaceConfig::default());
        let mut shard = space.shard(0);
        let mut heap = SimHeap::new();
        let a = heap.sbrk_pages(2);
        let b = HeapBackend::sbrk_pages(&mut shard, 2);
        assert_eq!(a, b, "shard 0 of a fresh space starts at the SimHeap break");
        for i in 0..64u32 {
            heap.store_u32(a + i * WORD, i * 3 + 1);
            shard.store_u32(a + i * WORD, i * 3 + 1);
        }
        // Unaligned start and ragged end exercise fill's head/words/tail
        // split (byte RMW edges on the shard side).
        heap.fill(a + 41, 99, 0xAB);
        shard.fill(a + 41, 99, 0xAB);
        for i in 0..64u32 {
            assert_eq!(heap.load_u32(a + i * WORD), shard.load_u32(a + i * WORD));
        }
        assert_eq!(
            heap.load_u32_range(a, 16, 8),
            shard.load_u32_range(a, 16, 8),
            "strided bulk loads agree"
        );
        assert_eq!(heap.load_count(), HeapBackend::load_count(&shard));
        assert_eq!(heap.store_count(), HeapBackend::store_count(&shard));
        assert_eq!(heap.peek_u32(a), shard.peek_u32(a));
    }

    #[test]
    fn single_shard_reports_simheap_identical_oom_and_fault_fields() {
        let cfg = SpaceConfig { max_bytes: 16 * u64::from(PAGE_SIZE), workers: 1 };
        let space = SharedSpace::new(cfg);
        let mut shard = space.shard(0);
        let mut heap = SimHeap::with_config(HeapConfig {
            max_bytes: cfg.max_bytes,
            sbrk_fault_after: None,
        });
        assert_eq!(
            heap.try_sbrk_pages(4).unwrap(),
            shard.try_sbrk_pages(4).unwrap()
        );
        let e1 = heap.try_sbrk_pages(100).unwrap_err();
        let e2 = shard.try_sbrk_pages(100).unwrap_err();
        assert_eq!(e1, e2, "OutOfMemory fields must match bit-for-bit");
        HeapBackend::set_sbrk_fault_after(&mut shard, Some(6 * u64::from(PAGE_SIZE)));
        heap.set_sbrk_fault_after(Some(6 * u64::from(PAGE_SIZE)));
        let f1 = heap.try_sbrk_pages(3).unwrap_err();
        let f2 = shard.try_sbrk_pages(3).unwrap_err();
        assert_eq!(f1, f2, "FaultInjected fields must match bit-for-bit");
    }

    #[test]
    fn cross_shard_reads_see_the_owners_writes() {
        let space = SharedSpace::new(SpaceConfig { max_bytes: 1 << 20, workers: 4 });
        let mut a = space.shard(0);
        let mut b = space.shard(1);
        let pa = a.try_sbrk_pages(1).unwrap();
        b.try_sbrk_pages(1).unwrap();
        a.store_u32(pa, 0xDEAD_BEEF);
        assert_eq!(b.load_u32(pa), 0xDEAD_BEEF, "foreign pages are readable");
        a.store_u32(pa, 7);
        assert_eq!(b.load_u32(pa), 7, "a foreign read sees the owner's latest write");
        // After the owner's reset the page is unmapped; reborn, it holds
        // the owner's new words, never the old ones.
        a.reset_with(HeapConfig::default());
        a.try_sbrk_pages(1).unwrap();
        assert_eq!(b.load_u32(pa), 0, "a remapped page reads zero until written");
        a.store_u32(pa, 9);
        assert_eq!(b.load_u32(pa), 9, "a foreign read sees the reborn page");
        assert_eq!(b.load_count(), 4);
    }

    #[test]
    #[should_panic(expected = "protection fault")]
    fn cross_shard_stores_are_a_protection_fault() {
        let space = SharedSpace::new(SpaceConfig { max_bytes: 1 << 20, workers: 2 });
        let mut a = space.shard(0);
        let mut b = space.shard(1);
        let pa = a.try_sbrk_pages(1).unwrap();
        b.try_sbrk_pages(1).unwrap();
        b.store_u32(pa, 1);
    }

    #[test]
    #[should_panic(expected = "already claimed")]
    fn shards_are_single_use() {
        let space = SharedSpace::new(SpaceConfig { max_bytes: 1 << 20, workers: 2 });
        let _a = space.shard(0);
        let _again = space.shard(0);
    }

    #[test]
    fn mirror_publication_is_visible_spacewide() {
        let space = SharedSpace::new(SpaceConfig { max_bytes: 1 << 20, workers: 3 });
        let mut s = space.shard(2);
        let p = s.try_sbrk_pages(1).unwrap();
        s.publish_page_owner(p.page_index(), 7);
        let enc = space.mirror_entry(p.page_index());
        assert_eq!(SharedSpace::decode_mirror(enc), Some((2, 7)));
        s.publish_page_owner(p.page_index(), 0);
        assert_eq!(space.mirror_entry(p.page_index()), 0);
    }

    #[test]
    fn unwritten_mapped_pages_read_zero_without_materializing() {
        let space = SharedSpace::new(SpaceConfig { max_bytes: 1 << 20, workers: 2 });
        let mut a = space.shard(0);
        let mut b = space.shard(1);
        let pa = a.try_sbrk_pages(2).unwrap();
        b.try_sbrk_pages(1).unwrap();
        assert_eq!(a.load_u32(pa + 8), 0, "own unwritten page reads zero");
        assert_eq!(b.load_u32(pa + PAGE_SIZE), 0, "foreign unwritten page reads zero");
        assert_eq!((a.load_count(), b.load_count()), (1, 1), "each read charges one load");
        assert_eq!(a.materialized_pages(), 0, "reads do not create pages");
        assert_eq!(space.page_snapshot(pa.page_index()), Some(vec![0; PAGE_WORDS]));
        assert!(space.page_snapshot(pa.page_index() + 2).is_none(), "past the break");
        a.store_u32(pa + PAGE_SIZE, 5);
        assert_eq!(a.materialized_pages(), 1, "the first write creates the page");
        assert_eq!(b.load_u32(pa + PAGE_SIZE), 5, "and installs it for foreign reads");
    }

    #[test]
    #[should_panic(expected = "unmapped in shared space")]
    fn foreign_reads_past_the_owners_break_fault() {
        let space = SharedSpace::new(SpaceConfig { max_bytes: 1 << 20, workers: 2 });
        let mut a = space.shard(0);
        let mut b = space.shard(1);
        let pa = a.try_sbrk_pages(1).unwrap();
        b.try_sbrk_pages(1).unwrap();
        b.load_u32(pa + PAGE_SIZE);
    }

    #[test]
    fn reset_unpublishes_the_break() {
        let space = SharedSpace::new(SpaceConfig { max_bytes: 1 << 20, workers: 2 });
        let mut a = space.shard(0);
        let pa = a.try_sbrk_pages(3).unwrap();
        a.store_u32(pa, 1);
        assert!(space.is_mapped(pa.page_index() + 2));
        a.reset_with(HeapConfig::default());
        for p in 0..3 {
            assert!(!space.is_mapped(pa.page_index() + p), "page {p} still mapped");
            assert!(space.page_snapshot(pa.page_index() + p).is_none());
        }
        let again = a.try_sbrk_pages(1).unwrap();
        assert_eq!(again, pa, "the break restarts at the shard base");
        assert_eq!(a.load_u32(again), 0, "a reset page is born anew");
    }

    /// The full panic message of `f`, or `f`'s value if it returns.
    fn outcome<T>(f: impl FnOnce() -> T) -> Result<T, String> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|err| match err.downcast::<String>() {
            Ok(s) => *s,
            Err(err) => err.downcast::<&str>().map(|s| s.to_string()).expect("string panic payload"),
        })
    }

    #[test]
    fn scalar_faults_keep_their_full_panic_text() {
        // Worker 0 owns one mapped page (0x1000..0x2000, break 0x2000);
        // worker 1's shard starts at 0x80000 with one born page. 0x1ffe is
        // both misaligned and past the break; the break is reported first.
        let cases: [(&str, u32, &str); 16] = [
            ("load_u32", 0x0000, "simulated segfault: load of 4 bytes at 0x00000000 (null/guard page)"),
            ("load_u32", 0x0ffc, "simulated segfault: load of 4 bytes at 0x00000ffc (null/guard page)"),
            ("load_u32", 0x2000, "simulated segfault: load of 4 bytes at 0x00002000 past break 0x00002000"),
            ("load_u32", 0x1002, "simulated bus error: misaligned load of 4 bytes at 0x00001002"),
            ("load_u32", 0x1ffe, "simulated segfault: load of 4 bytes at 0x00001ffe past break 0x00002000"),
            ("load_u32", 0x81000, "simulated segfault: load of 4 bytes at 0x00081000 (unmapped in shared space)"),
            ("load_u32", 0x80002, "simulated bus error: misaligned load of 4 bytes at 0x00080002"),
            ("load_u32", 0x81002, "simulated segfault: load of 4 bytes at 0x00081002 (unmapped in shared space)"),
            ("store_u32", 0x0000, "simulated segfault: store of 4 bytes at 0x00000000 (null/guard page)"),
            ("store_u32", 0x0ffc, "simulated segfault: store of 4 bytes at 0x00000ffc (null/guard page)"),
            ("store_u32", 0x2000, "simulated segfault: store of 4 bytes at 0x00002000 past break 0x00002000"),
            ("store_u32", 0x1002, "simulated bus error: misaligned store of 4 bytes at 0x00001002"),
            ("store_u32", 0x1ffe, "simulated segfault: store of 4 bytes at 0x00001ffe past break 0x00002000"),
            ("store_u32", 0x80000, "simulated protection fault: store of 4 bytes at 0x00080000 outside worker 0's shard"),
            ("store_u32", 0x81000, "simulated protection fault: store of 4 bytes at 0x00081000 outside worker 0's shard"),
            ("store_u32", 0x80002, "simulated protection fault: store of 4 bytes at 0x00080002 outside worker 0's shard"),
        ];
        for (op, raw, want) in cases {
            let space = SharedSpace::new(SpaceConfig { max_bytes: 1 << 20, workers: 2 });
            let mut shard = space.shard(0);
            let mut other = space.shard(1);
            shard.try_sbrk_pages(1).unwrap();
            let foreign = other.try_sbrk_pages(1).unwrap();
            other.store_u32(foreign, 7);
            let a = Addr::new(raw);
            let got = outcome(|| match op {
                "load_u32" => drop(shard.load_u32(a)),
                _ => shard.store_u32(a, 1),
            });
            assert_eq!(got, Err(want.to_string()), "{op} at {a}");
            assert_eq!((shard.load_count(), shard.store_count()), (0, 0), "{op} at {a}: a fault counts nothing");
            assert_eq!(shard.materialized_pages(), 0, "{op} at {a}: a fault births no page");
        }
    }

    #[test]
    fn peeks_match_simheap_on_own_and_guard_pages() {
        let mut heap = SimHeap::new();
        let space = SharedSpace::new(SpaceConfig::default());
        let mut shard = space.shard(0);
        let a = heap.sbrk_pages(1);
        assert_eq!(shard.try_sbrk_pages(1).unwrap(), a);
        for (off, v) in [(0, 0x1111), (PAGE_SIZE - WORD, 0x2222)] {
            heap.store_u32(a + off, v);
            shard.store_u32(a + off, v);
        }
        let brk = heap.brk().raw();
        for raw in [0x0, 0x8, 0x1000, brk - 4, brk, brk + 0x1000, 0x1001] {
            let addr = Addr::new(raw);
            let want = outcome(|| heap.peek_u32(addr));
            assert_eq!(outcome(|| shard.peek_u32(addr)), want, "peek at {addr}");
        }
        // Foreign pages keep the shard-only rule: mapped reads, unmapped faults.
        let space = SharedSpace::new(SpaceConfig { max_bytes: 1 << 20, workers: 2 });
        let (mut a, b) = (space.shard(0), space.shard(1));
        let pa = a.try_sbrk_pages(1).unwrap();
        a.store_u32(pa + 8, 9);
        assert_eq!(b.peek_u32(pa + 8), 9);
        assert_eq!(
            outcome(|| b.peek_u32(pa + PAGE_SIZE)),
            Err("simulated segfault: peek of 4 bytes at 0x00002000 (unmapped in shared space)".to_string())
        );
    }

    #[test]
    fn fills_across_unborn_pages_match_simheap() {
        let mut heap = SimHeap::new();
        let space = SharedSpace::new(SpaceConfig::default());
        let mut shard = space.shard(0);
        let a = heap.sbrk_pages(6);
        assert_eq!(HeapBackend::sbrk_pages(&mut shard, 6), a);
        heap.store_u32(a, 5);
        shard.store_u32(a, 5);
        // Starts mid-word on the born first page: two head bytes, word
        // runs over the rest of page 0 and all of pages 1 and 2, and one
        // tail byte that births page 3. The second fill's word run
        // starts mid-page on unborn page 4; page 5 stays unborn.
        for (at, len, byte) in [(PAGE_SIZE - 6, 2 * PAGE_SIZE + 7, 0xA5), (4 * PAGE_SIZE + 0x100, 8, 0x3C)] {
            heap.fill(a + at, len, byte);
            shard.fill(a + at, len, byte);
        }
        for w in 0..6 * PAGE_SIZE / WORD {
            assert_eq!(heap.peek_u32(a + w * WORD), shard.peek_u32(a + w * WORD), "word {w}");
        }
        assert_eq!(heap.store_count(), HeapBackend::store_count(&shard));
        assert_eq!(heap.load_count(), HeapBackend::load_count(&shard));
        assert_eq!(shard.materialized_pages(), 5);
    }

    #[test]
    fn guard_page_faults_match_simheap_messages() {
        let space = SharedSpace::new(SpaceConfig::default());
        let mut shard = space.shard(0);
        shard.try_sbrk_pages(1).unwrap();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            shard.load_u32(Addr::new(4));
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("null/guard page"), "got: {msg}");
    }
}
