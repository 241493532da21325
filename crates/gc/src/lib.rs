//! A Boehm–Weiser-style conservative mark–sweep collector (§5.2).
//!
//! The paper's GC baseline is "the Boehm-Weiser conservative garbage
//! collector \[BW88\] v4.12. We disable all free's when compiling with this
//! collector, thus guaranteeing safe memory management."
//!
//! [`BoehmGc`] reproduces that design point over the simulated heap:
//!
//! * objects are allocated from power-of-two size-class pages (no
//!   per-object headers — an object's size comes from its page's class);
//! * `free` is a no-op; memory is reclaimed by **collection**, triggered
//!   when the bytes allocated since the last collection exceed the live
//!   heap (letting the heap roughly double between collections);
//! * collection **conservatively** scans a root area (a shadow stack of
//!   pointer slots maintained by the mutator through the [`RawMalloc`]
//!   root hooks) plus registered global ranges, treating every word that
//!   falls inside an allocated block — interior pointers included — as a
//!   reference; marking then traces every word of every reached object;
//! * sweeping threads unmarked blocks back onto in-heap freelists.
//!
//! Because scanning and marking perform real (traced) loads on the
//! simulated heap, the collector's memory behaviour shows up in the cache
//! simulator exactly as the real collector's did on the UltraSparc
//! (Figures 9 and 10), and its footprint policy reproduces the large "OS"
//! bars of Figure 8.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::time::{Duration, Instant};

use malloc_suite::RawMalloc;
use region_core::AllocStats;
use simheap::{Addr, SimHeap, PAGE_SIZE, WORD};

/// Smallest block size (bytes).
const MIN_CLASS_LOG: u32 = 4; // 16
/// Largest single-block class; larger requests get page spans.
const MAX_CLASS_LOG: u32 = 12; // 4096
const NCLASSES: usize = (MAX_CLASS_LOG - MIN_CLASS_LOG + 1) as usize;
/// Collection is never triggered below this many allocated bytes.
const MIN_THRESHOLD: u64 = 64 * 1024;
/// Pages reserved for the root (shadow-stack) area.
const ROOT_PAGES: u32 = 64;

#[derive(Debug, Clone)]
enum PageKind {
    /// A size-class page: blocks of `1 << (class + MIN_CLASS_LOG)` bytes.
    Class { class: u32, alloc: [u64; 4], mark: [u64; 4] },
    /// First page of a large-object span.
    SpanStart { pages: u32, marked: bool, allocated: bool },
    /// Interior page of a span (points back at the start page index).
    SpanInterior { start: u32 },
}

/// The conservative collector. Implements [`RawMalloc`] so workloads run
/// against it unmodified (with `free` ignored).
///
/// ```
/// use conservative_gc::BoehmGc;
/// use malloc_suite::RawMalloc;
/// use simheap::SimHeap;
///
/// let mut heap = SimHeap::new();
/// let mut gc = BoehmGc::new(&mut heap);
/// gc.push_roots(&mut heap, 1);
/// let a = gc.malloc(&mut heap, 100);
/// gc.set_root(&mut heap, 0, a);       // keep it reachable
/// gc.collect(&mut heap);
/// assert!(gc.is_allocated(a));        // survived the collection
/// gc.set_root(&mut heap, 0, simheap::Addr::NULL);
/// gc.collect(&mut heap);
/// assert!(!gc.is_allocated(a));       // garbage was reclaimed
/// ```
#[derive(Debug)]
pub struct BoehmGc {
    /// In-heap freelist heads per size class.
    heads: [Addr; NCLASSES],
    pages: HashMap<u32, PageKind>,
    /// Free page spans by page count.
    span_pool: HashMap<u32, Vec<Addr>>,
    /// Live blocks: base address → accounted (stats) bytes.
    live: HashMap<u32, u32>,
    // Root area (shadow stack) in the simulated heap.
    root_base: Addr,
    frames: Vec<u32>,
    top_slot: u32,
    global_roots: Vec<(Addr, u32)>,
    // Policy + accounting.
    bytes_since_gc: u64,
    threshold: u64,
    collections: u64,
    collect_time: Duration,
    os_pages: u64,
    stats: AllocStats,
}

impl BoehmGc {
    /// Creates a collector, reserving its root area on the given heap.
    pub fn new(heap: &mut SimHeap) -> BoehmGc {
        let root_base = heap.sbrk_pages(ROOT_PAGES);
        BoehmGc {
            heads: [Addr::NULL; NCLASSES],
            pages: HashMap::new(),
            span_pool: HashMap::new(),
            live: HashMap::new(),
            root_base,
            frames: Vec::new(),
            top_slot: 0,
            global_roots: Vec::new(),
            bytes_since_gc: 0,
            threshold: MIN_THRESHOLD,
            collections: 0,
            collect_time: Duration::ZERO,
            os_pages: u64::from(ROOT_PAGES),
            stats: AllocStats::default(),
        }
    }

    /// Number of collections performed so far.
    pub fn collections(&self) -> u64 {
        self.collections
    }

    /// `true` if `ptr` is the base of a currently-allocated block
    /// (diagnostics and tests).
    pub fn is_allocated(&self, ptr: Addr) -> bool {
        self.live.contains_key(&ptr.raw())
    }

    fn class_for(size: u32) -> u32 {
        let bits = size.max(1).next_power_of_two().trailing_zeros().max(MIN_CLASS_LOG);
        bits - MIN_CLASS_LOG
    }

    fn sbrk(&mut self, heap: &mut SimHeap, pages: u32) -> Addr {
        self.os_pages += u64::from(pages);
        heap.sbrk_pages(pages)
    }

    /// Resolves an arbitrary word to the base of the allocated block it
    /// points into, if any (interior pointers accepted).
    fn find_block(&self, v: Addr) -> Option<(Addr, u32)> {
        if v.is_null() {
            return None;
        }
        let pi = v.page_index();
        match self.pages.get(&pi)? {
            PageKind::Class { class, alloc, .. } => {
                let bsize = 1u32 << (class + MIN_CLASS_LOG);
                let idx = v.page_offset() / bsize;
                if alloc[(idx / 64) as usize] >> (idx % 64) & 1 == 1 {
                    Some((v.page_base() + idx * bsize, bsize))
                } else {
                    None
                }
            }
            PageKind::SpanStart { pages, allocated, .. } => {
                if *allocated {
                    Some((v.page_base(), pages * PAGE_SIZE))
                } else {
                    None
                }
            }
            PageKind::SpanInterior { start } => {
                let base = Addr::new(start * PAGE_SIZE);
                match self.pages.get(start)? {
                    PageKind::SpanStart { pages, allocated: true, .. } => {
                        Some((base, pages * PAGE_SIZE))
                    }
                    _ => None,
                }
            }
        }
    }

    /// Marks the block containing `v` (if any); returns its extent when it
    /// was not already marked.
    fn mark_word(&mut self, v: Addr) -> Option<(Addr, u32)> {
        let (base, size) = self.find_block(v)?;
        let pi = base.page_index();
        match self.pages.get_mut(&pi)? {
            PageKind::Class { class, mark, .. } => {
                let bsize = 1u32 << (*class + MIN_CLASS_LOG);
                let idx = base.page_offset() / bsize;
                let (w, b) = ((idx / 64) as usize, idx % 64);
                if mark[w] >> b & 1 == 1 {
                    return None;
                }
                mark[w] |= 1 << b;
                Some((base, size))
            }
            PageKind::SpanStart { marked, .. } => {
                if *marked {
                    return None;
                }
                *marked = true;
                Some((base, size))
            }
            PageKind::SpanInterior { .. } => unreachable!("find_block resolves interiors"),
        }
    }

    /// Runs a full mark–sweep collection.
    pub fn collect(&mut self, heap: &mut SimHeap) {
        let t = Instant::now();
        self.collections += 1;
        // Clear marks.
        for kind in self.pages.values_mut() {
            match kind {
                PageKind::Class { mark, .. } => *mark = [0; 4],
                PageKind::SpanStart { marked, .. } => *marked = false,
                PageKind::SpanInterior { .. } => {}
            }
        }
        // Mark from roots: the shadow stack, then registered globals. Each
        // scan is one batched read range (DESIGN §11) whose word expansion
        // equals the historic load-per-slot loop; marking touches only
        // host-side bitmaps, so the traced access stream is unchanged.
        // `buf` is reused across every scan to keep the hot trace loop
        // allocation-free.
        let mut work: Vec<(Addr, u32)> = Vec::new();
        let mut buf: Vec<u32> = Vec::new();
        heap.scan_words_into(self.root_base, self.top_slot, &mut buf);
        for &v in &buf {
            work.extend(self.mark_word(Addr::new(v)));
        }
        for gi in 0..self.global_roots.len() {
            let (start, len) = self.global_roots[gi];
            heap.scan_words_into(start, len / WORD, &mut buf);
            for i in 0..buf.len() {
                let v = Addr::new(buf[i]);
                work.extend(self.mark_word(v));
            }
        }
        // Trace: conservatively scan every word of every reached object.
        while let Some((base, size)) = work.pop() {
            heap.scan_words_into(base, size / WORD, &mut buf);
            for i in 0..buf.len() {
                let v = Addr::new(buf[i]);
                work.extend(self.mark_word(v));
            }
        }
        // Sweep class pages: unmarked allocated blocks back to freelists.
        // Sweep in address order, not `HashMap` iteration order: the sweep
        // emits traced stores (freelist threading) and permutes the
        // freelists, so a per-process hash seed would otherwise make every
        // traced GC run — and all downstream cache statistics — vary from
        // run to run.
        let mut page_indices: Vec<u32> = self.pages.keys().copied().collect();
        page_indices.sort_unstable();
        let mut links: Vec<u32> = Vec::new();
        for pi in page_indices {
            let (class, dead) = match self.pages.get_mut(&pi) {
                Some(PageKind::Class { class, alloc, mark }) => {
                    let mut dead = Vec::new();
                    let bsize = 1u32 << (*class + MIN_CLASS_LOG);
                    for idx in 0..PAGE_SIZE / bsize {
                        let (w, b) = ((idx / 64) as usize, idx % 64);
                        if alloc[w] >> b & 1 == 1 && mark[w] >> b & 1 == 0 {
                            alloc[w] &= !(1 << b);
                            dead.push(idx);
                        }
                    }
                    (*class, dead)
                }
                Some(PageKind::SpanStart { pages, marked: false, allocated }) if *allocated => {
                    let pages = *pages;
                    *allocated = false;
                    let base = Addr::new(pi * PAGE_SIZE);
                    let accounted = self.live.remove(&base.raw()).expect("span in live map");
                    self.stats.on_free(u64::from(accounted));
                    self.span_pool.entry(pages).or_default().push(base);
                    continue;
                }
                _ => continue,
            };
            // Thread the dead blocks onto the freelist with batched write
            // ranges: `dead` is ascending, so maximal runs of consecutive
            // block indices become one `store_u32_range` each (stride =
            // block size), with the head chain computed host-side. The
            // word-level store stream — addresses, values, order — is
            // identical to the historic store-per-block loop.
            let bsize = 1u32 << (class + MIN_CLASS_LOG);
            let page_base = Addr::new(pi * PAGE_SIZE);
            let mut head = self.heads[class as usize];
            let mut i = 0;
            while i < dead.len() {
                let mut j = i + 1;
                while j < dead.len() && dead[j] == dead[j - 1] + 1 {
                    j += 1;
                }
                links.clear();
                for &idx in &dead[i..j] {
                    let base = page_base + idx * bsize;
                    let accounted = self.live.remove(&base.raw()).expect("block in live map");
                    self.stats.on_free(u64::from(accounted));
                    links.push(head.raw());
                    head = base;
                }
                heap.store_u32_range(page_base + dead[i] * bsize, bsize, &links);
                i = j;
            }
            self.heads[class as usize] = head;
        }
        self.bytes_since_gc = 0;
        self.threshold = self.stats.live_bytes.max(MIN_THRESHOLD);
        self.collect_time += t.elapsed();
    }

    fn carve_page(&mut self, heap: &mut SimHeap, class: u32) {
        let bsize = 1u32 << (class + MIN_CLASS_LOG);
        let page = self.sbrk(heap, 1);
        self.pages.insert(page.page_index(), PageKind::Class { class, alloc: [0; 4], mark: [0; 4] });
        // One batched write range threads the whole page onto the
        // freelist; word stream identical to the historic store loop.
        let mut head = self.heads[class as usize];
        let mut links = Vec::with_capacity((PAGE_SIZE / bsize) as usize);
        for off in (0..PAGE_SIZE).step_by(bsize as usize) {
            links.push(head.raw());
            head = page + off;
        }
        heap.store_u32_range(page, bsize, &links);
        self.heads[class as usize] = head;
    }

    fn alloc_span(&mut self, heap: &mut SimHeap, size: u32, accounted: u32) -> Addr {
        let pages = size.div_ceil(PAGE_SIZE);
        let base = match self.span_pool.get_mut(&pages).and_then(Vec::pop) {
            Some(b) => b,
            None => {
                let b = self.sbrk(heap, pages);
                for p in 1..pages {
                    self.pages
                        .insert(b.page_index() + p, PageKind::SpanInterior { start: b.page_index() });
                }
                b
            }
        };
        self.pages.insert(
            base.page_index(),
            PageKind::SpanStart { pages, marked: false, allocated: true },
        );
        heap.fill(base, size, 0);
        self.live.insert(base.raw(), accounted);
        base
    }
}

impl RawMalloc for BoehmGc {
    fn malloc(&mut self, heap: &mut SimHeap, size: u32) -> Addr {
        let accounted = self.stats.on_alloc(size);
        self.bytes_since_gc += u64::from(accounted);
        if self.bytes_since_gc > self.threshold {
            self.collect(heap);
        }
        if size > (1 << MAX_CLASS_LOG) {
            return self.alloc_span(heap, size, accounted);
        }
        let class = Self::class_for(size);
        if self.heads[class as usize].is_null() {
            self.carve_page(heap, class);
        }
        let block = self.heads[class as usize];
        self.heads[class as usize] = heap.load_addr(block);
        let bsize = 1u32 << (class + MIN_CLASS_LOG);
        // Mark allocated and clear the block (GC_malloc returns zeroed
        // memory, which also prevents stale pointers from retaining
        // garbage).
        let pi = block.page_index();
        if let Some(PageKind::Class { alloc, .. }) = self.pages.get_mut(&pi) {
            let idx = block.page_offset() / bsize;
            alloc[(idx / 64) as usize] |= 1 << (idx % 64);
        } else {
            unreachable!("class block on a non-class page");
        }
        heap.fill(block, bsize, 0);
        self.live.insert(block.raw(), accounted);
        block
    }

    /// No-op: "we disable all free's when compiling with this collector".
    fn free(&mut self, _heap: &mut SimHeap, _ptr: Addr) {}

    fn name(&self) -> &'static str {
        "gc"
    }

    fn os_pages(&self) -> u64 {
        self.os_pages
    }

    fn stats(&self) -> &AllocStats {
        &self.stats
    }

    fn push_roots(&mut self, heap: &mut SimHeap, n: u32) {
        assert!(
            (self.top_slot + n) * WORD <= ROOT_PAGES * PAGE_SIZE,
            "root area overflow"
        );
        self.frames.push(self.top_slot);
        for i in 0..n {
            heap.store_addr(self.root_base + (self.top_slot + i) * WORD, Addr::NULL);
        }
        self.top_slot += n;
    }

    fn set_root(&mut self, heap: &mut SimHeap, i: u32, v: Addr) {
        let base = *self.frames.last().expect("no root frame");
        debug_assert!(base + i < self.top_slot);
        heap.store_addr(self.root_base + (base + i) * WORD, v);
    }

    fn pop_roots(&mut self, _heap: &mut SimHeap) {
        self.top_slot = self.frames.pop().expect("no root frame");
    }

    fn add_global_roots(&mut self, start: Addr, len: u32) {
        self.global_roots.push((start, len));
    }

    fn collect_time(&self) -> Duration {
        self.collect_time
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (SimHeap, BoehmGc) {
        let mut heap = SimHeap::new();
        let gc = BoehmGc::new(&mut heap);
        (heap, gc)
    }

    /// Builds a linked list of `n` nodes (node = [next, value]) rooted in
    /// slot 0; returns the head.
    fn build_list(heap: &mut SimHeap, gc: &mut BoehmGc, n: u32) -> Addr {
        let mut head = Addr::NULL;
        for i in 0..n {
            gc.push_roots(heap, 1);
            gc.set_root(heap, 0, head); // protect the partial list
            let node = gc.malloc(heap, 8);
            heap.store_addr(node, head);
            heap.store_u32(node + 4, i);
            head = node;
            gc.pop_roots(heap);
        }
        head
    }

    #[test]
    fn reachable_objects_survive_collection() {
        let (mut heap, mut gc) = setup();
        gc.push_roots(&mut heap, 1);
        let head = build_list(&mut heap, &mut gc, 100);
        gc.set_root(&mut heap, 0, head);
        gc.collect(&mut heap);
        // Walk the list: all 100 nodes intact.
        let mut cur = head;
        let mut count = 0;
        while !cur.is_null() {
            assert!(gc.is_allocated(cur));
            count += 1;
            cur = heap.load_addr(cur);
        }
        assert_eq!(count, 100);
    }

    #[test]
    fn garbage_is_reclaimed() {
        let (mut heap, mut gc) = setup();
        gc.push_roots(&mut heap, 1);
        let head = build_list(&mut heap, &mut gc, 50);
        gc.set_root(&mut heap, 0, head);
        gc.collect(&mut heap);
        let live_with_list = gc.stats().live_bytes;
        gc.set_root(&mut heap, 0, Addr::NULL);
        gc.collect(&mut heap);
        assert!(gc.stats().live_bytes < live_with_list);
        assert_eq!(gc.stats().live_bytes, 0);
        assert!(!gc.is_allocated(head));
    }

    #[test]
    fn interior_pointers_retain_objects() {
        let (mut heap, mut gc) = setup();
        gc.push_roots(&mut heap, 1);
        let obj = gc.malloc(&mut heap, 64);
        gc.set_root(&mut heap, 0, obj + 40); // interior pointer
        gc.collect(&mut heap);
        assert!(gc.is_allocated(obj), "interior pointers must retain (ALL_INTERIOR_POINTERS)");
    }

    #[test]
    fn collection_triggers_automatically_and_bounds_heap() {
        let (mut heap, mut gc) = setup();
        gc.push_roots(&mut heap, 1);
        // Allocate 4 MB of immediately-dead objects.
        for _ in 0..40_000 {
            let p = gc.malloc(&mut heap, 100);
            heap.store_u32(p, 1);
        }
        assert!(gc.collections() > 0, "threshold collections must fire");
        // Footprint stays far below the total allocated volume.
        let footprint = gc.os_pages() * u64::from(PAGE_SIZE);
        assert!(
            footprint < 1 << 20,
            "heap should stay bounded, got {footprint} bytes"
        );
    }

    #[test]
    fn heap_words_are_traced() {
        let (mut heap, mut gc) = setup();
        gc.push_roots(&mut heap, 1);
        // root -> a -> b; b only reachable through a's body.
        let b = gc.malloc(&mut heap, 24);
        heap.store_u32(b + 20, 777);
        gc.push_roots(&mut heap, 1);
        gc.set_root(&mut heap, 0, b);
        let a = gc.malloc(&mut heap, 16);
        gc.pop_roots(&mut heap);
        heap.store_addr(a + 8, b);
        gc.pop_roots(&mut heap);
        gc.push_roots(&mut heap, 1);
        gc.set_root(&mut heap, 0, a);
        gc.collect(&mut heap);
        assert!(gc.is_allocated(a));
        assert!(gc.is_allocated(b));
        assert_eq!(heap.load_u32(b + 20), 777);
    }

    #[test]
    fn global_ranges_are_roots() {
        let (mut heap, mut gc) = setup();
        let globals = heap.sbrk_pages(1);
        gc.add_global_roots(globals, 64);
        let obj = gc.malloc(&mut heap, 32);
        heap.store_addr(globals + 12, obj);
        gc.collect(&mut heap);
        assert!(gc.is_allocated(obj));
        heap.store_addr(globals + 12, Addr::NULL);
        gc.collect(&mut heap);
        assert!(!gc.is_allocated(obj));
    }

    #[test]
    fn cycles_are_collected() {
        let (mut heap, mut gc) = setup();
        gc.push_roots(&mut heap, 1);
        let a = gc.malloc(&mut heap, 16);
        gc.set_root(&mut heap, 0, a);
        let b = gc.malloc(&mut heap, 16);
        heap.store_addr(a, b);
        heap.store_addr(b, a); // cycle
        gc.set_root(&mut heap, 0, Addr::NULL);
        gc.collect(&mut heap);
        assert!(!gc.is_allocated(a), "tracing collectors reclaim cycles");
        assert!(!gc.is_allocated(b));
    }

    #[test]
    fn large_objects_are_collected_as_spans() {
        let (mut heap, mut gc) = setup();
        gc.push_roots(&mut heap, 1);
        let big = gc.malloc(&mut heap, 20_000);
        heap.store_u32(big + 16_384, 5); // touch an interior page
        gc.set_root(&mut heap, 0, big + 9000); // interior pointer into page 3
        gc.collect(&mut heap);
        assert!(gc.is_allocated(big));
        gc.set_root(&mut heap, 0, Addr::NULL);
        gc.collect(&mut heap);
        assert!(!gc.is_allocated(big));
        // The span's pages are reused.
        let again = gc.malloc(&mut heap, 20_000);
        assert_eq!(again, big);
    }

    #[test]
    fn conservative_false_retention_is_possible() {
        // An integer that happens to equal an object address keeps that
        // object alive — the defining weakness of conservative collection.
        let (mut heap, mut gc) = setup();
        gc.push_roots(&mut heap, 1);
        let obj = gc.malloc(&mut heap, 16);
        let disguise = gc.malloc(&mut heap, 8);
        gc.set_root(&mut heap, 0, disguise);
        heap.store_u32(disguise, obj.raw()); // an "integer" equal to obj's address
        gc.collect(&mut heap);
        assert!(gc.is_allocated(obj), "conservative scan must retain the lookalike");
    }

    #[test]
    fn free_is_a_noop() {
        let (mut heap, mut gc) = setup();
        gc.push_roots(&mut heap, 1);
        let a = gc.malloc(&mut heap, 32);
        gc.set_root(&mut heap, 0, a);
        gc.free(&mut heap, a);
        gc.collect(&mut heap);
        assert!(gc.is_allocated(a), "free must be ignored under GC");
    }

    #[test]
    fn fresh_blocks_are_zeroed() {
        let (mut heap, mut gc) = setup();
        gc.push_roots(&mut heap, 1);
        let a = gc.malloc(&mut heap, 64);
        heap.fill(a, 64, 0xEE);
        gc.set_root(&mut heap, 0, Addr::NULL);
        gc.collect(&mut heap);
        let b = gc.malloc(&mut heap, 64);
        assert_eq!(b, a, "block recycled");
        for w in 0..16u32 {
            assert_eq!(heap.load_u32(b + w * 4), 0, "recycled block must be cleared");
        }
    }
}
