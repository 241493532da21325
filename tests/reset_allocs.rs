//! A reset runtime replays a run without allocating host memory.
//!
//! `RegionRuntime::reset` keeps the runtime's host capacity (region
//! table, page lists, page-map mirror) and `HeapShard::reset_with` keeps
//! its born pages as zeroed spares, so the second replay of a request
//! sequence grows none of them again. This binary counts allocations
//! with its own global allocator; each test counts only its own thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use explicit_regions::region_core::{
    capture_world, DeleteProgress, DescId, RegionConfig, RegionId, RegionRuntime, TypeDescriptor,
};
use explicit_regions::simheap::{
    Addr, HeapBackend, HeapConfig, HeapShard, SharedSpace, SpaceConfig,
};

/// The system allocator, counting the allocations and reallocations of
/// each thread that has counting on.
struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn tally() {
    if COUNTING.with(Cell::get) {
        ALLOCS.with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which meets the `GlobalAlloc` contract; the tally touches only
// const-initialized thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Host allocations `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCS.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, ALLOCS.with(Cell::get))
}

/// Deletes `r` in budgeted increments.
fn drain(rt: &mut RegionRuntime<HeapShard>, r: RegionId) {
    while rt
        .try_delete_region_step(r)
        .expect("nothing blocks the delete")
        == DeleteProgress::Parked
    {}
}

/// One session's requests, shaped like the region service's: each
/// request fills and deletes its own region, then appends to a
/// long-lived cache region and to an index region of counted pointers
/// into it, which is deleted every 45 requests. Returns the addresses
/// handed out, folded.
fn session(rt: &mut RegionRuntime<HeapShard>, entry: DescId, requests: u32) -> u64 {
    let mut fold = 0u64;
    let mut seen = |a: Addr| fold = fold.rotate_left(5) ^ u64::from(a.raw());
    let cache = rt.new_region();
    let mut index = rt.new_region();
    for req in 0..requests {
        let r = rt.new_region();
        for k in 0..2 + req % 4 {
            seen(rt.rstralloc(r, (64 + (req * 37 + k * 101) % 448) & !3));
        }
        drain(rt, r);
        let block = rt.rstralloc(cache, 384);
        for _ in 0..24 {
            let e = rt.ralloc(index, entry);
            rt.store_ptr_region(e + 4, block);
            rt.store_ptr_region(e + 12, block);
            seen(e);
        }
        if req % 45 == 44 {
            drain(rt, index);
            index = rt.new_region();
        }
    }
    drain(rt, index);
    drain(rt, cache);
    fold
}

/// Resets `rt` for a run: the state a fresh runtime starts the
/// service's episode in.
fn start(rt: &mut RegionRuntime<HeapShard>) -> DescId {
    rt.reset(RegionConfig::default());
    rt.set_delete_budget(64);
    rt.register_type(TypeDescriptor::new("idx", 16, vec![4, 12]))
}

#[test]
fn a_reset_shard_runtime_replays_its_requests_without_allocating() {
    let space = SharedSpace::new(SpaceConfig {
        max_bytes: 64 << 20,
        workers: 2,
    });
    let idle = RegionRuntime::with_config_on(RegionConfig::default(), space.shard(0));
    let mut rt = RegionRuntime::with_config_on(RegionConfig::default(), space.shard(1));
    let entry = start(&mut rt);
    let (first, grown) = allocations(|| session(&mut rt, entry, 360));
    let born = rt.heap().materialized_pages();
    assert!(born > 40, "the run births pages: {born}");
    assert!(
        grown > u64::from(born),
        "the first run grows host state: {grown} allocations"
    );
    let end = capture_world(&space, &[&idle, &rt]);

    let entry = start(&mut rt);
    let (again, allocs) = allocations(|| session(&mut rt, entry, 360));
    assert_eq!(again, first, "the replay hands out the same addresses");
    assert!(
        capture_world(&space, &[&idle, &rt]) == end,
        "and ends in the same state"
    );
    assert_eq!(rt.heap().materialized_pages(), born);
    assert_eq!(
        allocs, 0,
        "a replay on a reset runtime allocated host memory"
    );
}

#[test]
fn reborn_spare_pages_read_zero() {
    let space = SharedSpace::new(SpaceConfig {
        max_bytes: 1 << 20,
        workers: 1,
    });
    let mut shard = space.shard(0);
    let base = shard.try_sbrk_pages(2).unwrap();
    for w in 0..2 * 1024 {
        shard.store_u32(base + 4 * w, 0xdead_0000 | w);
    }
    shard.reset_with(HeapConfig::default());
    assert_eq!(shard.try_sbrk_pages(2).unwrap(), base);
    let ((), allocs) = allocations(|| shard.store_u32(base + 8, 1));
    assert_eq!(allocs, 0, "the page is reborn from a spare");
    let ((), allocs) = allocations(|| shard.store_u32(base + 4096 + 8, 1));
    assert_eq!(allocs, 0, "so is the second");
    for w in 0..2 * 1024 {
        let want = u32::from(w % 1024 == 2);
        assert_eq!(
            shard.peek_u32(base + 4 * w),
            want,
            "word {w} of a reborn page"
        );
    }
}

/// A foreign read holds no page, so every page a reset uninstalls comes
/// back as a spare, and the reader then sees the owner's new words.
#[test]
fn a_page_another_shard_read_is_reborn_for_both_shards() {
    let space = SharedSpace::new(SpaceConfig {
        max_bytes: 1 << 20,
        workers: 2,
    });
    let (mut owner, mut reader) = (space.shard(0), space.shard(1));
    let read = owner.try_sbrk_pages(2).unwrap();
    owner.store_u32(read, 7);
    owner.store_u32(read + 4096, 8);
    reader.try_sbrk_pages(1).unwrap();
    assert_eq!(reader.load_u32(read), 7, "the reader reads the owner's first page");
    owner.reset_with(HeapConfig::default());
    owner.try_sbrk_pages(2).unwrap();
    let ((), first) = allocations(|| owner.store_u32(read, 9));
    let ((), second) = allocations(|| owner.store_u32(read + 4096, 9));
    assert_eq!((first, second), (0, 0), "both pages are reborn from spares");
    assert_eq!(reader.load_u32(read), 9, "the reader sees the owner's new word");
}
