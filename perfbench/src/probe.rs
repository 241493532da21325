//! Layer probes: the cost of one operation in each layer, measured by
//! driving that layer's public functions directly with inputs shaped like
//! the workload. Cost × the workload's operation count attributes its
//! time to the layer.
//!
//! Every probe reports the median over [`REPS`] batches, each timed with
//! one `Instant::now` pair around many operations; per-operation figures
//! include the benchmark's loop.

use std::hint::black_box;
use std::time::{Duration, Instant};

use cache_sim::MemorySystem;
use region_core::par::ParRegionPool;
use region_core::{AdmissionController, RegionRuntime, TypeDescriptor, Watermarks};
use simheap::{Access, AccessEvent, AccessSink, Addr, SimHeap, PAGE_SIZE};

use crate::service::DELETE_BUDGET;
use crate::stats::median;

/// Batches per probe.
pub const REPS: usize = 9;

/// How the workload uses the layers.
#[derive(Clone, Debug)]
pub struct Shape {
    /// Object sizes the allocation and fill probes cycle through.
    pub sizes: Vec<u32>,
    /// Typed `ralloc` objects with a pointer field (the paper programs)
    /// instead of pointer-free `rstralloc` strings (service requests).
    pub typed: bool,
    /// Descriptor of the objects a probed deletion cleans up.
    pub cleanup: TypeDescriptor,
    /// Work-increment budget of every probed deletion: unbounded (one
    /// monolithic `deleteregion`) for the paper programs, the service's
    /// bounded budget for its requests.
    pub delete_budget: u64,
}

impl Shape {
    /// The paper programs: typed objects of the measured mean size.
    pub fn paper(mean_alloc_bytes: u32) -> Shape {
        let size = mean_alloc_bytes.clamp(4, 512).next_multiple_of(4);
        Shape {
            sizes: vec![size],
            typed: true,
            cleanup: TypeDescriptor::new("probe", size, vec![0]),
            delete_budget: u64::MAX,
        }
    }

    /// Service requests: 64..=508-byte strings, and index entries with
    /// two counted pointers for the deletion.
    pub fn service() -> Shape {
        Shape {
            sizes: vec![64, 132, 200, 268, 336, 404, 472, 508],
            typed: false,
            cleanup: TypeDescriptor::new("idx", 16, vec![4, 12]),
            delete_budget: DELETE_BUDGET,
        }
    }
}

/// Per-operation costs, in nanoseconds unless named otherwise.
#[derive(Debug)]
pub struct Probes {
    pub alloc: f64,
    pub barrier_region: f64,
    pub barrier_global: f64,
    pub barrier_unknown: f64,
    pub delete_scan: f64,
    pub delete_cleanup: f64,
    pub delete_return: f64,
    pub load: f64,
    pub fill_per_kb: f64,
    pub region_of: f64,
    pub region_of_traced: f64,
    pub publish: f64,
    pub admit: f64,
    pub ingest: f64,
}

/// Runs every probe with the given shape.
pub fn run(shape: &Shape) -> Probes {
    let (barrier_region, barrier_global, barrier_unknown) = barriers();
    let (delete_scan, delete_cleanup, delete_return) = delete(shape);
    Probes {
        alloc: alloc(shape),
        barrier_region,
        barrier_global,
        barrier_unknown,
        delete_scan,
        delete_cleanup,
        delete_return,
        load: load(),
        fill_per_kb: fill(shape),
        region_of: region_of(false),
        region_of_traced: region_of(true),
        publish: publish(),
        admit: admit(),
        ingest: ingest(),
    }
}

fn ns_per(d: Duration, ops: u64) -> f64 {
    d.as_nanos() as f64 / ops as f64
}

/// Median over [`REPS`] batches of `batch`, which returns its own timed
/// duration and operation count.
fn per_op(mut batch: impl FnMut() -> (Duration, u64)) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let (d, ops) = batch();
            ns_per(d, ops)
        })
        .collect();
    median(&samples)
}

/// `try_ralloc` / `try_rstralloc` into a fresh region.
fn alloc(shape: &Shape) -> f64 {
    const N: u64 = 4096;
    let mut rt = RegionRuntime::new_safe();
    let descs: Vec<_> = shape
        .sizes
        .iter()
        .map(|&s| rt.register_type(TypeDescriptor::new("probe", s, vec![0])))
        .collect();
    per_op(|| {
        let r = rt.try_new_region().expect("probe region");
        let t = Instant::now();
        for i in 0..N as usize {
            let j = i % shape.sizes.len();
            let a = if shape.typed {
                rt.try_ralloc(r, descs[j])
            } else {
                rt.try_rstralloc(r, shape.sizes[j])
            };
            black_box(a.expect("probe allocation"));
        }
        let d = t.elapsed();
        rt.try_delete_region(r).expect("probe region delete");
        (d, N)
    })
}

/// The three `store_ptr_*` barrier kinds, each store changing the
/// referent so no old == new fast path is taken.
fn barriers() -> (f64, f64, f64) {
    const N: u64 = 8192;
    let mut rt = RegionRuntime::new_safe();
    let d = rt.register_type(TypeDescriptor::new("cell", 8, vec![4]));
    let (a, b) = (
        rt.try_new_region().expect("region"),
        rt.try_new_region().expect("region"),
    );
    let loc = rt.try_ralloc(a, d).expect("object") + 4;
    let targets = [
        rt.try_ralloc(b, d).expect("object"),
        rt.try_ralloc(b, d).expect("object"),
    ];
    let global = rt.try_alloc_globals(4).expect("globals");
    let mut kind = |store: fn(&mut RegionRuntime, Addr, Addr), loc: Addr| {
        per_op(|| {
            let t = Instant::now();
            for i in 0..N as usize {
                store(&mut rt, loc, black_box(targets[i & 1]));
            }
            (t.elapsed(), N)
        })
    };
    let region = kind(RegionRuntime::store_ptr_region, loc);
    let global = kind(RegionRuntime::store_ptr_global, global);
    let unknown = kind(RegionRuntime::store_ptr_unknown, loc);
    (region, global, unknown)
}

/// `try_delete_region` at the workload's budget (a bounded budget runs
/// the incremental steps to completion inside the call), on three regions
/// shaped so one phase dominates, each deletion timed whole and divided by
/// its units: stack scan (`FRAMES` frames over a one-object region),
/// cleanup (`OBJECTS` pointer-bearing objects, their page walk and return
/// included), and page return (`PAGES` pages of pointer-free strings,
/// which cleanup skips).
fn delete(shape: &Shape) -> (f64, f64, f64) {
    const FRAMES: u32 = 256;
    const SLOTS: u32 = 4;
    const OBJECTS: u64 = 4096;
    const PAGES: u64 = 64;
    let mut rt = RegionRuntime::new_safe();
    rt.set_delete_budget(shape.delete_budget);
    let d = rt.register_type(shape.cleanup.clone());
    let ptr_offsets = shape.cleanup.ptr_offsets().to_vec();
    let keep = rt.try_new_region().expect("region");
    let target = rt.try_rstralloc(keep, 64).expect("target");
    let timed_delete = |rt: &mut RegionRuntime, doomed, units: u64| {
        let t = Instant::now();
        rt.try_delete_region(doomed).expect("probe delete");
        ns_per(t.elapsed(), units)
    };
    let (mut scan, mut cleanup, mut ret) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..REPS {
        for _ in 0..FRAMES {
            rt.push_frame(SLOTS);
            rt.set_local(0, target);
        }
        let doomed = rt.try_new_region().expect("region");
        rt.try_ralloc(doomed, d).expect("object");
        scan.push(timed_delete(&mut rt, doomed, u64::from(FRAMES)));
        for _ in 0..FRAMES {
            rt.pop_frame();
        }

        let doomed = rt.try_new_region().expect("region");
        for _ in 0..OBJECTS {
            let o = rt.try_ralloc(doomed, d).expect("object");
            for &off in &ptr_offsets {
                rt.store_ptr_region(o + off, target);
            }
        }
        cleanup.push(timed_delete(&mut rt, doomed, OBJECTS));

        let doomed = rt.try_new_region().expect("region");
        for _ in 0..PAGES {
            rt.try_rstralloc(doomed, PAGE_SIZE - 64)
                .expect("page-sized string");
        }
        ret.push(timed_delete(&mut rt, doomed, PAGES));
    }
    (median(&scan), median(&cleanup), median(&ret))
}

/// `SimHeap::load_u32` sweeping 64 KB.
fn load() -> f64 {
    const N: u64 = 16384;
    let mut heap = SimHeap::new();
    let base = heap.sbrk_pages(16);
    per_op(|| {
        let t = Instant::now();
        let mut sum = 0u32;
        for i in 0..N as u32 {
            sum = sum.wrapping_add(heap.load_u32(base + (i * 4) % (16 * PAGE_SIZE)));
        }
        black_box(sum);
        (t.elapsed(), N)
    })
}

/// `SimHeap::fill` of the workload's object sizes, per KB filled.
fn fill(shape: &Shape) -> f64 {
    const N: usize = 4096;
    let mut heap = SimHeap::new();
    let base = heap.sbrk_pages(1);
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let mut bytes = 0u64;
            let t = Instant::now();
            for i in 0..N {
                let len = shape.sizes[i % shape.sizes.len()];
                heap.fill(base, black_box(len), 0);
                bytes += u64::from(len);
            }
            t.elapsed().as_nanos() as f64 / (bytes as f64 / 1024.0)
        })
        .collect();
    median(&samples)
}

/// `RegionRuntime::region_of` over pages of several regions. With a cache
/// simulator attached (`traced`) it reads the page map in the heap, as in
/// the traced passes, instead of the host mirror.
fn region_of(traced: bool) -> f64 {
    const N: u64 = 16384;
    let mut rt = RegionRuntime::new_safe();
    if traced {
        rt.heap_mut().attach_sink(Box::new(MemorySystem::default()));
    }
    let mut addrs = Vec::new();
    for _ in 0..8 {
        let r = rt.try_new_region().expect("region");
        for _ in 0..8 {
            addrs.push(
                rt.try_rstralloc(r, PAGE_SIZE - 64)
                    .expect("page-sized string"),
            );
        }
    }
    per_op(|| {
        let t = Instant::now();
        for i in 0..N as usize {
            black_box(rt.region_of(addrs[i % addrs.len()]));
        }
        (t.elapsed(), N)
    })
}

/// One request's pool protocol: create, retain, publish, unpublish,
/// release, delete.
fn publish() -> f64 {
    const N: u64 = 2048;
    per_op(|| {
        let pool = ParRegionPool::new();
        let mut t = pool.register_thread();
        let cell = pool.register_cell();
        let start = Instant::now();
        for _ in 0..N {
            let pr = t.create_region();
            t.retain(pr);
            t.exchange_ref(&cell, Some(pr));
            t.exchange_ref(&cell, None);
            t.release(pr);
            assert!(pool.try_delete(pr), "probe pool region had residual counts");
        }
        (start.elapsed(), N)
    })
}

/// `AdmissionController::admit` on a footprint staircase through the
/// service's watermarks.
fn admit() -> f64 {
    const N: u64 = 1 << 16;
    per_op(|| {
        let mut adm = AdmissionController::new(Watermarks::new(170, 200));
        let t = Instant::now();
        for i in 0..N {
            black_box(adm.admit(black_box(i % 240)));
        }
        (t.elapsed(), N)
    })
}

/// `MemorySystem` ingest of single-word events, three reads per write,
/// sweeping 256 KB.
fn ingest() -> f64 {
    const N: u32 = 1 << 16;
    per_op(|| {
        let mut ms = MemorySystem::default();
        let t = Instant::now();
        for i in 0..N {
            let addr = 0x1_0000 + (i * 4) % (256 << 10);
            let a = if i % 4 == 3 {
                Access::write(addr, 4)
            } else {
                Access::read(addr, 4)
            };
            ms.event(AccessEvent::Word(black_box(a)));
        }
        black_box(ms.stats());
        (t.elapsed(), u64::from(N))
    })
}
