//! The malloc/free baselines of the paper's evaluation (§5.2).
//!
//! Gay & Aiken compare regions against three malloc implementations and a
//! conservative collector:
//!
//! * **Sun** — "the default allocator supplied with Solaris 2.5.1", a
//!   best-fit allocator ([`SunMalloc`]);
//! * **BSD** — the CSRG/Kingsley power-of-two allocator: "it rounds
//!   allocations up to the nearest power of two ... fast allocation and
//!   deallocation but ... a very large memory overhead" ([`BsdMalloc`]);
//! * **Lea** — Doug Lea's malloc v2.6.4, binned best-fit with boundary
//!   tags and coalescing ([`LeaMalloc`]);
//! * the Boehm–Weiser collector, implemented in the `conservative-gc`
//!   crate against this crate's [`RawMalloc`] interface.
//!
//! The paper also uses an **emulation** library — "a region library that
//! uses malloc and free to allocate and free each individual object" — to
//! run region-structured programs on malloc; that is
//! [`EmulatedRegions`].
//!
//! All allocators operate on the simulated address space of `simheap`, so
//! their OS footprint (Figure 8) and memory access patterns (Figure 10)
//! are observable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bsd;
mod emulation;
mod lea;
mod sun;

pub use bsd::BsdMalloc;
pub use emulation::{EmuRegionId, EmulatedRegions};
pub use lea::LeaMalloc;
pub use sun::SunMalloc;

use std::time::Duration;

use region_core::AllocStats;
use simheap::{Addr, SimHeap};

/// The malloc/free interface every baseline implements.
///
/// The GC hooks (`push_roots` and friends) exist so that the same
/// workload code can run against the conservative collector: they
/// maintain a root area the collector scans, and are no-ops for real
/// malloc/free allocators (where liveness is explicit). The root API is
/// *write-only* — workloads keep their pointers in host variables and
/// mirror them into root slots.
pub trait RawMalloc {
    /// Allocates `size` bytes; the returned address is at least 4-aligned.
    /// `size` 0 is allowed and yields a minimal block.
    fn malloc(&mut self, heap: &mut SimHeap, size: u32) -> Addr;

    /// Frees a block previously returned by [`RawMalloc::malloc`].
    /// Freeing [`Addr::NULL`] is a no-op. Garbage collectors ignore this
    /// entirely (the paper disables all frees under the Boehm–Weiser
    /// collector).
    fn free(&mut self, heap: &mut SimHeap, ptr: Addr);

    /// Human-readable allocator name ("sun", "bsd", "lea", "gc").
    fn name(&self) -> &'static str;

    /// Pages this allocator has requested from the OS (Figure 8).
    fn os_pages(&self) -> u64;

    /// Allocation statistics (Table 3).
    fn stats(&self) -> &AllocStats;

    /// Pushes a frame of `n` root slots (no-op unless collecting).
    fn push_roots(&mut self, _heap: &mut SimHeap, _n: u32) {}

    /// Mirrors a pointer into root slot `i` of the newest root frame
    /// (no-op unless collecting).
    fn set_root(&mut self, _heap: &mut SimHeap, _i: u32, _v: Addr) {}

    /// Pops the newest root frame (no-op unless collecting).
    fn pop_roots(&mut self, _heap: &mut SimHeap) {}

    /// Registers a range of global storage the collector must treat as
    /// roots (no-op unless collecting).
    fn add_global_roots(&mut self, _start: Addr, _len: u32) {}

    /// Wall time spent in collections so far (zero unless collecting).
    /// A collection is timed once, as a whole, by the collector itself,
    /// so a caller that samples `malloc` can subtract it from the sample
    /// and charge it exactly.
    fn collect_time(&self) -> Duration {
        Duration::ZERO
    }
}

impl<T: RawMalloc + ?Sized> RawMalloc for Box<T> {
    fn malloc(&mut self, heap: &mut SimHeap, size: u32) -> Addr {
        (**self).malloc(heap, size)
    }
    fn free(&mut self, heap: &mut SimHeap, ptr: Addr) {
        (**self).free(heap, ptr)
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn os_pages(&self) -> u64 {
        (**self).os_pages()
    }
    fn stats(&self) -> &AllocStats {
        (**self).stats()
    }
    fn push_roots(&mut self, heap: &mut SimHeap, n: u32) {
        (**self).push_roots(heap, n)
    }
    fn set_root(&mut self, heap: &mut SimHeap, i: u32, v: Addr) {
        (**self).set_root(heap, i, v)
    }
    fn pop_roots(&mut self, heap: &mut SimHeap) {
        (**self).pop_roots(heap)
    }
    fn add_global_roots(&mut self, start: Addr, len: u32) {
        (**self).add_global_roots(start, len)
    }
    fn collect_time(&self) -> Duration {
        (**self).collect_time()
    }
}

/// Tracks pages obtained from the simulated OS by one allocator.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct OsAccount {
    pub(crate) pages: u64,
}

impl OsAccount {
    pub(crate) fn sbrk_pages(&mut self, heap: &mut SimHeap, n: u32) -> Addr {
        self.pages += u64::from(n);
        heap.sbrk_pages(n)
    }
}
