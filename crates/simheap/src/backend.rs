//! The heap surface the region runtime is generic over.
//!
//! `RegionRuntime` historically owned a concrete [`SimHeap`]. The sharded
//! address space (see [`crate::shard`]) introduces a second backing store
//! — a [`HeapShard`](crate::HeapShard) handle onto one page-range slice
//! of a [`SharedSpace`](crate::SharedSpace) — so the subset of the heap
//! API the runtime actually uses is factored into this trait. Both
//! implementations keep identical observable semantics (panic messages,
//! counter increments, OOM/fault error fields), which is what lets a
//! single-shard space reproduce every `SimHeap` golden bit-for-bit.

use crate::{Addr, HeapConfig, HeapError};

/// Word-addressed simulated memory with sbrk growth, access counters and
/// optional tracing — the contract [`crate::SimHeap`] has always offered,
/// as a trait so region runtimes can also run on a [`crate::HeapShard`].
///
/// Semantics are specified by `SimHeap`'s documentation; implementations
/// must match its panics ("simulated segfault" / "simulated bus error"),
/// its counter accounting (including [`HeapBackend::fill`]'s
/// head/words/tail memset cost model) and its error fields exactly, so
/// that swapping backends never changes a deterministic measurement.
pub trait HeapBackend {
    /// Current program break (one past the last mapped byte this handle
    /// can grow).
    fn brk(&self) -> Addr;
    /// Extends the mapped range by `pages` zeroed pages, returning the
    /// first new page's address, or a typed OOM/fault error leaving the
    /// break unmoved.
    fn try_sbrk_pages(&mut self, pages: u32) -> Result<Addr, HeapError>;
    /// Panicking wrapper over [`HeapBackend::try_sbrk_pages`].
    fn sbrk_pages(&mut self, pages: u32) -> Addr {
        self.try_sbrk_pages(pages).unwrap_or_else(|e| panic!("{e}"))
    }
    /// Sets (or clears) the injected sbrk fault budget.
    fn set_sbrk_fault_after(&mut self, budget: Option<u64>);
    /// Reinitializes this handle to an empty heap under `config`,
    /// dropping any attached sink. The host memory behind the old heap
    /// may be kept (zeroed) for the next run; nothing simulated is.
    fn reset_with(&mut self, config: HeapConfig);

    /// Loads a 32-bit word (panics on unmapped/misaligned addresses).
    fn load_u32(&mut self, addr: Addr) -> u32;
    /// Stores a 32-bit word.
    fn store_u32(&mut self, addr: Addr, value: u32);
    /// Loads an address-sized value and interprets it as an address.
    #[inline]
    fn load_addr(&mut self, addr: Addr) -> Addr {
        Addr::new(self.load_u32(addr))
    }
    /// Stores an address.
    #[inline]
    fn store_addr(&mut self, addr: Addr, value: Addr) {
        self.store_u32(addr, value.raw());
    }
    /// Reads a word without charging a load or emitting a trace record
    /// (host-side inspection only — sanitizers, auditors, tests).
    fn peek_u32(&self, addr: Addr) -> u32;
    /// Fills `len` bytes with `byte`, counting stores per the memset cost
    /// model (head bytes, whole words, tail bytes).
    fn fill(&mut self, addr: Addr, len: u32, byte: u8);
    /// Loads `len` words starting at `start`, `stride` bytes apart, as
    /// one batched access.
    fn load_u32_range(&mut self, start: Addr, len: u32, stride: u32) -> Vec<u32>;

    /// `true` if an access sink is attached (host-side mirrors must then
    /// take the in-heap path so the sink misses nothing).
    fn is_tracing(&self) -> bool;
    /// Charges `n` simulated loads without touching memory (host-mirror
    /// answers; must not be called while tracing).
    fn charge_loads(&mut self, n: u64);
    /// Number of loads performed since construction/reset.
    fn load_count(&self) -> u64;
    /// Number of stores performed since construction/reset.
    fn store_count(&self) -> u64;

    /// Announces that the page at `page_index` is now owned by the region
    /// encoded as `cell` (`region index + 1`, 0 = released). The runtime
    /// calls this on every page-map write; a [`crate::HeapShard`]
    /// publishes the entry to the space-wide atomic mirror so other
    /// workers (and the world auditor) can classify the page without
    /// touching this worker's in-heap map. Free-standing heaps have no
    /// one to tell: the default is a no-op.
    fn publish_page_owner(&mut self, page_index: u32, cell: u32) {
        let _ = (page_index, cell);
    }
}

impl HeapBackend for crate::SimHeap {
    fn brk(&self) -> Addr {
        SimHeapInherent::brk(self)
    }
    fn try_sbrk_pages(&mut self, pages: u32) -> Result<Addr, HeapError> {
        SimHeapInherent::try_sbrk_pages(self, pages)
    }
    fn set_sbrk_fault_after(&mut self, budget: Option<u64>) {
        SimHeapInherent::set_sbrk_fault_after(self, budget);
    }
    fn reset_with(&mut self, config: HeapConfig) {
        SimHeapInherent::reset_with(self, config);
    }
    #[inline]
    fn load_u32(&mut self, addr: Addr) -> u32 {
        SimHeapInherent::load_u32(self, addr)
    }
    #[inline]
    fn store_u32(&mut self, addr: Addr, value: u32) {
        SimHeapInherent::store_u32(self, addr, value);
    }
    fn peek_u32(&self, addr: Addr) -> u32 {
        SimHeapInherent::peek_u32(self, addr)
    }
    #[inline]
    fn fill(&mut self, addr: Addr, len: u32, byte: u8) {
        SimHeapInherent::fill(self, addr, len, byte);
    }
    fn load_u32_range(&mut self, start: Addr, len: u32, stride: u32) -> Vec<u32> {
        SimHeapInherent::load_u32_range(self, start, len, stride)
    }
    #[inline]
    fn is_tracing(&self) -> bool {
        SimHeapInherent::is_tracing(self)
    }
    #[inline]
    fn charge_loads(&mut self, n: u64) {
        SimHeapInherent::charge_loads(self, n);
    }
    fn load_count(&self) -> u64 {
        SimHeapInherent::load_count(self)
    }
    fn store_count(&self) -> u64 {
        SimHeapInherent::store_count(self)
    }
}

/// Alias so the delegating impl above reads unambiguously: these are the
/// inherent `SimHeap` methods, not recursive trait calls.
use crate::SimHeap as SimHeapInherent;
