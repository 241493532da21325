//! Safe region-based memory management — a reproduction of
//! **Gay & Aiken, "Memory Management with Explicit Regions" (PLDI 1998)**.
//!
//! In a region-based system every allocation names a region, and memory is
//! reclaimed by destroying a region, freeing all storage allocated in it.
//! The paper's contribution is making this *safe* with low overhead: a
//! region can only be deleted when no external references to its objects
//! remain, enforced by **region reference counts** maintained with
//! compiler-placed write barriers, a deferred stack-scanning scheme for
//! local variables, and per-type cleanup functions.
//!
//! This crate contains two implementations of the idea:
//!
//! * [`RegionRuntime`] — the paper's runtime, faithfully: 4 KB pages, a
//!   page→region map, `ralloc`/`rarrayalloc`/`rstralloc`, reference counts,
//!   a shadow stack with a high-water mark, and cleanup scans. It runs on
//!   the simulated address space of the `simheap` crate so footprint and
//!   locality are measurable; the C@ compiler (`cq-lang`) and the benchmark
//!   workloads build on it.
//! * [`Arena`] — explicit regions as an idiomatic host-Rust library, where
//!   the borrow checker provides the safety property statically.
//!
//! A multi-threaded extension ([`par::ParRegionPool`]) implements the
//! paper's §1 sketch: per-thread local reference counts, with a region
//! deletable when the counts sum to zero. The pool is crash-safe: a
//! worker thread that dies mid-schedule settles its ledger into a
//! pool-owned orphan ledger, blocked regions are quarantined with a
//! typed [`ParRegionError`], and [`par::ParRegionPool::reap_orphans`] /
//! [`par::ParRegionPool::audit`] reclaim and verify explicitly
//! (DESIGN §12).
//!
//! # Quick start
//!
//! ```
//! use region_core::{RegionRuntime, TypeDescriptor};
//!
//! let mut rt = RegionRuntime::new_safe();
//! // struct list { int i; struct list @next; }       (paper Figure 3)
//! let list = rt.register_type(TypeDescriptor::new("list", 8, vec![4]));
//!
//! let r = rt.new_region();
//! let head = rt.ralloc(r, list);
//! let second = rt.ralloc(r, list);
//! rt.heap_mut().store_u32(head, 1);
//! rt.store_ptr_region(head + 4, second);   // head.next = second
//!
//! // A pointer from global storage keeps the region alive...
//! let g = rt.alloc_globals(4);
//! rt.store_ptr_global(g, head);
//! assert!(!rt.delete_region(r));
//! // ...until it is cleared.
//! rt.store_ptr_global(g, simheap::Addr::NULL);
//! assert!(rt.delete_region(r));
//! ```

#![deny(unsafe_code)] // `arena` opts back in with documented SAFETY comments
#![warn(missing_docs)]

mod arena;
mod costs;
mod descriptor;
mod error;
mod fault;
pub mod par;
pub mod pressure;
mod runtime;
mod sanitize;
mod snapshot;
mod stack;
mod stats;
pub mod world;

pub use arena::Arena;
pub use costs::{
    SafetyCosts, ScanAttribution, CLEANUP_OBJECT_INSTRS, CLEANUP_PTR_INSTRS, ELIDED_WRITE_INSTRS,
    GLOBAL_WRITE_INSTRS, REGION_WRITE_INSTRS, SCAN_FRAME_INSTRS, SCAN_SLOT_INSTRS,
    UNKNOWN_WRITE_INSTRS,
};
pub use descriptor::{DescId, DescriptorTable, TypeDescriptor};
pub use error::{ParRegionError, RegionError};
pub use fault::{FaultPlan, FaultSite};
pub use pressure::{Admission, AdmissionController, Watermarks};
pub use runtime::{DeleteProgress, RegionConfig, RegionId, RegionRuntime, SafetyMode};
pub use sanitize::{MirrorMismatch, RcMismatch, RcViolation, SanitizeReport};
pub use snapshot::{
    snapshot_fields, FieldName, SnapReader, SnapWriter, SnapshotError, SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
};
pub use stats::AllocStats;
pub use world::{
    capture_world, restore_world, world_mirror_mismatches, RestoredWorld, WORLD_SNAPSHOT_VERSION,
};
