//! Deterministic fault injection for the region runtime.
//!
//! A [`FaultPlan`] decides, ahead of any side effect, whether a page
//! acquisition or an allocation should fail with
//! [`RegionError::FaultInjected`](crate::RegionError::FaultInjected).
//! Plans are pure functions of their construction parameters and an
//! optional seed, so the same plan driven by the same operation sequence
//! injects exactly the same faults — the chaos harness relies on this for
//! bit-identical re-runs.
//!
//! Faults are checked *before* the runtime mutates anything, so a faulted
//! operation is observationally a no-op (asserted by property tests).

use std::fmt;

/// The operation class a fault was injected into.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultSite {
    /// Taking a page from the pool / the simulated OS.
    PageAcquisition,
    /// An `ralloc`/`rarrayalloc`/`rstralloc` call.
    Allocation,
    /// Heap growth (`sbrk`) past a byte budget, injected inside
    /// [`simheap::SimHeap`] via
    /// [`HeapConfig::sbrk_fault_after`](simheap::HeapConfig).
    Sbrk,
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FaultSite::PageAcquisition => "page acquisition",
            FaultSite::Allocation => "allocation",
            FaultSite::Sbrk => "sbrk",
        })
    }
}

/// A deterministic schedule of injected failures.
///
/// ```
/// use region_core::{FaultPlan, RegionError, RegionRuntime};
///
/// let mut rt = RegionRuntime::new_safe();
/// rt.set_fault_plan(FaultPlan::new().fail_page_acquisition(2));
/// let r = rt.try_new_region().unwrap(); // acquisition #1 succeeds
/// assert!(matches!(
///     rt.try_new_region(),
///     Err(RegionError::FaultInjected { .. })
/// ));
/// assert!(rt.is_live(r), "the faulted operation changed nothing");
/// ```
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// 1-based page-acquisition ordinals to fail.
    fail_pages: Vec<u64>,
    /// Fail every Mth allocation (the Mth, 2Mth, ...).
    every_mth_alloc: Option<u64>,
    /// Fail a seeded-random 1-in-N of allocations.
    alloc_one_in: Option<u64>,
    /// Make `sbrk` fail once the heap exceeds this many bytes (threaded
    /// into [`simheap::HeapConfig::sbrk_fault_after`] by
    /// `RegionRuntime::set_fault_plan`).
    sbrk_after: Option<u64>,
    /// xorshift64* state for `alloc_one_in`.
    rng: u64,
    pages_seen: u64,
    allocs_seen: u64,
    injected: u64,
}

impl FaultPlan {
    /// An empty plan that injects nothing.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// An empty plan whose random decisions derive from `seed`.
    pub fn seeded(seed: u64) -> FaultPlan {
        // splitmix64 scramble: distinct nearby seeds give unrelated
        // streams, and 0 cannot reach the all-zero xorshift fixpoint.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        FaultPlan { rng: (z ^ (z >> 31)) | 1, ..FaultPlan::default() }
    }

    /// Fail the `nth` page acquisition (1-based). May be called multiple
    /// times to fail several ordinals.
    pub fn fail_page_acquisition(mut self, nth: u64) -> FaultPlan {
        self.fail_pages.push(nth);
        self
    }

    /// Fail every `m`th allocation attempt (`m >= 1`).
    pub fn fail_every_mth_alloc(mut self, m: u64) -> FaultPlan {
        assert!(m >= 1, "fail_every_mth_alloc(0)");
        self.every_mth_alloc = Some(m);
        self
    }

    /// Fail a seeded-random one in `n` allocation attempts.
    pub fn fail_allocs_one_in(mut self, n: u64) -> FaultPlan {
        assert!(n >= 1, "fail_allocs_one_in(0)");
        self.alloc_one_in = Some(n);
        self
    }

    /// Fail heap growth (`sbrk`) once the heap would exceed `bytes`.
    pub fn fail_sbrk_after(mut self, bytes: u64) -> FaultPlan {
        self.sbrk_after = Some(bytes);
        self
    }

    /// The configured sbrk byte budget, if any.
    pub fn sbrk_after(&self) -> Option<u64> {
        self.sbrk_after
    }

    /// Total faults this plan has injected so far.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Snapshot support: the plan's complete internal state — schedule and
    /// progress counters — in the order [`FaultPlan::from_raw_state`]
    /// consumes it. A plan rebuilt from this state continues injecting at
    /// exactly the point the original left off (same dice stream, same
    /// ordinals), which is what lets a snapshot be taken *inside* a fault
    /// window and still replay bit-identically.
    pub(crate) fn raw_state(&self) -> (&[u64], Option<u64>, Option<u64>, Option<u64>, [u64; 4]) {
        (
            &self.fail_pages,
            self.every_mth_alloc,
            self.alloc_one_in,
            self.sbrk_after,
            [self.rng, self.pages_seen, self.allocs_seen, self.injected],
        )
    }

    /// Rebuilds a plan from [`FaultPlan::raw_state`] output.
    pub(crate) fn from_raw_state(
        fail_pages: Vec<u64>,
        every_mth_alloc: Option<u64>,
        alloc_one_in: Option<u64>,
        sbrk_after: Option<u64>,
        counters: [u64; 4],
    ) -> FaultPlan {
        let [rng, pages_seen, allocs_seen, injected] = counters;
        FaultPlan {
            fail_pages,
            every_mth_alloc,
            alloc_one_in,
            sbrk_after,
            rng,
            pages_seen,
            allocs_seen,
            injected,
        }
    }

    fn next_rand(&mut self) -> u64 {
        // xorshift64* — tiny, deterministic, good enough for fault dice.
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Called by the runtime before each page acquisition. Returns the
    /// 1-based ordinal if this acquisition must fail.
    pub(crate) fn check_page(&mut self) -> Option<u64> {
        self.pages_seen += 1;
        if self.fail_pages.contains(&self.pages_seen) {
            self.injected += 1;
            return Some(self.pages_seen);
        }
        None
    }

    /// Called by the runtime before each allocation. Returns the 1-based
    /// ordinal if this allocation must fail.
    #[inline]
    pub(crate) fn check_alloc(&mut self) -> Option<u64> {
        self.allocs_seen += 1;
        if self.every_mth_alloc.is_none() && self.alloc_one_in.is_none() {
            return None;
        }
        self.check_alloc_armed()
    }

    /// [`FaultPlan::check_alloc`] under a plan that injects allocation
    /// faults, out of line so a plan without them costs one test.
    #[inline(never)]
    fn check_alloc_armed(&mut self) -> Option<u64> {
        let mth = self.every_mth_alloc.is_some_and(|m| self.allocs_seen % m == 0);
        let dice = self.alloc_one_in.is_some_and(|n| {
            // Consume one random draw per attempt so the stream is a pure
            // function of the attempt count, not of which faults fired.
            self.next_rand() % n == 0
        });
        if mth || dice {
            self.injected += 1;
            return Some(self.allocs_seen);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nth_page_fault_fires_exactly_once() {
        let mut p = FaultPlan::new().fail_page_acquisition(3);
        assert_eq!(p.check_page(), None);
        assert_eq!(p.check_page(), None);
        assert_eq!(p.check_page(), Some(3));
        assert_eq!(p.check_page(), None);
        assert_eq!(p.injected(), 1);
    }

    #[test]
    fn every_mth_alloc_fires_periodically() {
        let mut p = FaultPlan::new().fail_every_mth_alloc(3);
        let fired: Vec<bool> = (0..9).map(|_| p.check_alloc().is_some()).collect();
        assert_eq!(fired, [false, false, true, false, false, true, false, false, true]);
        assert_eq!(p.injected(), 3);
    }

    #[test]
    fn raw_state_round_trip_continues_the_dice_stream() {
        let mut p = FaultPlan::seeded(7).fail_allocs_one_in(5).fail_page_acquisition(9);
        for _ in 0..100 {
            p.check_alloc();
            p.check_page();
        }
        let (pages, mth, one_in, sbrk, counters) = p.raw_state();
        let mut q = FaultPlan::from_raw_state(pages.to_vec(), mth, one_in, sbrk, counters);
        let a: Vec<_> = (0..100).map(|_| p.check_alloc()).collect();
        let b: Vec<_> = (0..100).map(|_| q.check_alloc()).collect();
        assert_eq!(a, b, "rebuilt plan must continue the exact dice stream");
        assert_eq!(p.injected(), q.injected());
    }

    #[test]
    fn seeded_dice_are_reproducible() {
        let run = |seed| {
            let mut p = FaultPlan::seeded(seed).fail_allocs_one_in(4);
            (0..256).map(|_| p.check_alloc().is_some()).collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42), "same seed, same faults");
        assert_ne!(run(42), run(43), "different seeds diverge");
        let mut p = FaultPlan::seeded(42).fail_allocs_one_in(4);
        (0..256).for_each(|_| {
            p.check_alloc();
        });
        let hits = p.injected();
        assert!(hits > 16 && hits < 144, "1-in-4 dice wildly off: {hits}/256");
    }
}
