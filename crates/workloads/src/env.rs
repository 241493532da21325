//! Uniform environments the workloads run against.
//!
//! Every benchmark exists in two source variants, as in the paper:
//! a malloc/free version (run against Sun, BSD, Lea and the collector —
//! [`MallocEnv`]) and a region version (run against the safe runtime,
//! the unsafe runtime, and malloc-backed emulation — [`RegionEnv`]).
//! Both environments measure the wall-clock time spent inside memory
//! management with one `MemClock`; that time becomes the "memory" share
//! of Figure 9.

use std::time::{Duration, Instant};

use conservative_gc::BoehmGc;
use malloc_suite::{BsdMalloc, EmuRegionId, EmulatedRegions, LeaMalloc, RawMalloc, SunMalloc};
use region_core::{AllocStats, RegionConfig, RegionId, RegionRuntime, SafetyMode, TypeDescriptor};
use simheap::{Addr, SimHeap};

/// Mean number of sampled-stratum calls per timed call.
const SAMPLE_PERIOD: u64 = 32;

/// Seed of every clock's sampling schedule: fixed, so the same call
/// sequence always times the same calls.
const SCHEDULE_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// A sampled call does at most a page of work: on a 2-vCPU x86-64 VM,
/// fewer than one sample in ten thousand took 4 µs or more. A sample
/// longer than this was interrupted (the thread was descheduled or
/// served an interrupt), and scaling it by the period would charge the
/// interruption 32 times, so it is discarded: the call still counts and
/// is charged the mean of the kept samples.
const INTERRUPTED_NS: i64 = 5_000;

/// An empty clock read takes tens of nanoseconds. One that took this
/// much longer than the fastest seen so far was interrupted, and says
/// nothing about the clock's latency (DESIGN §18).
const READ_SLACK_NS: i64 = 1_000;

/// How a call is timed (DESIGN §18).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Stratum {
    /// Frequent, bounded-cost calls: one in [`SAMPLE_PERIOD`] is timed.
    Sampled,
    /// Calls that can be arbitrarily expensive: every one is timed.
    Exact,
}

/// Figure 9's memory-management timer, shared by [`MallocEnv`] and
/// [`RegionEnv`] so every column is measured with the same instrument.
///
/// Calls fall into two strata (DESIGN §18):
///
/// * **sampled** — frequent calls of bounded cost (the real runtime's
///   `ralloc`, `rstralloc` and barriers; `malloc`/`free`). One call in
///   [`SAMPLE_PERIOD`] on average is timed, on a private xorshift
///   schedule; the estimate is the kept samples' mean × the exact call
///   count. A clock read costs more than most of these calls, so timing
///   every one would make the instrument the larger part of the run.
/// * **exact** — calls that can be arbitrarily expensive (region
///   creation and deletion, array allocations, frame pops that
///   unscan, every emulated-backend call). Each one is timed, so a rare
///   heavy call can never be sampled away or multiplied by the period.
///
/// Every timed call is corrected for the clock's own latency by an
/// empty read just before it: `(t2 − t1) − (t1 − t0)`. A sample whose
/// call or empty read was interrupted is discarded; an exact call whose
/// empty read was interrupted is corrected by the fastest read seen
/// instead. The reported time never exceeds the wall time since the
/// first timed call; the unbounded estimate is kept for the harness to
/// check.
struct MemClock {
    /// When the first timed call started; `None` before it.
    first: Option<Instant>,
    /// Sampled-stratum calls, and how many timed ones were kept.
    calls: u64,
    samples: u64,
    /// Calls until the next timed one (1 = the next call).
    countdown: u64,
    rng: u64,
    /// Latency-corrected nanoseconds of the kept samples.
    sampled_ns: i64,
    /// Exact-stratum calls and their latency-corrected nanoseconds.
    exact_calls: u64,
    exact_ns: i64,
    /// The fastest empty read seen so far.
    min_read: i64,
}

impl MemClock {
    fn new() -> MemClock {
        let mut clock = MemClock {
            first: None,
            calls: 0,
            samples: 0,
            countdown: 0,
            rng: SCHEDULE_SEED,
            sampled_ns: 0,
            exact_calls: 0,
            exact_ns: 0,
            min_read: i64::MAX,
        };
        clock.countdown = clock.gap();
        clock
    }

    /// The next gap between timed calls, uniform on `1..2·SAMPLE_PERIOD`.
    fn gap(&mut self) -> u64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        1 + self.rng % (2 * SAMPLE_PERIOD - 1)
    }

    /// Counts a call; `true` if it is to be timed.
    #[inline]
    fn start(&mut self, stratum: Stratum) -> bool {
        if stratum == Stratum::Exact {
            self.first.get_or_insert_with(Instant::now);
            return true;
        }
        self.calls += 1;
        self.countdown -= 1;
        if self.countdown > 0 {
            return false;
        }
        self.countdown = self.gap();
        self.first.get_or_insert_with(Instant::now);
        true
    }

    /// Charges a timed call, corrected for the clock's latency.
    fn charge(&mut self, stratum: Stratum, t: Timing) {
        self.min_read = self.min_read.min(t.read);
        let read_ok = t.read <= self.min_read.saturating_add(READ_SLACK_NS);
        match stratum {
            Stratum::Exact => {
                self.exact_calls += 1;
                self.exact_ns += t.call - if read_ok { t.read } else { self.min_read };
            }
            Stratum::Sampled if read_ok && t.call <= INTERRUPTED_NS => {
                self.samples += 1;
                self.sampled_ns += t.call - t.read;
            }
            Stratum::Sampled => {}
        }
    }

    /// Runs a call, timing it if its stratum and the schedule say so.
    #[inline]
    fn time<R>(&mut self, stratum: Stratum, f: impl FnOnce() -> R) -> R {
        if !self.start(stratum) {
            return f();
        }
        let (r, t) = probe(f);
        self.charge(stratum, t);
        r
    }

    /// The estimated nanoseconds inside memory management, plus
    /// `collected` (collections timed by the allocator itself), before
    /// any bound. A sound clock keeps this above zero and within the
    /// wall time of the run; the harness checks both.
    fn estimate_ns(&self, collected: Duration) -> i64 {
        let sampled = match self.samples {
            0 => 0.0,
            n => self.sampled_ns as f64 * (self.calls as f64 / n as f64),
        };
        self.exact_ns + sampled as i64 + nanos(collected)
    }

    /// [`MemClock::estimate_ns`] bounded to zero and to the wall time
    /// since the first timed call, so it is always a share of the run.
    fn estimate(&self, collected: Duration) -> Duration {
        let ns = Duration::from_nanos(self.estimate_ns(collected).max(0) as u64);
        ns.min(self.first.map_or(Duration::ZERO, |t| t.elapsed()))
    }
}

/// One timed call: the call's own interval and the empty read before it.
#[derive(Clone, Copy)]
struct Timing {
    call: i64,
    read: i64,
}

/// Steps of [`overlap_work`]: 32 multiply-rotates, about 130 cycles.
/// Twice as many read the same estimates, so the chain already covers
/// the part of a call an out-of-order core finishes in the shadow of
/// the code after it (DESIGN §18).
const OVERLAP_STEPS: u32 = 32;

/// A fixed chain of dependent multiply-rotates: independent of any call,
/// it stands in for the code that follows a call in an untimed run.
#[inline(always)]
fn overlap_work() {
    let mut x = std::hint::black_box(SCHEDULE_SEED);
    for _ in 0..OVERLAP_STEPS {
        x = x.wrapping_mul(0x2545_F491_4F6C_DD1D).rotate_left(7);
    }
    std::hint::black_box(x);
}

/// Runs `f` between clock reads `t1` and `t2`, with an empty read `t0`
/// just before, so the clock's latency can be taken out in situ.
///
/// Both intervals end in [`overlap_work`]. A clock read waits for every
/// earlier instruction, so a call timed alone would be charged the tail
/// that, untimed, overlaps the mutator code after it; followed by the
/// same independent work, the call's tail overlaps that instead, and
/// the work's own time cancels against the empty interval.
#[inline(always)]
fn probe<R>(f: impl FnOnce() -> R) -> (R, Timing) {
    let t0 = Instant::now();
    overlap_work();
    let t1 = Instant::now();
    let r = f();
    overlap_work();
    let t2 = Instant::now();
    (r, Timing { call: nanos(t2 - t1), read: nanos(t1 - t0) })
}

fn nanos(d: Duration) -> i64 {
    d.as_nanos() as i64
}

/// Which malloc/free implementation a [`MallocEnv`] uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MallocKind {
    /// Solaris-default stand-in (best fit, coalescing).
    Sun,
    /// Power-of-two freelists.
    Bsd,
    /// Doug Lea's malloc.
    Lea,
    /// Boehm–Weiser conservative collection (frees ignored).
    Gc,
}

impl MallocKind {
    /// All four baselines, in the paper's presentation order.
    pub const ALL: [MallocKind; 4] = [MallocKind::Sun, MallocKind::Bsd, MallocKind::Lea, MallocKind::Gc];

    /// Display name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            MallocKind::Sun => "Sun",
            MallocKind::Bsd => "BSD",
            MallocKind::Lea => "Lea",
            MallocKind::Gc => "GC",
        }
    }
}

/// A malloc/free world: one allocator over one simulated heap.
pub struct MallocEnv {
    heap: SimHeap,
    alloc: Box<dyn RawMalloc>,
    kind: MallocKind,
    clock: MemClock,
}

impl MallocEnv {
    /// Creates an environment for the given allocator.
    pub fn new(kind: MallocKind) -> MallocEnv {
        MallocEnv::on_heap(kind, SimHeap::new())
    }

    /// Creates an environment on a recycled heap (warm per-worker reuse).
    /// The heap is reset first, so the run is bit-identical to one on a
    /// fresh heap; only the host allocation backing it is reused.
    pub fn on_heap(kind: MallocKind, mut heap: SimHeap) -> MallocEnv {
        heap.reset();
        let alloc: Box<dyn RawMalloc> = match kind {
            MallocKind::Sun => Box::new(SunMalloc::new()),
            MallocKind::Bsd => Box::new(BsdMalloc::new()),
            MallocKind::Lea => Box::new(LeaMalloc::new()),
            MallocKind::Gc => Box::new(BoehmGc::new(&mut heap)),
        };
        MallocEnv { heap, alloc, kind, clock: MemClock::new() }
    }

    /// Which allocator this is.
    pub fn kind(&self) -> MallocKind {
        self.kind
    }

    /// Allocates `size` bytes (timed as memory-management work).
    pub fn malloc(&mut self, size: u32) -> Addr {
        let (alloc, heap) = (&mut self.alloc, &mut self.heap);
        if !self.clock.start(Stratum::Sampled) {
            return alloc.malloc(heap, size);
        }
        // A collection this call runs is charged exactly by
        // `mem_time`, so it is taken out of the call's time.
        let collected = alloc.collect_time();
        let (a, mut t) = probe(|| alloc.malloc(heap, size));
        t.call -= nanos(alloc.collect_time() - collected);
        self.clock.charge(Stratum::Sampled, t);
        a
    }

    /// Frees a block (no-op under GC).
    pub fn free(&mut self, ptr: Addr) {
        let (alloc, heap) = (&mut self.alloc, &mut self.heap);
        self.clock.time(Stratum::Sampled, || alloc.free(heap, ptr));
    }

    /// The underlying heap, for data loads/stores.
    pub fn heap(&mut self) -> &mut SimHeap {
        &mut self.heap
    }

    /// Allocates zeroed global storage and registers it as GC roots.
    pub fn alloc_globals(&mut self, bytes: u32) -> Addr {
        let a = self.heap.sbrk(bytes);
        self.alloc.add_global_roots(a, bytes);
        a
    }

    /// Pushes a frame of `n` GC-root slots (no-op for real mallocs).
    pub fn push_roots(&mut self, n: u32) {
        self.alloc.push_roots(&mut self.heap, n);
    }

    /// Mirrors a pointer into root slot `i` (no-op for real mallocs).
    pub fn set_root(&mut self, i: u32, v: Addr) {
        self.alloc.set_root(&mut self.heap, i, v);
    }

    /// Pops the newest root frame.
    pub fn pop_roots(&mut self) {
        self.alloc.pop_roots(&mut self.heap);
    }

    /// Time spent inside the allocator so far: the `MemClock` estimate
    /// plus every collection, timed in full, bounded by the wall time.
    pub fn mem_time(&self) -> Duration {
        self.clock.estimate(self.alloc.collect_time())
    }

    /// [`MallocEnv::mem_time`] before its bound, in nanoseconds, for
    /// checking the clock: a sound estimate is positive and no more than
    /// the run's wall time.
    pub fn mem_estimate_ns(&self) -> i64 {
        self.clock.estimate_ns(self.alloc.collect_time())
    }

    /// Allocator statistics (Table 3).
    pub fn stats(&self) -> &AllocStats {
        self.alloc.stats()
    }

    /// Pages requested from the OS (Figure 8).
    pub fn os_pages(&self) -> u64 {
        self.alloc.os_pages()
    }

    /// Consumes the environment, returning its heap (e.g. to detach an
    /// attached cache-simulator sink).
    pub fn into_heap(self) -> SimHeap {
        self.heap
    }
}

/// Which region implementation a [`RegionEnv`] uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RegionKind {
    /// The safe runtime (reference counts maintained).
    Safe,
    /// The unsafe runtime (no reference counts — Hanson-style arenas).
    Unsafe,
    /// Region emulation over a malloc (the paper's `emulation` library).
    Emulated(MallocKind),
}

impl RegionKind {
    /// Display name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            RegionKind::Safe => "Reg",
            RegionKind::Unsafe => "unsafe",
            RegionKind::Emulated(MallocKind::Sun) => "emu-Sun",
            RegionKind::Emulated(MallocKind::Bsd) => "emu-BSD",
            RegionKind::Emulated(MallocKind::Lea) => "emu-Lea",
            RegionKind::Emulated(MallocKind::Gc) => "emu-GC",
        }
    }
}

/// A uniform region handle (valid for whichever backend created it).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Rh(u32);

/// A uniform type-descriptor handle.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Dh(u32);

enum RegionBackend {
    Real(Box<RegionRuntime>),
    Emulated { heap: SimHeap, er: Box<EmulatedRegions<Box<dyn RawMalloc>>> },
}

/// A region world: the real runtime (safe or unsafe) or emulation.
pub struct RegionEnv {
    backend: RegionBackend,
    kind: RegionKind,
    clock: MemClock,
    /// Whether [`RegionEnv::store_ptr_region_same`] actually elides its
    /// barrier (off by default, so published counters reproduce).
    elide: bool,
    /// Parallel descriptor tables give identical `Dh` values.
    descs_real: Vec<region_core::DescId>,
    descs_emu: Vec<region_core::DescId>,
}

impl RegionEnv {
    /// Creates an environment of the given kind.
    pub fn new(kind: RegionKind) -> RegionEnv {
        RegionEnv::on_heap(kind, SimHeap::new())
    }

    /// Creates an environment on a recycled heap (warm per-worker reuse).
    /// The heap is reset first, so the run is bit-identical to one on a
    /// fresh heap; only the host allocation backing it is reused.
    pub fn on_heap(kind: RegionKind, mut heap: SimHeap) -> RegionEnv {
        let backend = match kind {
            RegionKind::Safe => RegionBackend::Real(Box::new(RegionRuntime::with_config_on(
                RegionConfig::default(),
                heap,
            ))),
            RegionKind::Unsafe => RegionBackend::Real(Box::new(RegionRuntime::with_config_on(
                RegionConfig { mode: SafetyMode::Unsafe, ..RegionConfig::default() },
                heap,
            ))),
            RegionKind::Emulated(mk) => {
                heap.reset();
                let alloc: Box<dyn RawMalloc> = match mk {
                    MallocKind::Sun => Box::new(SunMalloc::new()),
                    MallocKind::Bsd => Box::new(BsdMalloc::new()),
                    MallocKind::Lea => Box::new(LeaMalloc::new()),
                    MallocKind::Gc => Box::new(BoehmGc::new(&mut heap)),
                };
                RegionBackend::Emulated { heap, er: Box::new(EmulatedRegions::new(alloc)) }
            }
        };
        RegionEnv {
            backend,
            kind,
            clock: MemClock::new(),
            elide: false,
            descs_real: Vec::new(),
            descs_emu: Vec::new(),
        }
    }

    /// Creates a safe environment with a custom runtime configuration
    /// (for ablations: staggering off, clearing off, …).
    pub fn with_config(config: RegionConfig) -> RegionEnv {
        let kind = match config.mode {
            SafetyMode::Safe => RegionKind::Safe,
            SafetyMode::Unsafe => RegionKind::Unsafe,
        };
        RegionEnv {
            backend: RegionBackend::Real(Box::new(RegionRuntime::with_config(config))),
            kind,
            clock: MemClock::new(),
            elide: false,
            descs_real: Vec::new(),
            descs_emu: Vec::new(),
        }
    }

    /// Turns barrier elision on or off for this environment's
    /// [`RegionEnv::store_ptr_region_same`] calls. Off by default: the
    /// annotated workloads then behave exactly as before, so published
    /// Figure 11 counters stay reproducible.
    pub fn set_elide(&mut self, on: bool) {
        self.elide = on;
    }

    /// Which backend this is.
    pub fn kind(&self) -> RegionKind {
        self.kind
    }

    /// Registers a type descriptor.
    pub fn register_type(&mut self, desc: TypeDescriptor) -> Dh {
        match &mut self.backend {
            RegionBackend::Real(rt) => {
                let id = rt.register_type(desc);
                self.descs_real.push(id);
                Dh(self.descs_real.len() as u32 - 1)
            }
            RegionBackend::Emulated { er, .. } => {
                let id = er.register_type(desc);
                self.descs_emu.push(id);
                Dh(self.descs_emu.len() as u32 - 1)
            }
        }
    }

    /// Creates a region.
    pub fn new_region(&mut self) -> Rh {
        let backend = &mut self.backend;
        self.clock.time(Stratum::Exact, || match backend {
            RegionBackend::Real(rt) => Rh(rt.new_region().index()),
            RegionBackend::Emulated { er, .. } => Rh(er.new_region().index()),
        })
    }

    /// Deletes a region; `false` if live references blocked it (safe
    /// runtime only — emulation and the unsafe runtime always succeed).
    pub fn delete_region(&mut self, r: Rh) -> bool {
        let backend = &mut self.backend;
        self.clock.time(Stratum::Exact, || match backend {
            RegionBackend::Real(rt) => rt.delete_region(RegionId::from_index(r.0)),
            RegionBackend::Emulated { heap, er } => er.delete_region(heap, EmuRegionId::from_index(r.0)),
        })
    }

    /// `ralloc`: one cleared object of type `d` in region `r`.
    pub fn ralloc(&mut self, r: Rh, d: Dh) -> Addr {
        match &mut self.backend {
            RegionBackend::Real(rt) => {
                let desc = self.descs_real[d.0 as usize];
                self.clock.time(Stratum::Sampled, || rt.ralloc(RegionId::from_index(r.0), desc))
            }
            RegionBackend::Emulated { heap, er } => {
                let desc = self.descs_emu[d.0 as usize];
                self.clock.time(Stratum::Exact, || er.ralloc(heap, EmuRegionId::from_index(r.0), desc))
            }
        }
    }

    /// `rarrayalloc`: a cleared array of `n` objects of type `d`.
    pub fn rarrayalloc(&mut self, r: Rh, n: u32, d: Dh) -> Addr {
        let (backend, real, emu) = (&mut self.backend, &self.descs_real, &self.descs_emu);
        self.clock.time(Stratum::Exact, || match backend {
            RegionBackend::Real(rt) => rt.rarrayalloc(RegionId::from_index(r.0), n, real[d.0 as usize]),
            RegionBackend::Emulated { heap, er } => {
                er.rarrayalloc(heap, EmuRegionId::from_index(r.0), n, emu[d.0 as usize])
            }
        })
    }

    /// `rstralloc`: `size` bytes of pointer-free storage (uncleared).
    pub fn rstralloc(&mut self, r: Rh, size: u32) -> Addr {
        match &mut self.backend {
            RegionBackend::Real(rt) => {
                self.clock.time(Stratum::Sampled, || rt.rstralloc(RegionId::from_index(r.0), size))
            }
            RegionBackend::Emulated { heap, er } => {
                self.clock.time(Stratum::Exact, || er.rstralloc(heap, EmuRegionId::from_index(r.0), size))
            }
        }
    }

    /// Barriered store of a region pointer into a region object.
    pub fn store_ptr_region(&mut self, loc: Addr, v: Addr) {
        match &mut self.backend {
            RegionBackend::Real(rt) => self.clock.time(Stratum::Sampled, || rt.store_ptr_region(loc, v)),
            RegionBackend::Emulated { heap, er } => {
                self.clock.time(Stratum::Exact, || er.store_ptr_region(heap, loc, v))
            }
        }
    }

    /// Barrier-free store of a region pointer the caller has *proved*
    /// stays inside `loc`'s own region — the paper's `sameregion`
    /// qualifier (§3.3) applied by hand to a workload's hot stores.
    /// Under the real runtime this charges [`ELIDED_WRITE_INSTRS`] and
    /// still verifies the claim (an unsound call records an
    /// `ElisionUnsound` violation and falls back to the full barrier);
    /// the emulated backend has no counts to skip, so it degrades to
    /// the ordinary region store.
    ///
    /// Until [`RegionEnv::set_elide`] turns elision on, this is the
    /// ordinary barriered store, so annotating a site is behaviorally
    /// neutral by default.
    ///
    /// [`ELIDED_WRITE_INSTRS`]: region_core::ELIDED_WRITE_INSTRS
    pub fn store_ptr_region_same(&mut self, loc: Addr, v: Addr) {
        if !self.elide {
            return self.store_ptr_region(loc, v);
        }
        match &mut self.backend {
            RegionBackend::Real(rt) => {
                self.clock.time(Stratum::Sampled, || rt.store_ptr_region_same(loc, v))
            }
            RegionBackend::Emulated { heap, er } => {
                self.clock.time(Stratum::Exact, || er.store_ptr_region(heap, loc, v))
            }
        }
    }

    /// Barriered store of a region pointer into global storage.
    pub fn store_ptr_global(&mut self, loc: Addr, v: Addr) {
        match &mut self.backend {
            RegionBackend::Real(rt) => self.clock.time(Stratum::Sampled, || rt.store_ptr_global(loc, v)),
            RegionBackend::Emulated { heap, er } => {
                self.clock.time(Stratum::Exact, || er.store_ptr_global(heap, loc, v))
            }
        }
    }

    /// Allocates zeroed global storage.
    pub fn alloc_globals(&mut self, bytes: u32) -> Addr {
        match &mut self.backend {
            RegionBackend::Real(rt) => rt.alloc_globals(bytes),
            RegionBackend::Emulated { heap, .. } => heap.sbrk(bytes),
        }
    }

    /// Pushes a frame of region-pointer locals (scanned by the safe
    /// runtime at `deleteregion`).
    pub fn push_frame(&mut self, n: u32) {
        match &mut self.backend {
            RegionBackend::Real(rt) => rt.push_frame(n),
            RegionBackend::Emulated { er, .. } => er.push_frame(n),
        }
    }

    /// Pops the newest frame (timed exactly: popping a scanned frame
    /// unscans it).
    pub fn pop_frame(&mut self) {
        let backend = &mut self.backend;
        self.clock.time(Stratum::Exact, || match backend {
            RegionBackend::Real(rt) => rt.pop_frame(),
            RegionBackend::Emulated { er, .. } => er.pop_frame(),
        })
    }

    /// Writes a region-pointer local (never reference-counted).
    pub fn set_local(&mut self, slot: u32, v: Addr) {
        match &mut self.backend {
            RegionBackend::Real(rt) => rt.set_local(slot, v),
            RegionBackend::Emulated { er, .. } => er.set_local(slot, v),
        }
    }

    /// Reads a region-pointer local.
    pub fn get_local(&mut self, slot: u32) -> Addr {
        match &mut self.backend {
            RegionBackend::Real(rt) => rt.get_local(slot),
            RegionBackend::Emulated { er, .. } => er.get_local(slot),
        }
    }

    /// The underlying heap, for data loads/stores.
    pub fn heap(&mut self) -> &mut SimHeap {
        match &mut self.backend {
            RegionBackend::Real(rt) => rt.heap_mut(),
            RegionBackend::Emulated { heap, .. } => heap,
        }
    }

    /// Region-level statistics (Table 2; for emulation, the "w/o
    /// overhead" view).
    pub fn stats(&self) -> &AllocStats {
        match &self.backend {
            RegionBackend::Real(rt) => rt.stats(),
            RegionBackend::Emulated { er, .. } => er.stats(),
        }
    }

    /// Underlying-malloc statistics when emulating (the "with overhead"
    /// view), `None` for the real runtime.
    pub fn emulation_inner_stats(&self) -> Option<&AllocStats> {
        match &self.backend {
            RegionBackend::Real(_) => None,
            RegionBackend::Emulated { er, .. } => Some(er.inner().stats()),
        }
    }

    /// The underlying runtime (real backends only): lets tests audit
    /// accounting the aggregate getters fold away, e.g. that
    /// [`region_core::RegionRuntime::host_mirror_bytes`] never leaks
    /// into a footprint figure.
    pub fn runtime(&self) -> Option<&region_core::RegionRuntime> {
        match &self.backend {
            RegionBackend::Real(rt) => Some(rt),
            RegionBackend::Emulated { .. } => None,
        }
    }

    /// Safety-cost counters (real runtime only).
    pub fn costs(&self) -> Option<&region_core::SafetyCosts> {
        match &self.backend {
            RegionBackend::Real(rt) => Some(rt.costs()),
            RegionBackend::Emulated { .. } => None,
        }
    }

    /// Runs the refcount sanitizer (real runtime only): recomputes every
    /// region's reference count from first principles and diffs against
    /// the incremental counts and the page-map mirror. `None` for
    /// emulated backends (no counts to audit).
    pub fn sanitize(&self) -> Option<region_core::SanitizeReport> {
        match &self.backend {
            RegionBackend::Real(rt) => Some(rt.sanitize()),
            RegionBackend::Emulated { .. } => None,
        }
    }

    /// Pages requested from the OS (Figure 8).
    pub fn os_pages(&self) -> u64 {
        match &self.backend {
            RegionBackend::Real(rt) => rt.os_heap_bytes() / u64::from(simheap::PAGE_SIZE),
            RegionBackend::Emulated { er, .. } => er.os_pages(),
        }
    }

    /// Time spent inside region operations so far (the `MemClock`
    /// estimate; an emulated backend's collections are inside its exact
    /// calls already).
    pub fn mem_time(&self) -> Duration {
        self.clock.estimate(Duration::ZERO)
    }

    /// [`RegionEnv::mem_time`] before its bound, in nanoseconds, for
    /// checking the clock: a sound estimate is positive and no more than
    /// the run's wall time.
    pub fn mem_estimate_ns(&self) -> i64 {
        self.clock.estimate_ns(Duration::ZERO)
    }

    /// Consumes the environment, returning its heap.
    pub fn into_heap(self) -> SimHeap {
        match self.backend {
            RegionBackend::Real(rt) => {
                // The runtime owns its heap; rebuild by moving out.
                rt.into_heap()
            }
            RegionBackend::Emulated { heap, .. } => heap,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workload;

    /// The indices of the sampled-stratum calls a fresh clock times.
    fn timed_calls(n: u64) -> Vec<u64> {
        let mut clock = MemClock::new();
        let timed = (0..n).filter(|_| clock.start(Stratum::Sampled)).collect();
        assert_eq!(clock.calls, n);
        timed
    }

    #[test]
    fn clock_times_the_same_calls_for_the_same_sequence() {
        let timed = timed_calls(100_000);
        assert_eq!(timed_calls(100_000), timed, "the schedule depends only on the call sequence");
        assert_eq!(timed.len(), 3_162, "the sample count is fixed by the sequence length");
        assert_eq!(timed_calls(1_000), timed[..timed.partition_point(|&i| i < 1_000)]);

        // A whole workload: two identical runs count the same calls in
        // each stratum, and keep samples.
        let run = || {
            let mut env = RegionEnv::new(RegionKind::Safe);
            Workload::Tile.run_region(&mut env, 1);
            let c = &env.clock;
            assert!(c.samples > 0 && c.samples < c.calls);
            (c.calls, c.exact_calls)
        };
        let (calls, exact) = run();
        assert_eq!(run(), (calls, exact));
        assert!(exact > 0);
    }

    #[test]
    fn interrupted_samples_are_discarded() {
        let t = |call, read| Timing { call, read };
        let mut clock = MemClock::new();
        clock.first = Some(Instant::now() - Duration::from_secs(1));
        clock.calls = 64;
        clock.charge(Stratum::Sampled, t(100, 30));
        clock.charge(Stratum::Sampled, t(4_000_000, 30));
        clock.charge(Stratum::Sampled, t(INTERRUPTED_NS, 30));
        // An interrupted empty read would make this sample about −1 µs,
        // and −32 µs once scaled.
        clock.charge(Stratum::Sampled, t(150, 31 + READ_SLACK_NS));
        assert_eq!(clock.samples, 2, "the descheduled call and the interrupted read are dropped");
        let mean = (70 + INTERRUPTED_NS - 30) / 2;
        assert_eq!(clock.estimate_ns(Duration::ZERO), 64 * mean);
        // An exact call is charged once, whatever it took; an interrupted
        // empty read is replaced by the fastest one seen.
        clock.charge(Stratum::Exact, t(4_000_000, 19_000));
        let ns = clock.estimate_ns(Duration::ZERO);
        assert_eq!(ns, 64 * mean + 4_000_000 - 30);
        assert_eq!(clock.estimate(Duration::ZERO), Duration::from_nanos(ns as u64));
    }

    #[test]
    fn exact_calls_are_timed_every_time() {
        for kind in [RegionKind::Safe, RegionKind::Unsafe, RegionKind::Emulated(MallocKind::Lea)] {
            let mut env = RegionEnv::new(kind);
            let d = env.register_type(TypeDescriptor::new("node", 8, vec![4]));
            for _ in 0..50 {
                let r = env.new_region();
                env.rarrayalloc(r, 3, d);
                env.push_frame(1);
                env.pop_frame();
                assert!(env.delete_region(r));
            }
            assert_eq!(env.clock.exact_calls, 200, "{}", kind.name());
            assert_eq!(env.clock.calls, 0, "{}: nothing sampled", kind.name());

            // The frequent calls are sampled on the real runtime and
            // timed exactly on emulation.
            let r = env.new_region();
            for _ in 0..100 {
                let a = env.ralloc(r, d);
                env.rstralloc(r, 8);
                env.store_ptr_region(a + 4, a);
            }
            let sampled = if kind == RegionKind::Emulated(MallocKind::Lea) { 0 } else { 300 };
            assert_eq!(env.clock.calls, sampled, "{}", kind.name());
            assert_eq!(env.clock.exact_calls, 201 + 300 - sampled, "{}", kind.name());
        }
        let mut env = MallocEnv::new(MallocKind::Lea);
        let a = env.malloc(40);
        env.free(a);
        env.malloc(3 * simheap::PAGE_SIZE);
        assert_eq!((env.clock.calls, env.clock.exact_calls), (3, 0), "malloc and free are sampled");
    }

    #[test]
    fn mem_time_is_zero_with_no_calls() {
        for kind in MallocKind::ALL {
            assert_eq!(MallocEnv::new(kind).mem_time(), Duration::ZERO, "{}", kind.name());
        }
        for kind in [RegionKind::Safe, RegionKind::Unsafe, RegionKind::Emulated(MallocKind::Gc)] {
            assert_eq!(RegionEnv::new(kind).mem_time(), Duration::ZERO, "{}", kind.name());
        }
    }

    #[test]
    fn mem_time_never_exceeds_the_env_lifetime() {
        let t = Instant::now();
        let mut env = RegionEnv::new(RegionKind::Safe);
        Workload::Grobner.run_region(&mut env, 1);
        assert!(env.mem_time() <= t.elapsed());

        // Even an estimate far beyond the wall clock is cut back to it,
        // and a negative one to zero; the unbounded estimate is kept.
        let t = Instant::now();
        let mut env = MallocEnv::new(MallocKind::Lea);
        for _ in 0..2 * SAMPLE_PERIOD {
            env.malloc(8);
        }
        env.clock.samples = 1;
        env.clock.sampled_ns = i64::MAX / (4 * 2 * SAMPLE_PERIOD as i64);
        let mem = env.mem_time();
        assert!(mem > Duration::ZERO && mem <= t.elapsed());
        assert!(env.mem_estimate_ns() > nanos(t.elapsed()));
        env.clock.sampled_ns = -1_000_000;
        assert_eq!(env.mem_time(), Duration::ZERO);
        assert!(env.mem_estimate_ns() < 0);
    }

    /// One collection dominates the run, so if collections were sampled
    /// with the `malloc`s around them they would be missed (and `mem_time`
    /// would fall below their cost) or multiplied by the period.
    #[test]
    fn gc_mem_time_covers_its_collections() {
        let mut env = MallocEnv::new(MallocKind::Gc);
        env.push_roots(1);
        let mut nodes: Vec<Addr> = Vec::new();
        while env.alloc.collect_time() == Duration::ZERO {
            // Every word of every node points at an earlier node: all
            // live, and marking follows each word.
            let a = env.malloc(64);
            for i in 0..16u32 {
                let to = nodes.get(nodes.len().wrapping_sub(1 + i as usize * 7)).copied();
                env.heap().store_addr(a + i * 4, to.unwrap_or(Addr::NULL));
            }
            env.set_root(0, a);
            nodes.push(a);
        }
        assert!(env.mem_time() >= env.alloc.collect_time());
    }

    #[test]
    fn malloc_env_round_trip_all_kinds() {
        for kind in MallocKind::ALL {
            let mut env = MallocEnv::new(kind);
            env.push_roots(1);
            let a = env.malloc(40);
            env.set_root(0, a);
            env.heap().store_u32(a, 123);
            assert_eq!(env.heap().load_u32(a), 123, "{}", kind.name());
            env.free(a);
            env.pop_roots();
            assert!(env.os_pages() > 0 || kind == MallocKind::Gc);
        }
    }

    #[test]
    fn region_env_uniform_over_backends() {
        for kind in [
            RegionKind::Safe,
            RegionKind::Unsafe,
            RegionKind::Emulated(MallocKind::Sun),
            RegionKind::Emulated(MallocKind::Lea),
        ] {
            let mut env = RegionEnv::new(kind);
            let d = env.register_type(TypeDescriptor::new("node", 8, vec![4]));
            let r = env.new_region();
            let a = env.ralloc(r, d);
            let b = env.ralloc(r, d);
            env.heap().store_u32(a, 7);
            env.store_ptr_region(a + 4, b);
            assert_eq!(env.heap().load_u32(a), 7, "{}", kind.name());
            let s = env.rstralloc(r, 100);
            env.heap().store_u32(s + 96, 9);
            assert!(env.delete_region(r), "{}", kind.name());
            assert_eq!(env.stats().total_allocs, 3);
        }
    }

    #[test]
    fn safe_env_blocks_deletion_on_live_local() {
        let mut env = RegionEnv::new(RegionKind::Safe);
        let d = env.register_type(TypeDescriptor::new("node", 8, vec![4]));
        let r = env.new_region();
        let a = env.ralloc(r, d);
        env.push_frame(1);
        env.set_local(0, a);
        assert!(!env.delete_region(r));
        env.set_local(0, Addr::NULL);
        assert!(env.delete_region(r));
        env.pop_frame();
    }

    #[test]
    fn emulation_reports_both_stat_views() {
        let mut env = RegionEnv::new(RegionKind::Emulated(MallocKind::Bsd));
        let r = env.new_region();
        env.rstralloc(r, 20);
        assert_eq!(env.stats().total_bytes, 20);
        assert_eq!(env.emulation_inner_stats().unwrap().total_bytes, 24);
        assert!(RegionEnv::new(RegionKind::Safe).emulation_inner_stats().is_none());
    }
}
