//! The region **service** engine: a long-lived, deterministic
//! request-serving workload with deadlines, retry, admission control,
//! and session isolation (DESIGN §16).
//!
//! The paper's headline claim is that region create/delete are cheap
//! enough to use *per request*. This module stress-tests that claim at
//! service scale: seeded traffic where every request gets its own
//! region (create → allocate → delete), sessions churn across worker
//! threads on one [`simheap::SharedSpace`], and the harness reports
//! throughput, p50/p99/p999 latency, footprint high-water, and a
//! **conserved request ledger** — `submitted == completed + shed +
//! failed`, retries tallied separately.
//!
//! Robustness is the point, not an afterthought:
//!
//! * **deadlines + retry** — each (session × round) batch runs under
//!   [`crate::supervise`], whose watchdog is the coordinating thread
//!   itself (it waits out the round); a worker panic is retried once,
//!   and an injected allocation fault replays the failed request into a
//!   *fresh region*, at most [`MAX_ATTEMPTS`] times in all;
//! * **admission control** — every request is admitted against
//!   [`region_core::Watermarks`] on the observed simulated-OS
//!   footprint: below soft it runs unchanged, in `[soft, hard)` it runs
//!   a *degraded* (shrunk) allocation plan, at or above hard it is shed
//!   with the typed [`RegionError::Overloaded`] — never a panic;
//! * **session isolation** — an injected worker panic strands a
//!   half-served request region in *that session's* runtime (its
//!   `in_flight` slot); the supervisor's retry of the batch deletes it
//!   before resuming, while every other session keeps serving. Each
//!   request, crashed or not, is booked in one runtime region, and
//!   each round barrier asserts that every injected panic stranded one
//!   region and that the retry reclaimed it.
//!
//! # Determinism
//!
//! Everything in [`ServiceReport::encode_books`] is a pure function of
//! [`ServiceConfig`] — bit-identical across reruns at the same seed and
//! across 1/2/N service threads. The construction:
//!
//! * sessions are fully independent: each owns one shard of the shared
//!   space, its own ledger, and per-request RNG streams seeded from
//!   `(seed, session, request)` (a crashed attempt replays identically);
//! * the *global* footprint is read only at round barriers, on the
//!   coordinator thread; within a round each session sees
//!   `round base + its own growth`, a schedule-independent quantity;
//! * crash residue is folded only as *counts* of stranded and
//!   reclaimed regions, summed over the sessions at each barrier;
//! * wall-clock latencies are measured and reported but excluded from
//!   the digest and the encoded books.
//!
//! # The warm host
//!
//! An episode runs on a *host*: one [`RegionRuntime`] per session, each
//! on its shard of one [`SharedSpace`]. [`run_service`] takes the host
//! the previous episode in the process left behind when it has as many
//! sessions, and builds a fresh one otherwise; every episode starts by
//! resetting each runtime ([`RegionRuntime::reset`]), so a reused host
//! replays a fresh one's books bit for bit. What reuse keeps is host
//! memory only — region tables, page-map mirrors, page lists, the
//! buffers of born pages — so after the first episode in a process no
//! request has to grow them inside its latency window.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use region_core::{
    AdmissionController, RegionConfig, RegionError, RegionId, RegionRuntime, Watermarks,
};
use simheap::{Addr, HeapShard, SharedSpace, SpaceConfig};

use crate::rng::{fold, Rng, FNV_OFFSET};
use crate::supervise::{supervise, JobOutcome, SuperviseConfig};

/// The prefix of every injected panic message, the service's and
/// par-chaos's: par-chaos asserts it on each panic its supervised
/// workers report (anything else would be a pool-API panic escaping
/// through a worker), and [`install_service_panic_filter`] silences
/// exactly these panics.
pub(crate) const PAR_PANIC_MARKER: &str = "par-chaos injected panic";

/// Attempts per request against injected allocation faults: each one
/// replays the whole request into a fresh region, with no wait between
/// attempts.
pub const MAX_ATTEMPTS: u32 = 3;

/// Pointer-bearing index entries allocated per completed request into
/// the session's rotating index region. Each entry holds two counted
/// pointers into the cache region, so deleting the index is a real
/// Figure-7 cleanup walk.
pub const INDEX_ALLOCS: u32 = 24;

/// Per-batch deadline handed to [`crate::supervise`] and enforced by the
/// coordinating thread as watchdog. Generous by design: it is a liveness
/// backstop, and a fired timeout (unlike every other failure here) would
/// not be deterministic.
const BATCH_DEADLINE: Duration = Duration::from_secs(30);

/// Size of the shared address space.
const SPACE_MAX_BYTES: u64 = 256 << 20;

/// Full configuration of one service run. `Copy` on purpose: jobs
/// capture it by value, and every field is a scalar so a config can be
/// logged or folded without ceremony.
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Master seed; all per-request randomness derives from it.
    pub seed: u64,
    /// Logical sessions. Each owns one shard of the shared space, so
    /// this is also the space's worker count (1..=255).
    pub sessions: u32,
    /// Requests served per session over the whole run.
    pub requests_per_session: u32,
    /// Barrier-separated rounds the requests are spread over; the
    /// global footprint is re-read at each barrier.
    pub rounds: u32,
    /// Service worker threads draining session batches each round. Has
    /// no effect on any encoded book — only wall clock.
    pub threads: usize,
    /// Soft/hard admission watermarks on the simulated OS footprint.
    pub marks: Watermarks,
    /// Fail one in this many region allocations via
    /// [`region_core::FaultPlan`] (0 disables fault injection).
    pub fault_one_in: u64,
    /// Per-request panic dice (0 disables): a request that rolls a
    /// panic crashes its worker on the batch's first attempt, stranding
    /// a half-served request region for the retry to reclaim.
    pub panic_one_in: u64,
    /// Run the region sanitizer on every session at every round
    /// barrier (O(heap) — chaos and `REGION_SANITIZE=1` runs want it,
    /// throughput measurements do not).
    pub sanitize_rounds: bool,
    /// Work-increment budget for every `deleteregion` in the service
    /// ([`RegionRuntime::set_delete_budget`]): `u64::MAX` is the
    /// historical stop-the-world deletion, anything smaller runs each
    /// deletion as bounded increments whose individual pauses land in
    /// [`ServiceReport::pause_ns`]. The budget changes *when* deletion
    /// work is timed, never what work happens — books are identical
    /// across budgets.
    pub delete_budget: u64,
    /// Completed requests between index rotations (0 = never rotate).
    /// Each rotation deletes the accumulated index region in-path —
    /// the service's dominant pause, and the one the budget bounds.
    pub index_rotate: u32,
}

impl ServiceConfig {
    /// The default-scale service soak: enough traffic to climb through
    /// both watermarks, with faults and panics on.
    pub fn full(seed: u64) -> ServiceConfig {
        ServiceConfig {
            seed,
            sessions: 6,
            requests_per_session: 360,
            rounds: 8,
            threads: 2,
            marks: Watermarks::new(170, 200),
            fault_one_in: 23,
            panic_one_in: 61,
            sanitize_rounds: false,
            delete_budget: u64::MAX,
            index_rotate: 45,
        }
    }

    /// Reduced-scale variant for `--quick` / CI: fewer sessions and
    /// requests, proportionally lower watermarks, same structure.
    pub fn quick(seed: u64) -> ServiceConfig {
        ServiceConfig {
            sessions: 4,
            requests_per_session: 80,
            rounds: 4,
            marks: Watermarks::new(40, 48),
            fault_one_in: 19,
            panic_one_in: 37,
            index_rotate: 20,
            ..ServiceConfig::full(seed)
        }
    }
}

/// The conserved request ledger, per session or summed over the fleet.
///
/// The service-level invariant — checked at every round barrier — is
/// [`Ledger::conserves`]: every submitted request is accounted for
/// exactly once as completed, shed, or failed. Retries, faults, panics,
/// and degraded plans are tallied separately; they describe *how* a
/// request resolved, not *whether*.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Ledger {
    /// Requests that reached a resolution.
    pub submitted: u64,
    /// Requests served to completion (possibly degraded, possibly
    /// after retries).
    pub completed: u64,
    /// Requests refused with [`RegionError::Overloaded`].
    pub shed: u64,
    /// Requests that exhausted every attempt against injected faults.
    pub failed: u64,
    /// Replays: in-request fault retries plus post-panic batch resumes.
    pub retries: u64,
    /// Requests served with a shrunk (degraded) allocation plan.
    pub degraded: u64,
    /// Injected allocation faults observed (including on retries and on
    /// cache growth).
    pub faults: u64,
    /// Injected worker panics taken.
    pub panics: u64,
}

impl Ledger {
    /// The conservation invariant: nothing lost, nothing double-counted.
    pub fn conserves(&self) -> bool {
        self.submitted == self.completed + self.shed + self.failed
    }

    /// Adds another ledger's counts into this one.
    pub fn add(&mut self, other: &Ledger) {
        self.submitted += other.submitted;
        self.completed += other.completed;
        self.shed += other.shed;
        self.failed += other.failed;
        self.retries += other.retries;
        self.degraded += other.degraded;
        self.faults += other.faults;
        self.panics += other.panics;
    }

    /// Canonical little-endian byte encoding, for byte-identity
    /// assertions across reruns.
    pub fn encode(&self) -> Vec<u8> {
        let fields = [
            self.submitted,
            self.completed,
            self.shed,
            self.failed,
            self.retries,
            self.degraded,
            self.faults,
            self.panics,
        ];
        let mut out = Vec::with_capacity(fields.len() * 8);
        for f in fields {
            out.extend_from_slice(&f.to_le_bytes());
        }
        out
    }
}

/// Everything one service run reports.
#[derive(Clone, Debug)]
pub struct ServiceReport {
    /// Fleet-wide ledger (the per-session ledgers summed).
    pub ledger: Ledger,
    /// Per-session ledgers, in session order — the isolation property
    /// tests compare these directly.
    pub per_session: Vec<Ledger>,
    /// FNV fold of the whole observable history (admission verdicts,
    /// error codes, allocation addresses, stranded/reclaimed counts).
    pub digest: u64,
    /// Largest admission-input footprint any request observed, in
    /// simulated OS pages.
    pub high_water_pages: u64,
    /// Final summed footprint of all session shards, in pages.
    pub final_pages: u64,
    /// Request regions an injected panic left half-served in its
    /// session's runtime (one per panic).
    pub quarantined: u64,
    /// Stranded regions the supervisor's retry deleted before resuming
    /// its batch.
    pub reaped: u64,
    /// Sanitizer passes run at round barriers (0 unless
    /// [`ServiceConfig::sanitize_rounds`]).
    pub sanitize_runs: u64,
    /// All per-request wall-clock latencies, sorted ascending, in
    /// nanoseconds. Reported, never encoded.
    pub lat_ns: Vec<u64>,
    /// Wall clock of every `deleteregion` pause the service took —
    /// one entry per deletion *increment* (so one entry per deletion
    /// when the budget is unbounded), sorted ascending, in
    /// nanoseconds. Reported, never encoded.
    pub pause_ns: Vec<u64>,
    /// Wall clock of the whole run.
    pub elapsed: Duration,
}

/// Nearest-rank quantile on an ascending-sorted vector.
fn quantile_sorted(v: &[u64], num: u64, den: u64) -> u64 {
    if v.is_empty() {
        return 0;
    }
    let idx = ((v.len() as u64 - 1) * num) / den;
    v[idx as usize]
}

impl ServiceReport {
    /// Latency at quantile `num/den` (nearest-rank on the sorted vec).
    fn quantile_ns(&self, num: u64, den: u64) -> u64 {
        quantile_sorted(&self.lat_ns, num, den)
    }

    /// Median request latency in (fractional) microseconds.
    pub fn p50_us(&self) -> f64 {
        self.quantile_ns(50, 100) as f64 / 1_000.0
    }

    /// 99th-percentile request latency in (fractional) microseconds.
    pub fn p99_us(&self) -> f64 {
        self.quantile_ns(99, 100) as f64 / 1_000.0
    }

    /// 99.9th-percentile request latency in (fractional) microseconds.
    pub fn p999_us(&self) -> f64 {
        self.quantile_ns(999, 1000) as f64 / 1_000.0
    }

    /// Median `deleteregion` pause in (fractional) microseconds.
    pub fn pause_p50_us(&self) -> f64 {
        quantile_sorted(&self.pause_ns, 50, 100) as f64 / 1_000.0
    }

    /// 99th-percentile `deleteregion` pause in (fractional)
    /// microseconds — the headline the work-increment budget bounds.
    pub fn pause_p99_us(&self) -> f64 {
        quantile_sorted(&self.pause_ns, 99, 100) as f64 / 1_000.0
    }

    /// Worst single `deleteregion` pause in (fractional) microseconds.
    pub fn pause_max_us(&self) -> f64 {
        self.pause_ns.last().copied().unwrap_or(0) as f64 / 1_000.0
    }

    /// Resolved requests per second over the run's wall clock.
    pub fn throughput_rps(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.ledger.submitted as f64 / secs
    }

    /// Canonical byte encoding of every deterministic book: the fleet
    /// ledger, each session ledger, the digest, and the footprint and
    /// quarantine counters. Two same-seed runs — at any thread count —
    /// must produce byte-identical output.
    pub fn encode_books(&self) -> Vec<u8> {
        let mut out = self.ledger.encode();
        for s in &self.per_session {
            out.extend_from_slice(&s.encode());
        }
        for v in [
            self.digest,
            self.high_water_pages,
            self.final_pages,
            self.quarantined,
            self.reaped,
            self.sanitize_runs,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }
}

/// Error fold for the digest, one stable tag per variant. Scalar
/// payloads only — never a schedule-dependent region identity.
fn err_fold(e: RegionError) -> u64 {
    match e {
        RegionError::OutOfMemory { requested, limit } => fold(fold(1, requested), limit),
        RegionError::RegionDeleted { .. } => 2,
        RegionError::RegionDoomed { .. } => 12,
        RegionError::DeleteBlocked { rc, .. } => fold(3, rc as u64),
        RegionError::SizeOverflow { .. } => 4,
        RegionError::ObjectTooLarge { bytes } => fold(5, u64::from(bytes)),
        RegionError::ZeroAlloc => 6,
        RegionError::NullDeref => 7,
        RegionError::StackOverflow { .. } => 8,
        RegionError::FaultInjected { count, .. } => fold(9, count),
        RegionError::Snapshot(_) => 10,
        RegionError::Overloaded { pages, hard_pages } => fold(fold(11, pages), hard_pages),
    }
}

/// One request's allocation plan, already degraded if admission said so.
struct Plan {
    allocs: u32,
    size: u32,
    cache: u32,
}

/// Bytes appended to the session's long-lived cache region per
/// completed request — the footprint staircase that walks the service
/// through the watermarks.
const CACHE_CHUNK: u32 = 384;

fn plan_for(rng: &mut Rng, degraded: bool) -> Plan {
    let allocs = 2 + rng.below(4) as u32; // 2..=5 allocations
    let size = 64 + (rng.below(448) as u32 & !3); // 64..=508 bytes, word-aligned
    if degraded {
        // Graceful degradation: half the allocations at half the size,
        // and half the cache growth — the service slows its own
        // approach to the hard watermark instead of falling over it.
        Plan { allocs: (allocs / 2).max(1), size: (size / 2).max(16), cache: CACHE_CHUNK / 2 }
    } else {
        Plan { allocs, size, cache: CACHE_CHUNK }
    }
}

/// Everything one session owns. Lives in an `Arc<Mutex<..>>` so the
/// state survives a crashed worker attempt; panics are injected only
/// *after* the lock is released, so the mutex is never poisoned on the
/// injected path (the `lock` helper recovers regardless).
struct SessionSlot {
    rt: RegionRuntime<HeapShard>,
    adm: AdmissionController,
    ledger: Ledger,
    digest: u64,
    /// Cursor into this session's request stream; a retried batch
    /// resumes here.
    next_req: u32,
    /// Request region left half-served by a crashed attempt; the retry
    /// deletes it before resuming.
    in_flight: Option<RegionId>,
    /// Regions a crash left in `in_flight`, and those the retry deleted.
    stranded: u64,
    reclaimed: u64,
    /// Long-lived cache region driving the footprint staircase.
    cache: Option<RegionId>,
    /// Rotating pointer-bearing index region: entries allocated per
    /// completed request point into the cache, and every
    /// [`ServiceConfig::index_rotate`] completions the whole region is
    /// deleted in-path — the deletion the budget bounds.
    index: Option<RegionId>,
    /// Descriptor of one index entry (two counted pointer fields).
    index_desc: region_core::DescId,
    /// Completed requests since the last index rotation.
    since_rotate: u32,
    /// This session's footprint at the current round's barrier.
    round_start_pages: u64,
    lat_ns: Vec<u64>,
    pause_ns: Vec<u64>,
}

fn lock(slot: &Arc<Mutex<SessionSlot>>) -> MutexGuard<'_, SessionSlot> {
    slot.lock().unwrap_or_else(|p| p.into_inner())
}

fn own_pages(rt: &RegionRuntime<HeapShard>) -> u64 {
    rt.data_pages() + rt.map_pages()
}

/// Outcome of [`serve_one`]: either the request resolved, or the
/// worker must now take its injected panic (after releasing the slot
/// lock).
enum Served {
    Done,
    PanicNow,
}

/// Serves request `req` of session `session`: admission → plan →
/// (create → allocate → delete) with bounded fault retry. All
/// randomness is re-derived from `(seed, session, req)`, so a
/// post-panic replay of the same request is bit-identical.
fn serve_one(
    slot: &mut SessionSlot,
    cfg: ServiceConfig,
    base_pages: u64,
    session: u32,
    req: u32,
    attempt: u32,
) -> Served {
    let t0 = Instant::now();
    let mut rng = Rng::seeded(fold(fold(cfg.seed, u64::from(session)), u64::from(req)));

    // Admission: round-barrier base plus this session's own growth — a
    // schedule-independent footprint view.
    let fp = base_pages + (own_pages(&slot.rt) - slot.round_start_pages);
    let adm = slot.adm.admit(fp);
    slot.digest = fold(slot.digest, adm.code());
    if adm == region_core::Admission::Shed {
        let e = RegionError::Overloaded { pages: fp, hard_pages: slot.adm.marks().hard_pages };
        slot.digest = fold(slot.digest, err_fold(e));
        slot.ledger.submitted += 1;
        slot.ledger.shed += 1;
        slot.lat_ns.push(t0.elapsed().as_nanos() as u64);
        return Served::Done;
    }
    let degraded = adm == region_core::Admission::Degrade;
    let plan = plan_for(&mut rng, degraded);

    // Injected worker crash: only on the batch's first attempt
    // (supervise passes attempt 0 on the first try), so the
    // supervisor's single retry deterministically resolves the request.
    // Leave a half-served request region for the retry to clean up.
    if cfg.panic_one_in > 0 && attempt == 0 && rng.below(cfg.panic_one_in) == 0 {
        if let Ok(r) = slot.rt.try_new_region() {
            let _ = slot.rt.try_rstralloc(r, 64);
            slot.in_flight = Some(r);
            slot.stranded += 1;
        }
        slot.ledger.panics += 1;
        slot.digest = fold(slot.digest, 0xdead);
        return Served::PanicNow;
    }

    // Bounded retry against injected allocation faults: each attempt
    // replays the whole request into a fresh region.
    let mut ok = false;
    for a in 1..=MAX_ATTEMPTS {
        if a > 1 {
            slot.ledger.retries += 1;
        }
        match attempt_request(slot, &plan) {
            Ok(d) => {
                slot.digest = fold(slot.digest, d);
                ok = true;
                break;
            }
            Err(e) => {
                slot.ledger.faults += 1;
                slot.digest = fold(slot.digest, err_fold(e));
            }
        }
    }
    slot.ledger.submitted += 1;
    let bounded = cfg.delete_budget != u64::MAX;
    if ok {
        slot.ledger.completed += 1;
        if degraded {
            slot.ledger.degraded += 1;
        }
        // With a bounded budget the response is ready here: the
        // post-request upkeep (cache growth, index rotation) runs as
        // budgeted increments *after* the latency window closes, each
        // pause recorded separately. Stop-the-world mode keeps the
        // historical accounting — upkeep, including the monolithic
        // index deletion, lands inside the request it rode in on.
        // Identical heap operations either way; only the clock moves.
        if bounded {
            slot.lat_ns.push(t0.elapsed().as_nanos() as u64);
        }
        let target = grow_cache(slot, plan.cache);
        grow_index(slot, cfg, target);
        if !bounded {
            slot.lat_ns.push(t0.elapsed().as_nanos() as u64);
        }
    } else {
        slot.ledger.failed += 1;
        slot.lat_ns.push(t0.elapsed().as_nanos() as u64);
    }
    Served::Done
}

/// One attempt at a request: fresh region, run the allocation plan,
/// delete it. Cleanup runs on the fault path too — a failed attempt
/// leaves no residue for the next one.
fn attempt_request(slot: &mut SessionSlot, plan: &Plan) -> Result<u64, RegionError> {
    let r = slot.rt.try_new_region()?;
    let mut d = 0u64;
    let res: Result<(), RegionError> = (|| {
        for _ in 0..plan.allocs {
            let a = slot.rt.try_rstralloc(r, plan.size)?;
            d = fold(d, u64::from(a.0));
        }
        Ok(())
    })();
    let del = slot.rt.try_delete_region(r);
    assert!(del.is_ok(), "request region delete blocked: {del:?}");
    res.map(|()| fold(d, 7))
}

/// Appends `bytes` to the session's long-lived cache region. A fault
/// here is tolerated (the cache just grows slower) but still tallied.
/// Returns the freshly cached block's address ([`Addr::NULL`] when
/// nothing was cached) so the index can point at it.
fn grow_cache(slot: &mut SessionSlot, bytes: u32) -> Addr {
    if bytes == 0 {
        return Addr::NULL;
    }
    if slot.cache.is_none() {
        match slot.rt.try_new_region() {
            Ok(r) => slot.cache = Some(r),
            Err(e) => {
                slot.ledger.faults += 1;
                slot.digest = fold(slot.digest, err_fold(e));
                return Addr::NULL;
            }
        }
    }
    let cr = slot.cache.expect("just ensured");
    match slot.rt.try_rstralloc(cr, bytes) {
        Ok(a) => {
            slot.digest = fold(slot.digest, u64::from(a.0));
            a
        }
        Err(e) => {
            slot.ledger.faults += 1;
            slot.digest = fold(slot.digest, err_fold(e));
            Addr::NULL
        }
    }
}

/// Appends [`INDEX_ALLOCS`] pointer-bearing entries to
/// the session's rotating index region, each pointing (twice, through
/// counted write barriers) at the request's cache block, then rotates —
/// deletes the whole index through the deletion budget — every
/// [`ServiceConfig::index_rotate`] completions. Allocation faults are
/// tolerated exactly like cache growth.
fn grow_index(slot: &mut SessionSlot, cfg: ServiceConfig, target: Addr) {
    if slot.index.is_none() {
        match slot.rt.try_new_region() {
            Ok(r) => slot.index = Some(r),
            Err(e) => {
                slot.ledger.faults += 1;
                slot.digest = fold(slot.digest, err_fold(e));
                return;
            }
        }
    }
    let ir = slot.index.expect("just ensured");
    for _ in 0..INDEX_ALLOCS {
        match slot.rt.try_ralloc(ir, slot.index_desc) {
            Ok(a) => {
                if !target.is_null() {
                    slot.rt.store_ptr_region(a + 4, target);
                    slot.rt.store_ptr_region(a + 12, target);
                }
                slot.digest = fold(slot.digest, u64::from(a.0));
            }
            Err(e) => {
                slot.ledger.faults += 1;
                slot.digest = fold(slot.digest, err_fold(e));
            }
        }
    }
    slot.since_rotate += 1;
    if cfg.index_rotate > 0 && slot.since_rotate >= cfg.index_rotate {
        slot.since_rotate = 0;
        slot.index = None;
        drain_delete(slot, ir);
    }
}

/// Deletes `r` through the slot runtime's configured budget, timing
/// every increment as one recorded pause. With an unbounded budget this
/// is one increment — the whole stop-the-world deletion as a single
/// pause entry.
fn drain_delete(slot: &mut SessionSlot, r: RegionId) {
    loop {
        let t = Instant::now();
        let step = slot.rt.try_delete_region_step(r);
        slot.pause_ns.push(t.elapsed().as_nanos() as u64);
        match step {
            Ok(region_core::DeleteProgress::Done) => return,
            Ok(region_core::DeleteProgress::Parked) => {}
            Err(e) => panic!("index region delete failed: {e:?}"),
        }
    }
}

/// The host state a service episode runs on: one runtime per session,
/// each on its own shard of one shared address space.
pub(crate) struct Host {
    runtimes: Vec<RegionRuntime<HeapShard>>,
}

impl Host {
    /// A host on a new shared space carved into `sessions` shards.
    pub(crate) fn fresh(sessions: u32) -> Host {
        let space = SharedSpace::new(SpaceConfig { max_bytes: SPACE_MAX_BYTES, workers: sessions });
        let runtimes = (0..sessions)
            .map(|s| RegionRuntime::with_config_on(RegionConfig::default(), space.shard(s)))
            .collect();
        Host { runtimes }
    }

    /// `warm` when it has `sessions` sessions, a fresh host otherwise.
    fn reuse(warm: Option<Host>, sessions: u32) -> Host {
        warm.filter(|h| h.sessions() == sessions).unwrap_or_else(|| Host::fresh(sessions))
    }

    fn sessions(&self) -> u32 {
        self.runtimes.len() as u32
    }
}

/// The host the last finished episode in the process left behind.
static WARM_HOST: Mutex<Option<Host>> = Mutex::new(None);

/// Runs the full service and returns its report. Panics (failing the
/// harness) if any internal invariant breaks: an escaped worker panic,
/// crash residue that was not stranded and reclaimed once per panic, a
/// non-conserving ledger at a round barrier, or a dirty sanitize pass
/// when [`ServiceConfig::sanitize_rounds`] is on.
///
/// The episode runs on the warm host when it has `cfg.sessions`
/// sessions, on a fresh host otherwise, and leaves its host warm for
/// the next call; an episode that panics takes its host with it.
pub fn run_service(cfg: &ServiceConfig) -> ServiceReport {
    assert!(cfg.sessions >= 1 && cfg.sessions <= 255, "sessions must be 1..=255");
    let warm = WARM_HOST.lock().unwrap_or_else(PoisonError::into_inner).take();
    let (report, host) = run_episode(cfg, Host::reuse(warm, cfg.sessions));
    *WARM_HOST.lock().unwrap_or_else(PoisonError::into_inner) = Some(host);
    report
}

/// One episode of [`run_service`] on `host`, which must have
/// `cfg.sessions` sessions; returns the report and the host.
pub(crate) fn run_episode(cfg: &ServiceConfig, mut host: Host) -> (ServiceReport, Host) {
    let cfg = *cfg;
    assert_eq!(host.sessions(), cfg.sessions, "a host serves a fixed number of sessions");
    let started = Instant::now();

    let slots: Vec<Arc<Mutex<SessionSlot>>> = host
        .runtimes
        .drain(..)
        .zip(0u32..)
        .map(|(mut rt, s)| {
            rt.reset(RegionConfig::default());
            if cfg.fault_one_in > 0 {
                rt.set_fault_plan(
                    region_core::FaultPlan::seeded(fold(cfg.seed, 0x5eed ^ u64::from(s)))
                        .fail_allocs_one_in(cfg.fault_one_in),
                );
            }
            rt.set_delete_budget(cfg.delete_budget);
            // struct idx { int tag; struct ent @hot; int pad; struct ent @cold; }
            let index_desc =
                rt.register_type(region_core::TypeDescriptor::new("idx", 16, vec![4, 12]));
            Arc::new(Mutex::new(SessionSlot {
                rt,
                adm: AdmissionController::new(cfg.marks),
                ledger: Ledger::default(),
                digest: fold(FNV_OFFSET, u64::from(s)),
                next_req: 0,
                in_flight: None,
                stranded: 0,
                reclaimed: 0,
                cache: None,
                index: None,
                index_desc,
                since_rotate: 0,
                round_start_pages: 0,
                lat_ns: Vec::new(),
                pause_ns: Vec::new(),
            }))
        })
        .collect();

    let chunk = cfg.requests_per_session.div_ceil(cfg.rounds.max(1));
    let mut digest = FNV_OFFSET;
    let (mut quarantined, mut reaped) = (0u64, 0u64);
    let mut sanitize_runs = 0u64;
    let mut high_water = 0u64;
    let mut panics_seen = 0u64;

    for round in 0..cfg.rounds.max(1) {
        // Barrier: read the global footprint single-threaded, and pin
        // each session's round-start pages.
        let mut base = 0u64;
        for slot in &slots {
            let mut s = lock(slot);
            let p = own_pages(&s.rt);
            s.round_start_pages = p;
            base += p;
        }
        let hi = (chunk * (round + 1)).min(cfg.requests_per_session);

        let jobs: Vec<Box<dyn Fn(u32) + Send + Sync>> = slots
            .iter()
            .enumerate()
            .map(|(si, slot)| {
                let slot = Arc::clone(slot);
                let session = si as u32;
                let job = move |attempt: u32| {
                    let mut panic_now = false;
                    {
                        let mut s = lock(&slot);
                        // A retried batch first clears the crashed
                        // attempt's half-served region, then resumes at
                        // the cursor — the crashed request replays.
                        if attempt > 0 {
                            if let Some(r) = s.in_flight.take() {
                                if s.rt.try_delete_region(r).is_ok() {
                                    s.reclaimed += 1;
                                }
                            }
                            s.ledger.retries += 1;
                        }
                        while s.next_req < hi {
                            let req = s.next_req;
                            match serve_one(&mut s, cfg, base, session, req, attempt) {
                                Served::Done => s.next_req += 1,
                                Served::PanicNow => {
                                    panic_now = true;
                                    break;
                                }
                            }
                        }
                    } // slot lock released before the injected panic
                    if panic_now {
                        panic!(
                            "{PAR_PANIC_MARKER} [service worker] (session {session} \
                             round {round} attempt {attempt})"
                        );
                    }
                };
                Box::new(job) as Box<dyn Fn(u32) + Send + Sync>
            })
            .collect();

        let reports = supervise(
            jobs,
            &SuperviseConfig {
                workers: cfg.threads.max(1),
                deadline: Some(BATCH_DEADLINE),
                max_attempts: 2,
            },
        );

        // Supervisor books must agree with the slot books: one retry
        // per injected panic, nothing escaped, nothing timed out.
        let mut round_panics = 0u64;
        for rep in &reports {
            match &rep.outcome {
                JobOutcome::Completed(()) => {}
                JobOutcome::Panicked(msg) => {
                    panic!("service worker {} exhausted retries: {msg}", rep.job)
                }
                JobOutcome::TimedOut(d) => {
                    panic!("service worker {} missed its deadline ({d:?})", rep.job)
                }
            }
            round_panics += u64::from(rep.attempts - 1);
        }

        // Round barrier verification: every injected panic stranded one
        // request region and its retry reclaimed it, the ledger
        // conserves, and optionally every session heap sanitizes clean.
        let mut round_fleet = Ledger::default();
        (quarantined, reaped) = (0, 0);
        for slot in &slots {
            let s = lock(slot);
            assert!(s.in_flight.is_none(), "crash residue survived round {round}");
            quarantined += s.stranded;
            reaped += s.reclaimed;
            round_fleet.add(&s.ledger);
            if cfg.sanitize_rounds {
                let rep = s.rt.sanitize();
                assert!(rep.is_clean(), "session sanitize dirty after round {round}: {rep}");
                assert!(s.rt.violations().is_empty(), "rc violations after round {round}");
                sanitize_runs += 1;
            }
            high_water = high_water.max(s.adm.high_water_pages());
        }
        assert_eq!(
            round_panics,
            round_fleet.panics - panics_seen,
            "supervisor retry count diverged from injected panic count"
        );
        panics_seen = round_fleet.panics;
        assert!(
            quarantined == panics_seen && reaped == panics_seen,
            "after round {round}: {quarantined} stranded and {reaped} reclaimed \
             for {panics_seen} injected panics"
        );
        assert!(
            round_fleet.conserves(),
            "ledger does not conserve after round {round}: {round_fleet:?}"
        );
        digest = fold(fold(digest, u64::from(round)), quarantined);
        digest = fold(digest, reaped);
    }

    // Teardown: drop the cache regions, fold each session's books in
    // session order, run a final sanitize pass per session, and hand
    // each runtime back to the host. The round's jobs are gone, so each
    // slot has one owner again.
    let mut fleet = Ledger::default();
    let mut per_session = Vec::with_capacity(slots.len());
    let mut lat_ns = Vec::new();
    let mut pause_ns = Vec::new();
    let mut final_pages = 0u64;
    for slot in slots {
        let slot = Arc::try_unwrap(slot).unwrap_or_else(|_| panic!("a session job outlived its episode"));
        let mut s = slot.into_inner().unwrap_or_else(PoisonError::into_inner);
        // Index before cache: index entries hold counted references into
        // the cache, so the cache delete would be refused while they live.
        if let Some(ir) = s.index.take() {
            drain_delete(&mut s, ir);
        }
        if let Some(cr) = s.cache.take() {
            let del = s.rt.try_delete_region(cr);
            assert!(del.is_ok(), "cache region delete blocked: {del:?}");
        }
        let rep = s.rt.sanitize();
        assert!(rep.is_clean(), "final session sanitize dirty: {rep}");
        sanitize_runs += 1;
        fleet.add(&s.ledger);
        per_session.push(s.ledger);
        digest = fold(digest, s.digest);
        final_pages += own_pages(&s.rt);
        lat_ns.append(&mut s.lat_ns);
        pause_ns.append(&mut s.pause_ns);
        host.runtimes.push(s.rt);
    }
    lat_ns.sort_unstable();
    pause_ns.sort_unstable();
    assert!(fleet.conserves(), "final ledger does not conserve: {fleet:?}");
    assert_eq!(
        fleet.submitted,
        u64::from(cfg.sessions) * u64::from(cfg.requests_per_session),
        "requests lost or invented"
    );

    let report = ServiceReport {
        ledger: fleet,
        per_session,
        digest,
        high_water_pages: high_water,
        final_pages,
        quarantined,
        reaped,
        sanitize_runs,
        lat_ns,
        pause_ns,
        elapsed: started.elapsed(),
    };
    (report, host)
}

/// Installs a panic hook that silences the injected panics of the
/// service and of par-chaos (their messages start with
/// "par-chaos injected panic") while reporting every other panic through
/// the previously installed hook.
pub fn install_service_panic_filter() {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let message = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied());
        if !message.is_some_and(|m| m.starts_with(PAR_PANIC_MARKER)) {
            prev(info);
        }
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(seed: u64) -> ServiceConfig {
        ServiceConfig {
            sessions: 2,
            requests_per_session: 24,
            rounds: 3,
            threads: 1,
            marks: Watermarks::new(10, 16),
            fault_one_in: 7,
            panic_one_in: 11,
            index_rotate: 6, // several in-run rotations across 24 requests
            ..ServiceConfig::full(seed)
        }
    }

    #[test]
    fn same_seed_reruns_are_byte_identical() {
        install_service_panic_filter();
        let a = run_service(&tiny(42));
        let b = run_service(&tiny(42));
        assert_eq!(a.encode_books(), b.encode_books());
        assert!(a.ledger.conserves());
        assert!(a.ledger.panics > 0, "panic path never exercised");
        assert!(a.ledger.faults > 0, "fault path never exercised");
        assert_eq!(a.quarantined, a.ledger.panics, "every panic strands one region");
        assert_eq!(a.quarantined, a.reaped, "every stranded region was reclaimed");
    }

    #[test]
    fn thread_count_does_not_change_the_books() {
        install_service_panic_filter();
        let base = run_service(&tiny(7));
        for threads in [2, 4] {
            let cfg = ServiceConfig { threads, ..tiny(7) };
            let r = run_service(&cfg);
            assert_eq!(base.encode_books(), r.encode_books(), "threads={threads} diverged");
        }
        // Every batch's first served request crashes once: one stranded
        // and one reclaimed region per session per round, whichever
        // thread ran the batch.
        let crashy = ServiceConfig { panic_one_in: 1, ..tiny(7) };
        let one = run_service(&crashy);
        let two = run_service(&ServiceConfig { threads: 2, ..crashy });
        assert_eq!(one.encode_books(), two.encode_books(), "crash-every-batch run diverged");
        let batches = u64::from(crashy.sessions * crashy.rounds);
        assert_eq!(two.ledger.panics, batches);
        assert_eq!((two.quarantined, two.reaped), (batches, batches));
    }

    #[test]
    fn watermarks_degrade_then_shed() {
        install_service_panic_filter();
        // Probe unbounded first, then pin the watermarks just under the
        // observed high water: the staircase alone must now walk the
        // service through degrade into shed.
        let free = ServiceConfig {
            requests_per_session: 120,
            fault_one_in: 0,
            panic_one_in: 0,
            marks: Watermarks::unbounded(),
            ..tiny(3)
        };
        let probe = run_service(&free);
        assert_eq!(probe.ledger.shed, 0);
        assert_eq!(probe.ledger.degraded, 0);
        assert_eq!(probe.ledger.completed, probe.ledger.submitted);
        let hard = probe.high_water_pages * 2 / 3;
        let cfg = ServiceConfig { marks: Watermarks::new(probe.high_water_pages / 2, hard), ..free };
        let r = run_service(&cfg);
        assert!(r.ledger.degraded > 0, "never degraded: {:?}", r.ledger);
        assert!(r.ledger.shed > 0, "never shed: {:?}", r.ledger);
        assert!(r.ledger.completed > 0, "nothing completed: {:?}", r.ledger);
        assert!(r.high_water_pages >= hard, "high water below the hard mark");
    }

    #[test]
    fn latencies_and_throughput_are_populated() {
        install_service_panic_filter();
        let r = run_service(&tiny(9));
        assert_eq!(r.lat_ns.len() as u64, r.ledger.submitted);
        assert!(r.p50_us() <= r.p99_us() && r.p99_us() <= r.p999_us());
        assert!(r.throughput_rps() > 0.0);
        assert!(!r.pause_ns.is_empty(), "index rotation never paused the service");
        assert!(r.pause_p50_us() <= r.pause_p99_us());
    }

    /// One host carried through a different seed, sessions 4 → 6 → 4
    /// and the other deletion budget, reused whenever the session count
    /// matches: every episode's books equal a fresh host's, and the
    /// quick and full-scale pins hold on a warm host.
    #[test]
    fn a_warm_host_keeps_the_books_of_a_fresh_one() {
        install_service_panic_filter();
        let fnv = |b: &[u8]| b.iter().fold(FNV_OFFSET, |h, &x| (h ^ u64::from(x)).wrapping_mul(0x100_0000_01b3));
        let quick = ServiceConfig { threads: 2, ..ServiceConfig::quick(42) };
        let full = ServiceConfig { threads: 2, delete_budget: 64, ..ServiceConfig::full(42) };
        let arms = [
            (ServiceConfig::quick(7), None),
            (quick, Some("digest 4d44ec2fd9b9b10a")),
            (ServiceConfig { sessions: 6, ..quick }, None),
            (full, Some("digest 69afdf9831478a8c, books 7fdb1688843b8f9f")),
            (quick, None),
            (ServiceConfig { delete_budget: 64, ..quick }, Some("digest 4d44ec2fd9b9b10a")),
        ];
        let mut host = None;
        for (i, (cfg, pin)) in arms.into_iter().enumerate() {
            let warm = host.as_ref().is_some_and(|h: &Host| h.sessions() == cfg.sessions);
            let (report, back) = run_episode(&cfg, Host::reuse(host.take(), cfg.sessions));
            host = Some(back);
            let (fresh, _) = run_episode(&cfg, Host::fresh(cfg.sessions));
            assert!(report.encode_books() == fresh.encode_books(), "arm {i} (warm: {warm}): books differ");
            if let Some(pin) = pin {
                assert!(warm, "arm {i} ran on a fresh host");
                let got = format!("digest {:016x}, books {:016x}", report.digest, fnv(&report.encode_books()));
                assert!(got.starts_with(pin), "arm {i}: {got}, pinned {pin}");
            }
        }
    }

    #[test]
    fn delete_budget_does_not_change_the_books() {
        install_service_panic_filter();
        let base = run_service(&tiny(13));
        assert!(base.pause_ns.len() as u64 >= 2, "no rotations to compare");
        for budget in [64, 1] {
            let cfg = ServiceConfig { delete_budget: budget, ..tiny(13) };
            let r = run_service(&cfg);
            assert_eq!(base.encode_books(), r.encode_books(), "budget={budget} diverged");
            assert!(r.pause_ns.len() >= base.pause_ns.len());
            if budget == 1 {
                assert!(
                    r.pause_ns.len() > base.pause_ns.len(),
                    "budget=1 produced no extra increments"
                );
            }
        }
    }
}
