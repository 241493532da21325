//! Workload execution and measurement shared by every table/figure
//! binary.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use cache_sim::{MemStats, MemorySystem};
use region_core::{AllocStats, SafetyCosts};
use simheap::SimHeap;
use workloads::{MallocEnv, MallocKind, RegionEnv, RegionKind, Workload};

use crate::results::{Source, COLUMNS};
use crate::supervise::{supervise, JobOutcome, SuperviseConfig};

/// Locks the warm-heap pool, tolerating poison: a panic inside a matrix
/// cell happens while the pool is *unlocked* (heaps are popped before and
/// pushed after a run), so a poisoned lock only means some other cell
/// died — the pooled heaps themselves are fine to reuse.
fn lock_pool(pool: &Mutex<Vec<SimHeap>>) -> MutexGuard<'_, Vec<SimHeap>> {
    pool.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Workload scale, from the `SCALE` environment variable (default 2).
/// Passing `--quick` to a benchmark binary forces scale 1 (CI smoke
/// runs). An unparseable `SCALE` warns instead of silently defaulting.
pub fn scale_from_env() -> u32 {
    if std::env::args().any(|a| a == "--quick") {
        return 1;
    }
    match std::env::var("SCALE") {
        Ok(s) => match s.trim().parse() {
            Ok(n) => n,
            Err(_) => {
                eprintln!("warning: SCALE={s:?} is not an unsigned integer; using default 2");
                2
            }
        },
        Err(_) => 2,
    }
}

/// Everything measured from one workload × allocator run.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Workload name.
    pub workload: &'static str,
    /// Allocator/backend name as used in the paper's figures.
    pub allocator: &'static str,
    /// Wall-clock time of the whole run.
    pub total: Duration,
    /// Time inside memory management (the "memory" share of Figure 9).
    pub mem: Duration,
    /// Figure 9's memory clock before its bound, in nanoseconds (`None`
    /// where no memory clock ran); see [`Measurement::check_mem_clock`].
    pub mem_estimate_ns: Option<i64>,
    /// Pages requested from the OS (Figure 8).
    pub os_pages: u64,
    /// Allocation statistics (Tables 2/3).
    pub stats: AllocStats,
    /// Underlying-malloc statistics for emulation runs ("with overhead").
    pub inner_stats: Option<AllocStats>,
    /// Safety-cost counters (safe-region runs only; Figure 11).
    pub costs: Option<SafetyCosts>,
    /// Cache-simulator counters (traced runs only; Figure 10).
    pub cache: Option<MemStats>,
    /// The workload's answer (must agree across allocators).
    pub checksum: u64,
}

impl Measurement {
    /// The "base" share of Figure 9.
    pub fn base(&self) -> Duration {
        self.total.saturating_sub(self.mem)
    }

    /// Checks the memory clock's unbounded estimate (DESIGN §18): it must
    /// be positive and no more than the run's total, or the base share
    /// would be negative. `mem` is bounded by the run's wall time, so
    /// only the unbounded estimate can show a broken clock.
    pub fn check_mem_clock(&self) -> Result<(), String> {
        let Some(ns) = self.mem_estimate_ns else { return Ok(()) };
        let total = self.total.as_nanos() as i64;
        if 0 < ns && ns <= total {
            return Ok(());
        }
        Err(format!(
            "{}/{}: memory estimate {:.3} ms is outside (0, total {:.3} ms]",
            self.workload,
            self.allocator,
            ns as f64 / 1e6,
            total as f64 / 1e6
        ))
    }
}

/// Runs the region variant of a workload under one region backend.
pub fn measure_region(w: Workload, kind: RegionKind, scale: u32, traced: bool) -> Measurement {
    measure_region_on(w, kind, scale, traced, SimHeap::new()).0
}

/// [`measure_region`] with the hand-annotated *sameregion* barriers
/// elided or kept. Every other region run keeps them, so its counters
/// reproduce; the elision A/B drives both arms from one process.
pub fn measure_region_elide(w: Workload, kind: RegionKind, scale: u32, elide: bool) -> Measurement {
    run_region_fn(w.name(), kind, false, elide, SimHeap::new(), |env| w.run_region(env, scale)).0
}

/// [`measure_region`] on a recycled heap, returning the (reset-ready)
/// heap for the next run (see [`Job::run_warm`]).
pub fn measure_region_on(
    w: Workload,
    kind: RegionKind,
    scale: u32,
    traced: bool,
    heap: SimHeap,
) -> (Measurement, SimHeap) {
    run_region_fn(w.name(), kind, traced, false, heap, |env| w.run_region(env, scale))
}

fn run_region_fn(
    name: &'static str,
    kind: RegionKind,
    traced: bool,
    elide: bool,
    heap: SimHeap,
    run: impl FnOnce(&mut RegionEnv) -> u64,
) -> (Measurement, SimHeap) {
    let mut env = RegionEnv::on_heap(kind, heap);
    env.set_elide(elide);
    if traced {
        env.heap().attach_sink(Box::new(MemorySystem::default()));
    }
    let t = Instant::now();
    let checksum = run(&mut env);
    let (mem, mem_estimate_ns) = (env.mem_time(), env.mem_estimate_ns());
    let total = t.elapsed();
    let os_pages = env.os_pages();
    let stats = *env.stats();
    let inner_stats = env.emulation_inner_stats().copied();
    let costs = env.costs().copied();
    if std::env::var("REGION_SANITIZE").is_ok_and(|v| v == "1") {
        if let Some(report) = env.sanitize() {
            assert!(
                report.is_clean(),
                "REGION_SANITIZE: {name}/{} left a dirty runtime: {report}",
                kind.name()
            );
        }
    }
    let mut heap = env.into_heap();
    let m = Measurement {
        workload: name,
        allocator: kind.name(),
        total,
        mem,
        mem_estimate_ns: Some(mem_estimate_ns),
        os_pages,
        stats,
        inner_stats,
        costs,
        cache: detach_cache(&mut heap, traced),
        checksum,
    };
    (m, heap)
}

/// The cache simulator's counters of a traced run, detached from `heap`.
fn detach_cache(heap: &mut SimHeap, traced: bool) -> Option<MemStats> {
    traced.then(|| MemorySystem::from_sink(heap.detach_sink().expect("sink attached")).stats())
}

// ----------------------------------------------------------------------
// Parallel workload × allocator matrix
// ----------------------------------------------------------------------

/// One cell of a workload × allocator matrix.
#[derive(Clone, Copy, Debug)]
pub enum Job {
    /// The malloc/free variant of a workload under one allocator.
    Malloc(Workload, MallocKind),
    /// The region variant of a workload under one region backend.
    Region(Workload, RegionKind),
    /// moss's "slow" single-region layout (Figures 9/10 extra bar).
    MossSlow(RegionKind),
}

impl Job {
    /// Runs this cell and returns its measurement.
    pub fn run(self, scale: u32, traced: bool) -> Measurement {
        self.run_warm(SimHeap::new(), scale, traced).0
    }

    /// Runs this cell on a recycled heap and hands the heap back for the
    /// next cell. The environment resets the heap before use, so every
    /// counter, checksum, and footprint row is bit-identical to a
    /// fresh-heap run; only the host allocation backing the simulated
    /// memory is reused.
    pub fn run_warm(self, heap: SimHeap, scale: u32, traced: bool) -> (Measurement, SimHeap) {
        match self {
            Job::Malloc(w, kind) => {
                let mut env = MallocEnv::on_heap(kind, heap);
                if traced {
                    env.heap().attach_sink(Box::new(MemorySystem::default()));
                }
                let t = Instant::now();
                let checksum = w.run_malloc(&mut env, scale);
                // Read before `total`: the memory clock's bound then falls inside it.
                let (mem, mem_estimate_ns) = (env.mem_time(), env.mem_estimate_ns());
                let total = t.elapsed();
                let (os_pages, stats) = (env.os_pages(), *env.stats());
                let mut heap = env.into_heap();
                let m = Measurement {
                    workload: w.name(),
                    allocator: kind.name(),
                    total,
                    mem,
                    mem_estimate_ns: Some(mem_estimate_ns),
                    os_pages,
                    stats,
                    inner_stats: None,
                    costs: None,
                    cache: detach_cache(&mut heap, traced),
                    checksum,
                };
                (m, heap)
            }
            Job::Region(w, kind) => measure_region_on(w, kind, scale, traced, heap),
            Job::MossSlow(kind) => {
                let (mut m, heap) = run_region_fn("moss", kind, traced, false, heap, |env| {
                    workloads::moss::run_region_slow(env, scale)
                });
                m.allocator = "Slow";
                (m, heap)
            }
        }
    }
}

/// Runs every cell of a matrix, fanning jobs across worker threads.
///
/// Each [`Measurement`] owns an independent `SimHeap`, so cells are
/// embarrassingly parallel; workers (bounded by the machine's available
/// parallelism) pull cells from a shared cursor, and results are
/// returned **in matrix order** regardless of completion order, so
/// output stays deterministic.
pub fn run_matrix(jobs: &[Job], scale: u32, traced: bool) -> Vec<Measurement> {
    run_matrix_with(jobs, scale, traced, bench_workers())
}

/// The worker count benches fan across: `BENCH_WORKERS` if set (min 1),
/// else the machine's available parallelism. Recorded in every
/// `results/*.json` envelope so multi-core reruns are comparable with
/// single-core baselines.
pub fn bench_workers() -> usize {
    match std::env::var("BENCH_WORKERS").ok().and_then(|w| w.parse().ok()) {
        Some(w) if w >= 1 => w,
        _ => host_cores(),
    }
}

/// The machine's detected core count (available parallelism), 1 if
/// undetectable.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The worker count for the figures' **parallel pass**: `BENCH_PAR_WORKERS`
/// if set (min 1), else at least 3 even on a single-core machine. The
/// floor keeps single-core CI honest — the pass always exercises real
/// cross-thread scheduling, so "parallel execution does not perturb
/// simulated results" is checked everywhere, not just on big hosts.
pub fn par_bench_workers() -> usize {
    match std::env::var("BENCH_PAR_WORKERS").ok().and_then(|w| w.parse().ok()) {
        Some(w) if w >= 1 => w,
        _ => host_cores().max(3),
    }
}

/// [`run_matrix`] with an explicit worker count (normally taken from the
/// machine, overridable with `BENCH_WORKERS`).
///
/// Panics only after **every** cell has finished, listing each failed
/// cell — one faulted job costs that job, not the matrix.
pub fn run_matrix_with(jobs: &[Job], scale: u32, traced: bool, workers: usize) -> Vec<Measurement> {
    let rows = run_matrix_checked(jobs, scale, traced, workers);
    let failures: Vec<String> = rows
        .iter()
        .enumerate()
        .filter_map(|(i, r)| r.as_ref().err().map(|e| format!("{:?}: {e}", jobs[i])))
        .collect();
    assert!(
        failures.is_empty(),
        "{} of {} matrix cells failed:\n  {}",
        failures.len(),
        jobs.len(),
        failures.join("\n  ")
    );
    rows.into_iter().map(|r| r.expect("failures checked above")).collect()
}

/// [`run_matrix_with`], but a cell that panics yields `Err(message)` in
/// its slot instead of taking down the matrix. A thin wrapper over
/// [`supervise`] (single attempt, no deadline): each job runs under
/// `catch_unwind` and the other workers keep draining the cursor. The
/// chaos harness uses this to assert that an injected fault degrades one
/// measurement, not the run.
pub fn run_matrix_checked(
    jobs: &[Job],
    scale: u32,
    traced: bool,
    workers: usize,
) -> Vec<Result<Measurement, String>> {
    let cfg = SuperviseConfig { workers, ..SuperviseConfig::default() };
    // Warm heap pool: finished cells return their SimHeap and the next
    // cell adopts it (reset-and-reuse), so a long matrix allocates ~one
    // heap per worker instead of one per cell. A cell that panics drops
    // its heap with the unwound environment — a possibly-corrupt heap is
    // never recycled, keeping fault containment intact.
    let pool: Arc<Mutex<Vec<SimHeap>>> = Arc::new(Mutex::new(Vec::new()));
    let closures: Vec<_> = jobs
        .iter()
        .map(|&job| {
            let pool = Arc::clone(&pool);
            move |_attempt: u32| {
                let warm = lock_pool(&pool).pop().unwrap_or_else(SimHeap::new);
                let (m, heap) = job.run_warm(warm, scale, traced);
                lock_pool(&pool).push(heap);
                m
            }
        })
        .collect();
    supervise(closures, &cfg)
        .into_iter()
        .map(|r| match r.outcome {
            JobOutcome::Completed(m) => Ok(m),
            JobOutcome::Panicked(msg) => Err(msg),
            JobOutcome::TimedOut(d) => Err(format!("timed out after {d:?}")),
        })
        .collect()
}

/// The version stamped into every `results/*.json` document. Bump it
/// whenever the shape of [`results_json`] changes; `compare_results`
/// refuses to diff documents with mismatched versions.
///
/// v3 added `workers` and `host_cores` to the envelope so multi-core
/// reruns are comparable with single-core baselines.
pub const RESULTS_SCHEMA_VERSION: u64 = 3;

/// Where a `--quick` smoke run writes its results documents and
/// `BENCH_*.json` records: `target/quick-results/`, so a smoke pass
/// never overwrites the committed full-scale ones. `None` otherwise.
fn quick_dir() -> Option<std::path::PathBuf> {
    let quick = std::env::args().any(|a| a == "--quick");
    quick.then(|| std::path::Path::new("target").join("quick-results"))
}

/// Writes [`results_json`] to `results/<name>.json`, or under
/// [`quick_dir`] with `--quick` (creating the directory), returning the
/// path.
pub fn write_results_json(
    name: &str,
    rows: &[Measurement],
    par_workers: Option<usize>,
    extra: &[(&str, &[f64])],
) -> std::io::Result<std::path::PathBuf> {
    let dir = quick_dir().unwrap_or_else(|| "results".into());
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.json"));
    std::fs::write(&path, results_json(name, rows, par_workers, extra))?;
    Ok(path)
}

/// The commit the results were produced from: `GIT_COMMIT` if set, else
/// `.git/HEAD` (following one level of `ref:` indirection), else
/// `"unknown"`. Best-effort — benches may run outside a checkout.
fn commit_id() -> String {
    if let Ok(c) = std::env::var("GIT_COMMIT") {
        return c.trim().to_string();
    }
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map_or_else(|_| "unknown".to_string(), |c| c.trim().to_string()),
        None => head,
    }
}

/// The results-v3 document: an envelope (`schema_version`, `bench`,
/// `commit`, `workers`, `host_cores`, then `par_workers` when given)
/// wrapping one row per measurement, each cell written as its
/// [`COLUMNS`] entry says. Hand-rolled: the harness has no serialization
/// dependency.
///
/// `extra` carries the [`Source::Extra`] columns as `(name, one value per
/// row)`: the parallel pass's `par_total_ms`, which goes with
/// `par_workers`, and the service's latency and pause quantiles. A
/// column left out of `extra` is left out of every row, so documents
/// without it keep their older bytes.
///
/// Deterministic counters are worker-count-independent (each cell owns
/// its `SimHeap`); wall-clock fields are not, which is why the envelope
/// records how wide the run fanned out — `compare_results` downgrades
/// time drift to a warning when the two documents disagree on `workers`.
pub fn results_json(
    name: &str,
    rows: &[Measurement],
    par_workers: Option<usize>,
    extra: &[(&str, &[f64])],
) -> String {
    for &(col, values) in extra {
        assert!(
            COLUMNS.iter().any(|c| c.name == col && matches!(c.source, Source::Extra)),
            "{col} is not an extra column of the results schema"
        );
        assert_eq!(
            values.len(),
            rows.len(),
            "{col} must be omitted entirely or cover the matrix: one {col} per row"
        );
    }
    assert_eq!(
        par_workers.is_some(),
        extra.iter().any(|&(col, _)| col == "par_total_ms"),
        "par_workers goes with the par_total_ms column"
    );
    let mut out = String::from("{\n");
    out.push_str(&format!("\"schema_version\": {RESULTS_SCHEMA_VERSION},\n"));
    out.push_str(&format!("\"bench\": \"{name}\",\n"));
    out.push_str(&format!("\"commit\": \"{}\",\n", commit_id()));
    out.push_str(&format!("\"workers\": {},\n", bench_workers()));
    out.push_str(&format!("\"host_cores\": {},\n", host_cores()));
    if let Some(w) = par_workers {
        out.push_str(&format!("\"par_workers\": {w},\n"));
    }
    out.push_str("\"rows\": [\n");
    for (i, m) in rows.iter().enumerate() {
        let cells: Vec<String> = COLUMNS
            .iter()
            .filter_map(|c| {
                let value = match c.source {
                    Source::Ms(d) => format!("{:.3}", d(m).as_secs_f64() * 1e3),
                    Source::Count(n) => n(m)?.to_string(),
                    Source::Extra => {
                        format!("{:.3}", extra.iter().find(|&&(col, _)| col == c.name)?.1[i])
                    }
                };
                Some(format!("\"{}\": {value}", c.name))
            })
            .collect();
        out.push_str(&format!(
            "  {{\"workload\": \"{}\", \"allocator\": \"{}\", {}}}",
            m.workload,
            m.allocator,
            cells.join(", ")
        ));
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("]\n}\n");
    out
}

/// UTC calendar date, `YYYY-MM-DD`, from the system clock (civil-from-days,
/// Hinnant's algorithm) — keeps the `BENCH_*.json` convention without a
/// date-time dependency.
pub fn today_utc() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let z = (secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = yoe + era * 400 + i64::from(m <= 2);
    format!("{y:04}-{m:02}-{d:02}")
}

/// Writes a `BENCH_<name>.json` record: an object of `comment`, today's
/// `date`, the `host`, then `body` (more members, each line after the
/// first indented by its caller). The file goes to the repo root, or to
/// `target/quick-results/` under `--quick`, so a smoke run never
/// overwrites the committed record. Exits with status 1 if the file
/// cannot be written.
pub fn write_bench_record(name: &str, comment: &str, body: &str) {
    let json = format!(
        "{{\n  \"comment\": \"{comment}\",\n  \"date\": \"{}\",\n  \
         \"host\": {{ \"cores\": {}, \"os\": \"{}\" }},\n  {body}\n}}\n",
        today_utc(),
        host_cores(),
        std::env::consts::OS,
    );
    let dir = quick_dir().unwrap_or_default();
    let out = dir.join(format!("BENCH_{name}.json"));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&out, json)) {
        Ok(()) => println!("\nwrote {}", out.display()),
        Err(e) => {
            eprintln!("failed to write {}: {e}", out.display());
            std::process::exit(1);
        }
    }
}

/// Formats a byte count as the paper's kbytes.
pub fn kb(bytes: u64) -> f64 {
    bytes as f64 / 1024.0
}

/// Formats a page count as kbytes.
pub fn pages_kb(pages: u64) -> f64 {
    pages as f64 * 4.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervise::panic_message;

    #[test]
    fn malloc_and_region_measurements_agree_on_checksum() {
        let a = Job::Malloc(Workload::Tile, MallocKind::Lea).run(1, false);
        let b = measure_region(Workload::Tile, RegionKind::Safe, 1, false);
        assert_eq!(a.checksum, b.checksum);
        assert!(a.total >= a.mem);
        assert!(b.total >= b.mem);
        a.check_mem_clock().unwrap();
        b.check_mem_clock().unwrap();
        assert!(a.os_pages > 0);
        assert!(b.costs.is_some());
        assert!(a.costs.is_none());
    }

    #[test]
    fn traced_runs_produce_cache_stats() {
        let m = measure_region(Workload::Mudlle, RegionKind::Unsafe, 1, true);
        let cache = m.cache.expect("traced");
        assert!(cache.reads > 10_000);
        assert!(cache.writes > 1_000);
    }

    #[test]
    fn matrix_results_follow_job_order() {
        let jobs = [
            Job::Malloc(Workload::Cfrac, MallocKind::Lea),
            Job::Region(Workload::Cfrac, RegionKind::Safe),
            Job::Region(Workload::Cfrac, RegionKind::Unsafe),
            Job::Malloc(Workload::Tile, MallocKind::Lea),
        ];
        // Force real worker threads: the deterministic ordering must hold
        // even on a single-core machine where run_matrix would go serial.
        let rows = run_matrix_with(&jobs, 1, false, 3);
        assert_eq!(rows.len(), 4);
        assert_eq!((rows[0].workload, rows[0].allocator), ("cfrac", MallocKind::Lea.name()));
        assert_eq!(rows[1].allocator, RegionKind::Safe.name());
        assert_eq!(rows[2].allocator, RegionKind::Unsafe.name());
        assert_eq!(rows[3].workload, "tile");
        // Parallel execution must not perturb simulated results.
        assert_eq!(rows[0].checksum, rows[1].checksum);
        assert_eq!(rows[1].checksum, rows[2].checksum);
        let serial = jobs[1].run(1, false);
        assert_eq!(rows[1].checksum, serial.checksum);
        assert_eq!(rows[1].os_pages, serial.os_pages);
        assert_eq!(rows[1].stats.total_allocs, serial.stats.total_allocs);
    }

    #[test]
    fn par_column_is_opt_in_and_leaves_plain_documents_untouched() {
        let jobs = [
            Job::Malloc(Workload::Cfrac, MallocKind::Lea),
            Job::Region(Workload::Cfrac, RegionKind::Safe),
        ];
        let rows = run_matrix(&jobs, 1, false);
        // No extras = the historical document.
        let plain = results_json("fig_test", &rows, None, &[]);
        assert!(!plain.contains("par_"), "no par fields without a parallel pass");
        // The par column = envelope + one cell per row, nothing else moves.
        let with = results_json("fig_test", &rows, Some(3), &[("par_total_ms", &[12.5, 0.25])]);
        assert!(with.contains("\"par_workers\": 3,"));
        assert!(with.contains("\"par_total_ms\": 12.500, "));
        assert!(with.contains("\"par_total_ms\": 0.250, "));
        assert_eq!(
            with.matches("par_total_ms").count(),
            rows.len(),
            "exactly one par cell per row"
        );
    }

    #[test]
    #[should_panic(expected = "one par_total_ms per row")]
    fn par_column_must_cover_every_row() {
        let rows = run_matrix(&[Job::Malloc(Workload::Cfrac, MallocKind::Lea)], 1, false);
        let _ = results_json("fig_test", &rows, Some(3), &[("par_total_ms", &[])]);
    }

    #[test]
    fn latency_columns_are_opt_in_and_leave_plain_documents_untouched() {
        let jobs = [
            Job::Malloc(Workload::Cfrac, MallocKind::Lea),
            Job::Region(Workload::Cfrac, RegionKind::Safe),
        ];
        let rows = run_matrix(&jobs, 1, false);
        let plain = results_json("fig_test", &rows, None, &[]);
        assert!(!plain.contains("p50_us"), "no latency fields without a latency pass");
        // The quantiles = three cells per row, nothing else moves.
        let lat: [(&str, &[f64]); 3] =
            [("p50_us", &[0.9, 1.1]), ("p99_us", &[250.0, 260.5]), ("p999_us", &[400.0, 410.25])];
        let with = results_json("fig_test", &rows, None, &lat);
        assert!(with.contains("\"p50_us\": 0.900, "));
        assert!(with.contains("\"p99_us\": 260.500, "));
        assert!(with.contains("\"p999_us\": 410.250, "));
        for f in ["p50_us", "p99_us", "p999_us"] {
            assert_eq!(with.matches(f).count(), rows.len(), "one {f} cell per row");
        }
        // Pause columns left out of `extra` are left out of the document.
        assert!(!with.contains("pause_p50_us"), "omitted pause columns must stay out");
        // Passed ones add exactly two cells per row, nothing else moves.
        let paused = [
            lat[0],
            lat[1],
            lat[2],
            ("pause_p50_us", &[2.0, 2.5][..]),
            ("pause_p99_us", &[40.0, 41.5][..]),
        ];
        let with_pause = results_json("fig_test", &rows, None, &paused);
        assert!(with_pause.contains("\"pause_p50_us\": 2.000, "));
        assert!(with_pause.contains("\"pause_p99_us\": 41.500, "));
        for f in ["pause_p50_us", "pause_p99_us"] {
            assert_eq!(with_pause.matches(f).count(), rows.len(), "one {f} cell per row");
        }
    }

    #[test]
    #[should_panic(expected = "one p99_us per row")]
    fn latency_columns_must_cover_every_row() {
        let rows = run_matrix(&[Job::Malloc(Workload::Cfrac, MallocKind::Lea)], 1, false);
        let lat: [(&str, &[f64]); 3] = [("p50_us", &[1.0]), ("p99_us", &[]), ("p999_us", &[2.0])];
        let _ = results_json("fig_test", &rows, None, &lat);
    }

    #[test]
    #[should_panic(expected = "omitted entirely or cover the matrix")]
    fn pause_columns_must_cover_every_row_or_be_absent() {
        let rows = run_matrix(&[Job::Malloc(Workload::Cfrac, MallocKind::Lea)], 1, false);
        let lat: [(&str, &[f64]); 5] = [
            ("p50_us", &[1.0]),
            ("p99_us", &[2.0]),
            ("p999_us", &[3.0]),
            ("pause_p50_us", &[1.0]),
            ("pause_p99_us", &[]),
        ];
        let _ = results_json("fig_test", &rows, None, &lat);
    }

    #[test]
    #[should_panic(expected = "is not an extra column")]
    fn extra_columns_must_be_in_the_schema() {
        let _ = results_json("fig_test", &fixed_rows(), None, &[("p95_us", &[1.0, 2.0])]);
    }

    #[test]
    #[should_panic(expected = "par_workers goes with the par_total_ms column")]
    fn par_workers_needs_its_column() {
        let _ = results_json("fig_test", &fixed_rows(), Some(3), &[]);
    }

    /// Two fixed rows: a safe-region row with every optional counter and
    /// a 64-bit checksum, and a malloc row with none.
    fn fixed_rows() -> Vec<Measurement> {
        let safe = Measurement {
            workload: "tile",
            allocator: "Safe",
            total: Duration::from_nanos(12_345_678),
            mem: Duration::from_nanos(1_500_400),
            mem_estimate_ns: None,
            os_pages: 7,
            stats: AllocStats {
                total_allocs: 100,
                total_bytes: 4096,
                max_live_bytes: 2048,
                ..AllocStats::default()
            },
            inner_stats: None,
            costs: Some(SafetyCosts {
                barrier_instrs: 160,
                scan_instrs: 30,
                cleanup_instrs: 9,
                barriers_elided: 2,
                ..SafetyCosts::default()
            }),
            cache: Some(MemStats {
                read_stall_cycles: 11,
                write_stall_cycles: 13,
                ..MemStats::default()
            }),
            checksum: 7_615_551_339_661_593_228,
        };
        let lea = Measurement {
            workload: "tile",
            allocator: "Lea",
            total: Duration::from_micros(900),
            mem: Duration::ZERO,
            costs: None,
            cache: None,
            checksum: 5,
            ..safe.clone()
        };
        vec![safe, lea]
    }

    #[test]
    fn writer_bytes_match_the_historical_format() {
        // Literals captured from the writer before the column table: the
        // row bytes must not move for any shape of document.
        let rows = fixed_rows();
        let tail = |doc: &str| doc[doc.find("\"rows\": [").expect("rows")..].to_string();
        let lat: [(&str, &[f64]); 3] =
            [("p50_us", &[0.9, 1.1]), ("p99_us", &[250.0, 260.5]), ("p999_us", &[400.0, 410.25])];
        let paused = [
            lat[0],
            lat[1],
            lat[2],
            ("pause_p50_us", &[2.0, 2.5][..]),
            ("pause_p99_us", &[40.0, 41.5][..]),
        ];
        assert_eq!(
            tail(&results_json("t", &rows, None, &[])),
            r#""rows": [
  {"workload": "tile", "allocator": "Safe", "total_ms": 12.346, "mem_ms": 1.500, "os_pages": 7, "total_allocs": 100, "total_bytes": 4096, "max_live_bytes": 2048, "safety_instrs": 199, "barriers_elided": 2, "read_stall_cycles": 11, "write_stall_cycles": 13, "checksum": 7615551339661593228},
  {"workload": "tile", "allocator": "Lea", "total_ms": 0.900, "mem_ms": 0.000, "os_pages": 7, "total_allocs": 100, "total_bytes": 4096, "max_live_bytes": 2048, "checksum": 5}
]
}
"#
        );
        let par = results_json("t", &rows, Some(3), &[("par_total_ms", &[12.5, 0.25])]);
        assert_eq!(
            tail(&par),
            r#""rows": [
  {"workload": "tile", "allocator": "Safe", "total_ms": 12.346, "mem_ms": 1.500, "par_total_ms": 12.500, "os_pages": 7, "total_allocs": 100, "total_bytes": 4096, "max_live_bytes": 2048, "safety_instrs": 199, "barriers_elided": 2, "read_stall_cycles": 11, "write_stall_cycles": 13, "checksum": 7615551339661593228},
  {"workload": "tile", "allocator": "Lea", "total_ms": 0.900, "mem_ms": 0.000, "par_total_ms": 0.250, "os_pages": 7, "total_allocs": 100, "total_bytes": 4096, "max_live_bytes": 2048, "checksum": 5}
]
}
"#
        );
        assert_eq!(
            tail(&results_json("t", &rows, None, &lat)),
            r#""rows": [
  {"workload": "tile", "allocator": "Safe", "total_ms": 12.346, "mem_ms": 1.500, "p50_us": 0.900, "p99_us": 250.000, "p999_us": 400.000, "os_pages": 7, "total_allocs": 100, "total_bytes": 4096, "max_live_bytes": 2048, "safety_instrs": 199, "barriers_elided": 2, "read_stall_cycles": 11, "write_stall_cycles": 13, "checksum": 7615551339661593228},
  {"workload": "tile", "allocator": "Lea", "total_ms": 0.900, "mem_ms": 0.000, "p50_us": 1.100, "p99_us": 260.500, "p999_us": 410.250, "os_pages": 7, "total_allocs": 100, "total_bytes": 4096, "max_live_bytes": 2048, "checksum": 5}
]
}
"#
        );
        assert_eq!(
            tail(&results_json("t", &rows, None, &paused)),
            r#""rows": [
  {"workload": "tile", "allocator": "Safe", "total_ms": 12.346, "mem_ms": 1.500, "p50_us": 0.900, "p99_us": 250.000, "p999_us": 400.000, "pause_p50_us": 2.000, "pause_p99_us": 40.000, "os_pages": 7, "total_allocs": 100, "total_bytes": 4096, "max_live_bytes": 2048, "safety_instrs": 199, "barriers_elided": 2, "read_stall_cycles": 11, "write_stall_cycles": 13, "checksum": 7615551339661593228},
  {"workload": "tile", "allocator": "Lea", "total_ms": 0.900, "mem_ms": 0.000, "p50_us": 1.100, "p99_us": 260.500, "p999_us": 410.250, "pause_p50_us": 2.500, "pause_p99_us": 41.500, "os_pages": 7, "total_allocs": 100, "total_bytes": 4096, "max_live_bytes": 2048, "checksum": 5}
]
}
"#
        );
        // The envelope keeps its key order, par_workers last.
        let keys = ["schema_version", "bench", "commit", "workers", "host_cores", "par_workers"];
        let at: Vec<usize> =
            keys.iter().map(|k| par.find(&format!("\n\"{k}\": ")).expect(k)).collect();
        assert!(at.windows(2).all(|w| w[0] < w[1]), "envelope order moved: {at:?}");
    }

    #[test]
    fn warm_heap_reuse_is_invisible_in_measurements() {
        // More jobs than workers forces every worker to recycle its heap
        // across cells; a traced cell in the middle checks that an
        // attached sink never leaks into the next adopter. Every
        // deterministic field must match a fresh-heap serial run, for
        // 1 worker and for several.
        let jobs = [
            Job::Region(Workload::Tile, RegionKind::Safe),
            Job::Malloc(Workload::Tile, MallocKind::Gc),
            Job::Malloc(Workload::Cfrac, MallocKind::Lea),
            Job::Region(Workload::Cfrac, RegionKind::Unsafe),
            Job::Malloc(Workload::Tile, MallocKind::Bsd),
            Job::Region(Workload::Tile, RegionKind::Emulated(MallocKind::Sun)),
        ];
        let fresh: Vec<Measurement> = jobs.iter().map(|j| j.run(1, false)).collect();
        for workers in [1, 3] {
            let warm = run_matrix_with(&jobs, 1, false, workers);
            for (f, w) in fresh.iter().zip(&warm) {
                assert_eq!(f.checksum, w.checksum, "{}/{} x{workers}", f.workload, f.allocator);
                assert_eq!(f.os_pages, w.os_pages, "{}/{} x{workers}", f.workload, f.allocator);
                assert_eq!(f.stats, w.stats, "{}/{} x{workers}", f.workload, f.allocator);
                assert_eq!(f.costs, w.costs, "{}/{} x{workers}", f.workload, f.allocator);
            }
        }
        // And a traced run recycled onto a previously-traced heap keeps
        // cache counters bit-identical to a fresh traced run.
        let traced_jobs = [
            Job::Malloc(Workload::Tile, MallocKind::Gc),
            Job::Malloc(Workload::Tile, MallocKind::Gc),
        ];
        let rows = run_matrix_with(&traced_jobs, 1, true, 1);
        let fresh = traced_jobs[0].run(1, true);
        assert_eq!(rows[0].cache, fresh.cache);
        assert_eq!(rows[1].cache, fresh.cache, "recycled heap must trace identically");
    }

    #[test]
    fn results_json_is_wellformed_and_versioned() {
        let rows = run_matrix(&[Job::Region(Workload::Cfrac, RegionKind::Safe)], 1, false);
        let json = results_json("smoke", &rows, None, &[]);
        assert!(json.starts_with("{\n") && json.ends_with("}\n"));
        assert!(json.contains(&format!("\"schema_version\": {RESULTS_SCHEMA_VERSION}")));
        assert!(json.contains("\"bench\": \"smoke\""));
        assert!(json.contains("\"commit\": \""));
        assert!(json.contains("\"workers\": "));
        assert!(json.contains("\"host_cores\": "));
        assert!(json.contains("\"rows\": [\n"));
        assert!(json.contains("\"workload\": \"cfrac\""));
        assert!(json.contains("\"safety_instrs\""));
        assert!(json.contains("\"checksum\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn region_sanitize_hook_passes_on_a_clean_run() {
        // Env vars are process-global: serialize against any parallel
        // test also measuring regions by keeping the window tiny.
        std::env::set_var("REGION_SANITIZE", "1");
        let m = measure_region(Workload::Cfrac, RegionKind::Safe, 1, false);
        std::env::remove_var("REGION_SANITIZE");
        assert!(m.os_pages > 0);
    }

    #[test]
    fn checked_matrix_returns_ok_cells_and_decodes_panics() {
        let jobs = [
            Job::Region(Workload::Cfrac, RegionKind::Unsafe),
            Job::Malloc(Workload::Cfrac, MallocKind::Lea),
        ];
        let rows = run_matrix_checked(&jobs, 1, false, 2);
        assert!(rows.iter().all(Result::is_ok));
        assert_eq!(
            rows[0].as_ref().unwrap().checksum,
            rows[1].as_ref().unwrap().checksum
        );
        // Panic payloads of both common shapes decode to their message;
        // anything else degrades to a placeholder instead of panicking
        // again inside the matrix.
        assert_eq!(panic_message(Box::new("boom")), "boom");
        assert_eq!(panic_message(Box::new(String::from("kaboom"))), "kaboom");
        assert!(panic_message(Box::new(17u32)).contains("non-string"));
    }

    #[test]
    fn slow_moss_is_measured_separately() {
        let m = Job::MossSlow(RegionKind::Unsafe).run(1, false);
        assert_eq!(m.allocator, "Slow");
        let normal = measure_region(Workload::Moss, RegionKind::Unsafe, 1, false);
        assert_eq!(m.checksum, normal.checksum, "layouts must not change the answer");
    }
}
