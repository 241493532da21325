//! The `paper-safe` and `paper-traced` workloads: passes over the six
//! paper programs (cfrac, grobner, mudlle, lcc, tile, moss) on safe
//! regions, serially, on one warm `SimHeap`.

use std::time::{Duration, Instant};

use cache_sim::{MemStats, MemorySystem};
use region_core::{AllocStats, SafetyCosts, ScanAttribution};
use simheap::SimHeap;
use workloads::{RegionEnv, RegionKind, Workload};

/// The fixed input size. SCALE grows the programs unevenly (grobner
/// allocates less at 8 than at 2, cfrac takes ~70% of a scale-8 pass),
/// so runs are lengthened by repeating passes at this scale instead.
pub const SCALE: u32 = 2;

/// The committed correctness set: one line per program with its checksum,
/// footprint, `AllocStats` and `SafetyCosts`, plus one `MemStats` line per
/// program for traced runs.
const EXPECTED: &str = include_str!("../expected/paper-scale2.txt");

/// Everything one program run reports at its public boundary.
#[derive(Debug)]
pub struct ProgramRun {
    pub name: &'static str,
    pub checksum: u64,
    pub total: Duration,
    /// `RegionEnv::mem_time`: wall time inside memory management.
    pub mem: Duration,
    pub os_pages: u64,
    pub stats: AllocStats,
    pub costs: SafetyCosts,
    pub scan: ScanAttribution,
    pub loads: u64,
    pub stores: u64,
    pub cache: Option<MemStats>,
}

impl ProgramRun {
    /// The lines this run must match in the committed correctness set.
    pub fn expected_lines(&self) -> Vec<String> {
        let mut lines = vec![format!(
            "{} checksum={} os_pages={} {:?} {:?}",
            self.name, self.checksum, self.os_pages, self.stats, self.costs
        )];
        if let Some(c) = &self.cache {
            lines.push(format!("{} {c:?}", self.name));
        }
        lines
    }

    /// Checks the run against the committed correctness set.
    pub fn check(&self) -> Result<(), String> {
        for line in self.expected_lines() {
            if !EXPECTED.lines().any(|l| l == line) {
                return Err(format!(
                    "{} differs from the committed set:\n  got {line}",
                    self.name
                ));
            }
        }
        Ok(())
    }
}

/// Runs one program the way `bench_harness::runner::measure_region_on`
/// does (safe regions, elision off, cache simulator attached when
/// `traced`), keeping the runtime in reach so its `ScanAttribution` and
/// heap counters can be read before the heap is handed back.
pub fn run_program(w: Workload, traced: bool, heap: SimHeap) -> (ProgramRun, SimHeap) {
    let mut env = RegionEnv::on_heap(RegionKind::Safe, heap);
    if traced {
        env.heap().attach_sink(Box::new(MemorySystem::default()));
    }
    let t = Instant::now();
    let checksum = w.run_region(&mut env, SCALE);
    let total = t.elapsed();
    let rt = env
        .runtime()
        .expect("safe environments run the real runtime");
    let (costs, scan) = (*rt.costs(), rt.scan_attribution());
    let (loads, stores) = (rt.heap().load_count(), rt.heap().store_count());
    let (mem, os_pages, stats) = (env.mem_time(), env.os_pages(), *env.stats());
    let mut heap = env.into_heap();
    let cache = traced
        .then(|| MemorySystem::from_sink(heap.detach_sink().expect("sink attached above")).stats());
    let run = ProgramRun {
        name: w.name(),
        checksum,
        total,
        mem,
        os_pages,
        stats,
        costs,
        scan,
        loads,
        stores,
        cache,
    };
    (run, heap)
}

/// One pass: the six programs in the paper's order.
#[derive(Debug)]
pub struct Pass {
    pub runs: Vec<ProgramRun>,
    pub wall: Duration,
}

impl Pass {
    pub fn check(&self) -> Result<(), String> {
        self.runs.iter().try_for_each(ProgramRun::check)
    }

    pub fn sum(&self, f: impl Fn(&ProgramRun) -> u64) -> u64 {
        self.runs.iter().map(f).sum()
    }
}

/// The fastest pass of a run, and each program's fastest run. Every pass
/// does identical, checked work, so the fastest is the one least slowed
/// by other load on the host: on a shared host these memory-bound serial
/// passes run 20–40% slower for minutes at a time, which moves a median
/// pass between runs far more than any change to the program would.
pub struct Fastest {
    pub pass: Option<Pass>,
    pub program_ms: Vec<f64>,
    pub passes: usize,
}

impl Fastest {
    pub fn new() -> Fastest {
        Fastest {
            pass: None,
            program_ms: vec![f64::INFINITY; Workload::ALL.len()],
            passes: 0,
        }
    }

    pub fn add(&mut self, pass: Pass) {
        self.passes += 1;
        for (best, run) in self.program_ms.iter_mut().zip(&pass.runs) {
            *best = best.min(run.total.as_secs_f64() * 1e3);
        }
        if self.pass.as_ref().is_none_or(|p| pass.wall < p.wall) {
            self.pass = Some(pass);
        }
    }

    pub fn pass(&self) -> &Pass {
        self.pass.as_ref().expect("at least one pass")
    }

    pub fn run_ms(&self) -> f64 {
        self.pass().wall.as_secs_f64() * 1e3
    }
}

/// Runs one pass on `heap` and returns the warm heap for the next.
pub fn run_pass(traced: bool, mut heap: SimHeap) -> (Pass, SimHeap) {
    let t = Instant::now();
    let mut runs = Vec::with_capacity(Workload::ALL.len());
    for w in Workload::ALL {
        let (run, h) = run_program(w, traced, heap);
        runs.push(run);
        heap = h;
    }
    (
        Pass {
            runs,
            wall: t.elapsed(),
        },
        heap,
    )
}
