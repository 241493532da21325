//! The traced run (`--trace 1`): per-layer counts read from the public
//! counter structs, timers the program exposes at its own boundary and
//! the benchmark's own timers around each call, and layer probes. Probe
//! cost × count attributes the workload's pass time to layers.
//!
//! On `paper-safe`, passes alternate between the plain loop `--trace 0`
//! times and the same loop with the cache simulator attached (the Figure
//! 10 path), for the `cachesim` counts, `cachesim.trace_ms` and
//! `trace.overhead_pct`. A count a workload does not reach, or does not
//! expose at its boundary, reads 0 (`perfbench/README.md` lists which).

use std::time::Instant;

use bench_harness::Ledger;
use simheap::SimHeap;
use workloads::Workload as Program;

use crate::probe::{self, Probes, Shape};
use crate::stats::{median, quantile, sorted_us, tail_reportable, Metrics};
use crate::{ms, paper, service, Outcome};

/// Every per-layer figure; zero where the workload has none.
#[derive(Default, Debug)]
struct Values {
    mem_ms: f64,
    mutator_ms: f64,
    alloc_count: u64,
    alloc_bytes: u64,
    alloc_regions: u64,
    barrier_region: u64,
    barrier_global: u64,
    barrier_unknown: u64,
    barrier_elided: u64,
    barrier_instrs: u64,
    frames_scanned: u64,
    slots_scanned: u64,
    frames_unscanned: u64,
    scan_instrs: u64,
    refused_frames: u64,
    cleanup_objects: u64,
    cleanup_instrs: u64,
    increments: u64,
    pause_p50_us: f64,
    pause_p99_us: f64,
    pause_max_us: f64,
    loads: u64,
    stores: u64,
    reads: u64,
    writes: u64,
    l1_misses: u64,
    l2_misses: u64,
    stall_cycles: u64,
    trace_ms: f64,
    /// Pool-protocol runs and admissions, estimated from the service
    /// ledger for the attribution only (`run_service` exposes no pool or
    /// admission counters).
    est_publishes: u64,
    est_admits: u64,
    quarantined: u64,
    reaped: u64,
    degraded: u64,
    shed: u64,
    retries: u64,
    faults: u64,
    panics: u64,
    useful_ratio: f64,
    req_samples: u64,
    req_p999_us: f64,
    shed_share: f64,
    failed_share: f64,
    /// Fastest run of each program, in `Workload::ALL` order.
    program_ms: Vec<f64>,
    episode_ms: f64,
    run_ms: f64,
    overhead_pct: f64,
}

fn emit(v: &Values, p: &Probes) -> Metrics {
    let mut m = Metrics::default();
    m.add("env.mem_ms", v.mem_ms, "ms");
    m.add("env.mutator_ms", v.mutator_ms, "ms");

    m.count("runtime.alloc.count", v.alloc_count);
    m.count("runtime.alloc.bytes", v.alloc_bytes);
    m.count("runtime.alloc.regions", v.alloc_regions);
    m.add("runtime.alloc.ns_per_op", p.alloc, "ns");

    m.count("runtime.barrier.region", v.barrier_region);
    m.count("runtime.barrier.global", v.barrier_global);
    m.count("runtime.barrier.unknown", v.barrier_unknown);
    m.count("runtime.barrier.elided", v.barrier_elided);
    m.count("runtime.barrier.instrs", v.barrier_instrs);
    m.add("runtime.barrier.ns_per_op.region", p.barrier_region, "ns");
    m.add("runtime.barrier.ns_per_op.global", p.barrier_global, "ns");
    m.add("runtime.barrier.ns_per_op.unknown", p.barrier_unknown, "ns");

    m.count("runtime.stack.frames_scanned", v.frames_scanned);
    m.count("runtime.stack.slots_scanned", v.slots_scanned);
    m.count("runtime.stack.frames_unscanned", v.frames_unscanned);
    m.count("runtime.stack.instrs", v.scan_instrs);
    m.count("runtime.stack.refused_frames", v.refused_frames);

    m.count("runtime.delete.cleanup_objects", v.cleanup_objects);
    m.count("runtime.delete.cleanup_instrs", v.cleanup_instrs);
    m.count("runtime.delete.increments", v.increments);
    m.add("runtime.delete.pause_p50_us", v.pause_p50_us, "us");
    m.add("runtime.delete.pause_p99_us", v.pause_p99_us, "us");
    m.add("runtime.delete.pause_max_us", v.pause_max_us, "us");
    m.add("runtime.delete.ns_per_unit.scan", p.delete_scan, "ns");
    m.add("runtime.delete.ns_per_unit.cleanup", p.delete_cleanup, "ns");
    m.add("runtime.delete.ns_per_unit.return", p.delete_return, "ns");

    m.count("simheap.loads", v.loads);
    m.count("simheap.stores", v.stores);
    m.add("simheap.load_ns", p.load, "ns");
    m.add("simheap.fill_ns_per_kb", p.fill_per_kb, "ns/KB");
    m.add("simheap.region_of_ns", p.region_of, "ns");
    m.add("simheap.region_of_traced_ns", p.region_of_traced, "ns");

    m.count("cachesim.reads", v.reads);
    m.count("cachesim.writes", v.writes);
    m.count("cachesim.l1_misses", v.l1_misses);
    m.count("cachesim.l2_misses", v.l2_misses);
    m.count("cachesim.stall_cycles", v.stall_cycles);
    m.add("cachesim.trace_ms", v.trace_ms, "ms");
    m.add("cachesim.ingest_ns", p.ingest, "ns");

    m.count("par.quarantined", v.quarantined);
    m.count("par.reaped", v.reaped);
    m.add("par.publish_ns", p.publish, "ns");

    m.count("pressure.shed", v.shed);
    m.add("pressure.admit_ns", p.admit, "ns");

    m.count("server.retries", v.retries);
    m.count("server.faults", v.faults);
    m.count("server.panics", v.panics);
    m.count("server.degraded", v.degraded);
    m.add("server.useful_ratio", v.useful_ratio, "ratio");
    m.add("server.req_samples", v.req_samples as f64, "samples");
    m.add("server.req_p999_us", v.req_p999_us, "us");
    m.add("server.shed_share", v.shed_share, "ratio");
    m.add("server.failed_share", v.failed_share, "ratio");

    for (i, w) in Program::ALL.iter().enumerate() {
        let t = v.program_ms.get(i).copied().unwrap_or(0.0);
        m.add(&format!("program.{}_ms", w.name()), t, "ms");
    }
    m.add("service.episode_ms", v.episode_ms, "ms");

    // Attribution of one untraced pass: probe cost × the pass's operation
    // count. (The cache simulator's share of a traced pass is
    // `cachesim.trace_ms`.)
    let ns_ms = 1e-6;
    let alloc = v.alloc_count as f64 * p.alloc * ns_ms;
    let barrier = (v.barrier_region as f64 * p.barrier_region
        + v.barrier_global as f64 * p.barrier_global
        + v.barrier_unknown as f64 * p.barrier_unknown)
        * ns_ms;
    // The cleanup probe's per-object cost includes its page walk and
    // return, so pages are not charged again.
    let delete = (v.frames_scanned as f64 * p.delete_scan
        + v.cleanup_objects as f64 * p.delete_cleanup)
        * ns_ms;
    let par = v.est_publishes as f64 * p.publish * ns_ms;
    let pressure = v.est_admits as f64 * p.admit * ns_ms;
    m.add("attr.runtime.alloc_ms", alloc, "ms");
    m.add("attr.runtime.barrier_ms", barrier, "ms");
    m.add("attr.runtime.delete_ms", delete, "ms");
    m.add("attr.par_ms", par, "ms");
    m.add("attr.pressure_ms", pressure, "ms");
    m.add(
        "attr.rest_ms",
        v.run_ms - (alloc + barrier + delete + par + pressure),
        "ms",
    );

    m.add("trace.overhead_pct", v.overhead_pct, "%");
    m
}

pub fn paper(deadline: Instant, mut heap: SimHeap) -> Result<Outcome, String> {
    let (mut plain, mut traced) = (paper::Fastest::new(), paper::Fastest::new());
    loop {
        let (pass, h) = paper::run_pass(false, heap);
        pass.check()?;
        plain.add(pass);
        let (pass, h) = paper::run_pass(true, h);
        pass.check()?;
        traced.add(pass);
        heap = h;
        if Instant::now() >= deadline {
            break;
        }
    }
    // Counts are identical in every pass; timers come from the fastest
    // pass, as `run_ms` does.
    let c = plain.pass();
    let sum = |f: &dyn Fn(&paper::ProgramRun) -> u64| c.sum(f);
    let cache = |f: &dyn Fn(&cache_sim::MemStats) -> u64| {
        traced
            .pass()
            .sum(|r: &paper::ProgramRun| r.cache.as_ref().map_or(0, f))
    };
    let mem_ms: f64 = c.runs.iter().map(|r| ms(r.mem)).sum();
    let v = Values {
        mem_ms,
        mutator_ms: c.runs.iter().map(|r| ms(r.total)).sum::<f64>() - mem_ms,
        alloc_count: sum(&|r| r.stats.total_allocs),
        alloc_bytes: sum(&|r| r.stats.total_bytes),
        alloc_regions: sum(&|r| r.stats.total_regions),
        barrier_region: sum(&|r| r.costs.barriers_region),
        barrier_global: sum(&|r| r.costs.barriers_global),
        barrier_unknown: sum(&|r| r.costs.barriers_unknown),
        barrier_elided: sum(&|r| r.costs.barriers_elided),
        barrier_instrs: sum(&|r| r.costs.barrier_instrs),
        frames_scanned: sum(&|r| r.costs.frames_scanned),
        slots_scanned: sum(&|r| r.costs.slots_scanned),
        frames_unscanned: sum(&|r| r.costs.frames_unscanned),
        scan_instrs: sum(&|r| r.costs.scan_instrs),
        refused_frames: sum(&|r| r.scan.refused_frames),
        cleanup_objects: sum(&|r| r.costs.cleanup_objects),
        cleanup_instrs: sum(&|r| r.costs.cleanup_instrs),
        increments: sum(&|r| r.costs.deletes + r.costs.deletes_failed),
        loads: sum(&|r| r.loads),
        stores: sum(&|r| r.stores),
        reads: cache(&|s| s.reads),
        writes: cache(&|s| s.writes),
        l1_misses: cache(&|s| s.l1_misses),
        l2_misses: cache(&|s| s.l2_misses),
        stall_cycles: cache(&|s| s.stall_cycles()),
        trace_ms: traced.run_ms() - plain.run_ms(),
        program_ms: plain.program_ms.clone(),
        run_ms: plain.run_ms(),
        overhead_pct: (traced.run_ms() / plain.run_ms() - 1.0) * 100.0,
        ..Values::default()
    };
    let mean_alloc = (v.alloc_bytes / v.alloc_count.max(1)) as u32;
    let probes = probe::run(&Shape::paper(mean_alloc));
    let notes = vec![format!(
        "# traced run: {} plain + {} cache-simulated passes; counts are per pass, times from \
         the fastest pass",
        plain.passes, traced.passes,
    )];
    Ok(Outcome {
        notes,
        metrics: emit(&v, &probes),
        attempted: ((plain.passes + traced.passes) * Program::ALL.len()) as u64,
    })
}

pub fn service(
    seed: u64,
    threads: usize,
    deadline: Instant,
    reference: &[Vec<u8>],
) -> Result<Outcome, String> {
    let mut fastest = service::Fastest::new();
    let mut ledger = Ledger::default();
    loop {
        let pass = service::run_pass(seed, threads);
        pass.check(Some(reference))?;
        ledger.add(&pass.ledger());
        fastest.add(pass);
        if Instant::now() >= deadline {
            break;
        }
    }
    // Counts are identical in every pass; timers come from each episode's
    // fastest run, as `run_ms` does.
    let c = fastest.pass();
    let l = c.ledger();
    let lat = sorted_us(c.served_latencies());
    let pauses = sorted_us(c.pauses());
    let episodes: Vec<f64> = c.walls.iter().map(|w| ms(*w)).collect();
    // Every non-shed request makes one attempt plus its in-request
    // retries, each running the pool protocol once; a panic costs one
    // admission before the supervisor's retry replays the request
    // (counted in `retries`).
    let v = Values {
        increments: pauses.len() as u64,
        pause_p50_us: quantile(&pauses, 0.5),
        pause_p99_us: quantile(&pauses, 0.99),
        pause_max_us: *pauses.last().expect("index rotation pauses"),
        est_publishes: l.submitted - l.shed + (l.retries - l.panics),
        est_admits: l.submitted + l.panics,
        quarantined: c.reports.iter().map(|r| r.quarantined).sum(),
        reaped: c.reports.iter().map(|r| r.reaped).sum(),
        degraded: l.degraded,
        shed: l.shed,
        retries: l.retries,
        faults: l.faults,
        panics: l.panics,
        useful_ratio: l.completed as f64 / (l.submitted - l.shed + l.retries) as f64,
        req_samples: lat.len() as u64,
        req_p999_us: if tail_reportable(lat.len(), 0.999) {
            quantile(&lat, 0.999)
        } else {
            0.0
        },
        shed_share: l.shed as f64 / l.submitted as f64,
        failed_share: l.failed as f64 / l.submitted as f64,
        episode_ms: median(&episodes),
        run_ms: ms(c.wall),
        ..Values::default()
    };
    let probes = probe::run(&Shape::service());
    let notes = vec![format!(
        "# traced run: {} passes of {} episodes, as --trace 0 runs them (so trace.overhead_pct \
         is 0); counts are per pass, times from each episode's fastest run; {} latency \
         samples, {} pause samples",
        fastest.passes,
        service::EPISODES,
        lat.len(),
        pauses.len(),
    )];
    Ok(Outcome {
        notes,
        metrics: emit(&v, &probes),
        attempted: ledger.submitted,
    })
}
