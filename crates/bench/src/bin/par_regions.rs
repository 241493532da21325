//! Parallel-region stress bench — the paper's §1 sketch under real
//! threads ([`bench_harness::par_regions`]).
//!
//! The pool protocol is timed at one worker and at `BENCH_WORKERS`
//! (default: the machine) workers, the shared-space shards at 1, 2 and
//! `BENCH_PAR_WORKERS` threads, and the run writes a schema-v3 results
//! envelope (which records the worker count alongside the rows) to
//! `results/par_regions.json`. `--shard-ab` runs the private-vs-shard
//! A/B instead and records `BENCH_shard.json`.

use bench_harness::par_regions::{
    private_vs_shard, run, run_shared, RunResult, ScriptBooks, LOGICAL_SHARDS, SHARD_ROUNDS,
};
use bench_harness::runner::{
    bench_workers, par_bench_workers, scale_from_env, write_bench_record, write_results_json,
    Measurement,
};

fn measurement(label: &'static str, m: &RunResult) -> Measurement {
    Measurement {
        workload: "par_regions",
        allocator: label,
        total: m.elapsed,
        mem: m.elapsed,
        mem_estimate_ns: None,
        os_pages: 0,
        stats: region_core::AllocStats {
            total_allocs: m.ops,
            total_regions: m.regions,
            ..Default::default()
        },
        inner_stats: None,
        costs: None,
        cache: None,
        checksum: m.digest,
    }
}

/// Interleaved A/B for the sharded space, recorded as `BENCH_shard.json`
/// (under `target/quick-results/` with `--quick`, so a smoke run does
/// not overwrite the committed default-scale record). Two comparisons:
///
/// 1. **private vs W=1 shard** — the same deterministic script on a
///    private `SimHeap` and on the single shard of a one-worker shared
///    space must produce bit-identical books (digest, counters, brk).
/// 2. **shared world, 1 vs N threads** — the four-shard space driven by
///    one OS thread vs `par_bench_workers()` threads must produce the
///    same digest; only wall clock may move.
///
/// Arms alternate within each rep (A/B/A/B…) so thermal drift cancels;
/// wall times are the min over reps; every counter is asserted
/// deterministic across arms *and* reps.
fn shard_ab(scale: u32) {
    const REPS: usize = 3;
    let threads = par_bench_workers();
    println!("Shard A/B: private vs shared-space books, scale {scale}, min of {REPS}");

    let (mut priv_ms, mut shard_ms) = (f64::INFINITY, f64::INFINITY);
    let mut pair = None;
    for _ in 0..REPS {
        let [(wa, a), (wb, b)] = private_vs_shard(scale);
        assert_eq!(a, b, "W=1 shard books must be bit-identical to the private heap");
        assert_eq!(*pair.get_or_insert(a), a, "counter drift across reps");
        priv_ms = priv_ms.min(wa);
        shard_ms = shard_ms.min(wb);
    }
    let ScriptBooks { digest, regions, loads, stores, brk } = pair.expect("REPS > 0");
    println!(
        "  private vs W=1 shard: digest {digest:016x}, {regions} regions, \
         {loads} loads / {stores} stores — bit-identical; \
         min {priv_ms:.1} ms vs {shard_ms:.1} ms"
    );

    let (mut one_ms, mut n_ms) = (f64::INFINITY, f64::INFINITY);
    let mut shared_digest: Option<u64> = None;
    for _ in 0..REPS {
        let r1 = run_shared(1, scale);
        let rn = run_shared(threads, scale);
        assert_eq!(r1.digest, rn.digest, "shared digest must not depend on the thread count");
        if let Some(d) = shared_digest {
            assert_eq!(d, r1.digest, "shared digest drift across reps");
        }
        shared_digest = Some(r1.digest);
        one_ms = one_ms.min(r1.elapsed.as_secs_f64() * 1e3);
        n_ms = n_ms.min(rn.elapsed.as_secs_f64() * 1e3);
    }
    let shared_digest = shared_digest.expect("REPS > 0");
    println!(
        "  shared {LOGICAL_SHARDS}-shard world: digest {shared_digest:016x} at 1 and {threads} \
         threads; min {one_ms:.1} ms vs {n_ms:.1} ms"
    );

    let comment = format!(
        "Sharded-space A/B: one deterministic region script on a private SimHeap vs the \
         single shard of a one-worker shared space (books bit-identical, asserted), and the \
         {LOGICAL_SHARDS}-shard shared world driven by 1 vs {threads} OS threads (digest \
         schedule-independent, asserted). Interleaved, min of {REPS}; counters deterministic \
         across arms and reps."
    );
    let body = format!(
        "\"scale\": {scale},\n  \"reps\": {REPS},\n  \
         \"private_vs_shard\": {{ \"digest\": \"{digest:016x}\", \"regions\": {regions}, \
         \"loads\": {loads}, \"stores\": {stores}, \"brk\": {brk}, \
         \"min_total_ms_private\": {priv_ms:.1}, \"min_total_ms_shard\": {shard_ms:.1} }},\n  \
         \"shared_world\": {{ \"digest\": \"{shared_digest:016x}\", \"logical_shards\": \
         {LOGICAL_SHARDS}, \"threads_ab\": [1, {threads}], \"min_total_ms_1_thread\": \
         {one_ms:.1}, \"min_total_ms_n_threads\": {n_ms:.1} }}"
    );
    write_bench_record("shard", &comment, &body);
}

fn main() {
    let scale = scale_from_env();
    let workers = bench_workers();
    if std::env::args().any(|a| a == "--shard-ab") {
        shard_ab(scale);
        return;
    }

    println!("Parallel regions: exchange-published references, scale {scale}");
    let serial = run(1, scale);
    let par = run(workers, scale);
    let par_again = run(workers, scale);
    assert_eq!(
        par.digest, par_again.digest,
        "schedule-independent digest must not vary between runs"
    );
    for (label, r) in [("1 worker", &serial), ("N workers", &par)] {
        let mops = r.ops as f64 / r.elapsed.as_secs_f64() / 1e6;
        println!(
            "  {label:<10} ({} threads): {} exchanges over {} regions in {:>7.1} ms ({mops:.1} M ops/s)",
            if std::ptr::eq(r, &serial) { 1 } else { workers },
            r.ops,
            r.regions,
            r.elapsed.as_secs_f64() * 1e3,
        );
    }
    println!(
        "  digest {:016x}; every region deleted with a zero count sum, audit clean",
        par.digest
    );

    // Shared-space mode: the same four logical shards of ONE address
    // space, executed by 1, 2 and N OS threads in barrier-separated
    // rounds. Per-shard op streams depend only on their own seed, so
    // all four same-seed runs must land on one digest.
    let par_threads = par_bench_workers();
    println!();
    println!(
        "Shared-space shards: {LOGICAL_SHARDS} logical shards over one address space, \
         {SHARD_ROUNDS} barrier rounds"
    );
    let shard1 = run_shared(1, scale);
    let shard2 = run_shared(2, scale);
    let shardn = run_shared(par_threads, scale);
    let shardn_again = run_shared(par_threads, scale);
    for (threads, r) in [(1, &shard1), (2, &shard2), (par_threads, &shardn)] {
        println!(
            "  {threads:>2} thread(s): {} region ops over {} regions in {:>7.1} ms",
            r.ops,
            r.regions,
            r.elapsed.as_secs_f64() * 1e3,
        );
    }
    assert_eq!(shard1.digest, shard2.digest, "digest must not depend on the thread count");
    assert_eq!(shard1.digest, shardn.digest, "digest must not depend on the thread count");
    assert_eq!(shardn.digest, shardn_again.digest, "same-seed reruns must agree");
    println!(
        "  digest {:016x} identical at 1, 2 and {par_threads} threads (and across reruns); \
         mirror audit clean",
        shard1.digest
    );

    let rows = [
        measurement("par1", &serial),
        measurement("parN", &par),
        measurement("shard1", &shard1),
        measurement("shardN", &shardn),
    ];
    match write_results_json("par_regions", &rows, None, &[]) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("\nwarning: could not write results JSON: {e}"),
    }
}
