//! Region service under adversity — the long-lived driver for the
//! resilience layer ([`bench_harness::server`]).
//!
//! A fleet of sessions serves seeded request traffic on one shared
//! address space: every request creates a region, allocates into it
//! and deletes it. The run interleaves injected allocation faults
//! (bounded deterministic retry into a fresh region), injected worker
//! panics (each strands a half-served request region in its session's
//! runtime, which the batch's retry reclaims while the fleet keeps
//! serving), and footprint watermarks (degrade, then shed with a typed
//! `Overloaded` error — never a panic).
//!
//! The books — conserved ledger, per-session ledgers, digest,
//! footprint high-water — are schedule-independent by construction:
//! the same seed must produce byte-identical books at 1, 2 and N OS
//! threads and across reruns, and this binary asserts exactly that
//! before reporting. Wall-clock throughput and p50/p99/p999 request
//! latency are reported alongside but never folded into the books.
//!
//! Writes a schema-v3 results envelope with the tail-latency columns
//! plus the richer `BENCH_server.json` record, to `results/server.json`
//! and the repo root. Under `--quick` both go to `target/quick-results/`,
//! so a smoke run never overwrites the committed default-scale records.
//!
//! Usage: `server [--quick] [--seed <n>] [--delete-budget <n|inf>]`. Any
//! other argument prints that usage and exits 2.

use bench_harness::runner::{write_bench_record, write_results_json};
use bench_harness::server::{INDEX_ALLOCS, MAX_ATTEMPTS};
use bench_harness::{install_service_panic_filter, run_service, Measurement, ServiceConfig, ServiceReport};

/// Thread counts the books must be invariant across. The last entry is
/// also rerun to prove same-seed stability.
const THREAD_AB: [usize; 3] = [1, 2, 4];

fn measurement(label: &'static str, r: &ServiceReport) -> Measurement {
    Measurement {
        workload: "server",
        allocator: label,
        total: r.elapsed,
        mem: r.elapsed,
        mem_estimate_ns: None,
        os_pages: r.high_water_pages,
        stats: region_core::AllocStats {
            total_allocs: r.ledger.completed,
            total_regions: r.ledger.submitted,
            ..Default::default()
        },
        inner_stats: None,
        costs: None,
        cache: None,
        checksum: r.digest,
    }
}

fn print_report(threads: usize, r: &ServiceReport) {
    let l = &r.ledger;
    println!(
        "  {threads:>2} thread(s): {} req in {:>7.1} ms ({:>8.0} req/s) — \
         {} ok, {} shed, {} failed ({} retries, {} degraded, {} faults, {} panics)",
        l.submitted,
        r.elapsed.as_secs_f64() * 1e3,
        r.throughput_rps(),
        l.completed,
        l.shed,
        l.failed,
        l.retries,
        l.degraded,
        l.faults,
        l.panics,
    );
}

const USAGE: &str = "usage: server [--quick] [--seed <n>] [--delete-budget <n|inf>]";

fn need(args: &mut std::env::Args, flag: &str) -> String {
    args.next().unwrap_or_else(|| {
        eprintln!("{flag} needs a value");
        std::process::exit(2);
    })
}

fn main() {
    install_service_panic_filter();
    let mut args = std::env::args();
    args.next(); // the program name
    let mut quick = false;
    let mut seed = 42u64;
    // Recorded default: incremental deletion under a 64-unit budget.
    // `--delete-budget inf` reproduces the stop-the-world profile.
    let mut delete_budget = 64u64;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--seed" => {
                let v = need(&mut args, "--seed");
                seed = v.parse().unwrap_or_else(|_| {
                    eprintln!("bad seed: {v}");
                    std::process::exit(2);
                });
            }
            "--delete-budget" => {
                let v = need(&mut args, "--delete-budget");
                delete_budget = if v == "inf" {
                    u64::MAX
                } else {
                    v.parse().unwrap_or_else(|_| {
                        eprintln!("bad budget (want a positive integer or 'inf'): {v}");
                        std::process::exit(2);
                    })
                };
                if delete_budget == 0 {
                    eprintln!("--delete-budget must be >= 1");
                    std::process::exit(2);
                }
            }
            _ => {
                eprintln!("unknown argument: {a}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    let mut cfg = if quick { ServiceConfig::quick(seed) } else { ServiceConfig::full(seed) };
    cfg.delete_budget = delete_budget;
    if std::env::var("REGION_SANITIZE").is_ok_and(|v| v == "1") {
        cfg.sanitize_rounds = true;
    }
    let budget_str = if delete_budget == u64::MAX {
        "inf".to_string()
    } else {
        delete_budget.to_string()
    };

    println!(
        "Region service: {} sessions x {} requests over {} rounds, seed {seed}, \
         watermarks {}, fault 1/{}, panic 1/{}, delete budget {budget_str}",
        cfg.sessions,
        cfg.requests_per_session,
        cfg.rounds,
        cfg.marks,
        cfg.fault_one_in,
        cfg.panic_one_in,
    );

    // The books must not depend on the OS thread count, and a same-seed
    // rerun must land on the same bytes. Both are asserted on the full
    // encoded books (fleet ledger, per-session ledgers, digest,
    // footprint, quarantine counters) — not just the digest.
    let mut reports = Vec::new();
    for threads in THREAD_AB {
        let r = run_service(&ServiceConfig { threads, ..cfg });
        print_report(threads, &r);
        reports.push(r);
    }
    let books = reports[0].encode_books();
    for (threads, r) in THREAD_AB.iter().zip(&reports).skip(1) {
        assert_eq!(
            books,
            r.encode_books(),
            "books must not depend on the thread count (1 vs {threads})"
        );
    }
    let last = *THREAD_AB.last().expect("non-empty");
    let again = run_service(&ServiceConfig { threads: last, ..cfg });
    assert_eq!(books, again.encode_books(), "same-seed rerun must be byte-identical");

    // Budget A/B: the books must also be invariant across the deletion
    // budget — incremental mode changes when deletion work runs, never
    // what it does. The stop-the-world run doubles as the pause-time
    // baseline for the report.
    let other_budget = if cfg.delete_budget == u64::MAX { 64 } else { u64::MAX };
    let stw = run_service(&ServiceConfig {
        threads: last,
        delete_budget: other_budget,
        ..cfg
    });
    assert_eq!(
        books,
        stw.encode_books(),
        "books must not depend on the deletion budget ({budget_str} vs {other_budget})"
    );
    let (inc, mono) =
        if cfg.delete_budget == u64::MAX { (&stw, &reports[THREAD_AB.len() - 1]) } else { (&reports[THREAD_AB.len() - 1], &stw) };

    let r1 = &reports[0];
    let rn = &reports[THREAD_AB.len() - 1];
    assert!(rn.ledger.conserves(), "ledger must conserve");
    println!(
        "  ledger conserved: {} submitted == {} completed + {} shed + {} failed",
        rn.ledger.submitted, rn.ledger.completed, rn.ledger.shed, rn.ledger.failed
    );
    println!(
        "  latency p50 {:.2} us, p99 {:.2} us, p999 {:.2} us ({last} threads)",
        rn.p50_us(),
        rn.p99_us(),
        rn.p999_us()
    );
    println!(
        "  deleteregion pauses: budgeted p50 {:.2} us, p99 {:.2} us, max {:.2} us \
         over {} increments — stop-the-world p99 {:.2} us, max {:.2} us over {}",
        inc.pause_p50_us(),
        inc.pause_p99_us(),
        inc.pause_max_us(),
        inc.pause_ns.len(),
        mono.pause_p99_us(),
        mono.pause_max_us(),
        mono.pause_ns.len(),
    );
    println!(
        "  footprint high-water {} pages (final {}), {} quarantined, {} reaped, \
         {} sanitize passes",
        rn.high_water_pages, rn.final_pages, rn.quarantined, rn.reaped, rn.sanitize_runs
    );
    println!(
        "  books {:016x} identical at {:?} threads and across reruns",
        rn.digest, THREAD_AB
    );

    let rows = [measurement("svc1", r1), measurement("svcN", rn)];
    let lat: [(&str, &[f64]); 5] = [
        ("p50_us", &[r1.p50_us(), rn.p50_us()]),
        ("p99_us", &[r1.p99_us(), rn.p99_us()]),
        ("p999_us", &[r1.p999_us(), rn.p999_us()]),
        ("pause_p50_us", &[r1.pause_p50_us(), rn.pause_p50_us()]),
        ("pause_p99_us", &[r1.pause_p99_us(), rn.pause_p99_us()]),
    ];
    match write_results_json("server", &rows, None, &lat) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("\nwarning: could not write results JSON: {e}"),
    }

    let l = &rn.ledger;
    let comment = format!(
        "Region service under adversity: {} sessions serving seeded request traffic on one \
         shared address space, with injected allocation faults (bounded deterministic retry), \
         injected worker panics (quarantine + reap), footprint watermarks (degrade, then shed \
         with a typed error), and a rotating pointer-bearing index region whose deletion runs \
         through the incremental deleteregion budget. Books asserted byte-identical at \
         1/2/{last} OS threads, across same-seed reruns, and across the deletion budget \
         (bounded vs stop-the-world); ledger conserved (submitted == completed + shed + \
         failed); clean audit and sanitize every round. Latencies and pauses are wall clock \
         and excluded from the books; latency_stw_us replays the identical run with the \
         monolithic deleteregion for the pause-time A/B. The five arms run in one process: \
         the first (1 thread) on a fresh host, the other four (2 and {last} threads, the \
         same-seed rerun and the opposite-budget run) on the warm host the arm before left \
         (DESIGN 16.2). Of the {last}-thread arm and the opposite-budget arm, the one with \
         the bounded budget gives latency_us and pause_us and the other latency_stw_us and \
         pause_stw_us; both are warm.",
        cfg.sessions,
    );
    let body = format!(
        "\"config\": {{ \"seed\": {seed}, \"quick\": {quick}, \"sessions\": {}, \
         \"requests_per_session\": {}, \"rounds\": {}, \"soft_pages\": {}, \
         \"hard_pages\": {}, \"max_attempts\": {}, \"fault_one_in\": {}, \
         \"panic_one_in\": {}, \"delete_budget\": \"{budget_str}\", \
         \"index_allocs\": {}, \"index_rotate\": {} }},\n  \
         \"ledger\": {{ \"submitted\": {}, \"completed\": {}, \"shed\": {}, \
         \"failed\": {}, \"retries\": {}, \"degraded\": {}, \"faults\": {}, \
         \"panics\": {} }},\n  \
         \"latency_us\": {{ \"p50\": {:.3}, \"p99\": {:.3}, \"p999\": {:.3} }},\n  \
         \"latency_stw_us\": {{ \"p50\": {:.3}, \"p99\": {:.3}, \"p999\": {:.3} }},\n  \
         \"pause_us\": {{ \"p50\": {:.3}, \"p99\": {:.3}, \"max\": {:.3}, \
         \"increments\": {} }},\n  \
         \"pause_stw_us\": {{ \"p50\": {:.3}, \"p99\": {:.3}, \"max\": {:.3}, \
         \"increments\": {} }},\n  \
         \"throughput_rps\": {:.0},\n  \
         \"footprint\": {{ \"high_water_pages\": {}, \"final_pages\": {} }},\n  \
         \"isolation\": {{ \"quarantined\": {}, \"reaped\": {}, \"sanitize_runs\": {} }},\n  \
         \"books\": \"{:016x}\",\n  \"threads_ab\": [1, 2, {last}]",
        cfg.sessions,
        cfg.requests_per_session,
        cfg.rounds,
        cfg.marks.soft_pages,
        cfg.marks.hard_pages,
        MAX_ATTEMPTS,
        cfg.fault_one_in,
        cfg.panic_one_in,
        INDEX_ALLOCS,
        cfg.index_rotate,
        l.submitted,
        l.completed,
        l.shed,
        l.failed,
        l.retries,
        l.degraded,
        l.faults,
        l.panics,
        inc.p50_us(),
        inc.p99_us(),
        inc.p999_us(),
        mono.p50_us(),
        mono.p99_us(),
        mono.p999_us(),
        inc.pause_p50_us(),
        inc.pause_p99_us(),
        inc.pause_max_us(),
        inc.pause_ns.len(),
        mono.pause_p50_us(),
        mono.pause_p99_us(),
        mono.pause_max_us(),
        mono.pause_ns.len(),
        rn.throughput_rps(),
        rn.high_water_pages,
        rn.final_pages,
        rn.quarantined,
        rn.reaped,
        rn.sanitize_runs,
        rn.digest,
    );
    write_bench_record("server", &comment, &body);
}
