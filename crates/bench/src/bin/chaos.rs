//! Chaos soak: randomized region workloads under injected faults.
//!
//! Runs every scenario of [`bench_harness::chaos`] (or one, with
//! `--scenario`) twice, prints each scenario's tally, asserts the second
//! run bit-identical to the first and the soak's floors
//! ([`chaos::check_floors`]), and prints the whole soak's digest.
//!
//! Flags: `--quick` (short CI soak), `--seed <n>`, `--ops <n>` (ops per
//! scenario), `--scenario <name>` (run one scenario only),
//! `--list-scenarios` (print the scenario names, one per line, and
//! exit). Exit code 0 means every invariant held.

use bench_harness::chaos::{self, Tally, SCENARIOS};
use bench_harness::rng::FNV_OFFSET;

/// Runs (and prints) every selected scenario; returns their sum, whose
/// digest folds each scenario's in run order.
fn run_all(seed: u64, ops: u64, only: Option<&str>) -> Tally {
    let mut sum = Tally { digest: FNV_OFFSET, ..Tally::default() };
    for name in SCENARIOS.into_iter().filter(|&n| only.is_none_or(|o| o == n)) {
        let t = chaos::run_scenario(name, seed, ops);
        println!(
            "  {name:<13} ops {:>6}  faults {:>4} (alloc {} page {} sbrk {} oom {})  \
             blocked deletes {}  double deletes {}  worker panics {}  \
             quarantined {}  reaped {}  restores {}  corrupt rejected {}  \
             sanitize runs {}  digest {:016x}",
            t.ops,
            t.faults(),
            t.alloc_faults,
            t.page_faults,
            t.sbrk_faults,
            t.oom,
            t.blocked_deletes,
            t.double_deletes,
            t.worker_panics,
            t.quarantined,
            t.reaped,
            t.restores,
            t.corrupt_rejected,
            t.sanitize_runs,
            t.digest
        );
        sum.add(&t);
    }
    sum
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse::<u64>().ok())
    };
    let seed = flag("--seed").unwrap_or(0xC4A05);
    let ops = flag("--ops").unwrap_or(if quick { 1500 } else { 6000 });
    if args.iter().any(|a| a == "--list-scenarios") {
        for name in SCENARIOS {
            println!("{name}");
        }
        return;
    }
    let only = args
        .iter()
        .position(|a| a == "--scenario")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str);
    if let Some(o) = only {
        if !SCENARIOS.contains(&o) {
            eprintln!("chaos: unknown scenario {o:?}; known: {SCENARIOS:?}");
            std::process::exit(2);
        }
    }
    bench_harness::install_service_panic_filter();

    match only {
        Some(o) => println!(
            "chaos soak: seed {seed}, {ops} ops, scenario {o} (×2 for the determinism re-run)"
        ),
        None => println!("chaos soak: seed {seed}, {ops} ops/scenario (×2 for the determinism re-run)"),
    }
    println!("run 1:");
    let a = run_all(seed, ops, only);
    println!("run 2:");
    let b = run_all(seed, ops, only);

    assert_eq!(a, b, "same-seed re-run diverged");
    chaos::check_floors(&a, only, quick);

    println!(
        "OK: {} ops, {} faults (alloc {} page {} sbrk {} oom {}), {} blocked deletes, \
         {} worker panics contained, {} quarantined / {} reaped, \
         {} kill-restores replayed, {} corrupt snapshots rejected, \
         {} sanitize audits, digest {:016x} (bit-identical re-run)",
        a.ops,
        a.faults(),
        a.alloc_faults,
        a.page_faults,
        a.sbrk_faults,
        a.oom,
        a.blocked_deletes,
        a.worker_panics,
        a.quarantined,
        a.reaped,
        a.restores,
        a.corrupt_rejected,
        a.sanitize_runs,
        a.digest
    );
}
