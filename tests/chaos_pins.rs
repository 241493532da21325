//! The quick-scale digests of the chaos soak and of the parallel-region
//! runs, each with the floors its binary asserts.
//!
//! `chaos --quick` and `par_regions --quick` print these digests; the
//! tests run the same library code at the same seeds, scales and worker
//! counts, and read no environment variable. par-chaos and server-chaos
//! run on the process-wide supervisor pool and install a process-wide
//! panic hook, so these tests have a process of their own.

use std::sync::OnceLock;

use bench_harness::chaos::{self, Tally, SCENARIOS};
use bench_harness::par_regions::{private_vs_shard, run, run_shared};
use bench_harness::rng::{fold, FNV_OFFSET};

/// `chaos`'s default seed and its `--quick` ops per scenario.
const SEED: u64 = 0xC4A05;
const QUICK_OPS: u64 = 1500;

/// Every scenario's tally in a quick soak, in run order. The soak runs
/// once per process, twice over, and the second run must match the
/// first tally for tally, as `chaos` asserts.
fn quick_soak() -> &'static [(&'static str, Tally)] {
    static SOAK: OnceLock<Vec<(&'static str, Tally)>> = OnceLock::new();
    SOAK.get_or_init(|| {
        bench_harness::install_service_panic_filter();
        let soak = || -> Vec<_> {
            let run = |name| (name, chaos::run_scenario(name, SEED, QUICK_OPS));
            SCENARIOS.into_iter().map(run).collect()
        };
        let first = soak();
        assert!(first == soak(), "same-seed re-run diverged");
        first
    })
}

/// Asserts the digest `chaos --quick --scenario <name>` prints, which
/// is `fold(FNV_OFFSET, d)` of the scenario's digest `d`, and the floors
/// of a one-scenario quick run.
fn assert_scenario_pin(name: &str, printed: u64) {
    let (_, t) = quick_soak()
        .iter()
        .find(|(n, _)| *n == name)
        .expect("a soak scenario");
    assert_eq!(
        fold(FNV_OFFSET, t.digest),
        printed,
        "{name} drifted: scenario digest {:016x}",
        t.digest
    );
    chaos::check_floors(t, Some(name), true);
}

#[test]
fn quick_soak_keeps_its_digest() {
    let mut sum = Tally {
        digest: FNV_OFFSET,
        ..Tally::default()
    };
    for (_, t) in quick_soak() {
        sum.add(t);
    }
    let scenarios: Vec<String> = quick_soak()
        .iter()
        .map(|(n, t)| format!("{n} {:016x}", t.digest))
        .collect();
    assert_eq!(
        sum.digest, 0xe7ef_9d5e_d811_3503,
        "soak drifted: {scenarios:?}"
    );
    chaos::check_floors(&sum, None, true);
}

#[test]
fn kill_restore_keeps_its_digest() {
    assert_scenario_pin("kill-restore", 0x289d_7b7f_2873_2331);
}

#[test]
fn par_chaos_keeps_its_digest() {
    assert_scenario_pin("par-chaos", 0x3840_349d_876e_c331);
}

#[test]
fn server_chaos_keeps_its_digest() {
    assert_scenario_pin("server-chaos", 0x78a8_97dd_cbc7_eabc);
}

/// The scenario's own digest is `0x35e0_ccd2_9eaf_ba09`, recorded when
/// the fourth program family and the elision differential landed.
#[test]
fn vm_chaos_keeps_its_digest() {
    assert_scenario_pin("vm-chaos", 0x92b1_0bef_1e9b_45c4);
}

/// The pool digest folds the worker count, so each count has its own.
#[test]
fn par_regions_pool_keeps_its_digests() {
    for (workers, want) in [
        (1, 0x7722_c061_75f8_15b5),
        (2, 0xba51_dcd4_25a8_a2f5),
        (4, 0x471f_331a_38dd_bab5),
    ] {
        let got = run(workers, 1).digest;
        assert_eq!(got, want, "{workers} workers: digest {got:016x}");
    }
}

#[test]
fn par_regions_shared_world_keeps_its_digest() {
    for threads in [1, 2, 4] {
        let got = run_shared(threads, 1).digest;
        assert_eq!(
            got, 0xc1ba_0be6_4bac_be0d,
            "{threads} threads: digest {got:016x}"
        );
    }
}

#[test]
fn private_heap_and_one_worker_shard_keep_their_digest() {
    let [(_, private), (_, shard)] = private_vs_shard(1);
    assert_eq!(
        private, shard,
        "W=1 shard books must be bit-identical to the private heap"
    );
    assert_eq!(
        private.digest, 0x6f1f_b632_400e_b0a8,
        "digest {:016x}",
        private.digest
    );
}
