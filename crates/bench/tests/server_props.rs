//! Property suite for the region service's resilience books: the
//! retry/shed/quarantine decisions must be a pure function of
//! `(seed, watermarks)` — never of the OS schedule — and a crashed
//! session must be invisible in its neighbours' ledgers.

use bench_harness::{install_service_panic_filter, run_service, ServiceConfig};
use region_core::Watermarks;

/// A small-but-adversarial config: every round injects allocation
/// faults, worker panics, and watermark pressure.
fn tiny(seed: u64) -> ServiceConfig {
    let mut cfg = ServiceConfig::quick(seed);
    cfg.sessions = 3;
    cfg.requests_per_session = 30;
    cfg.rounds = 3;
    cfg.threads = 2;
    cfg.marks = Watermarks::new(10, 16);
    cfg.fault_one_in = 7;
    cfg.panic_one_in = 11;
    cfg
}

/// The complete encoded books — fleet ledger, per-session ledgers,
/// digest, footprint high-water, quarantine counters — are a pure
/// function of the seed and the watermarks: same inputs, same bytes,
/// run after run.
#[test]
fn books_are_a_pure_function_of_seed_and_watermarks() {
    install_service_panic_filter();
    let cfg = tiny(0xD15EA5E);
    let a = run_service(&cfg);
    let b = run_service(&cfg);
    assert_eq!(a.encode_books(), b.encode_books(), "same-seed books diverged");
    assert_eq!(a.per_session, b.per_session, "per-session ledgers diverged");
    // And the inputs genuinely matter: a different seed or different
    // watermarks moves the books.
    let c = run_service(&tiny(0xD15EA5F));
    assert_ne!(a.encode_books(), c.encode_books(), "seed is not reaching the books");
    let mut wider = cfg;
    wider.marks = Watermarks::unbounded();
    let d = run_service(&wider);
    assert_ne!(
        a.ledger.shed, d.ledger.shed,
        "watermarks are not reaching the shed decisions"
    );
}

/// The OS thread count schedules the work but must never reach the
/// books: 1, 2 and 3 threads land on identical bytes.
#[test]
fn thread_count_is_invisible_in_the_books() {
    install_service_panic_filter();
    let cfg = tiny(0xBEEF);
    let books: Vec<_> = [1usize, 2, 3]
        .into_iter()
        .map(|threads| run_service(&ServiceConfig { threads, ..cfg }).encode_books())
        .collect();
    assert_eq!(books[0], books[1], "books moved between 1 and 2 threads");
    assert_eq!(books[0], books[2], "books moved between 1 and 3 threads");
}

/// Session isolation: with admission decoupled (unbounded watermarks,
/// so no session sees another through the footprint), a session's
/// ledger depends only on `(seed, session)` — adding more sessions to
/// the fleet, including sessions that panic and strand request regions
/// for their retries to reclaim, must not perturb the ledgers of the
/// sessions that were already there.
#[test]
fn quarantined_sessions_do_not_perturb_their_neighbours() {
    install_service_panic_filter();
    let mut cfg = tiny(0xA110C);
    cfg.marks = Watermarks::unbounded();
    cfg.requests_per_session = 44; // enough traffic for panics to land
    let small = run_service(&ServiceConfig { sessions: 2, ..cfg });
    let large = run_service(&ServiceConfig { sessions: 6, ..cfg });
    assert!(large.ledger.panics > 0, "the large fleet must crash somewhere");
    assert_eq!(large.quarantined, large.ledger.panics, "every crash strands one region");
    assert_eq!(large.quarantined, large.reaped, "every stranded region reclaimed");
    for s in 0..2 {
        assert_eq!(
            small.per_session[s], large.per_session[s],
            "session {s}'s ledger changed when four strangers joined the fleet"
        );
    }
}

/// Backpressure sanity: unbounded watermarks never degrade or shed a
/// request, and (for a single session, whose footprint trajectory is
/// self-contained) tightening only the hard watermark sheds
/// monotonically more.
#[test]
fn shedding_is_monotone_in_the_hard_watermark() {
    install_service_panic_filter();
    let mut cfg = tiny(0x5EED);
    cfg.sessions = 1;
    cfg.requests_per_session = 200;
    cfg.marks = Watermarks::unbounded();
    let open = run_service(&cfg);
    assert_eq!(open.ledger.shed, 0, "unbounded watermarks must never shed");
    assert_eq!(open.ledger.degraded, 0, "unbounded watermarks must never degrade");

    // Same soft mark, so the footprint trajectories agree until the
    // tighter hard mark is crossed; pages are never returned to the OS,
    // so everything after the crossing sheds in both runs. The marks
    // come from the probed unbounded high-water so the test holds at
    // any base-footprint scale.
    let hw = open.high_water_pages;
    let soft = hw / 2;
    cfg.marks = Watermarks::new(soft, 2 * hw / 3 + 2);
    let loose = run_service(&cfg);
    cfg.marks = Watermarks::new(soft, 2 * hw / 3);
    let tight = run_service(&cfg);
    assert!(loose.ledger.shed > 0, "the loose hard mark never engaged");
    assert!(
        tight.ledger.shed >= loose.ledger.shed,
        "tightening the hard watermark shed fewer requests ({} < {})",
        tight.ledger.shed,
        loose.ledger.shed
    );
    // Every arm's ledger still conserves.
    for r in [&open, &loose, &tight] {
        assert!(r.ledger.conserves(), "ledger must conserve under every watermark");
    }
}
