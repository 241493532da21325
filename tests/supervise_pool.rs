//! `bench_harness::supervise` keeps its worker threads across calls.
//!
//! The pool is process-wide, so this file holds one test: no other test
//! in the process shares the pool and spawns or parks workers beside it.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::thread::{self, ThreadId};
use std::time::Duration;

use bench_harness::{supervise, JobOutcome, SuperviseConfig};

type Job = Box<dyn Fn(u32) -> ThreadId + Send + Sync>;

/// One call at two workers whose two jobs meet at a barrier, so each
/// runs on its own worker. Returns the two threads that ran them.
fn pair_call() -> HashSet<ThreadId> {
    let meet = Arc::new(Barrier::new(2));
    let jobs: Vec<Job> = (0..2)
        .map(|_| {
            let meet = Arc::clone(&meet);
            Box::new(move |_| {
                meet.wait();
                thread::current().id()
            }) as Job
        })
        .collect();
    let cfg = SuperviseConfig {
        workers: 2,
        deadline: Some(Duration::from_secs(60)),
        ..SuperviseConfig::default()
    };
    let ran = supervise(jobs, &cfg)
        .into_iter()
        .map(|r| r.outcome.completed().expect("a paired job completes"))
        .collect();
    // The call returned after its workers parked, and a parked worker
    // holds nothing of the call: the jobs are gone.
    assert_eq!(Arc::strong_count(&meet), 1, "a worker still held the call's jobs");
    ran
}

#[test]
fn back_to_back_calls_reuse_parked_workers() {
    // 50 calls at two workers run on the same two threads.
    let mut seen = HashSet::new();
    for _ in 0..50 {
        let ran = pair_call();
        assert_eq!(ran.len(), 2, "the paired jobs ran on one thread");
        seen.extend(ran);
    }
    assert_eq!(seen.len(), 2, "50 calls at two workers ran on {} threads", seen.len());

    // An attempt that overruns its deadline is abandoned and reported
    // timed out; its worker is not handed new work while it is stuck.
    let stuck_on = Arc::new(Mutex::new(None));
    let returned = Arc::new(AtomicBool::new(false));
    let job: Job = {
        let (stuck_on, returned) = (Arc::clone(&stuck_on), Arc::clone(&returned));
        Box::new(move |_| {
            *stuck_on.lock().unwrap() = Some(thread::current().id());
            thread::sleep(Duration::from_millis(200));
            returned.store(true, Ordering::Release);
            thread::current().id()
        })
    };
    let cfg = SuperviseConfig {
        workers: 2,
        deadline: Some(Duration::from_millis(20)),
        ..SuperviseConfig::default()
    };
    let reports = supervise(vec![job], &cfg);
    assert_eq!(reports[0].outcome, JobOutcome::TimedOut(Duration::from_millis(20)));
    let stuck = loop {
        if let Some(id) = *stuck_on.lock().unwrap() {
            break id;
        }
        thread::sleep(Duration::from_millis(1));
    };
    assert!(seen.contains(&stuck), "the stuck job ran on a new thread");

    // With one of the two threads stuck, the next call spawns exactly one.
    let ran = pair_call();
    assert!(!ran.contains(&stuck), "a stuck worker was handed new work");
    let fresh: Vec<_> = ran.difference(&seen).collect();
    assert_eq!(fresh.len(), 1, "the call after an abandoned attempt spawned {} threads", fresh.len());
    seen.extend(ran);

    // Once the late attempt returns, its worker parks and is reused: it
    // parked last, so the next call takes it first.
    while !returned.load(Ordering::Acquire) {
        thread::sleep(Duration::from_millis(10));
    }
    thread::sleep(Duration::from_millis(100));
    let ran = pair_call();
    assert!(ran.contains(&stuck), "the late attempt's worker was not reused");
    assert!(ran.is_subset(&seen), "a call spawned a thread with three parked");
}
