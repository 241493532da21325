//! Supervised job execution: `catch_unwind` containment, per-job
//! deadlines, and bounded retry.
//!
//! [`supervise`] generalizes what `run_matrix_checked` did for benchmark
//! cells to arbitrary jobs: every job runs under
//! [`std::panic::catch_unwind`], optionally under a per-attempt deadline,
//! and a panicked attempt is retried at once, a bounded number of times.
//! The caller gets a structured [`WorkerReport`] per job —
//! completed, panicked (with the decoded message), or timed out — in
//! job order, regardless of completion order.
//!
//! Worker threads run the attempts inline and report when each starts
//! and ends; the calling thread is the watchdog. It sleeps until the
//! deadline of the oldest attempt still running, and only an attempt
//! that overruns costs a thread: its worker is abandoned and one
//! replacement handed the rest of the queue.
//!
//! Workers outlive the call. One that finds its call's queue empty drops
//! what it held of the call and parks in a process-wide idle list; the
//! next call hands its jobs to parked workers and spawns a thread only
//! when too few are parked. A call returns once each of its workers that
//! was not abandoned has parked, so back-to-back calls never spawn, and
//! no thread starts or exits beside a later call's jobs. An abandoned
//! worker parks only after its late attempt returns.
//!
//! Its callers run jobs that may crash: the region service (one job
//! per session batch; the retry reclaims the region a crash stranded),
//! `chaos --scenario par-chaos` (the retry re-registers against a
//! `ParRegionPool` carrying orphaned counts), and the generated programs
//! of `vm-chaos` and `cq_bench`. Only panics are retried: a timed-out
//! attempt may still be running and holding what the job needs (the
//! service's session lock), so a deadline miss is terminal.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// How [`supervise`] runs a batch of jobs.
#[derive(Clone, Debug)]
pub struct SuperviseConfig {
    /// Concurrent worker threads draining the job queue (min 1).
    pub workers: usize,
    /// Deadline per *attempt*, enforced by the calling thread as
    /// watchdog. `None` never times out; with `Some(d)` an attempt still
    /// running after `d` is abandoned together with its worker thread (a
    /// stuck attempt holds its thread rather than wedging supervision)
    /// and a replacement worker takes over.
    pub deadline: Option<Duration>,
    /// Maximum attempts per job (min 1). A job that panics on its last
    /// attempt is reported [`JobOutcome::Panicked`].
    pub max_attempts: u32,
}

impl Default for SuperviseConfig {
    fn default() -> SuperviseConfig {
        SuperviseConfig { workers: 1, deadline: None, max_attempts: 1 }
    }
}

/// Terminal outcome of one supervised job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobOutcome<T> {
    /// The job returned normally; the value is its result.
    Completed(T),
    /// The final attempt panicked; the payload is the decoded panic
    /// message.
    Panicked(String),
    /// The final attempt exceeded the deadline and was abandoned.
    TimedOut(Duration),
}

impl<T> JobOutcome<T> {
    /// `true` for [`JobOutcome::Completed`].
    pub fn is_completed(&self) -> bool {
        matches!(self, JobOutcome::Completed(_))
    }

    /// The completed value, if any.
    pub fn completed(self) -> Option<T> {
        match self {
            JobOutcome::Completed(v) => Some(v),
            _ => None,
        }
    }
}

/// What happened to one job under [`supervise`].
#[derive(Clone, Debug)]
pub struct WorkerReport<T> {
    /// Index of the job in the submitted batch.
    pub job: usize,
    /// Attempts consumed (1 = first try succeeded or was terminal).
    pub attempts: u32,
    /// Terminal outcome of the last attempt.
    pub outcome: JobOutcome<T>,
}

/// Decodes a `catch_unwind` payload into the panic message. The two
/// shapes `panic!` produces (`&str`, `String`) decode exactly; anything
/// else degrades to a placeholder instead of panicking again inside the
/// supervisor.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panicked with a non-string payload".to_string()
    }
}

/// What a worker tells the watchdog (the calling thread).
enum Event<T> {
    /// Attempt `attempt` of `job` began at `at`. Whichever of the worker
    /// (on return) and the watchdog (on overrun) first sets `claim`
    /// decides the attempt; the loser stands down.
    Start { job: usize, attempt: u32, at: Instant, claim: Arc<AtomicBool> },
    /// The attempt the last `Start` of `job` announced returned; `report`
    /// is the job's terminal report, or `None` when it is retried.
    End { job: usize, report: Option<WorkerReport<T>> },
}

/// One call's share of work for a pooled worker.
struct Handoff {
    /// Drains the call's queue; `false` if the watchdog abandoned an
    /// attempt. Returning drops what the worker held of the call.
    work: Box<dyn FnOnce() -> bool + Send>,
    /// Told once the worker has parked again, unless it was abandoned.
    parked: Sender<()>,
}

/// Parked workers, process-wide: each entry is the channel the worker
/// waits on for its next [`Handoff`].
static IDLE: Mutex<Vec<Sender<Handoff>>> = Mutex::new(Vec::new());

/// Hands `handoff` to a parked worker, spawning one only when none is
/// parked. Detached, not scoped: a scope would join — and hang on — a
/// worker stuck in a job.
fn hand(handoff: Handoff) {
    let parked = IDLE.lock().unwrap_or_else(PoisonError::into_inner).pop();
    match parked {
        // A worker is listed only while it waits in `pool_worker`.
        Some(worker) => worker.send(handoff).expect("a parked worker is alive"),
        None => {
            let (tx, rx) = mpsc::channel();
            tx.send(handoff).expect("receiver is alive");
            std::thread::spawn(move || pool_worker(tx, rx));
        }
    }
}

/// A pooled worker's life: run each handoff, then park. It holds its own
/// sender (to list itself as idle), so `recv` never fails and the thread
/// lives as long as the process.
fn pool_worker(me: Sender<Handoff>, rx: Receiver<Handoff>) {
    while let Ok(Handoff { work, parked }) = rx.recv() {
        let finished = work();
        IDLE.lock().unwrap_or_else(PoisonError::into_inner).push(me.clone());
        if finished {
            let _ = parked.send(());
        }
    }
}

/// The jobs of one [`supervise`] call, shared by its worker threads.
struct Crew<F> {
    jobs: Vec<F>,
    /// Index of the next unstarted job.
    next: AtomicUsize,
    cfg: SuperviseConfig,
}

impl<F> Crew<F> {
    /// Hands a worker the queue: a parked one, or a new thread.
    fn hand<T>(self: &Arc<Self>, tx: &Sender<Event<T>>, parked: &Sender<()>)
    where
        F: Fn(u32) -> T + Send + Sync + 'static,
        T: Send + 'static,
    {
        let (crew, tx) = (Arc::clone(self), tx.clone());
        hand(Handoff { work: Box::new(move || crew.work(&tx)), parked: parked.clone() });
    }

    /// The worker loop. Returns `true` when the queue is empty, `false`
    /// when the watchdog abandoned this worker's attempt.
    fn work<T>(&self, tx: &Sender<Event<T>>) -> bool
    where
        F: Fn(u32) -> T,
    {
        loop {
            let job = self.next.fetch_add(1, Ordering::Relaxed);
            if job >= self.jobs.len() {
                return true;
            }
            if !self.run_job(job, tx) {
                return false;
            }
        }
    }

    /// Runs the attempts of `job` inline under `catch_unwind`, retrying
    /// panics at once until one is terminal. `false` if the
    /// watchdog abandoned an attempt.
    fn run_job<T>(&self, job: usize, tx: &Sender<Event<T>>) -> bool
    where
        F: Fn(u32) -> T,
    {
        let max_attempts = self.cfg.max_attempts.max(1);
        let mut attempt = 0;
        loop {
            let claim = Arc::new(AtomicBool::new(false));
            // Sends fail only once `supervise` has returned (after this
            // worker was abandoned); the result is then unwanted.
            let at = Instant::now();
            let _ = tx.send(Event::Start { job, attempt, at, claim: Arc::clone(&claim) });
            let outcome = match catch_unwind(AssertUnwindSafe(|| (self.jobs[job])(attempt))) {
                Ok(v) => JobOutcome::Completed(v),
                Err(p) => JobOutcome::Panicked(panic_message(p)),
            };
            if claim.swap(true, Ordering::AcqRel) {
                return false; // timed out: the watchdog has moved on
            }
            attempt += 1;
            let last = outcome.is_completed() || attempt >= max_attempts;
            let report = last.then(|| WorkerReport { job, attempts: attempt, outcome });
            let _ = tx.send(Event::End { job, report });
            if last {
                return true;
            }
        }
    }
}

/// Runs every job under supervision and returns one [`WorkerReport`]
/// per job, **in job order**.
///
/// Each job is a closure receiving its attempt index (0 on the first
/// try), so a job can behave differently on retry — the chaos harness
/// injects "panic on attempt 0 only" faults this way. `workers` pooled
/// threads pull jobs from a shared cursor and run every attempt inline;
/// a panicked or abandoned job costs that job, never the batch.
///
/// The calling thread is the watchdog: it collects the workers' reports
/// and, under a deadline, waits no longer than the deadline of the
/// oldest attempt still running. An attempt that overruns is abandoned
/// together with its worker (the thread stays in the job rather than
/// wedging supervision); the job is reported [`JobOutcome::TimedOut`]
/// and one replacement worker is handed the rest of the queue.
///
/// Workers come from a process-wide idle list, and a thread is spawned
/// only when too few are parked. The call returns once every worker it
/// did not abandon has parked again, so back-to-back calls reuse the
/// same threads: the pool grows only to the most workers asked for at
/// once plus the abandoned attempts, and an abandoned worker rejoins it
/// when its attempt returns. With one worker and no deadline the jobs
/// run on the calling thread.
pub fn supervise<T, F>(jobs: Vec<F>, cfg: &SuperviseConfig) -> Vec<WorkerReport<T>>
where
    F: Fn(u32) -> T + Send + Sync + 'static,
    T: Send + 'static,
{
    let n = jobs.len();
    let workers = cfg.workers.max(1).min(n.max(1));
    let crew = Arc::new(Crew { jobs, next: AtomicUsize::new(0), cfg: cfg.clone() });
    let (tx, rx) = mpsc::channel();
    let (parked_tx, parked_rx) = mpsc::channel();
    // Workers that will park when the queue runs dry: an abandoned one
    // is replaced, so their number stays `workers`.
    let pooled = if workers <= 1 && cfg.deadline.is_none() {
        // Inline: no worker threads on a serial machine.
        crew.work(&tx);
        0
    } else {
        for _ in 0..workers {
            crew.hand(&tx, &parked_tx);
        }
        workers
    };
    let mut reports: Vec<Option<WorkerReport<T>>> = (0..n).map(|_| None).collect();
    // Per job: the attempt running now, when it began, and its claim.
    let mut running: Vec<Option<(u32, Instant, Arc<AtomicBool>)>> = (0..n).map(|_| None).collect();
    let mut left = n;
    while left > 0 {
        let oldest = cfg.deadline.and_then(|d| {
            (0..n)
                .filter_map(|j| running[j].as_ref().map(|&(_, at, _)| (j, at + d)))
                .min_by_key(|&(_, due)| due)
        });
        // The watchdog holds a sender itself, so the channel never
        // disconnects: an error is always a timeout.
        let event = match oldest {
            None => rx.recv().ok(),
            Some((_, due)) => rx.recv_timeout(due.saturating_duration_since(Instant::now())).ok(),
        };
        match event {
            Some(Event::Start { job, attempt, at, claim }) => {
                running[job] = Some((attempt, at, claim));
            }
            Some(Event::End { job, report }) => {
                running[job] = None;
                if let Some(r) = report {
                    reports[job] = Some(r);
                    left -= 1;
                }
            }
            None => {
                let (job, _) = oldest.expect("recv without a deadline cannot time out");
                let (attempt, _, claim) = running[job].take().expect("oldest attempt is running");
                if claim.swap(true, Ordering::AcqRel) {
                    continue; // returned just in time: its End is on the way
                }
                let outcome = JobOutcome::TimedOut(cfg.deadline.expect("only a deadline times out"));
                reports[job] = Some(WorkerReport { job, attempts: attempt + 1, outcome });
                left -= 1;
                crew.hand(&tx, &parked_tx);
            }
        }
    }
    // Wait for the workers to park, so the next call finds them idle.
    drop(parked_tx);
    for _ in 0..pooled {
        parked_rx.recv().expect("a worker died before parking");
    }
    reports.into_iter().map(|r| r.expect("every job reported")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn boxed(fns: Vec<Box<dyn Fn(u32) -> u32 + Send + Sync>>) -> Vec<Box<dyn Fn(u32) -> u32 + Send + Sync>> {
        fns
    }

    #[test]
    fn completed_jobs_report_in_order() {
        let jobs = boxed(vec![
            Box::new(|_| 10),
            Box::new(|_| 20),
            Box::new(|_| 30),
        ]);
        let cfg = SuperviseConfig { workers: 3, ..SuperviseConfig::default() };
        let reports = supervise(jobs, &cfg);
        assert_eq!(reports.len(), 3);
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.job, i);
            assert_eq!(r.attempts, 1);
            assert_eq!(r.outcome, JobOutcome::Completed(10 * (i as u32 + 1)));
        }
    }

    #[test]
    fn panic_is_contained_and_reported() {
        let jobs = boxed(vec![
            Box::new(|_| 1),
            Box::new(|_| panic!("job two dies")),
            Box::new(|_| 3),
        ]);
        let reports = supervise(jobs, &SuperviseConfig::default());
        assert!(reports[0].outcome.is_completed());
        assert_eq!(reports[1].outcome, JobOutcome::Panicked("job two dies".to_string()));
        assert!(reports[2].outcome.is_completed(), "a panicked job must not cost the batch");
    }

    #[test]
    fn bounded_retry_reruns_panicked_jobs() {
        // Fails on attempt 0, succeeds on attempt 1: the retry path must
        // pass the attempt index through.
        let jobs = boxed(vec![Box::new(|attempt| {
            if attempt == 0 {
                panic!("flaky");
            }
            attempt
        })]);
        let cfg = SuperviseConfig { max_attempts: 2, ..SuperviseConfig::default() };
        let reports = supervise(jobs, &cfg);
        assert_eq!(reports[0].attempts, 2);
        assert_eq!(reports[0].outcome, JobOutcome::Completed(1));
    }

    #[test]
    fn retry_budget_is_bounded() {
        let jobs = boxed(vec![Box::new(|_| panic!("always dies"))]);
        let cfg = SuperviseConfig { max_attempts: 3, ..SuperviseConfig::default() };
        let reports = supervise(jobs, &cfg);
        assert_eq!(reports[0].attempts, 3);
        assert_eq!(reports[0].outcome, JobOutcome::Panicked("always dies".to_string()));
    }

    #[test]
    fn deadline_abandons_stuck_jobs() {
        let jobs = boxed(vec![
            Box::new(|_| {
                std::thread::sleep(Duration::from_secs(30));
                0
            }),
            Box::new(|_| 7),
        ]);
        let cfg =
            SuperviseConfig { workers: 2, deadline: Some(Duration::from_millis(50)), max_attempts: 2 };
        let reports = supervise(jobs, &cfg);
        assert_eq!(reports[0].outcome, JobOutcome::TimedOut(Duration::from_millis(50)));
        assert_eq!(reports[0].attempts, 1, "a timeout is terminal even with retries left");
        assert_eq!(reports[1].outcome, JobOutcome::Completed(7));
    }

    #[test]
    fn attempts_run_inline_on_at_most_workers_threads() {
        // Every third job panics on attempt 0 and is retried; with or
        // without a deadline, no attempt gets a thread of its own.
        for deadline in [None, Some(Duration::from_secs(60))] {
            let jobs: Vec<_> = (0..12)
                .map(|j| {
                    move |attempt: u32| {
                        if j % 3 == 0 && attempt == 0 {
                            panic!("flaky job {j}");
                        }
                        std::thread::current().id()
                    }
                })
                .collect();
            let cfg = SuperviseConfig { workers: 2, deadline, max_attempts: 2 };
            let reports = supervise(jobs, &cfg);
            let mut ids = std::collections::HashSet::new();
            for (j, r) in reports.into_iter().enumerate() {
                assert_eq!(r.attempts, if j % 3 == 0 { 2 } else { 1 });
                ids.insert(r.outcome.completed().expect("every job completes"));
            }
            assert!(ids.len() <= 2, "{} threads ran the attempts ({deadline:?})", ids.len());
        }
    }

    #[test]
    fn panic_payload_shapes_decode() {
        assert_eq!(panic_message(Box::new("boom")), "boom");
        assert_eq!(panic_message(Box::new(String::from("kaboom"))), "kaboom");
        assert!(panic_message(Box::new(17u32)).contains("non-string"));
    }
}
