//! One benchmark for the region stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-safe|service> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` is a separate
//! run that gives the per-layer metrics. Every run first checks the
//! outputs (see `paper::ProgramRun::check` and `service::Pass::check`)
//! and exits with status 1, printing no result, on any mismatch. The last
//! line of standard output is one JSON object: `correct`, `attempted`,
//! `failed` and the metrics, each with its unit. `perfbench/README.md`
//! defines every metric and records why each workload was chosen.

mod layers;
mod paper;
mod probe;
mod service;
mod stats;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use simheap::SimHeap;

use crate::stats::{median, quantile, sorted_us, tail_reportable, Metrics};

/// Set-ups per run; `setup_s` is the fastest.
const SETUPS: usize = 5;

const USAGE: &str = "usage: perfbench --workload <paper-safe|service> \
                     --seed <u64> --seconds <1..=600> --trace <0|1>";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    PaperSafe,
    Service,
}

#[derive(Clone, Copy, Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "paper-safe" => Workload::PaperSafe,
                    "service" => Workload::Service,
                    _ => return Err(bad()),
                });
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or_else(bad)?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What a run prints: human-readable notes, then the result line.
///
/// The result line's `failed` is always 0: an operation fails when its
/// output differs from the expected one, and any such difference ends the
/// run before a result is printed. A service request that exhausts its
/// retries against an injected fault is not such a failure: it is the
/// outcome the seed prescribes, folded into the books that every pass
/// must match byte for byte, and counted in `server.failed_share`.
pub struct Outcome {
    pub notes: Vec<String>,
    pub metrics: Metrics,
    pub attempted: u64,
}

fn main() -> ExitCode {
    // Both variables change what the harness runs; the benchmark's inputs
    // come from its own arguments only.
    std::env::remove_var("BENCH_ELIDE");
    std::env::remove_var("REGION_SANITIZE");
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    bench_harness::install_service_panic_filter();
    let outcome = match args.workload {
        Workload::PaperSafe => run_paper(args),
        Workload::Service => run_service(args),
    };
    match outcome {
        Ok(o) => {
            for n in &o.notes {
                println!("{n}");
            }
            for m in &o.metrics.0 {
                println!("{:<34} {:>16.4} {}", m.name, m.value, m.unit);
            }
            println!(
                "{{\"correct\": true, \"attempted\": {}, \"failed\": 0, \"metrics\": {}}}",
                o.attempted,
                o.metrics.to_json()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("correctness check failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs `SETUPS` set-ups — fresh state plus one checked warm-up pass —
/// and returns the fastest one's time, in seconds, with the last set-up's
/// result. Like `run_ms`, the fastest is the one least slowed by other
/// load on the host.
fn set_up<T>(mut once: impl FnMut() -> Result<T, String>) -> Result<(f64, T), String> {
    let mut fastest = f64::INFINITY;
    let mut last = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let r = once()?;
        fastest = fastest.min(t.elapsed().as_secs_f64());
        last = Some(r);
    }
    Ok((fastest, last.expect("at least one set-up")))
}

fn run_paper(args: Args) -> Result<Outcome, String> {
    let (setup, mut heap) = set_up(|| {
        let (pass, heap) = paper::run_pass(false, SimHeap::new());
        pass.check()?;
        Ok(heap)
    })?;
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    if args.trace {
        return layers::paper(deadline, heap);
    }
    let mut fastest = paper::Fastest::new();
    loop {
        let (pass, h) = paper::run_pass(false, heap);
        heap = h;
        pass.check()?;
        fastest.add(pass);
        if Instant::now() >= deadline {
            break;
        }
    }
    let run_ms = fastest.run_ms();
    let mut program_us: Vec<f64> = fastest.program_ms.iter().map(|t| t * 1e3).collect();
    program_us.sort_by(f64::total_cmp);
    let runs = fastest.passes * program_us.len();
    let mut m = Metrics::default();
    m.add("setup_s", setup, "s");
    m.add("run_ms", run_ms, "ms");
    m.add(
        "footprint_pages",
        fastest.pass().sum(|r| r.os_pages) as f64,
        "pages",
    );
    m.add(
        "throughput_rps",
        program_us.len() as f64 * 1e3 / run_ms,
        "1/s",
    );
    m.add("req_p50_us", quantile(&program_us, 0.5), "us");
    m.add("req_p99_us", quantile(&program_us, 0.99), "us");
    m.add("served_share", 1.0, "ratio");
    Ok(Outcome {
        notes: vec![format!(
            "# {} passes of the six programs at scale {}, every one matching the committed set; \
             times are the fastest pass and each program's fastest run; a request is one \
             program run, so the latencies are over the six programs (no p999)",
            fastest.passes,
            paper::SCALE,
        )],
        metrics: m,
        attempted: runs as u64,
    })
}

fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

fn run_service(args: Args) -> Result<Outcome, String> {
    let threads = threads();
    let mut reference: Option<Vec<Vec<u8>>> = None;
    let (setup, ()) = set_up(|| {
        let pass = service::run_pass(args.seed, threads);
        pass.check(reference.as_deref())?;
        reference.get_or_insert_with(|| pass.books());
        Ok(())
    })?;
    let reference = reference.expect("set-up ran");
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    if args.trace {
        return layers::service(args.seed, threads, deadline, &reference);
    }
    let mut fastest = service::Fastest::new();
    let mut ledger = bench_harness::Ledger::default();
    loop {
        let pass = service::run_pass(args.seed, threads);
        pass.check(Some(&reference))?;
        ledger.add(&pass.ledger());
        fastest.add(pass);
        if Instant::now() >= deadline {
            break;
        }
    }
    let best = fastest.pass();
    let l = best.ledger();
    let lat = sorted_us(best.served_latencies());
    let high_water: Vec<f64> = best
        .reports
        .iter()
        .map(|r| r.high_water_pages as f64)
        .collect();
    let mut m = Metrics::default();
    m.add("setup_s", setup, "s");
    m.add("run_ms", ms(best.wall), "ms");
    m.add("footprint_pages", median(&high_water), "pages");
    m.add(
        "throughput_rps",
        l.submitted as f64 / best.wall.as_secs_f64(),
        "1/s",
    );
    m.add("req_p50_us", quantile(&lat, 0.5), "us");
    m.add("req_p99_us", quantile(&lat, 0.99), "us");
    m.add(
        "served_share",
        l.completed as f64 / l.submitted as f64,
        "ratio",
    );
    let p999 = if tail_reportable(lat.len(), 0.999) {
        format!("{:.3} us", quantile(&lat, 0.999))
    } else {
        "not reported".to_string()
    };
    Ok(Outcome {
        notes: vec![
            format!(
                "# {} passes x {} episodes, {} threads, books identical to the set-up rerun in \
                 every pass; times are each episode's fastest run; latency over its {} served \
                 requests (completed or failed), req_p999 {p999}",
                fastest.passes,
                service::EPISODES,
                threads,
                lat.len()
            ),
            format!(
                "# of {} requests submitted: shed_share {:.5}, failed_share {:.5} (refused and \
                 failed requests miss any latency limit)",
                l.submitted,
                l.shed as f64 / l.submitted as f64,
                l.failed as f64 / l.submitted as f64
            ),
        ],
        metrics: m,
        attempted: ledger.submitted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bench_harness::runner::measure_region_on;
    use workloads::RegionKind;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn arguments_are_checked() {
        let a = args("--workload service --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::Service, 7, 10, true)
        );
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload service --seed x --seconds 1 --trace 0",
            "--workload service --seed 1 --seconds 0 --trace 0",
            "--workload service --seed 1 --seconds 1 --trace 2",
            "--workload service --seed 1 --seconds 1",
            "--workload service --seed 1 --seconds 1 --trace 0 --extra 1",
        ] {
            assert!(args(bad).is_err(), "{bad}");
        }
    }

    /// The benchmark times its own program loop; it must do exactly the
    /// work the harness's `measure_region_on` does.
    #[test]
    fn program_runs_match_the_harness() {
        for traced in [false, true] {
            for w in workloads::Workload::ALL {
                let (m, _) =
                    measure_region_on(w, RegionKind::Safe, paper::SCALE, traced, SimHeap::new());
                let (r, _) = paper::run_program(w, traced, SimHeap::new());
                assert_eq!(
                    (m.checksum, m.os_pages, m.stats, m.costs, m.cache),
                    (r.checksum, r.os_pages, r.stats, Some(r.costs), r.cache),
                    "{} traced={traced}",
                    w.name()
                );
                r.check().expect("matches the committed set");
            }
        }
    }

    #[test]
    fn the_correctness_gates_can_fail() {
        let (mut r, _) = paper::run_program(workloads::Workload::Lcc, false, SimHeap::new());
        r.stats.total_allocs += 1;
        assert!(r.check().is_err(), "a changed AllocStats passed");
        let (mut r, _) = paper::run_program(workloads::Workload::Lcc, true, SimHeap::new());
        r.cache.as_mut().expect("traced").l2_misses += 1;
        assert!(r.check().is_err(), "a changed MemStats passed");

        let mut pass = service::run_pass(3, 1);
        let books = pass.books();
        pass.check(Some(&books))
            .expect("a pass matches its own books");
        let mut other = books.clone();
        other[0][0] ^= 1;
        assert!(pass.check(Some(&other)).is_err(), "different books passed");
        pass.reports[0].ledger.completed += 1;
        assert!(pass.check(None).is_err(), "a non-conserving ledger passed");
    }

    fn counts(o: &Outcome) -> Vec<(String, f64)> {
        o.metrics
            .0
            .iter()
            .filter(|m| m.unit == "count")
            .map(|m| (m.name.clone(), m.value))
            .collect()
    }

    /// Every per-layer count repeats exactly between two traced runs;
    /// only timings may differ.
    #[test]
    fn traced_runs_repeat_every_count() {
        let run = || layers::paper(Instant::now(), SimHeap::new()).expect("traced run");
        let (a, b) = (run(), run());
        assert_eq!(counts(&a), counts(&b), "paper-safe");
        assert!(a.metrics.get("runtime.alloc.count").expect("alloc count") > 0.0);
        assert!(a.metrics.get("cachesim.reads").expect("cache reads") > 0.0);
        // The probed runtime operations happen inside memory management,
        // so their attributed time cannot exceed the time measured there.
        let attributed: f64 = ["alloc", "barrier", "delete"]
            .iter()
            .map(|l| {
                a.metrics
                    .get(&format!("attr.runtime.{l}_ms"))
                    .expect("attr")
            })
            .sum();
        let mem_ms = a.metrics.get("env.mem_ms").expect("mem time");
        assert!(
            attributed <= mem_ms,
            "attr.runtime.* sum {attributed:.3} ms exceeds env.mem_ms {mem_ms:.3} ms"
        );
        let books = service::run_pass(5, threads()).books();
        let run = || layers::service(5, threads(), Instant::now(), &books).expect("traced run");
        let (a, b) = (run(), run());
        assert_eq!(counts(&a), counts(&b), "service");
        assert!(a.metrics.get("server.retries").expect("retry count") > 0.0);
    }
}
