//! Figure 9 — execution time per allocator, split into "base" and
//! "memory" (time spent in memory management), plus the unsafe-region
//! bar and moss's "slow" single-region bar.
//!
//! Paper shape: unsafe regions are fastest everywhere (up to 16% over
//! the best malloc); safe regions are as fast or faster on cfrac, tile
//! and moss and at worst ~5% behind on mudlle/lcc; moss's optimized
//! two-region layout beats the naive port by ~24%.
//!
//! The workload × allocator matrix runs on worker threads (every cell
//! owns its own simulated heap); rows print in matrix order.

use bench_harness::runner::{
    par_bench_workers, run_matrix, run_matrix_with, scale_from_env, write_results_json, Job,
    Measurement,
};
use workloads::{MallocKind, RegionKind, Workload};

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn main() {
    let scale = scale_from_env();
    let mut jobs = Vec::new();
    for w in Workload::ALL {
        for kind in MallocKind::ALL {
            jobs.push(Job::Malloc(w, kind));
        }
        jobs.push(Job::Region(w, RegionKind::Safe));
        jobs.push(Job::Region(w, RegionKind::Unsafe));
        if w == Workload::Moss {
            jobs.push(Job::MossSlow(RegionKind::Safe));
        }
    }
    let serial_t0 = std::time::Instant::now();
    let rows = run_matrix(&jobs, scale, false);
    let serial_wall = serial_t0.elapsed();

    // Parallel pass (see fig8): same matrix, real worker threads, every
    // simulated counter bit-identical to the serial pass.
    let par_workers = par_bench_workers();
    let par_t0 = std::time::Instant::now();
    let par_rows = run_matrix_with(&jobs, scale, false, par_workers);
    let par_wall = par_t0.elapsed();
    for (s, p) in rows.iter().zip(&par_rows) {
        let cell = format!("{}/{}", s.workload, s.allocator);
        assert_eq!(s.os_pages, p.os_pages, "{cell}: os_pages perturbed by parallelism");
        assert_eq!(s.checksum, p.checksum, "{cell}: checksum perturbed by parallelism");
        assert_eq!(s.stats, p.stats, "{cell}: alloc stats perturbed by parallelism");
    }
    // The memory share is an estimate (DESIGN §18). Before its bound it
    // must be positive and within the cell's total: otherwise the base
    // share would be negative and the clock is broken.
    for m in rows.iter().chain(&par_rows) {
        if let Err(e) = m.check_mem_clock() {
            panic!("{e}");
        }
    }

    println!("Figure 9: execution time, total ms (memory-management ms), scale {scale}");
    println!(
        "{:<9} {:>16} {:>16} {:>16} {:>16} {:>16} {:>16}",
        "Name", "Sun", "BSD", "Lea", "GC", "Reg", "unsafe"
    );
    let mut cursor = rows.iter();
    for w in Workload::ALL {
        let mut row = format!("{:<9}", w.name());
        let mut best_malloc = f64::MAX;
        for _ in MallocKind::ALL {
            let m: &Measurement = cursor.next().expect("matrix covers every cell");
            best_malloc = best_malloc.min(ms(m.total));
            row += &format!(" {:>9.0} ({:>4.0})", ms(m.total), ms(m.mem));
        }
        let reg = cursor.next().expect("safe-region cell");
        let unsf = cursor.next().expect("unsafe-region cell");
        row += &format!(" {:>9.0} ({:>4.0})", ms(reg.total), ms(reg.mem));
        row += &format!(" {:>9.0} ({:>4.0})", ms(unsf.total), ms(unsf.mem));
        println!("{row}");
        println!(
            "{:<9}  Reg vs best malloc: {:+.1}%   unsafe vs best malloc: {:+.1}%",
            "",
            100.0 * (ms(reg.total) - best_malloc) / best_malloc,
            100.0 * (ms(unsf.total) - best_malloc) / best_malloc,
        );
        if w == Workload::Moss {
            let slow = cursor.next().expect("moss-slow cell");
            println!(
                "{:<9}  moss 'Slow' (one interleaved region): {:.0} ms — optimized layout {:+.1}%",
                "",
                ms(slow.total),
                100.0 * (ms(reg.total) - ms(slow.total)) / ms(slow.total),
            );
        }
    }
    // Parallel-speedup column: per-workload wall clock, serial vs the
    // fanned-out pass.
    println!();
    println!(
        "Parallel pass ({par_workers} workers): matrix wall {:.0} ms vs serial {:.0} ms \
         ({:.2}x); counters bit-identical",
        ms(par_wall),
        ms(serial_wall),
        ms(serial_wall) / ms(par_wall).max(1e-9),
    );
    println!("{:<9} {:>10} {:>10} {:>8}", "Name", "serial ms", "par ms", "speedup");
    let mut speed: Vec<(&str, f64, f64)> = Vec::new();
    for (s, p) in rows.iter().zip(&par_rows) {
        match speed.last_mut() {
            Some(e) if e.0 == s.workload => {
                e.1 += ms(s.total);
                e.2 += ms(p.total);
            }
            _ => speed.push((s.workload, ms(s.total), ms(p.total))),
        }
    }
    for (w, sm, pm) in &speed {
        println!("{w:<9} {sm:>10.0} {pm:>10.0} {:>7.2}x", sm / pm.max(1e-9));
    }

    let par_ms: Vec<f64> = par_rows.iter().map(|m| ms(m.total)).collect();
    match write_results_json("fig9", &rows, Some(par_workers), &[("par_total_ms", &par_ms)]) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("\nwarning: could not write results JSON: {e}"),
    }
    println!();
    println!("Shape check vs paper: unsafe regions lead; safe regions are close to");
    println!("or ahead of the malloc field; GC pays for its collections; the moss");
    println!("two-region layout beats the naive single-region port.");
}
