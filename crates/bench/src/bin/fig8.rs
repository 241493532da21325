//! Figure 8 — memory requested from the OS by each allocator, next to
//! the memory the program itself requested.
//!
//! Paper shape: regions rank first or second everywhere (from 9% less to
//! 19% more than Lea's allocator); BSD and the collector "use a lot of
//! memory, which makes them unsuitable for some applications".
//!
//! The workload × allocator matrix runs on worker threads; rows print
//! in matrix order. `--only <workload>` restricts the matrix to one
//! row — handy for CI smoke runs (e.g. the `REGION_SANITIZE=1` check).

use bench_harness::runner::{
    kb, pages_kb, par_bench_workers, run_matrix, run_matrix_with, scale_from_env,
    write_results_json, Job,
};
use workloads::{MallocKind, RegionKind, Workload};

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn main() {
    let scale = scale_from_env();
    let args: Vec<String> = std::env::args().collect();
    let only: Option<Workload> = args
        .iter()
        .position(|a| a == "--only")
        .and_then(|i| args.get(i + 1))
        .map(|name| {
            *Workload::ALL.iter().find(|w| w.name() == name.as_str()).unwrap_or_else(|| {
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                eprintln!("fig8: unknown workload {name:?}; expected one of {names:?}");
                std::process::exit(2);
            })
        });
    let selected: Vec<Workload> =
        Workload::ALL.iter().copied().filter(|w| only.is_none_or(|o| o == *w)).collect();
    let mut jobs = Vec::new();
    for &w in &selected {
        jobs.push(Job::Region(w, RegionKind::Safe));
        for kind in MallocKind::ALL {
            jobs.push(Job::Malloc(w, kind));
        }
        jobs.push(Job::Region(w, RegionKind::Unsafe));
        if matches!(w, Workload::Mudlle | Workload::Lcc) {
            jobs.push(Job::Region(w, RegionKind::Emulated(MallocKind::Lea)));
        }
    }
    let serial_t0 = std::time::Instant::now();
    let rows = run_matrix(&jobs, scale, false);
    let serial_wall = serial_t0.elapsed();

    // Parallel pass: the same matrix fanned across real worker threads
    // (min 3, so a single-core CI host still exercises cross-thread
    // scheduling). Every simulated counter must match the serial pass
    // bit for bit — only wall clock is allowed to move.
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

    println!("Figure 8: Memory overhead, OS kbytes (requested kbytes in parens), scale {scale}");
    println!(
        "{:<9} {:>12} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "Name", "requested", "Sun", "BSD", "Lea", "GC", "Reg", "unsafe"
    );
    let mut cursor = rows.iter();
    for &w in &selected {
        let mut row = format!("{:<9}", w.name());
        let reg = cursor.next().expect("safe-region cell");
        row += &format!(" {:>12.1}", kb(reg.stats.max_live_bytes));
        for _ in MallocKind::ALL {
            let m = cursor.next().expect("malloc cell");
            row += &format!(" {:>9.0}", pages_kb(m.os_pages));
        }
        row += &format!(" {:>9.0}", pages_kb(reg.os_pages));
        let unsf = cursor.next().expect("unsafe-region cell");
        row += &format!(" {:>9.0}", pages_kb(unsf.os_pages));
        println!("{row}");
        // The paper's extra bars for the emulated programs.
        if matches!(w, Workload::Mudlle | Workload::Lcc) {
            let e = cursor.next().expect("emulation cell");
            println!(
                "{:<9} {:>12} {:>9} (emulation over Lea; region data w/o overhead {:.0} KB)",
                "  emu",
                "",
                format!("{:.0}", pages_kb(e.os_pages)),
                kb(e.stats.max_live_bytes),
            );
        }
    }
    // Parallel-speedup column: per-workload wall clock of the serial
    // pass vs the fanned-out pass, plus the matrix-level wall.
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

    // A filtered run is a smoke check, not the artifact: only the full
    // matrix may replace results/fig8.json.
    if only.is_none() {
        let par_ms: Vec<f64> = par_rows.iter().map(|m| ms(m.total)).collect();
        match write_results_json("fig8", &rows, Some(par_workers), &[("par_total_ms", &par_ms)]) {
            Ok(path) => println!("\nwrote {}", path.display()),
            Err(e) => eprintln!("\nwarning: could not write results JSON: {e}"),
        }
    }
    println!();
    println!("Shape check vs paper: Reg ranks first or second on every row;");
    println!("BSD (power-of-two rounding) and GC (heap-doubling headroom) are the");
    println!("heavy consumers, as in the paper's clipped cfrac/tile bars.");
}
