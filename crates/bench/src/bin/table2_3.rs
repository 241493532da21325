//! Tables 2 & 3 — allocation behaviour with regions and with malloc.
//!
//! Table 2 columns (regions): total allocs, total kbytes, max kbytes,
//! total regions, max regions, max kbytes in a region, avg kbytes per
//! region, avg allocs per region. Table 3 (malloc): the first three
//! columns, plus with/without-overhead rows for the emulated programs.
//!
//! All cells run in parallel on worker threads; rows print in matrix
//! order.

use bench_harness::runner::{kb, run_matrix, scale_from_env, write_results_json, Job};
use workloads::{MallocKind, RegionKind, Workload};

fn main() {
    let scale = scale_from_env();
    let mut jobs = Vec::new();
    for w in Workload::ALL {
        jobs.push(Job::Region(w, RegionKind::Safe));
    }
    for w in Workload::ALL {
        jobs.push(Job::Malloc(w, MallocKind::Lea));
        if matches!(w, Workload::Mudlle | Workload::Lcc) {
            jobs.push(Job::Region(w, RegionKind::Emulated(MallocKind::Lea)));
        }
    }
    let rows = run_matrix(&jobs, scale, false);
    let mut cursor = rows.iter();

    println!("Table 2: Allocation behaviour with regions (scale {scale})");
    println!(
        "{:<9} {:>10} {:>10} {:>9} {:>8} {:>6} {:>10} {:>9} {:>9}",
        "Name", "Allocs", "TotKB", "MaxKB", "Regions", "MaxRg", "MaxRgKB", "AvgKB/Rg", "Allocs/Rg"
    );
    for _ in Workload::ALL {
        let m = cursor.next().expect("region cell");
        let s = m.stats;
        println!(
            "{:<9} {:>10} {:>10.1} {:>9.1} {:>8} {:>6} {:>10.2} {:>9.2} {:>9.1}",
            m.workload,
            s.total_allocs,
            kb(s.total_bytes),
            kb(s.max_live_bytes),
            s.total_regions,
            s.max_live_regions,
            kb(s.max_region_bytes),
            kb(s.total_bytes) / s.total_regions.max(1) as f64,
            s.avg_allocs_per_region(),
        );
    }
    println!();
    println!("Table 3: Allocation behaviour with malloc (scale {scale})");
    println!("{:<16} {:>10} {:>10} {:>9}", "Name", "Allocs", "TotKB", "MaxKB");
    for w in Workload::ALL {
        let m = cursor.next().expect("malloc cell");
        let s = m.stats;
        println!(
            "{:<16} {:>10} {:>10.1} {:>9.1}",
            m.workload,
            s.total_allocs,
            kb(s.total_bytes),
            kb(s.max_live_bytes)
        );
        // mudlle and lcc were region programs: the paper reports their
        // malloc numbers through the emulation library, with and without
        // its one-word-per-object overhead.
        if matches!(w, Workload::Mudlle | Workload::Lcc) {
            let e = cursor.next().expect("emulation cell");
            let inner = e.inner_stats.expect("emulated");
            println!(
                "{:<16} {:>10} {:>10.1} {:>9.1}",
                "  emulated",
                inner.total_allocs,
                kb(inner.total_bytes),
                kb(inner.max_live_bytes)
            );
            println!(
                "{:<16} {:>10} {:>10.1} {:>9.1}",
                "  (w/o overhead)",
                e.stats.total_allocs,
                kb(e.stats.total_bytes),
                kb(e.stats.max_live_bytes)
            );
        }
    }
    match write_results_json("table2_3", &rows, None, &[]) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("\nwarning: could not write results JSON: {e}"),
    }
    println!();
    println!("Shape check vs paper: region and malloc allocation counts are close");
    println!("(small discrepancies from the port, as in the paper §5.3); max live");
    println!("kbytes under regions is slightly larger (regions free later).");
}
