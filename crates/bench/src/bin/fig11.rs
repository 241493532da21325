//! Figure 11 — the cost of safety, broken into its three components:
//! reference counting (write barriers), stack scanning (scan/unscan),
//! and region cleanup.
//!
//! Paper shape: the overall safety overhead is "from negligible (tile)
//! to 17% (lcc)", with the mix depending on how pointer-intensive each
//! program is. We report the measured safe-vs-unsafe time overhead and
//! split it by the simulated-instruction shares of the three components
//! (using the paper's own 16/23-instruction barrier costs).
//!
//! The `elided` column counts barriers replaced by the 2-instruction
//! unbarriered store thanks to *sameregion* annotations (§3.3). The
//! table runs with every barrier kept, so it reads zero and the
//! committed counters reproduce. `--elision-ab` runs the interleaved
//! min-of-N A/B of both arms instead and records `BENCH_elision.json`
//! at the repo root.

use bench_harness::runner::{
    measure_region, measure_region_elide, scale_from_env, write_bench_record, write_results_json,
    Measurement,
};
use workloads::{RegionKind, Workload};

fn main() {
    let scale = scale_from_env();
    if std::env::args().any(|a| a == "--elision-ab") {
        elision_ab(scale);
        return;
    }
    println!("Figure 11: cost of safety, scale {scale}");
    println!(
        "{:<9} {:>10} {:>12} {:>10} {:>10} {:>10} {:>12} {:>8}",
        "Name", "overhead", "safety-instr", "rc %", "scan %", "cleanup %", "barriers", "elided"
    );
    let mut rows: Vec<Measurement> = Vec::new();
    for w in Workload::ALL {
        let safe = measure_region(w, RegionKind::Safe, scale, false);
        let unsafe_ = measure_region(w, RegionKind::Unsafe, scale, false);
        assert_eq!(safe.checksum, unsafe_.checksum);
        let costs = safe.costs.expect("safe run");
        let (rc, scan, cleanup) = costs.breakdown();
        let overhead = 100.0
            * (safe.total.as_secs_f64() - unsafe_.total.as_secs_f64())
            / unsafe_.total.as_secs_f64();
        println!(
            "{:<9} {:>9.1}% {:>12} {:>9.1}% {:>9.1}% {:>9.1}% {:>12} {:>8}",
            w.name(),
            overhead,
            costs.total_instrs(),
            rc * 100.0,
            scan * 100.0,
            cleanup * 100.0,
            costs.barriers_global + costs.barriers_region + costs.barriers_unknown,
            costs.barriers_elided,
        );
        rows.push(safe);
        rows.push(unsafe_);
    }
    match write_results_json("fig11", &rows, None, &[]) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("\nfailed to write results json: {e}"),
    }
    println!();
    println!("Shape check vs paper: overhead stays modest (paper: ≤17%), and is");
    println!("dominated by reference counting for pointer-write-heavy programs and");
    println!("by cleanup for programs that delete many object-rich regions.");
}

/// Interleaved min-of-N A/B of the hand-annotated *sameregion* stores:
/// for each workload, alternate elision-off and elision-on runs, keep
/// the fastest wall clock per arm, and demand bit-identical checksums
/// plus a conserved barrier split. Panics (failing CI) if the counters
/// drift between repetitions or the flagship workloads stop eliding.
fn elision_ab(scale: u32) {
    const REPS: usize = 3;
    println!("Elision A/B: sameregion barrier elision, scale {scale}, min of {REPS}");
    println!(
        "{:<9} {:>13} {:>13} {:>10} {:>8} {:>10} {:>10}",
        "Name", "safety-base", "safety-elide", "reduction", "elided", "ms(base)", "ms(elide)"
    );
    let mut blocks: Vec<String> = Vec::new();
    for w in Workload::ALL {
        let mut base: Option<Measurement> = None;
        let mut opt: Option<Measurement> = None;
        let (mut base_ms, mut opt_ms) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..REPS {
            let a = measure_region_elide(w, RegionKind::Safe, scale, false);
            let b = measure_region_elide(w, RegionKind::Safe, scale, true);
            base_ms = base_ms.min(a.total.as_secs_f64() * 1e3);
            opt_ms = opt_ms.min(b.total.as_secs_f64() * 1e3);
            for (rep, prev) in [(&a, &base), (&b, &opt)] {
                if let Some(p) = prev {
                    assert_eq!(p.checksum, rep.checksum, "{}: checksum drift across reps", w.name());
                    assert_eq!(p.costs, rep.costs, "{}: cost drift across reps", w.name());
                }
            }
            base = Some(a);
            opt = Some(b);
        }
        let (base, opt) = (base.unwrap(), opt.unwrap());
        assert_eq!(base.checksum, opt.checksum, "{}: elision changed the answer", w.name());
        let cb = base.costs.expect("safe run");
        let co = opt.costs.expect("safe run");
        assert_eq!(cb.barriers_elided, 0, "{}: baseline must not elide", w.name());
        assert_eq!(
            cb.barriers_global + cb.barriers_region + cb.barriers_unknown,
            co.barriers_global + co.barriers_region + co.barriers_unknown + co.barriers_elided,
            "{}: barrier split not conserved",
            w.name()
        );
        let reduction = if cb.total_instrs() == 0 {
            0.0
        } else {
            100.0 * (cb.total_instrs() - co.total_instrs()) as f64 / cb.total_instrs() as f64
        };
        println!(
            "{:<9} {:>13} {:>13} {:>9.1}% {:>8} {:>10.1} {:>10.1}",
            w.name(),
            cb.total_instrs(),
            co.total_instrs(),
            reduction,
            co.barriers_elided,
            base_ms,
            opt_ms,
        );
        if matches!(w, Workload::Grobner | Workload::Tile | Workload::Mudlle) {
            assert!(co.barriers_elided > 0, "{}: expected elided barriers", w.name());
            assert!(
                co.total_instrs() < cb.total_instrs(),
                "{}: expected a safety-instruction reduction",
                w.name()
            );
        }
        blocks.push(format!(
            "    \"{}\": {{ \"safety_instrs_base\": {}, \"safety_instrs_elided\": {}, \
             \"instr_reduction_pct\": {:.2}, \"barriers_full_base\": {}, \
             \"barriers_full_elided\": {}, \"barriers_elided\": {}, \
             \"min_total_ms_base\": {:.1}, \"min_total_ms_elided\": {:.1} }}",
            w.name(),
            cb.total_instrs(),
            co.total_instrs(),
            reduction,
            cb.barriers_global + cb.barriers_region + cb.barriers_unknown,
            co.barriers_global + co.barriers_region + co.barriers_unknown,
            co.barriers_elided,
            base_ms,
            opt_ms,
        ));
    }
    let comment = format!(
        "Sameregion barrier elision A/B: per-workload safe runs with the hand-annotated \
         elidable stores off vs on, interleaved, min of {REPS}. Counters are deterministic \
         (asserted across reps); wall times are the min. Elided stores charge 2 instrs \
         instead of the Figure-5 16/23/31."
    );
    let body = format!(
        "\"scale\": {scale},\n  \"reps\": {REPS},\n  \"workloads\": {{\n{}\n  }}",
        blocks.join(",\n"),
    );
    write_bench_record("elision", &comment, &body);
}

