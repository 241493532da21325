//! The table/figure regeneration harness.
//!
//! One binary per artifact of the paper's evaluation:
//!
//! | binary | regenerates |
//! |---|---|
//! | `table1` | Table 1 — porting effort (diff between program variants) |
//! | `table2_3` | Tables 2 & 3 — allocation behaviour with regions / malloc |
//! | `fig8` | Figure 8 — memory requested from the OS vs by the program |
//! | `fig9` | Figure 9 — execution time, base vs memory management |
//! | `fig10` | Figure 10 — cycles lost to read/write stalls (cache sim) |
//! | `fig11` | Figure 11 — cost-of-safety breakdown |
//!
//! Set `SCALE=<n>` to grow the workloads (default 2); every binary
//! prints paper-style rows plus the measured shape next to the paper's
//! claim.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod diff;
pub mod golden;
pub mod par_regions;
pub mod results;
pub mod rng;
pub mod runner;
pub mod server;
pub mod supervise;

pub use diff::changed_lines;
pub use runner::{
    bench_workers, host_cores, measure_region, results_json, run_matrix, run_matrix_checked,
    run_matrix_with, scale_from_env, write_results_json, Job, Measurement, RESULTS_SCHEMA_VERSION,
};
pub use server::{
    install_service_panic_filter, run_service, Ledger, ServiceConfig, ServiceReport,
};
pub use supervise::{supervise, JobOutcome, SuperviseConfig, WorkerReport};
