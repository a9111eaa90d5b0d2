//! Extension **E-WB**: the write-back exposure channel the paper does not
//! model. A dirty line evicted after `N` unchecked reads carries its
//! accumulated disturbance *into main memory* through the write-back path.
//! The conventional cache forwards that data unchecked; REAP has already
//! checked every read, so the victim is clean up to one read's
//! disturbance.

use reap_bench::{access_budget, paper_reports, print_csv};
use reap_core::ProtectionScheme;
use reap_trace::SpecWorkload;

fn main() {
    let accesses = access_budget().min(4_000_000);
    println!("Extension — unchecked failure probability escaping via write-backs");
    println!("({accesses} accesses per workload)");
    println!();
    println!(
        "{:<12} {:>10} {:>16} {:>18} {:>14}",
        "workload", "dirty ev.", "wb exposure", "demand E[fail]", "wb / demand"
    );
    let mut rows = Vec::new();
    let workloads = [
        SpecWorkload::Xalancbmk,
        SpecWorkload::Lbm,
        SpecWorkload::Mcf,
        SpecWorkload::Perlbench,
        SpecWorkload::DealII,
    ];
    for (w, report) in paper_reports(&workloads, accesses) {
        let exposure = report.writeback_exposure();
        let demand = report.expected_failures(ProtectionScheme::Conventional);
        let dirty = report.l2_stats().dirty_evictions;
        let ratio = if demand > 0.0 {
            exposure / demand
        } else {
            f64::NAN
        };
        println!(
            "{:<12} {:>10} {:>16.3e} {:>18.3e} {:>14.3}",
            w.name(),
            dirty,
            exposure,
            demand,
            ratio
        );
        rows.push(format!(
            "{},{dirty},{exposure:.6e},{demand:.6e},{ratio:.4}",
            w.name()
        ));
    }
    println!();
    println!(
        "Reading: for write-heavy workloads the unchecked write-back channel \
         carries failure probability comparable to the demand-read channel — \
         silent data corruption in DRAM that neither Fig. 5 nor a memory-side \
         scrubber attributes to the cache. REAP closes this channel for free \
         (the write-back read passes through its per-way decoders)."
    );
    print_csv(
        "workload,dirty_evictions,writeback_exposure,demand_expected_failures,ratio",
        &rows,
    );
}
