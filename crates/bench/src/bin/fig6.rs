//! Regenerates **Fig. 6**: dynamic energy of REAP-cache normalized to the
//! conventional cache, per workload.
//!
//! Paper reference points: average +2.7 %, worst case +6.5 %
//! (`cactusADM`), best case +1.0 % (`xalancbmk`).

use reap_bench::{
    access_budget, arithmetic_mean, energy_overhead_percent, paper_reports, print_csv,
};
use reap_core::ProtectionScheme;
use reap_trace::SpecWorkload;

fn main() {
    let accesses = access_budget();
    println!("Fig. 6 — dynamic energy overhead of REAP over conventional");
    println!("({accesses} measured L1 accesses per workload, seed 2019)");
    println!();
    println!(
        "{:<12} {:>12} {:>14} {:>14} {:>12}",
        "workload", "REAP", "restore", "serial", "ECC share"
    );

    let mut overheads = Vec::new();
    let mut rows = Vec::new();
    for (w, report) in paper_reports(&SpecWorkload::ALL, accesses) {
        let reap = energy_overhead_percent(&report);
        let restore = 100.0 * report.energy_overhead(ProtectionScheme::DisruptiveRestore);
        let serial = 100.0 * report.energy_overhead(ProtectionScheme::SerialTagFirst);
        let ecc_share = 100.0 * report.energy(ProtectionScheme::Conventional).ecc_fraction();
        println!(
            "{:<12} {:>+11.2}% {:>+13.1}% {:>+13.1}% {:>11.3}%",
            w.name(),
            reap,
            restore,
            serial,
            ecc_share
        );
        rows.push(format!(
            "{},{:.4},{:.4},{:.4},{:.4}",
            w.name(),
            reap,
            restore,
            serial,
            ecc_share
        ));
        overheads.push(reap);
    }

    println!();
    println!(
        "average REAP overhead {:>+7.2}%   (paper: +2.7%)",
        arithmetic_mean(&overheads)
    );
    let min = overheads.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = overheads.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    println!("best case             {min:>+7.2}%   (paper: +1.0%, xalancbmk)");
    println!("worst case            {max:>+7.2}%   (paper: +6.5%, cactusADM)");

    print_csv(
        "workload,reap_pct,restore_pct,serial_pct,ecc_share_pct",
        &rows,
    );
}
