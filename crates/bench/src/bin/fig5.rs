//! Regenerates **Fig. 5**: MTTF of REAP-cache normalized to the
//! conventional cache, per workload.
//!
//! Paper reference points: average 171x, worst case 7.9x (`mcf`), above
//! 1000x for `namd`, `dealII`, `h264ref`.

use reap_bench::{
    access_budget, arithmetic_mean, geometric_mean, mttf_gain, paper_reports, print_csv,
};
use reap_core::ProtectionScheme;
use reap_trace::SpecWorkload;

fn main() {
    let accesses = access_budget();
    println!("Fig. 5 — MTTF improvement of REAP over conventional");
    println!("({accesses} measured L1 accesses per workload, seed 2019)");
    println!();
    println!(
        "{:<12} {:>12} {:>14} {:>14}",
        "workload", "REAP gain", "serial gain", "mean N"
    );

    let mut gains = Vec::new();
    let mut rows = Vec::new();
    for (w, report) in paper_reports(&SpecWorkload::ALL, accesses) {
        let gain = mttf_gain(&report);
        let serial = report.mttf_improvement(ProtectionScheme::SerialTagFirst);
        let mean_n = report.l2_stats().concealed_per_access();
        println!(
            "{:<12} {:>11.1}x {:>13.1}x {:>14.2}",
            w.name(),
            gain,
            serial,
            mean_n
        );
        rows.push(format!(
            "{},{:.3},{:.3},{:.3}",
            w.name(),
            gain,
            serial,
            mean_n
        ));
        gains.push(gain);
    }

    println!();
    println!(
        "average (arithmetic) {:>8.1}x   (paper: 171x)",
        arithmetic_mean(&gains)
    );
    println!("average (geometric)  {:>8.1}x", geometric_mean(&gains));
    let min = gains.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = gains.iter().cloned().fold(0.0f64, f64::max);
    println!("worst case           {min:>8.1}x   (paper: 7.9x, mcf)");
    println!("best case            {max:>8.1}x   (paper: >1000x, namd/dealII/h264ref)");

    print_csv("workload,reap_gain,serial_gain,mean_concealed_reads", &rows);
}
