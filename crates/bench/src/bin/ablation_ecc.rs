//! Ablation **A1**: ECC strength sweep. The paper's introduction
//! motivates "aggressive ECCs"; this experiment quantifies how far DEC/TEC
//! codes push the conventional cache, and shows REAP + SEC still wins at
//! far lower check-bit cost in the high-accumulation regime.
//!
//! Runs two-phase: one exposure capture per workload, scored at every ECC
//! strength in one batched replay — the results are bit-identical to
//! per-point runs (the replay-equivalence property tests enforce this), at
//! roughly a third of the trace-driving cost.

use reap_bench::{access_budget, enable_telemetry, print_csv, print_two_phase_summary};
use reap_core::sweep::replay_ecc_sweep;
use reap_core::{Experiment, ProtectionScheme};
use reap_trace::SpecWorkload;

fn main() {
    enable_telemetry();
    let accesses = access_budget().min(2_000_000);
    let workloads = [
        SpecWorkload::Namd,
        SpecWorkload::Perlbench,
        SpecWorkload::Mcf,
    ];
    println!("Ablation A1 — ECC strength sweep ({accesses} accesses per capture)");
    println!();
    println!(
        "{:<12} {:>5} {:>7} {:>16} {:>16} {:>12}",
        "workload", "ECC", "check", "E[fail] conv", "E[fail] REAP", "REAP gain"
    );
    let mut rows = Vec::new();
    for w in workloads {
        let base = Experiment::paper_hierarchy()
            .workload(w)
            .accesses(accesses)
            .seed(2019);
        for (ecc, report) in replay_ecc_sweep(&base).expect("valid configuration") {
            let conv = report.expected_failures(ProtectionScheme::Conventional);
            let reap = report.expected_failures(ProtectionScheme::Reap);
            let gain = report.mttf_improvement(ProtectionScheme::Reap);
            let check = ecc.build_code(512).expect("fits").check_bits();
            println!(
                "{:<12} {:>5} {:>7} {:>16.3e} {:>16.3e} {:>11.1}x",
                w.name(),
                ecc.to_string(),
                check,
                conv,
                reap,
                gain
            );
            rows.push(format!(
                "{},{},{},{:.6e},{:.6e},{:.3}",
                w.name(),
                ecc,
                check,
                conv,
                reap,
                gain
            ));
        }
    }
    println!();
    print_two_phase_summary();
    println!();
    println!(
        "Reading: stronger codes reduce absolute failure mass dramatically, but \
         accumulation still costs the conventional design a factor that grows \
         with N^t — REAP removes it at constant (replicated-decoder) cost."
    );
    print_csv(
        "workload,ecc,check_bits,fail_conventional,fail_reap,reap_gain",
        &rows,
    );
}
