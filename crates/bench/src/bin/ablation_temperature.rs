//! Ablation **A6**: operating temperature. STT-MRAM disturbance is
//! exponential in the thermal stability factor, which softens with die
//! temperature, so the accumulation problem explodes on a hot die. REAP's
//! relative gain is temperature-independent (it is set by the
//! concealed-read distribution), but the *absolute* margin it restores
//! decides whether a target FIT rate survives at `T_max`.
//!
//! Runs two-phase: the MTJ card only rescales the per-read disturbance
//! probability, so one exposure capture of the workload is scored at every
//! temperature point in one batched replay — bit-identical to per-point
//! runs, paying the trace cost once instead of five times.

use reap_bench::{
    access_budget, enable_telemetry, print_csv, print_two_phase_summary, DEFAULT_SEED,
};
use reap_core::{Experiment, ProtectionScheme, Simulator};
use reap_mtj::temperature::at_temperature;
use reap_mtj::{read_disturbance_probability, MtjParams};
use reap_trace::SpecWorkload;

fn main() {
    enable_telemetry();
    let accesses = access_budget().min(2_000_000);
    let nominal = MtjParams::default();
    let temperatures = [300.0, 320.0, 340.0, 360.0, 380.0];
    println!("Ablation A6 — die temperature (h264ref, {accesses} accesses)");
    println!();
    println!(
        "{:<8} {:>8} {:>12} {:>16} {:>14} {:>12}",
        "T (K)", "Delta", "P_rd", "E[fail] conv", "MTTF conv", "REAP gain"
    );
    let base = Experiment::paper_hierarchy()
        .workload(SpecWorkload::H264ref)
        .accesses(accesses)
        .seed(DEFAULT_SEED);
    let capture = base.capture().expect("valid configuration");
    let cards = temperatures.map(|t| at_temperature(&nominal, t).expect("within operating range"));
    let points = cards.map(|card| {
        Simulator::new(base.clone().mtj(card).config().clone()).expect("valid configuration")
    });
    let reports = Simulator::replay_batch(&points, &capture)
        .expect("capture shares the behavioural configuration");
    let mut rows = Vec::new();
    for ((t, card), report) in temperatures.into_iter().zip(cards).zip(reports) {
        let p_rd = read_disturbance_probability(&card);
        let conv = report.expected_failures(ProtectionScheme::Conventional);
        let gain = report.mttf_improvement(ProtectionScheme::Reap);
        let mttf = report.mttf(ProtectionScheme::Conventional);
        println!(
            "{:<8.0} {:>8.1} {:>12.3e} {:>16.3e} {:>14} {:>11.1}x",
            t,
            card.thermal_stability(),
            p_rd,
            conv,
            mttf.to_string(),
            gain
        );
        rows.push(format!(
            "{t},{:.2},{p_rd:.6e},{conv:.6e},{:.6e},{gain:.3}",
            card.thermal_stability(),
            mttf.as_seconds()
        ));
    }
    println!();
    print_two_phase_summary();
    println!();
    println!(
        "Reading: 80 K of heating costs several orders of magnitude of MTTF \
         in the conventional design; REAP's multiplicative gain moves the \
         whole curve up, buying back the thermal margin."
    );
    print_csv(
        "t_kelvin,delta,p_rd,fail_conventional,mttf_conv_seconds,reap_gain",
        &rows,
    );
}
