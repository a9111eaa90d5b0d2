//! Regenerates **Fig. 3**: the frequency of concealed-read counts and
//! their contribution to the cache failure rate, for the paper's four
//! exemplary workloads (perlbench, calculix, h264ref, dealII).
//!
//! Axis conventions follow the paper: the frequency axis is normalized so
//! the "no concealed reads" (N = 1) population reads 100; both axes are
//! log-scale quantities, so bins are powers of two.

use reap_bench::{access_budget, frequency_cells, paper_reports, print_csv};
use reap_trace::SpecWorkload;

fn main() {
    let accesses = access_budget();
    let workloads = [
        SpecWorkload::Perlbench,
        SpecWorkload::Calculix,
        SpecWorkload::H264ref,
        SpecWorkload::DealII,
    ];
    let mut rows = Vec::new();
    for (w, report) in paper_reports(&workloads, accesses) {
        let hist = report.histogram();
        println!(
            "Fig. 3({}) — {} ({} measured accesses)",
            w.name(),
            w,
            accesses
        );
        println!(
            "{:>16} {:>12} {:>16} {:>18}",
            "N range", "events", "freq (N=1=100)", "P(fail) contrib"
        );
        for (i, bin) in hist.bins().enumerate() {
            if bin.count == 0 {
                continue;
            }
            let (freq, freq_csv) = frequency_cells(hist.normalized_frequency(i));
            println!(
                "{:>7}..{:<7} {:>12} {freq} {:>18.3e}",
                bin.lo, bin.hi, bin.count, bin.failure_probability
            );
            rows.push(format!(
                "{},{},{},{},{},{:.6e}",
                w.name(),
                bin.lo,
                bin.hi,
                bin.count,
                freq_csv,
                bin.failure_probability
            ));
        }
        // The paper's headline observation: the high-N bins dominate the
        // failure rate despite their rarity.
        let bins: Vec<_> = hist.bins().collect();
        let split = bins.len() / 2;
        let low: f64 = bins[..split].iter().map(|b| b.failure_probability).sum();
        let high: f64 = bins[split..].iter().map(|b| b.failure_probability).sum();
        let low_n: u64 = bins[..split].iter().map(|b| b.count).sum();
        let high_n: u64 = bins[split..].iter().map(|b| b.count).sum();
        println!(
            "upper-half-N bins: {:.4}% of events, {:.1}% of failure probability",
            100.0 * high_n as f64 / (low_n + high_n).max(1) as f64,
            100.0 * high / (low + high).max(f64::MIN_POSITIVE)
        );
        println!("max N observed: {}", hist.max_n());
        println!();
    }
    print_csv(
        "workload,n_lo,n_hi,events,freq_norm100,failure_contribution",
        &rows,
    );
}
