//! Support library for the paper-figure regenerators in `src/bin/`.
//!
//! Each binary regenerates one table or figure of the paper (see
//! `DESIGN.md` §4 for the experiment index) and prints a small
//! space-aligned table plus a CSV block that plotting scripts can consume.
//!
//! The access budget is configurable through the `REAP_ACCESSES`
//! environment variable (default 4 000 000 measured accesses per
//! workload) — larger budgets sharpen the tails of the concealed-read
//! distribution at proportional runtime cost.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use reap_core::{pool_map_supervised, Experiment, ProtectionScheme, Report, SupervisorConfig};
use reap_trace::SpecWorkload;
use std::ops::ControlFlow;

/// Default measured accesses per workload — ~10× the original budget,
/// affordable now that captures are stored compressed and replayed
/// streaming.
pub const DEFAULT_ACCESSES: u64 = 4_000_000;

/// The seed all regenerators use, so published numbers are reproducible.
pub const DEFAULT_SEED: u64 = 2019;

/// Reads the access budget from `REAP_ACCESSES` (falls back to
/// [`DEFAULT_ACCESSES`]).
///
/// # Examples
///
/// ```
/// let n = reap_bench::access_budget();
/// assert!(n > 0);
/// ```
pub fn access_budget() -> u64 {
    std::env::var("REAP_ACCESSES")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n: &u64| n > 0)
        .unwrap_or(DEFAULT_ACCESSES)
}

/// Geometric mean of strictly positive values.
///
/// # Panics
///
/// Panics if `values` is empty or any value is not positive.
///
/// # Examples
///
/// ```
/// let g = reap_bench::geometric_mean(&[1.0, 100.0]);
/// assert!((g - 10.0).abs() < 1e-12);
/// ```
pub fn geometric_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "need at least one value");
    assert!(values.iter().all(|&v| v > 0.0), "values must be positive");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Arithmetic mean.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn arithmetic_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "need at least one value");
    values.iter().sum::<f64>() / values.len() as f64
}

/// Prints a CSV block with a marker line so downstream tooling can find it.
pub fn print_csv(header: &str, rows: &[String]) {
    println!();
    println!("# CSV");
    println!("{header}");
    for r in rows {
        println!("{r}");
    }
}

/// A Fig. 3 normalized frequency as its table cell (16 wide, 4
/// decimals) and its CSV cell (6 decimals). Without an N = 1 population
/// to normalize by there is no frequency: the table shows `-` and the
/// CSV cell is empty.
pub fn frequency_cells(freq: Option<f64>) -> (String, String) {
    match freq {
        Some(f) => (format!("{f:>16.4}"), format!("{f:.6}")),
        None => (format!("{:>16}", "-"), String::new()),
    }
}

/// The paper-hierarchy report of each of `workloads` at `accesses`
/// measured accesses and [`DEFAULT_SEED`], in input order: the Table I
/// runs of `fig3`, `fig5`, `fig6`, `ablation_schemes` and
/// `extension_writeback`. Each is one [`Experiment::run`], scored
/// through [`Experiment::score`](reap_core::Experiment::score), on the
/// supervised pool over the machine's cores (simulations are
/// independent and deterministic, so scheduling never changes results).
///
/// # Panics
///
/// Panics if a workload fails every attempt — the paper configuration
/// is valid, so that is a bug in the simulation stack.
pub fn paper_reports(workloads: &[SpecWorkload], accesses: u64) -> Vec<(SpecWorkload, Report)> {
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let batch: Vec<Experiment> = workloads
        .iter()
        .map(|&w| {
            Experiment::paper_hierarchy()
                .workload(w)
                .accesses(accesses)
                .seed(DEFAULT_SEED)
        })
        .collect();
    let outcomes = pool_map_supervised(
        batch,
        parallelism,
        "run_parallel",
        &SupervisorConfig::default(),
        || (),
        |_, experiment| experiment.run(),
        |_, _| ControlFlow::Continue(()),
    );
    workloads
        .iter()
        .zip(outcomes)
        .map(|(&w, outcome)| {
            let report = outcome.result.expect("supervised run");
            (w, report.expect("paper configuration is valid"))
        })
        .collect()
}

/// Arms the global telemetry for a regenerator run, so capture/replay
/// phase timings accumulate in [`reap_obs::global`] as the experiment
/// runs. Resets the registry first so the totals cover this process only.
pub fn enable_telemetry() {
    reap_obs::global().reset();
    reap_obs::set_enabled(true);
}

/// The capture/replay wall-clock split of a two-phase experiment, read
/// back from the global telemetry (see [`enable_telemetry`]).
///
/// The `capture` and `replay_batch` spans and the
/// `sim.replay_batch.points` counter are recorded by the capture pass
/// and the batched kernel themselves (or by an experiment's own
/// `reap_obs::span("capture")` blocks for hand-rolled capture passes),
/// so regenerators never stopwatch the phases by hand.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoPhaseSummary {
    /// Total seconds spent in capture passes.
    pub capture_s: f64,
    /// Total seconds spent replaying analysis points.
    pub replay_s: f64,
    /// Number of capture passes.
    pub captures: u64,
    /// Number of replayed analysis points.
    pub replays: u64,
}

impl TwoPhaseSummary {
    /// Reads the phase totals out of the global registry.
    pub fn from_global() -> Self {
        let registry = reap_obs::global();
        Self {
            capture_s: registry.span_seconds("capture"),
            replay_s: registry.span_seconds("replay_batch"),
            captures: registry.span_count("capture"),
            replays: registry.counter("sim.replay_batch.points").get(),
        }
    }

    /// Estimated cost of running every replayed point from scratch: the
    /// mean capture cost times the number of points.
    pub fn estimated_single_pass_s(&self) -> f64 {
        if self.captures == 0 {
            return 0.0;
        }
        self.capture_s / self.captures as f64 * self.replays as f64
    }

    /// Speedup of the two-phase run over the estimated from-scratch cost.
    pub fn speedup(&self) -> f64 {
        let actual = self.capture_s + self.replay_s;
        if actual <= 0.0 {
            return 1.0;
        }
        self.estimated_single_pass_s() / actual
    }
}

/// Prints the "Two-phase cost" line the capture/replay regenerators share,
/// from the globally accumulated phase spans.
pub fn print_two_phase_summary() {
    let s = TwoPhaseSummary::from_global();
    println!(
        "Two-phase cost: {:.2} s capturing + {:.2} s replaying {} points \
         (vs ≈{:.2} s for {} from-scratch runs — {:.1}x speedup)",
        s.capture_s,
        s.replay_s,
        s.replays,
        s.estimated_single_pass_s(),
        s.replays,
        s.speedup()
    );
}

/// Peak resident-set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`), or `None` off Linux or when the file is
/// unreadable. Benchmarks report it as the honest memory cost of a
/// phase; pair with [`reset_peak_rss`] to scope it to one phase.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Resets the kernel's peak-RSS watermark (`VmHWM`) by writing `5` to
/// `/proc/self/clear_refs`, so a subsequent [`peak_rss_bytes`] reflects
/// only allocations made after this call. Returns `false` (and changes
/// nothing) where the knob is unavailable or not permitted.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", b"5").is_ok()
}

/// The Fig. 5 metric for a report.
pub fn mttf_gain(report: &Report) -> f64 {
    report.mttf_improvement(ProtectionScheme::Reap)
}

/// The Fig. 6 metric for a report (percent).
pub fn energy_overhead_percent(report: &Report) -> f64 {
    100.0 * report.energy_overhead(ProtectionScheme::Reap)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometric_mean_basics() {
        assert!((geometric_mean(&[4.0]) - 4.0).abs() < 1e-12);
        assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geometric_mean_rejects_nonpositive() {
        let _ = geometric_mean(&[1.0, 0.0]);
    }

    #[test]
    fn a_missing_frequency_prints_a_dash_and_an_empty_csv_cell() {
        assert_eq!(
            frequency_cells(Some(12.5)),
            (format!("{:>16}", "12.5000"), "12.500000".to_owned())
        );
        assert_eq!(
            frequency_cells(None),
            (format!("{:>16}", "-"), String::new())
        );
    }

    #[test]
    fn arithmetic_mean_basics() {
        assert!((arithmetic_mean(&[1.0, 3.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn budget_defaults_when_unset() {
        // The test environment does not set REAP_ACCESSES.
        if std::env::var("REAP_ACCESSES").is_err() {
            assert_eq!(access_budget(), DEFAULT_ACCESSES);
        }
    }

    #[test]
    fn paper_reports_keep_input_order() {
        let workloads = [SpecWorkload::Hmmer, SpecWorkload::Mcf];
        let reports = paper_reports(&workloads, 20_000);
        assert_eq!(reports.len(), 2);
        for (&want, (got, r)) in workloads.iter().zip(&reports) {
            assert_eq!(*got, want);
            assert!(mttf_gain(r) >= 1.0);
            assert!(energy_overhead_percent(r) >= 0.0);
        }
    }
}
