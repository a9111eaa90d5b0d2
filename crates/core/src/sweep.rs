//! ECC sweeps: one capture per workload, scored at every strength.
//!
//! The trace pass of an experiment does not depend on its ECC strength,
//! so [`replay_ecc_sweep`] captures once and scores all of
//! [`EccStrength::ALL`] in one batched replay. Fanning sweeps out over
//! workloads is the supervised pool's job ([`crate::supervise`]).

use crate::capture_store::CaptureStore;
use crate::experiment::{Experiment, ExperimentError};
use crate::report::Report;
use crate::simulator::EccStrength;

/// One capture, every ECC strength: runs the trace pass of `experiment`
/// once and scores the captured exposure stream at each strength in
/// [`EccStrength::ALL`] through the batched multi-point kernel
/// ([`Experiment::score`]), returning reports in that order.
///
/// Bit-identical to running each point from scratch; the trace is driven
/// once and the exposure stream is walked once for all strengths.
///
/// # Errors
///
/// Returns [`ExperimentError`] when the configuration cannot be
/// instantiated.
///
/// # Examples
///
/// ```
/// use reap_core::sweep::replay_ecc_sweep;
/// use reap_core::{Experiment, ProtectionScheme};
/// use reap_trace::SpecWorkload;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let experiment = Experiment::paper_hierarchy()
///     .workload(SpecWorkload::Hmmer)
///     .accesses(20_000);
/// let reports = replay_ecc_sweep(&experiment)?;
/// assert_eq!(reports.len(), 3);
/// # Ok(())
/// # }
/// ```
pub fn replay_ecc_sweep(
    experiment: &Experiment,
) -> Result<Vec<(EccStrength, Report)>, ExperimentError> {
    replay_ecc_sweep_with(experiment, None)
}

/// [`replay_ecc_sweep`] with an optional [`CaptureStore`]: a store hit
/// skips the trace pass entirely, and the replay stays bit-identical
/// (the format round-trips captures exactly).
///
/// # Errors
///
/// Returns [`ExperimentError`] when the configuration cannot be
/// instantiated. Store defects are never errors: they fall back to
/// recapture.
pub fn replay_ecc_sweep_with(
    experiment: &Experiment,
    store: Option<&CaptureStore>,
) -> Result<Vec<(EccStrength, Report)>, ExperimentError> {
    let capture = experiment.capture_with(store)?;
    let points = experiment.simulators_at(&EccStrength::ALL)?;
    let reports = experiment.score(&points, &capture, store, &mut None)?;
    Ok(EccStrength::ALL.into_iter().zip(reports).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::ProtectionScheme;
    use reap_trace::SpecWorkload;

    #[test]
    fn ecc_sweep_matches_direct_runs_bit_for_bit() {
        let experiment = Experiment::paper_hierarchy()
            .workload(SpecWorkload::Namd)
            .budgets(1_000, 15_000)
            .seed(7);
        let swept = replay_ecc_sweep(&experiment).unwrap();
        assert_eq!(swept.len(), EccStrength::ALL.len());
        for (ecc, report) in swept {
            let direct = experiment.clone().ecc(ecc).run().unwrap();
            for scheme in ProtectionScheme::ALL {
                assert_eq!(
                    report.expected_failures(scheme).to_bits(),
                    direct.expected_failures(scheme).to_bits(),
                    "replayed {ecc} must match a from-scratch run"
                );
            }
        }
    }
}
