//! High-level experiment builder — the one-call entry point.

use crate::capture::{ExposureCapture, TalliedCapture};
use crate::capture_store::{self, CapturePolicy, CaptureStore};
use crate::report::Report;
use crate::simulator::{EccStrength, SimulationConfig, SimulationError, Simulator};
use reap_cache::{HierarchyConfig, Replacement};
use reap_mtj::MtjParams;
use reap_reliability::{AccumulationModel, MultiReplayAggregator};
use reap_trace::SpecWorkload;
use std::fmt;

/// Builder that configures and runs one simulation of one workload.
///
/// # Examples
///
/// ```
/// use reap_core::{Experiment, ProtectionScheme};
/// use reap_trace::SpecWorkload;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let report = Experiment::paper_hierarchy()
///     .workload(SpecWorkload::Calculix)
///     .accesses(60_000)
///     .seed(3)
///     .run()?;
/// println!("{:.1}x", report.mttf_improvement(ProtectionScheme::Reap));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Experiment {
    config: SimulationConfig,
    workload: SpecWorkload,
    seed: u64,
}

impl Experiment {
    /// Starts from the paper's Table I setup: 32 KB 4-way L1I/L1D, 1 MB
    /// 8-way STT-MRAM L2, LRU, SEC, 22 nm, default MTJ card.
    pub fn paper_hierarchy() -> Self {
        Self {
            config: SimulationConfig::default(),
            workload: SpecWorkload::Perlbench,
            seed: 1,
        }
    }

    /// Selects the workload profile.
    pub fn workload(mut self, workload: SpecWorkload) -> Self {
        self.workload = workload;
        self
    }

    /// Sets the measured access budget; warm-up defaults to 10 % of it.
    pub fn accesses(mut self, measure: u64) -> Self {
        self.config.measure_accesses = measure;
        self.config.warmup_accesses = measure / 10;
        self
    }

    /// Overrides warm-up and measurement budgets independently.
    pub fn budgets(mut self, warmup: u64, measure: u64) -> Self {
        self.config.warmup_accesses = warmup;
        self.config.measure_accesses = measure;
        self
    }

    /// Sets the trace seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the cache hierarchy.
    pub fn hierarchy(mut self, hierarchy: HierarchyConfig) -> Self {
        self.config.hierarchy = hierarchy;
        self
    }

    /// Replaces the replacement policy.
    pub fn replacement(mut self, replacement: Replacement) -> Self {
        self.config.replacement = replacement;
        self
    }

    /// Replaces the MTJ parameter card.
    pub fn mtj(mut self, mtj: MtjParams) -> Self {
        self.config.mtj = mtj;
        self
    }

    /// Selects the L2 ECC strength.
    pub fn ecc(mut self, ecc: EccStrength) -> Self {
        self.config.ecc = ecc;
        self
    }

    /// Sets the L2 scrub period in measured accesses (0 = no scrubbing).
    /// Behavioural: captures are pinned to it.
    pub fn scrub(mut self, period: u64) -> Self {
        self.config.scrub_period = period;
        self
    }

    /// Immutable view of the underlying simulation configuration.
    pub fn config(&self) -> &SimulationConfig {
        &self.config
    }

    /// Runs the experiment: [`run_with`](Self::run_with) without a
    /// store, so the capture streams into a scoped entry.
    ///
    /// # Errors
    ///
    /// Returns [`ExperimentError`] when the configuration cannot be
    /// instantiated (bad geometry, unsupported node, zero budget).
    pub fn run(self) -> Result<Report, ExperimentError> {
        self.run_with(None)
    }

    /// Runs the experiment, sourcing the exposure capture from `store`
    /// when one is given — bit-identical whether the capture came from
    /// disk or a fresh trace pass, and to the single-pass oracle
    /// [`Simulator::run_single_pass`].
    ///
    /// # Errors
    ///
    /// Returns [`ExperimentError`] when the configuration cannot be
    /// instantiated (bad geometry, unsupported node, zero budget). Store
    /// defects are never errors: they fall back to recapture.
    pub fn run_with(self, store: Option<&CaptureStore>) -> Result<Report, ExperimentError> {
        let points = self.simulators_at(&[self.config.ecc])?;
        let mut reports = self.run_at(&points, store, &mut None)?;
        Ok(reports.pop().expect("one point in, one report out"))
    }

    /// Captures once ([`capture_with`](Self::capture_with): from `store`
    /// when it holds the entry, else a trace pass) and scores the capture
    /// at every simulator in `points` through the caller's `kernel`
    /// ([`score`](Self::score)): the body of [`run_with`](Self::run_with),
    /// every sweep job and every explore task. Each report is
    /// bit-identical to a [`run`](Self::run) at its point alone.
    ///
    /// # Errors
    ///
    /// As [`score`](Self::score) and [`capture_with`](Self::capture_with).
    pub fn run_at(
        &self,
        points: &[Simulator],
        store: Option<&CaptureStore>,
        kernel: &mut Option<MultiReplayAggregator>,
    ) -> Result<Vec<Report>, ExperimentError> {
        Ok(self.run_tallied(points, store, kernel)?.0)
    }

    /// [`run_at`](Self::run_at) that also hands back the capture reduced
    /// to its cells ([`Simulator::tally_batch_into`]), so points of the
    /// same stored widths can be scored later without the capture
    /// ([`Simulator::replay_tallied`]).
    ///
    /// # Errors
    ///
    /// As [`run_at`](Self::run_at).
    pub(crate) fn run_tallied(
        &self,
        points: &[Simulator],
        store: Option<&CaptureStore>,
        kernel: &mut Option<MultiReplayAggregator>,
    ) -> Result<(Vec<Report>, TalliedCapture), ExperimentError> {
        let capture = self.capture_with(store)?;
        self.score_tallied(points, &capture, store, kernel)
    }

    /// One simulator per strength in `strengths`, each this experiment's
    /// configuration at that ECC — the analysis points a batched replay
    /// of one capture scores.
    ///
    /// # Errors
    ///
    /// Returns [`ExperimentError`] when a configuration cannot be
    /// instantiated.
    pub fn simulators_at(
        &self,
        strengths: &[EccStrength],
    ) -> Result<Vec<Simulator>, ExperimentError> {
        strengths
            .iter()
            .map(|&ecc| {
                let mut config = self.config.clone();
                config.ecc = ecc;
                Ok(Simulator::new(config)?)
            })
            .collect()
    }

    /// The one scoring body: replays `capture` — this experiment's, from
    /// `store` or a trace pass — at every simulator in `points` in one
    /// batched pass, returning a report per point in input order.
    ///
    /// `kernel` is the caller's reusable replay kernel, rebuilt only when
    /// `points` differ from the ones it was built for; `&mut None` is a
    /// one-off replay. The reports are bit-identical either way.
    ///
    /// This is also the one recovery body for a capture that fails while
    /// it is replayed: an entry that vanished, or a frame that fails its
    /// checksum (loads check only the header). That is never an error.
    /// The defect is reported on stderr and the points are scored again
    /// from a fresh capture, which never re-reads the entry found rotten.
    /// A store-backed capture counts a `capture_store.invalid`, and under
    /// a `ReadWrite` store the fresh capture streams straight into its
    /// entry, as a miss does; a failed write only warns. Otherwise the
    /// fresh capture streams into a scoped entry.
    ///
    /// # Errors
    ///
    /// Returns [`ExperimentError`] when a point's behavioural
    /// configuration differs from the capture's, or the recapture fails.
    pub fn score(
        &self,
        points: &[Simulator],
        capture: &ExposureCapture,
        store: Option<&CaptureStore>,
        kernel: &mut Option<MultiReplayAggregator>,
    ) -> Result<Vec<Report>, ExperimentError> {
        Ok(self.score_tallied(points, capture, store, kernel)?.0)
    }

    /// [`score`](Self::score), handing back the scored capture's cells.
    fn score_tallied(
        &self,
        points: &[Simulator],
        capture: &ExposureCapture,
        store: Option<&CaptureStore>,
        kernel: &mut Option<MultiReplayAggregator>,
    ) -> Result<(Vec<Report>, TalliedCapture), ExperimentError> {
        let defect = match replay_reusing(points, capture, kernel) {
            Err(SimulationError::CaptureStream(defect)) => defect,
            other => return Ok(other?),
        };
        capture_store::warn(format_args!(
            "capture failed mid-replay ({defect}); recapturing"
        ));
        if !capture.is_scoped() {
            capture_store::bump("capture_store.invalid");
        }
        let fresh = match store.filter(|s| s.policy() == CapturePolicy::ReadWrite) {
            Some(store) if !capture.is_scoped() => {
                let sim = Simulator::new(self.config.clone())?;
                store.capture_to_entry(&sim, self.workload, self.seed)?
            }
            _ => self.capture_with(None)?,
        };
        Ok(replay_reusing(points, &fresh, kernel)?)
    }

    /// Phase 1: the exposure capture of this experiment's workload and
    /// seed, served from `store` when it has a matching entry, otherwise
    /// a trace pass through the hierarchy (persisted under a read-write
    /// policy, else streamed into a scoped entry). Any experiment that
    /// shares the behavioural configuration can score it through
    /// [`score`](Self::score).
    ///
    /// # Errors
    ///
    /// Returns [`ExperimentError`] when the configuration cannot be
    /// instantiated (bad geometry, unsupported node, zero budget). Store
    /// defects are never errors: they fall back to recapture.
    pub fn capture_with(
        &self,
        store: Option<&CaptureStore>,
    ) -> Result<ExposureCapture, ExperimentError> {
        let sim = Simulator::new(self.config.clone())?;
        let capture = match store {
            Some(store) => store.load_or_capture(&sim, self.workload, self.seed)?,
            None => sim.capture(self.workload.stream(self.seed))?,
        };
        Ok(capture)
    }
}

/// Replays `capture` at `points` through `kernel` ([`kernel_for`]).
fn replay_reusing(
    points: &[Simulator],
    capture: &ExposureCapture,
    kernel: &mut Option<MultiReplayAggregator>,
) -> Result<(Vec<Report>, TalliedCapture), SimulationError> {
    let wanted = Simulator::batch_kernel_points(points, capture);
    Simulator::tally_batch_into(points, capture, kernel_for(kernel, wanted))
}

/// The caller's reusable kernel for the analysis points `wanted`,
/// rebuilt only when it was built for others. The old kernel is freed
/// before the new one is allocated, so a caller never holds two memos.
pub(crate) fn kernel_for(
    kernel: &mut Option<MultiReplayAggregator>,
    wanted: Vec<(AccumulationModel, u32)>,
) -> &mut MultiReplayAggregator {
    if !kernel.as_ref().is_some_and(|k| k.matches_points(&wanted)) {
        *kernel = None;
        *kernel = Some(MultiReplayAggregator::new(wanted));
    }
    kernel.as_mut().expect("kernel was just built")
}

/// Error raised by [`Experiment::run`].
#[derive(Debug)]
pub struct ExperimentError {
    inner: SimulationError,
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "experiment failed: {}", self.inner)
    }
}

impl std::error::Error for ExperimentError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.inner)
    }
}

impl From<SimulationError> for ExperimentError {
    fn from(inner: SimulationError) -> Self {
        Self { inner }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::ProtectionScheme;

    #[test]
    fn builder_round_trips_settings() {
        let e = Experiment::paper_hierarchy()
            .workload(SpecWorkload::Lbm)
            .accesses(10_000)
            .seed(99)
            .ecc(EccStrength::Dec);
        assert_eq!(e.workload, SpecWorkload::Lbm);
        assert_eq!(e.config().measure_accesses, 10_000);
        assert_eq!(e.config().warmup_accesses, 1_000);
        assert_eq!(e.config().ecc, EccStrength::Dec);
    }

    #[test]
    fn quick_run_produces_sane_report() {
        let report = Experiment::paper_hierarchy()
            .workload(SpecWorkload::Hmmer)
            .budgets(1_000, 20_000)
            .seed(5)
            .run()
            .unwrap();
        assert!(report.l2_stats().accesses() > 0);
        assert!(report.mttf_improvement(ProtectionScheme::Reap) >= 1.0);
    }

    #[test]
    fn zero_budget_is_an_error() {
        let err = Experiment::paper_hierarchy()
            .budgets(0, 0)
            .run()
            .unwrap_err();
        assert!(err.to_string().contains("experiment failed"));
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn capture_then_score_matches_run_and_the_single_pass() {
        let experiment = Experiment::paper_hierarchy()
            .workload(SpecWorkload::Hmmer)
            .budgets(1_000, 20_000)
            .seed(5);
        let capture = experiment.capture_with(None).unwrap();
        let points = experiment.simulators_at(&[EccStrength::Sec]).unwrap();
        let scored = experiment
            .score(&points, &capture, None, &mut None)
            .unwrap()
            .pop()
            .unwrap();
        let single = points[0]
            .run_single_pass(SpecWorkload::Hmmer.stream(5))
            .unwrap();
        let direct = experiment.run().unwrap();
        for want in [&single, &direct] {
            for scheme in ProtectionScheme::ALL {
                assert_eq!(
                    scored.expected_failures(scheme).to_bits(),
                    want.expected_failures(scheme).to_bits()
                );
            }
            assert_eq!(scored.l2_stats(), want.l2_stats());
        }
    }

    #[test]
    fn ecc_sweep_matches_direct_runs_bit_for_bit() {
        let experiment = Experiment::paper_hierarchy()
            .workload(SpecWorkload::Namd)
            .budgets(1_000, 15_000)
            .seed(7);
        let points = experiment.simulators_at(&EccStrength::ALL).unwrap();
        let swept = experiment.run_at(&points, None, &mut None).unwrap();
        assert_eq!(swept.len(), EccStrength::ALL.len());
        for (ecc, report) in EccStrength::ALL.into_iter().zip(swept) {
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

    #[test]
    fn stronger_ecc_reduces_failures() {
        let run = |ecc| {
            Experiment::paper_hierarchy()
                .workload(SpecWorkload::Namd)
                .budgets(2_000, 30_000)
                .seed(7)
                .ecc(ecc)
                .run()
                .unwrap()
                .expected_failures(ProtectionScheme::Conventional)
        };
        let sec = run(EccStrength::Sec);
        let dec = run(EccStrength::Dec);
        assert!(
            dec < sec / 100.0,
            "DEC {dec} should be orders below SEC {sec}"
        );
    }
}
