//! Job identity and the job body shared by the daemon and its tests.
//!
//! A job is one full sweep (21 workloads) at a `(mode, accesses, seed)`
//! point — exactly the unit `reap sweep` runs offline. Its identity is
//! the `reap-checkpoint/1` fingerprint of that configuration, which
//! doubles as the journal filename: a resubmitted identical request
//! finds its own journal by construction, and a different configuration
//! cannot collide with it.

use crate::cache::HotCaptureCache;
use reap_core::capture_store::CaptureKey;
use reap_core::checkpoint::CheckpointMeta;
use reap_core::{CaptureStore, ExperimentError, SweepJob, SweepMode, SweepRow};
use reap_reliability::MultiReplayAggregator;
use reap_trace::SpecWorkload;
use std::path::{Path, PathBuf};

/// One submitted job: a full sweep at one configuration point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobSpec {
    /// Standard single-point sweep or the per-strength ECC sweep.
    pub mode: SweepMode,
    /// Measured accesses per workload.
    pub accesses: u64,
    /// Trace seed.
    pub seed: u64,
    /// Per-workload retry budget override (daemon default otherwise).
    pub max_retries: Option<u32>,
    /// Per-workload deadline override in milliseconds.
    pub deadline_ms: Option<u64>,
}

impl JobSpec {
    /// The canonical job list: every workload name, in sweep order.
    pub fn keys() -> Vec<String> {
        SpecWorkload::ALL
            .iter()
            .map(|w| w.name().to_owned())
            .collect()
    }

    /// The job's checkpoint meta record (mode, budgets, seed, job list).
    pub fn meta(&self) -> CheckpointMeta {
        CheckpointMeta::new(self.mode.tag(), self.accesses, self.seed, &Self::keys())
    }

    /// The job id: the checkpoint fingerprint as 16 hex digits.
    ///
    /// Retry/deadline overrides are deliberately excluded — they change
    /// how hard the daemon tries, never what the rows contain, so two
    /// submissions differing only in budgets share one journal.
    pub fn id(&self) -> String {
        format!("{:016x}", self.meta().fingerprint)
    }

    /// The job's journal path under `state_dir`.
    pub fn journal_path(&self, state_dir: &Path) -> PathBuf {
        state_dir.join(format!("job-{}.jsonl", self.id()))
    }
}

/// Computes one workload's rows for `spec`: the offline sweep's job
/// body ([`SweepJob`]), scored through the worker's reusable `kernel`.
///
/// The hot cache only changes where the capture comes from: the
/// in-memory [`HotCaptureCache`] (keyed by the capture store's content
/// fingerprint, single-flight), then the on-disk `store`, then a cold
/// trace capture. All three yield bit-identical rows; the property test
/// in `tests/` pins that. A cached capture whose entry rots is evicted
/// when replay finds the defect, before the job recaptures and heals the
/// entry ([`reap_core::Experiment::score`]).
///
/// # Errors
///
/// Returns [`ExperimentError`] when the configuration cannot be
/// instantiated. Capture-stream defects are never errors: they fall
/// back to a fresh capture, like the offline sweep.
pub fn compute_rows(
    workload: SpecWorkload,
    spec: &JobSpec,
    cache: Option<&HotCaptureCache>,
    store: Option<&CaptureStore>,
    kernel: &mut Option<MultiReplayAggregator>,
) -> Result<Vec<SweepRow>, ExperimentError> {
    let job = SweepJob {
        workload,
        accesses: spec.accesses,
        seed: spec.seed,
        mode: spec.mode,
    };
    let Some(cache) = cache else {
        return job.rows(store, kernel);
    };
    let experiment = job.experiment();
    let fingerprint = CaptureKey::new(workload, spec.seed, experiment.config()).fingerprint();
    let capture = cache.get_or_capture(fingerprint, || experiment.capture_with(store))?;
    job.score(&experiment, &capture, store, kernel, || {
        cache.evict(fingerprint)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(mode: SweepMode) -> JobSpec {
        JobSpec {
            mode,
            accesses: 2000,
            seed: 3,
            max_retries: None,
            deadline_ms: None,
        }
    }

    #[test]
    fn job_id_tracks_configuration_not_budgets() {
        let base = spec(SweepMode::EccSweep);
        assert_eq!(base.id(), base.id());
        assert_eq!(base.id().len(), 16);
        let with_budgets = JobSpec {
            max_retries: Some(9),
            deadline_ms: Some(1000),
            ..base
        };
        assert_eq!(base.id(), with_budgets.id(), "budgets don't change rows");
        for other in [
            spec(SweepMode::Standard),
            JobSpec {
                accesses: 2001,
                ..base
            },
            JobSpec { seed: 4, ..base },
        ] {
            assert_ne!(base.id(), other.id(), "{other:?}");
        }
    }

    #[test]
    fn journal_path_embeds_the_id() {
        let s = spec(SweepMode::Standard);
        let path = s.journal_path(Path::new("/tmp/state"));
        assert_eq!(
            path,
            Path::new("/tmp/state").join(format!("job-{}.jsonl", s.id()))
        );
    }

    #[test]
    fn hot_cached_rows_match_the_offline_path() {
        let s = spec(SweepMode::EccSweep);
        let workload = SpecWorkload::Hmmer;
        let offline = compute_rows(workload, &s, None, None, &mut None).unwrap();
        let cache = HotCaptureCache::new(4);
        let mut kernel = None;
        let cold = compute_rows(workload, &s, Some(&cache), None, &mut kernel).unwrap();
        let hot = compute_rows(workload, &s, Some(&cache), None, &mut kernel).unwrap();
        for (a, b) in offline.iter().zip(&cold).chain(offline.iter().zip(&hot)) {
            assert_eq!(a.ecc, b.ecc);
            assert_eq!(a.mttf_gain.to_bits(), b.mttf_gain.to_bits());
            assert_eq!(a.energy_overhead.to_bits(), b.energy_overhead.to_bits());
            assert_eq!(a.l2_hit_rate.to_bits(), b.l2_hit_rate.to_bits());
            assert_eq!(a.efail_conv.to_bits(), b.efail_conv.to_bits());
            assert_eq!(a.max_n, b.max_n);
        }
    }
}
