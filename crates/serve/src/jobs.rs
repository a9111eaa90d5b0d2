//! Job identity: what a submitted job computes and where it journals.
//!
//! A job is one full sweep (21 workloads) at a `(mode, accesses, seed)`
//! point — exactly the unit `reap sweep` runs offline. Its identity is
//! the `reap-checkpoint/1` fingerprint of that configuration, which
//! doubles as the journal filename: a resubmitted identical request
//! finds its own journal by construction, and a different configuration
//! cannot collide with it.

use reap_core::{CampaignConfig, SweepMode};
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
    /// The job id: the fingerprint of the journal its sweep campaign
    /// keeps ([`CampaignConfig::meta`]), as 16 hex digits.
    ///
    /// Retry/deadline overrides are deliberately excluded — they change
    /// how hard the daemon tries, never what the rows contain, so two
    /// submissions differing only in budgets share one journal.
    pub fn id(&self) -> String {
        let campaign = CampaignConfig::new(self.accesses, self.seed, self.mode, 1);
        format!("{:016x}", campaign.meta().fingerprint)
    }

    /// The job's journal path under `state_dir`.
    pub fn journal_path(&self, state_dir: &Path) -> PathBuf {
        state_dir.join(format!("job-{}.jsonl", self.id()))
    }
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
}
