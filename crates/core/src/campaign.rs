//! Fault-tolerant task runs: supervision + checkpoint/resume.
//!
//! One task engine ([`TaskRunner`]) runs `reap sweep`, every `reap
//! serve` job and `reap explore`: journal groups of (configuration,
//! workload) tasks on the supervised pool ([`crate::supervise`]), so a
//! panic or hang in one task is retried, then reported, and each
//! finished group streams into a [`crate::checkpoint`] journal, so a
//! killed run resumes where it stopped. [`run_sweep_campaign`] is its
//! 21-workload Fig. 5/6 preset, one [`SweepJob`] per group, where a
//! failed workload is isolated, never fatal to the batch. A resumed
//! run's rows are **bit-identical** to an uninterrupted run's: each task
//! depends only on its own configuration and seed, a group folds its
//! tasks in task order, and checkpointed floats round-trip exactly.
//!
//! The [`reap_fault::FaultPlan`] armed through
//! [`SupervisorConfig::fault_plan`] drives all of this machinery in
//! tests and the CI smoke job: injected panics exercise retry and
//! isolation, injected delays exercise deadlines, and
//! `interrupt_after` simulates a mid-run `SIGKILL` after a deterministic
//! number of journaled groups (each group's line is flushed before the
//! next one is counted).

use crate::capture_store::CaptureStore;
use crate::checkpoint::{self, CheckpointMeta, OpenJournal, SweepRow};
use crate::experiment::{Experiment, ExperimentError};
use crate::simulator::EccStrength;
use crate::supervise::{pool_map_supervised, JobError, JobOutcome, SupervisorConfig};
use reap_obs::json;
use reap_reliability::MultiReplayAggregator;
use reap_trace::SpecWorkload;
use std::error::Error;
use std::fmt;
use std::ops::ControlFlow;
use std::path::{Path, PathBuf};

pub use crate::checkpoint::CheckpointError;

/// Which sweep the campaign runs: its checkpoint and wire tag, and the
/// analysis points each workload is scored at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepMode {
    /// One point per workload, at the configured ECC (Fig. 5/6 table).
    Standard,
    /// One capture per workload, scored at every [`EccStrength`].
    EccSweep,
}

impl SweepMode {
    /// The tag stored in checkpoint meta records.
    pub fn tag(self) -> &'static str {
        match self {
            SweepMode::Standard => "standard",
            SweepMode::EccSweep => "ecc-sweep",
        }
    }

    /// The ECC strengths one workload is scored at: the configured one,
    /// or all of [`EccStrength::ALL`].
    pub fn points(self, configured: EccStrength) -> Vec<EccStrength> {
        match self {
            SweepMode::Standard => vec![configured],
            SweepMode::EccSweep => EccStrength::ALL.to_vec(),
        }
    }
}

/// One workload of a sweep — the job `reap sweep` and `reap serve` both
/// run, and the unit a sweep journal records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepJob {
    /// The workload profile.
    pub workload: SpecWorkload,
    /// Measured accesses.
    pub accesses: u64,
    /// Trace seed.
    pub seed: u64,
    /// Which points the rows cover.
    pub mode: SweepMode,
}

impl SweepJob {
    /// The sweep job body: scores the paper hierarchy's capture at the
    /// job's workload, budget and seed — the one `store` serves, or a
    /// fresh trace pass — at every point of the job's mode in one batched
    /// replay through the caller's reusable `kernel`. A capture that
    /// fails mid-replay is recaptured, into its store entry when the
    /// store may write ([`Experiment::score`]).
    ///
    /// # Errors
    ///
    /// As [`Experiment::run_at`]; store defects fall back to recapture.
    pub fn rows(
        &self,
        store: Option<&CaptureStore>,
        kernel: &mut Option<MultiReplayAggregator>,
    ) -> Result<Vec<SweepRow>, ExperimentError> {
        let experiment = Experiment::paper_hierarchy()
            .workload(self.workload)
            .accesses(self.accesses)
            .seed(self.seed);
        let strengths = self.mode.points(experiment.config().ecc);
        let points = experiment.simulators_at(&strengths)?;
        let reports = experiment.run_at(&points, store, kernel)?;
        // A standard row's strength is the configuration's, so it
        // carries none.
        let tagged = self.mode == SweepMode::EccSweep;
        Ok(strengths
            .into_iter()
            .zip(reports)
            .map(|(ecc, report)| SweepRow::from_report(tagged.then_some(ecc), &report))
            .collect())
    }
}

/// Full configuration of one campaign.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Measured accesses per workload.
    pub accesses: u64,
    /// Trace seed.
    pub seed: u64,
    /// Sweep shape.
    pub mode: SweepMode,
    /// Pool width.
    pub parallelism: usize,
    /// Supervision policy (retries, backoff, deadline, fault plan).
    pub supervisor: SupervisorConfig,
    /// Checkpoint file; `None` disables checkpointing.
    pub checkpoint: Option<PathBuf>,
    /// Skip jobs already present in the checkpoint instead of truncating
    /// it.
    pub resume: bool,
    /// Persistent exposure-capture cache; `None` recaptures every run.
    pub capture_store: Option<CaptureStore>,
}

impl CampaignConfig {
    /// A plain campaign with no checkpoint and default supervision.
    pub fn new(accesses: u64, seed: u64, mode: SweepMode, parallelism: usize) -> Self {
        Self {
            accesses,
            seed,
            mode,
            parallelism,
            supervisor: SupervisorConfig::default(),
            checkpoint: None,
            resume: false,
            capture_store: None,
        }
    }

    /// The campaign's checkpoint identity: its mode, budget, seed and the
    /// canonical workload list. Parallelism, supervision and the store
    /// never change the rows, so they are left out.
    pub fn meta(&self) -> CheckpointMeta {
        let keys: Vec<String> = SpecWorkload::ALL
            .iter()
            .map(|w| w.name().to_owned())
            .collect();
        CheckpointMeta::new(self.mode.tag(), self.accesses, self.seed, &keys)
    }
}

/// Why one workload produced no rows.
#[derive(Debug)]
pub enum JobFailure {
    /// The supervised pool gave up (panics, timeouts, cancellation).
    Supervision(JobError),
    /// The experiment itself rejected its configuration.
    Experiment(ExperimentError),
}

impl fmt::Display for JobFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobFailure::Supervision(e) => write!(f, "{e}"),
            JobFailure::Experiment(e) => write!(f, "{e}"),
        }
    }
}

impl Error for JobFailure {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            JobFailure::Supervision(e) => Some(e),
            JobFailure::Experiment(e) => Some(e),
        }
    }
}

/// One workload's final state in the campaign report.
#[derive(Debug)]
pub struct WorkloadOutcome {
    /// The workload.
    pub workload: SpecWorkload,
    /// Its rows, or why they are missing.
    pub result: Result<Vec<SweepRow>, JobFailure>,
    /// Attempts spent this run (0 when served from the checkpoint).
    pub attempts: u32,
    /// Whether the rows were loaded from the checkpoint.
    pub from_checkpoint: bool,
}

/// One workload as [`run_sweep_campaign`]'s hook sees it when it
/// becomes final, borrowed from the journal or from the pool's result.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadView<'a> {
    /// The workload.
    pub workload: SpecWorkload,
    /// Its rows, or why they are missing; the error prints as the
    /// returned [`WorkloadOutcome`]'s [`JobFailure`] does.
    pub result: Result<&'a [SweepRow], &'a (dyn Error + 'static)>,
    /// Whether the rows were loaded from the checkpoint.
    pub from_checkpoint: bool,
}

/// The campaign's aggregate result.
#[derive(Debug)]
pub struct CampaignOutcome {
    /// One outcome per workload, in canonical workload order.
    pub outcomes: Vec<WorkloadOutcome>,
    /// Jobs skipped because the checkpoint already had them.
    pub resumed: usize,
    /// Jobs that needed more than one attempt but succeeded.
    pub recovered: usize,
    /// Jobs that failed permanently (isolated, reported, not fatal).
    pub failed: usize,
    /// Human-readable checkpoint repair note (truncated tail dropped).
    pub checkpoint_warning: Option<String>,
}

/// Campaign-level failure: nothing useful was produced.
#[derive(Debug)]
#[non_exhaustive]
pub enum CampaignError {
    /// The checkpoint could not be created, read or trusted.
    Checkpoint(CheckpointError),
    /// The armed fault plan's `interrupt_after` fired — the simulated
    /// `SIGKILL`. Completed jobs are safe in the checkpoint.
    Interrupted {
        /// Jobs completed during this run before the interrupt.
        completed: usize,
        /// Jobs the run still had pending (including in-flight).
        remaining: usize,
    },
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Checkpoint(e) => write!(f, "{e}"),
            CampaignError::Interrupted {
                completed,
                remaining,
            } => write!(
                f,
                "campaign interrupted after {completed} jobs ({remaining} pending); \
                 resume with --resume"
            ),
        }
    }
}

impl Error for CampaignError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CampaignError::Checkpoint(e) => Some(e),
            CampaignError::Interrupted { .. } => None,
        }
    }
}

impl From<CheckpointError> for CampaignError {
    fn from(e: CheckpointError) -> Self {
        CampaignError::Checkpoint(e)
    }
}

/// One group's final state: its rows or its first failure in task
/// order, the most attempts one of its tasks spent, and whether it was
/// journaled before the run.
type GroupOutcome<R> = (Result<Vec<R>, JobFailure>, u32, bool);

/// The one task engine behind `reap sweep`, `reap serve` and both
/// passes of `reap explore` (DESIGN §8, "One task engine").
pub(crate) struct TaskRunner<R> {
    /// The journal, if any: the groups it held and no run has served
    /// yet, its writer and its repair warning.
    pub(crate) journal: Option<OpenJournal<R>>,
    encode: fn(&R) -> String,
    /// Groups journaled over all runs: the simulated kill's clock.
    done: usize,
}

impl<R> TaskRunner<R> {
    /// A runner over the journal at `checkpoint`, opened by
    /// [`checkpoint::open_journal`] with the row codec `parse`/`encode`.
    pub(crate) fn open(
        checkpoint: Option<&Path>,
        meta: &CheckpointMeta,
        resume: bool,
        parse: fn(&json::Value) -> Result<R, String>,
        encode: fn(&R) -> String,
    ) -> Result<Self, CheckpointError> {
        let journal = checkpoint
            .map(|path| checkpoint::open_journal(path, meta, resume, parse))
            .transpose()?;
        Ok(Self {
            journal,
            encode,
            done: 0,
        })
    }

    /// Runs `groups` (journal key, tasks) and returns their outcomes in
    /// input order. Journaled groups are served from the journal; the
    /// rest's tasks run on the pool, group-major, each reduced to its
    /// part by `task` on a worker. Once a group's last task lands,
    /// `fold(g, parts)` turns its parts, in task order, into rows, which
    /// are journaled. `on_group(g, result, from_checkpoint)` sees every
    /// journaled group, then each pooled one once journaled or at its
    /// first failure; a `Break` cancels the unfinished tasks, whose
    /// groups never reach it.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Interrupted`] once the fault plan's
    /// `interrupt_after` groups are journaled; like a killed process,
    /// the runner journals and reports nothing that lands after that.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run<T, P, F>(
        &mut self,
        groups: Vec<(String, Vec<T>)>,
        pool: &str,
        parallelism: usize,
        supervisor: &SupervisorConfig,
        task: F,
        fold: impl Fn(usize, Vec<P>) -> Vec<R>,
        mut on_group: impl FnMut(usize, Result<&[R], &(dyn Error + 'static)>, bool) -> ControlFlow<()>,
    ) -> Result<Vec<GroupOutcome<R>>, CampaignError>
    where
        T: Clone + Send + 'static,
        P: Clone + Send + 'static,
        F: Fn(&mut Option<MultiReplayAggregator>, T) -> Result<P, ExperimentError>
            + Send
            + Sync
            + 'static,
    {
        // Group `g` owns pool jobs `spans[g]`; its rows land in `rows[g]`.
        let (mut keys, mut spans, mut owner, mut jobs) = (vec![], vec![], vec![], vec![]);
        let (mut rows, mut stopped) = (vec![], false);
        for (g, (key, tasks)) in groups.into_iter().enumerate() {
            let held = self.journal.as_mut().and_then(|j| {
                let at = j.completed.iter().position(|(k, _)| *k == key)?;
                Some(j.completed.swap_remove(at).1)
            });
            let start = jobs.len();
            match &held {
                Some(held) => stopped |= on_group(g, Ok(held), true).is_break(),
                None => {
                    owner.extend(std::iter::repeat_n(g, tasks.len()));
                    jobs.extend(tasks);
                }
            }
            rows.push(held);
            keys.push(key);
            spans.push(start..jobs.len());
        }
        let interrupt_after = supervisor.fault_plan.and_then(|p| p.interrupt_after);
        let fired = move |done: usize| interrupt_after.is_some_and(|n| done as u64 >= n);
        let mut parts: Vec<Option<P>> = owner.iter().map(|_| None).collect();
        let mut failed = vec![false; spans.len()];
        let on_result = |i: usize, outcome: &JobOutcome<Result<P, ExperimentError>>| {
            // The simulated kill has fired: a killed process journals
            // nothing that lands after it.
            if fired(self.done) {
                return ControlFlow::Break(());
            }
            let (g, span) = (owner[i], spans[owner[i]].clone());
            let result = match &outcome.result {
                // A group is final at its first failure.
                _ if failed[g] => return ControlFlow::Continue(()),
                // Only a `Break` cancels, and it already stopped the run.
                Err(JobError::Cancelled) => return ControlFlow::Break(()),
                Err(e) => Err(e as &(dyn Error + 'static)),
                Ok(Err(e)) => Err(e as _),
                Ok(Ok(part)) => {
                    parts[i] = Some(part.clone());
                    if parts[span.clone()].iter().any(Option::is_none) {
                        return ControlFlow::Continue(());
                    }
                    let landed = parts[span].iter_mut().flat_map(Option::take).collect();
                    let folded = rows[g].insert(fold(g, landed));
                    if let Some(journal) = self.journal.as_mut() {
                        let encoded: Vec<String> = folded.iter().map(self.encode).collect();
                        // A journal write failure must not kill the run;
                        // the rows are still in memory.
                        if let Err(e) = journal.writer.record_json_rows(&keys[g], &encoded) {
                            eprintln!("warning: {e}");
                        }
                    }
                    self.done += 1;
                    Ok(&folded[..])
                }
            };
            failed[g] = result.is_err();
            if on_group(g, result, false).is_break() || fired(self.done) {
                return ControlFlow::Break(());
            }
            ControlFlow::Continue(())
        };
        if stopped {
            // A `Break` while the journal was served cancels every task.
            jobs.clear();
        }
        let workers = parallelism.max(1);
        let outcomes =
            pool_map_supervised(jobs, workers, pool, supervisor, || None, task, on_result);
        if fired(self.done) {
            return Err(CampaignError::Interrupted {
                completed: self.done,
                remaining: rows.iter().filter(|rows| rows.is_none()).count(),
            });
        }

        let mut outcomes = outcomes.into_iter();
        let outcomes = rows.into_iter().zip(spans).map(|(rows, span)| {
            // Only a journaled group has rows and no tasks.
            let from_checkpoint = rows.is_some() && span.is_empty();
            let tasks: Vec<_> = outcomes.by_ref().take(span.len()).collect();
            let attempts = tasks.iter().map(|o| o.attempts).max().unwrap_or(0);
            // A group without rows failed, or its tasks never ran.
            let result = rows.ok_or_else(|| {
                let failure = tasks.into_iter().find_map(|o| match o.result {
                    Ok(Ok(_)) => None,
                    Ok(Err(e)) => Some(JobFailure::Experiment(e)),
                    Err(e) => Some(JobFailure::Supervision(e)),
                });
                failure.unwrap_or(JobFailure::Supervision(JobError::Cancelled))
            });
            (result, attempts, from_checkpoint)
        });
        Ok(outcomes.collect())
    }
}

/// Runs the full 21-workload campaign under supervision, streaming
/// completed jobs into the checkpoint (when configured) and skipping
/// jobs the checkpoint already holds (when resuming): the
/// [`TaskRunner`] with one group of one [`SweepJob`] per workload.
///
/// `on_outcome` sees each workload as it becomes final: first every
/// journal-resumed one (`from_checkpoint`), in canonical order, then
/// each pool result as it lands, after that result is journaled.
/// Returning [`ControlFlow::Break`] cancels the workloads not yet
/// finished: unclaimed ones, and claimed ones between two retry
/// attempts. They come back as `JobFailure::Supervision(JobError::Cancelled)`
/// and never reach the hook. `reap sweep` passes
/// `|_| ControlFlow::Continue(())`; `reap serve` streams each outcome to
/// its client and breaks on cancel or drain.
///
/// Individual job failures are *not* errors: they come back as
/// [`WorkloadOutcome`]s with `result: Err(..)` so the caller reports them
/// alongside the surviving rows. The `Err` cases are campaign-fatal
/// only: an unusable checkpoint, or the armed fault plan's simulated
/// kill.
///
/// # Errors
///
/// Returns [`CampaignError::Checkpoint`] when the checkpoint file cannot
/// be created, parsed, or belongs to a different configuration (before
/// `on_outcome` first runs), and [`CampaignError::Interrupted`] when
/// fault injection stops the run.
pub fn run_sweep_campaign(
    config: &CampaignConfig,
    mut on_outcome: impl FnMut(WorkloadView<'_>) -> ControlFlow<()>,
) -> Result<CampaignOutcome, CampaignError> {
    // Campaign-level phase span: the pool span nests under it, so run
    // reports show checkpoint/supervision overhead as campaign minus
    // pool time.
    let _campaign_span = reap_obs::span("campaign");
    let mut runner = TaskRunner::open(
        config.checkpoint.as_deref(),
        &config.meta(),
        config.resume,
        checkpoint::row_from_json,
        checkpoint::row_to_json,
    )?;
    let groups = SpecWorkload::ALL
        .into_iter()
        .map(|workload| {
            let job = SweepJob {
                workload,
                accesses: config.accesses,
                seed: config.seed,
                mode: config.mode,
            };
            (workload.name().to_owned(), vec![job])
        })
        .collect();
    // The pool names predate the supervised pool; metric names and CI
    // greps depend on them.
    let pool = match config.mode {
        SweepMode::Standard => "run_parallel",
        SweepMode::EccSweep => "ecc_sweep",
    };
    // Each workload addresses its own store entry (the fingerprint covers
    // the workload), so concurrent workers never contend on one file.
    let store = config.capture_store.clone();
    let outcomes = runner.run(
        groups,
        pool,
        config.parallelism,
        &config.supervisor,
        move |kernel, job: SweepJob| job.rows(store.as_ref(), kernel),
        |_, mut parts| parts.pop().expect("one task per workload"),
        |g, result, from_checkpoint| {
            let workload = SpecWorkload::ALL[g];
            on_outcome(WorkloadView {
                workload,
                result,
                from_checkpoint,
            })
        },
    )?;
    let outcomes: Vec<WorkloadOutcome> = SpecWorkload::ALL
        .into_iter()
        .zip(outcomes)
        .map(
            |(workload, (result, attempts, from_checkpoint))| WorkloadOutcome {
                workload,
                result,
                attempts,
                from_checkpoint,
            },
        )
        .collect();
    Ok(CampaignOutcome {
        resumed: outcomes.iter().filter(|o| o.from_checkpoint).count(),
        recovered: outcomes
            .iter()
            .filter(|o| o.result.is_ok() && o.attempts > 1)
            .count(),
        failed: outcomes.iter().filter(|o| o.result.is_err()).count(),
        outcomes,
        checkpoint_warning: runner.journal.and_then(|j| j.warning),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervise::RetryBackoff;
    use reap_fault::FaultPlan;
    use std::path::Path;
    use std::time::Duration;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("reap-campaign-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn quick(mode: SweepMode) -> CampaignConfig {
        CampaignConfig::new(3_000, 11, mode, 4)
    }

    fn keep_going(_: WorkloadView<'_>) -> ControlFlow<()> {
        ControlFlow::Continue(())
    }

    fn bits(rows: &[SweepRow]) -> Vec<u64> {
        rows.iter()
            .flat_map(|r| {
                [
                    r.mttf_gain.to_bits(),
                    r.energy_overhead.to_bits(),
                    r.l2_hit_rate.to_bits(),
                    r.efail_conv.to_bits(),
                    r.max_n,
                ]
            })
            .collect()
    }

    fn rows_bits(outcome: &CampaignOutcome) -> Vec<(SpecWorkload, Vec<u64>)> {
        outcome
            .outcomes
            .iter()
            .map(|o| (o.workload, bits(o.result.as_ref().expect("job succeeded"))))
            .collect()
    }

    fn is_cancelled(o: &WorkloadOutcome) -> bool {
        matches!(o.result, Err(JobFailure::Supervision(JobError::Cancelled)))
    }

    #[test]
    fn the_hook_sees_each_outcome_once_and_break_cancels_the_rest() {
        let path = tmp("hook.jsonl");
        let total = SpecWorkload::ALL.len();
        let clean = run_sweep_campaign(&quick(SweepMode::EccSweep), keep_going).unwrap();

        // Break after k fresh outcomes. Jobs already in flight still land
        // (and reach the hook); the unclaimed rest are cancelled.
        let k = 3;
        let mut cfg = quick(SweepMode::EccSweep);
        cfg.checkpoint = Some(path.clone());
        let mut fresh: Vec<(String, Vec<u64>)> = Vec::new();
        let broken = run_sweep_campaign(&cfg, |o| {
            assert!(!o.from_checkpoint);
            fresh.push((o.workload.name().to_owned(), bits(o.result.unwrap())));
            if fresh.len() >= k {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        })
        .unwrap();
        assert!((k..total).contains(&fresh.len()), "{} landed", fresh.len());
        let journal = checkpoint::load(&path).unwrap();
        let mut journaled: Vec<(String, Vec<u64>)> = journal
            .completed
            .iter()
            .map(|(key, rows)| (key.clone(), bits(rows)))
            .collect();
        journaled.sort();
        fresh.sort();
        assert_eq!(
            journaled, fresh,
            "the journal holds exactly what the hook saw"
        );
        assert_eq!(broken.failed, total - fresh.len());
        for o in &broken.outcomes {
            let saw = fresh.iter().any(|(name, _)| name == o.workload.name());
            assert_eq!(saw, !is_cancelled(o), "{}", o.workload.name());
        }

        // A `Break` while the journal is replayed cancels every pending
        // workload before the pool starts, and leaves the journal alone.
        cfg.resume = true;
        let held = run_sweep_campaign(&cfg, |_| ControlFlow::Break(())).unwrap();
        assert_eq!(held.resumed, fresh.len());
        let pending = held.outcomes.iter().filter(|o| !o.from_checkpoint);
        assert!(pending.clone().all(is_cancelled));
        assert_eq!(pending.count(), total - fresh.len());
        assert_eq!(
            checkpoint::load(&path).unwrap().completed.len(),
            fresh.len()
        );

        // Resume: every workload reaches the hook once, the journaled
        // ones first and flagged, with the rows the campaign returns.
        let mut seen: Vec<(&str, bool, Vec<u64>)> = Vec::new();
        let resumed = run_sweep_campaign(&cfg, |o| {
            seen.push((
                o.workload.name(),
                o.from_checkpoint,
                bits(o.result.unwrap()),
            ));
            ControlFlow::Continue(())
        })
        .unwrap();
        assert_eq!(resumed.resumed, fresh.len());
        assert!(seen[..fresh.len()].iter().all(|s| s.1));
        assert!(seen[fresh.len()..].iter().all(|s| !s.1));
        let mut returned: Vec<(&str, bool, Vec<u64>)> = resumed
            .outcomes
            .iter()
            .map(|o| {
                (
                    o.workload.name(),
                    o.from_checkpoint,
                    bits(o.result.as_ref().unwrap()),
                )
            })
            .collect();
        returned.sort();
        seen.sort();
        assert_eq!(seen, returned);
        assert_eq!(rows_bits(&clean), rows_bits(&resumed));
        std::fs::remove_file(path).ok();

        // A `Break` also cancels a job caught between two retry attempts
        // (injected panics, a backoff to linger in); the hook never sees
        // a cancellation, and the journal still holds exactly the rows
        // it saw.
        let path = tmp("hook-retry.jsonl");
        let mut cfg = quick(SweepMode::Standard);
        cfg.checkpoint = Some(path.clone());
        cfg.supervisor.max_retries = 8;
        cfg.supervisor.backoff = RetryBackoff::linear(Duration::from_millis(5));
        cfg.supervisor.fault_plan = Some(FaultPlan {
            seed: 13,
            panic_rate: 0.5,
            ..FaultPlan::default()
        });
        let (mut seen, mut landed) = (Vec::new(), Vec::new());
        let broken = run_sweep_campaign(&cfg, |o| {
            seen.push(o.workload);
            match o.result {
                Ok(rows) => landed.push((o.workload.name().to_owned(), bits(rows))),
                Err(e) => assert!(
                    e.downcast_ref::<JobError>() != Some(&JobError::Cancelled),
                    "the hook saw a cancellation"
                ),
            }
            ControlFlow::Break(())
        })
        .unwrap();
        for o in &broken.outcomes {
            let saw = seen.contains(&o.workload);
            assert_eq!(saw, !is_cancelled(o), "{}", o.workload.name());
        }
        let mut journaled: Vec<(String, Vec<u64>)> = checkpoint::load(&path)
            .unwrap()
            .completed
            .iter()
            .map(|(key, rows)| (key.clone(), bits(rows)))
            .collect();
        journaled.sort();
        landed.sort();
        assert_eq!(journaled, landed);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn clean_campaign_covers_every_workload() {
        let outcome = run_sweep_campaign(&quick(SweepMode::Standard), keep_going).unwrap();
        assert_eq!(outcome.outcomes.len(), SpecWorkload::ALL.len());
        assert_eq!(outcome.failed, 0);
        assert_eq!(outcome.resumed, 0);
        for o in &outcome.outcomes {
            assert_eq!(o.result.as_ref().unwrap().len(), 1);
        }
    }

    #[test]
    fn interrupt_then_resume_is_bit_identical_to_clean_run() {
        let path = tmp("resume.jsonl");
        let clean = run_sweep_campaign(&quick(SweepMode::EccSweep), keep_going).unwrap();

        // Phase 1: simulated kill after 4 completed jobs.
        let mut cfg = quick(SweepMode::EccSweep);
        cfg.checkpoint = Some(path.clone());
        cfg.supervisor.fault_plan = Some(FaultPlan {
            interrupt_after: Some(4),
            ..FaultPlan::default()
        });
        let err = run_sweep_campaign(&cfg, keep_going).unwrap_err();
        let CampaignError::Interrupted { completed, .. } = err else {
            panic!("expected interrupt: {err}");
        };
        assert_eq!(completed, 4);

        // Phase 2: resume without injection.
        let mut cfg = quick(SweepMode::EccSweep);
        cfg.checkpoint = Some(path.clone());
        cfg.resume = true;
        let resumed = run_sweep_campaign(&cfg, keep_going).unwrap();
        assert_eq!(resumed.resumed, 4);
        assert_eq!(resumed.failed, 0);
        assert_eq!(rows_bits(&clean), rows_bits(&resumed));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn an_interrupt_journals_exactly_n_results_at_two_workers() {
        let clean = run_sweep_campaign(&quick(SweepMode::EccSweep), keep_going).unwrap();
        for run in 0..4 {
            let path = tmp(&format!("interrupt-j2-{run}.jsonl"));
            std::fs::remove_file(&path).ok();
            let mut cfg = CampaignConfig::new(3_000, 11, SweepMode::EccSweep, 2);
            cfg.checkpoint = Some(path.clone());
            cfg.supervisor.fault_plan = Some(FaultPlan {
                interrupt_after: Some(5),
                ..FaultPlan::default()
            });
            let mut seen = 0;
            let err = run_sweep_campaign(&cfg, |_| {
                seen += 1;
                ControlFlow::Continue(())
            })
            .unwrap_err();
            assert!(
                matches!(err, CampaignError::Interrupted { completed: 5, .. }),
                "run {run}: {err}"
            );
            assert_eq!(seen, 5, "run {run}: the hook saw only what was journaled");
            let journaled = checkpoint::load(&path).unwrap().completed.len();
            assert_eq!(journaled, 5, "run {run}");

            cfg.supervisor.fault_plan = None;
            cfg.resume = true;
            let resumed = run_sweep_campaign(&cfg, keep_going).unwrap();
            assert_eq!(resumed.resumed, 5, "run {run}");
            assert_eq!(rows_bits(&clean), rows_bits(&resumed), "run {run}");
            std::fs::remove_file(path).ok();
        }
    }

    #[test]
    fn checkpoint_fingerprints_keep_their_values() {
        // Checkpoints written by earlier builds must keep resuming: these
        // are the fingerprints of the default `reap sweep --ecc-sweep`
        // campaign and of a 50k-access one, both at seed 2019.
        for (accesses, fingerprint) in [
            (4_000_000, 0x0ca6_09e2_6d31_5554),
            (50_000, 0x8d0b_660a_f240_f957),
        ] {
            let config = CampaignConfig::new(accesses, 2019, SweepMode::EccSweep, 2);
            assert_eq!(config.meta().fingerprint, fingerprint);
        }
    }

    #[test]
    fn resume_with_foreign_checkpoint_is_refused() {
        let path = tmp("foreign.jsonl");
        let mut cfg = quick(SweepMode::Standard);
        cfg.checkpoint = Some(path.clone());
        run_sweep_campaign(&cfg, keep_going).unwrap();

        // Same file, different seed: must be rejected, not mixed in.
        let mut cfg = quick(SweepMode::Standard);
        cfg.seed = 999;
        cfg.checkpoint = Some(path.clone());
        cfg.resume = true;
        let err = run_sweep_campaign(&cfg, keep_going).unwrap_err();
        assert!(
            matches!(
                err,
                CampaignError::Checkpoint(CheckpointError::FingerprintMismatch { .. })
            ),
            "{err}"
        );
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn resume_repairs_a_crash_truncated_checkpoint() {
        let path = tmp("repair.jsonl");
        let mut cfg = quick(SweepMode::Standard);
        cfg.checkpoint = Some(path.clone());
        run_sweep_campaign(&cfg, keep_going).unwrap();
        // Cut the last line in half: the classic kill-mid-write state.
        let len = std::fs::metadata(&path).unwrap().len();
        reap_fault::truncate_file(Path::new(&path), len - 7).unwrap();

        let mut cfg = quick(SweepMode::Standard);
        cfg.checkpoint = Some(path.clone());
        cfg.resume = true;
        let outcome = run_sweep_campaign(&cfg, keep_going).unwrap();
        assert!(outcome.checkpoint_warning.is_some());
        assert_eq!(outcome.failed, 0);
        // The repaired file must now be fully loadable and complete.
        let reloaded = checkpoint::load(Path::new(&path)).unwrap();
        assert_eq!(reloaded.completed.len(), SpecWorkload::ALL.len());
        assert!(reloaded.truncated_tail.is_none());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn injected_panics_recover_and_match_clean_rows() {
        let clean = run_sweep_campaign(&quick(SweepMode::Standard), keep_going).unwrap();
        let mut cfg = quick(SweepMode::Standard);
        cfg.supervisor.max_retries = 8;
        cfg.supervisor.fault_plan = Some(FaultPlan {
            seed: 13,
            panic_rate: 0.3,
            ..FaultPlan::default()
        });
        let faulty = run_sweep_campaign(&cfg, keep_going).unwrap();
        assert_eq!(faulty.failed, 0, "retries absorb a 30% panic rate");
        assert!(faulty.recovered > 0, "some job must have retried");
        assert_eq!(rows_bits(&clean), rows_bits(&faulty));
    }

    #[test]
    fn exhausted_retries_isolate_the_failure() {
        let mut cfg = quick(SweepMode::Standard);
        cfg.supervisor.max_retries = 0;
        cfg.supervisor.fault_plan = Some(FaultPlan {
            seed: 1,
            panic_rate: 0.2,
            ..FaultPlan::default()
        });
        let outcome = run_sweep_campaign(&cfg, keep_going).unwrap();
        assert!(outcome.failed > 0, "some job must fail at 20% / no retries");
        let ok = outcome.outcomes.iter().filter(|o| o.result.is_ok()).count();
        assert!(ok > 0, "and most must survive");
        for o in &outcome.outcomes {
            if let Err(e) = &o.result {
                assert!(
                    e.to_string().contains("injected panic"),
                    "failure is attributed: {e}"
                );
            }
        }
    }
}
