//! Parallel execution of experiment batches.
//!
//! Each simulation is single-threaded and deterministic; campaigns (a
//! Fig. 5 sweep is 21 independent runs) parallelize perfectly across
//! experiments. [`run_parallel`] fans a batch out over a bounded pool of
//! OS threads and returns results in input order.

use crate::capture_store::CaptureStore;
use crate::experiment::{Experiment, ExperimentError};
use crate::report::Report;
use crate::simulator::{EccStrength, SimulationError, Simulator};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::Instant;

/// Runs `f` over `jobs` on up to `parallelism` threads, returning results
/// in input order.
///
/// This is [`pool_map_with`] without per-worker state, the shared pool
/// behind [`run_parallel`] and [`replay_ecc_sweep_all`].
///
/// # Panics
///
/// Panics if `parallelism == 0` or a worker thread panics.
pub fn pool_map<T, R, F>(jobs: Vec<T>, parallelism: usize, pool_name: &str, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    pool_map_with(jobs, parallelism, pool_name, || (), |_, job| f(job))
}

/// Runs `f` over `jobs` on up to `parallelism` threads, returning results
/// in input order; each worker builds its own state with `init` once,
/// before its first job, and lends it to every job it runs. State that
/// is expensive to build and safe to reuse (a replay kernel's tables)
/// is then built once per worker, not once per job.
///
/// When telemetry is enabled ([`reap_obs::set_enabled`]), the batch is
/// wrapped in a `pool_name` span whose event count is the job count, and
/// each worker publishes its utilization as
/// `{pool_name}.worker.{w}.busy_s` / `.idle_s` / `.utilization` gauges
/// plus a `.jobs` counter. With telemetry disabled (the default) the
/// pool takes no timestamps at all.
///
/// Determinism is unaffected as long as a job's result depends only on
/// its own input, never on which worker's state it borrowed.
///
/// # Panics
///
/// Panics if `parallelism == 0` or a worker thread panics.
pub fn pool_map_with<T, R, S, I, F>(
    jobs: Vec<T>,
    parallelism: usize,
    pool_name: &str,
    init: I,
    f: F,
) -> Vec<R>
where
    T: Send,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, T) -> R + Sync,
{
    assert!(parallelism > 0, "need at least one worker");
    let total = jobs.len();
    if total == 0 {
        return Vec::new();
    }
    let mut span = reap_obs::span(pool_name);
    span.add_events(total as u64);
    let telemetry = span.is_recording();
    // Jobs are claimed by index and moved out exactly once; the mutexes
    // are uncontended (each guards a distinct slot).
    let slots: Vec<Mutex<Option<T>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let next = AtomicUsize::new(0);
    let workers = parallelism.min(total);
    let (sender, receiver) = mpsc::channel();

    std::thread::scope(|scope| {
        for w in 0..workers {
            let sender = sender.clone();
            let slots = &slots;
            let next = &next;
            let (init, f) = (&init, &f);
            let pool = pool_name;
            scope.spawn(move || {
                let started = telemetry.then(Instant::now);
                let mut state = init();
                let job_span_name = telemetry.then(|| format!("{pool}.job"));
                let mut busy = std::time::Duration::ZERO;
                let mut jobs_done = 0u64;
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= total {
                        break;
                    }
                    let job = slots[i].lock().expect("slot poisoned").take();
                    let job = job.expect("each slot is claimed once");
                    let t0 = telemetry.then(Instant::now);
                    // Per-job span: feeds the `span.{pool}.job.us`
                    // latency histogram behind `reap obs report`.
                    let _job_span = job_span_name.as_deref().map(reap_obs::span);
                    let result = f(&mut state, job);
                    drop(_job_span);
                    if let Some(t0) = t0 {
                        busy += t0.elapsed();
                    }
                    jobs_done += 1;
                    sender
                        .send((i, result))
                        .expect("receiver outlives the scope");
                }
                if let Some(started) = started {
                    let wall = started.elapsed().as_secs_f64();
                    let busy = busy.as_secs_f64();
                    let registry = reap_obs::global();
                    let prefix = format!("{pool}.worker.{w}");
                    // `add`, not `set`: repeated pools with the same name
                    // in one process accumulate seconds across batches,
                    // and utilization is recomputed from the accumulated
                    // totals so it reflects the whole run, not the last
                    // batch. (Same fix the `.jobs` counters got.)
                    let busy_gauge = registry.gauge(&format!("{prefix}.busy_s"));
                    let idle_gauge = registry.gauge(&format!("{prefix}.idle_s"));
                    busy_gauge.add(busy);
                    idle_gauge.add((wall - busy).max(0.0));
                    let total_busy = busy_gauge.get();
                    let total_wall = total_busy + idle_gauge.get();
                    registry
                        .gauge(&format!("{prefix}.utilization"))
                        .set(if total_wall > 0.0 {
                            total_busy / total_wall
                        } else {
                            0.0
                        });
                    registry.counter(&format!("{prefix}.jobs")).add(jobs_done);
                }
            });
        }
    });
    drop(sender);

    let mut results: Vec<Option<R>> = (0..total).map(|_| None).collect();
    for (i, result) in receiver {
        results[i] = Some(result);
    }
    results
        .into_iter()
        .map(|slot| slot.expect("every job ran to completion"))
        .collect()
}

/// Runs `experiments` on up to `parallelism` threads, returning results in
/// the same order as the input.
///
/// Determinism is unaffected: each experiment's result depends only on its
/// own configuration and seed, never on scheduling.
///
/// # Panics
///
/// Panics if `parallelism == 0` or a worker thread panics (a bug in the
/// simulation stack, not a data-dependent condition).
///
/// # Examples
///
/// ```
/// use reap_core::sweep::run_parallel;
/// use reap_core::{Experiment, ProtectionScheme};
/// use reap_trace::SpecWorkload;
///
/// let batch: Vec<Experiment> = [SpecWorkload::Hmmer, SpecWorkload::Mcf]
///     .into_iter()
///     .map(|w| Experiment::paper_hierarchy().workload(w).budgets(1_000, 20_000))
///     .collect();
/// let reports = run_parallel(batch, 2);
/// assert_eq!(reports.len(), 2);
/// for r in reports {
///     assert!(r.expect("valid config").mttf_improvement(ProtectionScheme::Reap) >= 1.0);
/// }
/// ```
pub fn run_parallel(
    experiments: Vec<Experiment>,
    parallelism: usize,
) -> Vec<Result<Report, ExperimentError>> {
    pool_map(experiments, parallelism, "run_parallel", |e| e.run())
}

/// One capture, every ECC strength: runs the trace pass of `experiment`
/// once and scores the captured exposure stream at each strength in
/// [`EccStrength::ALL`] through the batched multi-point kernel
/// ([`Simulator::replay_batch`]), returning reports in that order.
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
    let points = EccStrength::ALL
        .into_iter()
        .map(|ecc| {
            let mut config = experiment.config().clone();
            config.ecc = ecc;
            Simulator::new(config)
        })
        .collect::<Result<Vec<_>, _>>()?;
    let reports = match Simulator::replay_batch(&points, &capture) {
        // A store-backed capture streams from disk; if the entry rots
        // between load-time validation and the replay pass, recapture
        // from the trace instead of failing the sweep.
        Err(SimulationError::CaptureStream(defect)) => {
            eprintln!("warning: streamed capture failed mid-sweep ({defect}); recapturing");
            let fresh = experiment.capture_with(None)?;
            Simulator::replay_batch(&points, &fresh)?
        }
        other => other?,
    };
    Ok(EccStrength::ALL.into_iter().zip(reports).collect())
}

/// One workload's ECC sweep outcome: a report per strength, or the
/// configuration error that stopped the sweep.
pub type EccSweepResult = Result<Vec<(EccStrength, Report)>, ExperimentError>;

/// The full ECC sweep: all 21 workload profiles, each captured once and
/// replayed at every strength in [`EccStrength::ALL`], fanned out over
/// `parallelism` workers (pool name `ecc_sweep` in the telemetry).
///
/// # Examples
///
/// ```no_run
/// use reap_core::sweep::replay_ecc_sweep_all;
///
/// let reports = replay_ecc_sweep_all(1_000_000, 2019, 8);
/// assert_eq!(reports.len(), 21);
/// for (_, per_workload) in reports {
///     assert_eq!(per_workload.expect("valid config").len(), 3);
/// }
/// ```
pub fn replay_ecc_sweep_all(
    accesses: u64,
    seed: u64,
    parallelism: usize,
) -> Vec<(reap_trace::SpecWorkload, EccSweepResult)> {
    let workloads = reap_trace::SpecWorkload::ALL;
    let batch: Vec<Experiment> = workloads
        .into_iter()
        .map(|w| {
            Experiment::paper_hierarchy()
                .workload(w)
                .accesses(accesses)
                .seed(seed)
        })
        .collect();
    workloads
        .into_iter()
        .zip(pool_map(batch, parallelism, "ecc_sweep", |e| {
            replay_ecc_sweep(&e)
        }))
        .collect()
}

/// Convenience: the Fig. 5/6 sweep over all 21 workload profiles.
///
/// # Examples
///
/// ```no_run
/// use reap_core::sweep::sweep_workloads;
///
/// let reports = sweep_workloads(1_000_000, 2019, 8);
/// assert_eq!(reports.len(), 21);
/// ```
pub fn sweep_workloads(
    accesses: u64,
    seed: u64,
    parallelism: usize,
) -> Vec<(reap_trace::SpecWorkload, Result<Report, ExperimentError>)> {
    let workloads = reap_trace::SpecWorkload::ALL;
    let batch = workloads
        .into_iter()
        .map(|w| {
            Experiment::paper_hierarchy()
                .workload(w)
                .accesses(accesses)
                .seed(seed)
        })
        .collect();
    workloads
        .into_iter()
        .zip(run_parallel(batch, parallelism))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::ProtectionScheme;
    use reap_trace::SpecWorkload;

    #[test]
    fn parallel_matches_serial_bit_for_bit() {
        let make = |w: SpecWorkload| {
            Experiment::paper_hierarchy()
                .workload(w)
                .budgets(1_000, 15_000)
                .seed(4)
        };
        let serial: Vec<f64> = [SpecWorkload::Gcc, SpecWorkload::Lbm, SpecWorkload::Namd]
            .into_iter()
            .map(|w| {
                make(w)
                    .run()
                    .unwrap()
                    .expected_failures(ProtectionScheme::Conventional)
            })
            .collect();
        let parallel = run_parallel(
            [SpecWorkload::Gcc, SpecWorkload::Lbm, SpecWorkload::Namd]
                .into_iter()
                .map(make)
                .collect(),
            3,
        );
        for (s, p) in serial.iter().zip(parallel) {
            let p = p.unwrap().expected_failures(ProtectionScheme::Conventional);
            assert_eq!(
                s.to_bits(),
                p.to_bits(),
                "scheduling must not affect results"
            );
        }
    }

    #[test]
    fn results_keep_input_order() {
        let batch: Vec<Experiment> = [SpecWorkload::Mcf, SpecWorkload::Namd]
            .into_iter()
            .map(|w| {
                Experiment::paper_hierarchy()
                    .workload(w)
                    .budgets(1_000, 20_000)
                    .seed(1)
            })
            .collect();
        let out = run_parallel(batch, 2);
        let gain = |r: &Result<Report, ExperimentError>| {
            r.as_ref().unwrap().mttf_improvement(ProtectionScheme::Reap)
        };
        // namd (second) accumulates far more than mcf (first).
        assert!(gain(&out[1]) > gain(&out[0]));
    }

    #[test]
    fn errors_are_propagated_per_job() {
        let ok = Experiment::paper_hierarchy().budgets(100, 5_000);
        let bad = Experiment::paper_hierarchy().budgets(0, 0);
        let out = run_parallel(vec![ok, bad], 2);
        assert!(out[0].is_ok());
        assert!(out[1].is_err());
    }

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

    #[test]
    fn empty_batch_is_fine() {
        assert!(run_parallel(Vec::new(), 4).is_empty());
    }

    #[test]
    fn pool_map_moves_non_clone_jobs_and_keeps_order() {
        struct Job(usize); // deliberately not Clone
        let jobs: Vec<Job> = (0..32).map(Job).collect();
        let out = pool_map(jobs, 4, "test_pool", |j| j.0 * 2);
        assert_eq!(out, (0..32).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn pool_map_with_builds_state_once_per_worker_and_keeps_order() {
        for width in [1, 2, 64] {
            let inits = AtomicUsize::new(0);
            let jobs: Vec<u64> = (0..40).collect();
            let out = pool_map_with(
                jobs,
                width,
                "test_pool_with",
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                    // Each worker's state counts the jobs it ran.
                    0u64
                },
                |ran, j| {
                    *ran += 1;
                    (j * 3, *ran)
                },
            );
            assert_eq!(
                inits.load(Ordering::Relaxed),
                width.min(40),
                "one init per spawned worker at width {width}"
            );
            let values: Vec<u64> = out.iter().map(|&(v, _)| v).collect();
            assert_eq!(values, (0..40).map(|j| j * 3).collect::<Vec<_>>());
            // The state persisted across a worker's jobs: some worker's
            // counter reached the average share.
            let most = out.iter().map(|&(_, ran)| ran).max().unwrap();
            assert!(most as usize >= 40 / width.min(40), "width {width}: {most}");
            if width == 1 {
                assert_eq!(most, 40);
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_parallelism_rejected() {
        let _ = run_parallel(Vec::new(), 0);
    }
}
