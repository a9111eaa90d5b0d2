//! Telemetry accumulation semantics of the worker pool.
//!
//! These tests own the process-global telemetry registry, so they live in
//! their own integration-test binary (one process) rather than in the
//! library's unit-test binary, where they would race other telemetry
//! tests for the global state.

use reap_core::supervise::{pool_map_supervised, JobOutcome, SupervisorConfig};
use std::ops::ControlFlow;
use std::sync::Mutex;
use std::time::Duration;

/// Serializes the tests in this binary: they all reset/enable the
/// process-global registry.
static REGISTRY_LOCK: Mutex<()> = Mutex::new(());

fn keep_going<R>(_: usize, _: &JobOutcome<R>) -> ControlFlow<()> {
    ControlFlow::Continue(())
}

/// Runs `jobs` trivial jobs on one worker (so worker 0 owns every job)
/// through the pool named `pool`, each job sleeping `nap`.
fn batch(pool: &str, jobs: u64, nap: Duration) {
    let _ = pool_map_supervised(
        (0..jobs).collect::<Vec<u64>>(),
        1,
        pool,
        &SupervisorConfig::default(),
        || (),
        move |_, j| {
            std::thread::sleep(nap);
            j
        },
        keep_going,
    );
}

/// Two batches through the same pool name must *accumulate* the per-worker
/// `.jobs` counter, like every other emitted counter. A `store` there (the
/// old behaviour) silently overwrites the first batch's count, so repeated
/// sweeps in one process under-report work.
#[test]
fn worker_jobs_counter_accumulates_across_batches() {
    let _guard = REGISTRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    reap_obs::global().reset();
    reap_obs::set_enabled(true);

    batch("jobs_accum_sup", 2, Duration::ZERO);
    batch("jobs_accum_sup", 4, Duration::ZERO);

    let snapshot = reap_obs::global().snapshot();
    reap_obs::set_enabled(false);
    let get = |name: &str| {
        snapshot
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    };
    assert_eq!(
        get("jobs_accum_sup.worker.0.jobs"),
        6,
        "second supervised batch must add to the counter, not overwrite it"
    );
}

/// Two batches through the same pool name must *accumulate* the per-worker
/// `.busy_s`/`.idle_s` gauges and recompute `.utilization` from the
/// accumulated totals. A `set` there (the old behaviour) silently threw
/// away the first batch's seconds, so repeated sweeps in one process
/// under-reported busy time and showed only the last batch's utilization.
#[test]
fn worker_seconds_gauges_accumulate_across_batches() {
    let _guard = REGISTRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    reap_obs::global().reset();
    reap_obs::set_enabled(true);

    let gauge = |name: &str| {
        reap_obs::global()
            .snapshot()
            .gauges
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0.0)
    };
    let nap = Duration::from_millis(10);

    // Sleeps make the per-batch busy time a guaranteed lower bound.
    batch("secs_accum_sup", 3, nap);
    let busy_after_first = gauge("secs_accum_sup.worker.0.busy_s");
    assert!(busy_after_first >= 0.029, "3×10ms jobs: {busy_after_first}");

    batch("secs_accum_sup", 2, nap);
    let busy_after_second = gauge("secs_accum_sup.worker.0.busy_s");
    assert!(
        busy_after_second >= busy_after_first + 0.019,
        "second batch (2×10ms) must add to busy_s, not overwrite it: \
         {busy_after_first} -> {busy_after_second}"
    );

    // Utilization reflects the accumulated totals, not the last batch.
    let idle = gauge("secs_accum_sup.worker.0.idle_s");
    let utilization = gauge("secs_accum_sup.worker.0.utilization");
    assert!(idle >= 0.0);
    let expected = busy_after_second / (busy_after_second + idle);
    assert!(
        (utilization - expected).abs() < 1e-9,
        "utilization {utilization} must equal accumulated busy/(busy+idle) {expected}"
    );
    assert!(utilization > 0.0 && utilization <= 1.0);

    reap_obs::set_enabled(false);
}
