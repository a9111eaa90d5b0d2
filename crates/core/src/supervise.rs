//! Supervised parallel execution: panic isolation, retries, deadlines.
//!
//! [`pool_map_supervised`] is the workspace's one worker pool: `reap
//! sweep`, `reap explore`, `reap serve` and the figure regenerators all
//! fan their jobs out through it. A campaign that runs for hours over
//! many configurations must degrade gracefully when one configuration
//! is poisoned, so:
//!
//! * every job attempt runs under `catch_unwind`, so a panic becomes a
//!   [`JobError::Panicked`] for that job only — and the default panic
//!   hook is silenced for supervised attempts, so a retried fault does
//!   not dump a backtrace per attempt;
//! * failed attempts are retried up to [`SupervisorConfig::max_retries`]
//!   times under a [`RetryBackoff`] policy — deterministic linear by
//!   default, optionally exponential with a cap and a *deterministic*
//!   per-(seed, job, attempt) jitter draw, so reruns still reproduce;
//! * an optional per-job [`SupervisorConfig::deadline`] times out stuck
//!   work (the attempt thread is abandoned, not killed — see
//!   [`pool_map_supervised`] for the leak caveat);
//! * a [`reap_fault::FaultPlan`] can be armed to inject panics and delays
//!   *inside* the supervision boundary, proving the recovery paths;
//! * each worker lends state built by `init` (a replay kernel's tables)
//!   to its attempts and rebuilds it after an attempt that fails;
//! * every worker holds one core of a process-wide budget while it
//!   runs, registered before any worker starts; a capture takes a
//!   second core for its back stage only when the budget shows one idle
//!   ([`crate::Simulator::capture`]);
//! * the batch returns `Vec<JobOutcome<R>>` in input order, and an
//!   `on_result` callback observes completions on the calling thread as
//!   they happen (checkpoint writers and folds hook in here) and can
//!   cancel the remainder of the batch.
//!
//! With telemetry enabled, the batch and each job run in `{pool}` and
//! `{pool}.job` spans, each worker publishes `{pool}.worker.{w}.busy_s`,
//! `.idle_s`, `.utilization` and `.jobs`, and the batch publishes
//! `{pool}.supervised.{ok,failed,retries,panics,timeouts}` counters.

use std::cell::Cell;
use std::num::NonZeroUsize;
use std::ops::ControlFlow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, Once, OnceLock};
use std::time::Duration;

use reap_fault::FaultPlan;

thread_local! {
    /// True while this thread is inside a supervised attempt.
    static IN_SUPERVISED_ATTEMPT: Cell<bool> = const { Cell::new(false) };
}

static QUIET_HOOK: Once = Once::new();

/// Installs (once, process-wide) a panic hook that stays silent for panics
/// raised inside supervised attempts. Those panics are caught by
/// `catch_unwind` and reported as [`JobError::Panicked`] with the payload
/// message, so the default hook's backtrace dump would only add noise for
/// every retried attempt. Panics on any other thread keep the previous
/// hook's behaviour.
fn silence_supervised_panics() {
    QUIET_HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !IN_SUPERVISED_ATTEMPT.with(Cell::get) {
                previous(info);
            }
        }));
    });
}

/// Marks the current thread as inside a supervised attempt for the guard's
/// lifetime; the flag is restored even when the attempt unwinds.
pub(crate) struct AttemptMarker {
    prev: bool,
}

impl AttemptMarker {
    fn enter() -> Self {
        Self::inherit(true)
    }

    /// Carries the spawning thread's flag onto a thread a supervised
    /// attempt hands work to (a capture's back stage), so its panics stay
    /// as quiet as the attempt's own.
    pub(crate) fn inherit(in_attempt: bool) -> Self {
        Self {
            prev: IN_SUPERVISED_ATTEMPT.with(|c| c.replace(in_attempt)),
        }
    }
}

impl Drop for AttemptMarker {
    fn drop(&mut self) {
        let prev = self.prev;
        IN_SUPERVISED_ATTEMPT.with(|c| c.set(prev));
    }
}

/// Whether the calling thread is inside a supervised attempt.
pub(crate) fn in_supervised_attempt() -> bool {
    IN_SUPERVISED_ATTEMPT.with(Cell::get)
}

/// Cores this process keeps busy: the registered workers of every
/// running supervised pool, plus the back-stage threads of two-stage
/// captures. A count that publishes no other data, so `Relaxed`.
static BUSY_CORES: AtomicUsize = AtomicUsize::new(0);

/// The host's cores, as `available_parallelism` reports them (cgroup
/// quotas included), read once.
fn host_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// One core of the process-wide core budget, held by a pool worker or a
/// capture's back stage and handed back on drop.
#[derive(Debug)]
pub(crate) struct CoreClaim(());

impl CoreClaim {
    /// Registers one pool worker. Always succeeds: the pool's `-j` is the
    /// user's choice.
    fn register() -> Self {
        BUSY_CORES.fetch_add(1, Ordering::Relaxed);
        Self(())
    }

    /// Claims a core for a capture's back stage if one is idle: the
    /// host's cores, less the busy ones, less the calling thread itself
    /// unless it already holds a core as a pool worker. `None` when that
    /// leaves nothing free; the capture then runs its stages inline.
    pub(crate) fn idle() -> Option<Self> {
        let cores = host_cores();
        let caller = usize::from(!in_supervised_attempt());
        BUSY_CORES
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |busy| {
                (busy + caller < cores).then_some(busy + 1)
            })
            .ok()
            .map(|_| Self(()))
    }
}

impl Drop for CoreClaim {
    fn drop(&mut self) {
        BUSY_CORES.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Retry backoff policy: how long attempt `k` waits before attempt `k+1`.
///
/// The default (`factor == 1.0`, no jitter) is the historical
/// deterministic linear schedule — attempt `k` sleeps `base * k`. A
/// `factor > 1.0` switches to capped exponential growth
/// (`base * factor^(k-1)`, clamped to `cap`), and `jitter` multiplies
/// the wait by a value in `[0.5, 1.5)` drawn deterministically from
/// `(seed, job, attempt)` via [`reap_fault::uniform`] — spreading
/// thundering-herd retries without sacrificing reproducibility.
///
/// Parsed from the CLI spec `ms[:exp[:cap-ms]]` (e.g. `250`, `100:2`,
/// `100:2:5000`); the exponential forms enable jitter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryBackoff {
    /// Wait before the first retry.
    pub base: Duration,
    /// Growth factor per attempt; `<= 1.0` selects the linear schedule.
    pub factor: f64,
    /// Upper bound on any single wait (applied before jitter).
    pub cap: Duration,
    /// Scale each wait by a deterministic per-(seed, job, attempt) draw
    /// in `[0.5, 1.5)`.
    pub jitter: bool,
}

impl Default for RetryBackoff {
    fn default() -> Self {
        Self::linear(Duration::ZERO)
    }
}

impl RetryBackoff {
    /// Salt for the jitter draw, disjoint from `FaultPlan`'s salts.
    const JITTER_SALT: u64 = 0x6a77;

    /// The legacy schedule: attempt `k` sleeps `base * k`, no jitter.
    pub fn linear(base: Duration) -> Self {
        Self {
            base,
            factor: 1.0,
            cap: Duration::MAX,
            jitter: false,
        }
    }

    /// The wait after failed attempt `attempt` (1-based) of job `job`.
    ///
    /// `seed` keys the jitter draw (callers pass their fault-plan seed, or
    /// 0); it is ignored when `jitter` is off. Pure: same inputs, same
    /// wait, on every platform.
    pub fn delay(&self, seed: u64, job: u64, attempt: u32) -> Duration {
        if self.base.is_zero() {
            return Duration::ZERO;
        }
        let raw = if self.factor <= 1.0 {
            // Integer math keeps the historical linear schedule bit-exact.
            self.base * attempt
        } else {
            let secs = self.base.as_secs_f64() * self.factor.powi(attempt as i32 - 1);
            Duration::try_from_secs_f64(secs).unwrap_or(Duration::MAX)
        };
        let capped = raw.min(self.cap);
        if !self.jitter {
            return capped;
        }
        let scale = 0.5 + reap_fault::uniform(seed, job, attempt, Self::JITTER_SALT);
        Duration::try_from_secs_f64(capped.as_secs_f64() * scale).unwrap_or(Duration::MAX)
    }

    /// Parses the CLI spec `ms[:exp[:cap-ms]]`.
    ///
    /// `ms` is the base wait in milliseconds; `exp` (a float `>= 1.0`)
    /// switches to jittered exponential growth; `cap-ms` bounds any
    /// single wait (default: uncapped).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for malformed specs.
    pub fn parse_spec(spec: &str) -> Result<Self, String> {
        let mut parts = spec.split(':');
        let base_ms: u64 = parts
            .next()
            .unwrap_or_default()
            .trim()
            .parse()
            .map_err(|_| format!("bad backoff base in `{spec}`: expected milliseconds"))?;
        let mut backoff = Self::linear(Duration::from_millis(base_ms));
        if let Some(factor) = parts.next() {
            let factor: f64 = factor
                .trim()
                .parse()
                .map_err(|_| format!("bad backoff factor in `{spec}`: expected a number"))?;
            if !factor.is_finite() || factor < 1.0 {
                return Err(format!("backoff factor in `{spec}` must be >= 1.0"));
            }
            backoff.factor = factor;
            backoff.jitter = true;
        }
        if let Some(cap) = parts.next() {
            let cap_ms: u64 = cap
                .trim()
                .parse()
                .map_err(|_| format!("bad backoff cap in `{spec}`: expected milliseconds"))?;
            backoff.cap = Duration::from_millis(cap_ms);
        }
        if parts.next().is_some() {
            return Err(format!(
                "too many `:` fields in `{spec}`: expected ms[:exp[:cap-ms]]"
            ));
        }
        Ok(backoff)
    }
}

/// Supervision policy for one batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SupervisorConfig {
    /// Retries after the first attempt (0 = fail fast). A job therefore
    /// runs at most `max_retries + 1` times.
    pub max_retries: u32,
    /// Wait schedule between attempts.
    pub backoff: RetryBackoff,
    /// Per-attempt wall-clock deadline. `None` disables timeouts (and the
    /// per-attempt thread they require).
    pub deadline: Option<Duration>,
    /// Armed fault-injection plan, consulted inside the unwind boundary
    /// before each attempt. Its seed also keys the backoff jitter draw.
    pub fault_plan: Option<FaultPlan>,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        Self {
            max_retries: 2,
            backoff: RetryBackoff::default(),
            deadline: None,
            fault_plan: None,
        }
    }
}

/// Why a job ultimately failed (after all retries).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum JobError {
    /// Every attempt panicked; carries the last panic message.
    Panicked {
        /// The last panic payload, rendered as text.
        message: String,
    },
    /// Every attempt exceeded the configured deadline.
    TimedOut {
        /// The deadline that was exceeded.
        deadline: Duration,
    },
    /// The batch was cancelled before this job ran to completion.
    Cancelled,
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Panicked { message } => write!(f, "worker panicked: {message}"),
            JobError::TimedOut { deadline } => {
                write!(f, "job exceeded its {deadline:?} deadline")
            }
            JobError::Cancelled => write!(f, "batch cancelled before the job completed"),
        }
    }
}

impl std::error::Error for JobError {}

/// The supervised result of one job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome<R> {
    /// The job's value, or why it could not be produced.
    pub result: Result<R, JobError>,
    /// Attempts actually made (1 for a clean first run, 0 if cancelled
    /// before being claimed).
    pub attempts: u32,
}

impl<R> JobOutcome<R> {
    /// A job the batch cancelled before claiming it.
    pub(crate) fn cancelled() -> Self {
        Self {
            result: Err(JobError::Cancelled),
            attempts: 0,
        }
    }

    /// Whether the job needed more than one attempt but still delivered.
    pub fn recovered(&self) -> bool {
        self.result.is_ok() && self.attempts > 1
    }
}

/// Counters accumulated by the workers of one supervised batch.
#[derive(Debug, Default)]
struct BatchStats {
    panics: AtomicUsize,
    timeouts: AtomicUsize,
    retries: AtomicUsize,
}

/// One attempt's failure, before retry policy is applied.
enum AttemptFailure {
    Panicked(String),
    TimedOut,
}

/// Runs `f` over `jobs` on up to `parallelism` threads with panic
/// isolation, retries and deadlines per [`SupervisorConfig`], returning
/// an outcome per job in input order.
///
/// Each worker builds its state with `init` once and lends it to every
/// attempt it runs; an attempt that panics or times out drops it, and
/// the worker rebuilds it before its next attempt. Results stay
/// deterministic as long as they never depend on the borrowed state.
///
/// `on_result` runs on the calling thread as each outcome arrives
/// (arrival order is scheduling-dependent; the returned `Vec` is not).
/// Returning [`ControlFlow::Break`] cancels the batch: workers stop
/// claiming jobs, and unclaimed jobs report [`JobError::Cancelled`].
///
/// Retrying re-runs the job with a fresh clone of its input, so `T:
/// Clone`; the deadline path runs attempts on dedicated threads, so the
/// usual `'static` bounds apply to jobs, results, state and `f`.
///
/// A timed-out attempt's thread is *abandoned*, not killed (Rust offers
/// no safe thread kill): it keeps running detached until its job
/// finishes, and its result and state are discarded. Deadlines
/// therefore bound the *campaign's* latency, not the OS-level resources
/// of a wedged job.
///
/// # Panics
///
/// Panics if `parallelism == 0` — the one contract violation that is a
/// caller bug rather than a data-dependent condition — or if `init`
/// panics (it runs outside the supervision boundary).
pub fn pool_map_supervised<T, R, S, I, F, C>(
    jobs: Vec<T>,
    parallelism: usize,
    pool_name: &str,
    config: &SupervisorConfig,
    init: I,
    f: F,
    mut on_result: C,
) -> Vec<JobOutcome<R>>
where
    T: Clone + Send + 'static,
    R: Send + 'static,
    S: Send + 'static,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, T) -> R + Send + Sync + 'static,
    C: FnMut(usize, &JobOutcome<R>) -> ControlFlow<()>,
{
    assert!(parallelism > 0, "need at least one worker");
    silence_supervised_panics();
    let total = jobs.len();
    if total == 0 {
        return Vec::new();
    }
    let mut span = reap_obs::span(pool_name);
    span.add_events(total as u64);
    let stats = BatchStats::default();
    let f = Arc::new(f);
    // Jobs are claimed by index and moved out exactly once; the mutexes
    // are uncontended (each guards a distinct slot).
    let slots: Vec<Mutex<Option<T>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let next = AtomicUsize::new(0);
    let cancelled = AtomicBool::new(false);
    let workers = parallelism.min(total);
    let (sender, receiver) = mpsc::channel::<(usize, JobOutcome<R>)>();

    let telemetry = span.is_recording();
    let mut results: Vec<Option<JobOutcome<R>>> = (0..total).map(|_| None).collect();
    // Every worker holds a core of the budget before any of them starts,
    // so a capture on the first worker already sees the pool as busy.
    let cores: Vec<CoreClaim> = (0..workers).map(|_| CoreClaim::register()).collect();
    std::thread::scope(|scope| {
        for (w, core) in cores.into_iter().enumerate() {
            let sender = sender.clone();
            let slots = &slots;
            let next = &next;
            let cancelled = &cancelled;
            let stats = &stats;
            let (init, f) = (&init, &f);
            let pool = pool_name;
            scope.spawn(move || {
                // Handed back as the worker leaves: a capture that
                // starts after that may take the core.
                let _core = core;
                let started = telemetry.then(std::time::Instant::now);
                let mut state = Some(init());
                let job_span_name = telemetry.then(|| format!("{pool}.job"));
                let mut busy = Duration::ZERO;
                let mut jobs_done = 0u64;
                loop {
                    if cancelled.load(Ordering::Relaxed) {
                        break;
                    }
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= total {
                        break;
                    }
                    let job = slots[i]
                        .lock()
                        .expect("slot poisoned")
                        .take()
                        .expect("each slot is claimed once");
                    let t0 = telemetry.then(std::time::Instant::now);
                    // Per-job span: feeds the `span.{pool}.job.us`
                    // latency histogram (supervised attempts included).
                    let job_span = job_span_name.as_deref().map(reap_obs::span);
                    // Each attempt borrows the worker's state and hands
                    // it back; a failed attempt's state is rebuilt.
                    let attempt = |n| {
                        let lent = state.take().unwrap_or_else(init);
                        let (value, lent) = run_attempt(job.clone(), lent, i as u64, n, config, f)?;
                        state = Some(lent);
                        Ok(value)
                    };
                    let outcome = supervise_job(i, config, cancelled, stats, attempt);
                    drop(job_span);
                    if let Some(t0) = t0 {
                        busy += t0.elapsed();
                    }
                    jobs_done += 1;
                    if sender.send((i, outcome)).is_err() {
                        break;
                    }
                }
                if let Some(started) = started {
                    let wall = started.elapsed().as_secs_f64();
                    let busy = busy.as_secs_f64();
                    let registry = reap_obs::global();
                    let prefix = format!("{pool}.worker.{w}");
                    // `add`, not `set`: repeated pools with the same name
                    // in one process accumulate seconds across batches,
                    // with utilization recomputed from the accumulated
                    // totals. (Same fix the `.jobs` counters got.)
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
        drop(sender);
        // Collect on the calling thread so `on_result` can observe (and
        // cancel) while workers are still running.
        for (i, outcome) in receiver {
            if let ControlFlow::Break(()) = on_result(i, &outcome) {
                cancelled.store(true, Ordering::Relaxed);
            }
            results[i] = Some(outcome);
        }
    });

    if span.is_recording() {
        let registry = reap_obs::global();
        let ok = results
            .iter()
            .filter(|r| matches!(r, Some(o) if o.result.is_ok()))
            .count();
        let failed = results
            .iter()
            .filter(|r| matches!(r, Some(o) if o.result.is_err()))
            .count();
        let prefix = format!("{pool_name}.supervised");
        registry.counter(&format!("{prefix}.ok")).add(ok as u64);
        registry
            .counter(&format!("{prefix}.failed"))
            .add(failed as u64);
        registry
            .counter(&format!("{prefix}.retries"))
            .add(stats.retries.load(Ordering::Relaxed) as u64);
        registry
            .counter(&format!("{prefix}.panics"))
            .add(stats.panics.load(Ordering::Relaxed) as u64);
        registry
            .counter(&format!("{prefix}.timeouts"))
            .add(stats.timeouts.load(Ordering::Relaxed) as u64);
    }

    results
        .into_iter()
        .map(|slot| slot.unwrap_or_else(JobOutcome::cancelled))
        .collect()
}

/// Runs one job to a final outcome: attempt, catch, retry, back off.
/// `attempt(k)` runs the job's `k`-th attempt (1-based).
fn supervise_job<R>(
    index: usize,
    config: &SupervisorConfig,
    cancelled: &AtomicBool,
    stats: &BatchStats,
    mut attempt: impl FnMut(u32) -> Result<R, AttemptFailure>,
) -> JobOutcome<R> {
    let max_attempts = config.max_retries + 1;
    let mut last_failure = None;
    for k in 1..=max_attempts {
        match attempt(k) {
            Ok(value) => {
                return JobOutcome {
                    result: Ok(value),
                    attempts: k,
                }
            }
            Err(failure) => {
                match &failure {
                    AttemptFailure::Panicked(_) => stats.panics.fetch_add(1, Ordering::Relaxed),
                    AttemptFailure::TimedOut => stats.timeouts.fetch_add(1, Ordering::Relaxed),
                };
                last_failure = Some(failure);
            }
        }
        if k < max_attempts {
            if cancelled.load(Ordering::Relaxed) {
                return JobOutcome {
                    result: Err(JobError::Cancelled),
                    attempts: k,
                };
            }
            stats.retries.fetch_add(1, Ordering::Relaxed);
            // Deterministic wait schedule; the fault-plan seed (if any)
            // keys the jitter draw so reruns reproduce exactly.
            let seed = config.fault_plan.map_or(0, |p| p.seed);
            let backoff = config.backoff.delay(seed, index as u64, k);
            if !backoff.is_zero() {
                std::thread::sleep(backoff);
            }
        }
    }
    let error = match last_failure.expect("at least one attempt ran") {
        AttemptFailure::Panicked(message) => JobError::Panicked { message },
        AttemptFailure::TimedOut => JobError::TimedOut {
            deadline: config.deadline.unwrap_or_default(),
        },
    };
    JobOutcome {
        result: Err(error),
        attempts: max_attempts,
    }
}

/// Runs one attempt under `catch_unwind`, on a watchdog thread when a
/// deadline is configured. The worker's state goes in by value and
/// comes back with the result; a failed attempt drops it (a panic
/// unwinds through it, a timed-out thread keeps it).
fn run_attempt<T, R, S, F>(
    job: T,
    mut state: S,
    index: u64,
    attempt: u32,
    config: &SupervisorConfig,
    f: &Arc<F>,
) -> Result<(R, S), AttemptFailure>
where
    T: Send + 'static,
    R: Send + 'static,
    S: Send + 'static,
    F: Fn(&mut S, T) -> R + Send + Sync + 'static,
{
    let plan = config.fault_plan;
    let body = {
        let f = Arc::clone(f);
        move || {
            let _quiet = AttemptMarker::enter();
            if let Some(plan) = &plan {
                plan.apply(index, attempt);
            }
            let value = f(&mut state, job);
            (value, state)
        }
    };
    match config.deadline {
        None => catch_unwind(AssertUnwindSafe(body))
            .map_err(|p| AttemptFailure::Panicked(panic_message(p))),
        Some(deadline) => {
            let (tx, rx) = mpsc::sync_channel(1);
            std::thread::spawn(move || {
                let result = catch_unwind(AssertUnwindSafe(body));
                // The watchdog may have given up on us; ignore send errors.
                let _ = tx.send(result);
            });
            match rx.recv_timeout(deadline) {
                Ok(Ok(value)) => Ok(value),
                Ok(Err(p)) => Err(AttemptFailure::Panicked(panic_message(p))),
                Err(mpsc::RecvTimeoutError::Timeout | mpsc::RecvTimeoutError::Disconnected) => {
                    Err(AttemptFailure::TimedOut)
                }
            }
        }
    }
}

/// Renders a panic payload as text (panics carry `&str` or `String`
/// almost always; anything else gets a placeholder).
///
/// Takes the box by value: `&Box<dyn Any>` would coerce into a trait
/// object *around the box*, making every downcast miss.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A quiet supervisor: no retries, no deadline, no injection.
    fn strict() -> SupervisorConfig {
        SupervisorConfig {
            max_retries: 0,
            ..SupervisorConfig::default()
        }
    }

    fn keep_going<R>(_: usize, _: &JobOutcome<R>) -> ControlFlow<()> {
        ControlFlow::Continue(())
    }

    #[test]
    fn a_clean_batch_runs_each_job_once_in_input_order() {
        let jobs: Vec<u64> = (0..50).collect();
        let out = pool_map_supervised(jobs, 4, "t", &strict(), || (), |_, j| j * 3, keep_going);
        for (i, o) in out.iter().enumerate() {
            assert_eq!(o.result, Ok(i as u64 * 3));
            assert_eq!(o.attempts, 1);
        }
        let empty =
            pool_map_supervised(vec![], 4, "t", &strict(), || (), |_, j: u64| j, keep_going);
        assert!(empty.is_empty());
    }

    #[test]
    fn worker_state_is_built_once_per_worker_and_order_is_kept() {
        for width in [1, 2, 64] {
            let inits = Arc::new(AtomicUsize::new(0));
            let counted = Arc::clone(&inits);
            let jobs: Vec<u64> = (0..40).collect();
            let out = pool_map_supervised(
                jobs,
                width,
                "test_pool_with",
                &strict(),
                || {
                    counted.fetch_add(1, Ordering::Relaxed);
                    // Each worker's state counts the jobs it ran.
                    0u64
                },
                |ran, j| {
                    *ran += 1;
                    (j * 3, *ran)
                },
                keep_going,
            );
            assert_eq!(
                inits.load(Ordering::Relaxed),
                width.min(40),
                "one init per spawned worker at width {width}"
            );
            let values: Vec<u64> = out.iter().map(|o| o.result.as_ref().unwrap().0).collect();
            assert_eq!(values, (0..40).map(|j| j * 3).collect::<Vec<_>>());
            // The state persisted across a worker's jobs: some worker's
            // counter reached the average share.
            let most = out
                .iter()
                .map(|o| o.result.as_ref().unwrap().1)
                .max()
                .unwrap();
            assert!(most as usize >= 40 / width.min(40), "width {width}: {most}");
            if width == 1 {
                assert_eq!(most, 40);
            }
        }
    }

    #[test]
    fn a_failed_attempt_drops_its_state_and_the_retry_gets_a_fresh_one() {
        // Deadline or not, an attempt that fails must not hand its
        // (possibly half-updated) state to the retry or to later jobs.
        for deadline in [None, Some(Duration::from_secs(30))] {
            let inits = Arc::new(AtomicUsize::new(0));
            let counted = Arc::clone(&inits);
            let config = SupervisorConfig {
                max_retries: 1,
                deadline,
                ..SupervisorConfig::default()
            };
            let out = pool_map_supervised(
                (0..4u64).collect(),
                1,
                "t",
                &config,
                || {
                    counted.fetch_add(1, Ordering::Relaxed);
                    Vec::<u64>::new()
                },
                |seen, j| {
                    // Job 2's first attempt dirties the state, then
                    // panics; the attempt after it must start clean.
                    if j == 2 && seen.len() == 2 {
                        seen.push(99);
                        panic!("poisoned state");
                    }
                    seen.push(j);
                    seen.clone()
                },
                keep_going,
            );
            assert_eq!(inits.load(Ordering::Relaxed), 2, "{deadline:?}");
            assert_eq!(out[2].attempts, 2, "{deadline:?}");
            let seen: Vec<Vec<u64>> = out.into_iter().map(|o| o.result.unwrap()).collect();
            let want: [&[u64]; 4] = [&[0], &[0, 1], &[2], &[2, 3]];
            assert_eq!(seen, want, "{deadline:?}");
        }
    }

    #[test]
    fn one_panicking_job_does_not_poison_the_batch() {
        let jobs: Vec<u64> = (0..16).collect();
        let out = pool_map_supervised(
            jobs,
            4,
            "t",
            &strict(),
            || (),
            |_, j| {
                assert!(j != 7, "job 7 is poisoned");
                j + 1
            },
            keep_going,
        );
        for (i, o) in out.iter().enumerate() {
            if i == 7 {
                let Err(JobError::Panicked { message }) = &o.result else {
                    panic!("job 7 must fail: {o:?}");
                };
                assert!(message.contains("poisoned"), "{message}");
            } else {
                assert_eq!(o.result, Ok(i as u64 + 1), "job {i} must survive");
            }
        }
    }

    #[test]
    fn injected_panics_are_retried_to_success() {
        let plan: FaultPlan = "seed=3,panic=0.4".parse().unwrap();
        let config = SupervisorConfig {
            max_retries: 10,
            fault_plan: Some(plan),
            ..SupervisorConfig::default()
        };
        let jobs: Vec<u64> = (0..32).collect();
        let out = pool_map_supervised(jobs, 4, "t", &config, || (), |_, j| j * j, keep_going);
        let mut recovered = 0;
        for (i, o) in out.iter().enumerate() {
            assert_eq!(o.result, Ok((i * i) as u64), "job {i}: {o:?}");
            if o.recovered() {
                recovered += 1;
            }
        }
        assert!(recovered > 0, "at 40% panic rate some job must retry");
    }

    #[test]
    fn retries_exhaust_into_a_reported_failure() {
        let plan = FaultPlan {
            panic_rate: 1.0,
            ..FaultPlan::default()
        };
        let config = SupervisorConfig {
            max_retries: 2,
            fault_plan: Some(plan),
            ..SupervisorConfig::default()
        };
        let out = pool_map_supervised(vec![0u64], 1, "t", &config, || (), |_, j| j, keep_going);
        assert_eq!(out[0].attempts, 3);
        let Err(JobError::Panicked { message }) = &out[0].result else {
            panic!("must fail: {:?}", out[0]);
        };
        assert!(message.contains("reap-fault: injected panic"), "{message}");
    }

    #[test]
    fn deadline_times_out_stuck_work() {
        let config = SupervisorConfig {
            max_retries: 0,
            deadline: Some(Duration::from_millis(30)),
            ..SupervisorConfig::default()
        };
        let out = pool_map_supervised(
            vec![0u64, 1],
            2,
            "t",
            &config,
            || (),
            |_, j| {
                if j == 0 {
                    std::thread::sleep(Duration::from_secs(5));
                }
                j
            },
            keep_going,
        );
        assert_eq!(
            out[0].result,
            Err(JobError::TimedOut {
                deadline: Duration::from_millis(30)
            })
        );
        assert_eq!(out[1].result, Ok(1), "fast job unaffected");
    }

    #[test]
    fn injected_delay_plus_deadline_recovers_on_retry() {
        // Delay rate below 1: a delayed (timed-out) attempt retries and
        // eventually draws a clean attempt.
        let plan = FaultPlan {
            seed: 5,
            delay_rate: 0.5,
            delay: Duration::from_millis(200),
            ..FaultPlan::default()
        };
        let config = SupervisorConfig {
            max_retries: 12,
            deadline: Some(Duration::from_millis(40)),
            fault_plan: Some(plan),
            ..SupervisorConfig::default()
        };
        let jobs: Vec<u64> = (0..8).collect();
        let out = pool_map_supervised(jobs, 4, "t", &config, || (), |_, j| j + 100, keep_going);
        for (i, o) in out.iter().enumerate() {
            assert_eq!(o.result, Ok(i as u64 + 100), "job {i}: {o:?}");
        }
    }

    #[test]
    fn cancellation_stops_the_batch() {
        let jobs: Vec<u64> = (0..64).collect();
        let mut seen = 0;
        let out = pool_map_supervised(
            jobs,
            1, // single worker: deterministic claim order
            "t",
            &strict(),
            || (),
            |_, j| {
                // Slow enough that the collector's Break lands while the
                // worker is still mid-batch.
                std::thread::sleep(Duration::from_millis(3));
                j
            },
            |_, _| {
                seen += 1;
                if seen >= 5 {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            },
        );
        let done = out.iter().filter(|o| o.result.is_ok()).count();
        let cancelled = out
            .iter()
            .filter(|o| o.result == Err(JobError::Cancelled))
            .count();
        assert!((5..64).contains(&done), "done = {done}");
        assert_eq!(done + cancelled, 64);
    }

    #[test]
    fn telemetry_counts_failures_and_retries() {
        reap_obs::global().reset();
        reap_obs::set_enabled(true);
        let plan = FaultPlan {
            panic_rate: 1.0,
            ..FaultPlan::default()
        };
        let config = SupervisorConfig {
            max_retries: 1,
            fault_plan: Some(plan),
            ..SupervisorConfig::default()
        };
        let _ = pool_map_supervised(
            vec![0u64, 1],
            2,
            "sup_test",
            &config,
            || (),
            |_, j| j,
            keep_going,
        );
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
        assert_eq!(get("sup_test.supervised.failed"), 2);
        assert_eq!(get("sup_test.supervised.panics"), 4);
        assert_eq!(get("sup_test.supervised.retries"), 2);
        assert_eq!(get("sup_test.supervised.ok"), 0);
    }

    #[test]
    fn backoff_linear_schedule_is_the_legacy_one() {
        let b = RetryBackoff::linear(Duration::from_millis(100));
        assert_eq!(b.delay(0, 3, 1), Duration::from_millis(100));
        assert_eq!(b.delay(0, 3, 2), Duration::from_millis(200));
        assert_eq!(b.delay(9, 8, 3), Duration::from_millis(300), "seed ignored");
        assert_eq!(RetryBackoff::default().delay(0, 0, 7), Duration::ZERO);
    }

    #[test]
    fn backoff_exponential_grows_caps_and_jitters_deterministically() {
        let b = RetryBackoff::parse_spec("100:2:5000").unwrap();
        assert_eq!(b.base, Duration::from_millis(100));
        assert_eq!(b.factor, 2.0);
        assert_eq!(b.cap, Duration::from_millis(5000));
        assert!(b.jitter);

        // Deterministic: same (seed, job, attempt) -> same wait.
        for attempt in 1..8 {
            assert_eq!(b.delay(7, 3, attempt), b.delay(7, 3, attempt));
        }
        // Jitter stays within +/-50% of the nominal exponential value.
        let nominal = |k: u32| 0.1 * 2f64.powi(k as i32 - 1);
        for attempt in 1..6 {
            let d = b.delay(7, 3, attempt).as_secs_f64();
            let n = nominal(attempt).min(5.0);
            assert!(
                (0.5 * n..1.5 * n).contains(&d),
                "attempt {attempt}: {d} vs nominal {n}"
            );
        }
        // The cap bounds the pre-jitter wait: attempt 12 nominal is 204.8s.
        assert!(b.delay(7, 3, 12) < Duration::from_millis(7500));
        // Different jobs draw different jitter.
        assert_ne!(b.delay(7, 3, 2), b.delay(7, 4, 2));
    }

    #[test]
    fn backoff_spec_parser_accepts_and_rejects() {
        let b = RetryBackoff::parse_spec("250").unwrap();
        assert_eq!(b, RetryBackoff::linear(Duration::from_millis(250)));

        let b = RetryBackoff::parse_spec("100:1.5").unwrap();
        assert_eq!(b.factor, 1.5);
        assert!(b.jitter);
        assert_eq!(b.cap, Duration::MAX);

        assert!(RetryBackoff::parse_spec("abc").is_err());
        assert!(RetryBackoff::parse_spec("100:0.5").is_err(), "factor < 1");
        assert!(RetryBackoff::parse_spec("100:nan").is_err());
        assert!(RetryBackoff::parse_spec("100:2:x").is_err());
        assert!(
            RetryBackoff::parse_spec("100:2:50:9").is_err(),
            "extra field"
        );
    }

    #[test]
    fn a_pool_as_wide_as_the_host_leaves_no_core_idle() {
        // Every worker is registered before any starts, so even the
        // first job sees the whole pool busy.
        let cores = host_cores();
        let idle = pool_map_supervised(
            (0..2 * cores).collect(),
            cores,
            "core_budget",
            &strict(),
            || (),
            |(), _: usize| CoreClaim::idle().is_some(),
            keep_going,
        );
        assert!(idle.iter().all(|o| o.result == Ok(false)), "{idle:?}");
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_parallelism_rejected() {
        let _ = pool_map_supervised(
            Vec::<u64>::new(),
            0,
            "t",
            &strict(),
            || (),
            |_, j| j,
            keep_going,
        );
    }
}
