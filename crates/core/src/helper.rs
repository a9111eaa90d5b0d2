//! Helper threads: run one job on an idle core, beside the calling
//! thread.
//!
//! A cold capture's back stage ([`crate::stages`]) and one part of a
//! replay split across cores ([`crate::Simulator::tally_batch_into`])
//! each run as a job on a helper. The caller decides whether a core is
//! idle ([`CoreClaim`]); this module only keeps the threads.
//!
//! Helpers have a small stack and park between jobs instead of exiting:
//! a thread's exit path touches about 0.2 MiB of C library code that a
//! one-capture process would otherwise add to its peak RSS. A job should
//! allocate nothing: the caller allocates what the job writes into and
//! moves it in. Memory a helper allocates comes from an allocator arena
//! of its own, on fresh pages, where the caller's allocation reuses the
//! pages its own arena already holds (a capture's freed L2, say).
//!
//! [`CoreClaim`]: crate::supervise::CoreClaim

use crate::supervise::{in_supervised_attempt, AttemptMarker};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

/// Stack of a helper thread: a back stage or a replay part needs little.
const STACK_BYTES: usize = 256 << 10;

/// A job for a helper thread.
type Job = Box<dyn FnOnce() + Send>;

/// A value handed from one thread to another.
struct Slot<T> {
    value: Mutex<Option<T>>,
    filled: Condvar,
}

impl<T> Slot<T> {
    fn new() -> Self {
        Self {
            value: Mutex::new(None),
            filled: Condvar::new(),
        }
    }

    fn put(&self, value: T) {
        *self.value.lock().unwrap_or_else(PoisonError::into_inner) = Some(value);
        self.filled.notify_one();
    }

    /// Waits for the value and takes it.
    fn take(&self) -> T {
        let mut value = self.value.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(value) = value.take() {
                return value;
            }
            value = self
                .filled
                .wait(value)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// A parked helper thread, known by the slot it takes jobs from.
pub(crate) struct Helper(Arc<Slot<Job>>);

/// Helper threads parked between jobs. They are never joined: each lives
/// as long as the process, and each job catches its own panic and hands
/// it to the lease that gave the job.
static PARKED: Mutex<Vec<Helper>> = Mutex::new(Vec::new());

impl Helper {
    /// A parked helper, or a new one. `None` if no thread could start.
    pub(crate) fn take() -> Option<Self> {
        if let Some(helper) = PARKED.lock().unwrap_or_else(PoisonError::into_inner).pop() {
            return Some(helper);
        }
        let jobs = Arc::new(Slot::<Job>::new());
        let inbox = Arc::clone(&jobs);
        std::thread::Builder::new()
            .name("reap-helper".to_owned())
            .stack_size(STACK_BYTES)
            .spawn(move || loop {
                (inbox.take())();
            })
            .ok()?;
        Some(Self(jobs))
    }

    /// Runs `job` on this helper. The lease hands back its value and
    /// parks the helper again. A job run inside a supervised attempt
    /// panics as quietly as the attempt itself.
    pub(crate) fn run<T, F>(self, job: F) -> Lease<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let done = Arc::new(Slot::new());
        let outcome = Arc::clone(&done);
        let quiet = in_supervised_attempt();
        self.0.put(Box::new(move || {
            let _quiet = AttemptMarker::inherit(quiet);
            outcome.put(catch_unwind(AssertUnwindSafe(job)));
        }));
        Lease {
            helper: Some(self),
            done,
        }
    }

    fn park(self) {
        PARKED
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(self);
    }
}

/// One job on a helper: the helper goes back to the parked ones once the
/// job is done, also when the caller unwinds first.
pub(crate) struct Lease<T> {
    helper: Option<Helper>,
    /// The job's outcome.
    done: Arc<Slot<std::thread::Result<T>>>,
}

impl<T> Lease<T> {
    /// Waits for the job and hands back its value.
    ///
    /// # Panics
    ///
    /// A panic in the job resumes here, with the original payload.
    pub(crate) fn join(mut self) -> T {
        let outcome = self.done.take();
        if let Some(helper) = self.helper.take() {
            helper.park();
        }
        outcome.unwrap_or_else(|panic| resume_unwind(panic))
    }
}

impl<T> Drop for Lease<T> {
    fn drop(&mut self) {
        if let Some(helper) = self.helper.take() {
            drop(self.done.take());
            helper.park();
        }
    }
}
