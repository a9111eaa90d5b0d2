//! The two stages of a cold capture.
//!
//! The hierarchy is non-inclusive: nothing the STT-MRAM L2 does reaches
//! back into the SRAM L1s. So the requests the L1s send the L2 depend only
//! on the trace, and a capture splits exactly in two:
//!
//! * the **front stage** pulls the trace through the L1s
//!   ([`L1Filter`]) and writes the L2 requests as compact ops into fixed
//!   blocks of [`BLOCK_OPS`] ops. An op is an L2 line address with a
//!   read/write-back flag and an end-of-access flag; marker ops place
//!   the end of warm-up and each scrub in the stream;
//! * the **back stage** applies the blocks in order to the L2
//!   ([`L2Level`]), records the exposure events ([`CaptureObserver`]),
//!   and codes each access's records into frames ([`FrameEncoder`]) as
//!   the access ends.
//!
//! When the process's core budget ([`CoreClaim`]) shows a core idle, the
//! back stage runs on a parked [`Helper`] thread, and a ring of
//! [`RING_BLOCKS`] preallocated blocks carries the ops over and back.
//! Otherwise the calling thread applies each block itself as soon as it
//! is full. Either way the L2 sees the same ops in the same order, and
//! frame cuts depend only on the record sequence, so both runs give the
//! same frames byte for byte.
//!
//! The back stage owns what it drives (the L2, the recorder, the
//! encoder) while it runs and hands it back at the end, and allocates
//! nothing. Between captures the same helpers run the parts of replays
//! split across cores ([`crate::Simulator::tally_batch_into`]).
//!
//! [`CoreClaim`]: crate::supervise::CoreClaim

use crate::capture::CaptureObserver;
use crate::capture_store::{FrameEncoder, FrameSink};
use crate::helper::Helper;
use crate::simulator::{SimulationConfig, SimulationError};
use reap_cache::{L1Filter, L2Level, L2Op};
use reap_obs::Progress;
use reap_trace::MemoryAccess;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Ops per block.
const BLOCK_OPS: usize = 1024;
/// Blocks in the ring: one filling, one applying, one waiting.
const RING_BLOCKS: usize = 3;
/// How long a stage waiting on the other polls before it sleeps: longer
/// than the other stage takes over a block, so a steady capture never
/// sleeps. A stage that slept on every block would cost a wake-up per
/// block, and the scheduler tends to wake a thread on its waker's core,
/// which runs the two stages on one core by turns.
const SPIN: Duration = Duration::from_micros(500);

/// Op flag: a write-back (clear: a read). On a marker: a scrub (clear:
/// the end of warm-up).
const WRITEBACK: u64 = 1;
/// Op flag: the last op of its access.
const END_OF_ACCESS: u64 = 1 << 1;
/// Op flag: a marker, not an L2 request.
const MARKER: u64 = 1 << 2;
/// Flag bits below an op's line address.
const FLAG_BITS: u32 = 3;
/// Marker: warm-up ends, the L2 counters reset and recording starts.
const WARMUP_END: u64 = MARKER;
/// Marker: the whole L2 is scrubbed.
const SCRUB: u64 = MARKER | WRITEBACK;

/// The smallest L2 block an op carries without loss: a block address
/// shifted right by the block's offset bits leaves room for the flags.
pub(crate) const MIN_L2_BLOCK_BYTES: usize = 1 << FLAG_BITS;

/// A fixed block of ops.
struct OpBlock {
    len: usize,
    ops: [u64; BLOCK_OPS],
}

impl OpBlock {
    fn boxed() -> Box<Self> {
        Box::new(Self {
            len: 0,
            ops: [0; BLOCK_OPS],
        })
    }

    fn ops(&self) -> &[u64] {
        &self.ops[..self.len]
    }
}

/// What a staged capture hands back.
pub(crate) struct Staged<S: FrameSink> {
    /// The L2 after the measured window.
    pub(crate) l2: L2Level,
    /// The encoder, holding every record of the window.
    pub(crate) frames: FrameEncoder<S>,
    /// Whether the back stage ran on a helper thread.
    pub(crate) two_stage: bool,
}

/// Drives `trace` through `l1` and `l2` for `config`'s warm-up and
/// measured window, coding the measured window's exposure records into
/// `frames`. Runs the back stage on a helper thread if `two_stage` asks
/// for it and one is parked or starts, inline otherwise.
///
/// Stops early, with `Ok`, once the sink has failed: the caller discards
/// the pass.
///
/// # Errors
///
/// Returns [`SimulationError::BadParameter`] if the trace ends before the
/// warm-up or the measured budget.
///
/// # Panics
///
/// A panic in either stage ends both and resumes on the calling thread
/// with the original payload.
pub(crate) fn run<I, S>(
    config: &SimulationConfig,
    trace: &mut I,
    l1: &mut L1Filter,
    l2: L2Level,
    frames: FrameEncoder<S>,
    progress: Option<&Progress>,
    two_stage: bool,
) -> Result<Staged<S>, SimulationError>
where
    I: Iterator<Item = MemoryAccess>,
    S: FrameSink + Send + 'static,
    S::Error: Send,
{
    let line_shift = config.hierarchy.l2.block_bytes().trailing_zeros();
    debug_assert!(line_shift >= FLAG_BITS, "checked by `Simulator::new`");
    // An access records at most two events, a scrub one per L2 line.
    // Reserved here, so the back stage never grows the buffer.
    let records = if config.scrub_period > 0 {
        config.hierarchy.l2.num_lines()
    } else {
        2
    };
    let mut back = Back {
        l2,
        observer: CaptureObserver::with_capacity(records),
        frames,
        line_shift,
        measuring: false,
        stopped: false,
    };
    if let Some(helper) = two_stage.then(Helper::take).flatten() {
        let (result, back) = run_two_stage(helper, config, trace, l1, back, progress);
        return result.map(|()| back.finish(true));
    }
    let result = drive_front(
        config,
        trace,
        l1,
        &mut Front::new(&mut back, line_shift),
        progress,
    );
    result.map(|()| back.finish(false))
}

/// The two-stage run: the back stage on `helper`, the front on this
/// thread. Hands the back stage back with the front stage's result.
fn run_two_stage<I, S>(
    helper: Helper,
    config: &SimulationConfig,
    trace: &mut I,
    l1: &mut L1Filter,
    back: Back<S>,
    progress: Option<&Progress>,
) -> (Result<(), SimulationError>, Back<S>)
where
    I: Iterator<Item = MemoryAccess>,
    S: FrameSink + Send + 'static,
    S::Error: Send,
{
    let line_shift = back.line_shift;
    let ring = Arc::new(Ring::new());
    let lease = {
        let ring = Arc::clone(&ring);
        helper.run(move || {
            let mut back = back;
            run_back(&ring, &mut back);
            back
        })
    };
    // Declared after the lease, so a panic here ends the front stage
    // before the lease waits for the back stage.
    let mut end = EndFront {
        ring: &ring,
        failed: true,
    };
    let result = drive_front(
        config,
        trace,
        l1,
        &mut Front::new(&mut RingFront(&ring), line_shift),
        progress,
    );
    end.failed = result.is_err();
    drop(end);
    (result, lease.join())
}

/// The front stage's loop: the trace through the L1s, ops into blocks.
fn drive_front<I: Iterator<Item = MemoryAccess>>(
    config: &SimulationConfig,
    trace: &mut I,
    l1: &mut L1Filter,
    front: &mut Front<'_>,
    progress: Option<&Progress>,
) -> Result<(), SimulationError> {
    for _ in 0..config.warmup_accesses {
        let Some(a) = trace.next() else {
            return Err(SimulationError::BadParameter(
                "trace shorter than warm-up budget",
            ));
        };
        l1.access(a, |op| front.request(op));
        front.end_access();
        if let Some(p) = progress {
            p.tick(1);
        }
    }
    front.push(WARMUP_END);
    let mut since_scrub = 0u64;
    for _ in 0..config.measure_accesses {
        if front.stopped {
            break;
        }
        let Some(a) = trace.next() else {
            return Err(SimulationError::BadParameter(
                "trace shorter than access budget",
            ));
        };
        l1.access(a, |op| front.request(op));
        front.end_access();
        // Periodic scrubbing (behavioural, see `SimulationConfig`):
        // checks and exposure-resets every valid L2 line. No terminal
        // scrub — period 0 stays bit-identical to the historical
        // unscrubbed capture.
        if config.scrub_period > 0 {
            since_scrub += 1;
            if since_scrub >= config.scrub_period {
                front.push(SCRUB);
                since_scrub = 0;
            }
        }
        if let Some(p) = progress {
            p.tick(1);
        }
    }
    front.finish();
    Ok(())
}

/// Where the front stage's blocks go.
trait Lane {
    /// Hands the filled `block` to the back stage and leaves an empty
    /// one in its place. `false` once the back stage has stopped.
    fn ship(&mut self, block: &mut Box<OpBlock>) -> bool;
}

/// The front stage's op writer.
struct Front<'l> {
    /// The block being filled.
    block: Box<OpBlock>,
    lane: &'l mut dyn Lane,
    line_shift: u32,
    /// Whether the open access has written an op.
    open: bool,
    /// Whether the back stage has stopped taking blocks.
    stopped: bool,
}

impl<'l> Front<'l> {
    fn new(lane: &'l mut dyn Lane, line_shift: u32) -> Self {
        Self {
            block: OpBlock::boxed(),
            lane,
            line_shift,
            open: false,
            stopped: false,
        }
    }

    fn push(&mut self, op: u64) {
        // A block ships when the next op needs its room, never right
        // after an op, so `end_access` always finds the access's last op
        // in the open block.
        if self.block.len == BLOCK_OPS && !self.lane.ship(&mut self.block) {
            self.stopped = true;
        }
        self.block.ops[self.block.len] = op;
        self.block.len += 1;
    }

    #[inline]
    fn request(&mut self, op: L2Op) {
        let (address, flag) = match op {
            L2Op::Read(address) => (address, 0),
            L2Op::Writeback(address) => (address, WRITEBACK),
        };
        self.push((address >> self.line_shift) << FLAG_BITS | flag);
        self.open = true;
    }

    fn end_access(&mut self) {
        if std::mem::take(&mut self.open) {
            self.block.ops[self.block.len - 1] |= END_OF_ACCESS;
        }
    }

    fn finish(&mut self) {
        if self.block.len > 0 && !self.lane.ship(&mut self.block) {
            self.stopped = true;
        }
    }
}

/// The back stage: the L2, the exposure recorder and the frame encoder.
struct Back<S: FrameSink> {
    l2: L2Level,
    observer: CaptureObserver,
    frames: FrameEncoder<S>,
    line_shift: u32,
    /// Whether warm-up is over: L2 events are recorded from then on.
    measuring: bool,
    /// Whether the sink has failed, which ends the stage.
    stopped: bool,
}

impl<S: FrameSink> Back<S> {
    /// Applies `ops` in order. `false` once the sink has failed.
    ///
    /// Kept out of line: both lanes call this one copy.
    #[inline(never)]
    fn apply(&mut self, ops: &[u64]) -> bool {
        if self.stopped {
            return false;
        }
        for &op in ops {
            if op & MARKER != 0 {
                if op == WARMUP_END {
                    self.l2.l2_mut().reset_stats();
                    self.measuring = true;
                } else {
                    self.l2.l2_mut().scrub(&mut self.observer);
                    if !self.drain() {
                        return false;
                    }
                }
                continue;
            }
            let address = (op >> FLAG_BITS) << self.line_shift;
            let request = if op & WRITEBACK == 0 {
                L2Op::Read(address)
            } else {
                L2Op::Writeback(address)
            };
            if !self.measuring {
                self.l2.apply(request, &mut ());
                continue;
            }
            self.l2.apply(request, &mut self.observer);
            if op & END_OF_ACCESS != 0 && !self.drain() {
                return false;
            }
        }
        true
    }

    /// Codes the records held so far into frames: one access's worth, or
    /// one scrub's. `false` once the sink has failed.
    fn drain(&mut self) -> bool {
        self.observer.drain_into(&mut self.frames);
        self.stopped = self.frames.failed();
        !self.stopped
    }

    /// Drains what is left and hands the L2 and the encoder back.
    fn finish(mut self, two_stage: bool) -> Staged<S> {
        self.drain();
        Staged {
            l2: self.l2,
            frames: self.frames,
            two_stage,
        }
    }
}

/// The inline lane: the calling thread applies each block as soon as
/// it is full.
impl<S: FrameSink> Lane for Back<S> {
    fn ship(&mut self, block: &mut Box<OpBlock>) -> bool {
        let applied = self.apply(block.ops());
        block.len = 0;
        applied
    }
}

/// The blocks between the two stages.
struct Ring {
    state: Mutex<RingState>,
    /// Bumped on every change to the state, so a polling stage watches
    /// it without taking the lock. Only a hint to stop polling: the
    /// state itself is read under the lock, which orders it.
    changes: AtomicU64,
    /// Wakes a sleeping stage.
    moved: Condvar,
}

struct RingState {
    /// Filled blocks, in shipping order.
    full: VecDeque<Box<OpBlock>>,
    /// Applied blocks, ready to refill.
    free: Vec<Box<OpBlock>>,
    /// The front stage ships no more blocks.
    front_done: bool,
    /// The front stage failed or panicked: what is left goes unapplied.
    front_failed: bool,
    /// The back stage takes no more blocks.
    back_stopped: bool,
    /// Stages asleep on `moved`.
    sleepers: u32,
}

impl Ring {
    fn new() -> Self {
        Self {
            state: Mutex::new(RingState {
                full: VecDeque::with_capacity(RING_BLOCKS),
                // The front stage fills a block of its own, so these
                // two never outgrow their first allocation.
                free: (1..RING_BLOCKS).map(|_| OpBlock::boxed()).collect(),
                front_done: false,
                front_failed: false,
                back_stopped: false,
                sleepers: 0,
            }),
            changes: AtomicU64::new(0),
            moved: Condvar::new(),
        }
    }

    /// The state, also after a stage panicked (no stage panics while it
    /// holds the lock, and the ends are flags a panic only sets).
    fn lock(&self) -> MutexGuard<'_, RingState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Tries `step` on the state until it yields a value, then publishes
    /// the step as a change. Between tries the stage polls for [`SPIN`]
    /// and then sleeps until the other stage changes the state.
    fn step<R>(&self, mut step: impl FnMut(&mut RingState) -> Option<R>) -> R {
        let started = Instant::now();
        loop {
            let seen = self.changes.load(Ordering::Relaxed);
            let mut state = self.lock();
            if let Some(value) = step(&mut state) {
                return self.publish(state, value);
            }
            if started.elapsed() < SPIN {
                drop(state);
                while self.changes.load(Ordering::Relaxed) == seen && started.elapsed() < SPIN {
                    std::hint::spin_loop();
                }
                continue;
            }
            state.sleepers += 1;
            loop {
                state = self
                    .moved
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
                if let Some(value) = step(&mut state) {
                    state.sleepers -= 1;
                    return self.publish(state, value);
                }
            }
        }
    }

    /// Counts a change made under `state`'s lock and wakes any sleeper.
    fn publish<R>(&self, state: MutexGuard<'_, RingState>, value: R) -> R {
        self.changes.fetch_add(1, Ordering::Relaxed);
        if state.sleepers > 0 {
            self.moved.notify_all();
        }
        value
    }
}

/// The front stage's lane into the ring.
struct RingFront<'r>(&'r Ring);

impl Lane for RingFront<'_> {
    fn ship(&mut self, block: &mut Box<OpBlock>) -> bool {
        self.0.step(|state| {
            if state.back_stopped {
                block.len = 0;
                return Some(false);
            }
            let mut empty = state.free.pop()?;
            empty.len = 0;
            state.full.push_back(std::mem::replace(block, empty));
            Some(true)
        })
    }
}

/// Ends the front stage on drop, a panic included.
struct EndFront<'r> {
    ring: &'r Ring,
    /// Whether the front stage failed; set until it returns `Ok`.
    failed: bool,
}

impl Drop for EndFront<'_> {
    fn drop(&mut self) {
        let failed = self.failed;
        self.ring.step(|state| {
            state.front_done = true;
            state.front_failed |= failed;
            Some(())
        });
    }
}

/// Ends the back stage on drop, a panic included.
struct StopBack<'r>(&'r Ring);

impl Drop for StopBack<'_> {
    fn drop(&mut self) {
        self.0.step(|state| {
            state.back_stopped = true;
            Some(())
        });
    }
}

/// The back stage's loop on the helper thread: apply each shipped block,
/// hand it back, until the front stage is done or the sink fails.
fn run_back<S: FrameSink>(ring: &Ring, back: &mut Back<S>) {
    let _stop = StopBack(ring);
    loop {
        let next = ring.step(|state| {
            if state.front_failed {
                return Some(None);
            }
            match state.full.pop_front() {
                Some(block) => Some(Some(block)),
                None => state.front_done.then_some(None),
            }
        });
        let Some(block) = next else {
            return;
        };
        let applied = back.apply(block.ops());
        let mut block = Some(block);
        ring.step(|state| {
            state.free.extend(block.take());
            Some(())
        });
        if !applied {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture_store::tests::{scoped_files, scratch, with_scoped_dir};
    use crate::capture_store::{seal_entry, CaptureStoreError, EntryWriter};
    use crate::simulator::{CapturePass, Simulator};
    use crate::supervise::{pool_map_supervised, JobError, SupervisorConfig};
    use proptest::prelude::*;
    use reap_cache::{AccessMode, CacheConfig, HierarchyConfig, Replacement};
    use reap_trace::SpecWorkload;
    use std::ops::ControlFlow;

    fn config(warmup: u64, measure: u64) -> SimulationConfig {
        SimulationConfig {
            warmup_accesses: warmup,
            measure_accesses: measure,
            ..SimulationConfig::default()
        }
    }

    /// A capture's pass, record count and entry bytes.
    type Captured = (CapturePass, u64, Vec<u8>);

    /// One capture into a scoped entry, both stages on this thread or not.
    fn capture(
        sim: &Simulator,
        trace: impl IntoIterator<Item = MemoryAccess>,
        two_stage: bool,
    ) -> Result<Captured, SimulationError> {
        let frames = FrameEncoder::with_sink(EntryWriter::scoped()?);
        let (pass, frames) = sim.capture_staged(trace, frames, two_stage)?;
        let (source, header, _) =
            seal_entry(frames, pass.snapshot, pass.line_bits, pass.ones_seed).unwrap();
        let bytes = std::fs::read(&source.path).unwrap();
        Ok((pass, header.count, bytes))
    }

    proptest! {
        /// The back stage on a helper thread codes the very entry, and
        /// leaves the very counters, that it codes inline.
        #[test]
        fn two_stage_and_inline_captures_are_byte_identical(
            workload in 0usize..21,
            seed in 0u64..1_000,
            warmup in 0u64..4_000,
            measure in 1u64..24_000,
            scrub in (0u64..2, 200u64..6_000),
            policy in (0u8..2, 0u8..2),
        ) {
            let (ler, serial) = policy;
            let l2 = CacheConfig::builder()
                .name("L2")
                .size_bytes(1 << 20)
                .associativity(8)
                .block_bytes(64)
                .access_mode(if serial == 1 { AccessMode::Serial } else { AccessMode::Parallel })
                .build()
                .unwrap();
            let sim = Simulator::new(SimulationConfig {
                hierarchy: HierarchyConfig { l2, ..HierarchyConfig::paper() },
                replacement: if ler == 1 { Replacement::LeastErrorRate } else { Replacement::Lru },
                scrub_period: scrub.0 * scrub.1,
                ..config(warmup, measure)
            })
            .unwrap();
            let workload = SpecWorkload::ALL[workload];
            let (inline, inline_count, inline_entry) =
                capture(&sim, workload.stream(seed), false).unwrap();
            let (staged, staged_count, staged_entry) =
                capture(&sim, workload.stream(seed), true).unwrap();
            prop_assert!(!inline.two_stage);
            prop_assert!(staged.two_stage);
            prop_assert_eq!(inline_count, staged_count);
            prop_assert!(inline_entry == staged_entry, "entries differ");
            prop_assert_eq!(inline.snapshot, staged.snapshot);
            prop_assert_eq!(inline.ones_seed, staged.ones_seed);
        }
    }

    #[test]
    fn a_short_trace_fails_alike_in_both_modes() {
        let sim = Simulator::new(config(2_000, 30_000)).unwrap();
        let trace = |n: u64| (0..n).map(|i| MemoryAccess::load(i * 64));
        for two_stage in [false, true] {
            for (len, want) in [
                (0, "trace shorter than warm-up budget"),
                (1_999, "trace shorter than warm-up budget"),
                (2_000, "trace shorter than access budget"),
                (31_999, "trace shorter than access budget"),
            ] {
                let err = capture(&sim, trace(len), two_stage).err();
                assert!(
                    matches!(err, Some(SimulationError::BadParameter(what)) if what == want),
                    "{len}-access trace, two-stage {two_stage}: {err:?}"
                );
            }
            assert!(capture(&sim, trace(32_000), two_stage).is_ok());
        }
    }

    /// An entry writer that panics on its `n`th frame.
    struct PanickingSink(u32, EntryWriter);

    impl FrameSink for PanickingSink {
        type Error = CaptureStoreError;

        fn put(&mut self, frame: &[u8]) -> Result<(), Self::Error> {
            self.0 = self.0.saturating_sub(1);
            assert!(self.0 > 0, "sink exploded");
            self.1.put(frame)
        }
    }

    /// The scoped directory of one job of the stage-panic test.
    fn panic_dir((two_stage, in_back): (bool, bool)) -> std::path::PathBuf {
        scratch(&format!("stage-panic-{two_stage}-{in_back}"))
    }

    /// A panic in either stage, inline or on a helper, is the job's panic,
    /// and the unwinding deletes the capture's scoped entry.
    #[test]
    fn a_panic_in_either_stage_is_the_supervised_jobs_panic() {
        let sim = std::sync::Arc::new(Simulator::new(config(1_000, 60_000)).unwrap());
        // (two-stage, back stage panics): the front stage panics by a
        // trace that explodes mid-window, the back stage by its sink.
        let jobs: Vec<(bool, bool)> = [false, true]
            .into_iter()
            .flat_map(|two_stage| [(two_stage, false), (two_stage, true)])
            .collect();
        let strict = SupervisorConfig {
            max_retries: 0,
            ..SupervisorConfig::default()
        };
        let job_sim = std::sync::Arc::clone(&sim);
        let outcomes = pool_map_supervised(
            jobs.clone(),
            1,
            "stage_panics",
            &strict,
            || (),
            move |(), (two_stage, in_back): (bool, bool)| {
                let sim = &job_sim;
                with_scoped_dir(&panic_dir((two_stage, in_back)), || {
                    let writer = EntryWriter::scoped()?;
                    if in_back {
                        let frames = FrameEncoder::with_sink(PanickingSink(3, writer));
                        let trace = SpecWorkload::Gcc.stream(1);
                        sim.capture_staged(trace, frames, two_stage).map(|_| ())
                    } else {
                        let trace = SpecWorkload::Gcc.stream(1).enumerate().map(|(i, a)| {
                            assert!(i < 30_000, "trace exploded");
                            a
                        });
                        let frames = FrameEncoder::with_sink(writer);
                        sim.capture_staged(trace, frames, two_stage).map(|_| ())
                    }
                })
            },
            |_, _| ControlFlow::Continue(()),
        );
        for ((two_stage, in_back), outcome) in jobs.into_iter().zip(outcomes) {
            let want = if in_back {
                "sink exploded"
            } else {
                "trace exploded"
            };
            assert!(
                matches!(&outcome.result, Err(JobError::Panicked { message }) if message == want),
                "two-stage {two_stage}, back {in_back}: {:?}",
                outcome.result.map(|r| r.is_ok())
            );
            let dir = panic_dir((two_stage, in_back));
            assert!(scoped_files(&dir).is_empty(), "{:?}", scoped_files(&dir));
            std::fs::remove_dir(dir).ok();
        }
        // The helper that caught the back stage's panic takes the next
        // capture.
        let (pass, _, _) = capture(&sim, SpecWorkload::Gcc.stream(1), true).unwrap();
        assert!(pass.two_stage);
    }
}
