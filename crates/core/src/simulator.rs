//! End-to-end simulation: trace → hierarchy → reliability + energy.

use crate::capture::{
    Behaviour, ExposureCapture, ExposureEvents, HierarchySnapshot, StreamDefect, TalliedCapture,
};
use crate::capture_store::{seal_entry, CaptureStoreError, EntryWriter, FrameEncoder, FrameSink};
use crate::energy::EnergyModel;
use crate::helper::Helper;
use crate::observer::ReliabilityObserver;
use crate::readpath::ReadPathModel;
use crate::report::Report;
use crate::stages;
use crate::supervise::CoreClaim;
use reap_cache::{sample_ones_multi_batch, Hierarchy, HierarchyConfig, Replacement};
use reap_ecc::{Bch, CodeError, DecoderCost, EccCode, HammingSec};
use reap_mtj::{read_disturbance_probability, MtjParams};
use reap_nvarray::{estimate, ArraySpec, MemTech, SpecError, TechnologyNode};
use reap_reliability::{
    AccumulationModel, ExposureKind, MultiReplayAggregator, ReplayScore, WidthTallies,
};
use reap_trace::MemoryAccess;
use std::fmt;
use std::path::PathBuf;

/// Line-level ECC strength protecting the STT-MRAM L2.
///
/// The paper's analysis treats the whole line as one `t`-error-correcting
/// block (§III-B); the concrete codes here provide exactly that at
/// realistic check-bit costs for a 512-bit line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EccStrength {
    /// Single-error correction (Hamming, 10 check bits) — the paper's
    /// baseline assumption.
    Sec,
    /// Double-error correction (BCH t=2, 20 check bits).
    Dec,
    /// Triple-error correction (BCH t=3, 30 check bits).
    Tec,
}

impl EccStrength {
    /// All strengths, weakest first.
    pub const ALL: [EccStrength; 3] = [EccStrength::Sec, EccStrength::Dec, EccStrength::Tec];

    /// The correction capability `t`.
    pub fn t(self) -> usize {
        match self {
            EccStrength::Sec => 1,
            EccStrength::Dec => 2,
            EccStrength::Tec => 3,
        }
    }

    /// Builds the concrete code for `data_bits` payload bits.
    ///
    /// # Errors
    ///
    /// Propagates [`CodeError`] when the geometry cannot be constructed.
    pub fn build_code(self, data_bits: usize) -> Result<Box<dyn EccCode>, CodeError> {
        Ok(match self {
            EccStrength::Sec => Box::new(HammingSec::new(data_bits)?),
            EccStrength::Dec => Box::new(Bch::new(data_bits, 2)?),
            EccStrength::Tec => Box::new(Bch::new(data_bits, 3)?),
        })
    }
}

impl fmt::Display for EccStrength {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EccStrength::Sec => f.write_str("SEC"),
            EccStrength::Dec => f.write_str("DEC"),
            EccStrength::Tec => f.write_str("TEC"),
        }
    }
}

/// Full configuration of one simulation.
#[derive(Debug, Clone)]
pub struct SimulationConfig {
    /// Cache geometries (Table I by default).
    pub hierarchy: HierarchyConfig,
    /// Replacement policy for all levels.
    pub replacement: Replacement,
    /// STT-MRAM cell parameters (determine `P_rd` via Eq. (1)).
    pub mtj: MtjParams,
    /// L2 line ECC strength.
    pub ecc: EccStrength,
    /// Process node in nanometres.
    pub tech_nm: u32,
    /// Accesses issued per second by the core (for MTTF time base).
    pub access_rate_hz: f64,
    /// Accesses simulated before measurement starts (cache warm-up).
    pub warmup_accesses: u64,
    /// Accesses measured.
    pub measure_accesses: u64,
    /// L2 scrub period in measured accesses: every `scrub_period`
    /// accesses the whole L2 is scrubbed (checked and exposure-reset).
    /// `0` disables scrubbing — the paper's baseline. Behavioural: a
    /// scrub changes which exposure events occur, so captures are pinned
    /// to it.
    pub scrub_period: u64,
}

impl Default for SimulationConfig {
    /// The paper's setup: Table I hierarchy, LRU, default MTJ card
    /// (`P_rd ≈ 1.5e-8`), SEC, 22 nm, 1 G accesses/s, no scrubbing.
    fn default() -> Self {
        Self {
            hierarchy: HierarchyConfig::paper(),
            replacement: Replacement::Lru,
            mtj: MtjParams::default(),
            ecc: EccStrength::Sec,
            tech_nm: 22,
            access_rate_hz: 1e9,
            warmup_accesses: 100_000,
            measure_accesses: 1_000_000,
            scrub_period: 0,
        }
    }
}

impl SimulationConfig {
    /// The behavioural half of this configuration: what a capture taken
    /// under it is pinned to.
    pub fn behaviour(&self) -> Behaviour {
        Behaviour {
            hierarchy: self.hierarchy.clone(),
            replacement: self.replacement,
            warmup_accesses: self.warmup_accesses,
            measure_accesses: self.measure_accesses,
            scrub_period: self.scrub_period,
        }
    }
}

/// Error constructing or running a simulation.
#[derive(Debug)]
#[non_exhaustive]
pub enum SimulationError {
    /// The ECC code could not be constructed for the line width.
    Code(CodeError),
    /// The array model rejected the geometry or node.
    Array(SpecError),
    /// A parameter was out of range.
    BadParameter(&'static str),
    /// A replay was attempted against a capture whose [`Behaviour`] does
    /// not match.
    CaptureMismatch(&'static str),
    /// A capture failed while being pulled — typically its store entry
    /// vanished, or a frame failed its checksum as replay read it.
    /// [`crate::Experiment::score`] falls back to a fresh capture.
    CaptureStream(crate::capture::StreamDefect),
    /// A capture's scoped entry, under the system temp dir, could not be
    /// written.
    ScopedEntry {
        /// The entry's path.
        path: PathBuf,
        /// The underlying failure.
        source: CaptureStoreError,
    },
}

impl fmt::Display for SimulationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimulationError::Code(e) => write!(f, "ecc construction failed: {e}"),
            SimulationError::Array(e) => write!(f, "array model rejected the setup: {e}"),
            SimulationError::BadParameter(what) => write!(f, "invalid parameter: {what}"),
            SimulationError::CaptureMismatch(what) => {
                write!(f, "capture incompatible with this configuration: {what}")
            }
            SimulationError::CaptureStream(defect) => write!(f, "{defect}"),
            SimulationError::ScopedEntry { path, source } => write!(
                f,
                "cannot write capture entry {} (set TMPDIR to a writable directory): {source}",
                path.display()
            ),
        }
    }
}

impl std::error::Error for SimulationError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimulationError::Code(e) => Some(e),
            SimulationError::Array(e) => Some(e),
            SimulationError::CaptureStream(e) => Some(e),
            SimulationError::ScopedEntry { source, .. } => Some(source),
            SimulationError::BadParameter(_) | SimulationError::CaptureMismatch(_) => None,
        }
    }
}

impl From<CodeError> for SimulationError {
    fn from(e: CodeError) -> Self {
        SimulationError::Code(e)
    }
}

impl From<SpecError> for SimulationError {
    fn from(e: SpecError) -> Self {
        SimulationError::Array(e)
    }
}

/// What a capture pass leaves besides its exposure records.
pub(crate) struct CapturePass {
    /// Final hierarchy counters.
    pub(crate) snapshot: HierarchySnapshot,
    /// Data bits per L2 line.
    pub(crate) line_bits: usize,
    /// The content-weight hash seed of the captured cache.
    pub(crate) ones_seed: u64,
    /// Whether the back stage ran on a helper thread.
    pub(crate) two_stage: bool,
}

impl CapturePass {
    /// Counts the pass in the `sim.capture.*` and `cache.*` counters:
    /// `events` records coded into `frame_bytes` bytes of frames, and one
    /// `two_stage` or `inline` capture. Called
    /// once for the pass a capture keeps, so a pass abandoned to a failed
    /// store write is not counted twice.
    pub(crate) fn emit_metrics(&self, events: u64, frame_bytes: u64) {
        if reap_obs::enabled() {
            self.count_into(reap_obs::global(), events, frame_bytes);
        }
    }

    /// [`emit_metrics`](Self::emit_metrics) into `registry`. Both mode
    /// counters are registered on every pass (the mode that did not run
    /// by 0), so the set of exported metric names does not depend on
    /// whether the host had a core idle.
    fn count_into(&self, registry: &reap_obs::Registry, events: u64, frame_bytes: u64) {
        registry.counter("sim.capture.exposure_events").add(events);
        registry.counter("sim.capture.frame_bytes").add(frame_bytes);
        registry
            .counter("sim.capture.two_stage")
            .add(u64::from(self.two_stage));
        registry
            .counter("sim.capture.inline")
            .add(u64::from(!self.two_stage));
        self.snapshot.emit_metrics(registry);
    }
}

/// The helper thread's part of a split replay: its pass over the odd
/// frames, the tallies it counts them into, and its weight buffer.
struct Part {
    events: ExposureEvents,
    tallies: WidthTallies,
    widths: Vec<usize>,
    ones: Vec<u32>,
}

/// One configured analysis point: captures a trace's exposure stream
/// ([`capture`](Self::capture)) and scores captures in batches
/// ([`replay_batch`](Self::replay_batch)). Programs score through
/// [`crate::Experiment`], whose [`score`](crate::Experiment::score)
/// also recaptures a capture that fails mid-replay.
///
/// # Examples
///
/// ```
/// use reap_core::{ProtectionScheme, SimulationConfig, Simulator};
/// use reap_trace::SpecWorkload;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let config = SimulationConfig {
///     warmup_accesses: 5_000,
///     measure_accesses: 50_000,
///     ..SimulationConfig::default()
/// };
/// let sim = Simulator::new(config)?;
/// let capture = sim.capture(SpecWorkload::DealII.stream(1))?;
/// let reports = Simulator::replay_batch(std::slice::from_ref(&sim), &capture)?;
/// assert!(reports[0].mttf_improvement(ProtectionScheme::Reap) >= 1.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Simulator {
    config: SimulationConfig,
    p_rd: f64,
    check_bits: usize,
    energy_model: EnergyModel,
    readpath_model: ReadPathModel,
}

impl Simulator {
    /// Builds the derived models for `config`.
    ///
    /// # Errors
    ///
    /// Returns [`SimulationError`] if the ECC code or array model cannot
    /// be constructed, a rate/count parameter is zero, or the L2 blocks
    /// are narrower than 8 bytes.
    pub fn new(config: SimulationConfig) -> Result<Self, SimulationError> {
        if config.measure_accesses == 0 {
            return Err(SimulationError::BadParameter(
                "measure_accesses must be positive",
            ));
        }
        if config.hierarchy.l2.block_bytes() < stages::MIN_L2_BLOCK_BYTES {
            return Err(SimulationError::BadParameter(
                "L2 blocks must be at least 8 bytes",
            ));
        }
        if !(config.access_rate_hz.is_finite() && config.access_rate_hz > 0.0) {
            return Err(SimulationError::BadParameter(
                "access_rate_hz must be positive",
            ));
        }
        let line_bits = config.hierarchy.l2.line_bits();
        let code = config.ecc.build_code(line_bits)?;
        // End-to-end self-check of the constructed codec: a clean codeword
        // must decode to itself. Costs one encode + one decode per
        // simulator construction, and makes every simulation's telemetry
        // carry real `ecc.encode`/`ecc.decode` counts.
        let zeros = vec![0u8; line_bits.div_ceil(8)];
        let decoded = code.decode(code.encode(&zeros).as_bytes());
        if !matches!(decoded.outcome, reap_ecc::DecodeOutcome::Clean) || decoded.data != zeros {
            return Err(SimulationError::BadParameter("ecc codec failed self-check"));
        }
        let check_bits = code.check_bits();
        let node = TechnologyNode::nm(config.tech_nm)?;
        let spec = ArraySpec::new(
            config.hierarchy.l2.size_bytes(),
            config.hierarchy.l2.block_bytes(),
            config.hierarchy.l2.associativity(),
        )?
        .with_check_bits(check_bits);
        let array = estimate(&spec, MemTech::SttMram, node);
        let decoder = DecoderCost::estimate(code.as_ref(), config.tech_nm);
        let p_rd = read_disturbance_probability(&config.mtj);
        Ok(Self {
            config,
            p_rd,
            check_bits,
            energy_model: EnergyModel::new(array, decoder),
            readpath_model: ReadPathModel::new(array, decoder),
        })
    }

    /// The configuration in force.
    pub fn config(&self) -> &SimulationConfig {
        &self.config
    }

    /// The derived per-read, per-cell disturbance probability (Eq. (1)).
    pub fn p_rd(&self) -> f64 {
        self.p_rd
    }

    /// Phase 1: drives `trace` through the hierarchy once, recording the
    /// analysis-independent exposure stream.
    ///
    /// The resulting [`ExposureCapture`] can be replayed at any ECC
    /// strength, MTJ operating point, technology node or access rate —
    /// only the [`Behaviour`] is pinned by the capture.
    ///
    /// The events stream into a scoped entry, a file named for the
    /// process in [`std::env::temp_dir`] that is deleted when the last
    /// clone of the capture drops, so the capture holds one frame at a
    /// time whatever the window.
    ///
    /// # Errors
    ///
    /// Returns [`SimulationError::BadParameter`] if the trace ends before
    /// the configured access budget, and [`SimulationError::ScopedEntry`]
    /// if the scoped entry cannot be written.
    pub fn capture<I>(&self, trace: I) -> Result<ExposureCapture, SimulationError>
    where
        I: IntoIterator<Item = MemoryAccess>,
    {
        let writer = EntryWriter::scoped()?;
        let path = writer.path().to_owned();
        self.capture_to(trace, writer)?
            .map_err(|source| SimulationError::ScopedEntry { path, source })
    }

    /// The trace pass streamed into `writer`'s entry, committed: the
    /// capture, or the writer's error (the inner `Err`), which leaves no
    /// file behind.
    ///
    /// The pass runs in two stages ([`crate::stages`]): the trace and the
    /// L1s, then the L2, the recorder and the encoder. The second runs on
    /// a helper thread when the process's core budget shows a core idle,
    /// and inline otherwise, with the same entry either way. It stops
    /// early once the writer has failed, and emits the `sim.capture.*`
    /// and `cache.*` counters only for a capture it commits.
    pub(crate) fn capture_to<I>(
        &self,
        trace: I,
        writer: EntryWriter,
    ) -> Result<Result<ExposureCapture, CaptureStoreError>, SimulationError>
    where
        I: IntoIterator<Item = MemoryAccess>,
    {
        let helper = CoreClaim::idle();
        let frames = FrameEncoder::with_sink(writer);
        let (pass, frames) = self.capture_staged(trace, frames, helper.is_some())?;
        let sealed = seal_entry(frames, pass.snapshot, pass.line_bits, pass.ones_seed);
        Ok(sealed.map(|(source, header, frame_bytes)| {
            pass.emit_metrics(header.count, frame_bytes);
            ExposureCapture::from_source(source, header, self.config.behaviour())
        }))
    }

    /// The trace pass: drives `trace` through the hierarchy, coding the
    /// exposure records into `frames` as they are recorded, and returns
    /// the rest of the capture with the encoder. `two_stage` runs the
    /// back stage on a helper thread (unless none can start), otherwise
    /// inline. Emits no `sim.capture.*` or `cache.*` counters.
    pub(crate) fn capture_staged<I, S>(
        &self,
        trace: I,
        frames: FrameEncoder<S>,
        two_stage: bool,
    ) -> Result<(CapturePass, FrameEncoder<S>), SimulationError>
    where
        I: IntoIterator<Item = MemoryAccess>,
        S: FrameSink + Send + 'static,
        S::Error: Send,
    {
        let mut span = reap_obs::span("capture");
        let total_accesses = self.config.warmup_accesses + self.config.measure_accesses;
        let progress = reap_obs::progress_enabled()
            .then(|| reap_obs::Progress::new("capture", Some(total_accesses)));
        let mut hierarchy = Hierarchy::new(self.config.hierarchy.clone(), self.config.replacement);
        // Check bits widen the sampled content weights, but the capture
        // samples no weights at all (`CaptureObserver` reads none; replay
        // resamples them at the analysis point's width), so the capture
        // is ECC-independent even though the driving cache carries this
        // simulator's check bits.
        hierarchy.l2_mut().set_check_bits(self.check_bits);
        let (mut l1, l2) = hierarchy.into_parts();
        let staged = stages::run(
            &self.config,
            &mut trace.into_iter(),
            &mut l1,
            l2,
            frames,
            progress.as_ref(),
            two_stage,
        )?;
        if let Some(p) = &progress {
            p.finish();
        }
        span.add_events(total_accesses);
        let hierarchy = Hierarchy::from_parts(l1, staged.l2);
        let pass = CapturePass {
            snapshot: HierarchySnapshot::of(&hierarchy),
            line_bits: self.config.hierarchy.l2.line_bits(),
            ones_seed: hierarchy.l2().ones_seed(),
            two_stage: staged.two_stage,
        };
        Ok((pass, staged.frames))
    }

    /// Verifies that a capture taken under `behaviour` may be scored
    /// here: the [`Behaviour`] must be this simulator's, while the
    /// analysis point (ECC, MTJ, node, rate) is free to differ. The one
    /// check for records and cells alike.
    fn check_behaviour(&self, behaviour: &Behaviour) -> Result<(), SimulationError> {
        let config = &self.config;
        let mismatch = if behaviour.hierarchy != config.hierarchy {
            "hierarchy geometry differs"
        } else if behaviour.replacement != config.replacement {
            "replacement policy differs"
        } else if (behaviour.warmup_accesses, behaviour.measure_accesses)
            != (config.warmup_accesses, config.measure_accesses)
        {
            "access budgets differ"
        } else if behaviour.scrub_period != config.scrub_period {
            "scrub period differs"
        } else {
            return Ok(());
        };
        Err(SimulationError::CaptureMismatch(mismatch))
    }

    /// Phase 2: evaluates one captured exposure stream at *every*
    /// analysis point (ECC strength, MTJ parameters, technology node,
    /// access rate) in `points` in a **single pass** over the events,
    /// returning one report per point in input order. Cost is O(events),
    /// independent of the trace length.
    ///
    /// Each report is bit-identical to a direct
    /// [`run_single_pass`](Self::run_single_pass) at its point
    /// (property-tested), and the stream is walked once:
    /// per record, the line weight is resampled once per *distinct*
    /// stored width among the points (ECC strengths share a width when
    /// their check-bit counts match) and counted into that width's cell
    /// tally; a [`MultiReplayAggregator`] then folds every point over
    /// its width's cells.
    ///
    /// # Errors
    ///
    /// Returns [`SimulationError::CaptureMismatch`] if any point's
    /// [`Behaviour`] differs from the capture's.
    pub fn replay_batch(
        points: &[Simulator],
        capture: &ExposureCapture,
    ) -> Result<Vec<Report>, SimulationError> {
        if points.is_empty() {
            return Ok(Vec::new());
        }
        let mut multi = MultiReplayAggregator::new(Self::batch_kernel_points(points, capture));
        Ok(Self::tally_batch_into(points, capture, &mut multi)?.0)
    }

    /// [`replay_batch`](Self::replay_batch) into a caller-owned kernel,
    /// also handing back the capture reduced to its cells, which
    /// [`replay_tallied`](Self::replay_tallied) scores at other points of
    /// the same stored widths without reading the capture again. The
    /// kernel is left with empty tallies but its fold tables and memo in
    /// place, ready for the next capture: a caller replaying many
    /// captures at the same points builds it once, and the results are
    /// bit-identical to a fresh kernel per capture.
    ///
    /// `multi` must hold no records fed outside this call. A stream that
    /// fails mid-replay leaves it empty too, so a retry starts clean.
    ///
    /// When the process's core budget shows a core idle, the replay is
    /// split: the calling thread counts the capture's even frames into
    /// `multi`, and a parked helper thread its odd frames into `multi`'s
    /// [`twin`](MultiReplayAggregator::twin). The two parts' cells merge
    /// into the whole capture's, and one fold scores them. Counts are
    /// integers and the fold order is canonical, so the reports and
    /// cells are bit-identical to a whole replay on one thread. A defect
    /// in either part fails the replay with the defect of the earliest
    /// bad frame, and a panic in the helper's part resumes here.
    ///
    /// # Errors
    ///
    /// Returns [`SimulationError::CaptureMismatch`] if any point's
    /// [`Behaviour`] differs from the capture's,
    /// [`SimulationError::BadParameter`] if `multi` was built for other
    /// analysis points than [`batch_kernel_points`](Self::batch_kernel_points)
    /// of this batch, and [`SimulationError::CaptureStream`] if the
    /// capture fails while being streamed.
    pub fn tally_batch_into(
        points: &[Simulator],
        capture: &ExposureCapture,
        multi: &mut MultiReplayAggregator,
    ) -> Result<(Vec<Report>, TalliedCapture), SimulationError> {
        for sim in points {
            sim.check_behaviour(capture.behaviour())?;
        }
        if !multi.matches_points(&Self::batch_kernel_points(points, capture)) {
            return Err(SimulationError::BadParameter(
                "replay kernel was built for different analysis points",
            ));
        }
        let _span = Self::replay_span(points, capture.event_count());
        let core = CoreClaim::idle();
        #[cfg(test)]
        let split = tests::FORCE_SPLIT
            .with(|f| f.get())
            .unwrap_or(core.is_some());
        #[cfg(not(test))]
        let split = core.is_some();
        let helper = split.then(Helper::take).flatten();
        Self::count_replay(helper.is_some());
        let fed = match helper {
            Some(helper) => Self::feed_split(capture, multi, helper).map(Some),
            None => Self::feed_whole(capture, multi).map(|()| None),
        };
        drop(core);
        let cells = multi.take_cells();
        let cells = match fed? {
            Some(mut twin) => cells.merge(&twin.take_cells()),
            None => cells,
        };
        let tallied = capture.tallied(cells);
        let scores = multi.score_cells(tallied.cells());
        Ok((Self::assemble_batch(points, &tallied, scores), tallied))
    }

    /// Scores a [`TalliedCapture`] at every point through `multi`: one
    /// fold of each stored width's cells, with no record decoded or
    /// weight sampled. Bit-identical to
    /// [`tally_batch_into`](Self::tally_batch_into) of the capture it
    /// was tallied from. Counted as a replay of the capture's events.
    ///
    /// # Errors
    ///
    /// Returns [`SimulationError::CaptureMismatch`] if any point's
    /// [`Behaviour`] differs from the capture's, and
    /// [`SimulationError::BadParameter`] if `multi` was built for other
    /// analysis points or `tallied` lacks a stored width of them.
    pub fn replay_tallied(
        points: &[Simulator],
        tallied: &TalliedCapture,
        multi: &mut MultiReplayAggregator,
    ) -> Result<Vec<Report>, SimulationError> {
        for sim in points {
            sim.check_behaviour(tallied.behaviour())?;
        }
        if !multi.matches_points(&Self::kernel_points(points, tallied.line_bits())) {
            return Err(SimulationError::BadParameter(
                "replay kernel was built for different analysis points",
            ));
        }
        if !multi.covers(tallied.cells()) {
            return Err(SimulationError::BadParameter(
                "tallied capture lacks a stored width of these points",
            ));
        }
        let _span = Self::replay_span(points, tallied.event_count());
        let scores = multi.score_cells(tallied.cells());
        Ok(Self::assemble_batch(points, tallied, scores))
    }

    /// The `replay_batch` span of one batch, counting its capture's
    /// events and its points.
    fn replay_span(points: &[Simulator], events: u64) -> reap_obs::SpanGuard<'static> {
        let mut span = reap_obs::span("replay_batch");
        span.add_events(events);
        if span.is_recording() {
            reap_obs::global()
                .counter("sim.replay_batch.points")
                .add(points.len() as u64);
        }
        span
    }

    /// Per-point `(model, stored width)` pairs the batch kernel is built
    /// from — what a kernel passed to
    /// [`tally_batch_into`](Self::tally_batch_into) must match.
    pub fn batch_kernel_points(
        points: &[Simulator],
        capture: &ExposureCapture,
    ) -> Vec<(AccumulationModel, u32)> {
        Self::kernel_points(points, capture.line_bits())
    }

    /// [`batch_kernel_points`](Self::batch_kernel_points) for lines of
    /// `line_bits` data bits.
    pub(crate) fn kernel_points(
        points: &[Simulator],
        line_bits: usize,
    ) -> Vec<(AccumulationModel, u32)> {
        points
            .iter()
            .map(|sim| {
                (
                    AccumulationModel::new(sim.p_rd, sim.config.ecc.t()),
                    (line_bits + sim.check_bits) as u32,
                )
            })
            .collect()
    }

    /// Counts the replay in `sim.replay.split` or `sim.replay.whole`.
    /// Both counters are registered on every replay (the mode that did
    /// not run by 0), so the set of exported metric names does not
    /// depend on whether the host had a core idle.
    fn count_replay(split: bool) {
        if reap_obs::enabled() {
            let registry = reap_obs::global();
            registry.counter("sim.replay.split").add(u64::from(split));
            registry.counter("sim.replay.whole").add(u64::from(!split));
        }
    }

    /// The whole replay on the calling thread: every record of the
    /// capture counted into `multi` ([`feed`](Self::feed)).
    fn feed_whole(
        capture: &ExposureCapture,
        multi: &mut MultiReplayAggregator,
    ) -> Result<(), SimulationError> {
        let widths = multi.stored_widths().to_vec();
        let mut ones = vec![0u32; Self::FEED_BLOCK * widths.len()];
        let mut events = capture.iter().map_err(SimulationError::CaptureStream)?;
        Self::feed(
            &mut events,
            capture.ones_seed(),
            &widths,
            &mut ones,
            |kinds, ones| {
                multi.record_block_by_width(kinds, ones);
            },
        )
        .map_err(SimulationError::CaptureStream)
    }

    /// The replay split in two parts by frame parity: `helper` counts the
    /// odd frames into a twin of `multi`'s tallies while this thread
    /// counts the even ones into `multi`. Hands back the twin; the
    /// caller's part is left in `multi`.
    ///
    /// The helper's job allocates nothing while the frames are like the
    /// ones a capture writes: its decoder, buffers and tallies are all
    /// allocated here and moved in, and handed back to be freed here.
    ///
    /// # Errors
    ///
    /// The defect of the earliest bad frame either part found; at a tie,
    /// the defect of the part that decodes the frame.
    fn feed_split(
        capture: &ExposureCapture,
        multi: &mut MultiReplayAggregator,
        helper: Helper,
    ) -> Result<WidthTallies, SimulationError> {
        let widths = multi.stored_widths().to_vec();
        let seed = capture.ones_seed();
        let open = |phase| {
            let mut events = capture.iter().map_err(SimulationError::CaptureStream)?;
            events.only_frames(phase, 2);
            events.reserve_frame();
            Ok::<_, SimulationError>(events)
        };
        let mut mine = open(0)?;
        let mut part = Part {
            events: open(1)?,
            tallies: multi.twin(),
            widths: widths.clone(),
            ones: vec![0; Self::FEED_BLOCK * widths.len()],
        };
        let lease = helper.run(move || {
            let Part {
                events,
                tallies,
                widths,
                ones,
            } = &mut part;
            let fed = Self::feed(events, seed, widths, ones, |kinds, ones| {
                tallies.record_block_by_width(kinds, ones);
            });
            (fed, part)
        });
        let mut ones = vec![0u32; Self::FEED_BLOCK * widths.len()];
        let fed = Self::feed(&mut mine, seed, &widths, &mut ones, |kinds, ones| {
            multi.record_block_by_width(kinds, ones);
        });
        let (theirs, part) = lease.join();
        let defects = [
            fed.err().map(|defect| (mine.frame_index(), 0, defect)),
            theirs
                .err()
                .map(|defect| (part.events.frame_index(), 1, defect)),
        ];
        match defects
            .into_iter()
            .flatten()
            .min_by_key(|&(frame, phase, _)| (frame, (frame + phase) % 2))
        {
            Some((_, _, defect)) => Err(SimulationError::CaptureStream(defect)),
            None => Ok(part.tallies),
        }
    }

    /// Streams `events` in blocks of up to [`Self::FEED_BLOCK`] records,
    /// resampling each record's weight once per *distinct* stored width
    /// (`widths`, the kernel's
    /// [`stored_widths`](MultiReplayAggregator::stored_widths)) into
    /// `ones`, and hands each block to `record` as `(records, ones)`:
    /// `records[r]` is `(kind, unchecked_reads)` and `ones[r * widths
    /// ..]` its per-width weights, in capture order — the layout
    /// [`MultiReplayAggregator::record_block_by_width`] takes. Every
    /// point of a width scores that width's weight, so nothing is
    /// scattered to points.
    ///
    /// The blocks are [`ExposureEvents::next_block`]'s column slices of
    /// the decoded frame — keys to the sampler, `(kind, N)` pairs to the
    /// kernel — so no record is copied between the decoder and either.
    /// Blocking serves the sampler: one record's hash walk is a serial
    /// feedback chain, so `sample_ones_multi_batch` steps eight records'
    /// chains in lockstep to hide the latency. The weight buffer is the
    /// caller's, reused across the stream: the loop allocates nothing.
    fn feed(
        events: &mut ExposureEvents,
        seed: u64,
        widths: &[usize],
        ones: &mut [u32],
        mut record: impl FnMut(&[(ExposureKind, u64)], &[u32]),
    ) -> Result<(), StreamDefect> {
        let nw = widths.len();
        loop {
            let (keys, kinds) = events.next_block(Self::FEED_BLOCK)?;
            if keys.is_empty() {
                return Ok(());
            }
            // One shared-prefix hash walk covers every distinct width,
            // eight records' walks interleaved — bit-identical to a
            // per-width `sample_ones` (property-tested in reap-cache)
            // at a fraction of the per-record hashing latency.
            let ones = &mut ones[..keys.len() * nw];
            sample_ones_multi_batch(seed, keys, widths, ones);
            record(kinds, ones);
        }
    }

    /// Records fed per sampler block by [`feed`](Self::feed).
    const FEED_BLOCK: usize = 64;

    /// Zips folded scores back onto their points as [`Report`]s.
    fn assemble_batch(
        points: &[Simulator],
        tallied: &TalliedCapture,
        scores: Vec<ReplayScore>,
    ) -> Vec<Report> {
        points
            .iter()
            .zip(scores)
            .map(|(sim, score)| {
                let duration_seconds =
                    sim.config.measure_accesses as f64 / sim.config.access_rate_hz;
                Report::assemble(
                    tallied.snapshot(),
                    &score,
                    sim.energy_model,
                    sim.readpath_model,
                    duration_seconds,
                    sim.p_rd,
                )
            })
            .collect()
    }

    /// The historical one-pass evaluation: drives the trace with a live
    /// [`ReliabilityObserver`] scoring events as they happen.
    ///
    /// Kept as the reference implementation the capture/replay split is
    /// property-tested against; [`capture`](Self::capture) then
    /// [`replay_batch`](Self::replay_batch) produces bit-identical reports
    /// at a fraction of the cost for multi-point sweeps.
    ///
    /// # Errors
    ///
    /// Returns [`SimulationError::BadParameter`] if the trace ends before
    /// the configured access budget.
    pub fn run_single_pass<I>(&self, trace: I) -> Result<Report, SimulationError>
    where
        I: IntoIterator<Item = MemoryAccess>,
    {
        let mut span = reap_obs::span("single_pass");
        let mut hierarchy = Hierarchy::new(self.config.hierarchy.clone(), self.config.replacement);
        hierarchy.l2_mut().set_check_bits(self.check_bits);
        let stored_bits = hierarchy.l2().stored_line_bits() as u32;
        let model = AccumulationModel::new(self.p_rd, self.config.ecc.t());
        let mut observer = ReliabilityObserver::new(model, stored_bits);

        let mut iter = trace.into_iter();
        for _ in 0..self.config.warmup_accesses {
            let Some(a) = iter.next() else {
                return Err(SimulationError::BadParameter(
                    "trace shorter than warm-up budget",
                ));
            };
            hierarchy.access(a, &mut ());
        }
        hierarchy.l2_mut().reset_stats();
        let mut since_scrub = 0u64;
        for _ in 0..self.config.measure_accesses {
            let Some(a) = iter.next() else {
                return Err(SimulationError::BadParameter(
                    "trace shorter than access budget",
                ));
            };
            hierarchy.access(a, &mut observer);
            // Mirror `capture`'s scrub cadence exactly: this is the
            // reference the two-phase split is property-tested against.
            if self.config.scrub_period > 0 {
                since_scrub += 1;
                if since_scrub >= self.config.scrub_period {
                    hierarchy.l2_mut().scrub(&mut observer);
                    since_scrub = 0;
                }
            }
        }

        let duration_seconds = self.config.measure_accesses as f64 / self.config.access_rate_hz;
        let snapshot = HierarchySnapshot::of(&hierarchy);
        span.add_events(self.config.warmup_accesses + self.config.measure_accesses);
        if span.is_recording() {
            snapshot.emit_metrics(reap_obs::global());
        }
        Ok(Report::assemble(
            &snapshot,
            &observer.into_aggregator().into_score(),
            self.energy_model,
            self.readpath_model,
            duration_seconds,
            self.p_rd,
        ))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::capture_store::tests::{replay_one, report_bits};
    use crate::scheme::ProtectionScheme;
    use reap_reliability::ExposureKind;
    use reap_trace::SpecWorkload;
    use std::cell::Cell;

    thread_local! {
        /// Forces a replay on this thread to split (`Some(true)`) or run
        /// whole (`Some(false)`) whatever the core budget shows.
        pub(crate) static FORCE_SPLIT: Cell<Option<bool>> = const { Cell::new(None) };
    }

    fn quick_config() -> SimulationConfig {
        SimulationConfig {
            warmup_accesses: 2_000,
            measure_accesses: 30_000,
            ..SimulationConfig::default()
        }
    }

    #[test]
    fn an_inline_capture_exports_both_capture_mode_counters() {
        let sim = Simulator::new(quick_config()).unwrap();
        let (pass, _) = sim
            .capture_staged(
                SpecWorkload::Gcc.stream(8),
                FrameEncoder::with_sink(EntryWriter::scoped().unwrap()),
                false,
            )
            .unwrap();
        assert!(!pass.two_stage);
        let registry = reap_obs::Registry::new();
        pass.count_into(&registry, 5, 40);
        let mut jsonl = Vec::new();
        reap_obs::export::write_jsonl(&registry.snapshot(), &mut jsonl).unwrap();
        let jsonl = String::from_utf8(jsonl).unwrap();
        for name in ["sim.capture.two_stage", "sim.capture.inline"] {
            assert!(
                jsonl.contains(&format!("\"name\":\"{name}\"")),
                "{name} missing from {jsonl}"
            );
        }
        assert_eq!(registry.counter("sim.capture.two_stage").get(), 0);
        assert_eq!(registry.counter("sim.capture.inline").get(), 1);
    }

    #[test]
    fn ecc_strengths_build_codes() {
        for s in EccStrength::ALL {
            let code = s.build_code(512).unwrap();
            assert_eq!(code.correctable_errors(), s.t());
            assert_eq!(code.data_bits(), 512);
        }
        assert_eq!(EccStrength::Sec.build_code(512).unwrap().check_bits(), 10);
        assert_eq!(EccStrength::Tec.build_code(512).unwrap().check_bits(), 30);
    }

    #[test]
    fn simulator_reports_improvement_above_one() {
        let sim = Simulator::new(quick_config()).unwrap();
        let capture = sim.capture(SpecWorkload::Namd.stream(3)).unwrap();
        let report = replay_one(&sim, &capture).unwrap();
        let imp = report.mttf_improvement(ProtectionScheme::Reap);
        assert!(imp > 1.0, "improvement = {imp}");
    }

    #[test]
    fn deterministic_given_seed() {
        let sim = Simulator::new(quick_config()).unwrap();
        let run = || {
            let capture = sim.capture(SpecWorkload::Gcc.stream(9)).unwrap();
            replay_one(&sim, &capture).unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(
            a.expected_failures(ProtectionScheme::Conventional),
            b.expected_failures(ProtectionScheme::Conventional)
        );
        assert_eq!(a.l2_stats().concealed_reads, b.l2_stats().concealed_reads);
    }

    #[test]
    fn short_trace_is_an_error() {
        let sim = Simulator::new(quick_config()).unwrap();
        let trace: Vec<MemoryAccess> = (0..100).map(|i| MemoryAccess::load(i * 64)).collect();
        let err = sim.capture(trace).unwrap_err();
        assert!(matches!(err, SimulationError::BadParameter(_)));

        // Capture and the oracle name the same budget the trace fell short of.
        let trace = |n: u64| (0..n).map(|i| MemoryAccess::load(i * 64));
        for (len, want) in [
            (1_999, "trace shorter than warm-up budget"),
            (2_000, "trace shorter than access budget"),
            (31_999, "trace shorter than access budget"),
        ] {
            for err in [
                sim.capture(trace(len)).unwrap_err(),
                sim.run_single_pass(trace(len)).unwrap_err(),
            ] {
                assert!(
                    matches!(err, SimulationError::BadParameter(what) if what == want),
                    "{len}-access trace: {err}"
                );
            }
        }
        assert!(sim.capture(trace(32_000)).is_ok());
    }

    #[test]
    fn zero_measure_budget_rejected() {
        let config = SimulationConfig {
            measure_accesses: 0,
            ..SimulationConfig::default()
        };
        assert!(matches!(
            Simulator::new(config),
            Err(SimulationError::BadParameter(_))
        ));
    }

    #[test]
    fn l2_blocks_narrower_than_a_capture_op_rejected() {
        let l2 = |block_bytes| {
            reap_cache::CacheConfig::builder()
                .name("L2")
                .size_bytes(64 * 1024)
                .associativity(8)
                .block_bytes(block_bytes)
                .build()
                .unwrap()
        };
        for (block_bytes, ok) in [(4, false), (8, true)] {
            let config = SimulationConfig {
                hierarchy: HierarchyConfig {
                    l2: l2(block_bytes),
                    ..HierarchyConfig::paper()
                },
                ..quick_config()
            };
            assert_eq!(Simulator::new(config).is_ok(), ok, "{block_bytes} B blocks");
        }
    }

    #[test]
    fn p_rd_comes_from_eq_one() {
        let sim = Simulator::new(quick_config()).unwrap();
        assert!(
            (sim.p_rd() / 1.523e-8 - 1.0).abs() < 0.01,
            "p = {}",
            sim.p_rd()
        );
    }

    #[test]
    fn capture_then_replay_matches_single_pass_bit_for_bit() {
        let sim = Simulator::new(quick_config()).unwrap();
        let capture = sim.capture(SpecWorkload::Gcc.stream(5)).unwrap();
        let two_phase = replay_one(&sim, &capture).unwrap();
        let single = sim.run_single_pass(SpecWorkload::Gcc.stream(5)).unwrap();
        assert_eq!(report_bits(&two_phase), report_bits(&single));
        assert_eq!(two_phase.l2_stats(), single.l2_stats());
        assert_eq!(
            two_phase.histogram().total_count(),
            single.histogram().total_count()
        );
    }

    #[test]
    fn scrubbed_run_matches_single_pass_and_pins_the_capture() {
        let config = SimulationConfig {
            scrub_period: 5_000,
            ..quick_config()
        };
        let sim = Simulator::new(config.clone()).unwrap();
        let capture = sim.capture(SpecWorkload::Gcc.stream(5)).unwrap();
        let two_phase = replay_one(&sim, &capture).unwrap();
        let single = sim.run_single_pass(SpecWorkload::Gcc.stream(5)).unwrap();
        assert_eq!(report_bits(&two_phase), report_bits(&single));
        assert!(
            two_phase.l2_stats().scrub_checks > 0,
            "periodic scrubbing must actually scrub"
        );

        // The scrub period is behavioural: an unscrubbed simulator must
        // refuse a scrubbed capture, and vice versa.
        assert_eq!(capture.behaviour().scrub_period, 5_000);
        let unscrubbed = Simulator::new(quick_config()).unwrap();
        let err = replay_one(&unscrubbed, &capture).unwrap_err();
        assert!(matches!(err, SimulationError::CaptureMismatch(_)));
    }

    #[test]
    fn replay_batch_matches_single_pass_bit_for_bit() {
        for scrub_period in [0, 5_000] {
            let base = SimulationConfig {
                scrub_period,
                ..quick_config()
            };
            let capture = Simulator::new(base.clone())
                .unwrap()
                .capture(SpecWorkload::Namd.stream(3))
                .unwrap();
            // Heterogeneous points: every ECC width crossed with two MTJ
            // operating points, so the batch mixes distinct stored widths
            // *and* distinct P_rd values at the same width.
            let mut points = Vec::new();
            for ecc in EccStrength::ALL {
                for i_read in [70e-6, 55e-6] {
                    let config = SimulationConfig {
                        ecc,
                        mtj: MtjParams::default().with_read_current(i_read).unwrap(),
                        ..base.clone()
                    };
                    points.push(Simulator::new(config).unwrap());
                }
            }
            let batched = Simulator::replay_batch(&points, &capture).unwrap();
            assert_eq!(batched.len(), points.len());
            for (sim, got) in points.iter().zip(&batched) {
                let want = sim.run_single_pass(SpecWorkload::Namd.stream(3)).unwrap();
                assert_eq!(
                    report_bits(got),
                    report_bits(&want),
                    "batched point (ecc {}, P_rd {}, scrub {scrub_period}) diverged from \
                     the single pass",
                    sim.config.ecc,
                    sim.p_rd()
                );
                assert_eq!(got.histogram(), want.histogram());
            }
        }
    }

    #[test]
    fn replay_batch_of_nothing_is_empty() {
        let capture = Simulator::new(quick_config())
            .unwrap()
            .capture(SpecWorkload::Gcc.stream(1))
            .unwrap();
        assert!(Simulator::replay_batch(&[], &capture).unwrap().is_empty());
    }

    #[test]
    fn replay_batch_rejects_any_mismatched_point() {
        let capture = Simulator::new(quick_config())
            .unwrap()
            .capture(SpecWorkload::Gcc.stream(1))
            .unwrap();
        let good = Simulator::new(quick_config()).unwrap();
        let bad = Simulator::new(SimulationConfig {
            replacement: Replacement::Fifo,
            ..quick_config()
        })
        .unwrap();
        let err = Simulator::replay_batch(&[good, bad], &capture).unwrap_err();
        assert!(matches!(err, SimulationError::CaptureMismatch(_)));
    }

    #[test]
    fn tally_batch_into_refuses_a_kernel_built_for_other_points() {
        let capture = Simulator::new(quick_config())
            .unwrap()
            .capture(SpecWorkload::Gcc.stream(1))
            .unwrap();
        let sims = |eccs: &[EccStrength]| {
            eccs.iter()
                .map(|&ecc| {
                    Simulator::new(SimulationConfig {
                        ecc,
                        ..quick_config()
                    })
                    .unwrap()
                })
                .collect::<Vec<_>>()
        };
        let sec_dec = sims(&[EccStrength::Sec, EccStrength::Dec]);
        let mut kernel =
            MultiReplayAggregator::new(Simulator::batch_kernel_points(&sec_dec, &capture));
        // Other widths, a missing point, swapped order: all refused.
        for other in [
            sims(&[EccStrength::Sec, EccStrength::Tec]),
            sims(&[EccStrength::Sec]),
            sims(&[EccStrength::Dec, EccStrength::Sec]),
            Vec::new(),
        ] {
            let err = Simulator::tally_batch_into(&other, &capture, &mut kernel).unwrap_err();
            assert!(
                matches!(err, SimulationError::BadParameter(m) if m.contains("analysis points")),
                "{err}"
            );
        }
        // A refusal leaves the kernel as it was.
        let (reused, _) = Simulator::tally_batch_into(&sec_dec, &capture, &mut kernel).unwrap();
        let fresh = Simulator::replay_batch(&sec_dec, &capture).unwrap();
        for (got, want) in reused.iter().zip(&fresh) {
            assert_eq!(report_bits(got), report_bits(want));
        }
    }

    /// Cells tallied under one behaviour are refused by points of
    /// another, with the message a capture's records get; points of the
    /// same behaviour score them.
    #[test]
    fn replay_tallied_refuses_points_of_another_behaviour() {
        let config = quick_config();
        let capture = Simulator::new(config.clone())
            .unwrap()
            .capture(SpecWorkload::Gcc.stream(1))
            .unwrap();
        let points = [Simulator::new(config.clone()).unwrap()];
        let mut multi =
            MultiReplayAggregator::new(Simulator::batch_kernel_points(&points, &capture));
        let (want, tallied) = Simulator::tally_batch_into(&points, &capture, &mut multi).unwrap();
        assert_eq!(tallied.behaviour(), &config.behaviour());
        let others = [
            (
                SimulationConfig {
                    hierarchy: HierarchyConfig {
                        l2: reap_cache::CacheConfig::builder()
                            .name("L2")
                            .size_bytes(512 * 1024)
                            .associativity(8)
                            .block_bytes(64)
                            .build()
                            .unwrap(),
                        ..HierarchyConfig::paper()
                    },
                    ..config.clone()
                },
                "hierarchy geometry differs",
            ),
            (
                SimulationConfig {
                    replacement: Replacement::Fifo,
                    ..config.clone()
                },
                "replacement policy differs",
            ),
            (
                SimulationConfig {
                    warmup_accesses: 1_000,
                    ..config.clone()
                },
                "access budgets differ",
            ),
            (
                SimulationConfig {
                    scrub_period: 700,
                    ..config.clone()
                },
                "scrub period differs",
            ),
        ];
        for (other, message) in others {
            let other = [Simulator::new(other).unwrap()];
            let mut kernel =
                MultiReplayAggregator::new(Simulator::batch_kernel_points(&other, &capture));
            for err in [
                Simulator::replay_tallied(&other, &tallied, &mut kernel).unwrap_err(),
                Simulator::replay_batch(&other, &capture).unwrap_err(),
            ] {
                assert!(
                    matches!(err, SimulationError::CaptureMismatch(m) if m == message),
                    "{err}"
                );
            }
        }
        let got = Simulator::replay_tallied(&points, &tallied, &mut multi).unwrap();
        assert_eq!(report_bits(&got[0]), report_bits(&want[0]));
    }

    /// A capture of `records` synthetic records at `config`: demand
    /// reads, dirty evictions and, when the config scrubs, dirty scrubs,
    /// with small and large `N` alike.
    fn synthetic_capture(config: &SimulationConfig, records: u64, seed: u64) -> ExposureCapture {
        let mut state = seed;
        let events = (0..records)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let kind = match state % 7 {
                    0 if config.scrub_period > 0 => ExposureKind::DirtyScrub,
                    1 => ExposureKind::DirtyEviction,
                    _ => ExposureKind::Demand,
                };
                let reads = (state >> 33) % if state.is_multiple_of(11) { 5_000 } else { 40 };
                crate::capture::ExposureRecord {
                    kind,
                    key: reap_cache::LineKey {
                        tag: (state >> 16) & 0xffff,
                        set: (state >> 8) & 1023,
                        version: state >> 52,
                    },
                    unchecked_reads: reads + u64::from(kind == ExposureKind::Demand),
                }
            })
            .collect();
        ExposureCapture::from_parts(
            events,
            HierarchySnapshot::of(&Hierarchy::new(
                config.hierarchy.clone(),
                config.replacement,
            )),
            config.hierarchy.l2.line_bits(),
            seed,
            config.behaviour(),
        )
        .unwrap()
    }

    /// `tally_batch_into` with the replay forced to split or to run whole.
    fn tally_forced(
        split: bool,
        points: &[Simulator],
        capture: &ExposureCapture,
    ) -> Result<(Vec<Report>, TalliedCapture), SimulationError> {
        let mut multi = MultiReplayAggregator::new(Simulator::batch_kernel_points(points, capture));
        FORCE_SPLIT.set(Some(split));
        let tallied = Simulator::tally_batch_into(points, capture, &mut multi);
        FORCE_SPLIT.set(None);
        tallied
    }

    proptest::proptest! {
        /// A replay split across the caller and a helper counts the very
        /// cells, and scores the very reports, that a whole replay does:
        /// at 0 to 7 frames, scrubbed or not, over 1 to 4 stored widths.
        #[test]
        fn a_split_replay_matches_a_whole_one_bit_for_bit(
            frames in 0usize..5,
            tail in 1u64..=4096,
            scrub in 0usize..3,
            widths in 1usize..=4,
            seed in 0u64..1_000_000,
        ) {
            let frames = [0u64, 1, 2, 3, 7][frames];
            let records = if frames == 0 { 0 } else { (frames - 1) * 4096 + tail };
            let config = SimulationConfig {
                scrub_period: [0, 1, 700][scrub],
                ..quick_config()
            };
            let capture = synthetic_capture(&config, records, seed);
            proptest::prop_assert_eq!(
                capture.event_count().div_ceil(u64::from(crate::capture_store::FRAME_RECORDS)),
                frames
            );

            // The feeds themselves, at up to four stored widths.
            let kernel_points: Vec<(AccumulationModel, u32)> = [522, 542, 288, 532]
                .iter()
                .take(widths)
                .enumerate()
                .map(|(i, &w)| (AccumulationModel::new(10f64.powi(-5 - i as i32), 1 + i % 3), w))
                .collect();
            let mut whole = MultiReplayAggregator::new(kernel_points.clone());
            Simulator::feed_whole(&capture, &mut whole).unwrap();
            let whole_cells = whole.take_cells();
            let mut split = MultiReplayAggregator::new(kernel_points);
            let helper = Helper::take().expect("a helper thread starts");
            let mut twin = Simulator::feed_split(&capture, &mut split, helper).unwrap();
            let split_cells = split.take_cells().merge(&twin.take_cells());
            proptest::prop_assert!(split_cells == whole_cells, "cells differ");
            for (a, b) in split.score_cells(&split_cells).iter().zip(&whole.score_cells(&whole_cells)) {
                proptest::prop_assert_eq!(a, b);
            }

            // The reports, at up to three ECC strengths.
            let points: Vec<Simulator> = EccStrength::ALL
                .into_iter()
                .take(widths.min(3))
                .map(|ecc| Simulator::new(SimulationConfig { ecc, ..config.clone() }).unwrap())
                .collect();
            let (split_reports, split_tallied) = tally_forced(true, &points, &capture).unwrap();
            let (whole_reports, whole_tallied) = tally_forced(false, &points, &capture).unwrap();
            proptest::prop_assert!(split_tallied.cells() == whole_tallied.cells(), "cells differ");
            for (a, b) in split_reports.iter().zip(&whole_reports) {
                proptest::prop_assert_eq!(report_bits(a), report_bits(b));
                proptest::prop_assert_eq!(a.histogram(), b.histogram());
                proptest::prop_assert_eq!(a.l2_stats(), b.l2_stats());
            }
        }
    }

    /// The byte ranges of a capture entry's frames, in order.
    fn frame_spans(entry: &[u8]) -> Vec<std::ops::Range<usize>> {
        let mut at = crate::capture_store::ENTRY_HEADER_BYTES;
        let mut spans = Vec::new();
        while at < entry.len() {
            let payload = u32::from_le_bytes(entry[at + 4..at + 8].try_into().unwrap()) as usize;
            spans.push(at..at + 8 + payload + 8);
            at += 8 + payload + 8;
        }
        spans
    }

    /// However a split replay's parts meet a damaged entry, it fails with
    /// the defect a whole replay reports: that of the earliest bad frame.
    #[test]
    fn a_split_replay_reports_the_defect_of_the_earliest_bad_frame() {
        let config = SimulationConfig {
            scrub_period: 700,
            ..quick_config()
        };
        let points = [Simulator::new(config.clone()).unwrap()];
        let clean =
            std::fs::read(synthetic_capture(&config, 5 * 4096 + 9, 3).entry_path()).unwrap();
        let spans = frame_spans(&clean);
        assert_eq!(spans.len(), 6);
        // A flipped payload byte in one or two frames, a flipped record
        // count or payload length, and a file cut short in a frame.
        type Rot = Box<dyn Fn(&mut Vec<u8>)>;
        let flip = |frames: &'static [usize], at: fn(&std::ops::Range<usize>) -> usize| -> Rot {
            let spans = spans.clone();
            Box::new(move |entry: &mut Vec<u8>| {
                for &f in frames {
                    entry[at(&spans[f])] ^= 0x40;
                }
            })
        };
        let payload_byte = |span: &std::ops::Range<usize>| span.start + 8 + (span.len() - 16) / 2;
        let record_count = |span: &std::ops::Range<usize>| span.start + 1;
        let payload_len = |span: &std::ops::Range<usize>| span.start + 4;
        let cut = |frame: usize| -> Rot {
            let end = spans[frame].start + 20;
            Box::new(move |entry: &mut Vec<u8>| entry.truncate(end))
        };
        let rots: Vec<(&str, Rot)> = vec![
            ("payload 0", flip(&[0], payload_byte)),
            ("payload 1", flip(&[1], payload_byte)),
            ("payload 1, 2", flip(&[1, 2], payload_byte)),
            ("payload 2, 3", flip(&[2, 3], payload_byte)),
            ("payload 5", flip(&[5], payload_byte)),
            ("count 1", flip(&[1], record_count)),
            ("count 2, payload 4", flip(&[2], record_count)),
            ("length 3", flip(&[3], payload_len)),
            ("length 2", flip(&[2], payload_len)),
            ("cut in 3", cut(3)),
            ("cut in 4", cut(4)),
        ];
        for (what, rot) in rots {
            let capture = synthetic_capture(&config, 5 * 4096 + 9, 3);
            let mut entry = clean.clone();
            rot(&mut entry);
            std::fs::write(capture.entry_path(), &entry).unwrap();
            let whole = tally_forced(false, &points, &capture).err();
            let split = tally_forced(true, &points, &capture).err();
            assert!(
                matches!(whole, Some(SimulationError::CaptureStream(_))),
                "{what}: {whole:?}"
            );
            assert_eq!(
                split.map(|e| e.to_string()),
                whole.map(|e| e.to_string()),
                "{what}"
            );
        }
    }

    /// A frame that fails its checksum in either part of a split replay
    /// costs one warning and a recapture, and the scores of a clean run.
    #[test]
    fn a_corrupt_frame_in_either_part_recaptures_to_the_same_reports() {
        use crate::capture_store::tests::WARNINGS;
        let experiment = crate::Experiment::paper_hierarchy()
            .workload(SpecWorkload::Gcc)
            .budgets(1_000, 60_000)
            .scrub(2_500)
            .seed(8);
        let points = experiment.simulators_at(&EccStrength::ALL).unwrap();
        let clean = experiment.capture_with(None).unwrap();
        let want: Vec<[u64; 4]> = tally_forced(false, &points, &clean)
            .unwrap()
            .0
            .iter()
            .map(report_bits)
            .collect();
        for frame in [0, 1] {
            let capture = experiment.capture_with(None).unwrap();
            let mut entry = std::fs::read(capture.entry_path()).unwrap();
            let spans = frame_spans(&entry);
            assert!(spans.len() > 2, "the entry must span frames");
            let span = &spans[frame];
            entry[span.start + 8 + (span.len() - 16) / 2] ^= 0x40;
            std::fs::write(capture.entry_path(), &entry).unwrap();
            WARNINGS.take();
            FORCE_SPLIT.set(Some(true));
            let got = experiment.score(&points, &capture, None, &mut None);
            FORCE_SPLIT.set(None);
            let got: Vec<[u64; 4]> = got.unwrap().iter().map(report_bits).collect();
            assert_eq!(got, want, "frame {frame}");
            let warnings = WARNINGS.take();
            assert_eq!(warnings.len(), 1, "frame {frame}: {warnings:?}");
            assert!(
                warnings[0].starts_with("capture failed mid-replay ("),
                "{warnings:?}"
            );
        }
    }

    /// A panic in the helper's part resumes on the caller with its
    /// payload, and the helper parks again for the next capture.
    #[test]
    fn a_panic_in_the_helpers_part_resumes_on_the_caller() {
        let config = quick_config();
        let points = [Simulator::new(config.clone()).unwrap()];
        // A demand record that counts no read breaks the tally's
        // contract; it sits in frame 1, the helper's.
        let mut events = synthetic_capture(&config, 3 * 4096, 5).events();
        events[4096 + 17] = crate::capture::ExposureRecord {
            kind: ExposureKind::Demand,
            unchecked_reads: 0,
            ..events[4096 + 17]
        };
        let capture = ExposureCapture::from_parts(
            events,
            HierarchySnapshot::of(&Hierarchy::new(
                config.hierarchy.clone(),
                config.replacement,
            )),
            config.hierarchy.l2.line_bits(),
            5,
            config.behaviour(),
        )
        .unwrap();
        let panic = std::panic::catch_unwind(|| tally_forced(true, &points, &capture))
            .expect_err("the helper's part panics");
        FORCE_SPLIT.set(None);
        let message = panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| panic.downcast_ref::<&str>().copied());
        assert_eq!(message, Some("N counts the demand read itself, so N >= 1"));
        let sim = Simulator::new(config).unwrap();
        let frames = FrameEncoder::with_sink(EntryWriter::scoped().unwrap());
        let (pass, _) = sim
            .capture_staged(SpecWorkload::Gcc.stream(2), frames, true)
            .unwrap();
        assert!(pass.two_stage);
    }

    #[test]
    fn error_display_chains() {
        let e = SimulationError::from(CodeError::UnsupportedCorrection { t: 0 });
        assert!(e.to_string().contains("ecc construction failed"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
