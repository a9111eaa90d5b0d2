//! End-to-end simulation: trace → hierarchy → reliability + energy.

use crate::capture::{EventSource, ExposureCapture, ExposureStream, HierarchySnapshot};
use crate::capture_store::{FrameEncoder, FrameSink};
use crate::energy::EnergyModel;
use crate::observer::ReliabilityObserver;
use crate::readpath::ReadPathModel;
use crate::report::Report;
use crate::stages;
use crate::supervise::CoreClaim;
use reap_cache::{sample_ones_multi_batch, Hierarchy, HierarchyConfig, Replacement};
use reap_ecc::{Bch, CodeError, DecoderCost, EccCode, HammingSec};
use reap_mtj::{read_disturbance_probability, MtjParams};
use reap_nvarray::{estimate, ArraySpec, MemTech, SpecError, TechnologyNode};
use reap_reliability::{AccumulationModel, ExposureKind, MultiReplayAggregator, ReplayAggregator};
use reap_trace::MemoryAccess;
use std::fmt;

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
    /// A replay was attempted against a capture whose behavioural
    /// configuration (hierarchy, replacement, budgets) does not match.
    CaptureMismatch(&'static str),
    /// A capture failed while being pulled — typically its store entry
    /// vanished, or a frame failed its checksum as replay read it.
    /// [`crate::Experiment::score`] falls back to a fresh capture.
    CaptureStream(crate::capture::StreamDefect),
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
        }
    }
}

impl std::error::Error for SimulationError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimulationError::Code(e) => Some(e),
            SimulationError::Array(e) => Some(e),
            SimulationError::CaptureStream(e) => Some(e),
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
        if !reap_obs::enabled() {
            return;
        }
        let registry = reap_obs::global();
        registry.counter("sim.capture.exposure_events").add(events);
        registry.counter("sim.capture.frame_bytes").add(frame_bytes);
        registry
            .counter(if self.two_stage {
                "sim.capture.two_stage"
            } else {
                "sim.capture.inline"
            })
            .add(1);
        self.snapshot.emit_metrics(registry);
    }
}

/// Runs a configured simulation over a trace.
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
/// let report = Simulator::new(config)?.run(SpecWorkload::DealII.stream(1))?;
/// assert!(report.mttf_improvement(ProtectionScheme::Reap) >= 1.0);
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

    /// Drives `trace` through the hierarchy and produces the report.
    ///
    /// The trace must supply at least `warmup + measure` accesses;
    /// infinite generator streams always do.
    ///
    /// Implemented as [`capture`](Self::capture) followed by
    /// [`replay`](Self::replay) — bit-identical to the historical
    /// single-pass evaluation (kept as
    /// [`run_single_pass`](Self::run_single_pass) and cross-checked by
    /// property tests), while making the expensive trace pass reusable
    /// across analysis points.
    ///
    /// # Errors
    ///
    /// Returns [`SimulationError::BadParameter`] if the trace ends before
    /// the configured access budget.
    pub fn run<I>(&self, trace: I) -> Result<Report, SimulationError>
    where
        I: IntoIterator<Item = MemoryAccess>,
    {
        let capture = self.capture(trace)?;
        self.replay(&capture)
    }

    /// Phase 1: drives `trace` through the hierarchy once, recording the
    /// analysis-independent exposure stream.
    ///
    /// The resulting [`ExposureCapture`] can be replayed at any ECC
    /// strength, MTJ operating point, technology node or access rate —
    /// only the *behavioural* configuration (hierarchy geometry,
    /// replacement policy, access budgets) is pinned by the capture.
    ///
    /// # Errors
    ///
    /// Returns [`SimulationError::BadParameter`] if the trace ends before
    /// the configured access budget.
    pub fn capture<I>(&self, trace: I) -> Result<ExposureCapture, SimulationError>
    where
        I: IntoIterator<Item = MemoryAccess>,
    {
        let (pass, frames) = self.capture_into(trace, FrameEncoder::new())?;
        let Ok((count, frame_bytes, frames)) = frames.finish();
        pass.emit_metrics(count, frame_bytes);
        Ok(ExposureCapture::from_source(
            EventSource::Frames(frames.into()),
            count,
            pass.snapshot,
            pass.line_bits,
            pass.ones_seed,
            self.config.hierarchy.clone(),
            self.config.replacement,
            self.config.warmup_accesses,
            self.config.measure_accesses,
            self.config.scrub_period,
        ))
    }

    /// The trace pass of [`capture`](Self::capture): drives `trace`
    /// through the hierarchy, coding the exposure records into `frames`
    /// as they are recorded, and returns the rest of the capture with the
    /// encoder. The frames' sink decides where they go: memory for a
    /// store-less capture, the entry's file for a store-backed one.
    ///
    /// The pass runs in two stages ([`crate::stages`]): the trace and the
    /// L1s, then the L2, the recorder and the encoder. The second runs on
    /// a helper thread when the process's core budget shows a core idle,
    /// and inline otherwise, with the same frames either way.
    ///
    /// Stops early once the sink has failed, since its caller discards
    /// the pass. Emits no `sim.capture.*` or `cache.*` counters: the
    /// caller emits them through [`CapturePass::emit_metrics`] for the
    /// pass it keeps.
    pub(crate) fn capture_into<I, S>(
        &self,
        trace: I,
        frames: FrameEncoder<S>,
    ) -> Result<(CapturePass, FrameEncoder<S>), SimulationError>
    where
        I: IntoIterator<Item = MemoryAccess>,
        S: FrameSink + Send + 'static,
        S::Error: Send,
    {
        let helper = CoreClaim::idle();
        self.capture_staged(trace, frames, helper.is_some())
    }

    /// [`capture_into`](Self::capture_into) with the choice made:
    /// `two_stage` runs the back stage on a helper thread (unless none
    /// can start), otherwise inline.
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

    /// Phase 2: evaluates a captured exposure stream at this simulator's
    /// analysis point (ECC strength, MTJ parameters, technology node,
    /// access rate) and produces the report.
    ///
    /// A one-point [`replay_batch`](Self::replay_batch): each recorded
    /// event's line weight is resampled from its content version key at
    /// *this* configuration's stored width, and the events are scored in
    /// capture order by the batched kernel — making the result
    /// bit-identical to a direct [`run_single_pass`](Self::run_single_pass)
    /// of the same trace at this configuration. Cost is O(events),
    /// independent of the trace length.
    ///
    /// # Errors
    ///
    /// Returns [`SimulationError::CaptureMismatch`] if the capture was
    /// taken under a different behavioural configuration.
    pub fn replay(&self, capture: &ExposureCapture) -> Result<Report, SimulationError> {
        let mut reports = Self::replay_batch(std::slice::from_ref(self), capture)?;
        Ok(reports.pop().expect("one point in, one report out"))
    }

    /// Verifies that `capture` was taken under this simulator's
    /// *behavioural* configuration (hierarchy, replacement, budgets) —
    /// the analysis point (ECC, MTJ, node, rate) is free to differ.
    fn check_capture(&self, capture: &ExposureCapture) -> Result<(), SimulationError> {
        if *capture.hierarchy() != self.config.hierarchy {
            return Err(SimulationError::CaptureMismatch(
                "hierarchy geometry differs",
            ));
        }
        if capture.replacement() != self.config.replacement {
            return Err(SimulationError::CaptureMismatch(
                "replacement policy differs",
            ));
        }
        if capture.warmup_accesses() != self.config.warmup_accesses
            || capture.measure_accesses() != self.config.measure_accesses
        {
            return Err(SimulationError::CaptureMismatch("access budgets differ"));
        }
        if capture.scrub_period() != self.config.scrub_period {
            return Err(SimulationError::CaptureMismatch("scrub period differs"));
        }
        Ok(())
    }

    /// Batched phase 2: evaluates one captured exposure stream at *every*
    /// analysis point in `points` in a **single pass** over the events,
    /// returning one report per point in input order.
    ///
    /// Each report is bit-identical to a direct
    /// [`run_single_pass`](Self::run_single_pass) at its point
    /// (property-tested), and the stream is walked once:
    /// per record, the line weight is resampled once per *distinct*
    /// stored width among the points (ECC strengths share a width when
    /// their check-bit counts match) and scored against all points by a
    /// [`MultiReplayAggregator`], whose stacked lookup tables and
    /// small-`N` memo keep the per-point cost to a few table reads.
    ///
    /// # Errors
    ///
    /// Returns [`SimulationError::CaptureMismatch`] if any point's
    /// behavioural configuration differs from the capture's.
    pub fn replay_batch(
        points: &[Simulator],
        capture: &ExposureCapture,
    ) -> Result<Vec<Report>, SimulationError> {
        if points.is_empty() {
            return Ok(Vec::new());
        }
        let mut multi = MultiReplayAggregator::new(Self::batch_kernel_points(points, capture));
        Self::replay_batch_into(points, capture, &mut multi)
    }

    /// [`replay_batch`](Self::replay_batch) into a caller-owned kernel:
    /// scores `capture` at every point through `multi` and hands back the
    /// reports, leaving `multi` emptied by
    /// [`MultiReplayAggregator::take_reports`] but holding its tables and
    /// memo, ready for the next capture. A caller replaying many captures
    /// at the same points builds the kernel once; the results are
    /// bit-identical to a fresh kernel per capture.
    ///
    /// `multi` must hold no records fed outside this call. A stream that
    /// fails mid-replay leaves it empty too, so a retry starts clean.
    ///
    /// # Errors
    ///
    /// Returns [`SimulationError::CaptureMismatch`] if any point's
    /// behavioural configuration differs from the capture's,
    /// [`SimulationError::BadParameter`] if `multi` was built for other
    /// analysis points than [`batch_kernel_points`](Self::batch_kernel_points)
    /// of this batch, and [`SimulationError::CaptureStream`] if the
    /// capture fails while being streamed.
    pub fn replay_batch_into(
        points: &[Simulator],
        capture: &ExposureCapture,
        multi: &mut MultiReplayAggregator,
    ) -> Result<Vec<Report>, SimulationError> {
        for sim in points {
            sim.check_capture(capture)?;
        }
        if !multi.matches_points(&Self::batch_kernel_points(points, capture)) {
            return Err(SimulationError::BadParameter(
                "replay kernel was built for different analysis points",
            ));
        }
        let mut span = reap_obs::span("replay_batch");
        span.add_events(capture.event_count());
        if span.is_recording() {
            reap_obs::global()
                .counter("sim.replay_batch.points")
                .add(points.len() as u64);
        }

        let fed = Self::feed_batch(points, capture, multi);
        let aggregators = multi.take_reports();
        fed?;
        Ok(Self::assemble_batch(points, capture, aggregators))
    }

    /// Per-point `(model, stored width)` pairs the batch kernel is built
    /// from — what a kernel passed to
    /// [`replay_batch_into`](Self::replay_batch_into) must match.
    pub fn batch_kernel_points(
        points: &[Simulator],
        capture: &ExposureCapture,
    ) -> Vec<(AccumulationModel, u32)> {
        points
            .iter()
            .map(|sim| {
                (
                    AccumulationModel::new(sim.p_rd, sim.config.ecc.t()),
                    (capture.line_bits() + sim.check_bits) as u32,
                )
            })
            .collect()
    }

    /// Streams the capture once in blocks of [`Self::FEED_BLOCK`]
    /// records, resampling each record's weight once per *distinct*
    /// stored width and scattering to the per-point slots the kernel
    /// expects. Each block is handed to
    /// [`MultiReplayAggregator::record_block`] as `(records, ones)` —
    /// `records[r]` is `(kind, unchecked_reads)` and
    /// `ones[r * points.len() ..]` its per-point weights, in capture
    /// order.
    ///
    /// Blocking serves both halves of the pipeline: one record's hash
    /// walk is a serial feedback chain, so `sample_ones_multi_batch`
    /// steps four records' chains in lockstep to hide the latency, and
    /// the vectorized kernel register-blocks its running sums across
    /// each block. The block buffers are reused across the stream — no
    /// per-record allocation.
    fn feed_batch(
        points: &[Simulator],
        capture: &ExposureCapture,
        multi: &mut MultiReplayAggregator,
    ) -> Result<(), SimulationError> {
        let stored_bits: Vec<usize> = points
            .iter()
            .map(|sim| capture.line_bits() + sim.check_bits)
            .collect();
        let mut widths = stored_bits.clone();
        widths.sort_unstable();
        widths.dedup();
        let width_index: Vec<usize> = stored_bits
            .iter()
            .map(|w| widths.binary_search(w).expect("width present"))
            .collect();

        let seed = capture.ones_seed();
        let nw = widths.len();
        let npts = points.len();
        let mut keys: Vec<(u64, u64, u64)> = Vec::with_capacity(Self::FEED_BLOCK);
        let mut kinds: Vec<(ExposureKind, u64)> = Vec::with_capacity(Self::FEED_BLOCK);
        let mut ones_by_width = vec![0u32; Self::FEED_BLOCK * nw];
        let mut ones_by_point = vec![0u32; Self::FEED_BLOCK * npts];
        let mut events = capture.iter().map_err(SimulationError::CaptureStream)?;
        loop {
            keys.clear();
            kinds.clear();
            while keys.len() < Self::FEED_BLOCK {
                match events
                    .next_record()
                    .map_err(SimulationError::CaptureStream)?
                {
                    Some(event) => {
                        keys.push((event.key.tag, event.key.set, event.key.version));
                        kinds.push((event.kind, event.unchecked_reads));
                    }
                    None => break,
                }
            }
            if keys.is_empty() {
                return Ok(());
            }
            // One shared-prefix hash walk covers every distinct width,
            // four records' walks interleaved — bit-identical to a
            // per-width `sample_ones` (property-tested in reap-cache)
            // at a fraction of the per-record hashing latency.
            sample_ones_multi_batch(seed, &keys, &widths, &mut ones_by_width[..keys.len() * nw]);
            for row in 0..keys.len() {
                for (i, &w) in width_index.iter().enumerate() {
                    ones_by_point[row * npts + i] = ones_by_width[row * nw + w];
                }
            }
            multi.record_block(&kinds, &ones_by_point[..keys.len() * npts]);
        }
    }

    /// Records fed per sampler block by [`feed_batch`](Self::feed_batch).
    const FEED_BLOCK: usize = 64;

    /// Zips finished aggregators back onto their points as [`Report`]s.
    fn assemble_batch(
        points: &[Simulator],
        capture: &ExposureCapture,
        aggregators: Vec<ReplayAggregator>,
    ) -> Vec<Report> {
        points
            .iter()
            .zip(aggregators)
            .map(|(sim, aggregator)| {
                let duration_seconds =
                    sim.config.measure_accesses as f64 / sim.config.access_rate_hz;
                Report::assemble(
                    capture.snapshot(),
                    &aggregator,
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
    /// property-tested against; [`run`](Self::run) produces bit-identical
    /// reports at a fraction of the cost for multi-point sweeps.
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
            &observer.into_aggregator(),
            self.energy_model,
            self.readpath_model,
            duration_seconds,
            self.p_rd,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::ProtectionScheme;
    use reap_trace::SpecWorkload;

    fn quick_config() -> SimulationConfig {
        SimulationConfig {
            warmup_accesses: 2_000,
            measure_accesses: 30_000,
            ..SimulationConfig::default()
        }
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
        let report = sim.run(SpecWorkload::Namd.stream(3)).unwrap();
        let imp = report.mttf_improvement(ProtectionScheme::Reap);
        assert!(imp > 1.0, "improvement = {imp}");
    }

    #[test]
    fn deterministic_given_seed() {
        let sim = Simulator::new(quick_config()).unwrap();
        let a = sim.run(SpecWorkload::Gcc.stream(9)).unwrap();
        let b = sim.run(SpecWorkload::Gcc.stream(9)).unwrap();
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
        let err = sim.run(trace).unwrap_err();
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

    fn failure_bits(r: &Report) -> [u64; 4] {
        [
            r.expected_failures(ProtectionScheme::Conventional)
                .to_bits(),
            r.expected_failures(ProtectionScheme::Reap).to_bits(),
            r.expected_failures(ProtectionScheme::SerialTagFirst)
                .to_bits(),
            r.writeback_exposure().to_bits(),
        ]
    }

    #[test]
    fn run_matches_single_pass_bit_for_bit() {
        let sim = Simulator::new(quick_config()).unwrap();
        let two_phase = sim.run(SpecWorkload::Gcc.stream(5)).unwrap();
        let single = sim.run_single_pass(SpecWorkload::Gcc.stream(5)).unwrap();
        assert_eq!(failure_bits(&two_phase), failure_bits(&single));
        assert_eq!(two_phase.l2_stats(), single.l2_stats());
        assert_eq!(
            two_phase.histogram().total_count(),
            single.histogram().total_count()
        );
    }

    #[test]
    fn one_capture_replays_across_ecc_strengths() {
        let capture = Simulator::new(quick_config())
            .unwrap()
            .capture(SpecWorkload::Namd.stream(3))
            .unwrap();
        for ecc in EccStrength::ALL {
            let config = SimulationConfig {
                ecc,
                ..quick_config()
            };
            let sim = Simulator::new(config).unwrap();
            let replayed = sim.replay(&capture).unwrap();
            let direct = sim.run_single_pass(SpecWorkload::Namd.stream(3)).unwrap();
            assert_eq!(
                failure_bits(&replayed),
                failure_bits(&direct),
                "replay at {ecc} must match a direct run"
            );
        }
    }

    #[test]
    fn replay_rejects_behavioural_mismatch() {
        let capture = Simulator::new(quick_config())
            .unwrap()
            .capture(SpecWorkload::Namd.stream(3))
            .unwrap();
        let other = SimulationConfig {
            replacement: Replacement::Fifo,
            ..quick_config()
        };
        let err = Simulator::new(other).unwrap().replay(&capture).unwrap_err();
        assert!(matches!(err, SimulationError::CaptureMismatch(_)));
        let other = SimulationConfig {
            measure_accesses: 10_000,
            ..quick_config()
        };
        let err = Simulator::new(other).unwrap().replay(&capture).unwrap_err();
        assert!(matches!(err, SimulationError::CaptureMismatch(_)));
    }

    #[test]
    fn scrubbed_run_matches_single_pass_and_pins_the_capture() {
        let config = SimulationConfig {
            scrub_period: 5_000,
            ..quick_config()
        };
        let sim = Simulator::new(config.clone()).unwrap();
        let two_phase = sim.run(SpecWorkload::Gcc.stream(5)).unwrap();
        let single = sim.run_single_pass(SpecWorkload::Gcc.stream(5)).unwrap();
        assert_eq!(failure_bits(&two_phase), failure_bits(&single));
        assert!(
            two_phase.l2_stats().scrub_checks > 0,
            "periodic scrubbing must actually scrub"
        );

        // The scrub period is behavioural: an unscrubbed simulator must
        // refuse a scrubbed capture, and vice versa.
        let capture = sim.capture(SpecWorkload::Gcc.stream(5)).unwrap();
        assert_eq!(capture.scrub_period(), 5_000);
        let unscrubbed = Simulator::new(quick_config()).unwrap();
        let err = unscrubbed.replay(&capture).unwrap_err();
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
                    failure_bits(got),
                    failure_bits(&want),
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
    fn replay_batch_into_refuses_a_kernel_built_for_other_points() {
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
            let err = Simulator::replay_batch_into(&other, &capture, &mut kernel).unwrap_err();
            assert!(
                matches!(err, SimulationError::BadParameter(m) if m.contains("analysis points")),
                "{err}"
            );
        }
        // A refusal leaves the kernel as it was.
        let reused = Simulator::replay_batch_into(&sec_dec, &capture, &mut kernel).unwrap();
        let fresh = Simulator::replay_batch(&sec_dec, &capture).unwrap();
        for (got, want) in reused.iter().zip(&fresh) {
            assert_eq!(failure_bits(got), failure_bits(want));
        }
    }

    #[test]
    fn error_display_chains() {
        let e = SimulationError::from(CodeError::UnsupportedCorrection { t: 0 });
        assert!(e.to_string().contains("ecc construction failed"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
