//! Phase 1 of the two-phase simulation: the exposure capture.
//!
//! Driving a trace through the cache hierarchy is by far the expensive
//! part of a run, yet everything the reliability laws need from it is a
//! short stream of *exposure events*: for each demand check, dirty scrub
//! or dirty eviction, the accumulated read count `N` and the content
//! version key of the line involved. None of that depends on the ECC
//! strength or the MTJ operating point — those only enter when an event
//! is *scored*. The capture phase therefore records the stream once
//! ([`ExposureCapture`]), and any number of analysis points replay it in
//! one O(events) pass ([`crate::Simulator::replay_batch`]), bit-identical
//! to a direct single-pass run at each configuration.
//!
//! # Examples
//!
//! ```
//! use reap_core::{EccStrength, Experiment, ProtectionScheme};
//! use reap_trace::SpecWorkload;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let experiment = Experiment::paper_hierarchy()
//!     .workload(SpecWorkload::DealII)
//!     .accesses(30_000);
//! // One pass over the trace, scored at every ECC strength.
//! let points = experiment.simulators_at(&EccStrength::ALL)?;
//! for report in experiment.run_at(&points, None, &mut None)? {
//!     assert!(report.mttf_improvement(ProtectionScheme::Reap) >= 1.0);
//! }
//! # Ok(())
//! # }
//! ```

use crate::capture_store::{
    reopen_entry, seal_entry, EntryWriter, FrameEncoder, FrameSink, TempFile, V2Decoder, V2Header,
};
use crate::simulator::SimulationError;
use reap_cache::{AccessObserver, CacheStats, Hierarchy, HierarchyConfig, LineKey, Replacement};
use reap_reliability::{ExposureKind, TalliedCells};
use std::fmt;
use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// One scored exposure event: what happened, to which content version,
/// and how many unchecked reads had accumulated.
///
/// The line's `1`-weight is deliberately *not* stored — it depends on the
/// stored line width (data + check bits) and is resampled at replay time
/// from the [`LineKey`] at the analysis point's width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExposureRecord {
    /// The event class (demand check, dirty scrub, dirty eviction).
    pub kind: ExposureKind,
    /// The content-version identity of the line involved.
    pub key: LineKey,
    /// Accumulated unchecked reads, `N` of Eqs. (3)/(6).
    pub unchecked_reads: u64,
}

/// A defect surfaced while pulling records from a capture — typically
/// its store entry vanished or a frame failed its checksum. Carries the
/// rendered cause (offsets included) so callers can log it and fall back
/// to a fresh capture.
#[derive(Debug, Clone)]
pub struct StreamDefect {
    detail: String,
}

impl StreamDefect {
    /// Wraps a rendered cause.
    pub fn new(detail: impl Into<String>) -> Self {
        Self {
            detail: detail.into(),
        }
    }

    /// The rendered cause.
    pub fn detail(&self) -> &str {
        &self.detail
    }
}

impl fmt::Display for StreamDefect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "capture stream defect: {}", self.detail)
    }
}

impl std::error::Error for StreamDefect {}

/// A bounded-memory source of [`ExposureRecord`]s with a known length.
///
/// This is the replay input surface: [`crate::Simulator::replay_batch`]
/// pulls records one at a time, so a
/// disk-backed stream (e.g. a `reap-capture/2` store entry) replays in
/// O(1) memory instead of materializing an owned `Vec`. Records are
/// yielded in capture order; scores do not depend on that order, since
/// replay counts records into `(kind, ones, N)` cells before it folds.
pub trait ExposureStream {
    /// Total records the stream will yield (known up front).
    fn len(&self) -> u64;

    /// Whether the stream yields no records at all.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pulls the next record, `Ok(None)` at end of stream. A defect
    /// (I/O error, checksum mismatch, malformed frame) ends the stream;
    /// callers are expected to fall back to a fresh capture.
    fn next_record(&mut self) -> Result<Option<ExposureRecord>, StreamDefect>;
}

/// Where a capture's events live: a `reap-capture/2` entry file, which
/// each replay pass re-opens and decodes a frame at a time, verifying each
/// frame's checksum as it goes. A store's entry outlives the capture; a
/// scoped entry is shared by the capture's clones and deleted when the
/// last of them drops.
#[derive(Debug, Clone)]
pub(crate) struct EventSource {
    pub(crate) path: PathBuf,
    pub(crate) fingerprint: u64,
    /// A scoped entry's file; `None` for a store's entry.
    pub(crate) scoped: Option<Arc<TempFile>>,
}

/// A pass over a capture's events, in capture order, decoded from its
/// re-opened entry file. Implements [`ExposureStream`].
pub struct ExposureEvents {
    total: u64,
    decoder: V2Decoder<BufReader<File>>,
}

/// A block of decoded records as two columns, index for index: the
/// `(tag, set, version)` line keys the weight sampler hashes and the
/// `(kind, unchecked_reads)` pairs the replay kernel scores.
pub type EventBlock<'a> = (&'a [(u64, u64, u64)], &'a [(ExposureKind, u64)]);

impl ExposureEvents {
    /// Yields up to `max` (at least one) of the next records as an
    /// [`EventBlock`]. The slices borrow the decoded frame, so a block
    /// costs no copy, and never span a frame: a block may end short at a
    /// frame edge. Empty slices mark the end of the stream. Yields
    /// the same records, in the same order, as
    /// [`next_record`](ExposureStream::next_record), and a frame that
    /// fails its checksum yields none of its records to either.
    ///
    /// # Errors
    ///
    /// A [`StreamDefect`] (I/O error, checksum mismatch, malformed frame)
    /// ends the stream.
    #[inline]
    pub fn next_block(&mut self, max: usize) -> Result<EventBlock<'_>, StreamDefect> {
        self.decoder
            .next_block(max)
            .map_err(|e| StreamDefect::new(e.to_string()))
    }

    /// Narrows the pass to the frames whose index is `phase` modulo
    /// `stride`, from the next frame on. The other frames' payloads are
    /// skipped unverified: a pass over the other phases verifies them.
    pub(crate) fn only_frames(&mut self, phase: u64, stride: u64) {
        self.decoder.only_frames(phase, stride);
    }

    /// The index of the frame being read: after a defect, the frame it
    /// was found in.
    pub(crate) fn frame_index(&self) -> u64 {
        self.decoder.frame_index()
    }

    /// Reserves the decode buffers for a typical full frame, so the pass
    /// allocates nothing more as it reads such frames.
    pub(crate) fn reserve_frame(&mut self) {
        self.decoder.reserve_frame();
    }
}

impl ExposureStream for ExposureEvents {
    fn len(&self) -> u64 {
        self.total
    }

    #[inline]
    fn next_record(&mut self) -> Result<Option<ExposureRecord>, StreamDefect> {
        self.decoder
            .next_record()
            .map_err(|e| StreamDefect::new(e.to_string()))
    }
}

/// Final hierarchy counters at the end of the measurement window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchySnapshot {
    /// L1 instruction-cache counters.
    pub l1i: CacheStats,
    /// L1 data-cache counters.
    pub l1d: CacheStats,
    /// L2 counters (measurement window only).
    pub l2: CacheStats,
    /// Reads that reached main memory.
    pub memory_reads: u64,
    /// Writes that reached main memory.
    pub memory_writes: u64,
}

impl HierarchySnapshot {
    /// Snapshots the counters of a driven hierarchy.
    pub fn of(hierarchy: &Hierarchy) -> Self {
        Self {
            l1i: *hierarchy.l1i().stats(),
            l1d: *hierarchy.l1d().stats(),
            l2: *hierarchy.l2().stats(),
            memory_reads: hierarchy.memory_reads(),
            memory_writes: hierarchy.memory_writes(),
        }
    }

    /// Publishes the per-level counters into `registry` under
    /// `cache.l1i.*`, `cache.l1d.*`, `cache.l2.*` and `cache.memory.*`,
    /// accumulating onto prior emissions so a multi-workload sweep sums to
    /// deterministic totals. Call once per capture (replays of the same
    /// capture must not re-emit, or the trace pass would be counted once
    /// per sweep point).
    pub fn emit_metrics(&self, registry: &reap_obs::Registry) {
        self.l1i.emit(registry, "l1i");
        self.l1d.emit(registry, "l1d");
        self.l2.emit(registry, "l2");
        registry
            .counter("cache.memory.reads")
            .add(self.memory_reads);
        registry
            .counter("cache.memory.writes")
            .add(self.memory_writes);
    }
}

/// The behavioural configuration a capture is pinned to: hierarchy
/// geometry, replacement policy, the `(warm-up, measured)` access budgets
/// and the scrub period. These decide which exposure events occur at all,
/// so a capture, its store key and its cells are valid only under the
/// behaviour they were taken under. ECC strength, MTJ parameters,
/// technology node and access rate are analysis-side and free to vary.
///
/// Derived from a configuration by [`crate::SimulationConfig::behaviour`].
#[derive(Debug, Clone, PartialEq)]
pub struct Behaviour {
    /// Cache geometries.
    pub hierarchy: HierarchyConfig,
    /// Replacement policy for all levels.
    pub replacement: Replacement,
    /// Accesses simulated before measurement starts.
    pub warmup_accesses: u64,
    /// Accesses measured (and recorded) after warm-up.
    pub measure_accesses: u64,
    /// L2 scrub period in measured accesses (0 = no scrubbing): a scrub
    /// resets per-line exposure, changing the recorded events.
    pub scrub_period: u64,
}

/// The analysis-independent artefact of one capture pass: everything a
/// replay needs to evaluate any `(EccStrength, MtjParams)` point without
/// touching the trace again.
///
/// A capture is only valid for analysis points that share its
/// [`Behaviour`], which [`crate::Simulator::replay_batch`] enforces.
#[derive(Debug, Clone)]
pub struct ExposureCapture {
    source: EventSource,
    /// The entry's header: record count, hierarchy counters, data bits
    /// per L2 line and the content-weight hash seed.
    header: V2Header,
    behaviour: Behaviour,
}

impl ExposureCapture {
    /// Assembles a capture from its parts, encoding `events` into a
    /// scoped entry, as a store-less capture holds them. Used by harnesses
    /// (e.g. scrub-period studies) that drive a [`Hierarchy`] manually
    /// with a [`CaptureObserver`]. `line_bits` is the data bits per L2
    /// line and `ones_seed` the content-weight hash seed of the driven
    /// cache.
    ///
    /// # Errors
    ///
    /// Returns [`SimulationError::ScopedEntry`] if the entry cannot be
    /// written.
    pub fn from_parts(
        events: Vec<ExposureRecord>,
        snapshot: HierarchySnapshot,
        line_bits: usize,
        ones_seed: u64,
        behaviour: Behaviour,
    ) -> Result<Self, SimulationError> {
        let writer = EntryWriter::scoped()?;
        let path = writer.path().to_owned();
        let mut frames = FrameEncoder::with_sink(writer);
        frames.extend(&events);
        let (source, header, _) = seal_entry(frames, snapshot, line_bits, ones_seed)
            .map_err(|source| SimulationError::ScopedEntry { path, source })?;
        Ok(Self::from_source(source, header, behaviour))
    }

    /// Assembles a capture whose events live in `source` under `header`:
    /// the entry a capture streamed, or one [`crate::CaptureStore`]
    /// loaded.
    pub(crate) fn from_source(source: EventSource, header: V2Header, behaviour: Behaviour) -> Self {
        Self {
            source,
            header,
            behaviour,
        }
    }

    /// The recorded exposure events, in simulation order, decoded into
    /// an owned `Vec` on every call — for tests and external consumers;
    /// internal replay paths stream them with [`ExposureCapture::iter`].
    ///
    /// # Panics
    ///
    /// Panics if the events fail to decode (e.g. the store entry was
    /// deleted or a frame fails its checksum). Fallible callers should
    /// use [`ExposureCapture::iter`].
    pub fn events(&self) -> Vec<ExposureRecord> {
        let decode = || {
            let mut stream = self.iter()?;
            let mut events = Vec::with_capacity(self.header.count.min(1 << 24) as usize);
            while let Some(record) = stream.next_record()? {
                events.push(record);
            }
            Ok::<_, StreamDefect>(events)
        };
        decode().expect("capture events must decode")
    }

    /// Total recorded events, without touching the event data. O(1) for
    /// every source.
    pub fn event_count(&self) -> u64 {
        self.header.count
    }

    /// The `reap-capture/2` entry file the events live in: a store's
    /// entry, or a scoped one, a file named for the process in the system
    /// temp dir that is deleted when the last clone of this capture drops.
    /// A scoped entry is stamped with fingerprint 0.
    pub fn entry_path(&self) -> &Path {
        &self.source.path
    }

    /// Whether the events live in a scoped entry rather than a store's.
    pub(crate) fn is_scoped(&self) -> bool {
        self.source.scoped.is_some()
    }

    /// Opens a bounded-memory pass over the events, in capture order.
    ///
    /// The pass re-opens the entry file and decodes it frame by frame,
    /// verifying each frame's checksum as it is read; a defect surfaces
    /// from [`ExposureStream::next_record`]. Fails up front only if the
    /// entry cannot be re-opened or its header no longer checks out.
    pub fn iter(&self) -> Result<ExposureEvents, StreamDefect> {
        Ok(ExposureEvents {
            total: self.header.count,
            decoder: reopen_entry(
                &self.source.path,
                self.source.fingerprint,
                self.header.count,
            )?,
        })
    }

    /// Final hierarchy counters of the capture run.
    pub fn snapshot(&self) -> &HierarchySnapshot {
        &self.header.snapshot
    }

    /// Data bits per L2 line.
    pub fn line_bits(&self) -> usize {
        self.header.line_bits as usize
    }

    /// The content-weight hash seed the captured cache used.
    pub fn ones_seed(&self) -> u64 {
        self.header.ones_seed
    }

    /// The behavioural configuration the capture was taken under.
    pub fn behaviour(&self) -> &Behaviour {
        &self.behaviour
    }

    /// This capture reduced to `cells`, its records' cells: what a later
    /// scoring at other points reads instead of the records.
    pub(crate) fn tallied(&self, cells: TalliedCells) -> TalliedCapture {
        TalliedCapture {
            cells,
            header: self.header,
            behaviour: self.behaviour.clone(),
        }
    }
}

/// A capture after one scoring pass: its records reduced to their
/// `(kind, ones, N)` cells per stored width, with the [`Behaviour`] and
/// hierarchy counters a report needs — a few KB where the capture's
/// records take MBs. Built by [`crate::Simulator::tally_batch_into`];
/// [`crate::Simulator::replay_tallied`] scores it at any points whose
/// stored widths it holds, bit-identically to a replay of the capture
/// and without reading a record.
#[derive(Debug, Clone)]
pub struct TalliedCapture {
    cells: TalliedCells,
    /// The capture's entry header (its record count, counters and line
    /// width).
    header: V2Header,
    behaviour: Behaviour,
}

impl TalliedCapture {
    /// The records' cells, one list per stored width.
    pub fn cells(&self) -> &TalliedCells {
        &self.cells
    }

    /// Records the capture held: the events a fold of the cells scores.
    pub fn event_count(&self) -> u64 {
        self.header.count
    }

    /// Final hierarchy counters of the capture run.
    pub fn snapshot(&self) -> &HierarchySnapshot {
        &self.header.snapshot
    }

    /// Data bits per L2 line.
    pub fn line_bits(&self) -> usize {
        self.header.line_bits as usize
    }

    /// The behavioural configuration the capture was taken under.
    pub fn behaviour(&self) -> &Behaviour {
        &self.behaviour
    }
}

/// The phase-1 observer: filters cache events down to the three
/// [`ExposureKind`] classes and records them with their [`LineKey`]s.
///
/// The filtering mirrors what the scoring laws ignore — clean scrubs and
/// clean or unexposed evictions contribute exactly `0.0` to every sum —
/// so a replay of the recorded stream is bit-identical to a live
/// observer that saw every event.
#[derive(Debug, Default)]
pub struct CaptureObserver {
    records: Vec<ExposureRecord>,
}

impl CaptureObserver {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty recorder with room for `records` events.
    pub(crate) fn with_capacity(records: usize) -> Self {
        Self {
            records: Vec::with_capacity(records),
        }
    }

    /// The events recorded so far (since the capture last coded them
    /// into frames, which it does at the end of every access), in
    /// simulation order.
    pub fn records(&self) -> &[ExposureRecord] {
        &self.records
    }

    /// Consumes the recorder, yielding the events it still holds.
    pub fn into_records(self) -> Vec<ExposureRecord> {
        self.records
    }

    /// Codes the events recorded so far into `frames` and forgets them,
    /// keeping the buffer for the next ones.
    pub(crate) fn drain_into<S: FrameSink>(&mut self, frames: &mut FrameEncoder<S>) {
        frames.extend(&self.records);
        self.records.clear();
    }
}

impl AccessObserver for CaptureObserver {
    /// Records keep the key and drop the weight (replay resamples it at
    /// each analysis point's width), so the cache need not sample it.
    const NEEDS_WEIGHTS: bool = false;

    #[inline]
    fn demand_read_keyed(&mut self, key: LineKey, _line_ones: u32, unchecked_reads: u64) {
        self.records.push(ExposureRecord {
            kind: ExposureKind::Demand,
            key,
            unchecked_reads,
        });
    }

    #[inline]
    fn eviction_keyed(&mut self, key: LineKey, dirty: bool, _line_ones: u32, unchecked_reads: u64) {
        if dirty && unchecked_reads > 0 {
            self.records.push(ExposureRecord {
                kind: ExposureKind::DirtyEviction,
                key,
                unchecked_reads,
            });
        }
    }

    fn scrub_check_keyed(
        &mut self,
        key: LineKey,
        dirty: bool,
        _line_ones: u32,
        unchecked_reads: u64,
    ) {
        if dirty {
            self.records.push(ExposureRecord {
                kind: ExposureKind::DirtyScrub,
                key,
                unchecked_reads,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(version: u64) -> LineKey {
        LineKey {
            tag: 7,
            set: 3,
            version,
        }
    }

    #[test]
    fn demand_events_always_recorded() {
        let mut obs = CaptureObserver::new();
        obs.demand_read_keyed(key(1), 288, 5);
        assert_eq!(obs.records().len(), 1);
        assert_eq!(obs.records()[0].kind, ExposureKind::Demand);
        assert_eq!(obs.records()[0].unchecked_reads, 5);
    }

    #[test]
    fn clean_scrubs_and_evictions_filtered() {
        let mut obs = CaptureObserver::new();
        obs.scrub_check_keyed(key(1), false, 288, 5);
        obs.eviction_keyed(key(1), false, 288, 5);
        obs.eviction_keyed(key(1), true, 288, 0);
        assert!(obs.records().is_empty());
        obs.scrub_check_keyed(key(2), true, 288, 5);
        obs.eviction_keyed(key(3), true, 288, 5);
        assert_eq!(obs.records().len(), 2);
        assert_eq!(obs.records()[0].kind, ExposureKind::DirtyScrub);
        assert_eq!(obs.records()[1].kind, ExposureKind::DirtyEviction);
    }

    fn sample_records() -> Vec<ExposureRecord> {
        (0..10)
            .map(|i| ExposureRecord {
                kind: ExposureKind::Demand,
                key: key(i),
                unchecked_reads: i * 3,
            })
            .collect()
    }

    fn drain(capture: &ExposureCapture) -> Vec<ExposureRecord> {
        let mut stream = capture.iter().expect("open");
        let mut out = Vec::new();
        while let Some(record) = stream.next_record().expect("pull") {
            out.push(record);
        }
        out
    }

    fn frame_capture(records: Vec<ExposureRecord>) -> ExposureCapture {
        ExposureCapture::from_parts(
            records,
            HierarchySnapshot {
                l1i: CacheStats::default(),
                l1d: CacheStats::default(),
                l2: CacheStats::default(),
                memory_reads: 0,
                memory_writes: 0,
            },
            512,
            7,
            Behaviour {
                hierarchy: HierarchyConfig::paper(),
                replacement: Replacement::Lru,
                warmup_accesses: 0,
                measure_accesses: 0,
                scrub_period: 0,
            },
        )
        .expect("scoped entry")
    }

    #[test]
    fn scoped_capture_iter_matches_events() {
        let records = sample_records();
        let capture = frame_capture(records.clone());
        assert!(capture.is_scoped());
        assert_eq!(capture.event_count(), records.len() as u64);
        assert_eq!(drain(&capture), records);
        assert_eq!(capture.events(), records.as_slice());
    }

    #[test]
    fn a_corrupt_scoped_entry_fails_its_checksum() {
        let capture = frame_capture(sample_records());
        // A payload byte of the one frame, past the header and the frame's
        // own 8-byte head.
        reap_fault::flip_byte(capture.entry_path(), 353 + 12, 0x01).unwrap();
        let mut stream = capture.iter().expect("open");
        let defect = stream.next_record().expect_err("flipped payload bit");
        assert!(defect.to_string().contains("checksum"), "{defect}");
    }

    #[test]
    fn a_scoped_entry_lives_as_long_as_the_last_clone() {
        let capture = frame_capture(sample_records());
        let path = capture.entry_path().to_owned();
        let clone = capture.clone();
        drop(capture);
        assert_eq!(drain(&clone), sample_records());
        drop(clone);
        assert!(!path.exists(), "{}", path.display());
    }

    #[test]
    fn unkeyed_hooks_record_nothing() {
        // The capture relies on keyed delivery; the unkeyed defaults are
        // no-ops so a non-keyed caller fails loudly in tests rather than
        // silently capturing keyless events.
        let mut obs = CaptureObserver::new();
        obs.line_read(288);
        obs.line_write(288);
        assert!(obs.records().is_empty());
    }
}
