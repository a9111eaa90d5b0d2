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
//! O(events) instead of O(trace) each
//! ([`crate::Simulator::replay`]), bit-identical to a direct
//! single-pass run at the same configuration.
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
//! // One pass over the trace…
//! let capture = experiment.capture()?;
//! // …replayed at every ECC strength.
//! for ecc in EccStrength::ALL {
//!     let report = experiment.clone().ecc(ecc).replay(&capture)?;
//!     assert!(report.mttf_improvement(ProtectionScheme::Reap) >= 1.0);
//! }
//! # Ok(())
//! # }
//! ```

use crate::capture_store::{
    frame_decoder, reopen_entry, FrameChain, FrameEncoder, FrameSink, V2Decoder,
};
use reap_cache::{AccessObserver, CacheStats, Hierarchy, HierarchyConfig, LineKey, Replacement};
use reap_reliability::ExposureKind;
use std::fmt;
use std::fs::File;
use std::io::BufReader;
use std::path::PathBuf;
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
/// This is the replay input surface: [`crate::Simulator::replay`] and
/// [`crate::Simulator::replay_batch`] pull records one at a time, so a
/// disk-backed stream (e.g. a `reap-capture/2` store entry) replays in
/// O(1) memory instead of materializing an owned `Vec`. Records must be
/// yielded in capture order — the scoring sums are floating-point and
/// ordering is part of the bit-identity contract.
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

/// Where a capture's events live: a store-less fresh capture holds them
/// as `reap-capture/2` frames in memory, a store-backed one (loaded, or
/// written by the capture itself) in its entry, which each pass re-opens.
/// Either way replay decodes them a frame at a time, verifying each
/// frame's checksum as it goes.
#[derive(Clone)]
pub(crate) enum EventSource {
    Frames(Arc<[Box<[u8]>]>),
    Entry { path: PathBuf, fingerprint: u64 },
}

impl fmt::Debug for EventSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Frames(frames) => f.debug_tuple("Frames").field(&frames.len()).finish(),
            Self::Entry { path, fingerprint } => f
                .debug_struct("Entry")
                .field("path", path)
                .field("fingerprint", &format_args!("{fingerprint:016x}"))
                .finish(),
        }
    }
}

/// A borrowed pass over a capture's events, in capture order.
///
/// Implements [`ExposureStream`]: it decodes a fresh capture's frames
/// straight from memory and a store entry's from its re-opened file.
pub struct ExposureEvents<'a> {
    total: u64,
    inner: EventsInner<'a>,
}

enum EventsInner<'a> {
    Frames(V2Decoder<FrameChain<'a>>),
    Entry(V2Decoder<BufReader<File>>),
}

impl ExposureStream for ExposureEvents<'_> {
    fn len(&self) -> u64 {
        self.total
    }

    fn next_record(&mut self) -> Result<Option<ExposureRecord>, StreamDefect> {
        match &mut self.inner {
            EventsInner::Frames(decoder) => decoder.next_record(),
            EventsInner::Entry(decoder) => decoder.next_record(),
        }
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

/// The analysis-independent artefact of one capture pass: everything a
/// replay needs to evaluate any `(EccStrength, MtjParams)` point without
/// touching the trace again.
///
/// A capture is only valid for analysis points that share the
/// *behavioural* configuration it was taken under — hierarchy geometry,
/// replacement policy, access budgets and scrub period — because those
/// change which events occur at all. [`crate::Simulator::replay`]
/// enforces this. ECC strength, MTJ parameters, technology node and
/// access rate are analysis-side and free to vary.
#[derive(Debug, Clone)]
pub struct ExposureCapture {
    source: EventSource,
    /// Records the source holds.
    count: u64,
    snapshot: HierarchySnapshot,
    /// Data bits per L2 line (check bits are an analysis-side choice).
    line_bits: usize,
    /// Seed of the content-weight hash used by the captured cache.
    ones_seed: u64,
    // Behavioural fingerprint, checked at replay time.
    hierarchy: HierarchyConfig,
    replacement: Replacement,
    warmup_accesses: u64,
    measure_accesses: u64,
    /// L2 scrub period in accesses (0 = no scrubbing) — behavioural: a
    /// scrub resets per-line exposure, changing the recorded events.
    scrub_period: u64,
}

impl ExposureCapture {
    /// Assembles a capture from its parts, encoding `events` into
    /// frames. Used by harnesses (e.g. scrub-period studies) that drive a
    /// [`Hierarchy`] manually with a [`CaptureObserver`].
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        events: Vec<ExposureRecord>,
        snapshot: HierarchySnapshot,
        line_bits: usize,
        ones_seed: u64,
        hierarchy: HierarchyConfig,
        replacement: Replacement,
        warmup_accesses: u64,
        measure_accesses: u64,
        scrub_period: u64,
    ) -> Self {
        let mut frames = FrameEncoder::new();
        frames.extend(&events);
        let Ok((count, _, frames)) = frames.finish();
        Self::from_source(
            EventSource::Frames(frames.into()),
            count,
            snapshot,
            line_bits,
            ones_seed,
            hierarchy,
            replacement,
            warmup_accesses,
            measure_accesses,
            scrub_period,
        )
    }

    /// Assembles a capture whose `count` events live in `source`: the
    /// frames [`crate::Simulator::capture`] coded as it recorded them, or
    /// the store entry [`crate::CaptureStore`] loaded or wrote.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_source(
        source: EventSource,
        count: u64,
        snapshot: HierarchySnapshot,
        line_bits: usize,
        ones_seed: u64,
        hierarchy: HierarchyConfig,
        replacement: Replacement,
        warmup_accesses: u64,
        measure_accesses: u64,
        scrub_period: u64,
    ) -> Self {
        Self {
            source,
            count,
            snapshot,
            line_bits,
            ones_seed,
            hierarchy,
            replacement,
            warmup_accesses,
            measure_accesses,
            scrub_period,
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
            let mut events = Vec::with_capacity(self.count.min(1 << 24) as usize);
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
        self.count
    }

    /// A store-less fresh capture's `reap-capture/2` frames, one slice
    /// per frame; in order they are byte for byte what follows the header
    /// of a store entry. `None` for a store-backed capture, including a
    /// fresh one streamed into its entry.
    pub fn frames(&self) -> Option<&[Box<[u8]>]> {
        match &self.source {
            EventSource::Frames(frames) => Some(frames),
            EventSource::Entry { .. } => None,
        }
    }

    /// Opens a bounded-memory pass over the events, in capture order.
    ///
    /// A fresh capture decodes its in-memory frames as the caller pulls;
    /// a store-backed one re-opens its entry and decodes the file. Either
    /// way each frame's checksum is verified as it is read, and a defect
    /// surfaces from [`ExposureStream::next_record`]. Fails up front only
    /// if a store entry cannot be re-opened or its header no longer
    /// checks out.
    pub fn iter(&self) -> Result<ExposureEvents<'_>, StreamDefect> {
        let inner = match &self.source {
            EventSource::Frames(frames) => EventsInner::Frames(frame_decoder(frames, self.count)),
            EventSource::Entry { path, fingerprint } => {
                EventsInner::Entry(reopen_entry(path, *fingerprint, self.count)?)
            }
        };
        Ok(ExposureEvents {
            total: self.count,
            inner,
        })
    }

    /// Final hierarchy counters of the capture run.
    pub fn snapshot(&self) -> &HierarchySnapshot {
        &self.snapshot
    }

    /// Data bits per L2 line.
    pub fn line_bits(&self) -> usize {
        self.line_bits
    }

    /// The content-weight hash seed the captured cache used.
    pub fn ones_seed(&self) -> u64 {
        self.ones_seed
    }

    /// The hierarchy geometry the capture was taken under.
    pub fn hierarchy(&self) -> &HierarchyConfig {
        &self.hierarchy
    }

    /// The replacement policy the capture was taken under.
    pub fn replacement(&self) -> Replacement {
        self.replacement
    }

    /// Warm-up accesses driven before the measurement window.
    pub fn warmup_accesses(&self) -> u64 {
        self.warmup_accesses
    }

    /// Accesses measured (and recorded) after warm-up.
    pub fn measure_accesses(&self) -> u64 {
        self.measure_accesses
    }

    /// L2 scrub period in accesses the capture was taken under (0 = no
    /// scrubbing).
    pub fn scrub_period(&self) -> u64 {
        self.scrub_period
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
            HierarchyConfig::paper(),
            Replacement::Lru,
            0,
            0,
            0,
        )
    }

    #[test]
    fn memory_capture_iter_matches_events() {
        let records = sample_records();
        let capture = frame_capture(records.clone());
        assert_eq!(capture.event_count(), records.len() as u64);
        assert_eq!(capture.frames().map(<[_]>::len), Some(1));
        assert_eq!(drain(&capture), records);
        assert_eq!(capture.events(), records.as_slice());
    }

    #[test]
    fn corrupt_in_memory_frames_fail_their_checksum() {
        let mut capture = frame_capture(sample_records());
        let EventSource::Frames(frames) = &mut capture.source else {
            panic!("a capture built from parts holds frames");
        };
        Arc::get_mut(frames).expect("sole owner")[0][12] ^= 0x01;
        let mut stream = capture.iter().expect("open");
        let defect = stream.next_record().expect_err("flipped payload bit");
        assert!(defect.to_string().contains("checksum"), "{defect}");
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
