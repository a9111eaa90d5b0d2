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

use crate::capture_store::{frame_decoder, FrameChain, FrameEncoder, FrameSink, V2Decoder};
use reap_cache::{AccessObserver, CacheStats, Hierarchy, HierarchyConfig, LineKey, Replacement};
use reap_reliability::ExposureKind;
use std::fmt;
use std::sync::{Arc, OnceLock};

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

/// A defect surfaced while pulling records from a streamed capture —
/// typically the backing store entry vanished or was corrupted between
/// validation and replay. Carries the rendered cause (offsets included)
/// so callers can log it and fall back to a fresh capture.
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

/// A factory that opens a fresh [`ExposureStream`] over the same records.
///
/// A capture can be replayed many times (once per analysis point batch),
/// so a streamed capture holds a re-openable source, not a single
/// exhausted iterator.
pub type StreamOpener =
    dyn Fn() -> Result<Box<dyn ExposureStream + Send>, StreamDefect> + Send + Sync;

/// Where a capture's events live: a store-less fresh capture holds them
/// as `reap-capture/2` frames in memory, a store entry (loaded, or
/// written by the capture itself) as an opener that re-reads the file on
/// each pass. Either way replay decodes them a frame at a time.
#[derive(Clone)]
enum EventSource {
    Frames {
        count: u64,
        frames: Arc<[Box<[u8]>]>,
    },
    Streamed {
        count: u64,
        open: Arc<StreamOpener>,
    },
}

impl fmt::Debug for EventSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Frames { count, frames } => f
                .debug_struct("Frames")
                .field("count", count)
                .field("frames", &frames.len())
                .finish(),
            Self::Streamed { count, .. } => f
                .debug_struct("Streamed")
                .field("count", count)
                .finish_non_exhaustive(),
        }
    }
}

/// A borrowed pass over a capture's events, in capture order.
///
/// Implements [`ExposureStream`]: it decodes a fresh capture's frames
/// straight from memory, pulls a store entry's records from its re-opened
/// stream, and walks the slice once [`ExposureCapture::events`] has
/// materialized one.
pub struct ExposureEvents<'a> {
    total: u64,
    inner: EventsInner<'a>,
}

enum EventsInner<'a> {
    Slice(std::slice::Iter<'a, ExposureRecord>),
    Frames(V2Decoder<FrameChain<'a>>),
    Stream(Box<dyn ExposureStream + Send>),
}

impl ExposureStream for ExposureEvents<'_> {
    fn len(&self) -> u64 {
        self.total
    }

    fn next_record(&mut self) -> Result<Option<ExposureRecord>, StreamDefect> {
        match &mut self.inner {
            EventsInner::Slice(iter) => Ok(iter.next().copied()),
            EventsInner::Frames(decoder) => decoder
                .next_record()
                .map_err(|e| StreamDefect::new(e.to_string())),
            EventsInner::Stream(stream) => stream.next_record(),
        }
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
    /// Lazily decoded copy of the events, filled the first time
    /// [`ExposureCapture::events`] is called. `OnceLock` keeps the
    /// slice-returning accessor available behind a `&self` receiver.
    materialized: OnceLock<Vec<ExposureRecord>>,
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
        Self::from_frames(
            count,
            frames,
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

    /// Assembles a capture whose `count` events were coded into `frames`
    /// as they were recorded, the form [`crate::Simulator::capture`]
    /// produces.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_frames(
        count: u64,
        frames: Vec<Box<[u8]>>,
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
            source: EventSource::Frames {
                count,
                frames: frames.into(),
            },
            materialized: OnceLock::new(),
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

    /// Assembles a capture whose `count` events live behind a
    /// re-openable stream instead of an owned `Vec` — the bounded-memory
    /// path used by `reap-capture/2` store entries. The opener is called
    /// once per replay pass; it must yield exactly `count` records in
    /// capture order each time.
    #[allow(clippy::too_many_arguments)]
    pub fn from_streamed_parts(
        count: u64,
        open: Arc<StreamOpener>,
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
            source: EventSource::Streamed { count, open },
            materialized: OnceLock::new(),
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

    /// The recorded exposure events, in simulation order, as a slice.
    ///
    /// Decodes every event on first call (and caches the result), trading
    /// the compact form for random access — fine for tests and external
    /// consumers; internal replay paths use [`ExposureCapture::iter`]
    /// instead.
    ///
    /// # Panics
    ///
    /// Panics if the source fails mid-collection (e.g. the store entry
    /// was deleted after validation). Fallible callers should use
    /// [`ExposureCapture::iter`].
    pub fn events(&self) -> &[ExposureRecord] {
        self.materialized.get_or_init(|| {
            self.collect_events()
                .expect("capture events must materialize")
        })
    }

    /// Total recorded events, without touching the event data. O(1) for
    /// every source.
    pub fn event_count(&self) -> u64 {
        match &self.source {
            EventSource::Frames { count, .. } | EventSource::Streamed { count, .. } => *count,
        }
    }

    /// A store-less fresh capture's `reap-capture/2` frames, one slice
    /// per frame; in order they are byte for byte what follows the header
    /// of a store entry. `None` for a store-backed capture, including a
    /// fresh one streamed into its entry.
    pub fn frames(&self) -> Option<&[Box<[u8]>]> {
        match &self.source {
            EventSource::Frames { frames, .. } => Some(frames),
            EventSource::Streamed { .. } => None,
        }
    }

    /// Opens a bounded-memory pass over the events, in capture order.
    ///
    /// A fresh capture decodes its in-memory frames as the caller pulls;
    /// a store-backed one re-opens its entry and decodes the file. Fails
    /// only if a streamed source cannot be re-opened.
    pub fn iter(&self) -> Result<ExposureEvents<'_>, StreamDefect> {
        let inner = match (self.materialized.get(), &self.source) {
            (Some(events), _) => EventsInner::Slice(events.iter()),
            (None, EventSource::Frames { count, frames }) => {
                EventsInner::Frames(frame_decoder(frames, *count))
            }
            (None, EventSource::Streamed { open, .. }) => EventsInner::Stream(open()?),
        };
        Ok(ExposureEvents {
            total: self.event_count(),
            inner,
        })
    }

    fn collect_events(&self) -> Result<Vec<ExposureRecord>, StreamDefect> {
        let count = self.event_count();
        let mut stream = self.iter()?;
        let mut events = Vec::with_capacity(count.min(1 << 24) as usize);
        while let Some(record) = stream.next_record()? {
            events.push(record);
        }
        if events.len() as u64 != count {
            return Err(StreamDefect::new(format!(
                "stream yielded {} records, expected {count}",
                events.len()
            )));
        }
        Ok(events)
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

    /// The events recorded so far (since the capture loop last coded them
    /// into frames), in simulation order.
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

    fn demand_read_keyed(&mut self, key: LineKey, _line_ones: u32, unchecked_reads: u64) {
        self.records.push(ExposureRecord {
            kind: ExposureKind::Demand,
            key,
            unchecked_reads,
        });
    }

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

    /// A Vec-backed [`ExposureStream`] for exercising the streamed path
    /// without a disk store.
    struct VecStream {
        records: Vec<ExposureRecord>,
        pos: usize,
    }

    impl ExposureStream for VecStream {
        fn len(&self) -> u64 {
            self.records.len() as u64
        }

        fn next_record(&mut self) -> Result<Option<ExposureRecord>, StreamDefect> {
            let record = self.records.get(self.pos).copied();
            self.pos += 1;
            Ok(record)
        }
    }

    fn streamed_capture(records: Vec<ExposureRecord>) -> ExposureCapture {
        let count = records.len() as u64;
        let open: Arc<StreamOpener> = Arc::new(move || {
            Ok(Box::new(VecStream {
                records: records.clone(),
                pos: 0,
            }) as Box<dyn ExposureStream + Send>)
        });
        ExposureCapture::from_streamed_parts(
            count,
            open,
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

    fn drain(capture: &ExposureCapture) -> Vec<ExposureRecord> {
        let mut stream = capture.iter().expect("open");
        let mut out = Vec::new();
        while let Some(record) = stream.next_record().expect("pull") {
            out.push(record);
        }
        out
    }

    #[test]
    fn streamed_capture_iterates_without_materializing() {
        let records = sample_records();
        let capture = streamed_capture(records.clone());
        assert_eq!(capture.event_count(), records.len() as u64);
        // Two independent passes over the same source.
        assert_eq!(drain(&capture), records);
        assert_eq!(drain(&capture), records);
    }

    #[test]
    fn streamed_capture_materializes_on_events() {
        let records = sample_records();
        let capture = streamed_capture(records.clone());
        assert_eq!(capture.events(), records.as_slice());
        // After materialization, iter() serves the cached slice.
        assert_eq!(drain(&capture), records);
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
        let EventSource::Frames { frames, .. } = &mut capture.source else {
            panic!("a capture built from parts holds frames");
        };
        Arc::get_mut(frames).expect("sole owner")[0][12] ^= 0x01;
        let mut stream = capture.iter().expect("open");
        let defect = stream.next_record().expect_err("flipped payload bit");
        assert!(defect.to_string().contains("checksum"), "{defect}");
    }

    #[test]
    fn opener_defects_surface_through_iter() {
        let open: Arc<StreamOpener> = Arc::new(|| Err(StreamDefect::new("entry vanished")));
        let capture = ExposureCapture::from_streamed_parts(
            3,
            open,
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
        );
        let defect = capture.iter().err().expect("opener must fail");
        assert!(defect.to_string().contains("entry vanished"));
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
