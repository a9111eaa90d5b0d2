//! Persistent, content-addressed storage of exposure captures.
//!
//! PR 4 made multi-point replay cheap, which leaves the capture pass —
//! one full trace drive per workload — as the dominant cost of a sweep,
//! paid again by every process. But an [`ExposureCapture`] is a pure
//! function of the *behavioural* configuration (workload, seed,
//! hierarchy geometry, replacement policy, access budgets) and contains
//! only integers, so it serializes bit-exactly. This module caches
//! captures on disk and replays warm sweeps without touching the trace.
//!
//! Entries use one on-disk format, `reap-capture/2`: a compact
//! little-endian stream following the `reap-trace` conventions (every
//! decode error names the byte offset where it stopped). A fixed header
//! is followed by delta/varint-coded records in independently
//! checksummed frames, which decode frame-by-frame straight into the
//! replay iterator without materializing. One frame encoder codes records
//! into frames while the trace runs. A store-backed fresh capture streams
//! each frame straight into its entry's temp file as it is sealed, so its
//! memory is one frame whatever the window; a store-less capture keeps
//! the frames in memory as its only form:
//!
//! ```text
//! magic            "RCAP"     (4 bytes)
//! version          u8 = 2
//! fingerprint      u64 LE     (the entry's CaptureKey fingerprint)
//! line_bits        u64 LE
//! ones_seed        u64 LE
//! snapshot         38 × u64 LE (l1i, l1d, l2 CacheStats in field order,
//!                              then memory_reads, memory_writes)
//! count            u64 LE
//! frame_len        u32 LE     (records per full frame; 4096)
//! header_checksum  u64 LE     (FNV-1a over the 345 header bytes)
//! frames, until count records have been coded:
//!   records        u32 LE     (records in this frame; only the last
//!                              frame may be short)
//!   payload_len    u32 LE
//!   payload        payload_len bytes:
//!     per record: kind u8 (0 demand, 1 dirty-scrub, 2 dirty-eviction),
//!     then zigzag(delta) LEB128 varints of tag, set, version,
//!     unchecked_reads vs the previous record (delta state resets to
//!     zeros at each frame start)
//!   checksum       u64 LE     (FNV-1a over the 8 frame-header bytes
//!                              and the payload)
//! ```
//!
//! An entry in any other version (such as one left by the retired
//! fixed-width `reap-capture/1` writer) is rejected as
//! [`CaptureStoreError::UnsupportedVersion`] and, like every other read
//! failure, becomes a miss that is recaptured and overwritten once.
//!
//! A [`CaptureStore`] addresses entries by a fingerprint over everything
//! the capture depends on — and *nothing* it does not: ECC strength, MTJ
//! parameters, technology node and access rate are analysis-side, so one
//! stored capture serves every analysis point of a sweep. Entries are
//! written to a uniquely named temp file and atomically renamed into
//! place; a reader can never observe a half-written entry, and a failed
//! or abandoned write deletes its temp file. **Any** read failure — bad
//! magic, foreign fingerprint, truncation, bit corruption caught by a
//! checksum — falls back to recapturing from the trace: a defect in the
//! header when the entry loads, a defect in a frame when replay reads it
//! ([`crate::Experiment::score`] heals the entry). A corrupt store costs
//! time, never correctness.
//!
//! # Examples
//!
//! ```
//! use reap_core::capture_store::{CapturePolicy, CaptureStore};
//! use reap_core::Experiment;
//! use reap_trace::SpecWorkload;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let dir = std::env::temp_dir().join(format!("rcap-doc-{}", std::process::id()));
//! let store = CaptureStore::new(&dir, CapturePolicy::ReadWrite);
//! let experiment = Experiment::paper_hierarchy()
//!     .workload(SpecWorkload::Hmmer)
//!     .accesses(20_000);
//! let cold = experiment.capture_with(Some(&store))?; // trace pass streamed to disk
//! let warm = experiment.capture_with(Some(&store))?; // served from disk
//! assert_eq!(cold.events(), warm.events());
//! # std::fs::remove_dir_all(dir).ok();
//! # Ok(())
//! # }
//! ```

use crate::capture::{
    EventSource, ExposureCapture, ExposureRecord, ExposureStream, HierarchySnapshot, StreamDefect,
};
use crate::checkpoint::fnv;
use crate::simulator::{SimulationConfig, SimulationError, Simulator};
use reap_cache::{AccessMode, CacheConfig, CacheStats, HierarchyConfig, LineKey, Replacement};
use reap_reliability::ExposureKind;
use reap_trace::SpecWorkload;
use std::convert::Infallible;
use std::error::Error;
use std::fmt;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};

/// The seed of the [`CaptureKey::fingerprint`] chain, and nothing else.
/// It names the retired fixed-width format but must stay byte for byte:
/// the fingerprint addresses capture content, not its encoding, and
/// changing the seed would re-key every existing store entry.
pub const CAPTURE_SCHEMA: &str = "reap-capture/1";

/// Schema identifier of the on-disk format.
pub const CAPTURE_SCHEMA_V2: &str = "reap-capture/2";

const MAGIC: &[u8; 4] = b"RCAP";
const VERSION: u8 = 2;
/// Records per full v2 frame. Bounds replay memory to one decoded frame
/// (~160 KB of records) and bounds the blast radius of corruption to a
/// single frame's checksum.
pub(crate) const FRAME_RECORDS: u32 = 4096;
/// Worst-case encoded size of one v2 record: a kind byte plus four
/// 10-byte LEB128 varints. Used to bound declared payload lengths.
const MAX_RECORD_BYTES: u32 = 1 + 4 * 10;
/// v2 fixed header bytes (magic through frame_len, before the header
/// checksum).
const V2_HEADER_BYTES: usize = 4 + 1 + 8 + 8 + 8 + 38 * 8 + 8 + 4;
/// The whole v2 header as written: the fixed fields and their checksum.
const ENTRY_HEADER_BYTES: usize = V2_HEADER_BYTES + 8;
/// FNV-1a 64-bit offset basis — the seed of both the fingerprint chain
/// and the frame checksums.
const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Plain streaming FNV-1a over `bytes`, chained from `hash`. This is
/// the checksum primitive of the format; it deliberately does *not* mix
/// in a length marker the way the checkpoint fingerprint `fnv` does, so
/// a checksum computed over split buffers equals one computed over their
/// concatenation.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// How a [`CaptureStore`] participates in a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CapturePolicy {
    /// The store is bypassed entirely (no reads, no writes).
    #[default]
    Off,
    /// Serve hits from the store but never write new entries.
    Read,
    /// Serve hits and persist fresh captures (the useful default for
    /// sweeps).
    ReadWrite,
}

impl fmt::Display for CapturePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CapturePolicy::Off => f.write_str("off"),
            CapturePolicy::Read => f.write_str("read"),
            CapturePolicy::ReadWrite => f.write_str("readwrite"),
        }
    }
}

/// Everything an [`ExposureCapture`]'s content depends on — the store's
/// addressing key.
///
/// Deliberately *excludes* ECC strength, MTJ parameters, technology node
/// and access rate: those only enter at replay time, so captures taken
/// for one analysis point are valid (and shared) for all of them.
#[derive(Debug, Clone, PartialEq)]
pub struct CaptureKey {
    workload: SpecWorkload,
    seed: u64,
    hierarchy: HierarchyConfig,
    replacement: Replacement,
    warmup_accesses: u64,
    measure_accesses: u64,
    scrub_period: u64,
}

impl CaptureKey {
    /// Builds the key for `workload` at `seed` under `config`'s
    /// behavioural parameters.
    pub fn new(workload: SpecWorkload, seed: u64, config: &SimulationConfig) -> Self {
        Self {
            workload,
            seed,
            hierarchy: config.hierarchy.clone(),
            replacement: config.replacement,
            warmup_accesses: config.warmup_accesses,
            measure_accesses: config.measure_accesses,
            scrub_period: config.scrub_period,
        }
    }

    /// The 64-bit content address: an FNV-1a chain (the checkpoint
    /// fingerprint hash) over the schema tag, workload, seed, every
    /// geometric field of all three cache levels, the replacement policy
    /// and the access budgets.
    pub fn fingerprint(&self) -> u64 {
        let mut h = fnv(FNV_BASIS, CAPTURE_SCHEMA.as_bytes());
        h = fnv(h, self.workload.name().as_bytes());
        h = fnv(h, &self.seed.to_le_bytes());
        for level in [&self.hierarchy.l1i, &self.hierarchy.l1d, &self.hierarchy.l2] {
            h = hash_level(h, level);
        }
        let (tag, seed) = match self.replacement {
            Replacement::Lru => (0u8, 0u64),
            Replacement::TreePlru => (1, 0),
            Replacement::Fifo => (2, 0),
            Replacement::Random(s) => (3, s),
            Replacement::Srrip => (4, 0),
            Replacement::LeastErrorRate => (5, 0),
        };
        h = fnv(h, &[tag]);
        h = fnv(h, &seed.to_le_bytes());
        h = fnv(h, &self.warmup_accesses.to_le_bytes());
        h = fnv(h, &self.measure_accesses.to_le_bytes());
        // Hashed only when scrubbing is on: every pre-existing store
        // entry (all captured at period 0) keeps its address.
        if self.scrub_period > 0 {
            h = fnv(h, &self.scrub_period.to_le_bytes());
        }
        h
    }
}

fn hash_level(mut h: u64, level: &CacheConfig) -> u64 {
    h = fnv(h, level.name().as_bytes());
    h = fnv(h, &(level.size_bytes() as u64).to_le_bytes());
    h = fnv(h, &(level.associativity() as u64).to_le_bytes());
    h = fnv(h, &(level.block_bytes() as u64).to_le_bytes());
    let mode = match level.access_mode() {
        AccessMode::Parallel => 0u8,
        AccessMode::Serial => 1,
    };
    fnv(h, &[mode])
}

/// Error decoding (or writing) a serialized capture.
///
/// Every decode variant names the byte offset where reading stopped, so
/// a damaged entry is diagnosable without a hex editor. Callers going
/// through [`CaptureStore::load`] never see these — the store maps them
/// all to a miss — but tests and tools can use
/// [`read_capture_v2`]/[`write_capture_v2`] directly.
#[derive(Debug)]
#[non_exhaustive]
pub enum CaptureStoreError {
    /// Underlying I/O failure (other than a short read).
    Io {
        /// Byte offset the failed operation started at.
        offset: u64,
        /// The underlying error.
        source: io::Error,
    },
    /// The stream ended mid-header, mid-record or mid-trailer.
    Truncated {
        /// Byte offset the unsatisfied read started at.
        offset: u64,
        /// The record being decoded, if past the header.
        record: Option<u64>,
    },
    /// The stream does not start with the `RCAP` magic.
    BadMagic {
        /// The bytes found instead.
        found: [u8; 4],
    },
    /// The format version is not the one this reader decodes — a newer
    /// one, or the retired `reap-capture/1`.
    UnsupportedVersion {
        /// The version byte found.
        found: u8,
    },
    /// The entry belongs to a different configuration.
    FingerprintMismatch {
        /// The fingerprint the caller expected.
        expected: u64,
        /// The fingerprint stamped in the file.
        found: u64,
    },
    /// A record carries an unknown exposure-kind tag.
    UnknownKind {
        /// The tag found.
        found: u8,
        /// The record carrying it.
        record: u64,
        /// Byte offset of that record.
        offset: u64,
    },
    /// The checksum trailer does not match the bytes read — silent bit
    /// corruption somewhere in the body.
    ChecksumMismatch {
        /// The checksum computed over the body.
        expected: u64,
        /// The trailer found in the file.
        found: u64,
        /// Byte offset of the trailer.
        offset: u64,
    },
    /// Bytes follow the checksum trailer.
    TrailingBytes {
        /// Byte offset of the first unexpected byte.
        offset: u64,
    },
    /// A v2 structural invariant is violated — a varint that does not
    /// terminate or overflows 64 bits, a frame whose declared sizes are
    /// out of range, or payload bytes left unconsumed.
    Malformed {
        /// Byte offset of the frame (or field) at fault.
        offset: u64,
        /// What invariant was violated.
        detail: &'static str,
    },
}

impl fmt::Display for CaptureStoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CaptureStoreError::Io { offset, source } => {
                write!(f, "capture i/o failed at byte {offset}: {source}")
            }
            CaptureStoreError::Truncated {
                offset,
                record: Some(record),
            } => write!(f, "capture truncated at byte {offset} (record {record})"),
            CaptureStoreError::Truncated {
                offset,
                record: None,
            } => write!(f, "capture truncated at byte {offset}"),
            CaptureStoreError::BadMagic { found } => {
                write!(f, "not a capture file (magic {found:02x?})")
            }
            CaptureStoreError::UnsupportedVersion { found } => {
                write!(f, "unsupported capture version {found}")
            }
            CaptureStoreError::FingerprintMismatch { expected, found } => write!(
                f,
                "capture fingerprint {found:016x} does not match expected {expected:016x}"
            ),
            CaptureStoreError::UnknownKind {
                found,
                record,
                offset,
            } => write!(
                f,
                "unknown exposure kind tag {found} in record {record} at byte {offset}"
            ),
            CaptureStoreError::ChecksumMismatch {
                expected,
                found,
                offset,
            } => write!(
                f,
                "capture checksum mismatch at byte {offset}: computed {expected:016x}, \
                 stored {found:016x}"
            ),
            CaptureStoreError::TrailingBytes { offset } => {
                write!(
                    f,
                    "capture has trailing bytes after the checksum at byte {offset}"
                )
            }
            CaptureStoreError::Malformed { offset, detail } => {
                write!(f, "capture malformed at byte {offset}: {detail}")
            }
        }
    }
}

impl Error for CaptureStoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CaptureStoreError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Where in the stream a read was positioned, for error context.
#[derive(Debug, Clone, Copy)]
enum Section {
    Header,
    Record { index: u64 },
}

/// `read_exact` with position bookkeeping, mapping short reads to
/// [`CaptureStoreError::Truncated`] stamped with the current offset.
fn fill<R: Read>(
    reader: &mut R,
    buf: &mut [u8],
    offset: &mut u64,
    section: Section,
) -> Result<(), CaptureStoreError> {
    let at = *offset;
    let record = match section {
        Section::Header => None,
        Section::Record { index } => Some(index),
    };
    match reader.read_exact(buf) {
        Ok(()) => {
            *offset += buf.len() as u64;
            Ok(())
        }
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
            Err(CaptureStoreError::Truncated { offset: at, record })
        }
        Err(source) => Err(CaptureStoreError::Io { offset: at, source }),
    }
}

fn read_u64<R: Read>(
    reader: &mut R,
    offset: &mut u64,
    section: Section,
) -> Result<u64, CaptureStoreError> {
    let mut buf = [0u8; 8];
    fill(reader, &mut buf, offset, section)?;
    Ok(u64::from_le_bytes(buf))
}

/// The 38 `u64`s of a [`HierarchySnapshot`], in serialization order.
fn snapshot_words(s: &HierarchySnapshot) -> [u64; 38] {
    let mut words = [0u64; 38];
    let mut i = 0;
    for stats in [&s.l1i, &s.l1d, &s.l2] {
        for w in stats_words(stats) {
            words[i] = w;
            i += 1;
        }
    }
    words[36] = s.memory_reads;
    words[37] = s.memory_writes;
    words
}

fn stats_words(s: &CacheStats) -> [u64; 12] {
    [
        s.reads,
        s.writes,
        s.read_hits,
        s.write_hits,
        s.fills,
        s.evictions,
        s.dirty_evictions,
        s.concealed_reads,
        s.line_reads,
        s.demand_checks,
        s.scrub_checks,
        s.writeback_installs,
    ]
}

fn stats_from_words(w: &[u64; 12]) -> CacheStats {
    CacheStats {
        reads: w[0],
        writes: w[1],
        read_hits: w[2],
        write_hits: w[3],
        fills: w[4],
        evictions: w[5],
        dirty_evictions: w[6],
        concealed_reads: w[7],
        line_reads: w[8],
        demand_checks: w[9],
        scrub_checks: w[10],
        writeback_installs: w[11],
    }
}

/// The serializable core of a capture: what an entry stores. The
/// behavioural configuration is *not* serialized — it is implied by the
/// fingerprint and re-supplied from the caller's [`CaptureKey`] when the
/// full [`ExposureCapture`] is reassembled.
#[derive(Debug, Clone, PartialEq)]
pub struct CapturePayload {
    /// The recorded exposure events, in simulation order.
    pub events: Vec<ExposureRecord>,
    /// Final hierarchy counters of the capture run.
    pub snapshot: HierarchySnapshot,
    /// Data bits per L2 line.
    pub line_bits: usize,
    /// The content-weight hash seed the captured cache used.
    pub ones_seed: u64,
}

fn kind_tag(kind: ExposureKind) -> u8 {
    match kind {
        ExposureKind::Demand => 0,
        ExposureKind::DirtyScrub => 1,
        ExposureKind::DirtyEviction => 2,
    }
}

/// Maps a stream-defect from the capture being encoded (possible when
/// re-encoding a store-backed capture) onto the store's error type.
fn defect_to_io(defect: StreamDefect) -> CaptureStoreError {
    CaptureStoreError::Io {
        offset: 0,
        source: io::Error::other(defect.to_string()),
    }
}

/// Zigzag-codes the wrapping delta from `prev` to `cur`, mapping small
/// forward or backward steps onto small unsigned values for the varint.
fn zigzag_delta(cur: u64, prev: u64) -> u64 {
    let d = cur.wrapping_sub(prev) as i64;
    ((d << 1) ^ (d >> 63)) as u64
}

/// Inverse of [`zigzag_delta`]: recovers `cur` from `prev` and the coded
/// value. Exact for every `u64` pair (wrapping arithmetic throughout).
fn unzigzag_delta(prev: u64, coded: u64) -> u64 {
    let d = ((coded >> 1) as i64) ^ -((coded & 1) as i64);
    prev.wrapping_add(d as u64)
}

/// Appends `v` as an LEB128 varint (7 payload bits per byte, high bit =
/// continuation), 1–10 bytes.
fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Decodes one LEB128 varint from `payload` at `*pos`, advancing it.
/// `None` on truncation, a non-terminating encoding, or 64-bit overflow.
/// Always inlined: it is the inner loop of every frame decode.
#[inline(always)]
fn get_varint(payload: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *payload.get(*pos)?;
        *pos += 1;
        let low = u64::from(byte & 0x7f);
        if shift > 63 || (shift == 63 && low > 1) {
            return None;
        }
        v |= low << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
    }
}

/// Where a [`FrameEncoder`] puts each frame it seals.
pub(crate) trait FrameSink {
    /// Why a frame could not be taken.
    type Error;

    /// Takes the next sealed frame, in stream order.
    fn put(&mut self, frame: &[u8]) -> Result<(), Self::Error>;
}

/// In-memory frames, one allocation each, so a growing capture never
/// copies the frames it already holds.
impl FrameSink for Vec<Box<[u8]>> {
    type Error = Infallible;

    fn put(&mut self, frame: &[u8]) -> Result<(), Infallible> {
        self.push(frame.into());
        Ok(())
    }
}

impl<S: FrameSink> FrameSink for &mut S {
    type Error = S::Error;

    fn put(&mut self, frame: &[u8]) -> Result<(), S::Error> {
        (**self).put(frame)
    }
}

/// A writer and the bytes put into it so far: the offset its errors name.
struct WriteSink<W> {
    writer: W,
    offset: u64,
}

impl<W: Write> WriteSink<W> {
    fn flush(&mut self) -> Result<(), CaptureStoreError> {
        self.writer.flush().map_err(|source| CaptureStoreError::Io {
            offset: self.offset,
            source,
        })
    }
}

impl<W: Write> FrameSink for WriteSink<W> {
    type Error = CaptureStoreError;

    fn put(&mut self, bytes: &[u8]) -> Result<(), CaptureStoreError> {
        self.writer
            .write_all(bytes)
            .map_err(|source| CaptureStoreError::Io {
                offset: self.offset,
                source,
            })?;
        self.offset += bytes.len() as u64;
        Ok(())
    }
}

/// Incremental `reap-capture/2` frame encoder: the one encoder of the
/// format.
///
/// Records are delta/varint-coded into an open frame as they are pushed,
/// and a frame is sealed (record count, payload length, payload,
/// checksum) and put into the sink every 4096 records, so the frame cuts
/// depend only on the record sequence and never on how it was fed. The
/// sealed frames, in order, are byte for byte the bytes that follow the
/// header of a v2 entry. [`crate::Simulator::capture`] drains its
/// observer into an encoder over in-memory frames, a store-less
/// capture's only form; a store-backed capture drains into one over an
/// [`EntryWriter`], which writes each frame to disk as it is sealed.
///
/// The sink's first error ends the stream: later frames are coded but
/// not put, [`failed`](Self::failed) turns true and
/// [`finish`](Self::finish) returns the error.
pub(crate) struct FrameEncoder<S: FrameSink = Vec<Box<[u8]>>> {
    sink: S,
    /// The open frame: 8 frame-header bytes, filled in when it is sealed,
    /// then its payload.
    frame: Vec<u8>,
    /// The open frame's delta state (zeros at each frame start, so each
    /// frame decodes on its own).
    prev: [u64; 4],
    /// Records in the open frame.
    open: u32,
    /// Records pushed in total.
    count: u64,
    /// Bytes of the sealed frames.
    bytes: u64,
    /// The first error the sink returned.
    error: Option<S::Error>,
}

impl FrameEncoder {
    /// An encoder into in-memory frames, with no records.
    pub(crate) fn new() -> Self {
        Self::with_sink(Vec::new())
    }
}

impl<S: FrameSink> FrameEncoder<S> {
    /// An encoder into `sink`, with no records.
    pub(crate) fn with_sink(sink: S) -> Self {
        Self {
            sink,
            frame: {
                // Room for a frame of 8-byte records (they average about
                // 6 B), so a capture's back stage rarely grows it.
                let mut frame = Vec::with_capacity(8 + 8 * FRAME_RECORDS as usize);
                frame.resize(8, 0);
                frame
            },
            prev: [0; 4],
            open: 0,
            count: 0,
            bytes: 0,
            error: None,
        }
    }

    /// Codes one record, sealing the frame it completes.
    pub(crate) fn push(&mut self, record: &ExposureRecord) {
        self.frame.push(kind_tag(record.kind));
        let cur = [
            record.key.tag,
            record.key.set,
            record.key.version,
            record.unchecked_reads,
        ];
        for (p, c) in self.prev.iter_mut().zip(cur) {
            put_varint(&mut self.frame, zigzag_delta(c, *p));
            *p = c;
        }
        self.open += 1;
        self.count += 1;
        if self.open == FRAME_RECORDS {
            self.seal();
        }
    }

    /// Codes `records` in order.
    pub(crate) fn extend(&mut self, records: &[ExposureRecord]) {
        for record in records {
            self.push(record);
        }
    }

    /// Whether the sink has refused a frame.
    pub(crate) fn failed(&self) -> bool {
        self.error.is_some()
    }

    /// Completes the open frame, if any, and puts it into the sink.
    fn seal(&mut self) {
        if self.open == 0 {
            return;
        }
        let payload_len = (self.frame.len() - 8) as u32;
        self.frame[..4].copy_from_slice(&self.open.to_le_bytes());
        self.frame[4..8].copy_from_slice(&payload_len.to_le_bytes());
        let checksum = fnv1a(FNV_BASIS, &self.frame);
        self.frame.extend_from_slice(&checksum.to_le_bytes());
        self.bytes += self.frame.len() as u64;
        if self.error.is_none() {
            self.error = self.sink.put(&self.frame).err();
        }
        self.frame.truncate(8);
        self.prev = [0; 4];
        self.open = 0;
    }

    /// Seals the last, possibly short, frame and yields the record count,
    /// the bytes of all frames and the sink, or the sink's first error.
    pub(crate) fn finish(mut self) -> Result<(u64, u64, S), S::Error> {
        self.seal();
        match self.error {
            Some(e) => Err(e),
            None => Ok((self.count, self.bytes, self.sink)),
        }
    }
}

/// The fixed header of a v2 entry: what [`V2Decoder::open`] verifies and
/// [`V2Header::to_bytes`] writes.
#[derive(Debug, Clone, Copy)]
struct V2Header {
    line_bits: u64,
    ones_seed: u64,
    snapshot: HierarchySnapshot,
    count: u64,
}

impl V2Header {
    /// The header of `capture`'s entry.
    fn of(capture: &ExposureCapture) -> Self {
        Self {
            line_bits: capture.line_bits() as u64,
            ones_seed: capture.ones_seed(),
            snapshot: *capture.snapshot(),
            count: capture.event_count(),
        }
    }

    /// The header as written, stamped with `fingerprint`: the fixed
    /// fields, then their checksum.
    fn to_bytes(self, fingerprint: u64) -> Vec<u8> {
        let mut header = Vec::with_capacity(ENTRY_HEADER_BYTES);
        header.extend_from_slice(MAGIC);
        header.push(VERSION);
        header.extend_from_slice(&fingerprint.to_le_bytes());
        header.extend_from_slice(&self.line_bits.to_le_bytes());
        header.extend_from_slice(&self.ones_seed.to_le_bytes());
        for word in snapshot_words(&self.snapshot) {
            header.extend_from_slice(&word.to_le_bytes());
        }
        header.extend_from_slice(&self.count.to_le_bytes());
        header.extend_from_slice(&FRAME_RECORDS.to_le_bytes());
        debug_assert_eq!(header.len(), V2_HEADER_BYTES);
        let header_checksum = fnv1a(FNV_BASIS, &header);
        header.extend_from_slice(&header_checksum.to_le_bytes());
        header
    }
}

/// Serializes `capture` (stamped with `fingerprint`) as `reap-capture/2`,
/// returning the total bytes written: the header, then the frames. These
/// are the bytes of the store entry [`CaptureStore`] writes for it,
/// whether streamed during the capture or stored afterwards.
///
/// # Errors
///
/// Propagates I/O errors from the writer (and stream defects from a
/// streamed source, wrapped as I/O), stamped with the byte offset.
pub fn write_capture_v2<W: Write>(
    writer: W,
    fingerprint: u64,
    capture: &ExposureCapture,
) -> Result<u64, CaptureStoreError> {
    let mut out = WriteSink { writer, offset: 0 };
    out.put(&V2Header::of(capture).to_bytes(fingerprint))?;
    put_frames(capture, &mut out)?;
    out.flush()?;
    Ok(out.offset)
}

/// Puts `capture`'s frames into `sink` in order: a fresh capture's own
/// frames verbatim, a store-backed one's re-encoded from its records.
fn put_frames<S>(capture: &ExposureCapture, mut sink: S) -> Result<(), CaptureStoreError>
where
    S: FrameSink<Error = CaptureStoreError>,
{
    if let Some(frames) = capture.frames() {
        return frames.iter().try_for_each(|frame| sink.put(frame));
    }
    let mut encoder = FrameEncoder::with_sink(sink);
    let mut events = capture.iter().map_err(defect_to_io)?;
    while let Some(record) = events.next_record().map_err(defect_to_io)? {
        encoder.push(&record);
    }
    encoder.finish().map(drop)
}

/// A temp file that deletes itself when dropped, unless kept.
struct TempFile {
    path: PathBuf,
    keep: bool,
}

impl Drop for TempFile {
    fn drop(&mut self) {
        if !self.keep {
            std::fs::remove_file(&self.path).ok();
        }
    }
}

/// Numbers the temp files of one process, so concurrent writes of the
/// same entry never share one.
static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Writes one store entry as it is produced: the one write path of a
/// [`CaptureStore`].
///
/// [`create`](Self::create) opens a temp file beside the entry, named
/// `{fingerprint}.rcap.tmp.{pid}.{seq}` so that no two writes share one,
/// and reserves the header. Frames are written straight through as they
/// are put ([`FrameSink`]), so a capture streamed into a writer holds one
/// frame at a time, never the whole capture.
/// [`commit`](Self::commit) then writes the header, whose snapshot and
/// record count are known only at the end, and renames the file into
/// place, so readers see the whole entry or none. A writer dropped
/// uncommitted (an error or a panic mid-capture) deletes its temp file.
pub(crate) struct EntryWriter {
    out: WriteSink<BufWriter<File>>,
    tmp: TempFile,
    path: PathBuf,
    fingerprint: u64,
    /// The failing-writer seam, read when the writer is created: a
    /// capture's back stage may put the frames from another thread.
    #[cfg(test)]
    fail_from: u64,
}

impl EntryWriter {
    /// Opens the temp file of `key`'s entry in `store`.
    fn create(store: &CaptureStore, key: &CaptureKey) -> Result<Self, CaptureStoreError> {
        let io_err = |source| CaptureStoreError::Io { offset: 0, source };
        std::fs::create_dir_all(&store.dir).map_err(io_err)?;
        let fingerprint = key.fingerprint();
        let path = store.dir.join(format!(
            "{fingerprint:016x}.rcap.tmp.{}.{}",
            std::process::id(),
            TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let file = File::create(&path).map_err(io_err)?;
        let tmp = TempFile { path, keep: false };
        let mut out = WriteSink {
            writer: BufWriter::new(file),
            offset: 0,
        };
        // Reserved for the header, which `commit` writes over.
        out.put(&[0; ENTRY_HEADER_BYTES])?;
        Ok(Self {
            out,
            tmp,
            path: store.entry_path(key),
            fingerprint,
            #[cfg(test)]
            fail_from: tests::FAIL_WRITES_FROM.get(),
        })
    }

    /// Writes `header` over the reserved bytes, renames the entry into
    /// place and accounts the write, returning the entry's path.
    fn commit(self, header: &V2Header) -> Result<PathBuf, CaptureStoreError> {
        let Self {
            out,
            mut tmp,
            path,
            fingerprint,
            ..
        } = self;
        let bytes = out.offset;
        let mut file = out.writer.into_inner().map_err(|e| CaptureStoreError::Io {
            offset: bytes,
            source: e.into_error(),
        })?;
        let io_err = |source| CaptureStoreError::Io { offset: 0, source };
        file.seek(SeekFrom::Start(0)).map_err(io_err)?;
        file.write_all(&header.to_bytes(fingerprint))
            .map_err(io_err)?;
        drop(file);
        std::fs::rename(&tmp.path, &path).map_err(io_err)?;
        tmp.keep = true;
        bump("capture_store.write");
        emit_entry_io("capture_store.bytes_written", bytes, header.count);
        Ok(path)
    }
}

impl FrameSink for EntryWriter {
    type Error = CaptureStoreError;

    fn put(&mut self, frame: &[u8]) -> Result<(), CaptureStoreError> {
        #[cfg(test)]
        tests::injected_write_failure(self.out.offset, self.fail_from)?;
        self.out.put(frame)
    }
}

/// Frame-at-a-time decoder of a `reap-capture/2` stream, the one decoder
/// of the format: it reads store entries from disk and a fresh capture's
/// frames from memory alike. [`open`](Self::open) checks the header;
/// [`read_frame`](Self::read_frame) verifies each frame's checksum as
/// replay reaches it, the only place frame checksums are checked. Holds
/// at most one decoded frame (≤ `frame_len` records), so replay runs in
/// bounded memory.
pub(crate) struct V2Decoder<R: Read> {
    reader: R,
    offset: u64,
    /// Records the stream declares.
    count: u64,
    /// Records per full frame.
    frame_len: u32,
    yielded: u64,
    frame: Vec<ExposureRecord>,
    frame_pos: usize,
    /// Reusable raw-payload buffer: one allocation serves every frame.
    payload: Vec<u8>,
    /// Whether the end-of-stream trailing-bytes probe has run.
    probed: bool,
}

impl<R: Read> V2Decoder<R> {
    /// Parses and verifies the header (magic, version, fingerprint,
    /// header checksum, frame-length sanity), leaving the reader at the
    /// first frame.
    fn open(
        mut reader: R,
        expected_fingerprint: u64,
    ) -> Result<(V2Header, Self), CaptureStoreError> {
        let mut offset = 0u64;
        let mut fixed = [0u8; V2_HEADER_BYTES];
        fill(&mut reader, &mut fixed, &mut offset, Section::Header)?;
        if &fixed[..4] != MAGIC {
            return Err(CaptureStoreError::BadMagic {
                found: fixed[..4].try_into().expect("4 bytes"),
            });
        }
        if fixed[4] != VERSION {
            return Err(CaptureStoreError::UnsupportedVersion { found: fixed[4] });
        }
        let u64_at = |at: usize| u64::from_le_bytes(fixed[at..at + 8].try_into().expect("8 bytes"));
        let fingerprint = u64_at(5);
        if fingerprint != expected_fingerprint {
            return Err(CaptureStoreError::FingerprintMismatch {
                expected: expected_fingerprint,
                found: fingerprint,
            });
        }
        let line_bits = u64_at(13);
        let ones_seed = u64_at(21);
        let mut words = [0u64; 38];
        for (i, w) in words.iter_mut().enumerate() {
            *w = u64_at(29 + 8 * i);
        }
        let snapshot = HierarchySnapshot {
            l1i: stats_from_words(words[0..12].try_into().expect("12 words")),
            l1d: stats_from_words(words[12..24].try_into().expect("12 words")),
            l2: stats_from_words(words[24..36].try_into().expect("12 words")),
            memory_reads: words[36],
            memory_writes: words[37],
        };
        let count = u64_at(333);
        let frame_len = u32::from_le_bytes(fixed[341..345].try_into().expect("4 bytes"));
        let expected = fnv1a(FNV_BASIS, &fixed);
        let found = read_u64(&mut reader, &mut offset, Section::Header)?;
        if found != expected {
            return Err(CaptureStoreError::ChecksumMismatch {
                expected,
                found,
                offset: V2_HEADER_BYTES as u64,
            });
        }
        if frame_len == 0 || frame_len > (1 << 20) {
            return Err(CaptureStoreError::Malformed {
                offset: 341,
                detail: "frame length out of range",
            });
        }
        let header = V2Header {
            line_bits,
            ones_seed,
            snapshot,
            count,
        };
        Ok((header, Self::frames_at(reader, offset, count, frame_len)))
    }

    /// A decoder over the frame region of a stream of `count` records,
    /// starting at byte `offset` of the entry.
    fn frames_at(reader: R, offset: u64, count: u64, frame_len: u32) -> Self {
        Self {
            reader,
            offset,
            count,
            frame_len,
            yielded: 0,
            frame: Vec::new(),
            frame_pos: 0,
            payload: Vec::new(),
            probed: false,
        }
    }

    /// Yields the next record, reading and verifying the next frame when
    /// the buffered one is exhausted. After the final record, probes that
    /// the stream ends exactly (once).
    #[inline]
    pub(crate) fn next_record(&mut self) -> Result<Option<ExposureRecord>, CaptureStoreError> {
        match self.frame.get(self.frame_pos) {
            Some(&record) => {
                self.frame_pos += 1;
                self.yielded += 1;
                Ok(Some(record))
            }
            None => self.next_frame_record(),
        }
    }

    /// [`next_record`](Self::next_record) at a frame boundary: kept out
    /// of line so the per-record path stays small enough to inline.
    #[inline(never)]
    fn next_frame_record(&mut self) -> Result<Option<ExposureRecord>, CaptureStoreError> {
        loop {
            if self.frame_pos < self.frame.len() {
                let record = self.frame[self.frame_pos];
                self.frame_pos += 1;
                self.yielded += 1;
                return Ok(Some(record));
            }
            if self.yielded == self.count {
                if !self.probed {
                    self.probed = true;
                    let mut probe = [0u8; 1];
                    match self.reader.read_exact(&mut probe) {
                        Ok(()) => {
                            return Err(CaptureStoreError::TrailingBytes {
                                offset: self.offset,
                            })
                        }
                        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {}
                        Err(source) => {
                            return Err(CaptureStoreError::Io {
                                offset: self.offset,
                                source,
                            })
                        }
                    }
                }
                return Ok(None);
            }
            self.read_frame()?;
        }
    }

    fn read_frame(&mut self) -> Result<(), CaptureStoreError> {
        let frame_offset = self.offset;
        let section = Section::Record {
            index: self.yielded,
        };
        let mut head = [0u8; 8];
        fill(&mut self.reader, &mut head, &mut self.offset, section)?;
        let records = u32::from_le_bytes(head[..4].try_into().expect("4 bytes"));
        let payload_len = u32::from_le_bytes(head[4..8].try_into().expect("4 bytes"));
        if records == 0 || records > self.frame_len {
            return Err(CaptureStoreError::Malformed {
                offset: frame_offset,
                detail: "frame record count out of range",
            });
        }
        if u64::from(records) > self.count - self.yielded {
            return Err(CaptureStoreError::Malformed {
                offset: frame_offset,
                detail: "frames exceed the declared record count",
            });
        }
        if payload_len > records * MAX_RECORD_BYTES || payload_len < 5 * records {
            return Err(CaptureStoreError::Malformed {
                offset: frame_offset,
                detail: "frame payload length out of range",
            });
        }
        self.payload.clear();
        self.payload.resize(payload_len as usize, 0);
        fill(
            &mut self.reader,
            &mut self.payload,
            &mut self.offset,
            section,
        )?;
        let checksum_offset = self.offset;
        let found = read_u64(&mut self.reader, &mut self.offset, section)?;
        let expected = fnv1a(fnv1a(FNV_BASIS, &head), &self.payload);
        if found != expected {
            return Err(CaptureStoreError::ChecksumMismatch {
                expected,
                found,
                offset: checksum_offset,
            });
        }

        self.frame.clear();
        self.frame_pos = 0;
        let mut pos = 0usize;
        let mut prev = [0u64; 4];
        for i in 0..u64::from(records) {
            let Some(&tag_byte) = self.payload.get(pos) else {
                return Err(CaptureStoreError::Malformed {
                    offset: frame_offset,
                    detail: "record truncated within frame payload",
                });
            };
            pos += 1;
            let kind = match tag_byte {
                0 => ExposureKind::Demand,
                1 => ExposureKind::DirtyScrub,
                2 => ExposureKind::DirtyEviction,
                other => {
                    return Err(CaptureStoreError::UnknownKind {
                        found: other,
                        record: self.yielded + i,
                        offset: frame_offset,
                    })
                }
            };
            let mut cur = [0u64; 4];
            for (p, c) in prev.iter_mut().zip(cur.iter_mut()) {
                let Some(coded) = get_varint(&self.payload, &mut pos) else {
                    return Err(CaptureStoreError::Malformed {
                        offset: frame_offset,
                        detail: "bad varint in frame payload",
                    });
                };
                *c = unzigzag_delta(*p, coded);
                *p = *c;
            }
            self.frame.push(ExposureRecord {
                kind,
                key: LineKey {
                    tag: cur[0],
                    set: cur[1],
                    version: cur[2],
                },
                unchecked_reads: cur[3],
            });
        }
        if pos != self.payload.len() {
            return Err(CaptureStoreError::Malformed {
                offset: frame_offset,
                detail: "unconsumed bytes in frame payload",
            });
        }
        Ok(())
    }
}

/// Deserializes a `reap-capture/2` stream into a materialized payload,
/// verifying the header, every frame checksum and the absence of
/// trailing bytes. The store instead checks an entry's header in
/// [`CaptureStore::load`] and hands its frames straight to the replay
/// iterator, which verifies each frame as it reads it.
///
/// # Errors
///
/// Returns [`CaptureStoreError`] naming the byte offset on any defect.
pub fn read_capture_v2<R: Read>(
    reader: R,
    expected_fingerprint: u64,
) -> Result<CapturePayload, CaptureStoreError> {
    let (header, mut decoder) = V2Decoder::open(reader, expected_fingerprint)?;
    let mut events = Vec::with_capacity(header.count.min(1 << 20) as usize);
    while let Some(record) = decoder.next_record()? {
        events.push(record);
    }
    Ok(CapturePayload {
        events,
        snapshot: header.snapshot,
        line_bits: header.line_bits as usize,
        ones_seed: header.ones_seed,
    })
}

/// A fresh capture's in-memory frames read as one byte stream, straight
/// from their slices.
pub(crate) struct FrameChain<'a> {
    rest: &'a [Box<[u8]>],
    current: &'a [u8],
}

impl Read for FrameChain<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        while self.current.is_empty() {
            let Some((first, rest)) = self.rest.split_first() else {
                return Ok(0);
            };
            self.current = first;
            self.rest = rest;
        }
        self.current.read(buf)
    }
}

/// A decoder over a fresh capture's `count` records held as in-memory
/// frames (as [`FrameEncoder::finish`] yields them). Offsets in its
/// errors are those the frames take in a v2 entry.
pub(crate) fn frame_decoder(frames: &[Box<[u8]>], count: u64) -> V2Decoder<FrameChain<'_>> {
    let chain = FrameChain {
        rest: frames,
        current: &[],
    };
    V2Decoder::frames_at(chain, V2_HEADER_BYTES as u64 + 8, count, FRAME_RECORDS)
}

/// A directory of fingerprint-addressed capture entries.
///
/// Cloneable and `Sync`: campaign workers share one store and hit
/// disjoint entries (each workload has its own fingerprint).
#[derive(Debug, Clone, PartialEq)]
pub struct CaptureStore {
    dir: PathBuf,
    policy: CapturePolicy,
}

impl CaptureStore {
    /// A store rooted at `dir` (created lazily on the first write).
    pub fn new(dir: impl Into<PathBuf>, policy: CapturePolicy) -> Self {
        Self {
            dir: dir.into(),
            policy,
        }
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The store's read/write policy.
    pub fn policy(&self) -> CapturePolicy {
        self.policy
    }

    /// The on-disk path of `key`'s entry.
    pub fn entry_path(&self, key: &CaptureKey) -> PathBuf {
        self.dir.join(format!("{:016x}.rcap", key.fingerprint()))
    }

    /// Attempts to serve `key` from disk. Never fails outward: a missing
    /// entry counts a `capture_store.miss`, an unreadable one or one whose
    /// header fails its checks (magic, version, fingerprint, header
    /// checksum, frame length) counts a `capture_store.invalid`, and both
    /// return `None` so the caller recaptures.
    ///
    /// Only the header is read. The hit is a store-backed capture that
    /// re-opens the file on each replay pass and decodes it frame by frame
    /// into one reusable buffer, verifying each frame's checksum as it
    /// goes, so a warm hit decodes its entry once per pass and allocates
    /// no per-entry event `Vec`. A frame defect therefore surfaces at
    /// replay, where [`crate::Experiment::score`] recaptures and heals
    /// the entry.
    pub fn load(&self, key: &CaptureKey) -> Option<ExposureCapture> {
        if self.policy == CapturePolicy::Off {
            return None;
        }
        let path = self.entry_path(key);
        let file = match File::open(&path) {
            Ok(f) => f,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                bump("capture_store.miss");
                return None;
            }
            Err(e) => {
                bump("capture_store.invalid");
                warn(format_args!(
                    "capture store entry {} unreadable ({e}); recapturing",
                    path.display()
                ));
                return None;
            }
        };
        let bytes = file.metadata().map(|m| m.len()).unwrap_or(0);
        let reader = BufReader::with_capacity(ENTRY_HEADER_BYTES, file);
        match V2Decoder::open(reader, key.fingerprint()) {
            Ok((header, _)) => {
                bump("capture_store.hit");
                emit_entry_io("capture_store.bytes_read", bytes, header.count);
                Some(entry_capture(path, key, &header))
            }
            Err(e) => {
                bump("capture_store.invalid");
                warn(format_args!(
                    "capture store entry {} is invalid ({e}); recapturing",
                    path.display()
                ));
                None
            }
        }
    }

    /// Persists `capture` under `key`, via a temp file and an atomic
    /// rename — concurrent readers either see the complete entry or none.
    ///
    /// # Errors
    ///
    /// Returns [`CaptureStoreError::Io`] when the directory, temp file or
    /// rename fails. Callers on the hot path treat this as a warning (the
    /// capture is still in memory), not a failure.
    pub fn store(
        &self,
        key: &CaptureKey,
        capture: &ExposureCapture,
    ) -> Result<PathBuf, CaptureStoreError> {
        let mut writer = EntryWriter::create(self, key)?;
        put_frames(capture, &mut writer)?;
        writer.commit(&V2Header::of(capture))
    }

    /// The store-aware capture entry point: serve `sim`'s capture of
    /// `workload` at `seed` from disk when possible, otherwise run the
    /// trace pass. Under a `ReadWrite` policy the pass streams its frames
    /// straight into the new entry and returns it store-backed, so its
    /// memory does not grow with the window; under `Off` and `Read` the
    /// fresh capture keeps its frames in memory.
    ///
    /// Under `ReadWrite`, threads of one process that ask for the same
    /// entry at once run one trace pass: the first writes the entry, the
    /// others wait for it and load it as a hit. Separate processes may
    /// both capture; their atomic renames leave one whole entry.
    ///
    /// Bit-identical to [`Simulator::capture`] in every case — the format
    /// round-trips captures exactly, a header or write defect falls back
    /// to the trace pass here, and a frame defect found at replay falls
    /// back in [`crate::Experiment::score`]. The whole attempt runs inside a
    /// `capture_store` span; a hit deliberately does *not* emit the
    /// `sim.capture.*` or `cache.*` counters, which count actual trace
    /// passes.
    ///
    /// # Errors
    ///
    /// Propagates [`SimulationError`] from a recapture; store write
    /// failures are reported on stderr, never fatal.
    pub fn load_or_capture(
        &self,
        sim: &Simulator,
        workload: SpecWorkload,
        seed: u64,
    ) -> Result<ExposureCapture, SimulationError> {
        let key = CaptureKey::new(workload, seed, sim.config());
        let mut span = reap_obs::span("capture_store");
        // Single flight: a second miss on an entry this process is
        // writing waits for that write and loads it.
        let _claim = (self.policy == CapturePolicy::ReadWrite)
            .then(|| EntryClaim::take(self.entry_path(&key)));
        if let Some(capture) = self.load(&key) {
            span.add_events(capture.event_count());
            return Ok(capture);
        }
        let capture = if self.policy == CapturePolicy::ReadWrite {
            self.capture_to_entry(sim, &key, workload, seed)?
        } else {
            sim.capture(workload.stream(seed))?
        };
        span.add_events(capture.event_count());
        Ok(capture)
    }

    /// Captures `workload` at `seed` straight into `key`'s entry, holding
    /// one frame at a time, and returns the entry as a store-backed
    /// capture built from the header the writer wrote, exactly as
    /// [`load`](Self::load) builds one from the header it reads.
    ///
    /// Fails open: if the temp file cannot be created, or a write fails
    /// mid-capture, it warns and captures in memory instead. The trace is
    /// deterministic, so a recapture costs time, never correctness.
    fn capture_to_entry(
        &self,
        sim: &Simulator,
        key: &CaptureKey,
        workload: SpecWorkload,
        seed: u64,
    ) -> Result<ExposureCapture, SimulationError> {
        let frames = match EntryWriter::create(self, key) {
            Ok(writer) => FrameEncoder::with_sink(writer),
            Err(e) => {
                warn(format_args!(
                    "capture store write failed: {e}; capturing in memory"
                ));
                return sim.capture(workload.stream(seed));
            }
        };
        let (pass, frames) = sim.capture_into(workload.stream(seed), frames)?;
        let committed = frames.finish().and_then(|(count, frame_bytes, writer)| {
            let header = V2Header {
                line_bits: pass.line_bits as u64,
                ones_seed: pass.ones_seed,
                snapshot: pass.snapshot,
                count,
            };
            let path = writer.commit(&header)?;
            Ok((path, header, frame_bytes))
        });
        match committed {
            Ok((path, header, frame_bytes)) => {
                pass.emit_metrics(header.count, frame_bytes);
                Ok(entry_capture(path, key, &header))
            }
            Err(e) => {
                warn(format_args!(
                    "capture store write failed: {e}; recapturing in memory"
                ));
                sim.capture(workload.stream(seed))
            }
        }
    }
}

/// Entry paths a thread of this process is loading or capturing.
static CLAIMED: Mutex<Vec<PathBuf>> = Mutex::new(Vec::new());
/// Signalled whenever a claim is released.
static RELEASED: Condvar = Condvar::new();

/// One thread's exclusive use of an entry path within this process,
/// held from the load through the capture that follows a miss, and
/// released on drop (a panic mid-capture included).
struct EntryClaim(PathBuf);

impl EntryClaim {
    /// Waits until no other thread holds `path`, then claims it.
    fn take(path: PathBuf) -> Self {
        let mut claimed = CLAIMED.lock().unwrap_or_else(PoisonError::into_inner);
        while claimed.contains(&path) {
            claimed = RELEASED
                .wait(claimed)
                .unwrap_or_else(PoisonError::into_inner);
        }
        claimed.push(path.clone());
        Self(path)
    }
}

impl Drop for EntryClaim {
    fn drop(&mut self) {
        let mut claimed = CLAIMED.lock().unwrap_or_else(PoisonError::into_inner);
        claimed.retain(|p| *p != self.0);
        RELEASED.notify_all();
    }
}

/// `key`'s entry at `path`, whose header is `header`, as a store-backed
/// capture: the one constructor of a loaded entry and of one a capture
/// has just streamed.
fn entry_capture(path: PathBuf, key: &CaptureKey, header: &V2Header) -> ExposureCapture {
    ExposureCapture::from_source(
        EventSource::Entry {
            path,
            fingerprint: key.fingerprint(),
        },
        header.count,
        header.snapshot,
        header.line_bits as usize,
        header.ones_seed,
        key.hierarchy.clone(),
        key.replacement,
        key.warmup_accesses,
        key.measure_accesses,
        key.scrub_period,
    )
}

/// Re-opens the entry at `path` for one replay pass, leaving the decoder
/// at its first frame. The header is checked again, and must still
/// declare the `count` records the capture was built with.
pub(crate) fn reopen_entry(
    path: &Path,
    fingerprint: u64,
    count: u64,
) -> Result<V2Decoder<BufReader<File>>, StreamDefect> {
    let defect = |e: &dyn fmt::Display| {
        StreamDefect::new(format!(
            "cannot reopen capture entry {}: {e}",
            path.display()
        ))
    };
    let file = File::open(path).map_err(|e| defect(&e))?;
    let (header, decoder) =
        V2Decoder::open(BufReader::new(file), fingerprint).map_err(|e| defect(&e))?;
    if header.count != count {
        return Err(defect(&format_args!(
            "it holds {} records, not {count}",
            header.count
        )));
    }
    Ok(decoder)
}

/// Reports a fail-open store problem on stderr.
fn warn(message: fmt::Arguments<'_>) {
    #[cfg(test)]
    tests::WARNINGS.with(|w| w.borrow_mut().push(message.to_string()));
    eprintln!("warning: {message}");
}

/// Increments a global counter when telemetry is enabled (the same
/// gating the simulator spans use).
pub(crate) fn bump(name: &str) {
    if reap_obs::enabled() {
        reap_obs::global().counter(name).add(1);
    }
}

/// Accounts one entry's worth of store I/O: adds `bytes` to the named
/// counter and refreshes the `capture_store.bytes_per_event` gauge (the
/// entry's size over its record count). Emitted on every hit and every
/// write so BENCH numbers are cross-checkable from telemetry.
fn emit_entry_io(counter: &str, bytes: u64, events: u64) {
    if !reap_obs::enabled() || bytes == 0 {
        return;
    }
    let registry = reap_obs::global();
    registry.counter(counter).add(bytes);
    if events > 0 {
        registry
            .gauge("capture_store.bytes_per_event")
            .set(bytes as f64 / events as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Experiment;
    use crate::scheme::ProtectionScheme;
    use std::cell::{Cell, RefCell};

    thread_local! {
        /// The warnings store calls on this test thread printed.
        pub(super) static WARNINGS: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
        /// Entry writers created on this test thread fail from this byte
        /// offset on.
        pub(super) static FAIL_WRITES_FROM: Cell<u64> = const { Cell::new(u64::MAX) };
    }

    /// The failing-writer seam of [`EntryWriter`]: an I/O error for a
    /// frame put at or past `fail_from`, the writer's copy of
    /// [`FAIL_WRITES_FROM`].
    pub(super) fn injected_write_failure(
        offset: u64,
        fail_from: u64,
    ) -> Result<(), CaptureStoreError> {
        if offset < fail_from {
            return Ok(());
        }
        Err(CaptureStoreError::Io {
            offset,
            source: io::Error::other("injected write failure"),
        })
    }

    fn scratch(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("reap-capstore-unit-{tag}-{}", std::process::id()))
    }

    /// Names of the temp files left in `dir`.
    fn temp_files(dir: &Path) -> Vec<String> {
        std::fs::read_dir(dir)
            .map(|entries| {
                entries
                    .map(|e| e.unwrap().file_name().into_string().unwrap())
                    .filter(|n| n.contains(".tmp."))
                    .collect()
            })
            .unwrap_or_default()
    }

    fn report_bits(r: &crate::Report) -> [u64; 4] {
        [
            r.expected_failures(ProtectionScheme::Conventional)
                .to_bits(),
            r.expected_failures(ProtectionScheme::Reap).to_bits(),
            r.expected_failures(ProtectionScheme::SerialTagFirst)
                .to_bits(),
            r.writeback_exposure().to_bits(),
        ]
    }

    /// A scrubbed capture of several frames, and its key.
    fn scrubbed_sim() -> (Simulator, CaptureKey) {
        let config = SimulationConfig {
            warmup_accesses: 1_000,
            measure_accesses: 60_000,
            scrub_period: 2_500,
            ..SimulationConfig::default()
        };
        let key = CaptureKey::new(SpecWorkload::Gcc, 8, &config);
        (Simulator::new(config).unwrap(), key)
    }

    fn small_capture() -> (ExposureCapture, CaptureKey) {
        let experiment = Experiment::paper_hierarchy()
            .workload(SpecWorkload::Hmmer)
            .budgets(500, 8_000)
            .seed(3);
        let capture = experiment.capture().unwrap();
        let key = CaptureKey::new(SpecWorkload::Hmmer, 3, experiment.config());
        (capture, key)
    }

    fn encode(capture: &ExposureCapture, fingerprint: u64) -> Vec<u8> {
        let mut buf = Vec::new();
        write_capture_v2(&mut buf, fingerprint, capture).unwrap();
        buf
    }

    #[test]
    fn fingerprint_separates_behavioural_configs_only() {
        let base = Experiment::paper_hierarchy().budgets(500, 8_000).seed(3);
        let key = |e: &Experiment, w, s| CaptureKey::new(w, s, e.config()).fingerprint();
        let a = key(&base, SpecWorkload::Hmmer, 3);
        // Workload, seed, budgets and policy all separate entries…
        assert_ne!(a, key(&base, SpecWorkload::Gcc, 3));
        assert_ne!(a, key(&base, SpecWorkload::Hmmer, 4));
        assert_ne!(
            a,
            key(&base.clone().budgets(500, 9_000), SpecWorkload::Hmmer, 3)
        );
        assert_ne!(
            a,
            key(
                &base.clone().replacement(Replacement::Fifo),
                SpecWorkload::Hmmer,
                3
            )
        );
        // …while analysis-side settings share one capture.
        assert_eq!(
            a,
            key(
                &base.clone().ecc(crate::simulator::EccStrength::Tec),
                SpecWorkload::Hmmer,
                3
            )
        );
    }

    #[test]
    fn fingerprint_of_a_paper_key_keeps_its_value() {
        // Entries written by earlier builds stay addressable only while
        // the fingerprint chain, seeded with CAPTURE_SCHEMA, is unchanged.
        let config = Experiment::paper_hierarchy().config().clone();
        let key = CaptureKey::new(SpecWorkload::H264ref, 2019, &config);
        assert_eq!(key.fingerprint(), 0x1ff1_277c_b109_d699);
    }

    #[test]
    fn truncation_names_the_offset() {
        let (capture, key) = small_capture();
        let fp = key.fingerprint();
        let buf = encode(&capture, fp);
        // Cutting into the final frame's checksum stops the read where
        // that checksum starts.
        let cut = &buf[..buf.len() - 3];
        let err = read_capture_v2(cut, fp).unwrap_err();
        assert!(
            matches!(err, CaptureStoreError::Truncated { offset, .. } if offset == buf.len() as u64 - 8),
            "{err}"
        );
        assert!(err.to_string().contains("byte"), "{err}");
    }

    #[test]
    fn bit_corruption_fails_the_checksum() {
        let (capture, key) = small_capture();
        let fp = key.fingerprint();
        let mut buf = encode(&capture, fp);
        // Flip one bit deep in the first frame's payload: the frame
        // checksum catches it before the payload is decoded.
        buf[V2_HEADER_BYTES + 8 + 8 + 12] ^= 0x10;
        let err = read_capture_v2(&buf[..], fp).unwrap_err();
        assert!(
            matches!(err, CaptureStoreError::ChecksumMismatch { .. }),
            "{err}"
        );
    }

    #[test]
    fn store_load_round_trip_and_miss() {
        let dir = scratch("roundtrip");
        std::fs::remove_dir_all(&dir).ok();
        let store = CaptureStore::new(&dir, CapturePolicy::ReadWrite);
        let (capture, key) = small_capture();
        assert!(store.load(&key).is_none(), "cold store must miss");
        store.store(&key, &capture).unwrap();
        let loaded = store.load(&key).expect("entry just written");
        assert_eq!(loaded.events(), capture.events());
        assert_eq!(loaded.line_bits(), capture.line_bits());
        assert_eq!(loaded.ones_seed(), capture.ones_seed());
        assert_eq!(loaded.warmup_accesses(), capture.warmup_accesses());
        assert_eq!(loaded.measure_accesses(), capture.measure_accesses());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn off_policy_bypasses_even_existing_entries() {
        let dir = scratch("off");
        std::fs::remove_dir_all(&dir).ok();
        let (capture, key) = small_capture();
        CaptureStore::new(&dir, CapturePolicy::ReadWrite)
            .store(&key, &capture)
            .unwrap();
        assert!(CaptureStore::new(&dir, CapturePolicy::Off)
            .load(&key)
            .is_none());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn no_temp_files_survive_a_store() {
        let dir = scratch("tmpfiles");
        std::fs::remove_dir_all(&dir).ok();
        let store = CaptureStore::new(&dir, CapturePolicy::ReadWrite);
        let (capture, key) = small_capture();
        store.store(&key, &capture).unwrap();
        let leftovers = temp_files(&dir);
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn streamed_entries_match_write_capture_v2_at_frame_edges() {
        let dir = scratch("frame-edges");
        std::fs::remove_dir_all(&dir).ok();
        let store = CaptureStore::new(&dir, CapturePolicy::ReadWrite);
        let snapshot = *small_capture().0.snapshot();
        for n in [0usize, 1, 4095, 4096, 4097, 8193] {
            // Demand reads, and one scrub's burst of dirty-scrub records
            // straddling the first frame cut.
            let burst = 4090..4102;
            let records: Vec<ExposureRecord> = (0..n as u64)
                .map(|i| ExposureRecord {
                    kind: if burst.contains(&i) {
                        ExposureKind::DirtyScrub
                    } else {
                        ExposureKind::Demand
                    },
                    key: LineKey {
                        tag: (i * 37) % 1_000,
                        set: i % 512,
                        version: i / 5,
                    },
                    unchecked_reads: i % 13,
                })
                .collect();
            let capture = ExposureCapture::from_parts(
                records.clone(),
                snapshot,
                512,
                9,
                HierarchyConfig::paper(),
                Replacement::Lru,
                0,
                0,
                0,
            );
            let key = CaptureKey::new(SpecWorkload::Hmmer, n as u64, &SimulationConfig::default());

            // Fed as the capture loop feeds it: the burst in one piece.
            let mut frames = FrameEncoder::with_sink(EntryWriter::create(&store, &key).unwrap());
            let (a, b) = (
                burst.start.min(n as u64) as usize,
                burst.end.min(n as u64) as usize,
            );
            for part in [&records[..a], &records[a..b], &records[b..]] {
                frames.extend(part);
            }
            let (count, frame_bytes, writer) = frames.finish().unwrap();
            assert_eq!(count, n as u64);
            let header = V2Header {
                count,
                ..V2Header::of(&capture)
            };
            let path = writer.commit(&header).unwrap();
            let streamed = std::fs::read(&path).unwrap();
            let want = encode(&capture, key.fingerprint());
            assert!(streamed == want, "{n} events: streamed entry differs");
            assert_eq!(
                streamed.len() as u64,
                ENTRY_HEADER_BYTES as u64 + frame_bytes
            );
            store.store(&key, &capture).unwrap();
            assert!(
                std::fs::read(&path).unwrap() == want,
                "{n} events: store differs"
            );
            let loaded = store.load(&key).expect("entry just written");
            assert_eq!(loaded.events(), &records[..]);
        }
        assert!(temp_files(&dir).is_empty());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn a_fresh_readwrite_capture_streams_the_entry_a_store_writes() {
        let dir = scratch("streamed-fresh");
        std::fs::remove_dir_all(&dir).ok();
        let store = CaptureStore::new(&dir, CapturePolicy::ReadWrite);
        let (sim, key) = scrubbed_sim();
        let in_memory = sim.capture(SpecWorkload::Gcc.stream(8)).unwrap();
        assert!(
            in_memory.event_count() > 2 * u64::from(FRAME_RECORDS),
            "must span several frames"
        );

        let fresh = store.load_or_capture(&sim, SpecWorkload::Gcc, 8).unwrap();
        assert!(
            fresh.frames().is_none(),
            "a store-backed capture holds no frames"
        );
        let entry = std::fs::read(store.entry_path(&key)).unwrap();
        assert!(entry == encode(&in_memory, key.fingerprint()));
        assert_eq!(fresh.event_count(), in_memory.event_count());
        assert_eq!(fresh.snapshot(), in_memory.snapshot());
        assert_eq!(fresh.line_bits(), in_memory.line_bits());
        assert_eq!(fresh.ones_seed(), in_memory.ones_seed());
        assert_eq!(
            report_bits(&sim.replay(&fresh).unwrap()),
            report_bits(&sim.replay(&in_memory).unwrap())
        );
        assert!(temp_files(&dir).is_empty());

        // Read and Off policies keep a fresh capture in memory.
        for policy in [CapturePolicy::Read, CapturePolicy::Off] {
            let other = scratch(&format!("streamed-fresh-{policy}"));
            let capture = CaptureStore::new(&other, policy)
                .load_or_capture(&sim, SpecWorkload::Gcc, 8)
                .unwrap();
            assert!(capture.frames() == in_memory.frames(), "{policy}");
            assert!(!other.exists(), "{policy} must not write");
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn a_write_failure_mid_capture_recaptures_in_memory() {
        let dir = scratch("write-failure");
        std::fs::remove_dir_all(&dir).ok();
        let store = CaptureStore::new(&dir, CapturePolicy::ReadWrite);
        let (sim, key) = scrubbed_sim();
        let want = sim.capture(SpecWorkload::Gcc.stream(8)).unwrap();

        // The first frame is written, the second fails.
        FAIL_WRITES_FROM.set(ENTRY_HEADER_BYTES as u64 + 1);
        WARNINGS.take();
        let got = store.load_or_capture(&sim, SpecWorkload::Gcc, 8);
        FAIL_WRITES_FROM.set(u64::MAX);
        let got = got.unwrap();

        assert!(got.frames() == want.frames(), "recaptured in memory");
        assert_eq!(got.snapshot(), want.snapshot());
        assert_eq!(
            report_bits(&sim.replay(&got).unwrap()),
            report_bits(&sim.replay(&want).unwrap())
        );
        let warnings = WARNINGS.take();
        assert!(
            warnings.len() == 1
                && warnings[0].contains("injected write failure")
                && warnings[0].contains("recapturing in memory"),
            "{warnings:?}"
        );
        assert!(temp_files(&dir).is_empty(), "{:?}", temp_files(&dir));
        assert!(!store.entry_path(&key).exists(), "no entry is committed");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn a_sink_failure_mid_capture_ends_both_stages_and_leaves_no_temp_file() {
        let dir = scratch("sink-failure-stages");
        std::fs::remove_dir_all(&dir).ok();
        let store = CaptureStore::new(&dir, CapturePolicy::ReadWrite);
        let (sim, key) = scrubbed_sim();
        let total = sim.config().warmup_accesses + sim.config().measure_accesses;
        for two_stage in [false, true] {
            // The first frame is written, the second fails.
            FAIL_WRITES_FROM.set(ENTRY_HEADER_BYTES as u64 + 1);
            let frames = FrameEncoder::with_sink(EntryWriter::create(&store, &key).unwrap());
            FAIL_WRITES_FROM.set(u64::MAX);
            let pulled = AtomicU64::new(0);
            let trace = SpecWorkload::Gcc.stream(8).inspect(|_| {
                pulled.fetch_add(1, Ordering::Relaxed);
            });
            let (pass, frames) = sim.capture_staged(trace, frames, two_stage).unwrap();
            assert_eq!(pass.two_stage, two_stage);
            let err = frames.finish().map(drop).unwrap_err();
            assert!(err.to_string().contains("injected write failure"), "{err}");
            // Both stages stopped well before the end of the window.
            let pulled = pulled.load(Ordering::Relaxed);
            assert!(
                pulled < total / 2,
                "two-stage {two_stage}: {pulled} of {total}"
            );
            assert!(temp_files(&dir).is_empty(), "{:?}", temp_files(&dir));
            assert!(!store.entry_path(&key).exists());
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn an_uncreatable_temp_file_captures_in_memory() {
        let dir = scratch("uncreatable");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::write(&dir, b"a file where the store directory should be").unwrap();
        let store = CaptureStore::new(&dir, CapturePolicy::ReadWrite);
        let (sim, _) = scrubbed_sim();
        WARNINGS.take();
        let got = store.load_or_capture(&sim, SpecWorkload::Gcc, 8).unwrap();
        let want = sim.capture(SpecWorkload::Gcc.stream(8)).unwrap();
        assert!(got.frames() == want.frames());
        let warnings = WARNINGS.take();
        assert!(
            warnings.iter().any(|w| w.contains("capturing in memory")),
            "{warnings:?}"
        );
        std::fs::remove_file(dir).ok();
    }

    #[test]
    fn an_abandoned_entry_writer_deletes_its_temp_file() {
        let dir = scratch("abandoned");
        std::fs::remove_dir_all(&dir).ok();
        let store = CaptureStore::new(&dir, CapturePolicy::ReadWrite);
        let (sim, key) = scrubbed_sim();

        // A capture that returns an error (the trace runs out).
        let frames = FrameEncoder::with_sink(EntryWriter::create(&store, &key).unwrap());
        assert_eq!(temp_files(&dir).len(), 1);
        let short = SpecWorkload::Gcc.stream(8).take(30_000);
        assert!(sim.capture_into(short, frames).is_err());
        assert!(temp_files(&dir).is_empty(), "{:?}", temp_files(&dir));

        // A capture that panics.
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut frames = FrameEncoder::with_sink(EntryWriter::create(&store, &key).unwrap());
            frames.extend(&small_capture().0.events());
            assert_eq!(temp_files(&dir).len(), 1);
            panic!("capture aborted");
        }));
        assert!(panicked.is_err());
        assert!(temp_files(&dir).is_empty(), "{:?}", temp_files(&dir));
        assert!(!store.entry_path(&key).exists());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn policy_displays_cli_names() {
        assert_eq!(CapturePolicy::Off.to_string(), "off");
        assert_eq!(CapturePolicy::Read.to_string(), "read");
        assert_eq!(CapturePolicy::ReadWrite.to_string(), "readwrite");
    }

    #[test]
    fn varint_and_zigzag_round_trip_edge_values() {
        for v in [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            assert!(buf.len() <= 10);
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos), Some(v), "v = {v}");
            assert_eq!(pos, buf.len());
        }
        for (cur, prev) in [
            (0u64, 0u64),
            (5, 3),
            (3, 5),
            (u64::MAX, 0),
            (0, u64::MAX),
            (1 << 63, 0),
            (42, u64::MAX - 7),
        ] {
            assert_eq!(
                unzigzag_delta(prev, zigzag_delta(cur, prev)),
                cur,
                "cur = {cur}, prev = {prev}"
            );
        }
    }

    #[test]
    fn unterminated_varint_is_rejected() {
        // Ten continuation bytes and an eleventh payload byte: overflow.
        let buf = [0xff; 11];
        let mut pos = 0;
        assert_eq!(get_varint(&buf, &mut pos), None);
        // Truncation mid-varint.
        let buf = [0x80, 0x80];
        let mut pos = 0;
        assert_eq!(get_varint(&buf, &mut pos), None);
    }

    #[test]
    fn v2_round_trip_preserves_every_field() {
        let (capture, key) = small_capture();
        let buf = encode(&capture, key.fingerprint());
        let payload = read_capture_v2(&buf[..], key.fingerprint()).unwrap();
        assert_eq!(payload.events, capture.events());
        assert_eq!(payload.line_bits, capture.line_bits());
        assert_eq!(payload.ones_seed, capture.ones_seed());
        assert_eq!(
            snapshot_words(&payload.snapshot),
            snapshot_words(capture.snapshot())
        );
    }

    #[test]
    fn v2_entries_are_compact() {
        // At most half the retired fixed-width layout's size, which was
        // exactly 33 bytes per record plus 349.
        let (capture, key) = small_capture();
        let v2 = encode(&capture, key.fingerprint());
        let fixed_width = 33 * capture.event_count() + 349;
        assert!(
            2 * v2.len() as u64 <= fixed_width,
            "entry ({}) must be at most half of {fixed_width}",
            v2.len()
        );
    }

    #[test]
    fn v2_header_defects_are_typed() {
        let (capture, key) = small_capture();
        let fp = key.fingerprint();
        let mut buf = encode(&capture, fp);
        buf[0] = b'X';
        assert!(matches!(
            read_capture_v2(&buf[..], fp).unwrap_err(),
            CaptureStoreError::BadMagic { .. }
        ));
        let mut buf = encode(&capture, fp);
        buf[4] = 9;
        assert!(matches!(
            read_capture_v2(&buf[..], fp).unwrap_err(),
            CaptureStoreError::UnsupportedVersion { found: 9 }
        ));
        let buf = encode(&capture, fp);
        let err = read_capture_v2(&buf[..], fp ^ 1).unwrap_err();
        assert!(matches!(err, CaptureStoreError::FingerprintMismatch { .. }));
        assert!(err.to_string().contains("fingerprint"), "{err}");
        // A flip in an otherwise-unvalidated header field (the snapshot)
        // is caught by the header checksum.
        let mut buf = encode(&capture, fp);
        buf[40] ^= 0x04;
        assert!(matches!(
            read_capture_v2(&buf[..], fp).unwrap_err(),
            CaptureStoreError::ChecksumMismatch { .. }
        ));
    }

    #[test]
    fn v2_frame_corruption_truncation_and_trailing_bytes_are_caught() {
        let (capture, key) = small_capture();
        let fp = key.fingerprint();
        let clean = encode(&capture, fp);
        assert!(
            clean.len() > V2_HEADER_BYTES + 8,
            "capture must have frames"
        );

        // Any single-bit flip in the frame region fails the load.
        for at in [
            V2_HEADER_BYTES + 8,  // first frame's record count
            V2_HEADER_BYTES + 20, // deep in the first frame's payload
            clean.len() - 1,      // final frame checksum
        ] {
            let mut buf = clean.clone();
            buf[at] ^= 0x20;
            assert!(
                read_capture_v2(&buf[..], fp).is_err(),
                "flip at byte {at} must not decode"
            );
        }

        let cut = &clean[..clean.len() - 3];
        assert!(matches!(
            read_capture_v2(cut, fp).unwrap_err(),
            CaptureStoreError::Truncated { .. } | CaptureStoreError::ChecksumMismatch { .. }
        ));

        let mut extended = clean.clone();
        extended.push(0);
        assert!(matches!(
            read_capture_v2(&extended[..], fp).unwrap_err(),
            CaptureStoreError::TrailingBytes { .. }
        ));
    }

    #[test]
    fn v2_multi_frame_captures_round_trip() {
        // Synthesize > FRAME_RECORDS records so the encoder emits several
        // frames, including a short tail frame.
        let count = FRAME_RECORDS as u64 * 2 + 17;
        let events: Vec<ExposureRecord> = (0..count)
            .map(|i| ExposureRecord {
                kind: match i % 3 {
                    0 => ExposureKind::Demand,
                    1 => ExposureKind::DirtyScrub,
                    _ => ExposureKind::DirtyEviction,
                },
                key: LineKey {
                    tag: i.wrapping_mul(0x9e37_79b9_7f4a_7c15),
                    set: i % 512,
                    version: i / 3,
                },
                unchecked_reads: (i * 7) % 1000,
            })
            .collect();
        let capture = ExposureCapture::from_parts(
            events.clone(),
            *small_capture().0.snapshot(),
            512,
            9,
            HierarchyConfig::paper(),
            Replacement::Lru,
            0,
            0,
            0,
        );
        let buf = encode(&capture, 77);
        let payload = read_capture_v2(&buf[..], 77).unwrap();
        assert_eq!(payload.events, events);
    }

    #[test]
    fn store_writes_the_current_version() {
        let dir = scratch("version");
        std::fs::remove_dir_all(&dir).ok();
        let (capture, key) = small_capture();
        let path = CaptureStore::new(&dir, CapturePolicy::ReadWrite)
            .store(&key, &capture)
            .unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(&bytes[..4], MAGIC);
        assert_eq!(bytes[4], VERSION);
        assert_eq!(bytes, encode(&capture, key.fingerprint()));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn v2_loads_stream_without_materializing() {
        use crate::capture::ExposureStream as _;
        let dir = scratch("streamed");
        std::fs::remove_dir_all(&dir).ok();
        let store = CaptureStore::new(&dir, CapturePolicy::ReadWrite);
        let (capture, key) = small_capture();
        store.store(&key, &capture).unwrap();
        let loaded = store.load(&key).expect("entry just written");
        assert_eq!(loaded.event_count(), capture.event_count());

        // Two independent streaming passes, no events() call anywhere.
        for _ in 0..2 {
            let mut stream = loaded.iter().expect("open stream");
            assert_eq!(stream.len(), capture.event_count());
            for (i, expected) in capture.events().iter().enumerate() {
                let got = stream.next_record().expect("pull").expect("record");
                assert_eq!(&got, expected, "record {i}");
            }
            assert!(stream.next_record().expect("end").is_none());
        }

        // Deleting the entry mid-life surfaces as a stream defect, not a
        // panic or a wrong result.
        std::fs::remove_file(store.entry_path(&key)).unwrap();
        assert!(loaded.iter().is_err(), "vanished entry must defect");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn a_corrupt_last_frame_loads_as_a_hit_and_fails_at_replay() {
        let dir = scratch("last-frame");
        std::fs::remove_dir_all(&dir).ok();
        let store = CaptureStore::new(&dir, CapturePolicy::ReadWrite);
        let (sim, key) = scrubbed_sim();
        let capture = sim.capture(SpecWorkload::Gcc.stream(8)).unwrap();
        assert!(capture.event_count() > u64::from(FRAME_RECORDS));
        let path = store.store(&key, &capture).unwrap();
        let len = std::fs::metadata(&path).unwrap().len();
        // The last payload byte, just before the final frame's checksum.
        reap_fault::flip_byte(&path, len - 9, 0x01).unwrap();

        WARNINGS.take();
        let loaded = store.load(&key).expect("loads read only the header");
        assert!(WARNINGS.take().is_empty());
        assert_eq!(loaded.event_count(), capture.event_count());
        match sim.replay(&loaded) {
            Err(SimulationError::CaptureStream(defect)) => {
                assert!(defect.to_string().contains("checksum"), "{defect}")
            }
            other => panic!("replay must report the defect, got {other:?}"),
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn store_hits_and_writes_account_bytes_per_event() {
        reap_obs::set_enabled(true);
        let dir = scratch("telemetry");
        std::fs::remove_dir_all(&dir).ok();
        let store = CaptureStore::new(&dir, CapturePolicy::ReadWrite);
        let (capture, key) = small_capture();

        let written0 = reap_obs::global()
            .counter("capture_store.bytes_written")
            .get();
        let path = store.store(&key, &capture).unwrap();
        let entry_len = std::fs::metadata(&path).unwrap().len();
        let written = reap_obs::global()
            .counter("capture_store.bytes_written")
            .get();
        assert!(written >= written0 + entry_len, "write must account bytes");

        let read0 = reap_obs::global().counter("capture_store.bytes_read").get();
        store.load(&key).expect("hit");
        let read = reap_obs::global().counter("capture_store.bytes_read").get();
        assert!(read >= read0 + entry_len, "hit must account bytes");

        let per_event = reap_obs::global()
            .gauge("capture_store.bytes_per_event")
            .get();
        let expected = entry_len as f64 / capture.event_count() as f64;
        assert!(
            (per_event - expected).abs() < 1e-9,
            "gauge {per_event} vs expected {expected}"
        );
        assert!(per_event <= 16.5, "entry too large: {per_event} B/event");
        std::fs::remove_dir_all(dir).ok();
    }
}
