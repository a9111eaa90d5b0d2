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
//! into frames while the trace runs, and every fresh capture streams each
//! frame straight into an entry file as it is sealed, so its memory is one
//! frame whatever the window. A store-backed capture's file is its store
//! entry; any other capture's is a *scoped* entry, a file named for the
//! process in [`std::env::temp_dir`], deleted when the last clone of the
//! capture drops:
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
    Behaviour, EventBlock, EventSource, ExposureCapture, ExposureRecord, ExposureStream,
    HierarchySnapshot, StreamDefect,
};
use crate::checkpoint::fnv;
use crate::simulator::{SimulationConfig, SimulationError, Simulator};
use reap_cache::{AccessMode, CacheConfig, CacheStats, LineKey, Replacement};
use reap_reliability::ExposureKind;
use reap_trace::SpecWorkload;
use std::error::Error;
use std::fmt;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

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
pub(crate) const ENTRY_HEADER_BYTES: usize = V2_HEADER_BYTES + 8;
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
    behaviour: Behaviour,
}

impl CaptureKey {
    /// Builds the key for `workload` at `seed` under `config`'s
    /// behavioural parameters.
    pub fn new(workload: SpecWorkload, seed: u64, config: &SimulationConfig) -> Self {
        Self {
            workload,
            seed,
            behaviour: config.behaviour(),
        }
    }

    /// The 64-bit content address: an FNV-1a chain (the checkpoint
    /// fingerprint hash) over the schema tag, workload, seed, every
    /// geometric field of all three cache levels, the replacement policy,
    /// the access budgets and, when scrubbing is on, the scrub period.
    pub fn fingerprint(&self) -> u64 {
        let b = &self.behaviour;
        let mut h = fnv(FNV_BASIS, CAPTURE_SCHEMA.as_bytes());
        h = fnv(h, self.workload.name().as_bytes());
        h = fnv(h, &self.seed.to_le_bytes());
        for level in [&b.hierarchy.l1i, &b.hierarchy.l1d, &b.hierarchy.l2] {
            h = hash_level(h, level);
        }
        let (tag, seed) = match b.replacement {
            Replacement::Lru => (0u8, 0u64),
            Replacement::TreePlru => (1, 0),
            Replacement::Fifo => (2, 0),
            Replacement::Random(s) => (3, s),
            Replacement::Srrip => (4, 0),
            Replacement::LeastErrorRate => (5, 0),
        };
        h = fnv(h, &[tag]);
        h = fnv(h, &seed.to_le_bytes());
        h = fnv(h, &b.warmup_accesses.to_le_bytes());
        h = fnv(h, &b.measure_accesses.to_le_bytes());
        // Hashed only when scrubbing is on: every pre-existing store
        // entry (all captured at period 0) keeps its address.
        if b.scrub_period > 0 {
            h = fnv(h, &b.scrub_period.to_le_bytes());
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
/// a damaged entry is diagnosable without a hex editor. Callers never
/// see the decode variants: [`CaptureStore::load`] maps a bad header to
/// a miss, and replay reports a bad frame as a [`StreamDefect`], which
/// [`crate::Experiment::score`] heals.
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

/// Decodes one LEB128 varint from `payload` at `*pos`, advancing it and
/// folding each byte it reads into the FNV-1a state `hash`, so a frame is
/// checksummed in the pass that parses it: `hash` always covers exactly
/// the bytes before `*pos`. `None` on truncation, a non-terminating
/// encoding, or 64-bit overflow. Always inlined: it is the inner loop of
/// every frame decode.
#[inline(always)]
fn get_varint(payload: &[u8], pos: &mut usize, hash: &mut u64) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *payload.get(*pos)?;
        *pos += 1;
        *hash = (*hash ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
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
/// header of a v2 entry. A capture drains its observer into an encoder
/// over an [`EntryWriter`], which writes each frame to disk as it is
/// sealed.
///
/// The sink's first error ends the stream: later frames are coded but
/// not put, [`failed`](Self::failed) turns true and
/// [`finish`](Self::finish) returns the error.
pub(crate) struct FrameEncoder<S: FrameSink> {
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
pub(crate) struct V2Header {
    pub(crate) line_bits: u64,
    pub(crate) ones_seed: u64,
    pub(crate) snapshot: HierarchySnapshot,
    pub(crate) count: u64,
}

impl V2Header {
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
    let header = V2Header {
        line_bits: capture.line_bits() as u64,
        ones_seed: capture.ones_seed(),
        snapshot: *capture.snapshot(),
        count: capture.event_count(),
    };
    let mut out = WriteSink { writer, offset: 0 };
    out.put(&header.to_bytes(fingerprint))?;
    let (_, _, mut out) = reencode(capture, out)?.finish()?;
    out.flush()?;
    Ok(out.offset)
}

/// An encoder into `sink` holding `capture`'s records, re-encoded from
/// its entry (so each frame's checksum is verified on the way).
fn reencode<S>(capture: &ExposureCapture, sink: S) -> Result<FrameEncoder<S>, CaptureStoreError>
where
    S: FrameSink<Error = CaptureStoreError>,
{
    let mut encoder = FrameEncoder::with_sink(sink);
    let mut events = capture.iter().map_err(defect_to_io)?;
    while let Some(record) = events.next_record().map_err(defect_to_io)? {
        encoder.push(&record);
    }
    Ok(encoder)
}

/// A file that deletes itself when dropped, unless kept: a store write's
/// temp file, or a scoped entry.
#[derive(Debug)]
pub(crate) struct TempFile {
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

/// `{pid}.{seq}`: names the temp files of one process apart, so
/// concurrent writes of the same entry never share one.
fn temp_suffix() -> String {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    format!(
        "{}.{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    )
}

/// The pid in the name of a file a writer deletes when it is done —
/// a scoped entry `reap-capture.{pid}.{seq}.rcap` or a store temp file
/// `{fingerprint:016x}.rcap.tmp.{pid}.{seq}` — or `None` for any other
/// name, a store entry `{fingerprint:016x}.rcap` included.
fn writer_pid(name: &str) -> Option<u32> {
    let pid_seq = match name.strip_prefix("reap-capture.") {
        Some(rest) => rest.strip_suffix(".rcap")?,
        None => {
            let (fingerprint, rest) = name.split_once(".rcap.tmp.")?;
            let hex = fingerprint.len() == 16 && fingerprint.bytes().all(|b| b.is_ascii_hexdigit());
            hex.then_some(rest)?
        }
    };
    let (pid, seq) = pid_seq.split_once('.')?;
    let digits = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
    if !(digits(pid) && digits(seq)) {
        return None;
    }
    pid.parse().ok()
}

/// Removes from `dir` the files of writers whose process is gone: a
/// killed process never deletes its scoped entry or store temp file,
/// and an h264ref entry is 229 MB at 50M accesses. Runs once per
/// directory per process, before the first writer opens there. A pid
/// is live while `/proc/{pid}` exists, so the sweep assumes that every
/// process writing into `dir` shares this process's pid namespace; it
/// is skipped where `/proc` is absent. Files of live pids, this
/// process's own and recycled ones included, stay.
fn sweep_orphans_once(dir: &Path) {
    static SWEPT: Mutex<Vec<PathBuf>> = Mutex::new(Vec::new());
    {
        let mut swept = SWEPT.lock().unwrap_or_else(PoisonError::into_inner);
        if swept.iter().any(|d| d == dir) {
            return;
        }
        swept.push(dir.to_owned());
    }
    if !Path::new("/proc/self").exists() {
        return;
    }
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let own = std::process::id();
    for entry in entries.flatten() {
        let pid = entry.file_name().to_str().and_then(writer_pid);
        if pid.is_some_and(|pid| pid != own && !Path::new(&format!("/proc/{pid}")).exists())
            && std::fs::remove_file(entry.path()).is_ok()
        {
            bump("capture_store.orphans_removed");
        }
    }
}

/// Writes one entry as it is produced: the one write path of every
/// capture, into a [`CaptureStore`] or into a scoped entry.
///
/// A store writer ([`for_store`](Self::for_store)) opens a temp file
/// beside the entry, named `{fingerprint}.rcap.tmp.{pid}.{seq}` so that
/// no two writes share one; a scoped writer ([`scoped`](Self::scoped))
/// opens `reap-capture.{pid}.{seq}.rcap` in the system temp dir (which
/// `TMPDIR` steers). The first writer a process opens in a directory
/// removes the files of writers killed before they could
/// ([`sweep_orphans_once`]). Either reserves the header. Frames are
/// written straight through as they are put ([`FrameSink`]), so a capture
/// streamed into a writer holds one frame at a time, never the whole
/// capture. [`seal_entry`] then writes the header, whose snapshot and
/// record count are known only at the end. A store entry is
/// renamed into place, so readers see the whole entry or none; a scoped
/// entry stays where it is. A writer dropped uncommitted (an error or a
/// panic mid-capture) deletes its file.
pub(crate) struct EntryWriter {
    out: WriteSink<BufWriter<File>>,
    tmp: TempFile,
    /// The store entry the file is renamed to; `None` when scoped.
    dest: Option<PathBuf>,
    fingerprint: u64,
    /// The failing-writer seam, read when the writer is created: a
    /// capture's back stage may put the frames from another thread.
    #[cfg(test)]
    fail_from: u64,
}

impl EntryWriter {
    /// Opens the temp file of `key`'s entry in `store`.
    fn for_store(store: &CaptureStore, key: &CaptureKey) -> Result<Self, CaptureStoreError> {
        std::fs::create_dir_all(&store.dir)
            .map_err(|source| CaptureStoreError::Io { offset: 0, source })?;
        sweep_orphans_once(&store.dir);
        let fingerprint = key.fingerprint();
        let name = format!("{fingerprint:016x}.rcap.tmp.{}", temp_suffix());
        Self::create(
            store.dir.join(name),
            Some(store.entry_path(key)),
            fingerprint,
        )
    }

    /// Opens a scoped entry, stamped with fingerprint 0: it is never
    /// looked up by key.
    ///
    /// # Errors
    ///
    /// Returns [`SimulationError::ScopedEntry`], naming the entry's path,
    /// if it cannot be created.
    pub(crate) fn scoped() -> Result<Self, SimulationError> {
        #[cfg(not(test))]
        let dir = std::env::temp_dir();
        #[cfg(test)]
        let dir = tests::SCOPED_DIR
            .with_borrow(Clone::clone)
            .unwrap_or_else(std::env::temp_dir);
        sweep_orphans_once(&dir);
        let path = dir.join(format!("reap-capture.{}.rcap", temp_suffix()));
        Self::create(path.clone(), None, 0)
            .map_err(|source| SimulationError::ScopedEntry { path, source })
    }

    /// Creates the file at `path` and reserves the header.
    fn create(
        path: PathBuf,
        dest: Option<PathBuf>,
        fingerprint: u64,
    ) -> Result<Self, CaptureStoreError> {
        let file =
            File::create(&path).map_err(|source| CaptureStoreError::Io { offset: 0, source })?;
        let tmp = TempFile { path, keep: false };
        let mut out = WriteSink {
            writer: BufWriter::new(file),
            offset: 0,
        };
        // Reserved for the header, which `seal_entry` writes over.
        out.put(&[0; ENTRY_HEADER_BYTES])?;
        Ok(Self {
            out,
            tmp,
            dest,
            fingerprint,
            #[cfg(test)]
            fail_from: tests::FAIL_WRITES_FROM.replace(u64::MAX),
        })
    }

    /// The file being written.
    pub(crate) fn path(&self) -> &Path {
        &self.tmp.path
    }
}

/// Seals the last frame of `frames` and commits their entry: writes the
/// header of a capture with `snapshot`, `line_bits` and `ones_seed` over
/// the reserved bytes and returns the entry as a capture's event source,
/// with the header it wrote and the bytes of the frames. A store entry is
/// renamed into place and its write accounted; a scoped one is handed to
/// the source, which deletes it when the last capture holding it drops.
pub(crate) fn seal_entry(
    frames: FrameEncoder<EntryWriter>,
    snapshot: HierarchySnapshot,
    line_bits: usize,
    ones_seed: u64,
) -> Result<(EventSource, V2Header, u64), CaptureStoreError> {
    let (count, frame_bytes, writer) = frames.finish()?;
    let EntryWriter {
        out,
        mut tmp,
        dest,
        fingerprint,
        ..
    } = writer;
    let bytes = out.offset;
    let mut file = out.writer.into_inner().map_err(|e| CaptureStoreError::Io {
        offset: bytes,
        source: e.into_error(),
    })?;
    let header = V2Header {
        line_bits: line_bits as u64,
        ones_seed,
        snapshot,
        count,
    };
    let io_err = |source| CaptureStoreError::Io { offset: 0, source };
    file.seek(SeekFrom::Start(0)).map_err(io_err)?;
    file.write_all(&header.to_bytes(fingerprint))
        .map_err(io_err)?;
    drop(file);
    let (path, scoped) = match dest {
        None => (tmp.path.clone(), Some(Arc::new(tmp))),
        Some(path) => {
            std::fs::rename(&tmp.path, &path).map_err(io_err)?;
            tmp.keep = true;
            bump("capture_store.write");
            emit_entry_io("capture_store.bytes_written", bytes, count);
            (path, None)
        }
    };
    let source = EventSource {
        path,
        fingerprint,
        scoped,
    };
    Ok((source, header, frame_bytes))
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
/// of the format. [`open`](Self::open) checks the header;
/// [`read_frame`](Self::read_frame) decodes each frame as replay reaches
/// it, the only place frame checksums are checked. It parses and
/// checksums a frame in one pass, folding every payload byte into the
/// FNV-1a state as it decodes, and releases the frame's records only once
/// the checksum verifies. The records land in two columns, `(tag, set,
/// version)` keys and `(kind, N)` pairs — what the weight sampler and the
/// kernel take — so [`next_block`](Self::next_block) hands them out
/// without a copy. Holds at most one decoded frame (≤ `frame_len`
/// records), so replay runs in bounded memory.
///
/// Frames are independent (delta state restarts in each, and each has its
/// own length and checksum), so a decoder narrowed to a part of the
/// frames ([`only_frames`](Self::only_frames)) reads every other frame's
/// header and skips its payload unverified: the decoder of the part that
/// owns the frame verifies it.
pub(crate) struct V2Decoder<R: Read> {
    reader: R,
    offset: u64,
    /// Records the stream declares.
    count: u64,
    /// Records per full frame.
    frame_len: u32,
    /// Records of the frames read or skipped so far, the current one
    /// included.
    decoded: u64,
    /// Frames read or skipped so far, the current one included.
    frames: u64,
    /// The frames decoded are those whose index is `phase` modulo
    /// `stride`; the others are skipped.
    phase: u64,
    stride: u64,
    /// The current frame's line keys `(tag, set, version)`...
    keys: Vec<(u64, u64, u64)>,
    /// ...and `(kind, unchecked_reads)`, index for index.
    kinds: Vec<(ExposureKind, u64)>,
    /// Records of the current frame handed out so far.
    pos: usize,
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
        let decoder = Self {
            reader,
            offset,
            count,
            frame_len,
            decoded: 0,
            frames: 0,
            phase: 0,
            stride: 1,
            keys: Vec::new(),
            kinds: Vec::new(),
            pos: 0,
            payload: Vec::new(),
            probed: false,
        };
        Ok((header, decoder))
    }

    /// Narrows the decoder to the frames whose index is `phase` modulo
    /// `stride`, from the next frame on: it decodes those and skips the
    /// rest after checking their headers.
    pub(crate) fn only_frames(&mut self, phase: u64, stride: u64) {
        debug_assert!(phase < stride);
        (self.phase, self.stride) = (phase, stride);
    }

    /// The index of the frame being read: after an error, the frame it
    /// stopped at.
    pub(crate) fn frame_index(&self) -> u64 {
        self.frames
    }

    /// Reserves the columns for a full frame, and the payload buffer for
    /// a full frame of twice the smallest records, so decoding such
    /// frames allocates nothing more.
    pub(crate) fn reserve_frame(&mut self) {
        let records = self.frame_len as usize;
        self.keys.reserve(records);
        self.kinds.reserve(records);
        self.payload.reserve(10 * records);
    }

    /// Yields the next record, reading and verifying the next frame when
    /// the current one is exhausted. After the final record, probes that
    /// the stream ends exactly (once).
    #[inline]
    pub(crate) fn next_record(&mut self) -> Result<Option<ExposureRecord>, CaptureStoreError> {
        if self.pos == self.keys.len() {
            self.advance()?;
        }
        let (Some(&(tag, set, version)), Some(&(kind, unchecked_reads))) =
            (self.keys.get(self.pos), self.kinds.get(self.pos))
        else {
            return Ok(None);
        };
        self.pos += 1;
        Ok(Some(ExposureRecord {
            kind,
            key: LineKey { tag, set, version },
            unchecked_reads,
        }))
    }

    /// Yields up to `max` (at least one) of the next records as column
    /// slices `(keys, kinds)`, index for index, reading and verifying the
    /// next frame when the current one is exhausted. A block never spans
    /// a frame: it ends early at the frame's last record. Empty slices
    /// mark the end of the stream, which has then passed the same
    /// trailing-bytes probe as [`next_record`](Self::next_record).
    #[inline]
    pub(crate) fn next_block(&mut self, max: usize) -> Result<EventBlock<'_>, CaptureStoreError> {
        debug_assert!(max > 0, "an empty block reads as the end of the stream");
        if self.pos == self.keys.len() {
            self.advance()?;
        }
        let start = self.pos;
        self.pos = self.keys.len().min(start + max);
        Ok((&self.keys[start..self.pos], &self.kinds[start..self.pos]))
    }

    /// Moves past an exhausted frame: reads the next one of this
    /// decoder's frames, skipping the others, or, once every declared
    /// record has been passed, probes (once) that the stream ends exactly
    /// and leaves the columns exhausted. Kept out of line so the
    /// per-record path stays small enough to inline.
    #[inline(never)]
    fn advance(&mut self) -> Result<(), CaptureStoreError> {
        while self.decoded < self.count {
            if self.frames % self.stride == self.phase {
                return self.read_frame();
            }
            self.skip_frame()?;
        }
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
        Ok(())
    }

    /// Reads, decodes and verifies the next frame into the columns.
    ///
    /// One pass parses the payload and folds each byte it reads into the
    /// frame checksum. A parse error stops the pass early; the rest of
    /// the payload is then hashed on its own, so a corrupt frame reports
    /// [`CaptureStoreError::ChecksumMismatch`] ahead of any
    /// [`Malformed`](CaptureStoreError::Malformed) or
    /// [`UnknownKind`](CaptureStoreError::UnknownKind) error its bytes
    /// would raise. The columns hold the frame's records only once the
    /// checksum and the parse both succeed, and are empty otherwise.
    fn read_frame(&mut self) -> Result<(), CaptureStoreError> {
        self.keys.clear();
        self.kinds.clear();
        self.pos = 0;
        let frame_offset = self.offset;
        let section = Section::Record {
            index: self.decoded,
        };
        let (head, records) = self.read_head_and_payload()?;
        let checksum_offset = self.offset;
        let found = read_u64(&mut self.reader, &mut self.offset, section)?;

        let (payload, keys, kinds) = (&self.payload[..], &mut self.keys, &mut self.kinds);
        keys.reserve(records as usize);
        kinds.reserve(records as usize);
        let mut hash = fnv1a(FNV_BASIS, &head);
        let mut pos = 0usize;
        let parsed = 'parse: {
            let mut prev = [0u64; 4];
            for i in 0..u64::from(records) {
                let Some(&tag_byte) = payload.get(pos) else {
                    break 'parse Err(CaptureStoreError::Malformed {
                        offset: frame_offset,
                        detail: "record truncated within frame payload",
                    });
                };
                pos += 1;
                hash = (hash ^ u64::from(tag_byte)).wrapping_mul(FNV_PRIME);
                let kind = match tag_byte {
                    0 => ExposureKind::Demand,
                    1 => ExposureKind::DirtyScrub,
                    2 => ExposureKind::DirtyEviction,
                    other => {
                        break 'parse Err(CaptureStoreError::UnknownKind {
                            found: other,
                            record: self.decoded + i,
                            offset: frame_offset,
                        })
                    }
                };
                let mut cur = [0u64; 4];
                for (p, c) in prev.iter_mut().zip(cur.iter_mut()) {
                    let Some(coded) = get_varint(payload, &mut pos, &mut hash) else {
                        break 'parse Err(CaptureStoreError::Malformed {
                            offset: frame_offset,
                            detail: "bad varint in frame payload",
                        });
                    };
                    *c = unzigzag_delta(*p, coded);
                    *p = *c;
                }
                keys.push((cur[0], cur[1], cur[2]));
                kinds.push((kind, cur[3]));
            }
            if pos != payload.len() {
                break 'parse Err(CaptureStoreError::Malformed {
                    offset: frame_offset,
                    detail: "unconsumed bytes in frame payload",
                });
            }
            Ok(())
        };
        let expected = fnv1a(hash, &payload[pos..]);
        let verified = if found == expected {
            parsed
        } else {
            Err(CaptureStoreError::ChecksumMismatch {
                expected,
                found,
                offset: checksum_offset,
            })
        };
        if let Err(e) = verified {
            self.keys.clear();
            self.kinds.clear();
            return Err(e);
        }
        self.decoded += u64::from(records);
        self.frames += 1;
        Ok(())
    }

    /// Passes over a frame of another part: checks its header as
    /// [`read_frame`](Self::read_frame) does and reads its payload and
    /// checksum unverified.
    fn skip_frame(&mut self) -> Result<(), CaptureStoreError> {
        let section = Section::Record {
            index: self.decoded,
        };
        let (_, records) = self.read_head_and_payload()?;
        read_u64(&mut self.reader, &mut self.offset, section)?;
        self.decoded += u64::from(records);
        self.frames += 1;
        Ok(())
    }

    /// Reads the next frame's header, checks its record count and payload
    /// length, and reads its payload into `payload`. Returns the header
    /// bytes and the record count.
    fn read_head_and_payload(&mut self) -> Result<([u8; 8], u32), CaptureStoreError> {
        let frame_offset = self.offset;
        let section = Section::Record {
            index: self.decoded,
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
        if u64::from(records) > self.count - self.decoded {
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
        Ok((head, records))
    }
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
                let source = EventSource {
                    path,
                    fingerprint: key.fingerprint(),
                    scoped: None,
                };
                Some(ExposureCapture::from_source(
                    source,
                    header,
                    key.behaviour.clone(),
                ))
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
    /// rename fails, or the capture's own entry fails as it is re-read.
    /// Callers on the hot path treat this as a warning (the capture keeps
    /// its own entry), not a failure.
    pub fn store(
        &self,
        key: &CaptureKey,
        capture: &ExposureCapture,
    ) -> Result<PathBuf, CaptureStoreError> {
        let frames = reencode(capture, EntryWriter::for_store(self, key)?)?;
        let sealed = seal_entry(
            frames,
            *capture.snapshot(),
            capture.line_bits(),
            capture.ones_seed(),
        );
        Ok(sealed?.0.path)
    }

    /// The store-aware capture entry point: serve `sim`'s capture of
    /// `workload` at `seed` from disk when possible, otherwise run the
    /// trace pass. The pass streams its frames into an entry file, so its
    /// memory does not grow with the window: under a `ReadWrite` policy
    /// the new store entry, under `Off` and `Read` a scoped entry.
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
            self.capture_to_entry(sim, workload, seed)?
        } else {
            sim.capture(workload.stream(seed))?
        };
        span.add_events(capture.event_count());
        Ok(capture)
    }

    /// Captures `workload` at `seed` straight into its entry, holding
    /// one frame at a time, and returns the entry as a store-backed
    /// capture built from the header the writer wrote, as
    /// [`load`](Self::load) builds one from the header it reads. The miss
    /// path of [`load_or_capture`](Self::load_or_capture), and the heal of
    /// [`crate::Experiment::score`].
    ///
    /// Fails open: if the temp file cannot be created, or a write fails
    /// mid-capture, it warns and captures into a scoped entry instead.
    /// The trace is deterministic, so a recapture costs time, never
    /// correctness.
    ///
    /// # Errors
    ///
    /// Propagates [`SimulationError`] from the trace pass, or from the
    /// scoped fallback.
    pub(crate) fn capture_to_entry(
        &self,
        sim: &Simulator,
        workload: SpecWorkload,
        seed: u64,
    ) -> Result<ExposureCapture, SimulationError> {
        let key = CaptureKey::new(workload, seed, sim.config());
        let failed = match EntryWriter::for_store(self, &key) {
            Ok(writer) => match sim.capture_to(workload.stream(seed), writer)? {
                Ok(capture) => return Ok(capture),
                Err(e) => e,
            },
            Err(e) => e,
        };
        warn(format_args!(
            "capture store write failed: {failed}; capturing into a scoped entry"
        ));
        sim.capture(workload.stream(seed))
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

/// Reports a fail-open store or capture problem on stderr.
pub(crate) fn warn(message: fmt::Arguments<'_>) {
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
pub(crate) mod tests {
    use super::*;
    use crate::experiment::Experiment;
    use crate::scheme::ProtectionScheme;
    use reap_cache::HierarchyConfig;
    use std::cell::{Cell, RefCell};

    thread_local! {
        /// The warnings store and replay calls on this test thread
        /// printed.
        pub(crate) static WARNINGS: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
        /// The next entry writer created on this test thread fails from
        /// this byte offset on.
        pub(super) static FAIL_WRITES_FROM: Cell<u64> = const { Cell::new(u64::MAX) };
        /// Where scoped entries created on this test thread go, instead
        /// of the temp dir.
        pub(super) static SCOPED_DIR: RefCell<Option<PathBuf>> = const { RefCell::new(None) };
    }

    /// Runs `f` with the scoped entries this thread creates in `dir`
    /// (created if it can be) instead of the temp dir. Parallel tests
    /// share the temp dir, so a test that checks what is left in one
    /// needs its own.
    pub(crate) fn with_scoped_dir<R>(dir: &Path, f: impl FnOnce() -> R) -> R {
        std::fs::create_dir_all(dir).ok();
        SCOPED_DIR.set(Some(dir.to_owned()));
        let result = f();
        SCOPED_DIR.set(None);
        result
    }

    /// The files left in a scoped directory.
    pub(crate) fn scoped_files(dir: &Path) -> Vec<PathBuf> {
        std::fs::read_dir(dir)
            .map(|entries| entries.map(|e| e.unwrap().path()).collect())
            .unwrap_or_default()
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

    pub(crate) fn scratch(tag: &str) -> PathBuf {
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

    pub(crate) fn report_bits(r: &crate::Report) -> [u64; 4] {
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
        let capture = experiment.capture_with(None).unwrap();
        let key = CaptureKey::new(SpecWorkload::Hmmer, 3, experiment.config());
        (capture, key)
    }

    fn encode(capture: &ExposureCapture, fingerprint: u64) -> Vec<u8> {
        let mut buf = Vec::new();
        write_capture_v2(&mut buf, fingerprint, capture).unwrap();
        buf
    }

    /// `capture` scored at `sim` alone: a one-point batch.
    pub(crate) fn replay_one(
        sim: &Simulator,
        capture: &ExposureCapture,
    ) -> Result<crate::Report, SimulationError> {
        Simulator::replay_batch(std::slice::from_ref(sim), capture).map(|mut r| r.remove(0))
    }

    /// Decodes a whole `reap-capture/2` stream through the replay
    /// decoder: its header and every record, or the first defect.
    fn decode(
        reader: impl Read,
        fingerprint: u64,
    ) -> Result<(V2Header, Vec<ExposureRecord>), CaptureStoreError> {
        let (header, mut decoder) = V2Decoder::open(reader, fingerprint)?;
        let mut events = Vec::new();
        while let Some(record) = decoder.next_record()? {
            events.push(record);
        }
        Ok((header, events))
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
        let err = decode(cut, fp).unwrap_err();
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
        let err = decode(&buf[..], fp).unwrap_err();
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
        assert_eq!(loaded.behaviour(), capture.behaviour());
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
                Behaviour {
                    hierarchy: HierarchyConfig::paper(),
                    replacement: Replacement::Lru,
                    warmup_accesses: 0,
                    measure_accesses: 0,
                    scrub_period: 0,
                },
            )
            .unwrap();
            let key = CaptureKey::new(SpecWorkload::Hmmer, n as u64, &SimulationConfig::default());

            // Fed as the capture loop feeds it: the burst in one piece.
            let mut frames = FrameEncoder::with_sink(EntryWriter::for_store(&store, &key).unwrap());
            let (a, b) = (
                burst.start.min(n as u64) as usize,
                burst.end.min(n as u64) as usize,
            );
            for part in [&records[..a], &records[a..b], &records[b..]] {
                frames.extend(part);
            }
            let (source, header, frame_bytes) = seal_entry(frames, snapshot, 512, 9).unwrap();
            assert_eq!(header.count, n as u64);
            let path = source.path;
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
        let scoped = sim.capture(SpecWorkload::Gcc.stream(8)).unwrap();
        assert!(
            scoped.event_count() > 2 * u64::from(FRAME_RECORDS),
            "must span several frames"
        );
        let want = std::fs::read(scoped.entry_path()).unwrap();

        let fresh = store.load_or_capture(&sim, SpecWorkload::Gcc, 8).unwrap();
        assert!(!fresh.is_scoped(), "a store-backed capture");
        assert_eq!(fresh.entry_path(), store.entry_path(&key));
        let entry = std::fs::read(store.entry_path(&key)).unwrap();
        // The scoped entry's frames, under a header stamped with the key.
        assert!(entry[ENTRY_HEADER_BYTES..] == want[ENTRY_HEADER_BYTES..]);
        assert!(entry == encode(&scoped, key.fingerprint()));
        assert_eq!(fresh.event_count(), scoped.event_count());
        assert_eq!(fresh.snapshot(), scoped.snapshot());
        assert_eq!(fresh.line_bits(), scoped.line_bits());
        assert_eq!(fresh.ones_seed(), scoped.ones_seed());
        assert_eq!(
            report_bits(&replay_one(&sim, &fresh).unwrap()),
            report_bits(&replay_one(&sim, &scoped).unwrap())
        );
        assert!(temp_files(&dir).is_empty());

        // Read and Off policies stream a fresh capture into a scoped entry
        // of the same bytes.
        for policy in [CapturePolicy::Read, CapturePolicy::Off] {
            let other = scratch(&format!("streamed-fresh-{policy}"));
            let capture = CaptureStore::new(&other, policy)
                .load_or_capture(&sim, SpecWorkload::Gcc, 8)
                .unwrap();
            assert!(capture.is_scoped(), "{policy}");
            assert!(
                std::fs::read(capture.entry_path()).unwrap() == want,
                "{policy}"
            );
            assert!(!other.exists(), "{policy} must not write");
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn a_write_failure_mid_capture_recaptures_into_a_scoped_entry() {
        let dir = scratch("write-failure");
        std::fs::remove_dir_all(&dir).ok();
        let store = CaptureStore::new(&dir, CapturePolicy::ReadWrite);
        let (sim, key) = scrubbed_sim();
        let want = sim.capture(SpecWorkload::Gcc.stream(8)).unwrap();

        // The first frame is written, the second fails.
        FAIL_WRITES_FROM.set(ENTRY_HEADER_BYTES as u64 + 1);
        WARNINGS.take();
        let got = store.load_or_capture(&sim, SpecWorkload::Gcc, 8).unwrap();

        assert!(got.is_scoped(), "recaptured into a scoped entry");
        assert!(
            std::fs::read(got.entry_path()).unwrap() == std::fs::read(want.entry_path()).unwrap()
        );
        assert_eq!(got.snapshot(), want.snapshot());
        assert_eq!(
            report_bits(&replay_one(&sim, &got).unwrap()),
            report_bits(&replay_one(&sim, &want).unwrap())
        );
        let warnings = WARNINGS.take();
        assert!(
            warnings.len() == 1
                && warnings[0].contains("injected write failure")
                && warnings[0].contains("capturing into a scoped entry"),
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
            let frames = FrameEncoder::with_sink(EntryWriter::for_store(&store, &key).unwrap());
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
    fn an_uncreatable_temp_file_captures_into_a_scoped_entry() {
        let dir = scratch("uncreatable");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::write(&dir, b"a file where the store directory should be").unwrap();
        let store = CaptureStore::new(&dir, CapturePolicy::ReadWrite);
        let (sim, _) = scrubbed_sim();
        WARNINGS.take();
        let got = store.load_or_capture(&sim, SpecWorkload::Gcc, 8).unwrap();
        let want = sim.capture(SpecWorkload::Gcc.stream(8)).unwrap();
        assert!(got.is_scoped());
        assert!(
            std::fs::read(got.entry_path()).unwrap() == std::fs::read(want.entry_path()).unwrap()
        );
        let warnings = WARNINGS.take();
        assert!(
            warnings
                .iter()
                .any(|w| w.contains("capturing into a scoped entry")),
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
        let frames = FrameEncoder::with_sink(EntryWriter::for_store(&store, &key).unwrap());
        assert_eq!(temp_files(&dir).len(), 1);
        let short = SpecWorkload::Gcc.stream(8).take(30_000);
        assert!(sim.capture_staged(short, frames, false).is_err());
        assert!(temp_files(&dir).is_empty(), "{:?}", temp_files(&dir));

        // A capture that panics.
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut frames = FrameEncoder::with_sink(EntryWriter::for_store(&store, &key).unwrap());
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
    fn a_store_less_capture_lives_in_the_temp_dir_until_dropped() {
        let (sim, _) = scrubbed_sim();
        let capture = sim.capture(SpecWorkload::Gcc.stream(8)).unwrap();
        let path = capture.entry_path().to_owned();
        assert_eq!(path.parent(), Some(std::env::temp_dir().as_path()));
        let name = path.file_name().unwrap().to_str().unwrap();
        let prefix = format!("reap-capture.{}.", std::process::id());
        assert!(name.starts_with(&prefix), "{name}");
        assert!(capture.is_scoped() && path.exists());
        drop(capture);
        assert!(!path.exists(), "{}", path.display());
    }

    #[test]
    fn scoped_entries_leave_no_file_after_a_clean_or_failed_capture() {
        let (sim, _) = scrubbed_sim();

        // A clean capture and replay: the entry lives while the capture
        // does.
        let dir = scratch("scoped-clean");
        let capture = with_scoped_dir(&dir, || sim.capture(SpecWorkload::Gcc.stream(8)).unwrap());
        assert_eq!(scoped_files(&dir), [capture.entry_path()]);
        replay_one(&sim, &capture).unwrap();
        drop(capture);
        assert!(scoped_files(&dir).is_empty(), "{:?}", scoped_files(&dir));

        // A capture that errors: the trace is shorter than the budget.
        let short = SpecWorkload::Gcc.stream(8).take(30_000);
        let err = with_scoped_dir(&dir, || sim.capture(short)).unwrap_err();
        assert!(matches!(err, SimulationError::BadParameter(_)), "{err}");
        assert!(scoped_files(&dir).is_empty(), "{:?}", scoped_files(&dir));

        // A sink failure mid-capture: the first frame is written, the
        // second fails.
        FAIL_WRITES_FROM.set(ENTRY_HEADER_BYTES as u64 + 1);
        let err = with_scoped_dir(&dir, || sim.capture(SpecWorkload::Gcc.stream(8))).unwrap_err();
        let SimulationError::ScopedEntry { path, .. } = &err else {
            panic!("want a scoped-entry error, got {err}");
        };
        assert_eq!(path.parent(), Some(dir.as_path()));
        assert!(err.to_string().contains("injected write failure"), "{err}");
        assert!(scoped_files(&dir).is_empty(), "{:?}", scoped_files(&dir));
        std::fs::remove_dir(dir).ok();
    }

    #[test]
    fn an_unwritable_scoped_directory_is_a_typed_error_naming_the_path() {
        let blocker = scratch("scoped-unwritable");
        std::fs::remove_dir_all(&blocker).ok();
        std::fs::write(&blocker, b"a file where a directory should be").unwrap();
        let dir = blocker.join("entries");
        let (sim, _) = scrubbed_sim();
        let err = with_scoped_dir(&dir, || sim.capture(SpecWorkload::Gcc.stream(8))).unwrap_err();
        let SimulationError::ScopedEntry { path, .. } = &err else {
            panic!("want a scoped-entry error, got {err}");
        };
        assert!(path.starts_with(&dir), "{}", path.display());
        assert!(
            err.to_string().contains(&dir.display().to_string()),
            "{err}"
        );
        // The same for a capture assembled from its parts.
        let snapshot = *small_capture().0.snapshot();
        let parts = with_scoped_dir(&dir, || {
            ExposureCapture::from_parts(
                Vec::new(),
                snapshot,
                512,
                9,
                Behaviour {
                    hierarchy: HierarchyConfig::paper(),
                    replacement: Replacement::Lru,
                    warmup_accesses: 0,
                    measure_accesses: 0,
                    scrub_period: 0,
                },
            )
        });
        assert!(
            matches!(parts, Err(SimulationError::ScopedEntry { ref path, .. }) if path.starts_with(&dir))
        );
        std::fs::remove_file(blocker).ok();
    }

    #[test]
    fn writer_pids_are_read_from_scoped_and_temp_names_only() {
        assert_eq!(writer_pid("reap-capture.41.7.rcap"), Some(41));
        assert_eq!(writer_pid("1ff1277cb109d699.rcap.tmp.41.0"), Some(41));
        for other in [
            "1ff1277cb109d699.rcap",
            "1ff1277cb109d699.rcap.tmp.41",
            "1ff1277cb109d69.rcap.tmp.41.0",
            "reap-capture.41.rcap",
            "reap-capture.+41.7.rcap",
            "reap-capture.41.7.rcap.bak",
            "notes.txt",
        ] {
            assert_eq!(writer_pid(other), None, "{other}");
        }
    }

    /// The first scoped entry and the first store write into a directory
    /// remove the files of an exited process, and nothing else: not the
    /// files of this process or of another live one (pid 1), not a store
    /// entry, not an unrelated file.
    #[test]
    fn the_first_writer_in_a_directory_removes_files_of_exited_processes() {
        if !Path::new("/proc/self").exists() {
            return;
        }
        let mut child = std::process::Command::new("true").spawn().unwrap();
        let gone = child.id();
        child.wait().unwrap();
        let (own, fp) = (std::process::id(), "1ff1277cb109d699");
        let mut kept = vec![
            format!("reap-capture.{own}.999999.rcap"),
            format!("{fp}.rcap.tmp.{own}.999999"),
            format!("{fp}.rcap.tmp.1.0"),
            format!("{fp}.rcap"),
            "notes.txt".to_owned(),
        ];
        kept.sort();
        let orphans = [
            format!("reap-capture.{gone}.0.rcap"),
            format!("{fp}.rcap.tmp.{gone}.0"),
        ];
        let seeded = |tag| {
            let dir = scratch(tag);
            std::fs::remove_dir_all(&dir).ok();
            std::fs::create_dir_all(&dir).unwrap();
            for name in kept.iter().chain(&orphans) {
                std::fs::write(dir.join(name), b"x").unwrap();
            }
            dir
        };
        let left = |dir: &Path| {
            let mut names: Vec<String> = scoped_files(dir)
                .iter()
                .map(|p| p.file_name().unwrap().to_str().unwrap().to_owned())
                .collect();
            names.sort();
            std::fs::remove_dir_all(dir).ok();
            names
        };

        let (sim, _) = scrubbed_sim();
        let dir = seeded("orphans-scoped");
        drop(with_scoped_dir(&dir, || {
            sim.capture(SpecWorkload::Gcc.stream(8)).unwrap()
        }));
        assert_eq!(left(&dir), kept);

        let dir = seeded("orphans-store");
        let (capture, key) = small_capture();
        let store = CaptureStore::new(&dir, CapturePolicy::ReadWrite);
        std::fs::remove_file(store.store(&key, &capture).unwrap()).unwrap();
        assert_eq!(left(&dir), kept);
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
            let (mut pos, mut hash) = (0, FNV_BASIS);
            assert_eq!(get_varint(&buf, &mut pos, &mut hash), Some(v), "v = {v}");
            assert_eq!(pos, buf.len());
            assert_eq!(hash, fnv1a(FNV_BASIS, &buf), "v = {v}");
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
        // The hash covers exactly the bytes read before the defect.
        let buf = [0xff; 11];
        let (mut pos, mut hash) = (0, FNV_BASIS);
        assert_eq!(get_varint(&buf, &mut pos, &mut hash), None);
        assert_eq!(hash, fnv1a(FNV_BASIS, &buf[..pos]));
        // Truncation mid-varint.
        let buf = [0x80, 0x80];
        let (mut pos, mut hash) = (0, FNV_BASIS);
        assert_eq!(get_varint(&buf, &mut pos, &mut hash), None);
        assert_eq!((pos, hash), (2, fnv1a(FNV_BASIS, &buf)));
    }

    #[test]
    fn v2_round_trip_preserves_every_field() {
        let (capture, key) = small_capture();
        let buf = encode(&capture, key.fingerprint());
        let (header, events) = decode(&buf[..], key.fingerprint()).unwrap();
        assert_eq!(events, capture.events());
        assert_eq!(header.line_bits as usize, capture.line_bits());
        assert_eq!(header.ones_seed, capture.ones_seed());
        assert_eq!(header.count, capture.event_count());
        assert_eq!(
            snapshot_words(&header.snapshot),
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
        // Too short to hold a header: a typed truncation at byte 0.
        for prefix in [&b""[..], &b"RCAP"[..]] {
            let err = decode(prefix, 5).unwrap_err();
            let at_0 = matches!(
                err,
                CaptureStoreError::Truncated {
                    offset: 0,
                    record: None
                }
            );
            assert!(at_0 && err.to_string().contains("at byte 0"), "{err}");
        }
        let (capture, key) = small_capture();
        let fp = key.fingerprint();
        let mut buf = encode(&capture, fp);
        buf[0] = b'X';
        assert!(matches!(
            decode(&buf[..], fp).unwrap_err(),
            CaptureStoreError::BadMagic { .. }
        ));
        for version in [1, 9] {
            let mut buf = encode(&capture, fp);
            buf[4] = version;
            assert!(matches!(
                decode(&buf[..], fp).unwrap_err(),
                CaptureStoreError::UnsupportedVersion { found } if found == version
            ));
        }
        let buf = encode(&capture, fp);
        let err = decode(&buf[..], fp ^ 1).unwrap_err();
        assert!(matches!(err, CaptureStoreError::FingerprintMismatch { .. }));
        assert!(err.to_string().contains("fingerprint"), "{err}");
        // A flip in an otherwise-unvalidated header field (the snapshot)
        // is caught by the header checksum.
        let mut buf = encode(&capture, fp);
        buf[40] ^= 0x04;
        assert!(matches!(
            decode(&buf[..], fp).unwrap_err(),
            CaptureStoreError::ChecksumMismatch { .. }
        ));
    }

    /// Records with small, varied deltas, so every field codes in one
    /// varint byte: a full frame's payload is short enough to flip every
    /// byte of it in a test.
    fn compact_records(count: u64) -> Vec<ExposureRecord> {
        (0..count)
            .map(|i| ExposureRecord {
                kind: match i % 5 {
                    0 => ExposureKind::DirtyScrub,
                    1 => ExposureKind::DirtyEviction,
                    _ => ExposureKind::Demand,
                },
                key: LineKey {
                    tag: i % 7,
                    set: i % 13,
                    version: i / 3,
                },
                unchecked_reads: i % 11 + 1,
            })
            .collect()
    }

    /// A capture of `events`, built from parts.
    fn capture_of(events: Vec<ExposureRecord>) -> ExposureCapture {
        ExposureCapture::from_parts(
            events,
            *small_capture().0.snapshot(),
            512,
            9,
            Behaviour {
                hierarchy: HierarchyConfig::paper(),
                replacement: Replacement::Lru,
                warmup_accesses: 0,
                measure_accesses: 0,
                scrub_period: 0,
            },
        )
        .unwrap()
    }

    /// `(head offset, payload length)` of every frame of an entry.
    fn frame_spans(entry: &[u8]) -> Vec<(usize, usize)> {
        let mut spans = Vec::new();
        let mut at = ENTRY_HEADER_BYTES;
        while at < entry.len() {
            let len = u32::from_le_bytes(entry[at + 4..at + 8].try_into().unwrap()) as usize;
            spans.push((at, len));
            at += 8 + len + 8;
        }
        assert_eq!(at, entry.len(), "frames tile the entry");
        spans
    }

    /// Which check an error came from, and where.
    fn error_site(e: &CaptureStoreError) -> String {
        match e {
            CaptureStoreError::ChecksumMismatch { offset, .. } => format!("checksum@{offset}"),
            CaptureStoreError::Malformed { offset, detail } => {
                format!("malformed@{offset}: {detail}")
            }
            CaptureStoreError::UnknownKind { offset, .. } => format!("kind@{offset}"),
            CaptureStoreError::Truncated { offset, .. } => format!("truncated@{offset}"),
            other => other.to_string(),
        }
    }

    /// What each frame-head byte flip of the two-frame entry in
    /// `v2_frame_corruption_truncation_and_trailing_bytes_are_caught`
    /// reports, head bytes in order: the errors of the two-pass decoder
    /// (checksum, then parse) that the one-pass decoder replaced.
    const HEAD_FLIP_ERRORS: [&str; 16] = [
        "malformed@353: frame record count out of range",
        "malformed@353: frame record count out of range",
        "malformed@353: frame record count out of range",
        "malformed@353: frame record count out of range",
        "checksum@20842",
        "truncated@361",
        "truncated@361",
        "malformed@353: frame payload length out of range",
        "checksum@20943",
        "malformed@20849: frame record count out of range",
        "malformed@20849: frame record count out of range",
        "malformed@20849: frame record count out of range",
        "truncated@20944",
        "malformed@20849: frame payload length out of range",
        "malformed@20849: frame payload length out of range",
        "malformed@20849: frame payload length out of range",
    ];

    #[test]
    fn v2_frame_corruption_truncation_and_trailing_bytes_are_caught() {
        // One full frame and a short tail frame.
        let entry = encode(
            &capture_of(compact_records(u64::from(FRAME_RECORDS) + 17)),
            5,
        );
        let spans = frame_spans(&entry);
        assert_eq!(spans.len(), 2);

        // Every payload byte of every frame, flipped in turn, reads as
        // that frame's checksum failure: the one-pass decoder finishes
        // hashing a frame whose parse stopped early and reports the
        // checksum first. A flipped continuation bit (0x80) derails the
        // varints and turns a kind byte unknown; a flipped low bit (0x01)
        // mostly decodes to a wrong value that only the checksum sees.
        let mask = |at: usize| if at.is_multiple_of(2) { 0x80 } else { 0x01 };
        for &(head, len) in &spans {
            let checksum_at = (head + 8 + len) as u64;
            for at in head + 8..head + 8 + len {
                let mut buf = entry.clone();
                buf[at] ^= mask(at);
                match decode(&buf[..], 5).unwrap_err() {
                    CaptureStoreError::ChecksumMismatch { offset, .. } => {
                        assert_eq!(offset, checksum_at, "flip at byte {at}")
                    }
                    other => panic!("flip at byte {at}: {other}"),
                }
            }
        }
        // The same flips in the tail frame under a re-sealed checksum
        // show what the checksum preempts: parse errors of both kinds.
        let (head, len) = spans[1];
        let mut parse_errors = std::collections::BTreeSet::new();
        for at in head + 8..head + 8 + len {
            let mut buf = entry.clone();
            buf[at] ^= mask(at);
            let sum = fnv1a(FNV_BASIS, &buf[head..head + 8 + len]);
            buf[head + 8 + len..].copy_from_slice(&sum.to_le_bytes());
            if let Err(e) = decode(&buf[..], 5) {
                assert!(!matches!(e, CaptureStoreError::ChecksumMismatch { .. }));
                parse_errors.insert(error_site(&e).split('@').next().unwrap().to_owned());
            }
        }
        assert_eq!(
            parse_errors.into_iter().collect::<Vec<_>>(),
            ["kind", "malformed"]
        );

        // Flips in a frame head are caught before its payload is parsed,
        // as they always were: by the head's range checks, by running
        // off the end, or by the checksum, which covers the head.
        let mut head_errors = Vec::new();
        for &(head, _) in &spans {
            for at in head..head + 8 {
                let mut buf = entry.clone();
                buf[at] ^= mask(at);
                head_errors.push(error_site(&decode(&buf[..], 5).unwrap_err()));
            }
        }
        assert_eq!(head_errors, HEAD_FLIP_ERRORS);

        let clean = encode(&small_capture().0, 5);
        let cut = &clean[..clean.len() - 3];
        assert!(matches!(
            decode(cut, 5).unwrap_err(),
            CaptureStoreError::Truncated { .. } | CaptureStoreError::ChecksumMismatch { .. }
        ));

        let mut extended = clean.clone();
        extended.push(0);
        assert!(matches!(
            decode(&extended[..], 5).unwrap_err(),
            CaptureStoreError::TrailingBytes { .. }
        ));
    }

    #[test]
    fn block_and_record_readers_agree_across_frame_edges() {
        let frame = FRAME_RECORDS as usize;
        let events = compact_records(2 * u64::from(FRAME_RECORDS) + 17);
        let entry = encode(&capture_of(events.clone()), 5);
        let records = |entry: &[u8]| {
            let (_, mut decoder) = V2Decoder::open(entry, 5).unwrap();
            let mut got = Vec::new();
            loop {
                match decoder.next_record() {
                    Ok(Some(record)) => got.push(record),
                    Ok(None) => return (got, None),
                    Err(e) => return (got, Some(e)),
                }
            }
        };
        let blocks = |entry: &[u8], max: usize| {
            let (_, mut decoder) = V2Decoder::open(entry, 5).unwrap();
            let mut got = Vec::new();
            loop {
                let (keys, kinds) = match decoder.next_block(max) {
                    Ok(block) => block,
                    Err(e) => return (got, Some(e)),
                };
                if keys.is_empty() {
                    // The end is sticky.
                    assert!(decoder.next_block(max).unwrap().0.is_empty());
                    return (got, None);
                }
                let first = got.len();
                assert_eq!(keys.len(), kinds.len());
                assert!(keys.len() <= max, "block of {} > {max}", keys.len());
                assert_eq!(
                    first / frame,
                    (first + keys.len() - 1) / frame,
                    "block of {max} at record {first} spans a frame"
                );
                got.extend(keys.iter().zip(kinds).map(
                    |(&(tag, set, version), &(kind, unchecked_reads))| ExposureRecord {
                        kind,
                        key: LineKey { tag, set, version },
                        unchecked_reads,
                    },
                ));
            }
        };

        let (by_record, end) = records(&entry);
        assert!(end.is_none());
        assert_eq!(by_record, events);
        for max in [1, 63, 64, 4096, 5000] {
            let (by_block, end) = blocks(&entry, max);
            assert!(end.is_none(), "block size {max}");
            assert_eq!(by_block, by_record, "block size {max}");
        }

        // A corrupt middle frame yields none of its records to either
        // reader: both stop after the first frame, at its checksum.
        let spans = frame_spans(&entry);
        let (head, len) = spans[1];
        let mut corrupt = entry.clone();
        corrupt[head + 8 + len / 2] ^= 0x01;
        let checksum_at = (head + 8 + len) as u64;
        let (got, end) = records(&corrupt);
        assert_eq!(got, events[..frame]);
        assert_eq!(error_site(&end.unwrap()), format!("checksum@{checksum_at}"));
        for max in [1, 63, 64, 4096, 5000] {
            let (got, end) = blocks(&corrupt, max);
            assert_eq!(got, events[..frame], "block size {max}");
            assert_eq!(
                error_site(&end.expect("corrupt frame")),
                format!("checksum@{checksum_at}")
            );
        }
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
        let buf = encode(&capture_of(events.clone()), 77);
        assert_eq!(decode(&buf[..], 77).unwrap().1, events);
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
        match replay_one(&sim, &loaded) {
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
