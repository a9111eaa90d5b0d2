//! Binary trace (de)serialization.
//!
//! Traces here are normally regenerated from seeds, but interoperating
//! with external tools (e.g. a real pin/DynamoRIO capture, or handing a
//! trace to another simulator) needs a file format. The format is a
//! compact little-endian stream:
//!
//! ```text
//! magic  "RTRC"            (4 bytes)
//! version u8 = 1
//! count   u64 LE
//! count × records:
//!   kind    u8             (0 = fetch, 1 = load, 2 = store)
//!   address u64 LE
//! ```
//!
//! Readers and writers take `R: Read` / `W: Write` by value; pass
//! `&mut reader` / `&mut writer` to keep using them afterwards.

use crate::record::{AccessKind, MemoryAccess};
use std::error::Error;
use std::fmt;
use std::io::{self, Read, Write};

const MAGIC: &[u8; 4] = b"RTRC";
const VERSION: u8 = 1;

/// Serializes a trace to a writer.
///
/// Returns the number of records written. A `&mut W` can be passed as the
/// writer to keep ownership.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
///
/// # Examples
///
/// ```
/// use reap_trace::io::{read_trace, write_trace};
/// use reap_trace::MemoryAccess;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let trace = vec![MemoryAccess::load(0x40), MemoryAccess::store(0x80)];
/// let mut buf = Vec::new();
/// write_trace(&mut buf, trace.iter().copied())?;
/// assert_eq!(read_trace(&buf[..])?, trace);
/// # Ok(())
/// # }
/// ```
pub fn write_trace<W, I>(mut writer: W, trace: I) -> io::Result<u64>
where
    W: Write,
    I: IntoIterator<Item = MemoryAccess>,
{
    // Buffer records so the count can be written up front.
    let records: Vec<MemoryAccess> = trace.into_iter().collect();
    writer.write_all(MAGIC)?;
    writer.write_all(&[VERSION])?;
    writer.write_all(&(records.len() as u64).to_le_bytes())?;
    for r in &records {
        let kind = match r.kind {
            AccessKind::InstrFetch => 0u8,
            AccessKind::Load => 1,
            AccessKind::Store => 2,
        };
        writer.write_all(&[kind])?;
        writer.write_all(&r.address.to_le_bytes())?;
    }
    Ok(records.len() as u64)
}

/// Deserializes a trace from a reader.
///
/// A `&mut R` can be passed as the reader to keep ownership.
///
/// # Errors
///
/// Returns [`TraceError`] on I/O failure, bad magic, unsupported
/// version, an unknown record kind, or truncation. Every error names the
/// byte offset where decoding stopped, and record-level errors name the
/// record index, so a corrupt capture is diagnosable without a hex
/// editor.
pub fn read_trace<R: Read>(mut reader: R) -> Result<Vec<MemoryAccess>, TraceError> {
    let mut offset = 0u64;
    let mut magic = [0u8; 4];
    fill(&mut reader, &mut magic, &mut offset, Section::Header)?;
    if &magic != MAGIC {
        return Err(TraceError::BadMagic { found: magic });
    }
    let mut version = [0u8; 1];
    fill(&mut reader, &mut version, &mut offset, Section::Header)?;
    if version[0] != VERSION {
        return Err(TraceError::UnsupportedVersion { found: version[0] });
    }
    let mut count_bytes = [0u8; 8];
    fill(&mut reader, &mut count_bytes, &mut offset, Section::Header)?;
    let count = u64::from_le_bytes(count_bytes);
    let mut out = Vec::with_capacity(count.min(1 << 20) as usize);
    for record in 0..count {
        let section = Section::Record { index: record };
        let record_offset = offset;
        let mut kind = [0u8; 1];
        fill(&mut reader, &mut kind, &mut offset, section)?;
        let mut addr = [0u8; 8];
        fill(&mut reader, &mut addr, &mut offset, section)?;
        let kind = match kind[0] {
            0 => AccessKind::InstrFetch,
            1 => AccessKind::Load,
            2 => AccessKind::Store,
            other => {
                return Err(TraceError::UnknownKind {
                    found: other,
                    record,
                    offset: record_offset,
                })
            }
        };
        out.push(MemoryAccess {
            address: u64::from_le_bytes(addr),
            kind,
        });
    }
    // Read-ahead one byte: a valid stream ends exactly after the declared
    // record count. Anything further is a corrupt count field or a
    // concatenation accident, not data to silently ignore.
    let mut probe = [0u8; 1];
    match reader.read_exact(&mut probe) {
        Ok(()) => Err(TraceError::TrailingBytes { offset }),
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Ok(out),
        Err(source) => Err(TraceError::Io { offset, source }),
    }
}

/// Where in the stream a read was positioned, for error context.
#[derive(Debug, Clone, Copy)]
enum Section {
    Header,
    Record { index: u64 },
}

/// `read_exact` with position bookkeeping: maps short reads to
/// [`TraceError::Truncated`] and other failures to [`TraceError::Io`],
/// both stamped with the current offset.
fn fill<R: Read>(
    reader: &mut R,
    buf: &mut [u8],
    offset: &mut u64,
    section: Section,
) -> Result<(), TraceError> {
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
            Err(TraceError::Truncated { offset: at, record })
        }
        Err(source) => Err(TraceError::Io { offset: at, source }),
    }
}

/// Error reading a serialized trace.
#[derive(Debug)]
#[non_exhaustive]
pub enum TraceError {
    /// Underlying I/O failure (other than a short read).
    Io {
        /// Byte offset the failed read started at.
        offset: u64,
        /// The underlying error.
        source: io::Error,
    },
    /// The stream ended mid-header or mid-record.
    Truncated {
        /// Byte offset the unsatisfied read started at.
        offset: u64,
        /// The record being decoded, if past the header.
        record: Option<u64>,
    },
    /// The stream does not start with the `RTRC` magic.
    BadMagic {
        /// The bytes found instead.
        found: [u8; 4],
    },
    /// The format version is newer than this reader.
    UnsupportedVersion {
        /// The version byte found.
        found: u8,
    },
    /// A record carries an unknown access-kind tag.
    UnknownKind {
        /// The tag found.
        found: u8,
        /// The record carrying it.
        record: u64,
        /// Byte offset of that record.
        offset: u64,
    },
    /// Bytes follow the last declared record.
    TrailingBytes {
        /// Byte offset of the first unexpected byte.
        offset: u64,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io { offset, source } => {
                write!(f, "trace i/o failed at byte {offset}: {source}")
            }
            TraceError::Truncated {
                offset,
                record: Some(record),
            } => write!(f, "trace truncated at byte {offset} (record {record})"),
            TraceError::Truncated {
                offset,
                record: None,
            } => write!(f, "trace truncated at byte {offset} (in header)"),
            TraceError::BadMagic { found } => {
                write!(f, "not a trace file (magic {found:02x?})")
            }
            TraceError::UnsupportedVersion { found } => {
                write!(f, "unsupported trace version {found}")
            }
            TraceError::UnknownKind {
                found,
                record,
                offset,
            } => write!(
                f,
                "unknown access kind tag {found} in record {record} at byte {offset}"
            ),
            TraceError::TrailingBytes { offset } => write!(
                f,
                "trace has trailing bytes after the last declared record at byte {offset}"
            ),
        }
    }
}

impl Error for TraceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TraceError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SpecWorkload;

    #[test]
    fn round_trip_generated_trace() {
        let trace: Vec<MemoryAccess> = SpecWorkload::Gcc.stream(3).take(5_000).collect();
        let mut buf = Vec::new();
        let n = write_trace(&mut buf, trace.iter().copied()).unwrap();
        assert_eq!(n, 5_000);
        assert_eq!(read_trace(&buf[..]).unwrap(), trace);
    }

    #[test]
    fn empty_trace_round_trips() {
        let mut buf = Vec::new();
        write_trace(&mut buf, std::iter::empty()).unwrap();
        assert!(read_trace(&buf[..]).unwrap().is_empty());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let err = read_trace(&b"NOPE\x01\x00\x00\x00\x00\x00\x00\x00\x00"[..]).unwrap_err();
        assert!(matches!(err, TraceError::BadMagic { .. }));
        assert!(err.to_string().contains("not a trace file"));
    }

    #[test]
    fn unsupported_version_is_rejected() {
        let mut buf = Vec::new();
        write_trace(&mut buf, std::iter::empty()).unwrap();
        buf[4] = 9;
        assert!(matches!(
            read_trace(&buf[..]).unwrap_err(),
            TraceError::UnsupportedVersion { found: 9 }
        ));
    }

    #[test]
    fn unknown_kind_names_the_record_and_offset() {
        let mut buf = Vec::new();
        write_trace(&mut buf, [MemoryAccess::load(0), MemoryAccess::load(4)]).unwrap();
        buf[22] = 7; // the kind byte of the second record
        let err = read_trace(&buf[..]).unwrap_err();
        assert!(matches!(
            err,
            TraceError::UnknownKind {
                found: 7,
                record: 1,
                offset: 22
            }
        ));
        assert!(err.to_string().contains("record 1 at byte 22"), "{err}");
    }

    #[test]
    fn truncation_names_the_record_and_offset() {
        let mut buf = Vec::new();
        write_trace(&mut buf, [MemoryAccess::load(0xAABB)]).unwrap();
        buf.truncate(buf.len() - 3);
        let err = read_trace(&buf[..]).unwrap_err();
        assert!(
            matches!(
                err,
                TraceError::Truncated {
                    record: Some(0),
                    offset: 14
                }
            ),
            "{err:?}"
        );
        assert!(err.to_string().contains("byte 14 (record 0)"), "{err}");
    }

    #[test]
    fn truncated_header_is_distinguished() {
        let err = read_trace(&b"RTRC\x01\x00\x00"[..]).unwrap_err();
        assert!(matches!(err, TraceError::Truncated { record: None, .. }));
        assert!(err.to_string().contains("in header"), "{err}");
    }

    #[test]
    fn trailing_garbage_is_rejected_with_its_offset() {
        let mut buf = Vec::new();
        write_trace(&mut buf, [MemoryAccess::load(0xAABB)]).unwrap();
        let end = buf.len() as u64;
        buf.extend_from_slice(b"junk");
        let err = read_trace(&buf[..]).unwrap_err();
        assert!(
            matches!(err, TraceError::TrailingBytes { offset } if offset == end),
            "{err:?}"
        );
        assert!(err.to_string().contains("trailing bytes"), "{err}");
    }

    #[test]
    fn readers_and_writers_can_be_mut_refs() {
        let mut buf = Vec::new();
        {
            let w = &mut buf;
            write_trace(w, [MemoryAccess::fetch(4)]).unwrap();
        }
        let mut slice = &buf[..];
        let got = read_trace(&mut slice).unwrap();
        assert_eq!(got, vec![MemoryAccess::fetch(4)]);
        assert!(slice.is_empty(), "reader consumed exactly one trace");
    }
}
