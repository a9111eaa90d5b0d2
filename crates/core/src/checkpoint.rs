//! Versioned campaign checkpoints: serialize finished jobs, survive kills.
//!
//! A sweep killed mid-run loses hours of replay work unless completed
//! points persist. This module writes a JSON-lines checkpoint file
//! (schema `reap-checkpoint/1`, following the `reap-obs/1` writer
//! conventions: one object per line, a leading `meta` record, sorted
//! deterministic field order):
//!
//! ```text
//! {"type":"meta","schema":"reap-checkpoint/1","fingerprint":"9f8e...","mode":"ecc-sweep","accesses":400000,"seed":2019}
//! {"type":"result","key":"hmmer","rows":[{"ecc":"sec","mttf_gain":"4012...","energy":"3f4a...","l2_hit":"3fee...","efail_conv":"3e21...","max_n":"14"}]}
//! ```
//!
//! Two properties make resumed runs *bit-identical* to uninterrupted
//! ones:
//!
//! * every `f64` is stored as its exact IEEE-754 bit pattern in hex
//!   (the workspace's minimal JSON parser round-trips numbers through
//!   `f64`, which would corrupt 64-bit payloads written as numerals);
//! * the `meta` record carries a fingerprint of everything the results
//!   depend on (mode, budgets, seed, job list) — resuming against a
//!   checkpoint from a different configuration is a typed error, not a
//!   silent mix of incompatible results.
//!
//! Each result line is flushed as it is written, so a `SIGKILL` loses at
//! most the line in flight; [`load`] reports a truncated trailing line
//! as a warning (with its byte offset) instead of refusing the file.

use crate::report::Report;
use crate::scheme::ProtectionScheme;
use crate::simulator::EccStrength;
use reap_obs::json;
use std::error::Error;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

/// Schema identifier stamped on the first line of every checkpoint.
pub const CHECKPOINT_SCHEMA: &str = "reap-checkpoint/1";

/// One sweep table row — the unit of checkpointed work.
///
/// Floats are the *exact* values the final report prints from; they
/// round-trip through the checkpoint bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepRow {
    /// The ECC strength of this point (`None` in a plain sweep, where the
    /// strength is the configuration default).
    pub ecc: Option<EccStrength>,
    /// MTTF improvement of REAP over conventional (Fig. 5 metric).
    pub mttf_gain: f64,
    /// Dynamic-energy overhead of REAP (Fig. 6 metric).
    pub energy_overhead: f64,
    /// L2 hit rate over the measurement window.
    pub l2_hit_rate: f64,
    /// Expected failures under the conventional scheme.
    pub efail_conv: f64,
    /// Maximum accumulated read count observed.
    pub max_n: u64,
}

impl SweepRow {
    /// Extracts the row for one report (at `ecc`, if the campaign sweeps
    /// strengths).
    pub fn from_report(ecc: Option<EccStrength>, report: &Report) -> Self {
        Self {
            ecc,
            mttf_gain: report.mttf_improvement(ProtectionScheme::Reap),
            energy_overhead: report.energy_overhead(ProtectionScheme::Reap),
            l2_hit_rate: report.l2_stats().hit_rate(),
            efail_conv: report.expected_failures(ProtectionScheme::Conventional),
            max_n: report.histogram().max_n(),
        }
    }
}

/// The configuration fingerprint and identity of a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointMeta {
    /// Campaign mode tag (`"standard"` / `"ecc-sweep"`).
    pub mode: String,
    /// Measured accesses per workload.
    pub accesses: u64,
    /// Trace seed.
    pub seed: u64,
    /// Hash of everything above plus the job list.
    pub fingerprint: u64,
}

impl CheckpointMeta {
    /// Builds the meta record for a campaign over `keys` (job names, in
    /// canonical order — the order is part of the fingerprint).
    pub fn new(mode: &str, accesses: u64, seed: u64, keys: &[String]) -> Self {
        let mut h = fnv(0xcbf2_9ce4_8422_2325, CHECKPOINT_SCHEMA.as_bytes());
        h = fnv(h, mode.as_bytes());
        h = fnv(h, &accesses.to_le_bytes());
        h = fnv(h, &seed.to_le_bytes());
        for key in keys {
            h = fnv(h, key.as_bytes());
        }
        Self {
            mode: mode.to_owned(),
            accesses,
            seed,
            fingerprint: h,
        }
    }
}

/// 64-bit FNV-1a over `bytes`, chained from `state`. Shared with the
/// capture store's content fingerprint.
pub(crate) fn fnv(state: u64, bytes: &[u8]) -> u64 {
    let mut h = state;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    // A byte-length marker keeps ["ab","c"] distinct from ["a","bc"].
    h ^= bytes.len() as u64;
    h.wrapping_mul(0x0000_0100_0000_01b3)
}

/// Error on any checkpoint path: creation, parsing, resuming.
#[derive(Debug)]
#[non_exhaustive]
pub enum CheckpointError {
    /// Underlying I/O failure.
    Io {
        /// The checkpoint path involved.
        path: PathBuf,
        /// The OS error.
        source: io::Error,
    },
    /// A line that is not the trailing in-flight write failed to parse.
    Parse {
        /// The checkpoint path involved.
        path: PathBuf,
        /// 1-based line number.
        line: usize,
        /// What was wrong with it.
        message: String,
    },
    /// The file carries a different schema (or none).
    SchemaMismatch {
        /// What the file declared.
        found: String,
    },
    /// The checkpoint was produced by a different campaign configuration.
    FingerprintMismatch {
        /// The running campaign's fingerprint.
        expected: u64,
        /// The checkpoint's fingerprint.
        found: u64,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io { path, source } => {
                write!(f, "checkpoint i/o on {}: {source}", path.display())
            }
            CheckpointError::Parse {
                path,
                line,
                message,
            } => write!(
                f,
                "corrupt checkpoint {} at line {line}: {message}",
                path.display()
            ),
            CheckpointError::SchemaMismatch { found } => {
                write!(f, "not a {CHECKPOINT_SCHEMA} checkpoint (schema {found:?})")
            }
            CheckpointError::FingerprintMismatch { expected, found } => write!(
                f,
                "checkpoint belongs to a different campaign \
                 (fingerprint {found:016x}, this run is {expected:016x}); \
                 delete it or drop --resume"
            ),
        }
    }
}

impl Error for CheckpointError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CheckpointError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// An open checkpoint being appended to as jobs finish.
#[derive(Debug)]
pub struct CheckpointWriter {
    path: PathBuf,
    file: BufWriter<File>,
}

impl CheckpointWriter {
    /// Creates (truncating) a fresh checkpoint and writes the meta line.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Io`] when the file cannot be created or
    /// written.
    pub fn create(path: &Path, meta: &CheckpointMeta) -> Result<Self, CheckpointError> {
        let file = File::create(path).map_err(|source| CheckpointError::Io {
            path: path.to_owned(),
            source,
        })?;
        let mut writer = Self {
            path: path.to_owned(),
            file: BufWriter::new(file),
        };
        let line = format!(
            "{{\"type\":\"meta\",\"schema\":\"{}\",\"fingerprint\":\"{:016x}\",\"mode\":\"{}\",\"accesses\":{},\"seed\":{}}}",
            CHECKPOINT_SCHEMA,
            meta.fingerprint,
            json::escape(&meta.mode),
            meta.accesses,
            meta.seed,
        );
        writer.write_line(&line)?;
        Ok(writer)
    }

    /// Reopens an existing (already validated) checkpoint for appending.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Io`] when the file cannot be opened.
    pub fn append_to(path: &Path) -> Result<Self, CheckpointError> {
        let file = OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|source| CheckpointError::Io {
                path: path.to_owned(),
                source,
            })?;
        Ok(Self {
            path: path.to_owned(),
            file: BufWriter::new(file),
        })
    }

    /// Appends one completed job whose rows are already serialized as
    /// JSON objects (by the run's row codec, such as [`row_to_json`])
    /// and flushes, so a kill after this call never loses the result.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Io`] on write failure.
    pub fn record_json_rows(&mut self, key: &str, rows: &[String]) -> Result<(), CheckpointError> {
        let line = format!(
            "{{\"type\":\"result\",\"key\":\"{}\",\"rows\":[{}]}}",
            json::escape(key),
            rows.join(",")
        );
        self.write_line(&line)
    }

    fn write_line(&mut self, line: &str) -> Result<(), CheckpointError> {
        let io_err = |source| CheckpointError::Io {
            path: self.path.clone(),
            source,
        };
        writeln!(self.file, "{line}").map_err(io_err)?;
        self.file.flush().map_err(io_err)
    }
}

/// Serializes one row as a JSON object with every `f64` as its exact
/// IEEE-754 bit pattern in hex (and `max_n` as a decimal string), so the
/// row survives the workspace's f64-backed JSON parser bit-for-bit.
///
/// This is the one row codec: checkpoint files and the `reap serve` wire
/// protocol both speak it, which is what makes a resumed or re-served
/// row byte-identical to a freshly computed one.
pub fn row_to_json(r: &SweepRow) -> String {
    format!(
        "{{\"ecc\":\"{}\",\"mttf_gain\":\"{:016x}\",\"energy\":\"{:016x}\",\"l2_hit\":\"{:016x}\",\"efail_conv\":\"{:016x}\",\"max_n\":\"{}\"}}",
        ecc_tag(r.ecc),
        r.mttf_gain.to_bits(),
        r.energy_overhead.to_bits(),
        r.l2_hit_rate.to_bits(),
        r.efail_conv.to_bits(),
        r.max_n,
    )
}

fn ecc_tag(ecc: Option<EccStrength>) -> &'static str {
    match ecc {
        None => "none",
        Some(EccStrength::Sec) => "sec",
        Some(EccStrength::Dec) => "dec",
        Some(EccStrength::Tec) => "tec",
    }
}

fn parse_ecc_tag(tag: &str) -> Option<Option<EccStrength>> {
    match tag {
        "none" => Some(None),
        "sec" => Some(Some(EccStrength::Sec)),
        "dec" => Some(Some(EccStrength::Dec)),
        "tec" => Some(Some(EccStrength::Tec)),
        _ => None,
    }
}

/// A checkpoint read back from disk, generic over the row type the
/// journal's result records carry ([`SweepRow`] for sweep campaigns,
/// the explorer's row for `reap explore`).
#[derive(Debug, Clone)]
pub struct LoadedRows<R> {
    /// The meta record.
    pub meta: CheckpointMeta,
    /// Completed jobs, in file order.
    pub completed: Vec<(String, Vec<R>)>,
    /// Byte offset of a truncated trailing line (crash-interrupted
    /// write), skipped with a warning rather than an error.
    pub truncated_tail: Option<usize>,
}

/// A loaded sweep checkpoint (the original, [`SweepRow`]-rowed journal).
pub type LoadedCheckpoint = LoadedRows<SweepRow>;

/// Reads and validates a sweep checkpoint file.
///
/// A final line cut off mid-write (no trailing newline, unparseable) is
/// tolerated: the loader skips it and reports its byte offset in
/// [`LoadedRows::truncated_tail`]. Corruption anywhere else is a
/// [`CheckpointError::Parse`].
///
/// # Errors
///
/// Returns [`CheckpointError`] on I/O failure, schema mismatch or
/// mid-file corruption. Fingerprint checking is the caller's decision
/// (compare against [`CheckpointMeta::new`] of the running campaign).
pub fn load(path: &Path) -> Result<LoadedCheckpoint, CheckpointError> {
    load_with(path, row_from_json)
}

/// [`load`] generalized over the row codec: the same `reap-checkpoint/1`
/// framing (meta line, result lines, bit-hex floats, truncated-tail
/// tolerance) with `parse` decoding each row object. This is how the
/// explorer shares the journal without the checkpoint format knowing its
/// row shape.
///
/// # Errors
///
/// As [`load`]; a row `parse` failure is a [`CheckpointError::Parse`]
/// naming the line.
pub fn load_with<R, F>(path: &Path, parse: F) -> Result<LoadedRows<R>, CheckpointError>
where
    F: Fn(&json::Value) -> Result<R, String>,
{
    let text = std::fs::read_to_string(path).map_err(|source| CheckpointError::Io {
        path: path.to_owned(),
        source,
    })?;
    let parse_err = |line: usize, message: String| CheckpointError::Parse {
        path: path.to_owned(),
        line,
        message,
    };

    let mut meta = None;
    let mut completed = Vec::new();
    let mut truncated_tail = None;
    let mut offset = 0usize;
    let lines: Vec<&str> = text.split('\n').collect();
    for (i, line) in lines.iter().enumerate() {
        let line_no = i + 1;
        let line_start = offset;
        offset += line.len() + 1;
        if line.trim().is_empty() {
            continue;
        }
        // The final split element only exists if the file does not end
        // with a newline — i.e. the write was cut off mid-line.
        let is_unterminated_tail = i + 1 == lines.len();
        let value = match json::parse(line) {
            Ok(v) => v,
            Err(_) if is_unterminated_tail => {
                truncated_tail = Some(line_start);
                break;
            }
            Err(e) => return Err(parse_err(line_no, format!("invalid JSON: {e}"))),
        };
        let kind = value
            .get("type")
            .and_then(json::Value::as_str)
            .ok_or_else(|| parse_err(line_no, "record has no \"type\"".to_owned()))?;
        if meta.is_none() {
            if kind != "meta" {
                return Err(parse_err(
                    line_no,
                    "first record must be \"meta\"".to_owned(),
                ));
            }
            let schema = value
                .get("schema")
                .and_then(json::Value::as_str)
                .unwrap_or("");
            if schema != CHECKPOINT_SCHEMA {
                return Err(CheckpointError::SchemaMismatch {
                    found: schema.to_owned(),
                });
            }
            let hex_field = |key: &str| {
                value
                    .get(key)
                    .and_then(json::Value::as_str)
                    .and_then(|s| u64::from_str_radix(s, 16).ok())
                    .ok_or_else(|| parse_err(line_no, format!("meta missing hex \"{key}\"")))
            };
            let num_field = |key: &str| {
                value
                    .get(key)
                    .and_then(json::Value::as_f64)
                    .map(|v| v as u64)
                    .ok_or_else(|| parse_err(line_no, format!("meta missing \"{key}\"")))
            };
            meta = Some(CheckpointMeta {
                mode: value
                    .get("mode")
                    .and_then(json::Value::as_str)
                    .unwrap_or("")
                    .to_owned(),
                accesses: num_field("accesses")?,
                seed: num_field("seed")?,
                fingerprint: hex_field("fingerprint")?,
            });
            continue;
        }
        match kind {
            "result" => {
                let key = value
                    .get("key")
                    .and_then(json::Value::as_str)
                    .ok_or_else(|| parse_err(line_no, "result has no \"key\"".to_owned()))?
                    .to_owned();
                let json::Value::Arr(rows) = value
                    .get("rows")
                    .ok_or_else(|| parse_err(line_no, "result has no \"rows\"".to_owned()))?
                else {
                    return Err(parse_err(line_no, "\"rows\" is not an array".to_owned()));
                };
                let rows = rows
                    .iter()
                    .map(|row| parse(row).map_err(|m| parse_err(line_no, m)))
                    .collect::<Result<Vec<R>, _>>()?;
                completed.push((key, rows));
            }
            "meta" => return Err(parse_err(line_no, "duplicate meta record".to_owned())),
            other => {
                return Err(parse_err(
                    line_no,
                    format!("unknown record type \"{other}\""),
                ))
            }
        }
    }
    let meta = meta.ok_or_else(|| CheckpointError::SchemaMismatch {
        found: "<empty file>".to_owned(),
    })?;
    Ok(LoadedRows {
        meta,
        completed,
        truncated_tail,
    })
}

/// A journal opened for a run: the rows it already holds and a writer
/// that appends after them.
#[derive(Debug)]
pub struct OpenJournal<R> {
    /// Completed jobs read back from the file, in file order (empty for
    /// a fresh journal).
    pub completed: Vec<(String, Vec<R>)>,
    /// Appends further completed jobs.
    pub writer: CheckpointWriter,
    /// Human-readable note when a crash-torn trailing line was dropped.
    pub warning: Option<String>,
}

/// Opens the journal at `path` for the run `meta` identifies — the one
/// journal opener behind `reap sweep`, `reap explore` and `reap serve`.
///
/// With `resume` and an existing file, the journal is loaded with the
/// row codec `parse`, its fingerprint must match `meta`'s, a trailing
/// line cut off mid-write is truncated away (reported in
/// [`OpenJournal::warning`]), and the writer appends after the last
/// whole record. Otherwise a fresh journal is created, truncating any
/// file at `path`.
///
/// # Errors
///
/// Returns [`CheckpointError`] when the file cannot be read, created,
/// repaired or appended to, is corrupt, or belongs to a different run
/// ([`CheckpointError::FingerprintMismatch`]). Whether a bad journal is
/// refused or recreated is the caller's policy.
pub fn open_journal<R, F>(
    path: &Path,
    meta: &CheckpointMeta,
    resume: bool,
    parse: F,
) -> Result<OpenJournal<R>, CheckpointError>
where
    F: Fn(&json::Value) -> Result<R, String>,
{
    if !(resume && path.exists()) {
        return Ok(OpenJournal {
            completed: Vec::new(),
            writer: CheckpointWriter::create(path, meta)?,
            warning: None,
        });
    }
    let loaded = load_with(path, parse)?;
    if loaded.meta.fingerprint != meta.fingerprint {
        return Err(CheckpointError::FingerprintMismatch {
            expected: meta.fingerprint,
            found: loaded.meta.fingerprint,
        });
    }
    let mut warning = None;
    if let Some(offset) = loaded.truncated_tail {
        // Drop the half-written line so appended records start on a
        // fresh line.
        reap_fault::truncate_file(path, offset as u64).map_err(|source| CheckpointError::Io {
            path: path.to_owned(),
            source,
        })?;
        warning = Some(format!(
            "checkpoint {} had a truncated trailing line at byte {offset} \
             (crash-interrupted write); dropped it",
            path.display()
        ));
    }
    Ok(OpenJournal {
        completed: loaded.completed,
        writer: CheckpointWriter::append_to(path)?,
        warning,
    })
}

/// Parses a row object produced by [`row_to_json`].
///
/// # Errors
///
/// Returns a human-readable message naming the missing or malformed
/// field.
pub fn row_from_json(row: &json::Value) -> Result<SweepRow, String> {
    let bits = |key: &str| {
        row.get(key)
            .and_then(json::Value::as_str)
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .map(f64::from_bits)
            .ok_or_else(|| format!("row missing hex-bits \"{key}\""))
    };
    let ecc_tag = row
        .get("ecc")
        .and_then(json::Value::as_str)
        .ok_or_else(|| "row missing \"ecc\"".to_owned())?;
    Ok(SweepRow {
        ecc: parse_ecc_tag(ecc_tag).ok_or_else(|| format!("unknown ecc tag \"{ecc_tag}\""))?,
        mttf_gain: bits("mttf_gain")?,
        energy_overhead: bits("energy")?,
        l2_hit_rate: bits("l2_hit")?,
        efail_conv: bits("efail_conv")?,
        // `max_n` travels as a decimal string: the minimal JSON parser's
        // numbers are f64, which would round counts above 2^53.
        max_n: row
            .get("max_n")
            .and_then(json::Value::as_str)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| "row missing integer \"max_n\"".to_owned())?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("reap-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// Journals `rows` under `key` in the sweep row codec.
    fn record(w: &mut CheckpointWriter, key: &str, rows: &[SweepRow]) {
        let rows: Vec<String> = rows.iter().map(row_to_json).collect();
        w.record_json_rows(key, &rows).unwrap();
    }

    fn sample_rows() -> Vec<SweepRow> {
        vec![
            SweepRow {
                ecc: Some(EccStrength::Sec),
                mttf_gain: 123.456_789_012_3,
                energy_overhead: 0.031_4,
                l2_hit_rate: 0.987_654_321,
                efail_conv: 3.2e-17,
                max_n: 42,
            },
            SweepRow {
                ecc: None,
                mttf_gain: f64::MAX,
                energy_overhead: f64::MIN_POSITIVE,
                l2_hit_rate: 0.0,
                efail_conv: -0.0,
                max_n: u64::from(u32::MAX),
            },
        ]
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let path = tmp("round.jsonl");
        let meta = CheckpointMeta::new("ecc-sweep", 400_000, 2019, &["a".into(), "b".into()]);
        {
            let mut w = CheckpointWriter::create(&path, &meta).unwrap();
            record(&mut w, "hmmer", &sample_rows());
            record(&mut w, "mcf", &sample_rows()[..1]);
        }
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.meta, meta);
        assert!(loaded.truncated_tail.is_none());
        assert_eq!(loaded.completed.len(), 2);
        assert_eq!(loaded.completed[0].0, "hmmer");
        for (got, want) in loaded.completed[0].1.iter().zip(sample_rows()) {
            assert_eq!(got.ecc, want.ecc);
            assert_eq!(got.mttf_gain.to_bits(), want.mttf_gain.to_bits());
            assert_eq!(
                got.energy_overhead.to_bits(),
                want.energy_overhead.to_bits()
            );
            assert_eq!(got.l2_hit_rate.to_bits(), want.l2_hit_rate.to_bits());
            assert_eq!(got.efail_conv.to_bits(), want.efail_conv.to_bits());
            assert_eq!(got.max_n, want.max_n);
        }
    }

    #[test]
    fn append_after_reopen_preserves_earlier_results() {
        let path = tmp("append.jsonl");
        let meta = CheckpointMeta::new("standard", 1000, 1, &["x".into()]);
        record(
            &mut CheckpointWriter::create(&path, &meta).unwrap(),
            "first",
            &sample_rows()[..1],
        );
        record(
            &mut CheckpointWriter::append_to(&path).unwrap(),
            "second",
            &sample_rows()[1..],
        );
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.completed.len(), 2);
        assert_eq!(loaded.completed[1].0, "second");
    }

    #[test]
    fn truncated_tail_is_a_warning_not_an_error() {
        let path = tmp("trunc.jsonl");
        let meta = CheckpointMeta::new("standard", 1000, 1, &[]);
        {
            let mut w = CheckpointWriter::create(&path, &meta).unwrap();
            record(&mut w, "done", &sample_rows()[..1]);
            record(&mut w, "cut", &sample_rows()[..1]);
        }
        // Chop into the middle of the last line: crash-interrupted write.
        let len = std::fs::metadata(&path).unwrap().len();
        reap_fault::truncate_file(&path, len - 10).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.completed.len(), 1, "the cut line is dropped");
        assert_eq!(loaded.completed[0].0, "done");
        let offset = loaded.truncated_tail.expect("tail reported");
        assert!(offset > 0 && offset < len as usize);
    }

    #[test]
    fn mid_file_corruption_is_an_error() {
        let path = tmp("corrupt.jsonl");
        let meta = CheckpointMeta::new("standard", 1000, 1, &[]);
        {
            let mut w = CheckpointWriter::create(&path, &meta).unwrap();
            record(&mut w, "a", &sample_rows()[..1]);
            record(&mut w, "b", &sample_rows()[..1]);
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let broken = text.replacen("\"type\":\"result\"", "garbage here", 1);
        std::fs::write(&path, broken).unwrap();
        let err = load(&path).unwrap_err();
        assert!(
            matches!(err, CheckpointError::Parse { line: 2, .. }),
            "{err}"
        );
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn wrong_schema_and_missing_file_are_typed() {
        let path = tmp("schema.jsonl");
        std::fs::write(&path, "{\"type\":\"meta\",\"schema\":\"other/9\"}\n").unwrap();
        assert!(matches!(
            load(&path).unwrap_err(),
            CheckpointError::SchemaMismatch { .. }
        ));
        let missing = tmp("never-written.jsonl");
        std::fs::remove_file(&missing).ok();
        let err = load(&missing).unwrap_err();
        assert!(matches!(err, CheckpointError::Io { .. }));
        assert!(Error::source(&err).is_some());
    }

    #[test]
    fn fingerprint_tracks_every_input() {
        let keys: Vec<String> = vec!["a".into(), "b".into()];
        let base = CheckpointMeta::new("standard", 1000, 1, &keys);
        assert_eq!(base, CheckpointMeta::new("standard", 1000, 1, &keys));
        for other in [
            CheckpointMeta::new("ecc-sweep", 1000, 1, &keys),
            CheckpointMeta::new("standard", 1001, 1, &keys),
            CheckpointMeta::new("standard", 1000, 2, &keys),
            CheckpointMeta::new("standard", 1000, 1, &["a".into()]),
            CheckpointMeta::new("standard", 1000, 1, &["ab".into(), "".into()]),
        ] {
            assert_ne!(base.fingerprint, other.fingerprint, "{other:?}");
        }
    }
}
