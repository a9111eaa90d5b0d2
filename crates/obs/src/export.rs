//! Exporters: human-readable tables, JSON-lines, Chrome `trace_event`.
//!
//! All three render a [`Snapshot`], so one consistent capture of the
//! registry can be shown to a human, diffed in CI and opened in a trace
//! viewer at the same time.
//!
//! # JSON-lines schema (`reap-obs/2`)
//!
//! One object per line; the first line is a `meta` record announcing the
//! schema and the number of records of each type, followed by one
//! `process` self-metrics record, then the metric and span records:
//!
//! ```text
//! {"type":"meta","schema":"reap-obs/2","counters":2,"gauges":1,"hists":1,"spans":3}
//! {"type":"process","wall_s":0.21,"cpu_s":0.35,"peak_rss_bytes":14680064,"rss_bytes":9437184}
//! {"type":"counter","name":"ecc.decode","value":1234}
//! {"type":"gauge","name":"run_parallel.worker.0.utilization","value":0.93}
//! {"type":"hist","name":"mc.reads","count":5,"sum":120,"max":64,"buckets":[[16,3],[64,2]]}
//! {"type":"span","path":"capture","name":"capture","thread":0,"start_us":12,"dur_us":51000,
//!  "wall_s":0.051,"events":400000,"rate_per_s":7843137.2}
//! ```
//!
//! `reap-obs/2` differs from `/1` in two ways: the `process` record, and
//! the automatic `span.{name}.us` latency histograms recorded for every
//! finished span. Readers ([`check_jsonl`],
//! [`crate::Snapshot::from_jsonl`]) accept both versions.
//!
//! Metric records are sorted by name and spans by path, so two identical
//! runs produce identical documents apart from the wall-clock fields
//! listed in [`TIMING_KEYS`], the `process` record, and the run-variant
//! metrics identified by [`is_run_variant_metric`] — strip those to diff
//! runs in CI.

use crate::json;
use crate::registry::Snapshot;
use std::fmt::Write as _;
use std::io::{self, Write};

/// Schema identifier stamped on the first JSON-lines record.
pub const JSONL_SCHEMA: &str = "reap-obs/2";

/// Keys whose values differ between otherwise identical runs: wall-clock
/// measurements, plus the recording thread id (a parallel pool does not
/// assign spans to the same worker every run). Diff tooling should drop
/// these.
pub const TIMING_KEYS: &[&str] = &["start_us", "dur_us", "wall_s", "rate_per_s", "thread"];

/// Whether a metric's *value* varies between otherwise identical runs:
/// the wall-clock-derived per-worker `.busy_s`/`.idle_s`/`.utilization`
/// gauges and automatic `span.{name}.us` latency histograms, the
/// `sim.capture.two_stage`/`.inline` counters, which count where the
/// captures' back stages ran, and the `sim.replay.split`/`.whole`
/// counters, which count the replays split across cores: both depend on
/// the host's idle cores.
/// Together with [`TIMING_KEYS`] and the `process` record, these are the
/// only run-variant content of an export; determinism tests and the
/// report's `--no-timings` mode drop them.
pub fn is_run_variant_metric(name: &str) -> bool {
    name.ends_with(".busy_s")
        || name.ends_with(".idle_s")
        || name.ends_with(".utilization")
        || (name.starts_with("span.") && name.ends_with(".us"))
        || name == "sim.capture.two_stage"
        || name == "sim.capture.inline"
        || name == "sim.replay.split"
        || name == "sim.replay.whole"
}

/// A JSON-lines schema version accepted by the readers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FormatVersion {
    /// `reap-obs/1`: no `process` record, no span-latency histograms.
    V1,
    /// `reap-obs/2`: the current schema.
    #[default]
    V2,
}

impl FormatVersion {
    /// The schema string this version stamps on the meta line.
    pub fn as_str(self) -> &'static str {
        match self {
            FormatVersion::V1 => "reap-obs/1",
            FormatVersion::V2 => "reap-obs/2",
        }
    }
}

/// Validates a meta line's schema string: `reap-obs/1` and `reap-obs/2`
/// are accepted, anything else is rejected with the offending line
/// number.
pub(crate) fn validate_schema(
    schema: Option<&str>,
    line_no: usize,
) -> Result<FormatVersion, (usize, String)> {
    match schema {
        Some("reap-obs/1") => Ok(FormatVersion::V1),
        Some("reap-obs/2") => Ok(FormatVersion::V2),
        other => Err((
            line_no,
            format!("unknown schema {other:?}, expected \"reap-obs/1\" or \"reap-obs/2\""),
        )),
    }
}

/// Writes the snapshot as JSON-lines (see the module docs for the schema).
///
/// # Errors
///
/// Propagates I/O errors from `out`.
pub fn write_jsonl<W: Write>(snapshot: &Snapshot, mut out: W) -> io::Result<()> {
    writeln!(
        out,
        "{{\"type\":\"meta\",\"schema\":\"{}\",\"counters\":{},\"gauges\":{},\"hists\":{},\"spans\":{}}}",
        JSONL_SCHEMA,
        snapshot.counters.len(),
        snapshot.gauges.len(),
        snapshot.hists.len(),
        snapshot.spans.len(),
    )?;
    if let Some(p) = &snapshot.process {
        let opt_u64 = |v: Option<u64>| v.map_or_else(|| "null".to_owned(), |b| b.to_string());
        writeln!(
            out,
            "{{\"type\":\"process\",\"wall_s\":{},\"cpu_s\":{},\"peak_rss_bytes\":{},\"rss_bytes\":{}}}",
            json::number(p.wall_s),
            p.cpu_s.map_or_else(|| "null".to_owned(), json::number),
            opt_u64(p.peak_rss_bytes),
            opt_u64(p.rss_bytes),
        )?;
    }
    for (name, value) in &snapshot.counters {
        writeln!(
            out,
            "{{\"type\":\"counter\",\"name\":\"{}\",\"value\":{value}}}",
            json::escape(name)
        )?;
    }
    for (name, value) in &snapshot.gauges {
        writeln!(
            out,
            "{{\"type\":\"gauge\",\"name\":\"{}\",\"value\":{}}}",
            json::escape(name),
            json::number(*value)
        )?;
    }
    for (name, hist) in &snapshot.hists {
        let buckets: Vec<String> = hist
            .buckets
            .iter()
            .map(|(lo, count)| format!("[{lo},{count}]"))
            .collect();
        writeln!(
            out,
            "{{\"type\":\"hist\",\"name\":\"{}\",\"count\":{},\"sum\":{},\"max\":{},\"buckets\":[{}]}}",
            json::escape(name),
            hist.count,
            hist.sum,
            hist.max,
            buckets.join(",")
        )?;
    }
    for span in &snapshot.spans {
        let rate = span
            .rate_per_s()
            .map_or_else(|| "null".to_owned(), json::number);
        writeln!(
            out,
            "{{\"type\":\"span\",\"path\":\"{}\",\"name\":\"{}\",\"thread\":{},\"start_us\":{},\"dur_us\":{},\"wall_s\":{},\"events\":{},\"rate_per_s\":{}}}",
            json::escape(&span.path),
            json::escape(&span.name),
            span.thread,
            span.start_us,
            span.dur_us,
            json::number(span.wall_seconds()),
            span.events,
            rate,
        )?;
    }
    Ok(())
}

/// Writes the snapshot's spans as Chrome `trace_event` JSON (the format
/// `chrome://tracing`, Perfetto and Speedscope open), one complete-event
/// (`"ph":"X"`) per span.
///
/// # Errors
///
/// Propagates I/O errors from `out`.
pub fn write_chrome_trace<W: Write>(snapshot: &Snapshot, mut out: W) -> io::Result<()> {
    writeln!(out, "[")?;
    for (i, span) in snapshot.spans.iter().enumerate() {
        let comma = if i + 1 == snapshot.spans.len() {
            ""
        } else {
            ","
        };
        writeln!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"reap\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{},\"args\":{{\"path\":\"{}\",\"events\":{}}}}}{comma}",
            json::escape(&span.name),
            span.start_us,
            span.dur_us,
            span.thread,
            json::escape(&span.path),
            span.events,
        )?;
    }
    writeln!(out, "]")?;
    Ok(())
}

/// Renders the snapshot as human-readable aligned tables (spans first,
/// then counters, gauges and histograms). Empty sections are omitted.
pub fn render_table(snapshot: &Snapshot) -> String {
    let mut out = String::new();
    if !snapshot.spans.is_empty() {
        let _ = writeln!(
            out,
            "{:<40} {:>10} {:>12} {:>14}",
            "span", "wall s", "events", "events/s"
        );
        for span in &snapshot.spans {
            let depth = span.path.matches('/').count();
            let label = format!("{}{}", "  ".repeat(depth), span.name);
            let rate = span
                .rate_per_s()
                .map_or_else(|| "-".to_owned(), |r| format!("{r:.1}"));
            let events = if span.events > 0 {
                span.events.to_string()
            } else {
                "-".to_owned()
            };
            let _ = writeln!(
                out,
                "{label:<40} {:>10.3} {events:>12} {rate:>14}",
                span.wall_seconds()
            );
        }
    }
    if !snapshot.counters.is_empty() {
        let _ = writeln!(out, "{:<40} {:>12}", "counter", "value");
        for (name, value) in &snapshot.counters {
            let _ = writeln!(out, "{name:<40} {value:>12}");
        }
    }
    if !snapshot.gauges.is_empty() {
        let _ = writeln!(out, "{:<40} {:>12}", "gauge", "value");
        for (name, value) in &snapshot.gauges {
            let _ = writeln!(out, "{name:<40} {value:>12.4}");
        }
    }
    if !snapshot.hists.is_empty() {
        let _ = writeln!(
            out,
            "{:<40} {:>10} {:>12} {:>10}",
            "histogram", "count", "sum", "max"
        );
        for (name, hist) in &snapshot.hists {
            let _ = writeln!(
                out,
                "{name:<40} {:>10} {:>12} {:>10}",
                hist.count, hist.sum, hist.max
            );
        }
    }
    out
}

/// A half-written trailing line detected by [`check_jsonl`] — the
/// signature of a writer killed mid-line. The document up to this point
/// is still trusted; tooling should repair the file by truncating it to
/// `byte_offset`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TruncatedTail {
    /// 1-based line number of the partial line.
    pub line: usize,
    /// Byte offset where the partial line starts.
    pub byte_offset: usize,
}

/// Per-type record counts of a validated JSON-lines document.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JsonlSummary {
    /// The schema version the meta line declared.
    pub version: FormatVersion,
    /// `counter` records seen.
    pub counters: u64,
    /// `gauge` records seen.
    pub gauges: u64,
    /// `hist` records seen.
    pub hists: u64,
    /// `span` records seen.
    pub spans: u64,
    /// A crash-truncated trailing line, tolerated as a warning.
    pub truncated: Option<TruncatedTail>,
}

impl JsonlSummary {
    /// Total records excluding the `meta` line.
    pub fn total(&self) -> u64 {
        self.counters + self.gauges + self.hists + self.spans
    }
}

/// Validates a JSON-lines document produced by [`write_jsonl`]: every
/// line parses, the first line is a `meta` record with the expected
/// schema, every record type is known, metric records carry names, and
/// the meta counts match the body.
///
/// One corruption is tolerated rather than rejected: an *unterminated*
/// final line that fails to parse. Appending writers flush line by line,
/// so a process killed mid-write leaves exactly this state; the summary
/// reports it in [`JsonlSummary::truncated`] (with the byte offset to
/// truncate the file back to) and the meta counts are allowed to exceed
/// the body counts. A mid-file violation is still an error.
///
/// # Errors
///
/// Returns a `(line_number, message)` pair (1-based) for the first
/// violation.
pub fn check_jsonl(text: &str) -> Result<JsonlSummary, (usize, String)> {
    let mut summary = JsonlSummary::default();
    let mut meta: Option<[u64; 4]> = None;
    let last_line_unterminated = !text.is_empty() && !text.ends_with('\n');
    let line_count = text.lines().count();
    for (i, line) in text.lines().enumerate() {
        let line_no = i + 1;
        if line.trim().is_empty() {
            continue;
        }
        let parsed = json::parse(line);
        if parsed.is_err() && last_line_unterminated && line_no == line_count {
            // A killed writer's half line: warn, keep everything before.
            summary.truncated = Some(TruncatedTail {
                line: line_no,
                byte_offset: text.len() - line.len(),
            });
            break;
        }
        let value = parsed.map_err(|e| (line_no, format!("invalid JSON: {e}")))?;
        let kind = value
            .get("type")
            .and_then(json::Value::as_str)
            .ok_or_else(|| (line_no, "record has no \"type\" field".to_owned()))?;
        if meta.is_none() {
            if kind != "meta" {
                return Err((line_no, "first record must be \"meta\"".to_owned()));
            }
            let schema = value.get("schema").and_then(json::Value::as_str);
            summary.version = validate_schema(schema, line_no)?;
            let count = |key: &str| {
                value
                    .get(key)
                    .and_then(json::Value::as_f64)
                    .map(|v| v as u64)
                    .ok_or_else(|| (line_no, format!("meta record missing \"{key}\"")))
            };
            meta = Some([
                count("counters")?,
                count("gauges")?,
                count("hists")?,
                count("spans")?,
            ]);
            continue;
        }
        match kind {
            "counter" | "gauge" | "hist" => {
                if value.get("name").and_then(json::Value::as_str).is_none() {
                    return Err((line_no, format!("{kind} record has no \"name\"")));
                }
                if kind == "hist" {
                    summary.hists += 1;
                } else if kind == "counter" {
                    if value.get("value").and_then(json::Value::as_f64).is_none() {
                        return Err((line_no, "counter record has no numeric \"value\"".into()));
                    }
                    summary.counters += 1;
                } else {
                    summary.gauges += 1;
                }
            }
            "span" => {
                for key in ["path", "name"] {
                    if value.get(key).and_then(json::Value::as_str).is_none() {
                        return Err((line_no, format!("span record has no \"{key}\"")));
                    }
                }
                summary.spans += 1;
            }
            "process" => {
                if value.get("wall_s").and_then(json::Value::as_f64).is_none() {
                    return Err((line_no, "process record has no numeric \"wall_s\"".into()));
                }
            }
            "meta" => return Err((line_no, "duplicate meta record".to_owned())),
            other => return Err((line_no, format!("unknown record type \"{other}\""))),
        }
    }
    let Some(meta) = meta else {
        return Err((0, "empty document (no meta record)".to_owned()));
    };
    let body = [
        summary.counters,
        summary.gauges,
        summary.hists,
        summary.spans,
    ];
    if meta != body {
        // With a truncated tail the body may legitimately fall short of
        // the announced counts (the lost records were after the cut).
        let explained_by_truncation =
            summary.truncated.is_some() && body.iter().zip(meta).all(|(b, m)| *b <= m);
        if !explained_by_truncation {
            return Err((
                0,
                format!("meta counts {meta:?} do not match body counts {body:?}"),
            ));
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn sample() -> Registry {
        let r = Registry::new();
        r.counter("ecc.decode").add(7);
        r.gauge("util").set(0.5);
        r.histogram("n").record(9);
        {
            let mut s = r.span("capture");
            s.add_events(100);
        }
        r
    }

    #[test]
    fn jsonl_round_trips_through_check() {
        let mut buf = Vec::new();
        write_jsonl(&sample().snapshot(), &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let summary = check_jsonl(&text).unwrap();
        assert_eq!(
            summary,
            JsonlSummary {
                version: FormatVersion::V2,
                counters: 1,
                gauges: 1,
                // The recorded `n` histogram plus the automatic
                // `span.capture.us` latency histogram.
                hists: 2,
                spans: 1,
                truncated: None,
            }
        );
        assert_eq!(summary.total(), 5);
        assert!(text.contains("\"span.capture.us\""), "{text}");
        assert!(text.contains("\"type\":\"process\""), "{text}");
    }

    #[test]
    fn check_accepts_both_schema_versions_and_rejects_unknown() {
        let v1 = "{\"type\":\"meta\",\"schema\":\"reap-obs/1\",\"counters\":0,\"gauges\":0,\
                  \"hists\":0,\"spans\":0}\n";
        assert_eq!(check_jsonl(v1).unwrap().version, FormatVersion::V1);

        let mut buf = Vec::new();
        write_jsonl(&sample().snapshot(), &mut buf).unwrap();
        let v2 = String::from_utf8(buf).unwrap();
        assert_eq!(check_jsonl(&v2).unwrap().version, FormatVersion::V2);

        let unknown = v1.replace("reap-obs/1", "reap-obs/3");
        let (line, msg) = check_jsonl(&unknown).unwrap_err();
        assert_eq!(line, 1, "version errors name the offending line");
        assert!(msg.contains("reap-obs/3"), "{msg}");
        assert!(
            msg.contains("reap-obs/1") && msg.contains("reap-obs/2"),
            "{msg}"
        );
    }

    #[test]
    fn killed_writer_tail_is_a_warning_not_an_error() {
        let mut buf = Vec::new();
        write_jsonl(&sample().snapshot(), &mut buf).unwrap();
        let good = String::from_utf8(buf).unwrap();
        // Kill the writer mid-way through the final record.
        let cut = good.len() - 9;
        let damaged = &good[..cut];
        let summary = check_jsonl(damaged).unwrap();
        let tail = summary.truncated.expect("tail detected");
        assert_eq!(tail.line, damaged.lines().count());
        assert!(
            damaged[tail.byte_offset..].starts_with("{\"type\":\"span\""),
            "offset points at the partial line"
        );
        assert_eq!(summary.spans, 0, "the partial record is not counted");

        // The same damage mid-file (i.e. followed by a newline) is real
        // corruption and must still fail.
        let mut mid = damaged.to_owned();
        mid.push('\n');
        assert!(check_jsonl(&mid).is_err());
    }

    #[test]
    fn every_jsonl_line_is_valid_json() {
        let mut buf = Vec::new();
        write_jsonl(&sample().snapshot(), &mut buf).unwrap();
        for line in String::from_utf8(buf).unwrap().lines() {
            crate::json::parse(line).expect("valid line");
        }
    }

    #[test]
    fn check_rejects_corruption() {
        let mut buf = Vec::new();
        write_jsonl(&sample().snapshot(), &mut buf).unwrap();
        let good = String::from_utf8(buf).unwrap();

        let (line, msg) = check_jsonl(&good.replace("\"counter\"", "\"frob\"")).unwrap_err();
        assert!(line > 1, "{msg}");
        assert!(msg.contains("frob") || msg.contains("counts"), "{msg}");

        let truncated: String = good.lines().take(2).collect::<Vec<_>>().join("\n");
        let (_, msg) = check_jsonl(&truncated).unwrap_err();
        assert!(msg.contains("do not match"), "{msg}");

        assert!(check_jsonl("").is_err());
        assert!(check_jsonl("not json\n").is_err());
    }

    #[test]
    fn chrome_trace_is_valid_json_array() {
        let mut buf = Vec::new();
        write_chrome_trace(&sample().snapshot(), &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let parsed = crate::json::parse(&text).unwrap();
        let crate::json::Value::Arr(events) = parsed else {
            panic!("not an array");
        };
        assert_eq!(events.len(), 1);
        assert_eq!(
            events[0].get("ph").and_then(crate::json::Value::as_str),
            Some("X")
        );
    }

    #[test]
    fn empty_snapshot_exports_cleanly() {
        let r = Registry::new();
        let mut buf = Vec::new();
        write_jsonl(&r.snapshot(), &mut buf).unwrap();
        let summary = check_jsonl(&String::from_utf8(buf).unwrap()).unwrap();
        assert_eq!(summary.total(), 0);
        let mut buf = Vec::new();
        write_chrome_trace(&r.snapshot(), &mut buf).unwrap();
        crate::json::parse(&String::from_utf8(buf).unwrap()).unwrap();
        assert!(render_table(&r.snapshot()).is_empty());
    }

    #[test]
    fn table_indents_children_and_lists_metrics() {
        let r = sample();
        {
            let _outer = r.span("replay");
            let _inner = r.span("point");
        }
        let table = render_table(&r.snapshot());
        assert!(table.contains("capture"));
        assert!(table.contains("  point"), "{table}");
        assert!(table.contains("ecc.decode"));
        assert!(table.contains("util"));
    }
}
