//! Human-readable run reports and run-to-run diff verdicts.
//!
//! [`render_report`] turns one [`Snapshot`] into the phase/pool/store
//! tables behind `reap obs report`; [`gate`] applies relative-threshold
//! regression checks to a [`SnapshotDiff`] and [`render_diff`] renders
//! the comparison plus the verdicts behind `reap obs diff`.
//!
//! Threshold semantics (documented in DESIGN.md §11): a span phase
//! regresses when its total wall seconds grow by more than
//! `threshold` relative to the baseline *and* the baseline total is at
//! least `min_seconds` (sub-centisecond phases are noise); an explicitly
//! gated metric regresses when it moves in its bad direction by more
//! than `threshold`.

use crate::export::is_run_variant_metric;
use crate::registry::{HistSnapshot, Snapshot};
use crate::snapshot::{span_aggregates, ProcessSample, SnapshotDiff};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Options of [`render_report`].
#[derive(Debug, Clone, Copy)]
pub struct ReportOptions {
    /// Include wall-clock-derived numbers. `false` is the `--no-timings`
    /// stable mode: the report of a seeded run is byte-identical
    /// regardless of `-j` or machine speed.
    pub timings: bool,
}

impl Default for ReportOptions {
    fn default() -> Self {
        Self { timings: true }
    }
}

/// Formats a duration in microseconds with a unit that keeps three-ish
/// significant digits.
fn fmt_us(us: f64) -> String {
    if us >= 1e6 {
        format!("{:.2}s", us / 1e6)
    } else if us >= 1e3 {
        format!("{:.1}ms", us / 1e3)
    } else {
        format!("{us:.0}us")
    }
}

fn fmt_bytes(bytes: u64) -> String {
    let b = bytes as f64;
    if b >= (1 << 20) as f64 {
        format!("{:.1} MiB", b / (1 << 20) as f64)
    } else if b >= 1024.0 {
        format!("{:.1} KiB", b / 1024.0)
    } else {
        format!("{bytes} B")
    }
}

fn fmt_signed_pct(rel: f64) -> String {
    format!("{:+.1}%", rel * 100.0)
}

/// The exact `q`-quantile of a sorted duration list (fallback for
/// `reap-obs/1` documents that carry no `span.*.us` histograms).
fn exact_quantile(sorted_us: &[u64], q: f64) -> Option<f64> {
    if sorted_us.is_empty() {
        return None;
    }
    let rank = ((q * sorted_us.len() as f64).ceil() as usize).clamp(1, sorted_us.len());
    Some(sorted_us[rank - 1] as f64)
}

/// Per-span-name p50/p95/p99 in microseconds: from the automatic
/// `span.{name}.us` histogram when present, otherwise exactly from the
/// span records.
fn span_quantiles(snapshot: &Snapshot, name: &str) -> Option<[f64; 3]> {
    let hist_name = format!("span.{name}.us");
    if let Some((_, h)) = snapshot.hists.iter().find(|(n, _)| *n == hist_name) {
        return Some([h.quantile(0.50)?, h.quantile(0.95)?, h.quantile(0.99)?]);
    }
    let mut durs: Vec<u64> = snapshot
        .spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_us)
        .collect();
    durs.sort_unstable();
    Some([
        exact_quantile(&durs, 0.50)?,
        exact_quantile(&durs, 0.95)?,
        exact_quantile(&durs, 0.99)?,
    ])
}

/// One pool's roll-up, reconstructed from its per-worker metrics.
#[derive(Debug, Default)]
struct PoolAgg {
    workers: u64,
    jobs: u64,
    busy_s: f64,
    idle_s: f64,
    utils: Vec<f64>,
}

/// Detects pools from `{pool}.worker.{w}.jobs` counters and rolls up
/// their per-worker gauges.
fn pool_aggregates(snapshot: &Snapshot) -> BTreeMap<String, PoolAgg> {
    let mut pools: BTreeMap<String, PoolAgg> = BTreeMap::new();
    let gauge = |name: &str| {
        snapshot
            .gauges
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    };
    for (name, jobs) in &snapshot.counters {
        let Some((pool, rest)) = name.split_once(".worker.") else {
            continue;
        };
        let Some(worker) = rest.strip_suffix(".jobs") else {
            continue;
        };
        let agg = pools.entry(pool.to_owned()).or_default();
        agg.workers += 1;
        agg.jobs += jobs;
        let prefix = format!("{pool}.worker.{worker}");
        agg.busy_s += gauge(&format!("{prefix}.busy_s")).unwrap_or(0.0);
        agg.idle_s += gauge(&format!("{prefix}.idle_s")).unwrap_or(0.0);
        if let Some(u) = gauge(&format!("{prefix}.utilization")) {
            agg.utils.push(u);
        }
    }
    pools
}

/// Renders the phase/pool/capture-store/metrics report of one snapshot.
pub fn render_report(snapshot: &Snapshot, options: &ReportOptions) -> String {
    let mut out = String::new();
    let spans = span_aggregates(snapshot);
    if !spans.is_empty() {
        if options.timings {
            let _ = writeln!(
                out,
                "{:<28} {:>7} {:>10} {:>9} {:>9} {:>9} {:>12}",
                "phase", "count", "total s", "p50", "p95", "p99", "events"
            );
            for (name, agg) in &spans {
                let q = span_quantiles(snapshot, name).unwrap_or([0.0; 3]);
                let _ = writeln!(
                    out,
                    "{name:<28} {:>7} {:>10.3} {:>9} {:>9} {:>9} {:>12}",
                    agg.count,
                    agg.total_s,
                    fmt_us(q[0]),
                    fmt_us(q[1]),
                    fmt_us(q[2]),
                    agg.events,
                );
            }
        } else {
            let _ = writeln!(out, "{:<28} {:>7} {:>12}", "phase", "count", "events");
            for (name, agg) in &spans {
                let _ = writeln!(out, "{name:<28} {:>7} {:>12}", agg.count, agg.events);
            }
        }
        let _ = writeln!(out);
    }

    let pools = pool_aggregates(snapshot);
    if !pools.is_empty() {
        if options.timings {
            let _ = writeln!(
                out,
                "{:<28} {:>7} {:>7} {:>9} {:>9} {:>6} {:>11}",
                "pool", "workers", "jobs", "busy s", "idle s", "util", "min-max"
            );
            for (name, agg) in &pools {
                let wall = agg.busy_s + agg.idle_s;
                let util = if wall > 0.0 { agg.busy_s / wall } else { 0.0 };
                let (lo, hi) = agg
                    .utils
                    .iter()
                    .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &u| {
                        (lo.min(u), hi.max(u))
                    });
                let range = if agg.utils.is_empty() {
                    "-".to_owned()
                } else {
                    format!("{lo:.2}-{hi:.2}")
                };
                let _ = writeln!(
                    out,
                    "{name:<28} {:>7} {:>7} {:>9.3} {:>9.3} {util:>6.2} {range:>11}",
                    agg.workers, agg.jobs, agg.busy_s, agg.idle_s,
                );
            }
        } else {
            // Worker counts vary with `-j`; only the job totals are
            // stable.
            let _ = writeln!(out, "{:<28} {:>7}", "pool", "jobs");
            for (name, agg) in &pools {
                let _ = writeln!(out, "{name:<28} {:>7}", agg.jobs);
            }
        }
        let _ = writeln!(out);
    }

    let counter = |name: &str| {
        snapshot
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    };
    if snapshot
        .counters
        .iter()
        .any(|(n, _)| n.starts_with("capture_store."))
    {
        let c = |suffix: &str| counter(&format!("capture_store.{suffix}")).unwrap_or(0);
        let _ = writeln!(
            out,
            "capture store: hits {}   misses {}   writes {}   invalid {}",
            c("hit"),
            c("miss"),
            c("write"),
            c("invalid"),
        );
        let mut line = format!(
            "               read {}   written {}",
            fmt_bytes(c("bytes_read")),
            fmt_bytes(c("bytes_written")),
        );
        if let Some((_, per_event)) = snapshot
            .gauges
            .iter()
            .find(|(n, _)| n == "capture_store.bytes_per_event")
        {
            let _ = write!(line, "   {per_event:.2} B/event");
        }
        let _ = writeln!(out, "{line}");
        let _ = writeln!(out);
    }

    // The frames of fresh captures: what a store-less capture holds in
    // memory per event, and what a store-backed one streams to disk.
    if let (Some(events @ 1..), Some(bytes)) = (
        counter("sim.capture.exposure_events"),
        counter("sim.capture.frame_bytes"),
    ) {
        let _ = writeln!(
            out,
            "fresh captures: {events} events in {} of frames ({:.2} B/event)",
            fmt_bytes(bytes),
            bytes as f64 / events as f64,
        );
        let _ = writeln!(out);
    }

    // Where the captures' back stages ran: on a helper thread when a
    // core was idle, inline otherwise. Depends on the host and on `-j`.
    if options.timings {
        let two_stage = counter("sim.capture.two_stage");
        let inline = counter("sim.capture.inline");
        if two_stage.is_some() || inline.is_some() {
            let _ = writeln!(
                out,
                "captures: {} two-stage, {} inline",
                two_stage.unwrap_or(0),
                inline.unwrap_or(0),
            );
            let _ = writeln!(out);
        }
    }

    if snapshot
        .counters
        .iter()
        .any(|(n, _)| n.starts_with("serve."))
    {
        let c = |suffix: &str| counter(&format!("serve.{suffix}")).unwrap_or(0);
        let _ = writeln!(
            out,
            "serve: jobs accepted {}   completed {}   interrupted {}   cancelled {}   busy {}",
            c("jobs.accepted"),
            c("jobs.completed"),
            c("jobs.interrupted"),
            c("jobs.cancelled"),
            c("jobs.busy"),
        );
        let _ = writeln!(
            out,
            "       rows computed {}   resumed {}   journals collected {}",
            c("rows.computed"),
            c("rows.resumed"),
            c("journals.collected"),
        );
        let _ = writeln!(
            out,
            "       conns accepted {}   refused {}   stalled {}   dropped {}   disconnected {}",
            c("conn.accepted"),
            c("conn.refused"),
            c("conn.stalled"),
            c("conn.dropped"),
            c("conn.disconnected"),
        );
        let _ = writeln!(out);
    }

    let other_counters: Vec<_> = snapshot
        .counters
        .iter()
        .filter(|(n, _)| {
            !n.contains(".worker.")
                && !n.starts_with("capture_store.")
                && !n.starts_with("serve.")
                && !is_run_variant_metric(n)
        })
        .collect();
    if !other_counters.is_empty() {
        let _ = writeln!(out, "{:<40} {:>12}", "counter", "value");
        for (name, value) in other_counters {
            let _ = writeln!(out, "{name:<40} {value:>12}");
        }
        let _ = writeln!(out);
    }

    let other_gauges: Vec<_> = snapshot
        .gauges
        .iter()
        .filter(|(n, _)| {
            !n.contains(".worker.")
                && n != "capture_store.bytes_per_event"
                && (options.timings || !is_run_variant_metric(n))
        })
        .collect();
    if !other_gauges.is_empty() {
        let _ = writeln!(out, "{:<40} {:>12}", "gauge", "value");
        for (name, value) in other_gauges {
            let _ = writeln!(out, "{name:<40} {value:>12.4}");
        }
        let _ = writeln!(out);
    }

    let data_hists: Vec<_> = snapshot
        .hists
        .iter()
        .filter(|(n, _)| !is_run_variant_metric(n))
        .collect();
    if !data_hists.is_empty() {
        let _ = writeln!(
            out,
            "{:<28} {:>10} {:>12} {:>10} {:>10} {:>10} {:>10}",
            "histogram", "count", "mean", "p50", "p95", "p99", "max"
        );
        for (name, h) in data_hists {
            let q = |q: f64| {
                h.quantile(q)
                    .map_or_else(|| "-".to_owned(), |v| format!("{v:.1}"))
            };
            let _ = writeln!(
                out,
                "{name:<28} {:>10} {:>12} {:>10} {:>10} {:>10} {:>10}",
                h.count,
                h.mean()
                    .map_or_else(|| "-".to_owned(), |m| format!("{m:.2}")),
                q(0.50),
                q(0.95),
                q(0.99),
                h.max,
            );
        }
        let _ = writeln!(out);
    }

    if options.timings {
        if let Some(p) = &snapshot.process {
            let _ = writeln!(out, "{}", render_process(p));
        }
    }
    out
}

fn render_process(p: &ProcessSample) -> String {
    let mut line = format!("process: wall {:.2} s", p.wall_s);
    if let Some(cpu) = p.cpu_s {
        let _ = write!(line, "   cpu {cpu:.2} s");
        if let Some(ratio) = p.cpu_per_wall() {
            let _ = write!(line, " ({ratio:.1}x)");
        }
    }
    if let Some(rss) = p.peak_rss_bytes {
        let _ = write!(line, "   peak RSS {}", fmt_bytes(rss));
    }
    line
}

/// A metric explicitly gated by `reap obs diff --metric`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GateMetric {
    /// Counter or gauge name.
    pub name: String,
    /// `true` (`:up`, the default) means a *drop* beyond the threshold
    /// regresses; `false` (`:down`) means a *rise* does.
    pub higher_is_better: bool,
}

/// Thresholds of the diff gate.
#[derive(Debug, Clone, PartialEq)]
pub struct GateConfig {
    /// Maximum tolerated relative change (0.10 = 10%).
    pub threshold: f64,
    /// Span phases whose baseline total is below this many seconds are
    /// not gated (too small to measure reliably).
    pub min_seconds: f64,
    /// Explicitly gated counters/gauges.
    pub metrics: Vec<GateMetric>,
}

impl Default for GateConfig {
    fn default() -> Self {
        Self {
            threshold: 0.10,
            min_seconds: 0.01,
            metrics: Vec::new(),
        }
    }
}

/// One gate violation.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// What regressed, e.g. `span ecc_sweep` or `metric speedup`.
    pub what: String,
    /// Baseline value.
    pub a: f64,
    /// New value.
    pub b: f64,
    /// Signed relative change.
    pub rel: f64,
}

/// Applies the gate: every span phase is checked against the wall-time
/// threshold, and each [`GateConfig::metrics`] entry against its
/// direction. A gated metric missing from either snapshot is itself a
/// regression (a silently vanished baseline must fail the gate).
pub fn gate(diff: &SnapshotDiff, config: &GateConfig) -> Vec<Regression> {
    let mut regressions = Vec::new();
    for span in &diff.spans {
        if span.a.total_s < config.min_seconds {
            continue;
        }
        if let Some(rel) = span.rel() {
            if rel > config.threshold {
                regressions.push(Regression {
                    what: format!("span {}", span.name),
                    a: span.a.total_s,
                    b: span.b.total_s,
                    rel,
                });
            }
        }
    }
    for metric in &config.metrics {
        let found = diff
            .gauges
            .iter()
            .chain(&diff.counters)
            .find(|d| d.name == metric.name);
        let Some(delta) = found else {
            regressions.push(Regression {
                what: format!("metric {} (missing from one side)", metric.name),
                a: f64::NAN,
                b: f64::NAN,
                rel: 0.0,
            });
            continue;
        };
        let Some(rel) = delta.rel() else { continue };
        let bad = if metric.higher_is_better {
            -rel > config.threshold
        } else {
            rel > config.threshold
        };
        if bad {
            regressions.push(Regression {
                what: format!("metric {}", metric.name),
                a: delta.a,
                b: delta.b,
                rel,
            });
        }
    }
    regressions
}

fn hist_line(name: &str, a: &HistSnapshot, b: &HistSnapshot) -> Option<String> {
    if a == b {
        return None;
    }
    let mean = |h: &HistSnapshot| {
        h.mean()
            .map_or_else(|| "-".to_owned(), |m| format!("{m:.2}"))
    };
    Some(format!(
        "{name}: count {} -> {}, mean {} -> {}, max {} -> {}",
        a.count,
        b.count,
        mean(a),
        mean(b),
        a.max,
        b.max,
    ))
}

/// Renders the comparison and the gate verdicts as the `reap obs diff`
/// output. `regressions` is the result of [`gate`] on the same diff.
pub fn render_diff(diff: &SnapshotDiff, config: &GateConfig, regressions: &[Regression]) -> String {
    let mut out = String::new();
    if !diff.spans.is_empty() {
        let _ = writeln!(
            out,
            "{:<28} {:>11} {:>11} {:>9}",
            "phase", "a total s", "b total s", "change"
        );
        for span in &diff.spans {
            let change = span.rel().map_or_else(|| "-".to_owned(), fmt_signed_pct);
            let _ = writeln!(
                out,
                "{:<28} {:>11.3} {:>11.3} {:>9}",
                span.name, span.a.total_s, span.b.total_s, change
            );
        }
        let _ = writeln!(out);
    }

    let numeric_changes: Vec<String> = diff
        .counters
        .iter()
        .chain(&diff.gauges)
        .filter(|d| d.a != d.b)
        .map(|d| {
            let rel = d
                .rel()
                .map_or_else(String::new, |r| format!(" ({})", fmt_signed_pct(r)));
            format!("{}: {} -> {}{rel}", d.name, d.a, d.b)
        })
        .collect();
    let shared = diff.counters.len() + diff.gauges.len();
    if numeric_changes.is_empty() {
        let _ = writeln!(out, "counters/gauges: {shared} shared, none changed");
    } else {
        let _ = writeln!(
            out,
            "counters/gauges: {} of {shared} shared changed",
            numeric_changes.len()
        );
        for line in &numeric_changes {
            let _ = writeln!(out, "  {line}");
        }
    }

    let hist_changes: Vec<String> = diff
        .hists
        .iter()
        .filter(|h| !is_run_variant_metric(&h.name))
        .filter_map(|h| hist_line(&h.name, &h.a, &h.b))
        .collect();
    if !hist_changes.is_empty() {
        let _ = writeln!(out, "histograms changed:");
        for line in &hist_changes {
            let _ = writeln!(out, "  {line}");
        }
    }

    for (label, names) in [("added", &diff.added), ("removed", &diff.removed)] {
        if !names.is_empty() {
            let _ = writeln!(out, "{label}: {}", names.join(", "));
        }
    }

    if let (Some(a), Some(b)) = (&diff.process_a, &diff.process_b) {
        let _ = writeln!(out, "process a: {}", render_process(a));
        let _ = writeln!(out, "process b: {}", render_process(b));
    }
    let _ = writeln!(out);

    for r in regressions {
        let _ = writeln!(
            out,
            "REGRESSION {}: {} -> {} ({} beyond {})",
            r.what,
            r.a,
            r.b,
            fmt_signed_pct(r.rel),
            fmt_signed_pct(config.threshold),
        );
    }
    let _ = writeln!(
        out,
        "verdict: {} (threshold {:.0}%, span floor {:.0} ms)",
        if regressions.is_empty() {
            "ok".to_owned()
        } else {
            format!("{} regression(s)", regressions.len())
        },
        config.threshold * 100.0,
        config.min_seconds * 1e3,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;
    use crate::span::SpanRecord;

    fn span(name: &str, dur_us: u64) -> SpanRecord {
        SpanRecord {
            path: name.to_owned(),
            name: name.to_owned(),
            start_us: 0,
            dur_us,
            events: 10,
            thread: 0,
        }
    }

    fn snapshot_with_span_seconds(name: &str, seconds: f64) -> Snapshot {
        Snapshot {
            spans: vec![span(name, (seconds * 1e6) as u64)],
            ..Snapshot::default()
        }
    }

    #[test]
    fn report_shows_phases_pools_and_quantiles() {
        let r = Registry::new();
        for _ in 0..5 {
            drop(r.span("replay"));
        }
        r.counter("ecc_sweep.worker.0.jobs").add(3);
        r.counter("ecc_sweep.worker.1.jobs").add(2);
        r.gauge("ecc_sweep.worker.0.busy_s").set(1.0);
        r.gauge("ecc_sweep.worker.0.idle_s").set(0.25);
        r.gauge("ecc_sweep.worker.0.utilization").set(0.8);
        r.gauge("ecc_sweep.worker.1.busy_s").set(0.5);
        r.gauge("ecc_sweep.worker.1.idle_s").set(0.0);
        r.gauge("ecc_sweep.worker.1.utilization").set(1.0);
        r.counter("capture_store.hit").add(21);
        r.counter("capture_store.bytes_read").add(2 << 20);
        r.gauge("capture_store.bytes_per_event").set(6.24);
        r.counter("sim.capture.exposure_events").add(1000);
        r.counter("sim.capture.frame_bytes").add(5_500);
        r.counter("sim.capture.two_stage").add(3);
        r.counter("sim.capture.inline").add(18);

        let text = render_report(&r.snapshot(), &ReportOptions::default());
        assert!(text.contains("captures: 3 two-stage, 18 inline"), "{text}");
        assert!(!text.contains("sim.capture.two_stage"), "{text}");
        // Where the back stages ran depends on the host and on `-j`.
        let stable = render_report(&r.snapshot(), &ReportOptions { timings: false });
        assert!(!stable.contains("two-stage"), "{stable}");
        assert!(!stable.contains("sim.capture.inline"), "{stable}");
        assert!(text.contains("replay"), "{text}");
        assert!(text.contains("p95"), "{text}");
        assert!(text.contains("ecc_sweep"), "{text}");
        assert!(text.contains("0.80-1.00"), "{text}");
        assert!(text.contains("hits 21"), "{text}");
        assert!(text.contains("written 0 B   6.24 B/event"), "{text}");
        assert!(text.contains("(5.50 B/event)"), "{text}");
        assert!(text.contains("process: wall"), "{text}");
    }

    #[test]
    fn report_summarizes_serve_counters_outside_the_generic_table() {
        let r = Registry::new();
        r.counter("serve.jobs.accepted").add(5);
        r.counter("serve.jobs.completed").add(4);
        r.counter("serve.jobs.busy").add(2);
        r.counter("serve.rows.computed").add(63);
        r.counter("serve.rows.resumed").add(21);
        r.counter("serve.conn.refused").add(1);
        r.counter("serve.conn.disconnected").add(2);
        r.counter("serve.journals.collected").add(3);
        let text = render_report(&r.snapshot(), &ReportOptions::default());
        assert!(text.contains("serve: jobs accepted 5"), "{text}");
        assert!(text.contains("completed 4"), "{text}");
        assert!(text.contains("busy 2"), "{text}");
        assert!(
            text.contains("rows computed 63   resumed 21   journals collected 3"),
            "{text}"
        );
        assert!(!text.contains("cache"), "{text}");
        assert!(text.contains("refused 1"), "{text}");
        // Summarized counters stay out of the generic counter table.
        assert!(!text.contains("serve.jobs.accepted"), "{text}");
        assert!(!text.contains("serve.journals.collected"), "{text}");
    }

    #[test]
    fn no_timings_report_drops_run_variant_content() {
        let r = Registry::new();
        drop(r.span("replay"));
        r.counter("pool.worker.0.jobs").add(1);
        r.gauge("pool.worker.0.busy_s").set(1.0);
        let text = render_report(&r.snapshot(), &ReportOptions { timings: false });
        assert!(!text.contains("total s"), "{text}");
        assert!(!text.contains("busy"), "{text}");
        assert!(!text.contains("process:"), "{text}");
        assert!(text.contains("replay"), "{text}");
        assert!(text.contains("jobs"), "{text}");
    }

    #[test]
    fn gate_flags_slowed_spans_and_honors_the_floor() {
        let a = snapshot_with_span_seconds("sweep", 1.0);
        let slow = snapshot_with_span_seconds("sweep", 1.5);
        let config = GateConfig::default();
        let regressions = gate(&a.diff(&slow), &config);
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].what, "span sweep");
        assert!((regressions[0].rel - 0.5).abs() < 1e-9);

        // Within threshold: fine.
        let ok = snapshot_with_span_seconds("sweep", 1.05);
        assert!(gate(&a.diff(&ok), &config).is_empty());

        // Tiny baselines are never gated.
        let tiny_a = snapshot_with_span_seconds("sweep", 0.001);
        let tiny_b = snapshot_with_span_seconds("sweep", 0.009);
        assert!(gate(&tiny_a.diff(&tiny_b), &config).is_empty());
    }

    #[test]
    fn gate_checks_explicit_metrics_directionally() {
        let mk = |v: f64| Snapshot {
            gauges: vec![("speedup".to_owned(), v)],
            ..Snapshot::default()
        };
        let config = GateConfig {
            metrics: vec![GateMetric {
                name: "speedup".to_owned(),
                higher_is_better: true,
            }],
            ..GateConfig::default()
        };
        // A 50% drop in a higher-is-better metric regresses.
        assert_eq!(gate(&mk(4.0).diff(&mk(2.0)), &config).len(), 1);
        // A rise does not.
        assert!(gate(&mk(4.0).diff(&mk(6.0)), &config).is_empty());
        // Lower-is-better flips the direction.
        let down = GateConfig {
            metrics: vec![GateMetric {
                name: "speedup".to_owned(),
                higher_is_better: false,
            }],
            ..GateConfig::default()
        };
        assert_eq!(gate(&mk(2.0).diff(&mk(4.0)), &down).len(), 1);
        // A missing gated metric is itself a regression.
        let empty = Snapshot::default();
        assert_eq!(gate(&mk(2.0).diff(&empty), &config).len(), 1);
    }

    #[test]
    fn diff_rendering_names_regressions_and_verdict() {
        let a = snapshot_with_span_seconds("sweep", 1.0);
        let b = snapshot_with_span_seconds("sweep", 2.0);
        let diff = a.diff(&b);
        let config = GateConfig::default();
        let regressions = gate(&diff, &config);
        let text = render_diff(&diff, &config, &regressions);
        assert!(text.contains("REGRESSION span sweep"), "{text}");
        assert!(text.contains("+100.0%"), "{text}");
        assert!(text.contains("verdict: 1 regression(s)"), "{text}");

        let clean = render_diff(&diff, &config, &[]);
        assert!(clean.contains("verdict: ok"), "{clean}");
    }
}
