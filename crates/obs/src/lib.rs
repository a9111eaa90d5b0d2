//! # reap-obs — observability substrate for the REAP-cache stack
//!
//! Zero-dependency (the build environment has no registry access)
//! structured telemetry: a thread-safe [`Registry`] of named counters,
//! gauges and log-bucketed histograms; hierarchical phase [`span()`]s that
//! record wall-clock, event counts and derived rates; exporters for
//! human-readable tables, schema-stable JSON-lines (`reap-obs/2`) and
//! Chrome `trace_event` JSON ([`export`]); snapshot comparison and run
//! reports ([`snapshot`], [`report`]); a periodic atomic-write
//! live-metrics [`flush`]er; and a rate-limited [`Progress`] reporter
//! for long sweeps and Monte-Carlo campaigns.
//!
//! ## Disabled-by-default fast path
//!
//! Telemetry is off until [`set_enabled`]`(true)`. While off, every
//! instrumentation point in the stack costs one relaxed atomic load and a
//! predictable branch: [`span()`] returns an inert guard, and
//! [`StaticCounter::add`] returns immediately. Instrumented hot loops are
//! therefore free to keep their instrumentation unconditionally.
//!
//! ## Metric naming convention
//!
//! Dotted lowercase paths, subsystem first: `ecc.decode`,
//! `cache.l2.reads`, `sim.capture.exposure_events`,
//! `run_parallel.worker.0.busy_s`, `mc.trials`. Worker- or
//! point-indexed metrics put the index after the family name.
//!
//! ## Two registries, one pattern
//!
//! Production code records into the process-wide registry ([`global`])
//! through the gated free functions ([`span()`], [`counter`], [`gauge`],
//! [`histogram`]); tests construct private [`Registry`] instances and
//! assert on their snapshots without touching global state.
//!
//! # Examples
//!
//! ```
//! use reap_obs::Registry;
//!
//! let registry = Registry::new();
//! {
//!     let mut capture = registry.span("capture");
//!     capture.add_events(400_000);
//!     registry.counter("sim.capture.exposure_events").add(12_345);
//! }
//! let mut jsonl = Vec::new();
//! reap_obs::export::write_jsonl(&registry.snapshot(), &mut jsonl).unwrap();
//! assert!(String::from_utf8(jsonl).unwrap().contains("\"type\":\"span\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod flush;
pub mod json;
pub mod progress;
pub mod registry;
pub mod report;
pub mod snapshot;
pub mod span;

pub use flush::Flusher;
pub use progress::Progress;
pub use registry::{Counter, Gauge, HistSnapshot, Histogram, Registry, Snapshot, StaticCounter};
pub use report::{GateConfig, GateMetric, Regression, ReportOptions};
pub use snapshot::{Delta, HistDelta, ProcessSample, SnapshotDiff, SpanAgg, SpanDelta};
pub use span::{SpanGuard, SpanRecord};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

static ENABLED: AtomicBool = AtomicBool::new(false);
static PROGRESS_ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns metric/span collection into the [`global`] registry on or off.
///
/// Off by default; flip on once at process start (CLI flag, bench main).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether telemetry collection is currently enabled.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns live progress reporting (stderr status lines) on or off.
/// Independent of [`set_enabled`] — a quiet run can still collect
/// metrics, and a progress bar needs no registry.
pub fn set_progress_enabled(on: bool) {
    PROGRESS_ENABLED.store(on, Ordering::Relaxed);
}

/// Whether instrumented loops should drive a [`Progress`] reporter.
pub fn progress_enabled() -> bool {
    PROGRESS_ENABLED.load(Ordering::Relaxed)
}

/// The process-wide registry.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Opens a span on the [`global`] registry, or an inert no-op guard while
/// telemetry is disabled.
pub fn span(name: &str) -> SpanGuard<'static> {
    if enabled() {
        global().span(name)
    } else {
        SpanGuard::inert()
    }
}

/// Counter handle on the [`global`] registry. The handle works regardless
/// of the enable flag; hot paths should check [`enabled`] (or use a
/// [`StaticCounter`]) to skip the lookup entirely.
pub fn counter(name: &str) -> Counter {
    global().counter(name)
}

/// Gauge handle on the [`global`] registry.
pub fn gauge(name: &str) -> Gauge {
    global().gauge(name)
}

/// Histogram handle on the [`global`] registry.
pub fn histogram(name: &str) -> Histogram {
    global().histogram(name)
}
