//! Hierarchical phase spans.
//!
//! A span measures the wall-clock of one phase of work ("capture",
//! "replay", one sweep point…). Spans nest: a span opened while another is
//! active on the same thread becomes its child, and the full path
//! (`"replay/point"`) is recorded so exporters can reconstruct the tree.
//! Each span optionally carries an event count, from which exporters
//! derive rates (events per second).
//!
//! The guard is RAII: the span records itself into its registry when
//! dropped. Guards must be dropped in the reverse order they were created
//! on a thread (the natural lexical-scope pattern).
//!
//! # Examples
//!
//! ```
//! use reap_obs::Registry;
//!
//! let registry = Registry::new();
//! {
//!     let _outer = registry.span("capture");
//!     let mut inner = registry.span("drive");
//!     inner.add_events(1000);
//! } // both recorded here
//! let snap = registry.snapshot();
//! assert_eq!(snap.spans.len(), 2);
//! assert_eq!(snap.spans[0].path, "capture");
//! assert_eq!(snap.spans[1].path, "capture/drive");
//! assert_eq!(snap.spans[1].events, 1000);
//! ```

use crate::registry::Registry;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Slash-joined path from the thread's root span to this one.
    pub path: String,
    /// The leaf name.
    pub name: String,
    /// Start offset from the registry epoch, microseconds.
    pub start_us: u64,
    /// Duration, microseconds.
    pub dur_us: u64,
    /// Events attributed to the span via [`SpanGuard::add_events`].
    pub events: u64,
    /// Small sequential id of the recording thread.
    pub thread: u64,
}

impl SpanRecord {
    /// Duration in seconds.
    pub fn wall_seconds(&self) -> f64 {
        self.dur_us as f64 / 1e6
    }

    /// Events per second, when both events and a non-zero duration were
    /// recorded.
    pub fn rate_per_s(&self) -> Option<f64> {
        (self.events > 0 && self.dur_us > 0).then(|| self.events as f64 / self.wall_seconds())
    }
}

static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_ID: u64 = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
    static SPAN_STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

fn current_thread_id() -> u64 {
    THREAD_ID.with(|id| *id)
}

struct ActiveSpan<'a> {
    registry: &'a Registry,
    path: String,
    name: String,
    start: Instant,
    events: u64,
}

/// RAII guard for an in-flight span; records into the registry on drop.
///
/// An inert guard (from [`crate::span()`] while telemetry is disabled) costs
/// nothing beyond its `Option` tag.
#[must_use = "a span measures the scope it lives in"]
pub struct SpanGuard<'a> {
    active: Option<ActiveSpan<'a>>,
}

impl<'a> SpanGuard<'a> {
    pub(crate) fn inert() -> SpanGuard<'static> {
        SpanGuard { active: None }
    }

    pub(crate) fn enter(registry: &'a Registry, name: &str) -> Self {
        let path = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            stack.push(name.to_owned());
            stack.join("/")
        });
        SpanGuard {
            active: Some(ActiveSpan {
                registry,
                path,
                name: name.to_owned(),
                start: Instant::now(),
                events: 0,
            }),
        }
    }

    /// Attributes `n` more events to the span (exporters derive rates).
    pub fn add_events(&mut self, n: u64) {
        if let Some(active) = &mut self.active {
            active.events += n;
        }
    }

    /// Whether this guard is live (telemetry was enabled at creation).
    pub fn is_recording(&self) -> bool {
        self.active.is_some()
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(active) = self.active.take() else {
            return;
        };
        SPAN_STACK.with(|stack| {
            stack.borrow_mut().pop();
        });
        let dur_us = active.start.elapsed().as_micros() as u64;
        let start_us = active
            .start
            .saturating_duration_since(active.registry.epoch())
            .as_micros() as u64;
        active.registry.record_span(SpanRecord {
            path: active.path,
            name: active.name,
            start_us,
            dur_us,
            events: active.events,
            thread: current_thread_id(),
        });
    }
}

impl Registry {
    /// Opens a span named `name`, child of the thread's innermost open
    /// span. Record lands in this registry when the guard drops.
    pub fn span(&self, name: &str) -> SpanGuard<'_> {
        SpanGuard::enter(self, name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_builds_paths() {
        let r = Registry::new();
        {
            let _a = r.span("outer");
            {
                let _b = r.span("mid");
                let _c = r.span("leaf");
            }
            let _d = r.span("sibling");
        }
        let paths: Vec<String> = r.snapshot().spans.into_iter().map(|s| s.path).collect();
        assert_eq!(
            paths,
            vec!["outer", "outer/mid", "outer/mid/leaf", "outer/sibling"]
        );
    }

    #[test]
    fn events_and_rates() {
        let r = Registry::new();
        {
            let mut s = r.span("work");
            s.add_events(500);
            s.add_events(500);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let snap = r.snapshot();
        let span = &snap.spans[0];
        assert_eq!(span.events, 1000);
        assert!(span.dur_us >= 2000, "slept 2ms, recorded {}", span.dur_us);
        let rate = span.rate_per_s().unwrap();
        assert!(rate > 0.0 && rate < 1000.0 / 0.002);
    }

    #[test]
    fn span_totals_by_name() {
        let r = Registry::new();
        drop(r.span("replay"));
        drop(r.span("replay"));
        drop(r.span("capture"));
        assert_eq!(r.span_count("replay"), 2);
        assert_eq!(r.span_count("capture"), 1);
        assert_eq!(r.span_count("nope"), 0);
        assert!(r.span_seconds("replay") >= 0.0);
    }

    #[test]
    fn inert_guard_records_nothing() {
        let g = SpanGuard::inert();
        assert!(!g.is_recording());
        drop(g);
    }

    #[test]
    fn spans_on_other_threads_are_roots() {
        let r = Registry::new();
        std::thread::scope(|scope| {
            let _outer = r.span("main");
            scope.spawn(|| {
                let mut s = r.span("worker");
                s.add_events(7);
            });
        });
        let snap = r.snapshot();
        let worker = snap.spans.iter().find(|s| s.name == "worker").unwrap();
        assert_eq!(worker.path, "worker", "no cross-thread parenting");
        assert_eq!(worker.events, 7);
    }
}
