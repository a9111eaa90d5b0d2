//! The benchmark's own spans: one per call it makes into a layer, kept in
//! memory and written as JSON-lines when the benchmark ends.
//!
//! A layer's busy time is the sum of its spans; its self time is a span's
//! duration minus the part of that interval its child spans cover.

use reap_obs::json;
use std::time::Instant;

/// One timed interval, in seconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer or phase name, e.g. `cache.l2` or `replay.kernel`.
    pub name: String,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// The benchmark workload the span was recorded for.
    pub workload: String,
    /// Start, seconds since the epoch.
    pub start_s: f64,
    /// End, seconds since the epoch (`NaN` while open).
    pub end_s: f64,
}

impl Span {
    /// Length of the interval in seconds.
    pub fn duration(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// An empty recorder whose epoch is now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Seconds since the epoch.
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Opens a span; close it with [`close`](Self::close).
    pub fn open(&mut self, name: &str, parent: Option<usize>, workload: &str) -> usize {
        let start_s = self.now();
        self.spans.push(Span {
            name: name.to_owned(),
            parent,
            workload: workload.to_owned(),
            start_s,
            end_s: f64::NAN,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` now and returns its duration.
    pub fn close(&mut self, id: usize) -> f64 {
        let end = self.now();
        let span = &mut self.spans[id];
        span.end_s = end;
        span.duration()
    }

    /// Runs `f` inside a leaf span.
    pub fn time<R>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        workload: &str,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, workload);
        let out = f();
        self.close(id);
        out
    }

    /// Records an already-measured interval.
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// The recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of every span named `name`, in seconds.
    pub fn busy(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .sum()
    }

    /// Adopts spans recorded by another process: their times shift by
    /// `offset_s` (when the other process started, on this epoch) and
    /// their roots hang under `parent`.
    pub fn absorb(&mut self, spans: Vec<Span>, parent: usize, offset_s: f64) {
        let base = self.spans.len();
        for s in spans {
            self.push(Span {
                parent: Some(s.parent.map_or(parent, |p| p + base)),
                start_s: s.start_s + offset_s,
                end_s: s.end_s + offset_s,
                ..s
            });
        }
    }

    /// Self time of span `id`: its duration minus the union of its
    /// children's intervals (clipped to it).
    pub fn self_time(&self, id: usize) -> f64 {
        let span = &self.spans[id];
        let mut children: Vec<(f64, f64)> = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| (c.start_s.max(span.start_s), c.end_s.min(span.end_s)))
            .filter(|(a, b)| b > a)
            .collect();
        children.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut covered = 0.0;
        let mut reach = span.start_s;
        for (a, b) in children {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        span.duration() - covered
    }

    /// One JSON object per span, in opening order, each with its self
    /// time.
    pub fn to_jsonl(&self) -> String {
        (0..self.spans.len())
            .map(|id| {
                format!(
                    "{}\n",
                    span_json(id, &self.spans[id], Some(self.self_time(id)))
                )
            })
            .collect()
    }
}

/// The JSON object of span `id`, with its self time when known.
pub fn span_json(id: usize, s: &Span, self_s: Option<f64>) -> String {
    let self_s = self_s.map_or_else(String::new, |t| format!(",\"self_s\":{}", json::number(t)));
    format!(
        "{{\"id\":{id},\"name\":\"{}\",\"parent\":{},\"workload\":\"{}\",\"start_s\":{},\"end_s\":{}{self_s}}}",
        json::escape(&s.name),
        s.parent.map_or_else(|| "null".to_owned(), |p| p.to_string()),
        json::escape(&s.workload),
        json::number(s.start_s),
        json::number(s.end_s),
    )
}

/// Parses a span written by [`span_json`].
pub fn span_from_json(v: &json::Value) -> Option<Span> {
    Some(Span {
        name: v.get("name")?.as_str()?.to_owned(),
        parent: v.get("parent")?.as_f64().map(|p| p as usize),
        workload: v.get("workload")?.as_str()?.to_owned(),
        start_s: v.get("start_s")?.as_f64()?,
        end_s: v.get("end_s")?.as_f64()?,
    })
}

/// The share of `total` that the isolated layer costs account for: the
/// ledger's coverage of a phase it splits into layers.
pub fn coverage(layers: &[f64], total: f64) -> f64 {
    layers.iter().sum::<f64>() / total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<usize>, start_s: f64, end_s: f64) -> Span {
        Span {
            name: name.to_owned(),
            parent,
            workload: "w".to_owned(),
            start_s,
            end_s,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut spans = Spans::new();
        let root = spans.push(span("capture", None, 0.0, 10.0));
        spans.push(span("trace", Some(root), 1.0, 3.0));
        // Overlapping children count once.
        spans.push(span("cache.l1", Some(root), 2.0, 5.0));
        // A child running past its parent is clipped.
        spans.push(span("cache.l2", Some(root), 9.0, 12.0));
        // A grandchild does not count against the root.
        spans.push(span("inner", Some(2), 2.5, 3.5));
        assert!((spans.self_time(root) - (10.0 - 4.0 - 1.0)).abs() < 1e-12);
        assert!((spans.self_time(2) - 2.0).abs() < 1e-12);
        assert_eq!(spans.self_time(4), 1.0);
    }

    #[test]
    fn busy_sums_every_span_of_a_name() {
        let mut spans = Spans::new();
        spans.push(span("replay.kernel", None, 0.0, 1.5));
        spans.push(span("replay.sample", None, 1.5, 2.0));
        spans.push(span("replay.kernel", None, 2.0, 2.25));
        assert_eq!(spans.busy("replay.kernel"), 1.75);
        assert_eq!(spans.busy("absent"), 0.0);
    }

    #[test]
    fn coverage_is_layer_sum_over_total() {
        assert_eq!(coverage(&[0.25, 0.5, 0.125], 1.0), 0.875);
        assert!((coverage(&[1.0, 1.2], 2.0) - 1.1).abs() < 1e-12);
    }

    #[test]
    fn absorbed_spans_shift_and_reparent() {
        let mut child = Spans::new();
        let root = child.push(span("ledger", None, 0.0, 2.0));
        child.push(span("trace", Some(root), 0.5, 1.0));

        let mut parent = Spans::new();
        let host = parent.push(span("run", None, 0.0, 10.0));
        parent.absorb(child.spans().to_vec(), host, 3.0);
        let s = parent.spans();
        assert_eq!(s[1].parent, Some(host));
        assert_eq!((s[1].start_s, s[1].end_s), (3.0, 5.0));
        assert_eq!(s[2].parent, Some(1));
        assert!((parent.self_time(host) - 8.0).abs() < 1e-12);
    }

    #[test]
    fn spans_round_trip_through_json() {
        let s = span("capture_store.write", Some(3), 0.125, 0.5);
        for self_s in [None, Some(0.25)] {
            let line = span_json(4, &s, self_s);
            let parsed = span_from_json(&json::parse(&line).unwrap()).unwrap();
            assert_eq!(parsed, s);
        }
    }
}
