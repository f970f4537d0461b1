//! In-memory spans for the traced replay.
//!
//! A span is a named interval with an optional parent. A layer's self
//! time is its span's duration minus the part of that interval its
//! child spans cover (overlapping children are counted once, and a
//! child reaching outside its parent only counts inside it).

use std::time::Instant;

/// One recorded interval, in nanoseconds since the trace's origin.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer name (a per-layer metric name or a grouping span).
    pub name: &'static str,
    /// Start, ns since the trace origin.
    pub start: u64,
    /// End, ns since the trace origin (≥ `start`).
    pub end: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
}

/// The spans of one replayed request.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Trace {
    /// Nanoseconds since the trace origin.
    pub fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a span and returns its index (for use as a parent).
    pub fn record(
        &mut self,
        name: &'static str,
        start: u64,
        end: u64,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name,
            start,
            end: end.max(start),
            parent,
        });
        self.spans.len() - 1
    }

    /// Times `f` as a span named `name` under `parent`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = self.now();
        let value = f();
        let end = self.now();
        (value, self.record(name, start, end, parent))
    }

    /// The recorded spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of span `idx`, ns.
    pub fn self_ns(&self, idx: usize) -> u64 {
        self_time(&self.spans, idx)
    }

    /// Total self time of every span named `name`, ns.
    pub fn self_ns_named(&self, name: &str) -> u64 {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.self_ns(i))
            .sum()
    }
}

/// `spans[idx]`'s duration minus the union of its children's intervals
/// clipped to it.
pub fn self_time(spans: &[Span], idx: usize) -> u64 {
    let parent = &spans[idx];
    let mut covered: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(idx))
        .map(|s| (s.start.max(parent.start), s.end.min(parent.end)))
        .filter(|(a, b)| a < b)
        .collect();
    covered.sort_unstable();
    let mut union = 0u64;
    let mut cursor = parent.start;
    for (a, b) in covered {
        let a = a.max(cursor);
        if b > a {
            union += b - a;
            cursor = b;
        }
    }
    (parent.end - parent.start) - union
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
        }
    }

    #[test]
    fn parent_minus_disjoint_children() {
        let spans = vec![
            span("request", 0, 100, None),
            span("parse", 10, 30, Some(0)),
            span("solve", 40, 90, Some(0)),
        ];
        assert_eq!(self_time(&spans, 0), 100 - 20 - 50);
        assert_eq!(self_time(&spans, 1), 20);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = vec![
            span("request", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 30, 70, Some(0)),
            span("c", 60, 65, Some(0)),
        ];
        // Union of [10,50) ∪ [30,70) ∪ [60,65) = [10,70) = 60.
        assert_eq!(self_time(&spans, 0), 40);
    }

    #[test]
    fn children_are_clipped_to_the_parent_and_grandchildren_ignored() {
        let spans = vec![
            span("parse", 100, 200, None),
            span("load", 50, 150, Some(0)),
            span("inner", 150, 200, Some(1)),
        ];
        // Only [100,150) of the child lies inside; the grandchild belongs
        // to the child, not the root.
        assert_eq!(self_time(&spans, 0), 50);
        assert_eq!(self_time(&spans, 1), 100);
    }

    #[test]
    fn trace_records_and_sums_by_name() {
        let mut trace = Trace::default();
        let root = trace.record("solve", 0, 1_000, None);
        trace.record("sdp", 0, 600, Some(root));
        let other = trace.record("solve", 2_000, 2_500, None);
        assert_eq!(trace.self_ns(root), 400);
        assert_eq!(trace.self_ns(other), 500);
        assert_eq!(trace.self_ns_named("solve"), 900);
        assert_eq!(trace.self_ns_named("sdp"), 600);
        let ((), timed) = trace.time("wire.render", None, || {});
        assert!(trace.spans()[timed].end >= trace.spans()[timed].start);
    }
}
