//! Bench-side span tracing: spans are kept in memory while a traced run
//! executes and reduced to per-layer self times when it ends.
//!
//! A span records its name, its parent and its start and end on one
//! monotonic clock. A layer's *self time* is its span's duration minus
//! the part of that interval its child spans cover, so nested layers are
//! never counted twice and the sum of self times over a root span is
//! exactly the root's duration.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_owned(),
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        let result = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        result
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    pub calls: usize,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl LayerTime {
    /// Mean self time per call, in milliseconds.
    pub fn self_ms_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / 1e6 / self.calls as f64
        }
    }
}

/// The self time of every span: its duration minus the union of its
/// children's intervals (clipped to its own interval).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut intervals)| {
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for (start, end) in intervals {
                let start = start.max(reach);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Groups spans by name: call count, total duration and self time.
pub fn by_layer(spans: &[Span]) -> BTreeMap<String, LayerTime> {
    let mut layers: BTreeMap<String, LayerTime> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        let entry = layers.entry(span.name.clone()).or_default();
        entry.calls += 1;
        entry.total_ns += span.duration_ns();
        entry.self_ns += self_ns;
    }
    layers
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: name.to_owned(),
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 30),
            // Overlaps `a` (children of one parent on different threads
            // can): the overlap must be subtracted once.
            span("b", Some(0), 20, 40),
            span("c", Some(0), 50, 60),
            // A grandchild only reduces its own parent's self time.
            span("d", Some(3), 52, 55),
            // A child running past its parent's end is clipped.
            span("e", Some(0), 95, 120),
        ];
        assert_eq!(
            self_times(&spans),
            vec![100 - 30 - 10 - 5, 20, 20, 7, 3, 25]
        );
    }

    #[test]
    fn self_times_of_a_tree_sum_to_its_root() {
        let spans = vec![
            span("spec", None, 0, 1_000),
            span("parse", Some(0), 0, 100),
            span("search", Some(0), 100, 900),
            span("expand", Some(2), 150, 850),
        ];
        let total: u64 = self_times(&spans).iter().sum();
        assert_eq!(total, 1_000);
        let layers = by_layer(&spans);
        assert_eq!(layers["search"].self_ns, 100);
        assert_eq!(layers["search"].total_ns, 800);
        assert_eq!(layers["spec"].self_ns, 100);
    }

    #[test]
    fn recorded_spans_nest() {
        let mut tracer = Tracer::new(Instant::now());
        let value = tracer.span("outer", |t| t.span("inner", |_| 7) + 1);
        assert_eq!(value, 8);
        let spans = tracer.into_spans();
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let layers = by_layer(&spans);
        assert_eq!(layers["outer"].calls, 1);
        assert!(layers["outer"].self_ns <= layers["outer"].total_ns);
    }
}
