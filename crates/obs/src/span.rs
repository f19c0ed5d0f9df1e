//! Gated tracing spans and deterministic span-tree aggregation.
//!
//! [`span("name")`](span) returns an RAII [`SpanGuard`]. While tracing
//! is disabled (the default) the call is one relaxed `AtomicBool` load
//! and the guard is inert — cheap enough to leave in every hot path
//! (bench-gated in `obs_overhead`). With tracing enabled
//! ([`set_tracing(true)`](set_tracing)) each thread records
//! name/parent/start/duration into its own bounded buffer behind a
//! mutex only that thread touches on the hot path; [`drain_spans`]
//! merges every thread's finished records into one [`SpanTree`]
//! aggregated by name path.
//!
//! Determinism: record ids are per-thread and threads are visited in
//! first-span order, with each thread's records sorted by start time,
//! so a single-threaded run (`--jobs 1`) produces the same tree
//! structure on every execution of the same workload.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Maximum started spans retained per thread between drains. Starts
/// beyond the cap are counted as dropped and produce inert guards, so a
/// runaway span producer degrades to the disabled cost instead of
/// growing memory.
pub const SPAN_CAPACITY: usize = 4096;

static TRACING: AtomicBool = AtomicBool::new(false);

/// Turns span recording on or off process-wide. Off is the default;
/// the disabled [`span`] fast path is a single relaxed load.
pub fn set_tracing(enabled: bool) {
    TRACING.store(enabled, Ordering::Relaxed);
}

/// Whether spans are currently being recorded.
#[inline]
pub fn tracing_enabled() -> bool {
    TRACING.load(Ordering::Relaxed)
}

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug)]
struct FinishedSpan {
    id: u32,
    start_nanos: u64,
    duration_nanos: u64,
}

/// One thread's span storage. The owning thread locks it briefly at
/// span start and end (uncontended except during a drain); `names`
/// doubles as the id space — ids are indices — and is only cleared
/// when no guard is live, so parent links never dangle.
#[derive(Debug, Default)]
struct ThreadSpans {
    /// id → (name, parent id or `NO_PARENT`), appended at span start.
    names: Vec<(&'static str, u32)>,
    /// Ids of currently open spans, innermost last.
    stack: Vec<u32>,
    finished: Vec<FinishedSpan>,
    open: usize,
    dropped: u64,
}

type Sink = Arc<Mutex<ThreadSpans>>;

static SINKS: Mutex<Vec<Sink>> = Mutex::new(Vec::new());

static EPOCH: OnceLock<Instant> = OnceLock::new();

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

thread_local! {
    static LOCAL: RefCell<Option<Sink>> = const { RefCell::new(None) };
}

fn local_sink() -> Sink {
    LOCAL.with(|slot| {
        let mut slot = slot.borrow_mut();
        if let Some(sink) = slot.as_ref() {
            return sink.clone();
        }
        let sink: Sink = Arc::new(Mutex::new(ThreadSpans::default()));
        SINKS
            .lock()
            .expect("span sinks poisoned")
            .push(sink.clone());
        *slot = Some(sink.clone());
        sink
    })
}

/// RAII guard for one span; records the duration on drop. Inert when
/// tracing was disabled at construction or the thread buffer was full.
#[derive(Debug)]
pub struct SpanGuard {
    live: Option<(Sink, u32, Instant)>,
}

/// Opens a span named `name` under the innermost open span of the
/// current thread. The returned guard closes it on drop.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !TRACING.load(Ordering::Relaxed) {
        return SpanGuard { live: None };
    }
    start_span(name)
}

#[cold]
fn start_span(name: &'static str) -> SpanGuard {
    let sink = local_sink();
    let id = {
        let mut spans = sink.lock().expect("thread spans poisoned");
        if spans.names.len() >= SPAN_CAPACITY {
            spans.dropped += 1;
            return SpanGuard { live: None };
        }
        let id = spans.names.len() as u32;
        let parent = spans.stack.last().copied().unwrap_or(NO_PARENT);
        spans.names.push((name, parent));
        spans.stack.push(id);
        spans.open += 1;
        id
    };
    // Read the clock after the bookkeeping so the span measures its
    // body, not the recording overhead.
    SpanGuard {
        live: Some((sink, id, Instant::now())),
    }
}

impl SpanGuard {
    /// Closes the span without recording it, leaving its time to the
    /// enclosing span: for work that turned out not to be what the name
    /// claims (a warm-start seed the replay rejects is search work, not
    /// a replay of a result). Spans opened inside it keep its name in
    /// their path.
    pub fn discard(mut self) {
        if let Some((sink, id, _)) = self.live.take() {
            let mut spans = sink.lock().expect("thread spans poisoned");
            spans.stack.retain(|&open| open != id);
            spans.open -= 1;
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some((sink, id, start)) = self.live.take() else {
            return;
        };
        let duration_nanos = start.elapsed().as_nanos() as u64;
        let start_nanos = start.saturating_duration_since(epoch()).as_nanos() as u64;
        let mut spans = sink.lock().expect("thread spans poisoned");
        if spans.stack.last() == Some(&id) {
            spans.stack.pop();
        } else {
            // Out-of-order drop (guards moved across scopes): remove
            // the id wherever it sits so the stack stays consistent.
            spans.stack.retain(|&open| open != id);
        }
        spans.open -= 1;
        spans.finished.push(FinishedSpan {
            id,
            start_nanos,
            duration_nanos,
        });
    }
}

/// One aggregated node of a [`SpanTree`]: every completed span with the
/// same name path collapses into one node.
#[derive(Debug, Clone)]
pub struct SpanNode {
    /// Span name as passed to [`span`].
    pub name: &'static str,
    /// Number of completed spans aggregated into this node.
    pub count: u64,
    /// Sum of the aggregated spans' durations, in nanoseconds.
    pub total_nanos: u64,
    /// Child nodes in first-seen order.
    pub children: Vec<SpanNode>,
}

/// The aggregated span forest produced by [`drain_spans`].
#[derive(Debug, Clone, Default)]
pub struct SpanTree {
    /// Top-level nodes in first-seen order.
    pub roots: Vec<SpanNode>,
    /// Spans dropped because a thread buffer was full.
    pub dropped: u64,
}

impl SpanTree {
    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty()
    }

    /// Renders the tree with per-node counts and total durations, one
    /// node per line, two-space indentation per depth.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for root in &self.roots {
            render_node(&mut out, root, 0, true);
        }
        if self.dropped > 0 {
            let _ = writeln!(out, "({} spans dropped at capacity)", self.dropped);
        }
        out
    }

    /// Renders only the structure — names, nesting and counts, no
    /// durations — for determinism assertions.
    pub fn structure(&self) -> String {
        let mut out = String::new();
        for root in &self.roots {
            render_node(&mut out, root, 0, false);
        }
        out
    }
}

fn render_node(out: &mut String, node: &SpanNode, depth: usize, durations: bool) {
    for _ in 0..depth {
        out.push_str("  ");
    }
    if durations {
        let _ = writeln!(
            out,
            "{} ×{} {}",
            node.name,
            node.count,
            format_nanos(node.total_nanos)
        );
    } else {
        let _ = writeln!(out, "{} ×{}", node.name, node.count);
    }
    for child in &node.children {
        render_node(out, child, depth + 1, durations);
    }
}

fn format_nanos(nanos: u64) -> String {
    if nanos >= 1_000_000_000 {
        format!("{:.3}s", nanos as f64 / 1e9)
    } else if nanos >= 1_000_000 {
        format!("{:.3}ms", nanos as f64 / 1e6)
    } else {
        format!("{:.3}µs", nanos as f64 / 1e3)
    }
}

/// Collects every thread's finished spans into one aggregated
/// [`SpanTree`] and clears the finished buffers. Threads are visited in
/// the order they first recorded a span; within a thread records merge
/// in start order. Open spans (guards still alive) are left in place
/// and will appear in a later drain once they finish.
pub fn drain_spans() -> SpanTree {
    let sinks: Vec<Sink> = SINKS.lock().expect("span sinks poisoned").clone();
    let mut tree = SpanTree::default();
    for sink in sinks {
        let mut spans = sink.lock().expect("thread spans poisoned");
        let mut finished = std::mem::take(&mut spans.finished);
        finished.sort_by_key(|f| (f.start_nanos, f.id));
        for record in &finished {
            let mut path = Vec::new();
            let mut cursor = record.id;
            while cursor != NO_PARENT {
                let (name, parent) = spans.names[cursor as usize];
                path.push(name);
                cursor = parent;
            }
            path.reverse();
            insert_path(&mut tree.roots, &path, record.duration_nanos);
        }
        tree.dropped += std::mem::take(&mut spans.dropped);
        if spans.open == 0 {
            // No live guard references an id: safe to reset the id
            // space so long-running processes don't pin the capacity.
            spans.names.clear();
            spans.stack.clear();
        }
    }
    tree
}

fn insert_path(nodes: &mut Vec<SpanNode>, path: &[&'static str], duration_nanos: u64) {
    let Some((&name, rest)) = path.split_first() else {
        return;
    };
    let position = match nodes.iter().position(|n| n.name == name) {
        Some(position) => position,
        None => {
            nodes.push(SpanNode {
                name,
                count: 0,
                total_nanos: 0,
                children: Vec::new(),
            });
            nodes.len() - 1
        }
    };
    let node = &mut nodes[position];
    if rest.is_empty() {
        node.count += 1;
        node.total_nanos += duration_nanos;
    } else {
        insert_path(&mut node.children, rest, duration_nanos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test exercises the whole lifecycle: the gate, the sinks and
    // the drain are process-global, so splitting these into parallel
    // #[test] functions would interleave their recordings.
    #[test]
    fn span_lifecycle() {
        // Disabled: guards are inert, nothing is recorded.
        assert!(!tracing_enabled());
        {
            let _a = span("ignored");
            let _b = span("also-ignored");
        }
        assert!(drain_spans().is_empty());

        // Enabled: nesting and repetition aggregate by name path.
        set_tracing(true);
        for _ in 0..3 {
            let _outer = span("outer");
            {
                let _inner = span("inner");
                let _leaf = span("leaf");
            }
            let _side = span("side");
        }
        let tree = drain_spans();
        assert_eq!(
            tree.structure(),
            "outer ×3\n  inner ×3\n    leaf ×3\n  side ×3\n"
        );
        assert_eq!(tree.dropped, 0);
        let rendered = tree.render();
        assert!(rendered.contains("outer ×3"), "{rendered}");

        // Drain clears: a second drain is empty, and a fresh identical
        // workload reproduces the same structure (determinism).
        assert!(drain_spans().is_empty());
        for _ in 0..3 {
            let _outer = span("outer");
            {
                let _inner = span("inner");
                let _leaf = span("leaf");
            }
            let _side = span("side");
        }
        assert_eq!(
            drain_spans().structure(),
            "outer ×3\n  inner ×3\n    leaf ×3\n  side ×3\n"
        );

        // A discarded span records nothing; its parent still does.
        {
            let _outer = span("kept");
            span("discarded").discard();
        }
        assert_eq!(drain_spans().structure(), "kept ×1\n");

        // Spans recorded on another thread land in the same drain,
        // after the first thread's roots (registration order).
        let handle = std::thread::spawn(|| {
            let _worker = span("worker");
            let _step = span("step");
        });
        handle.join().expect("worker thread");
        let _main = span("main-root");
        drop(_main);
        let tree = drain_spans();
        let names: Vec<&str> = tree.roots.iter().map(|n| n.name).collect();
        assert!(names.contains(&"worker"), "{names:?}");
        assert!(names.contains(&"main-root"), "{names:?}");

        // Capacity: starts beyond SPAN_CAPACITY are dropped, counted,
        // and inert.
        for _ in 0..(SPAN_CAPACITY + 10) {
            let _s = span("flood");
        }
        let tree = drain_spans();
        let flood = tree
            .roots
            .iter()
            .find(|n| n.name == "flood")
            .expect("flood recorded");
        assert_eq!(
            flood.count as usize + tree.dropped as usize,
            SPAN_CAPACITY + 10
        );
        assert!(tree.dropped >= 10, "dropped {}", tree.dropped);

        set_tracing(false);
        assert!(drain_spans().is_empty());
    }
}
