//! Std-only, zero-dependency observability for the ezRealtime workspace.
//!
//! Two independent halves, both built from `std::sync::atomic` cells so
//! recording never blocks a hot path:
//!
//! * [`metrics`] — named [`Counter`]s, [`Gauge`]s and log2-bucket
//!   [`Histogram`]s. Cells are cheap `Arc` handles created wherever the
//!   owning subsystem lives (the service's, one [`metric_table!`] row
//!   each, as fields of their owner) and *registered*
//!   into a [`Registry`] that renders the whole set as sorted Prometheus
//!   text exposition (`# HELP`/`# TYPE` lines, histogram
//!   `_bucket`/`_sum`/`_count` samples). A process-wide [`global()`]
//!   registry collects engine-side metrics from code that has no server
//!   registry handle (the search engine, the CLI).
//! * [`mod@span`] — RAII tracing spans ([`span()`] → [`SpanGuard`]) gated on
//!   one process-wide `AtomicBool`: with tracing disabled the entire
//!   call is a single relaxed load and a `None` guard (measured by
//!   perfbench's `obs.trace_overhead` row). Enabled spans record
//!   name/parent/start/duration into a bounded per-thread buffer; the
//!   buffers aggregate on demand into a deterministic [`SpanTree`]
//!   keyed by name path (`ezrt --trace` prints it after any one-shot
//!   command).
//!
//! # Examples
//!
//! ```
//! use ezrt_obs::{render_prometheus, Registry};
//!
//! let registry = Registry::new();
//! let hits = registry.counter("demo_hits_total", "Demo cache hits.");
//! hits.inc();
//! let text = render_prometheus(&[&registry]);
//! assert!(text.contains("# TYPE demo_hits_total counter"));
//! assert!(text.contains("demo_hits_total 1"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod span;

pub use metrics::{
    global, render_prometheus, Counter, Gauge, Histogram, HistogramSnapshot, MetricRow, Registry,
    TableCell, HISTOGRAM_BUCKETS,
};
pub use span::{
    drain_spans, set_tracing, span, tracing_enabled, SpanGuard, SpanNode, SpanTree, SPAN_CAPACITY,
};
