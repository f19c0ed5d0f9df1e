//! Lock-free metric cells and the Prometheus-rendering registry.
//!
//! A cell ([`Counter`], [`Gauge`], [`Histogram`]) is a cheap cloneable
//! handle around `Arc<AtomicU64>` storage: subsystems own their cells
//! exactly as they owned raw atomics before, and *opt in* to exposition
//! by registering the handle under a metric name. Rendering walks the
//! registered names in sorted order, so `/v1/metrics` output is
//! deterministic for a given set of values.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A monotonically increasing counter.
///
/// Clones share the same cell, so a subsystem can keep one handle on its
/// hot path while the registry holds another for rendering.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Reads the current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can move in either direction (queue depths,
/// entry counts, byte totals). Set from snapshots at scrape time.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    cell: Arc<AtomicU64>,
}

impl Gauge {
    /// Creates a gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replaces the current value.
    #[inline]
    pub fn set(&self, value: u64) {
        self.cell.store(value, Ordering::Relaxed);
    }

    /// Reads the current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// Number of buckets in every [`Histogram`] (fixed so the cells can be a
/// plain array of atomics with no allocation per observation).
pub const HISTOGRAM_BUCKETS: usize = 32;

/// A fixed-bucket histogram with log2 bucket bounds.
///
/// Bucket `i` has upper bound `2^i` for `i < 31` (so `1, 2, 4, …,
/// 2^30`); the last bucket is `+Inf`. Values are whatever unit the call
/// site chooses — the workspace uses microseconds for latencies and raw
/// counts for sizes/depths. `observe` is three relaxed `fetch_add`s.
#[derive(Debug, Clone)]
pub struct Histogram {
    cells: Arc<HistogramCells>,
}

#[derive(Debug)]
struct HistogramCells {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            cells: Arc::new(HistogramCells {
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                sum: AtomicU64::new(0),
                count: AtomicU64::new(0),
            }),
        }
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    #[inline]
    pub fn observe(&self, value: u64) {
        let cells = &*self.cells;
        cells.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        cells.sum.fetch_add(value, Ordering::Relaxed);
        cells.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Reads every cell once into a consistent-enough snapshot (each
    /// cell is read exactly once; concurrent observers may land between
    /// reads, which Prometheus semantics tolerate).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let cells = &*self.cells;
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| cells.buckets[i].load(Ordering::Relaxed)),
            sum: cells.sum.load(Ordering::Relaxed),
            count: cells.count.load(Ordering::Relaxed),
        }
    }
}

/// One-shot copy of a histogram's cells.
#[derive(Debug, Clone, Copy)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (non-cumulative).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Sum of all observed values.
    pub sum: u64,
    /// Total number of observations.
    pub count: u64,
}

/// Maps a value to its bucket: the smallest `i` with `value <= 2^i`,
/// capped at the `+Inf` bucket.
#[inline]
fn bucket_index(value: u64) -> usize {
    if value <= 1 {
        0
    } else {
        let ceil_log2 = 64 - (value - 1).leading_zeros() as usize;
        ceil_log2.min(HISTOGRAM_BUCKETS - 1)
    }
}

/// The finite upper bound of bucket `i`, or `None` for the `+Inf`
/// bucket.
fn bucket_bound(i: usize) -> Option<u64> {
    if i + 1 < HISTOGRAM_BUCKETS {
        Some(1u64 << i)
    } else {
        None
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter { help: &'static str, cell: Counter },
    Gauge { help: &'static str, cell: Gauge },
    Histogram { help: &'static str, cell: Histogram },
}

/// A named collection of metric cells, rendered as Prometheus text
/// exposition. Cloning shares the underlying map; registration after a
/// clone is visible through every handle.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Arc<Mutex<BTreeMap<String, Metric>>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the counter registered under `name`, creating and
    /// registering a fresh one on first use. Counter names end in
    /// `_total` by convention.
    pub fn counter(&self, name: &str, help: &'static str) -> Counter {
        let mut map = self.inner.lock().expect("registry poisoned");
        match map
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Counter {
                help,
                cell: Counter::new(),
            }) {
            Metric::Counter { cell, .. } => cell.clone(),
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// Returns the gauge registered under `name`, creating it on first
    /// use.
    pub fn gauge(&self, name: &str, help: &'static str) -> Gauge {
        let mut map = self.inner.lock().expect("registry poisoned");
        match map.entry(name.to_owned()).or_insert_with(|| Metric::Gauge {
            help,
            cell: Gauge::new(),
        }) {
            Metric::Gauge { cell, .. } => cell.clone(),
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// Returns the histogram registered under `name`, creating it on
    /// first use.
    pub fn histogram(&self, name: &str, help: &'static str) -> Histogram {
        let mut map = self.inner.lock().expect("registry poisoned");
        match map
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Histogram {
                help,
                cell: Histogram::new(),
            }) {
            Metric::Histogram { cell, .. } => cell.clone(),
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// Registers an externally owned cell under `name`, replacing any
    /// previous registration of the same name.
    fn insert(&self, name: &str, metric: Metric) {
        let mut map = self.inner.lock().expect("registry poisoned");
        map.insert(name.to_owned(), metric);
    }

    fn collect(&self, out: &mut BTreeMap<String, Metric>) {
        let map = self.inner.lock().expect("registry poisoned");
        for (name, metric) in map.iter() {
            out.entry(name.clone()).or_insert_with(|| metric.clone());
        }
    }
}

/// Renders every metric from the given registries as one sorted
/// Prometheus text exposition document (format version 0.0.4).
///
/// Later registries do not override earlier registrations of the same
/// name. Each family gets `# HELP` and `# TYPE` lines; histograms emit
/// cumulative `_bucket{le="…"}` samples plus `_sum` and `_count`.
pub fn render_prometheus(registries: &[&Registry]) -> String {
    let mut merged = BTreeMap::new();
    for registry in registries {
        registry.collect(&mut merged);
    }
    let mut out = String::new();
    for (name, metric) in merged.iter() {
        match metric {
            Metric::Counter { help, cell } => {
                let _ = writeln!(out, "# HELP {name} {help}");
                let _ = writeln!(out, "# TYPE {name} counter");
                let _ = writeln!(out, "{name} {}", cell.get());
            }
            Metric::Gauge { help, cell } => {
                let _ = writeln!(out, "# HELP {name} {help}");
                let _ = writeln!(out, "# TYPE {name} gauge");
                let _ = writeln!(out, "{name} {}", cell.get());
            }
            Metric::Histogram { help, cell } => {
                let snap = cell.snapshot();
                let _ = writeln!(out, "# HELP {name} {help}");
                let _ = writeln!(out, "# TYPE {name} histogram");
                let mut cumulative = 0u64;
                for (i, bucket) in snap.buckets.iter().enumerate() {
                    cumulative += bucket;
                    match bucket_bound(i) {
                        Some(bound) => {
                            let _ = writeln!(out, "{name}_bucket{{le=\"{bound}\"}} {cumulative}");
                        }
                        None => {
                            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
                        }
                    }
                }
                let _ = writeln!(out, "{name}_sum {}", snap.sum);
                let _ = writeln!(out, "{name}_count {}", snap.count);
            }
        }
    }
    out
}

/// A cell a [`metric_table!`](crate::metric_table) row owns: a
/// [`Counter`] counts its own events, a [`Gauge`] shows a value its
/// owner computes per snapshot.
pub trait TableCell {
    /// Registers the cell in `registry` under `family`, so a subsystem
    /// keeps its cell and the registry renders it. Replaces any previous
    /// registration of `family`.
    fn register(&self, registry: &Registry, family: &str, help: &'static str);
    /// The value a snapshot starts from: a counter's count, or 0 for a
    /// gauge, which the owner computes.
    fn read(&self) -> u64;
    /// Shows a snapshot's value: a gauge takes it, a counter ignores it.
    fn show(&self, value: u64);
}

impl TableCell for Counter {
    fn register(&self, registry: &Registry, family: &str, help: &'static str) {
        let cell = self.clone();
        registry.insert(family, Metric::Counter { help, cell });
    }

    fn read(&self) -> u64 {
        self.get()
    }

    fn show(&self, _value: u64) {}
}

impl TableCell for Gauge {
    fn register(&self, registry: &Registry, family: &str, help: &'static str) {
        let cell = self.clone();
        registry.insert(family, Metric::Gauge { help, cell });
    }

    fn read(&self) -> u64 {
        0
    }

    fn show(&self, value: u64) {
        self.set(value);
    }
}

/// One row of a [`metric_table!`](crate::metric_table), as `/v1/stats`
/// reads it.
pub struct MetricRow<S> {
    /// The row's `/v1/stats` key, if it has one.
    pub stats_key: Option<&'static str>,
    /// The row's Prometheus family.
    pub family: &'static str,
    /// Reads the row's field from a snapshot.
    pub get: fn(&S) -> u64,
}

/// Defines one owner's service metrics from one row per metric:
/// `field: type, Counter|Gauge, /v1/stats key or None, family, help;`.
///
/// From the rows it generates the snapshot struct (one public field per
/// row, in row order, documented by its help text; `ROWS`, one
/// [`MetricRow`] each; `keyed`, its `/v1/stats` fields) and a private
/// cells struct holding one [`TableCell`] per row, with `register`
/// (every cell under its family) and `snapshot` (reads the counters,
/// lets the owner compute the gauges, and shows those on their cells).
/// The cells are plain fields, so counting an event stays one relaxed
/// `fetch_add`.
#[macro_export]
macro_rules! metric_table {
    (
        $(#[$meta:meta])*
        $vis:vis struct $stats:ident;
        struct $cells:ident;
        $($field:ident: $ty:ty, $kind:ident, $key:expr, $family:literal, $help:literal;)*
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        $vis struct $stats {
            $(#[doc = $help] pub $field: $ty,)*
        }

        impl $stats {
            /// Every row, in row order.
            pub const ROWS: &'static [$crate::MetricRow<$stats>] = &[$($crate::MetricRow {
                stats_key: $key,
                family: $family,
                get: |stats| stats.$field as u64,
            },)*];

            /// The `(/v1/stats key, value)` of every keyed row, in row order.
            pub fn keyed(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
                Self::ROWS.iter().filter_map(move |row| Some((row.stats_key?, (row.get)(self))))
            }
        }

        #[derive(Debug, Default)]
        struct $cells {
            $($field: $crate::$kind,)*
        }

        impl $cells {
            fn register(&self, registry: &$crate::Registry) {
                $($crate::TableCell::register(&self.$field, registry, $family, $help);)*
            }

            fn snapshot(&self, gauges: impl FnOnce(&mut $stats)) -> $stats {
                let mut stats = $stats {
                    $($field: $crate::TableCell::read(&self.$field) as $ty,)*
                };
                gauges(&mut stats);
                $($crate::TableCell::show(&self.$field, stats.$field as u64);)*
                stats
            }
        }
    };
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-wide registry for subsystems that outlive any one server
/// instance (the search engine, CLI one-shots). Server-scoped metrics
/// live in a per-server [`Registry`] instead, so loopback tests see
/// per-instance counts.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_covers_log2_bounds() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(5), 3);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(1025), 11);
        assert_eq!(bucket_index(1 << 30), 30);
        assert_eq!(bucket_index((1 << 30) + 1), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn counter_and_gauge_round_trip() {
        let counter = Counter::new();
        counter.inc();
        counter.add(4);
        assert_eq!(counter.get(), 5);
        let clone = counter.clone();
        clone.inc();
        assert_eq!(counter.get(), 6, "clones share the cell");

        let gauge = Gauge::new();
        gauge.set(17);
        assert_eq!(gauge.get(), 17);
        gauge.set(3);
        assert_eq!(gauge.get(), 3);
    }

    #[test]
    fn histogram_snapshot_is_exact_when_quiet() {
        let histogram = Histogram::new();
        for value in [0, 1, 2, 3, 1000, 1 << 31] {
            histogram.observe(value);
        }
        let snap = histogram.snapshot();
        assert_eq!(snap.count, 6);
        assert_eq!(snap.sum, 1 + 2 + 3 + 1000 + (1u64 << 31));
        assert_eq!(snap.buckets[0], 2, "0 and 1 share the first bucket");
        assert_eq!(snap.buckets[1], 1);
        assert_eq!(snap.buckets[2], 1);
        assert_eq!(snap.buckets[10], 1);
        assert_eq!(snap.buckets[HISTOGRAM_BUCKETS - 1], 1);
    }

    #[test]
    fn render_is_sorted_typed_and_cumulative() {
        let registry = Registry::new();
        let b = registry.counter("zz_b_total", "Second counter.");
        let a = registry.counter("aa_a_total", "First counter.");
        let h = registry.histogram("mm_micros", "A latency histogram.");
        registry.gauge("gg_entries", "An entry gauge.").set(7);
        a.add(2);
        b.add(9);
        h.observe(3);
        h.observe(100);

        let text = render_prometheus(&[&registry]);
        let a_pos = text.find("aa_a_total 2").expect("counter a rendered");
        let g_pos = text.find("gg_entries 7").expect("gauge rendered");
        let m_pos = text.find("# TYPE mm_micros histogram").expect("typed");
        let b_pos = text.find("zz_b_total 9").expect("counter b rendered");
        assert!(a_pos < g_pos && g_pos < m_pos && m_pos < b_pos, "sorted");
        assert!(text.contains("# HELP aa_a_total First counter."));
        assert!(text.contains("mm_micros_bucket{le=\"4\"} 1"));
        assert!(text.contains("mm_micros_bucket{le=\"128\"} 2"));
        assert!(text.contains("mm_micros_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("mm_micros_sum 103"));
        assert!(text.contains("mm_micros_count 2"));
    }

    #[test]
    fn external_cells_render_and_merge_without_override() {
        let owned = Counter::new();
        owned.add(11);
        let first = Registry::new();
        owned.register(&first, "shared_total", "Owned by the subsystem.");
        let second = Registry::new();
        second.counter("shared_total", "A different cell.").add(99);
        second.counter("only_second_total", "Unique.").inc();

        let text = render_prometheus(&[&first, &second]);
        assert!(
            text.contains("shared_total 11"),
            "first registry wins: {text}"
        );
        assert!(!text.contains("shared_total 99"));
        assert!(text.contains("only_second_total 1"));
    }

    #[test]
    fn registry_handles_share_one_map() {
        let registry = Registry::new();
        let clone = registry.clone();
        clone
            .counter("via_clone_total", "Registered via clone.")
            .inc();
        let text = render_prometheus(&[&registry]);
        assert!(text.contains("via_clone_total 1"));
    }

    crate::metric_table! {
        /// Demo rows.
        struct DemoStats;
        struct DemoCells;
        hits: u64, Counter, Some("hits"), "demo_hits_total", "Demo hits.";
        entries: usize, Gauge, None, "demo_entries", "Demo entries.";
    }

    #[test]
    fn metric_table_registers_counts_and_shows_its_gauges() {
        let cells = DemoCells::default();
        let registry = Registry::new();
        cells.register(&registry);
        cells.hits.add(3);
        let stats = cells.snapshot(|stats| stats.entries = 7);
        assert_eq!(
            stats,
            DemoStats {
                hits: 3,
                entries: 7
            }
        );
        let text = render_prometheus(&[&registry]);
        assert!(text.contains("# TYPE demo_entries gauge\ndemo_entries 7\n"));
        assert!(text.contains("# HELP demo_hits_total Demo hits.\n"));
        assert!(text.contains("# TYPE demo_hits_total counter\ndemo_hits_total 3\n"));
        let rows: Vec<_> = DemoStats::ROWS
            .iter()
            .map(|row| (row.stats_key, row.family, (row.get)(&stats)))
            .collect();
        assert_eq!(
            rows,
            [
                (Some("hits"), "demo_hits_total", 3),
                (None, "demo_entries", 7)
            ]
        );
        assert_eq!(stats.keyed().collect::<Vec<_>>(), [("hits", 3)]);
    }
}
