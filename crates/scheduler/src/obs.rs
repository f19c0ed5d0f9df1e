//! Search-engine metrics, recorded into the process-wide
//! [`ezrt_obs::global`] registry.
//!
//! Every completed search — cold or seeded, feasible or not — records
//! its run counters once; the DFS loop additionally samples its frontier
//! depth every 1024 ticks. All cells are relaxed
//! atomics, so the cost is a handful of uncontended `fetch_add`s per
//! *run* plus three per depth sample — invisible next to a single state
//! expansion.

use crate::stats::{SearchCounter, SearchStats};
use ezrt_obs::{Counter, Histogram};
use std::sync::OnceLock;

/// How many search-loop ticks between frontier-depth samples.
pub(crate) const DEPTH_SAMPLE_TICKS: u64 = 1024;

/// The engine's cells in the global registry, created by
/// [`register_metrics`] or on first use.
pub(crate) struct EngineMetrics {
    /// `ezrt_search_runs_total`.
    pub(crate) runs: Counter,
    /// One cell per [`SearchStats::COUNTERS`] entry with an engine
    /// family, in table order.
    pub(crate) counters: Vec<(&'static SearchCounter, Counter)>,
    /// `ezrt_search_states_per_second`.
    pub(crate) states_per_second: Histogram,
    /// `ezrt_search_frontier_depth`.
    pub(crate) frontier_depth: Histogram,
    /// `ezrt_search_elapsed_micros`.
    pub(crate) elapsed_micros: Histogram,
}

/// Registers the engine's `ezrt_search_*` families in the process-wide
/// [`ezrt_obs::global`] registry (idempotent). Searches register them on
/// first use anyway; a long-running service calls this at start so that
/// a scrape before its first search already lists every family.
pub fn register_metrics() {
    engine_metrics();
}

pub(crate) fn engine_metrics() -> &'static EngineMetrics {
    static METRICS: OnceLock<EngineMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = ezrt_obs::global();
        EngineMetrics {
            runs: registry.counter(
                "ezrt_search_runs_total",
                "Completed synthesis searches (feasible, infeasible or budget-aborted).",
            ),
            counters: SearchStats::COUNTERS
                .iter()
                .filter_map(|counter| {
                    let family = counter.engine_family?;
                    Some((counter, registry.counter(family, counter.help)))
                })
                .collect(),
            states_per_second: registry.histogram(
                "ezrt_search_states_per_second",
                "Exploration throughput of completed searches, in states per second.",
            ),
            frontier_depth: registry.histogram(
                "ezrt_search_frontier_depth",
                "DFS frontier depth, sampled every 1024 search-loop ticks.",
            ),
            elapsed_micros: registry.histogram(
                "ezrt_search_elapsed_micros",
                "Search wall-clock per completed run, in microseconds.",
            ),
        }
    })
}

/// Records one completed run's aggregate counters.
pub(crate) fn record_search(stats: &SearchStats) {
    let metrics = engine_metrics();
    metrics.runs.inc();
    for (counter, cell) in &metrics.counters {
        cell.add((counter.get)(stats));
    }
    metrics
        .states_per_second
        .observe(stats.states_per_second() as u64);
    metrics
        .elapsed_micros
        .observe(stats.elapsed.as_micros() as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn record_search_accumulates_into_the_global_registry() {
        let before = engine_metrics().runs.get();
        let stats = SearchStats {
            states_visited: 100,
            backtracks: 3,
            elapsed: Duration::from_millis(10),
            ..SearchStats::default()
        };
        record_search(&stats);
        assert!(engine_metrics().runs.get() > before);
        // The table's first counter is `states_visited`.
        let (counter, states) = &engine_metrics().counters[0];
        assert_eq!((counter.get)(&stats), 100);
        assert!(states.get() >= 100);
        let rendered = ezrt_obs::render_prometheus(&[ezrt_obs::global()]);
        assert!(rendered.contains("ezrt_search_runs_total"), "{rendered}");
        for family in SearchStats::COUNTERS.iter().filter_map(|c| c.engine_family) {
            assert!(rendered.contains(family), "{family} in {rendered}");
        }
        assert!(
            rendered.contains("ezrt_search_elapsed_micros_bucket"),
            "{rendered}"
        );
    }
}
