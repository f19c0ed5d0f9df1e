//! Search-engine metrics, recorded into the process-wide
//! [`ezrt_obs::global`] registry.
//!
//! Every completed search — sequential, seeded or parallel, feasible or
//! not — records its run counters once; the DFS loops additionally
//! sample their frontier depth every 1024 ticks. All cells are relaxed
//! atomics, so the cost is a handful of uncontended `fetch_add`s per
//! *run* plus three per depth sample — invisible next to a single state
//! expansion.

use crate::stats::SearchStats;
use ezrt_obs::{Counter, Histogram};
use std::sync::OnceLock;

/// How many search-loop ticks between frontier-depth samples.
pub(crate) const DEPTH_SAMPLE_TICKS: u64 = 1024;

/// The engine's cells in the global registry, created by
/// [`register_metrics`] or on first use.
pub(crate) struct EngineMetrics {
    /// `ezrt_search_runs_total`.
    pub(crate) runs: Counter,
    /// `ezrt_search_states_total`.
    pub(crate) states: Counter,
    /// `ezrt_search_backtracks_total`.
    pub(crate) backtracks: Counter,
    /// `ezrt_search_steals_total`.
    pub(crate) steals: Counter,
    /// `ezrt_search_donation_stalls_total`.
    pub(crate) donation_stalls: Counter,
    /// `ezrt_search_por_stubborn_skips_total`.
    pub(crate) por_stubborn_skips: Counter,
    /// `ezrt_search_por_sleep_skips_total`.
    pub(crate) por_sleep_skips: Counter,
    /// `ezrt_search_por_overlap_skips_total`.
    pub(crate) por_overlap_skips: Counter,
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
            states: registry.counter(
                "ezrt_search_states_total",
                "States visited, summed over all searches and workers.",
            ),
            backtracks: registry.counter(
                "ezrt_search_backtracks_total",
                "Backtracking steps, summed over all searches and workers.",
            ),
            steals: registry.counter(
                "ezrt_search_steals_total",
                "Steal-half transfers between parallel search workers.",
            ),
            donation_stalls: registry.counter(
                "ezrt_search_donation_stalls_total",
                "Times a parallel worker parked with every deque empty, waiting for a donation.",
            ),
            por_stubborn_skips: registry.counter(
                "ezrt_search_por_stubborn_skips_total",
                "Candidates dropped by stubborn-set reduction, summed over all searches.",
            ),
            por_sleep_skips: registry.counter(
                "ezrt_search_por_sleep_skips_total",
                "Candidates dropped by sleep-set filtering, summed over all searches.",
            ),
            por_overlap_skips: registry.counter(
                "ezrt_search_por_overlap_skips_total",
                "Subtrees dropped by the shared expansion registry of parallel workers.",
            ),
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
    metrics.states.add(stats.states_visited as u64);
    metrics.backtracks.add(stats.backtracks as u64);
    metrics.steals.add(stats.steals as u64);
    metrics
        .por_stubborn_skips
        .add(stats.por_stubborn_skips as u64);
    metrics.por_sleep_skips.add(stats.por_sleep_skips as u64);
    metrics
        .por_overlap_skips
        .add(stats.por_overlap_skips as u64);
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
            steals: 3,
            elapsed: Duration::from_millis(10),
            ..SearchStats::default()
        };
        record_search(&stats);
        let metrics = engine_metrics();
        assert!(metrics.runs.get() > before);
        assert!(metrics.states.get() >= 100);
        let rendered = ezrt_obs::render_prometheus(&[ezrt_obs::global()]);
        assert!(rendered.contains("ezrt_search_runs_total"), "{rendered}");
        assert!(
            rendered.contains("ezrt_search_elapsed_micros_bucket"),
            "{rendered}"
        );
    }
}
