//! Search statistics, mirroring the measurements reported in paper §5,
//! and the one table of search counters every surface reports from.

use std::time::Duration;

/// One search counter of [`SearchStats`] and the surfaces it feeds.
/// [`SearchStats::COUNTERS`] lists them all, in field order; the report,
/// the disk codec, the engine metrics and the server's per-miss counters
/// iterate it instead of naming counters.
#[derive(Debug, Clone, Copy)]
pub struct SearchCounter {
    /// The [`SearchStats`] field name; also the counter's `/v1/stats`
    /// key when it has a [`server_family`](Self::server_family).
    pub field: &'static str,
    /// Its key in the `schedule --json` report, if it is reported there.
    pub report_key: Option<&'static str>,
    /// The process-wide `ezrt_search_*` family summing it over every
    /// search, if any.
    pub engine_family: Option<&'static str>,
    /// The per-server family summing it over every search the server runs, if any.
    pub server_family: Option<&'static str>,
    /// The help text of every family the counter feeds.
    pub help: &'static str,
    /// Reads the counter.
    pub get: fn(&SearchStats) -> u64,
    /// Overwrites the counter.
    pub set: fn(&mut SearchStats, u64),
}

/// Defines [`SearchStats`] from one line per counter: field, type,
/// default, report key, engine family, server family, help.
macro_rules! search_counters {
    ($(
        $(#[$doc:meta])*
        $field:ident: $ty:ty = $default:literal,
            $report:expr, $engine:expr, $server:expr, $help:literal;
    )*) => {
        /// Counters collected by one [`synthesize`](crate::synthesize) run.
        ///
        /// The paper reports for the mine pump: *"searched 3268 states
        /// (where minimum number of states is 3130) in 330 ms"*. The
        /// corresponding fields here are
        /// [`states_visited`](Self::states_visited),
        /// [`minimum_states`](Self::minimum_states) and
        /// [`elapsed`](Self::elapsed); this reproduction's block encoding
        /// fires six transitions per non-preemptive instance where the
        /// paper's fires about four, so absolute counts differ by a
        /// constant factor while the visited-to-minimum ratio is
        /// comparable.
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub struct SearchStats {
            $($(#[$doc])* pub $field: $ty,)*
            /// Wall-clock time spent searching.
            pub elapsed: Duration,
        }

        impl Default for SearchStats {
            fn default() -> Self {
                SearchStats {
                    $($field: $default,)*
                    elapsed: Duration::ZERO,
                }
            }
        }

        impl SearchStats {
            /// Every counter, in field order (the disk codec's slot order).
            pub const COUNTERS: &'static [SearchCounter] = &[$(SearchCounter {
                field: stringify!($field),
                report_key: $report,
                engine_family: $engine,
                server_family: $server,
                help: $help,
                get: |stats| stats.$field as u64,
                set: |stats, value| stats.$field = value as $ty,
            },)*];
        }
    };
}

// Columns: field: type = default, report key, engine family, server
// family, help. Adding a counter is one entry here plus a test.
search_counters! {
    /// Distinct states generated by the search, counting the initial
    /// state and pruned (deadline-missing / dead) successors.
    states_visited: usize = 0, Some("states_visited"), Some("ezrt_search_states_total"), None,
        "States visited, counting the initial state and pruned successors.";
    /// Length of the feasible firing schedule found (number of firings),
    /// or the deepest depth reached when infeasible.
    schedule_length: usize = 0, None, None, None,
        "Firings in the schedule found.";
    /// The forced lower bound on the schedule length: every
    /// deadline-respecting run fires exactly this many transitions (see
    /// `TaskNet::minimum_firing_count`). `minimum_states` is this plus
    /// one (states on the path, including the initial state).
    minimum_firings: u64 = 0, None, None, None,
        "Firings every deadline-respecting run makes.";
    /// Number of backtracking steps (frames popped after exhausting their
    /// candidates).
    backtracks: usize = 0, Some("backtracks"), Some("ezrt_search_backtracks_total"), None,
        "Backtracking steps: frames popped after exhausting their candidates.";
    /// Successor states discarded because a deadline-miss place was
    /// marked.
    pruned_misses: usize = 0, Some("pruned_misses"), None, None,
        "Successors discarded because a deadline-miss place was marked.";
    /// Successor states discarded because they were already proven dead.
    pruned_dead: usize = 0, Some("pruned_dead"), None, None,
        "Successors discarded because they were already proven dead.";
    /// Non-final deadlock states encountered.
    deadlocks: usize = 0, None, None, None,
        "Non-final deadlock states encountered.";
    /// States proven dead (exhausted, deadline-missing or deadlocked) and
    /// memoized for pruning.
    dead_states: usize = 0, Some("dead_states"), None, None,
        "States proven dead and memoized for pruning.";
    /// Bytes this search reserved for its duplicate-detection structures
    /// when it ended: the interned state arena plus the dead-state index.
    /// These structures only grow, so this is also their peak size. It is
    /// exactly what a fresh arena and index reserve for the same run, even
    /// when the search reused a finished search's memory; a recycled
    /// buffer's extra capacity belongs to the `ezrt_search_spare_bytes`
    /// gauge.
    dead_set_bytes: usize = 0, Some("peak_dead_set_bytes"), None, None,
        "Bytes the search reserved for its state arena and dead-state index, as a fresh arena reserves them; recycled capacity beyond that is in ezrt_search_spare_bytes.";
    /// Always 0: every search is sequential. A table row with no report
    /// key and no metric family, kept only because
    /// `perfbench/src/layers.rs::parallel_gate` reads it; it goes when
    /// that gate's rows are retired.
    steals: usize = 0, None, None, None,
        "Always 0: no search steals work.";
    /// 1 when a warm-start seed was accepted (at least one seeded firing
    /// replayed) by [`synthesize_seeded`](crate::synthesize_seeded), else
    /// 0. On seeded runs [`states_visited`](Self::states_visited) counts
    /// only *fresh* search states — zero when the seed replayed to the
    /// final marking verbatim.
    incr_seed_hits: usize = 0, Some("incr_seed_hits"), None, Some("ezrt_incr_seed_hits_total"),
        "Searches warm-started from an ancestor's schedule prefix.";
    /// Number of seeded firings replayed before the search took over
    /// (the warm prefix length). 0 on cold runs and rejected seeds.
    incr_replayed: usize = 0, Some("incr_replayed"), None, Some("ezrt_incr_replayed_total"),
        "Seeded firings replayed before the search took over.";
    /// States the warm start avoided relative to the ancestor run the
    /// seed came from. The scheduler itself leaves this 0 — it is filled
    /// by layers that know the ancestor's own `states_visited` (the
    /// artifact cache), as `ancestor.states_visited - states_visited`.
    incr_states_saved: usize = 0, Some("incr_states_saved"), None, Some("ezrt_incr_states_saved_total"),
        "States warm starts avoided visiting, relative to their ancestor's run.";
    /// Candidate labels dropped by stubborn-set reduction (a partially
    /// conflicting bookkeeping class cut to its dependency-closed subset,
    /// or a conflict-free class collapsed to one candidate). 0 below
    /// [`PorLevel::Stubborn`](crate::PorLevel::Stubborn).
    por_stubborn_skips: usize = 0, Some("por_stubborn_skips"), Some("ezrt_search_por_stubborn_skips_total"), Some("ezrt_http_por_stubborn_skips_total"),
        "Candidates dropped by stubborn-set reduction.";
    /// Candidate labels dropped because they were in a frame's sleep set
    /// (their subtree was already explored in a commuting sibling order).
    /// 0 below [`PorLevel::Stubborn`](crate::PorLevel::Stubborn).
    por_sleep_skips: usize = 0, Some("por_sleep_skips"), Some("ezrt_search_por_sleep_skips_total"), Some("ezrt_http_por_sleep_skips_total"),
        "Candidates dropped by sleep-set filtering.";
}

impl SearchStats {
    /// States on a minimal feasible path, including the initial state —
    /// the paper's "minimum number of states".
    pub fn minimum_states(&self) -> u64 {
        self.minimum_firings + 1
    }

    /// `states_visited / minimum_states`: 1.0 means the very first
    /// depth-first descent succeeded without any wasted exploration.
    pub fn overhead_ratio(&self) -> f64 {
        if self.minimum_states() == 0 {
            return 0.0;
        }
        self.states_visited as f64 / self.minimum_states() as f64
    }

    /// Exploration throughput in states per second, the benchmark
    /// harness's primary kernel metric. Zero when no time was measured.
    pub fn states_per_second(&self) -> f64 {
        let seconds = self.elapsed.as_secs_f64();
        if seconds <= 0.0 {
            return 0.0;
        }
        self.states_visited as f64 / seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimum_states_is_firings_plus_one() {
        let stats = SearchStats {
            minimum_firings: 3129,
            ..SearchStats::default()
        };
        assert_eq!(stats.minimum_states(), 3130);
    }

    #[test]
    fn overhead_ratio_matches_the_paper_example() {
        let stats = SearchStats {
            states_visited: 3268,
            minimum_firings: 3129,
            ..SearchStats::default()
        };
        let ratio = stats.overhead_ratio();
        assert!((ratio - 3268.0 / 3130.0).abs() < 1e-12);
        assert!(ratio > 1.0 && ratio < 1.1);
    }

    #[test]
    fn states_per_second_uses_elapsed_time() {
        let stats = SearchStats {
            states_visited: 5000,
            elapsed: Duration::from_millis(500),
            ..SearchStats::default()
        };
        assert!((stats.states_per_second() - 10_000.0).abs() < 1e-9);
        assert_eq!(SearchStats::default().states_per_second(), 0.0);
    }

    #[test]
    fn zero_minimum_gives_zero_ratio() {
        let stats = SearchStats {
            states_visited: 10,
            ..SearchStats::default()
        };
        // minimum_firings = 0 → minimum_states = 1, ratio = 10.
        assert!((stats.overhead_ratio() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn every_counter_reads_and_writes_its_own_field() {
        let mut stats = SearchStats::default();
        for (slot, counter) in SearchStats::COUNTERS.iter().enumerate() {
            (counter.set)(&mut stats, 100 + slot as u64);
        }
        for (slot, counter) in SearchStats::COUNTERS.iter().enumerate() {
            assert_eq!(
                (counter.get)(&stats),
                100 + slot as u64,
                "{}",
                counter.field
            );
        }
        assert_eq!(stats.states_visited, 100);
        assert_eq!(stats.por_sleep_skips, 99 + SearchStats::COUNTERS.len());
    }

    #[test]
    fn table_names_are_unique() {
        let mut names: Vec<&str> = Vec::new();
        for counter in SearchStats::COUNTERS {
            names.push(counter.field);
            names.extend(counter.report_key);
            names.extend(counter.engine_family);
            names.extend(counter.server_family);
        }
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        // A report key may repeat its own field name, nothing else.
        let repeats = SearchStats::COUNTERS
            .iter()
            .filter(|counter| counter.report_key == Some(counter.field))
            .count();
        assert_eq!(names.len(), count - repeats);
    }
}
