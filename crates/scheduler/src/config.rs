//! Search configuration.

pub use ezrt_tpn::DelayMode;

/// The fan-out width of `ezrt batch`, `ezrt sweep` and `POST /v1/sweep`
/// (the CLI's `--jobs`): how many specs or sweep points are synthesized
/// at once. Each of them runs one sequential search, so the width never
/// changes a result, only how many run side by side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Parallelism {
    jobs: usize,
}

impl Parallelism {
    /// One spec or point at a time.
    pub const SEQUENTIAL: Parallelism = Parallelism { jobs: 1 };

    /// `jobs` at a time; zero is clamped to one.
    pub fn new(jobs: usize) -> Self {
        Parallelism { jobs: jobs.max(1) }
    }

    /// The configured width (always ≥ 1).
    pub fn jobs(self) -> usize {
        self.jobs
    }
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism::SEQUENTIAL
    }
}

/// How the depth-first search orders sibling branches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BranchOrdering {
    /// Earliest-deadline-first: candidates are sorted by firing delay,
    /// then by the absolute deadline of the task instance they advance.
    /// The first descent then closely resembles an EDF schedule, which
    /// minimizes backtracking on schedulable sets.
    #[default]
    Edf,
    /// Net order (transition ids): the naive baseline, kept for the
    /// ablation benchmarks.
    Fifo,
}

/// Which partial-order reduction the search applies (paper §4.4.1's
/// state-space reduction, on or off).
///
/// Both levels preserve completeness: `Infeasible` and budget verdicts
/// are identical across levels, and every returned schedule satisfies
/// Def. 3.2 (reduction only prunes *redundant interleavings* of commuting
/// firings, never distinct outcomes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PorLevel {
    /// No reduction: every fireable candidate is explored. The level the
    /// value-typed reference engine implements, so equivalence tests pin
    /// it, and the baseline for the ablation benchmarks.
    Off,
    /// Stubborn-set + sleep-set reduction: a conflict-free bookkeeping
    /// class collapses to its single earliest candidate, a partially
    /// conflicting one is cut down to a dependency-closed stubborn
    /// subset, and sleep sets threaded through the DFS skip sibling
    /// interleavings already explored in a commuting order. Never
    /// explores more states than [`Off`](PorLevel::Off); the default.
    #[default]
    Stubborn,
}

impl PorLevel {
    /// Parses a CLI/query-string level name.
    pub fn parse(value: &str) -> Option<PorLevel> {
        match value {
            "off" => Some(PorLevel::Off),
            "stubborn" => Some(PorLevel::Stubborn),
            _ => None,
        }
    }

    /// The canonical lowercase name (`off` | `stubborn`).
    pub fn name(self) -> &'static str {
        match self {
            PorLevel::Off => "off",
            PorLevel::Stubborn => "stubborn",
        }
    }
}

impl std::fmt::Display for PorLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Configuration of [`synthesize`](crate::synthesize).
///
/// # Examples
///
/// ```
/// use ezrt_scheduler::{SchedulerConfig, BranchOrdering, PorLevel};
/// use ezrt_tpn::reachability::DelayMode;
///
/// let fast = SchedulerConfig::default();
/// assert_eq!(fast.ordering, BranchOrdering::Edf);
/// assert_eq!(fast.por, PorLevel::Stubborn);
///
/// let exhaustive = SchedulerConfig {
///     delay_mode: DelayMode::Full,
///     por: PorLevel::Off,
///     ..SchedulerConfig::default()
/// };
/// assert_eq!(exhaustive.delay_mode, DelayMode::Full);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulerConfig {
    /// Sibling ordering heuristic.
    pub ordering: BranchOrdering,
    /// How firing delays are enumerated within each firing domain.
    /// [`DelayMode::Earliest`] (fire as soon as permitted) suffices for
    /// the ezRealtime blocks, whose scheduling freedom lives in transition
    /// *choice*; [`DelayMode::Corners`] and [`DelayMode::Full`] add
    /// deliberate procrastination of releases at growing state-space
    /// cost.
    pub delay_mode: DelayMode,
    /// Which partial-order reduction prunes redundant interleavings of
    /// commuting bookkeeping firings.
    pub por: PorLevel,
    /// Abort after visiting this many states.
    pub max_states: usize,
    /// Abort after this much wall-clock time.
    pub max_time: std::time::Duration,
    /// The fan-out width of `batch`, `sweep` and `/v1/sweep`. The search
    /// itself is always sequential and ignores it.
    pub parallelism: Parallelism,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            ordering: BranchOrdering::Edf,
            delay_mode: DelayMode::Earliest,
            por: PorLevel::Stubborn,
            max_states: 5_000_000,
            max_time: std::time::Duration::from_secs(300),
            parallelism: Parallelism::SEQUENTIAL,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_configuration_matches_the_paper_setup() {
        let config = SchedulerConfig::default();
        assert_eq!(config.ordering, BranchOrdering::Edf);
        assert_eq!(config.delay_mode, DelayMode::Earliest);
        assert_eq!(config.por, PorLevel::Stubborn);
        assert!(config.max_states >= 1_000_000);
        assert_eq!(config.parallelism, Parallelism::SEQUENTIAL);
    }

    #[test]
    fn parallelism_clamps_and_defaults() {
        assert_eq!(Parallelism::default(), Parallelism::SEQUENTIAL);
        assert_eq!(Parallelism::new(0).jobs(), 1);
        assert_eq!(Parallelism::new(4).jobs(), 4);
    }

    #[test]
    fn config_is_cloneable_and_comparable() {
        let a = SchedulerConfig::default();
        let b = a.clone();
        assert_eq!(a, b);
    }

    #[test]
    fn por_levels_round_trip_their_names() {
        for level in [PorLevel::Off, PorLevel::Stubborn] {
            assert_eq!(PorLevel::parse(level.name()), Some(level));
            assert_eq!(level.to_string(), level.name());
        }
        assert_eq!(PorLevel::parse("aggressive"), None);
        assert_eq!(PorLevel::parse("classic"), None, "retired level");
    }
}
