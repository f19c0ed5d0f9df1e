//! Search memory across searches: every search hands its arena, dead
//! set, DFS frames and path to one process-wide spare slot, and the next
//! search starts on them. Whatever ran before, a search must return
//! exactly what it returns first thing in a fresh process: the same
//! schedule or verdict and every counter but `elapsed`, `dead_set_bytes`
//! included.
//!
//! The fresh results come from child processes: the test binary re-runs
//! itself on one case (`fresh_probe`), so that case's search is the
//! first of its process.

use ezrealtime::compose::{translate, TaskNet};
use ezrealtime::scheduler::{
    synthesize_reference, synthesize_seeded, PorLevel, SchedulerConfig, Synthesis, SynthesizeError,
};
use ezrealtime::spec::corpus::{figure8_spec, mine_pump, small_control};
use ezrealtime::spec::generate::{synthetic_spec, WorkloadConfig};
use ezrealtime::spec::EzSpec;
use std::process::Command;
use std::sync::Barrier;
use std::time::Duration;

/// The variable that tells a child run of this binary which case of
/// [`CASES`] `fresh_probe` runs.
const CASE_VAR: &str = "EZRT_SEARCH_MEMORY_CASE";

#[derive(Debug, Clone, Copy)]
enum Spec {
    /// The 10-task sweep spec of seed 11: an infeasibility proof over
    /// 259,655 states, the largest memory a search here takes.
    BigProof,
    Pump,
    Figure8,
    SmallControl,
}

impl Spec {
    fn build(self) -> EzSpec {
        match self {
            // `ezrt_bench::sweep_spec(10, 11)`.
            Spec::BigProof => synthetic_spec(
                &WorkloadConfig {
                    tasks: 10,
                    total_utilization: 0.55,
                    periods: vec![50, 100, 200, 400],
                    preemptive_fraction: 0.0,
                    precedence_probability: 0.1,
                    exclusion_probability: 0.1,
                    constrained_deadlines: true,
                },
                11,
            ),
            Spec::Pump => mine_pump(),
            Spec::Figure8 => figure8_spec(),
            Spec::SmallControl => small_control(),
        }
    }
}

/// One search: a spec at a reduction level, cold or warm-started from
/// the first half of the reference engine's schedule (a seed that takes
/// no packed search to compute), optionally under a state budget.
#[derive(Debug, Clone, Copy)]
struct Case {
    spec: Spec,
    por: PorLevel,
    seeded: bool,
    max_states: Option<usize>,
}

const fn case(spec: Spec, por: PorLevel, seeded: bool) -> Case {
    Case {
        spec,
        por,
        seeded,
        max_states: None,
    }
}

/// Every case, in the order the back-to-back test runs them: the big
/// proof, then small searches on its oversized memory, cold, seeded and
/// budget-aborted, at both reduction levels.
const CASES: [Case; 13] = [
    case(Spec::BigProof, PorLevel::Stubborn, false),
    case(Spec::Pump, PorLevel::Stubborn, false),
    case(Spec::Figure8, PorLevel::Stubborn, false),
    case(Spec::Pump, PorLevel::Stubborn, false),
    case(Spec::Pump, PorLevel::Stubborn, true),
    case(Spec::Figure8, PorLevel::Stubborn, true),
    Case {
        max_states: Some(1_000),
        ..case(Spec::Pump, PorLevel::Stubborn, false)
    },
    case(Spec::Pump, PorLevel::Off, false),
    case(Spec::Figure8, PorLevel::Off, false),
    case(Spec::Pump, PorLevel::Off, true),
    case(Spec::Figure8, PorLevel::Off, true),
    case(Spec::SmallControl, PorLevel::Off, false),
    case(Spec::SmallControl, PorLevel::Stubborn, true),
];

/// A compiled case: its net, configuration and seed.
struct Prepared {
    tasknet: TaskNet,
    config: SchedulerConfig,
    seed: Vec<ezrealtime::scheduler::ScheduledFiring>,
}

impl Case {
    fn prepare(self) -> Prepared {
        let tasknet = translate(&self.spec.build());
        let config = SchedulerConfig {
            por: self.por,
            max_states: self.max_states.unwrap_or(5_000_000),
            max_time: Duration::from_secs(3_600),
            ..SchedulerConfig::default()
        };
        let seed = if self.seeded {
            let reference = synthesize_reference(&tasknet, &config).expect("feasible");
            let firings = reference.schedule.firings();
            firings[..firings.len() / 2].to_vec()
        } else {
            Vec::new()
        };
        Prepared {
            tasknet,
            config,
            seed,
        }
    }
}

impl Prepared {
    /// The case's verdict and counters, `elapsed` zeroed.
    fn run(&self) -> String {
        settled(synthesize_seeded(&self.tasknet, &self.config, &self.seed))
    }
}

fn settled(result: Result<Synthesis, SynthesizeError>) -> String {
    match result {
        Ok(mut synthesis) => {
            synthesis.stats.elapsed = Duration::ZERO;
            format!("{:?} {:?}", synthesis.schedule, synthesis.stats)
        }
        Err(mut error) => {
            let (SynthesizeError::Infeasible { stats, .. }
            | SynthesizeError::StateLimitExceeded { stats }
            | SynthesizeError::TimeLimitExceeded { stats }) = &mut error;
            stats.elapsed = Duration::ZERO;
            format!("{error:?}")
        }
    }
}

/// The result of `CASES[index]` as the first search of a fresh process.
fn fresh(index: usize) -> String {
    let output = Command::new(std::env::current_exe().expect("test binary"))
        .args(["fresh_probe", "--exact", "--nocapture", "--test-threads=1"])
        .env(CASE_VAR, index.to_string())
        .output()
        .expect("the test binary re-runs");
    let stdout = String::from_utf8(output.stdout).expect("utf-8");
    assert!(output.status.success(), "case {index}: {stdout}");
    stdout
        .lines()
        .find_map(|line| line.split_once("FRESH ").map(|(_, result)| result))
        .unwrap_or_else(|| panic!("case {index} printed no result: {stdout}"))
        .to_owned()
}

/// Runs the case named by [`CASE_VAR`] and prints its result; does
/// nothing when the variable is unset (an ordinary test run).
#[test]
fn fresh_probe() {
    let Ok(index) = std::env::var(CASE_VAR) else {
        return;
    };
    let case = CASES[index.parse::<usize>().expect("case index")];
    println!("FRESH {}", case.prepare().run());
}

/// The cases back to back in this process, each on the memory the ones
/// before it left, against each case run first in a fresh process.
#[test]
fn recycled_searches_match_fresh_ones() {
    let prepared: Vec<Prepared> = CASES.iter().map(|case| case.prepare()).collect();
    for (index, (case, prepared)) in CASES.iter().zip(&prepared).enumerate() {
        assert_eq!(prepared.run(), fresh(index), "case {index}: {case:?}");
    }
}

/// Four threads run twenty searches each through the one spare slot.
/// A barrier starts each round's four searches together, so they contend
/// for the slot, and each result equals the same search run alone.
#[test]
fn concurrent_searches_match_solo_ones() {
    let small: Vec<Prepared> = CASES
        .iter()
        .filter(|case| !matches!(case.spec, Spec::BigProof))
        .map(|case| case.prepare())
        .collect();
    let solo: Vec<String> = small.iter().map(Prepared::run).collect();
    let round = Barrier::new(4);
    // Results are checked after the last round, so a mismatch cannot
    // leave the other threads waiting at the barrier.
    let results: Vec<Vec<(usize, String)>> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..4)
            .map(|thread| {
                let (small, round) = (&small, &round);
                scope.spawn(move || {
                    (0..20)
                        .map(|i| {
                            let which = (thread * 7 + i * 3) % small.len();
                            round.wait();
                            (which, small[which].run())
                        })
                        .collect()
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|thread| thread.join().expect("searches do not panic"))
            .collect()
    });
    for (thread, results) in results.iter().enumerate() {
        for (i, (which, result)) in results.iter().enumerate() {
            assert_eq!(
                result, &solo[*which],
                "thread {thread}, search {i}: case {which}"
            );
        }
    }
}
