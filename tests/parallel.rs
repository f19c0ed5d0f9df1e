//! Workspace-level tests that the job count never changes a synthesis:
//! every search is sequential, and `--jobs` only widens the fan-out of
//! `batch`, `sweep` and `/v1/sweep`. Results at any job count pass both
//! independent oracles and equal the one-job result, verdicts included.

use ezrealtime::compose::translate;
use ezrealtime::core::Project;
use ezrealtime::scheduler::{
    synthesize, synthesize_parallel, Parallelism, SchedulerConfig, SynthesizeError,
};
use ezrealtime::sim::replay::replay;
use ezrealtime::spec::corpus::{figure3_spec, figure4_spec, figure8_spec, small_control};

/// Every schedule found at every job count is accepted by both
/// independent oracles: the specification-level validator and the
/// net-semantics replay.
#[test]
fn corpus_parallel_schedules_pass_validate_and_replay() {
    for spec in [
        figure3_spec(),
        figure4_spec(),
        figure8_spec(),
        small_control(),
    ] {
        for jobs in [1usize, 2, 4] {
            let outcome = Project::new(spec.clone())
                .with_jobs(jobs)
                .synthesize()
                .unwrap_or_else(|e| panic!("{} at {jobs} jobs: {e}", spec.name()));
            let violations = outcome.validate();
            assert!(
                violations.is_empty(),
                "{} at {jobs} jobs: {violations:?}",
                spec.name()
            );
            let report = replay(&outcome.tasknet, &outcome.schedule)
                .unwrap_or_else(|e| panic!("{} at {jobs} jobs: {e}", spec.name()));
            assert_eq!(report.firings, outcome.schedule.firings().len());
            assert_eq!(report.makespan, outcome.schedule.makespan());
        }
    }
}

/// `synthesize_parallel` forwards to the sequential search at any job
/// count: byte-identical schedules and identical counters (wall time
/// aside).
#[test]
fn one_job_is_byte_identical_to_sequential_search() {
    for spec in [
        figure3_spec(),
        figure4_spec(),
        figure8_spec(),
        small_control(),
    ] {
        let tasknet = translate(&spec);
        let sequential = synthesize(&tasknet, &SchedulerConfig::default()).expect("feasible");
        for jobs in [1usize, 2, 4] {
            let config = SchedulerConfig {
                parallelism: Parallelism::new(jobs),
                ..SchedulerConfig::default()
            };
            let forwarded = synthesize_parallel(&tasknet, &config).expect("feasible");
            let label = format!("{} at {jobs} jobs", spec.name());
            assert_eq!(forwarded.schedule, sequential.schedule, "{label}");
            assert_eq!(
                forwarded.stats.states_visited, sequential.stats.states_visited,
                "{label}"
            );
            assert_eq!(
                forwarded.stats.backtracks, sequential.stats.backtracks,
                "{label}"
            );
            assert_eq!(
                forwarded.stats.dead_states, sequential.stats.dead_states,
                "{label}"
            );
            assert_eq!(forwarded.stats.steals, 0, "{label}");
        }
    }
}

/// Infeasibility verdicts, diagnosed missed tasks and search counters
/// are the same at every job count.
#[test]
fn infeasibility_verdicts_agree_across_worker_counts() {
    let overload = ezrealtime::spec::SpecBuilder::new("overload")
        .task("x", |t| t.computation(3).deadline(4).period(4))
        .task("y", |t| t.computation(2).deadline(4).period(4))
        .build()
        .unwrap();
    let verdict = |jobs| match Project::new(overload.clone()).with_jobs(jobs).synthesize() {
        Err(SynthesizeError::Infeasible {
            stats,
            missed_tasks,
        }) => (stats.states_visited, stats.backtracks, missed_tasks),
        other => panic!("expected infeasible at {jobs} jobs, got {other:?}"),
    };
    let expected = verdict(1);
    assert!(!expected.2.is_empty());
    for jobs in [2usize, 4] {
        assert_eq!(verdict(jobs), expected, "{jobs} jobs");
    }
}
