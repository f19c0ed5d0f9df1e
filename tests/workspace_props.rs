//! Workspace-level property tests: the whole pipeline — translate,
//! search, timeline, table, DSL, PNML — holds its invariants on random
//! workloads.

use ezrealtime::codegen::ScheduleTable;
use ezrealtime::core::Project;
use ezrealtime::scheduler::SchedulerConfig;
use ezrealtime::spec::generate::{synthetic_spec, WorkloadConfig};
use proptest::prelude::*;

fn workload() -> impl Strategy<Value = (WorkloadConfig, u64)> {
    (
        2usize..6,
        0.2f64..0.8,
        0.0f64..0.3,
        0.0f64..0.3,
        0.0f64..1.0,
        any::<u64>(),
    )
        .prop_map(|(tasks, util, prec, excl, preemptive, seed)| {
            (
                WorkloadConfig {
                    tasks,
                    total_utilization: util,
                    periods: vec![20, 40],
                    preemptive_fraction: preemptive,
                    precedence_probability: prec,
                    exclusion_probability: excl,
                    constrained_deadlines: true,
                },
                seed,
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// End-to-end soundness: when the project synthesizes, the timeline
    /// validates, the table covers every execution part, and both
    /// serialization formats round trip.
    #[test]
    fn pipeline_invariants((config, seed) in workload()) {
        let spec = synthetic_spec(&config, seed);
        let project = Project::new(spec.clone()).with_config(SchedulerConfig {
            max_states: 200_000,
            ..SchedulerConfig::default()
        });
        let Ok(outcome) = project.synthesize() else {
            return Ok(()); // infeasible or over budget: nothing to check
        };

        // 1. Independent validation.
        let violations = outcome.solution.validate();
        prop_assert!(violations.is_empty(), "seed {seed}: {violations:?}");

        // 2. Table ↔ timeline consistency (first processor).
        let cpu = spec.processors().next().unwrap().0;
        let table = ScheduleTable::from_timeline(&spec, outcome.solution.timeline());
        let parts = outcome
            .solution.timeline()
            .slices()
            .iter()
            .filter(|s| s.processor == cpu)
            .count();
        prop_assert_eq!(table.entries().len(), parts);

        // 3. Execution is timely and jitter-free over three periods.
        let report = outcome.solution.execute_for(3);
        prop_assert!(report.is_timely());
        prop_assert_eq!(report.max_release_jitter(), 0);

        // 4. DSL round trip.
        let dsl = project.to_dsl();
        let reloaded = ezrealtime::dsl::from_xml(&dsl).expect("own dsl parses");
        prop_assert_eq!(&reloaded, &spec);

        // 5. PNML round trip of the synthesized net.
        let pnml = outcome.solution.to_pnml();
        let net = ezrealtime::pnml::from_pnml(&pnml).expect("own pnml parses");
        prop_assert_eq!(net.place_count(), outcome.solution.tasknet().net().place_count());
    }

    /// The searched state count never undercuts the forced minimum, and
    /// schedule length equals it exactly when no backtracking happened.
    #[test]
    fn search_accounting((config, seed) in workload()) {
        let spec = synthetic_spec(&config, seed);
        let project = Project::new(spec).with_config(SchedulerConfig {
            max_states: 200_000,
            ..SchedulerConfig::default()
        });
        if let Ok(outcome) = project.synthesize() {
            prop_assert!(outcome.stats.states_visited as u64 >= outcome.stats.minimum_states());
            if outcome.stats.backtracks == 0 {
                prop_assert_eq!(
                    outcome.stats.schedule_length as u64,
                    outcome.stats.minimum_firings
                );
            }
        }
    }
}
