//! Differential fuzzing over the generated spec families: every
//! synthesis backend — the value-typed reference kernel, the packed
//! production kernel and its warm-started (seeded) form — must agree on
//! random workloads, and every feasible schedule must survive the
//! independent simulation oracle.
//!
//! The vendored proptest derives its RNG from the test name alone, so
//! these cases are byte-for-byte reproducible in CI with no seed
//! plumbing.

use ezrealtime::artifacts::project_digest;
use ezrealtime::compose::translate;
use ezrealtime::core::Project;
use ezrealtime::scheduler::{
    synthesize, synthesize_reference, synthesize_seeded, PorLevel, SchedulerConfig, SynthesizeError,
};
use ezrealtime::sim::replay;
use ezrealtime::spec::generate::{family_spec, Family};
use proptest::prelude::*;

/// Random members of every generated family, sized so a single case
/// synthesizes in milliseconds: 2–4 tasks over small periods.
fn family() -> impl Strategy<Value = (Family, u64)> {
    (0usize..6, 2usize..5, 8u64..24, 0.2f64..0.7, any::<u64>()).prop_map(
        |(kind, tasks, period, utilization, seed)| {
            let family = match kind {
                0 => Family::Harmonic {
                    tasks,
                    base_period: period,
                    utilization,
                },
                1 => Family::NearHarmonic {
                    tasks,
                    base_period: period,
                    utilization,
                },
                2 => Family::PrecedenceChain {
                    length: tasks,
                    period,
                    utilization,
                },
                3 => Family::PrecedenceDiamond {
                    width: tasks,
                    period: period * 4, // room for source + width + sink
                    utilization,
                },
                4 => Family::ExclusionClique {
                    tasks,
                    period: period * 2, // serialized tasks need slack
                    utilization,
                },
                _ => Family::Multiprocessor {
                    tasks,
                    processors: 1 + tasks % 2,
                    period,
                    utilization,
                },
            };
            (family, seed)
        },
    )
}

/// A budget generous enough that tiny specs always reach a real
/// verdict: budget exhaustion would otherwise let two backends
/// "diverge" merely by counting states differently near the cliff.
/// Byte-identity against the reference kernel is contracted with
/// partial-order reduction off (the reference implements none); the
/// stubborn level gets its own soundness arm below.
fn config() -> SchedulerConfig {
    SchedulerConfig {
        max_states: 200_000,
        por: PorLevel::Off,
        ..SchedulerConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The packed kernel is observably identical to the reference
    /// kernel on random family members: byte-identical schedules and
    /// counters when feasible, matching verdicts and infeasibility
    /// proofs when not — and every feasible schedule replays through
    /// the simulation oracle.
    #[test]
    fn backends_agree_on_random_families((family, seed) in family()) {
        let spec = family_spec(&family, seed);
        let label = format!("{} seed {seed}", family.name());
        let tasknet = translate(&spec);
        let config = config();

        let packed = synthesize(&tasknet, &config);
        let reference = synthesize_reference(&tasknet, &config);
        match (&packed, &reference) {
            (Ok(packed), Ok(reference)) => {
                prop_assert_eq!(&packed.schedule, &reference.schedule, "{}: schedules", label);
                prop_assert_eq!(
                    packed.stats.states_visited,
                    reference.stats.states_visited,
                    "{}: states", label
                );
                prop_assert_eq!(
                    packed.stats.backtracks, reference.stats.backtracks,
                    "{}: backtracks", label
                );
                let report = replay(&tasknet, &packed.schedule)
                    .map_err(|e| format!("{label}: oracle rejects schedule: {e}"));
                prop_assert!(report.is_ok(), "{:?}", report);
            }
            (Err(packed), Err(reference)) => {
                prop_assert_eq!(
                    std::mem::discriminant(packed),
                    std::mem::discriminant(reference),
                    "{}: error kinds diverge: {} vs {}", label, packed, reference
                );
                if let (
                    SynthesizeError::Infeasible { missed_tasks: a, .. },
                    SynthesizeError::Infeasible { missed_tasks: b, .. },
                ) = (packed, reference)
                {
                    prop_assert_eq!(a, b, "{}: missed tasks", label);
                }
            }
            (packed, reference) => {
                prop_assert!(
                    false,
                    "{}: verdicts diverge: packed ok={} reference ok={}",
                    label, packed.is_ok(), reference.is_ok()
                );
            }
        }

        // Stubborn-set + sleep-set reduction must reach the same verdict
        // and infeasibility proof as the unreduced search while never
        // visiting more states — and its schedules must satisfy the same
        // simulation oracle.
        let stubborn = synthesize(
            &tasknet,
            &SchedulerConfig { por: PorLevel::Stubborn, ..config.clone() },
        );
        match (&stubborn, &packed) {
            (Ok(stubborn), Ok(off)) => {
                prop_assert!(
                    stubborn.stats.states_visited <= off.stats.states_visited,
                    "{}: stubborn visited more states ({} vs {})",
                    label, stubborn.stats.states_visited, off.stats.states_visited
                );
                let report = replay(&tasknet, &stubborn.schedule)
                    .map_err(|e| format!("{label}: oracle rejects stubborn schedule: {e}"));
                prop_assert!(report.is_ok(), "{:?}", report);
            }
            (Err(stubborn), Err(off)) => {
                prop_assert_eq!(
                    std::mem::discriminant(stubborn),
                    std::mem::discriminant(off),
                    "{}: stubborn error kind diverges: {} vs {}", label, stubborn, off
                );
                if let (
                    SynthesizeError::Infeasible { missed_tasks: a, .. },
                    SynthesizeError::Infeasible { missed_tasks: b, .. },
                ) = (stubborn, off)
                {
                    prop_assert_eq!(a, b, "{}: stubborn missed tasks", label);
                }
            }
            (stubborn, off) => {
                prop_assert!(
                    false,
                    "{}: stubborn verdict diverges: stubborn ok={} off ok={}",
                    label, stubborn.is_ok(), off.is_ok()
                );
            }
        }

        // Warm-starting a search with its own cold schedule is the
        // degenerate incremental case: a pure replay, zero fresh states,
        // the very same schedule back.
        if let Ok(cold) = &packed {
            let seeded = synthesize_seeded(&tasknet, &config, cold.schedule.firings());
            let seeded = seeded.map_err(|e| format!("{label}: self-seed failed: {e}"));
            prop_assert!(seeded.is_ok(), "{:?}", seeded);
            let seeded = seeded.unwrap();
            prop_assert_eq!(&seeded.schedule, &cold.schedule, "{}: self-seed schedule", label);
            prop_assert_eq!(seeded.stats.states_visited, 0, "{}: self-seed states", label);
        }
    }

    /// Print → parse is a fixed point on random family members: the
    /// reparsed spec is structurally equal, re-printing is
    /// byte-identical, and the canonical digest survives the trip.
    #[test]
    fn dsl_roundtrip_is_a_fixed_point((family, seed) in family()) {
        let spec = family_spec(&family, seed);
        let label = format!("{} seed {seed}", family.name());

        let xml = ezrealtime::dsl::to_xml(&spec);
        let reparsed = ezrealtime::dsl::from_xml(&xml)
            .map_err(|e| format!("{label}: own XML rejected: {e}"));
        prop_assert!(reparsed.is_ok(), "{:?}", reparsed);
        let reparsed = reparsed.unwrap();
        prop_assert_eq!(&reparsed, &spec, "{}: reparse differs", label);
        prop_assert_eq!(
            ezrealtime::dsl::to_xml(&reparsed), xml,
            "{}: reprint is not byte-identical", label
        );

        let before = Project::new(spec);
        let after = Project::new(reparsed);
        prop_assert_eq!(before.canonical_bytes(), after.canonical_bytes(), "{}", label);
        prop_assert_eq!(project_digest(&before), project_digest(&after), "{}", label);
    }
}
