//! The packed-kernel search must be observably identical to the preserved
//! value-typed reference search: byte-identical schedules, identical
//! search counters, identical verdicts — across the corpus and across
//! configurations.

use ezrt_compose::translate;
use ezrt_scheduler::{
    synthesize, synthesize_reference, BranchOrdering, PorLevel, SchedulerConfig, SynthesizeError,
};
use ezrt_spec::corpus::{figure3_spec, figure4_spec, figure8_spec, small_control};
use ezrt_spec::generate::{synthetic_spec, WorkloadConfig};
use ezrt_spec::EzSpec;
use ezrt_tpn::DelayMode;

fn assert_equivalent(spec: &EzSpec, config: &SchedulerConfig, label: &str) {
    // The reference engine implements no partial-order reduction, so
    // byte-identity is contracted at `Off`; stubborn-set soundness is
    // checked separately below.
    let config = SchedulerConfig {
        por: PorLevel::Off,
        ..config.clone()
    };
    let config = &config;
    let tasknet = translate(spec);
    let packed = synthesize(&tasknet, config);
    let reference = synthesize_reference(&tasknet, config);
    match (packed, reference) {
        (Ok(packed), Ok(reference)) => {
            assert_eq!(
                packed.schedule, reference.schedule,
                "{label}: schedules diverge"
            );
            assert_eq!(
                packed.stats.states_visited, reference.stats.states_visited,
                "{label}: states_visited diverge"
            );
            assert_eq!(
                packed.stats.backtracks, reference.stats.backtracks,
                "{label}: backtracks diverge"
            );
            assert_eq!(
                packed.stats.pruned_dead, reference.stats.pruned_dead,
                "{label}: pruned_dead diverge"
            );
            assert_eq!(
                packed.stats.pruned_misses, reference.stats.pruned_misses,
                "{label}: pruned_misses diverge"
            );
            assert_eq!(
                packed.stats.deadlocks, reference.stats.deadlocks,
                "{label}: deadlocks diverge"
            );
            assert_eq!(
                packed.stats.dead_states, reference.stats.dead_states,
                "{label}: dead_states diverge"
            );
        }
        (Err(packed), Err(reference)) => {
            match (&packed, &reference) {
                (
                    SynthesizeError::Infeasible {
                        missed_tasks: a, ..
                    },
                    SynthesizeError::Infeasible {
                        missed_tasks: b, ..
                    },
                ) => assert_eq!(a, b, "{label}: missed tasks diverge"),
                (
                    SynthesizeError::StateLimitExceeded { .. },
                    SynthesizeError::StateLimitExceeded { .. },
                ) => {}
                (a, b) => panic!("{label}: error kinds diverge: {a} vs {b}"),
            }
            assert_eq!(
                packed.stats().states_visited,
                reference.stats().states_visited,
                "{label}: states_visited diverge on failure"
            );
        }
        (packed, reference) => panic!(
            "{label}: verdicts diverge: packed ok={} reference ok={}",
            packed.is_ok(),
            reference.is_ok()
        ),
    }
}

#[test]
fn corpus_schedules_are_byte_identical_with_default_config() {
    for spec in [
        figure3_spec(),
        figure4_spec(),
        figure8_spec(),
        small_control(),
    ] {
        assert_equivalent(&spec, &SchedulerConfig::default(), spec.name());
    }
}

#[test]
fn corpus_schedules_are_byte_identical_with_fifo_ordering() {
    let config = SchedulerConfig {
        ordering: BranchOrdering::Fifo,
        ..SchedulerConfig::default()
    };
    for spec in [
        figure3_spec(),
        figure4_spec(),
        figure8_spec(),
        small_control(),
    ] {
        assert_equivalent(&spec, &config, &format!("{} (fifo)", spec.name()));
    }
}

#[test]
fn corpus_schedules_are_byte_identical_with_corner_delays() {
    let config = SchedulerConfig {
        delay_mode: DelayMode::Corners,
        ..SchedulerConfig::default()
    };
    for spec in [
        figure3_spec(),
        figure4_spec(),
        figure8_spec(),
        small_control(),
    ] {
        assert_equivalent(&spec, &config, &format!("{} (corners)", spec.name()));
    }
}

#[test]
fn schedules_are_byte_identical_without_partial_order_reduction() {
    let config = SchedulerConfig {
        por: PorLevel::Off,
        ..SchedulerConfig::default()
    };
    for spec in [figure3_spec(), small_control()] {
        assert_equivalent(&spec, &config, &format!("{} (por off)", spec.name()));
    }
}

#[test]
fn infeasibility_proofs_are_identical() {
    let overload = ezrt_spec::SpecBuilder::new("overload")
        .task("x", |t| t.computation(3).deadline(4).period(4))
        .task("y", |t| t.computation(2).deadline(4).period(4))
        .build()
        .unwrap();
    assert_equivalent(&overload, &SchedulerConfig::default(), "overload");
}

#[test]
fn state_limit_verdicts_are_identical() {
    let config = SchedulerConfig {
        max_states: 50,
        ..SchedulerConfig::default()
    };
    assert_equivalent(&figure8_spec(), &config, "figure8 (state limit)");
}

/// Stubborn-set reduction only prunes: the same verdict and missed tasks
/// as the unreduced search, a state count that never exceeds it, and
/// schedules that still satisfy the spec's timing constraints.
fn assert_stubborn_sound(spec: &EzSpec, base: &SchedulerConfig, label: &str) {
    let tasknet = translate(spec);
    let off = synthesize(
        &tasknet,
        &SchedulerConfig {
            por: PorLevel::Off,
            ..base.clone()
        },
    );
    let stubborn = synthesize(
        &tasknet,
        &SchedulerConfig {
            por: PorLevel::Stubborn,
            ..base.clone()
        },
    );
    match (stubborn, off) {
        (Ok(stubborn), Ok(off)) => {
            assert!(
                stubborn.stats.states_visited <= off.stats.states_visited,
                "{label}: stubborn visited more states ({} vs {})",
                stubborn.stats.states_visited,
                off.stats.states_visited
            );
            let timeline = ezrt_scheduler::Timeline::from_schedule(&tasknet, &stubborn.schedule);
            let violations = ezrt_scheduler::validate::check(spec, &timeline);
            assert!(
                violations.is_empty(),
                "{label}: stubborn schedule violates the spec: {violations:?}"
            );
        }
        (Err(stubborn), Err(off)) => {
            if let (
                SynthesizeError::Infeasible {
                    missed_tasks: a, ..
                },
                SynthesizeError::Infeasible {
                    missed_tasks: b, ..
                },
            ) = (&stubborn, &off)
            {
                assert_eq!(a, b, "{label}: stubborn missed tasks diverge");
            }
        }
        (stubborn, off) => panic!(
            "{label}: stubborn verdict diverges: stubborn ok={} off ok={}",
            stubborn.is_ok(),
            off.is_ok()
        ),
    }
}

#[test]
fn stubborn_reduction_is_sound_on_the_corpus() {
    for spec in [
        figure3_spec(),
        figure4_spec(),
        figure8_spec(),
        small_control(),
    ] {
        assert_stubborn_sound(&spec, &SchedulerConfig::default(), spec.name());
    }
}

#[test]
fn stubborn_reduction_is_sound_with_fifo_and_corners() {
    for spec in [figure3_spec(), small_control()] {
        assert_stubborn_sound(
            &spec,
            &SchedulerConfig {
                ordering: BranchOrdering::Fifo,
                ..SchedulerConfig::default()
            },
            &format!("{} (fifo)", spec.name()),
        );
        assert_stubborn_sound(
            &spec,
            &SchedulerConfig {
                delay_mode: DelayMode::Corners,
                ..SchedulerConfig::default()
            },
            &format!("{} (corners)", spec.name()),
        );
    }
}

#[test]
fn stubborn_reduction_is_sound_on_synthetic_workloads() {
    let base = SchedulerConfig {
        max_states: 100_000,
        ..SchedulerConfig::default()
    };
    for seed in [1u64, 7, 23, 51, 90] {
        let spec = synthetic_spec(
            &WorkloadConfig {
                tasks: 5,
                total_utilization: 0.6,
                periods: vec![20, 40, 80],
                precedence_probability: 0.2,
                exclusion_probability: 0.2,
                constrained_deadlines: true,
                ..WorkloadConfig::default()
            },
            seed,
        );
        assert_stubborn_sound(&spec, &base, &format!("synthetic seed {seed}"));
    }
}

#[test]
fn synthetic_workloads_stay_equivalent() {
    let config = SchedulerConfig {
        max_states: 100_000,
        ..SchedulerConfig::default()
    };
    for seed in [1u64, 7, 23, 51, 90] {
        let spec = synthetic_spec(
            &WorkloadConfig {
                tasks: 5,
                total_utilization: 0.6,
                periods: vec![20, 40, 80],
                precedence_probability: 0.2,
                exclusion_probability: 0.2,
                constrained_deadlines: true,
                ..WorkloadConfig::default()
            },
            seed,
        );
        assert_equivalent(&spec, &config, &format!("synthetic seed {seed}"));
    }
}
