//! The timeline's per-instance index answers exactly what a scan of its
//! slices would: `instance_start`, `instance_completion`,
//! `instance_execution` and `instance_slice_count` are checked against
//! the scanning definitions kept here as the reference, on every
//! feasible corpus spec, on a schedule from each generated spec family
//! and on hand-built fixtures the synthesizer never produces.

use ezrealtime::compose::translate;
use ezrealtime::core::Project;
use ezrealtime::scheduler::{synthesize, SchedulerConfig, Slice, Timeline};
use ezrealtime::spec::generate::{family_spec, Family};
use ezrealtime::spec::{EzSpec, ProcessorId, TaskId, Time};

/// What a scan of every slice says about `(task, instance)`: first
/// start, last end, executed time and slice count.
fn scanned(
    timeline: &Timeline,
    task: TaskId,
    instance: u64,
) -> (Option<Time>, Option<Time>, Time, usize) {
    let of = || {
        timeline
            .slices()
            .iter()
            .filter(move |s| s.task == task && s.instance == instance)
    };
    (
        of().map(|s| s.start).min(),
        of().map(|s| s.end).max(),
        of().map(Slice::duration).sum(),
        of().count(),
    )
}

/// What the index says about `(task, instance)`.
fn indexed(
    timeline: &Timeline,
    task: TaskId,
    instance: u64,
) -> (Option<Time>, Option<Time>, Time, usize) {
    (
        timeline.instance_start(task, instance),
        timeline.instance_completion(task, instance),
        timeline.instance_execution(task, instance),
        timeline.instance_slice_count(task, instance),
    )
}

/// Compares index and scan on every `(task, instance)` a slice names,
/// on each of `tasks`' instances `0..=instances` (one past the schedule
/// period included), and on `extra` queries.
fn assert_index_matches_scan(
    label: &str,
    timeline: &Timeline,
    tasks: &[(TaskId, u64)],
    extra: &[(TaskId, u64)],
) {
    let named = timeline.slices().iter().map(|s| (s.task, s.instance));
    let per_task = tasks
        .iter()
        .flat_map(|&(task, instances)| (0..=instances).map(move |k| (task, k)));
    let mut queries = 0;
    for (task, instance) in named.chain(per_task).chain(extra.iter().copied()) {
        assert_eq!(
            indexed(timeline, task, instance),
            scanned(timeline, task, instance),
            "{label}: {task:?} instance {instance}"
        );
        queries += 1;
    }
    assert!(queries > 0, "{label}: nothing was compared");
}

fn tasks_of(spec: &EzSpec) -> Vec<(TaskId, u64)> {
    spec.tasks()
        .map(|(task, _)| (task, spec.instances_of(task)))
        .collect()
}

fn check_synthesized(label: &str, spec: &EzSpec) {
    let tasknet = translate(spec);
    let synthesis = synthesize(&tasknet, &SchedulerConfig::default())
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    let timeline = Timeline::from_schedule(&tasknet, &synthesis.schedule);
    assert_index_matches_scan(label, &timeline, &tasks_of(spec), &[]);
    // The same slices assembled by hand index identically.
    let rebuilt = Timeline::from_slices(timeline.slices().to_vec(), timeline.hyperperiod());
    assert_eq!(rebuilt, timeline, "{label}: from_slices disagrees");
}

#[test]
fn the_index_matches_a_scan_on_every_feasible_corpus_spec() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .expect("tests/corpus exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| {
            p.file_name()
                .is_some_and(|n| n.to_string_lossy().starts_with("feasible__"))
        })
        .collect();
    paths.sort();
    assert!(paths.len() >= 8, "{} feasible corpus specs", paths.len());
    for path in paths {
        let label = path.file_stem().unwrap().to_string_lossy().into_owned();
        let xml = std::fs::read_to_string(&path).expect("corpus file reads");
        let project = Project::from_dsl(&xml).expect("corpus spec parses");
        check_synthesized(&label, project.spec());
    }
}

#[test]
fn the_index_matches_a_scan_on_every_generated_family() {
    let families = [
        Family::Harmonic {
            tasks: 4,
            base_period: 10,
            utilization: 0.5,
        },
        Family::NearHarmonic {
            tasks: 3,
            base_period: 10,
            utilization: 0.4,
        },
        Family::PrecedenceChain {
            length: 4,
            period: 30,
            utilization: 0.5,
        },
        Family::PrecedenceDiamond {
            width: 3,
            period: 40,
            utilization: 0.5,
        },
        Family::ExclusionClique {
            tasks: 3,
            period: 30,
            utilization: 0.4,
        },
        Family::Multiprocessor {
            tasks: 5,
            processors: 2,
            period: 30,
            utilization: 0.8,
        },
    ];
    let config = SchedulerConfig {
        max_states: 100_000,
        ..SchedulerConfig::default()
    };
    for family in &families {
        // The first seed whose spec is feasible within the budget.
        let (spec, tasknet, synthesis) = (0..64)
            .find_map(|seed| {
                let spec = family_spec(family, seed);
                let tasknet = translate(&spec);
                let synthesis = synthesize(&tasknet, &config).ok()?;
                Some((spec, tasknet, synthesis))
            })
            .unwrap_or_else(|| panic!("{}: no feasible seed", family.name()));
        let timeline = Timeline::from_schedule(&tasknet, &synthesis.schedule);
        assert_index_matches_scan(family.name(), &timeline, &tasks_of(&spec), &[]);
    }
}

fn slice(task: usize, instance: u64, start: Time, end: Time) -> Slice {
    Slice {
        task: TaskId::from_index(task),
        instance,
        processor: ProcessorId::from_index(task % 2),
        start,
        end,
        resumed: false,
    }
}

#[test]
fn the_index_matches_a_scan_on_hand_built_fixtures() {
    let big = u64::MAX;
    // Out of order, with gaps in the instance numbers, instances split
    // into slices that are not adjacent in the input, overlapping
    // slices of one instance, and the largest instance numbers there
    // are.
    let slices = vec![
        slice(1, 5, 40, 42),
        slice(0, 2, 30, 31),
        slice(1, 0, 3, 5),
        slice(0, 0, 0, 2),
        slice(1, big, 90, 95),
        slice(0, 2, 20, 24),
        slice(1, 5, 44, 45),
        slice(0, 0, 6, 7),
        slice(1, big - 1, 80, 81),
        slice(0, 2, 22, 23),
        slice(1, big, 70, 72),
        slice(0, 3, 52, 55),
        slice(0, 3, 50, 60),
    ];
    let (t0, t1) = (TaskId::from_index(0), TaskId::from_index(1));
    let probes: Vec<(TaskId, u64)> = [t0, t1, TaskId::from_index(7)]
        .into_iter()
        .flat_map(|t| {
            [0, 1, 2, 3, 4, 5, 6, big - 2, big - 1, big]
                .into_iter()
                .map(move |k| (t, k))
        })
        .collect();
    let forward = Timeline::from_slices(slices.clone(), 100);
    assert_index_matches_scan("fixture", &forward, &[], &probes);
    let reversed = Timeline::from_slices(slices.into_iter().rev(), 100);
    assert_index_matches_scan("reversed fixture", &reversed, &[], &probes);
    assert_eq!(forward.instance_slice_count(t0, 2), 3);
    assert_eq!(forward.instance_start(t0, 2), Some(20));
    assert_eq!(forward.instance_completion(t0, 2), Some(31));
    assert_eq!(forward.instance_completion(t0, 3), Some(60));
    assert_eq!(forward.instance_execution(t1, big), 7);
    assert_eq!(forward.instance_start(t1, 1), None);
    assert_eq!(forward.instance_execution(t1, 1), 0);

    let empty = Timeline::from_slices([], 10);
    assert_index_matches_scan("empty", &empty, &[(t0, 3)], &probes);
}
