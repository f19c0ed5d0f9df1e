//! Deadline-boundary races: the priority scheme (`ezrt_compose::priority`) promises
//! that completing *exactly at* the deadline counts as met, including
//! when the deadline coincides with the next arrival (`d == p`). These
//! tests pin those races down.

use ezrt_compose::translate;
use ezrt_scheduler::{synthesize, validate, SchedulerConfig, Timeline};
use ezrt_spec::SpecBuilder;

fn solve(spec: &ezrt_spec::EzSpec) -> ezrt_scheduler::Synthesis {
    synthesize(&translate(spec), &SchedulerConfig::default())
        .unwrap_or_else(|e| panic!("{}: {e}", spec.name()))
}

#[test]
fn full_utilization_task_completes_exactly_at_each_deadline() {
    // c = d = p: every instance fills its whole period and completes at
    // the very instant the watcher would fire and the next instance
    // arrives. Feasible only because t_c (decision) beats t_d (miss) and
    // t_pc (disarm) beats t_a (arrival) at the shared timestamp.
    let spec = SpecBuilder::new("full-util")
        .task("wall", |t| t.computation(5).deadline(5).period(5))
        .build()
        .unwrap();
    let synthesis = solve(&spec);
    let tasknet = translate(&spec);
    let timeline = Timeline::from_schedule(&tasknet, &synthesis.schedule);
    assert!(validate::check(&spec, &timeline).is_empty());
    let wall = spec.task_id("wall").unwrap();
    // Back-to-back slices [0,5), [5,10), [15,20)… wait, hyperperiod 5:
    // exactly one instance.
    assert_eq!(timeline.instance_start(wall, 0), Some(0));
    assert_eq!(timeline.instance_completion(wall, 0), Some(5));
}

#[test]
fn two_tasks_fill_the_period_back_to_back() {
    // Combined utilization 1.0 with d == p on both: the second task
    // completes exactly at the shared deadline/arrival boundary.
    let spec = SpecBuilder::new("tight-pair")
        .task("first", |t| t.computation(2).deadline(6).period(6))
        .task("second", |t| t.computation(4).deadline(6).period(6))
        .build()
        .unwrap();
    let synthesis = solve(&spec);
    let tasknet = translate(&spec);
    let timeline = Timeline::from_schedule(&tasknet, &synthesis.schedule);
    assert!(validate::check(&spec, &timeline).is_empty());
    // All 6 units of the period are busy.
    let busy: u64 = timeline.slices().iter().map(|s| s.end - s.start).sum();
    assert_eq!(busy, 6);
}

#[test]
fn phase_offsets_shift_the_whole_lifecycle() {
    let spec = SpecBuilder::new("phased")
        .task("late", |t| t.phase(7).computation(2).deadline(4).period(10))
        .task("early", |t| t.computation(2).deadline(4).period(10))
        .build()
        .unwrap();
    let synthesis = solve(&spec);
    let tasknet = translate(&spec);
    let timeline = Timeline::from_schedule(&tasknet, &synthesis.schedule);
    assert!(validate::check(&spec, &timeline).is_empty());
    let late = spec.task_id("late").unwrap();
    let early = spec.task_id("early").unwrap();
    // early runs within [0, 4); late within [7, 11).
    assert!(timeline.instance_start(early, 0).unwrap() <= 2);
    assert!(timeline.instance_start(late, 0).unwrap() >= 7);
    assert!(timeline.instance_completion(late, 0).unwrap() <= 11);
}

#[test]
fn release_offsets_delay_starts_within_the_period() {
    let spec = SpecBuilder::new("released")
        .task("r3", |t| t.release(3).computation(2).deadline(8).period(10))
        .build()
        .unwrap();
    let synthesis = solve(&spec);
    let tasknet = translate(&spec);
    let timeline = Timeline::from_schedule(&tasknet, &synthesis.schedule);
    let r3 = spec.task_id("r3").unwrap();
    assert!(timeline.instance_start(r3, 0).unwrap() >= 3);
    assert!(validate::check(&spec, &timeline).is_empty());
}

#[test]
fn deadline_equal_to_period_boundary_respects_every_instance() {
    // Several instances whose completions can legally touch arrival
    // instants of the *next* instance; the watcher bookkeeping must not
    // leak across instances.
    let spec = SpecBuilder::new("boundary-train")
        .task("train", |t| t.computation(3).deadline(4).period(4))
        .task("gap", |t| t.computation(1).deadline(8).period(8))
        .build()
        .unwrap();
    let synthesis = solve(&spec);
    let tasknet = translate(&spec);
    let timeline = Timeline::from_schedule(&tasknet, &synthesis.schedule);
    let violations = validate::check(&spec, &timeline);
    assert!(violations.is_empty(), "{violations:?}");
    // Hyperperiod 8: two train instances plus one gap instance = 7 busy.
    let busy: u64 = timeline.slices().iter().map(|s| s.end - s.start).sum();
    assert_eq!(busy, 7);
}
