//! Integration tests for the `Outcome` artefact surface.

use ezrt_core::Project;
use ezrt_spec::corpus::{figure3_spec, figure8_spec, small_control};

#[test]
fn outcome_spec_accessor_matches_project() {
    let spec = figure3_spec();
    let outcome = Project::new(spec.clone()).synthesize().unwrap();
    assert_eq!(outcome.solution.spec(), &spec);
}

#[test]
fn schedule_and_timeline_agree_on_workload() {
    let outcome = Project::new(figure8_spec()).synthesize().unwrap();
    let solution = &outcome.solution;
    // Sum of compute firings' delays == sum of slice durations == total
    // demand. For preemptive tasks each compute firing advances 1 unit.
    let busy_from_slices: u64 = solution
        .timeline()
        .slices()
        .iter()
        .map(|s| s.end - s.start)
        .sum();
    let demand: u64 = solution
        .spec()
        .tasks()
        .map(|(id, t)| solution.spec().instances_of(id) * t.timing().computation)
        .sum();
    assert_eq!(busy_from_slices, demand);
}

#[test]
fn gantt_respects_window_bounds() {
    let outcome = Project::new(small_control()).synthesize().unwrap();
    let narrow = outcome.solution.gantt(0, 5);
    let wide = outcome.solution.gantt(0, 20);
    // One row per task either way; narrow rows are shorter.
    assert_eq!(narrow.lines().count(), wide.lines().count());
    assert!(narrow.lines().next().unwrap().len() < wide.lines().next().unwrap().len());
}

#[test]
fn pnml_and_dot_share_the_same_net() {
    let outcome = Project::new(small_control()).synthesize().unwrap();
    let net = outcome.solution.tasknet().net();
    let pnml = outcome.solution.to_pnml();
    let dot = ezrt_tpn::dot::to_dot(net);
    // Every transition name that appears in DOT also appears in PNML.
    for (_, transition) in net.transitions() {
        assert!(dot.contains(transition.name()));
        assert!(pnml.contains(transition.name()));
    }
}
