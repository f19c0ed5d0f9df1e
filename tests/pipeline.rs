//! Cross-crate pipeline tests: the Fig. 6 architecture exercised from
//! the DSL all the way to generated code and simulated execution.

use ezrealtime::codegen::Target;
use ezrealtime::core::Project;
use ezrealtime::spec::corpus::{figure3_spec, figure4_spec, figure8_spec, small_control};

#[test]
fn dsl_to_code_to_simulation() {
    // Start from XML, as the original tool's users would.
    let document = ezrealtime::dsl::to_xml(&small_control());
    let project = Project::from_dsl(&document).expect("dsl loads");
    let outcome = project.synthesize().expect("feasible");

    // Independent validation.
    assert!(outcome.solution.validate().is_empty());

    // Code for every target, with the table embedded.
    for target in Target::ALL {
        let code = outcome.solution.generate_code(target);
        assert!(code.source.contains("scheduleTable"));
        assert!(
            code.source.matches("(int *)").count() >= outcome.solution.table().entries().len(),
            "{target}: one pointer per execution part"
        );
    }

    // Simulated dispatch stays timely over many periods.
    let report = outcome.solution.execute_for(10);
    assert!(report.is_timely());
    assert_eq!(report.max_release_jitter(), 0);
}

#[test]
fn pnml_export_of_synthesized_nets_reimports() {
    for spec in [
        figure3_spec(),
        figure4_spec(),
        figure8_spec(),
        small_control(),
    ] {
        let outcome = Project::new(spec.clone()).synthesize().expect("feasible");
        let pnml = outcome.solution.to_pnml();
        let reread = ezrealtime::pnml::from_pnml(&pnml).expect("reimports");
        assert_eq!(
            reread.place_count(),
            outcome.solution.tasknet().net().place_count()
        );
        assert_eq!(
            reread.transition_count(),
            outcome.solution.tasknet().net().transition_count()
        );
    }
}

#[test]
fn figure3_and_figure4_schedules_respect_their_relations() {
    // Fig. 3: T1 precedes T2.
    let outcome = Project::new(figure3_spec()).synthesize().expect("feasible");
    let spec = outcome.solution.spec().clone();
    let t1 = spec.task_id("T1").unwrap();
    let t2 = spec.task_id("T2").unwrap();
    let t1_done = outcome
        .solution
        .timeline()
        .instance_completion(t1, 0)
        .unwrap();
    let t2_start = outcome.solution.timeline().instance_start(t2, 0).unwrap();
    assert!(t1_done <= t2_start);

    // Fig. 4: T0 excludes T2 — execution windows may not interleave.
    let outcome = Project::new(figure4_spec()).synthesize().expect("feasible");
    let spec = outcome.solution.spec().clone();
    let t0 = spec.task_id("T0").unwrap();
    let t2 = spec.task_id("T2").unwrap();
    let (s0, e0) = (
        outcome.solution.timeline().instance_start(t0, 0).unwrap(),
        outcome
            .solution
            .timeline()
            .instance_completion(t0, 0)
            .unwrap(),
    );
    let (s2, e2) = (
        outcome.solution.timeline().instance_start(t2, 0).unwrap(),
        outcome
            .solution
            .timeline()
            .instance_completion(t2, 0)
            .unwrap(),
    );
    assert!(
        e0 <= s2 || e2 <= s0,
        "windows [{s0},{e0}] and [{s2},{e2}] interleave"
    );
}

#[test]
fn dot_export_renders_synthesized_nets() {
    let outcome = Project::new(figure3_spec()).synthesize().expect("feasible");
    let dot = ezrealtime::tpn::dot::to_dot(outcome.solution.tasknet().net());
    assert!(dot.starts_with("digraph"));
    // Key Fig. 3 net elements appear.
    for needle in ["tr0_T1", "tprec_0_1", "pproc_cpu0"] {
        assert!(dot.contains(needle), "missing {needle}");
    }
}

#[test]
fn meta_crate_reexports_compose_a_working_pipeline() {
    // Use only the ezrealtime:: facade, as a downstream user would.
    let spec = ezrealtime::spec::SpecBuilder::new("facade")
        .task("t", |t| t.computation(1).deadline(4).period(8))
        .build()
        .expect("valid");
    let tasknet = ezrealtime::compose::translate(&spec);
    let synthesis = ezrealtime::scheduler::synthesize(
        &tasknet,
        &ezrealtime::scheduler::SchedulerConfig::default(),
    )
    .expect("feasible");
    let timeline = ezrealtime::scheduler::Timeline::from_schedule(&tasknet, &synthesis.schedule);
    assert!(ezrealtime::scheduler::validate::check(&spec, &timeline).is_empty());
    let table = ezrealtime::codegen::ScheduleTable::from_timeline(&spec, &timeline);
    assert_eq!(table.entries().len(), 1);
}
