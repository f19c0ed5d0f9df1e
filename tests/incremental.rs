//! Incremental synthesis: structural sub-digests diff two specs
//! task-by-task, and a cached schedule prefix warm-starts the search on
//! the edited spec. These tests pin the two halves of the contract:
//! sub-digests are a function of content, not of XML accidents or task
//! order, and every warm-started result passes the same validator and
//! net-semantics oracle a cold result does.

use ezrealtime::artifacts::{project_digest, structure_digest, task_subdigests};
use ezrealtime::core::Project;
use ezrealtime::dsl::to_xml;
use ezrealtime::scheduler::SchedulerConfig;
use ezrealtime::spec::corpus::mine_pump;
use ezrealtime::spec::generate::{
    family_spec, random_mutation, synthetic_spec, Family, WorkloadConfig,
};
use ezrealtime::spec::{EzSpec, SpecBuilder};
use proptest::prelude::*;

/// A three-task spec with one precedence and one exclusion, built with
/// the tasks declared in the given order and `beta`'s deadline as
/// given — the knobs the structural-diff tests turn.
fn relational_spec(order: &[&str], beta_deadline: u64) -> EzSpec {
    let mut builder = SpecBuilder::new("reorder");
    for &name in order {
        builder = match name {
            "alpha" => builder.task("alpha", |t| t.computation(1).deadline(6).period(12)),
            "beta" => builder.task("beta", |t| {
                t.computation(2)
                    .deadline(beta_deadline)
                    .period(12)
                    .preemptive()
            }),
            "gamma" => builder.task("gamma", |t| t.computation(1).deadline(12).period(12)),
            other => panic!("unknown task {other}"),
        };
    }
    builder
        .precedes("alpha", "beta")
        .excludes("beta", "gamma")
        .build()
        .expect("valid spec")
}

/// Loosens the first `<deadline>N</deadline>` element in an XML
/// document by `delta` — the canonical one-task edit of the warm-start
/// tests.
fn nudge_first_deadline(xml: &str, delta: u64) -> String {
    let key = "<deadline>";
    let at = xml.find(key).expect("a deadline element") + key.len();
    let end = at + xml[at..].find('<').expect("closing tag");
    let value: u64 = xml[at..end].trim().parse().expect("numeric deadline");
    format!("{}{}{}", &xml[..at], value + delta, &xml[end..])
}

#[test]
fn subdigests_and_structure_are_invariant_under_task_reordering() {
    let orders: &[&[&str]] = &[
        &["alpha", "beta", "gamma"],
        &["gamma", "beta", "alpha"],
        &["beta", "gamma", "alpha"],
    ];
    let reference = Project::new(relational_spec(orders[0], 9));
    let mut expected = task_subdigests(&reference);
    expected.sort();
    for order in &orders[1..] {
        let project = Project::new(relational_spec(order, 9));
        let mut subdigests = task_subdigests(&project);
        subdigests.sort();
        assert_eq!(subdigests, expected, "order {order:?}");
        assert_eq!(structure_digest(&project), structure_digest(&reference));
    }
}

#[test]
fn subdigests_are_invariant_under_attribute_and_element_order() {
    let a = r##"<rt:ez-spec xmlns:rt="http://pnmp.sf.net/EZRealtime" name="attrs">
<Task identifier="a1" precedesTasks="#a2">
<name>one</name><period>10</period><computing>2</computing><deadline>8</deadline>
</Task>
<Task identifier="a2">
<name>two</name><period>10</period><computing>1</computing><deadline>10</deadline>
</Task>
</rt:ez-spec>"##;
    // The same document with attribute order swapped, child elements
    // shuffled and the tasks declared in the opposite order.
    let b = r##"<rt:ez-spec name="attrs" xmlns:rt="http://pnmp.sf.net/EZRealtime">
<Task identifier="a2">
<deadline>10</deadline><computing>1</computing><name>two</name><period>10</period>
</Task>
<Task precedesTasks="#a2" identifier="a1">
<computing>2</computing><deadline>8</deadline><period>10</period><name>one</name>
</Task>
</rt:ez-spec>"##;
    let a = Project::from_dsl(a).expect("attribute order a parses");
    let b = Project::from_dsl(b).expect("attribute order b parses");
    let mut subdigests_a = task_subdigests(&a);
    let mut subdigests_b = task_subdigests(&b);
    subdigests_a.sort();
    subdigests_b.sort();
    assert_eq!(subdigests_a, subdigests_b);
    assert_eq!(structure_digest(&a), structure_digest(&b));
}

#[test]
fn one_timing_edit_flips_exactly_that_subdigest() {
    let order = ["alpha", "beta", "gamma"];
    let before = Project::new(relational_spec(&order, 9));
    let after = Project::new(relational_spec(&order, 10));
    let old = task_subdigests(&before);
    let new = task_subdigests(&after);
    assert_eq!(old.len(), new.len());
    for ((old_name, old_digest), (new_name, new_digest)) in old.iter().zip(&new) {
        assert_eq!(old_name, new_name);
        if old_name == "beta" {
            assert_ne!(old_digest, new_digest, "beta's timing changed");
        } else {
            assert_eq!(old_digest, new_digest, "{old_name} is untouched");
        }
    }
    // Timing is structure-invariant, so the ancestor index still groups
    // the two specs — while the full digest (the cache key) separates
    // their outcomes.
    assert_eq!(structure_digest(&before), structure_digest(&after));
    assert_ne!(project_digest(&before), project_digest(&after));
    assert_eq!(before.changed_tasks(after.spec()), vec!["beta".to_owned()]);
    assert!(before.changed_tasks(before.spec()).is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// XML accidents — whitespace between attributes and around tags —
    /// never move any sub-digest or the structure digest.
    #[test]
    fn subdigests_survive_xml_whitespace_noise(
        tasks in 1usize..8,
        util in 0.2f64..0.8,
        prec in 0.0f64..0.4,
        excl in 0.0f64..0.4,
        seed in any::<u64>(),
    ) {
        let config = WorkloadConfig {
            tasks,
            total_utilization: util,
            precedence_probability: prec,
            exclusion_probability: excl,
            constrained_deadlines: true,
            ..WorkloadConfig::default()
        };
        let xml = to_xml(&synthetic_spec(&config, seed));
        let noisy = xml.replace("><", ">\n\t <").replace(" name=", "\n   name=");
        let original = Project::from_dsl(&xml).expect("own dsl reloads");
        let reparsed = Project::from_dsl(&noisy).expect("noisy dsl reloads");
        prop_assert_eq!(task_subdigests(&original), task_subdigests(&reparsed));
        prop_assert_eq!(structure_digest(&original), structure_digest(&reparsed));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The full edit loop on random workloads: a structured mutation of
    /// a generated spec, warm-started from the unmutated spec's
    /// schedule, (1) reports a diff inside the mutation's declared
    /// blast radius, (2) agrees with the cold search on the verdict,
    /// (3) never visits more states than the cold search, and (4) when
    /// feasible passes the validator and the net-semantics oracle.
    #[test]
    fn random_mutations_warm_start_soundly(
        tasks in 2usize..5,
        base_period in 10u64..24,
        utilization in 0.2f64..0.6,
        spec_seed in any::<u64>(),
        mutation_seed in any::<u64>(),
    ) {
        let family = Family::Harmonic { tasks, base_period, utilization };
        let base = family_spec(&family, spec_seed);
        let mutation = random_mutation(&base, mutation_seed);
        let Ok(mutated) = mutation.apply(&base) else {
            // A rejected edit (deadline window collapsed, …) is a valid
            // draw: the typed error is the whole contract.
            return Ok(());
        };
        let label = format!("spec {spec_seed} mutation {mutation:?}");

        // The reported diff stays inside the mutation's declared
        // blast radius.
        let config = SchedulerConfig { max_states: 200_000, ..SchedulerConfig::default() };
        let before = Project::new(base).with_config(config.clone());
        let after = Project::new(mutated).with_config(config);
        let changed = before.changed_tasks(after.spec());
        let touched = mutation.touched(before.spec());
        for task in &changed {
            prop_assert!(touched.contains(task), "{}: {} outside {:?}", label, task, touched);
        }

        let Ok(ancestor) = before.synthesize() else {
            return Ok(()); // no schedule to warm-start from
        };
        let cold = after.synthesize();
        let warm = after.synthesize_incremental(ancestor.solution.schedule());
        prop_assert_eq!(
            warm.is_ok(), cold.is_ok(),
            "{}: warm and cold verdicts diverge", label
        );
        match (warm, cold) {
            (Ok(warm), Ok(cold)) => {
                prop_assert!(
                    warm.stats.states_visited <= cold.stats.states_visited,
                    "{}: warm visited {} states, cold {}",
                    label, warm.stats.states_visited, cold.stats.states_visited
                );
                let violations = warm.solution.validate();
                prop_assert!(violations.is_empty(), "{}: {:?}", label, violations);
                let replay = ezrealtime::sim::replay::replay(warm.solution.tasknet(), warm.solution.schedule());
                prop_assert!(replay.is_ok(), "{}: oracle rejects warm schedule", label);
            }
            (Err(warm), Err(cold)) => {
                prop_assert_eq!(
                    std::mem::discriminant(&warm),
                    std::mem::discriminant(&cold),
                    "{}: failure kinds diverge: {} vs {}", label, warm, cold
                );
            }
            _ => unreachable!("verdict agreement asserted above"),
        }
    }
}

#[test]
fn unchanged_spec_replays_verbatim_with_zero_search_work() {
    let project = Project::new(mine_pump());
    let cold = project.synthesize().expect("feasible");
    let warm = project
        .synthesize_incremental(cold.solution.schedule())
        .expect("feasible");
    assert_eq!(warm.solution.schedule(), cold.solution.schedule());
    assert_eq!(warm.stats.states_visited, 0);
    assert_eq!(warm.stats.incr_seed_hits, 1);
    assert_eq!(
        warm.stats.incr_replayed,
        cold.solution.schedule().firings().len()
    );
    assert!(warm.solution.validate().is_empty());
}

#[test]
fn warm_start_after_a_deadline_edit_is_sound_and_no_costlier() {
    let previous = Project::new(mine_pump());
    let ancestor = previous.synthesize().expect("feasible");

    let edited_xml = nudge_first_deadline(&to_xml(previous.spec()), 1);
    let edited = Project::from_dsl(&edited_xml).expect("edited spec parses");
    assert_eq!(edited.changed_tasks(previous.spec()).len(), 1);

    let warm = edited
        .synthesize_incremental(ancestor.solution.schedule())
        .expect("feasible");
    // Soundness: the warm-started schedule satisfies the edited spec by
    // both oracles — the net-independent validator and a full replay
    // through the net semantics.
    assert!(warm.solution.validate().is_empty());
    assert!(
        ezrealtime::sim::replay::replay(warm.solution.tasknet(), warm.solution.schedule()).is_ok()
    );
    // Economy: the seed was accepted and the warm search visited no
    // more states than a cold one.
    let cold = edited.synthesize().expect("feasible");
    assert_eq!(warm.stats.incr_seed_hits, 1);
    assert!(warm.stats.incr_replayed > 0);
    assert!(warm.stats.states_visited <= cold.stats.states_visited);
}

/// `--jobs` never changes a search, so a project configured for more
/// than one job warm-starts its edit exactly as a one-job project does.
#[test]
fn edits_warm_start_identically_at_any_job_count() {
    let previous = Project::new(mine_pump()).synthesize().expect("feasible");
    let edited_xml = nudge_first_deadline(&to_xml(previous.solution.spec()), 1);
    let warm_at = |jobs| {
        Project::from_dsl(&edited_xml)
            .expect("edited spec parses")
            .with_jobs(jobs)
            .synthesize_incremental(previous.solution.schedule())
            .expect("feasible")
    };
    let one = warm_at(1);
    let two = warm_at(2);
    assert_eq!(two.stats.incr_seed_hits, 1);
    assert_eq!(two.stats.incr_replayed, one.stats.incr_replayed);
    assert_eq!(two.stats.states_visited, one.stats.states_visited);
    assert_eq!(two.solution.schedule(), one.solution.schedule());
    assert!(two.solution.validate().is_empty());
}
