//! The specification → time Petri net translation (paper §4.3's
//! `ezRealtime2PNML` transformation engine, minus the XML detour).
//!
//! The model-generation recipe follows the five steps listed in the
//! paper: *"i) generate a model for arrival, deadline, and task structure
//! blocks for each task; ii) generate each precedence and exclusion
//! relations; iii) generate each inter-tasks communication; iv) generate
//! the fork block; and v) generate the join block."*

use crate::blocks::{add_fork, add_join, add_processor, add_task_blocks, Assembly, TaskBlocks};
use crate::priority::Priority;
use crate::relations::{add_exclusion, add_message, add_precedence, wire_release_chain, Stage};
use crate::tasknet::{TaskNet, TaskTransitions};
use ezrt_spec::EzSpec;
use ezrt_tpn::{DependencyMatrix, Marking, PlaceId};
use std::collections::BTreeMap;

/// Translates a validated specification into a [`TaskNet`].
///
/// The translation is total for validated specifications: every task gets
/// its arrival, deadline-checking and task-structure blocks; relations
/// and messages become stages chained between release and grant in a
/// canonical order (precedences by predecessor, then message receives by
/// message id, then exclusion locks by partner id — locks are acquired
/// last, and in a globally consistent order).
///
/// # Panics
///
/// Panics if `spec` does not satisfy [`EzSpec::validate`]; the builder
/// API makes unvalidated specifications unrepresentable, so this only
/// concerns hand-rolled `EzSpec` values.
///
/// # Examples
///
/// ```
/// use ezrt_compose::translate;
/// use ezrt_spec::corpus::figure3_spec;
///
/// let tasknet = translate(&figure3_spec());
/// let net = tasknet.net();
/// // Fig. 3 structure: T1's release window is [0, 85].
/// let tr1 = net.transition_id("tr0_T1").unwrap();
/// assert_eq!(net.transition(tr1).interval().to_string(), "[0, 85]");
/// ```
pub fn translate(spec: &EzSpec) -> TaskNet {
    spec.validate()
        .expect("translate requires a validated specification");

    let hyperperiod = spec.hyperperiod();
    let mut asm = Assembly::new(spec.name());

    // Processor resource places (Fig. 1, processor block).
    let processor_places: Vec<_> = spec
        .processors()
        .map(|(_, p)| add_processor(&mut asm, p.name()))
        .collect();

    // Step i: arrival + deadline + task structure blocks per task.
    let instances: Vec<u64> = spec
        .tasks()
        .map(|(_, t)| hyperperiod / t.timing().period)
        .collect();
    let blocks: Vec<TaskBlocks> = spec
        .tasks()
        .map(|(id, task)| {
            add_task_blocks(
                &mut asm,
                id,
                task,
                instances[id.index()],
                processor_places[task.processor().index()],
            )
        })
        .collect();

    // Bus resource places, one per distinct bus name.
    let mut bus_places = BTreeMap::new();
    for (_, m) in spec.messages() {
        bus_places.entry(m.bus().to_owned()).or_insert_with(|| {
            asm.builder
                .place_with_tokens(format!("pbus_{}", m.bus()), 1)
        });
    }

    // Steps ii and iii: relations and communications become stages.
    // Stage sort keys keep chains canonical: (kind, counterpart index).
    let mut stages: Vec<Vec<((u8, usize), Stage)>> = vec![Vec::new(); spec.task_count()];
    for &(from, to) in spec.precedences() {
        let (_, stage) = add_precedence(&mut asm, &blocks[from.index()], &blocks[to.index()]);
        stages[to.index()].push(((0, from.index()), stage));
    }
    for (mid, message) in spec.messages() {
        let bus = bus_places[message.bus()];
        let stage = add_message(
            &mut asm,
            mid,
            message,
            &blocks[message.sender().index()],
            &blocks[message.receiver().index()],
            bus,
        );
        stages[message.receiver().index()].push(((1, mid.index()), stage));
    }
    let mut lock_places = Vec::new();
    for &(a, b) in spec.exclusions() {
        let (lock, stage_a, stage_b) =
            add_exclusion(&mut asm, &blocks[a.index()], &blocks[b.index()]);
        lock_places.push(lock);
        stages[a.index()].push(((2, b.index()), stage_a));
        stages[b.index()].push(((2, a.index()), stage_b));
    }
    for (i, task_stages) in stages.iter_mut().enumerate() {
        task_stages.sort_by_key(|&(key, _)| key);
        let ordered: Vec<Stage> = task_stages.iter().map(|&(_, s)| s).collect();
        wire_release_chain(&mut asm, &blocks[i], &ordered);
    }

    // Steps iv and v: fork and join.
    let starts: Vec<_> = blocks.iter().map(|b| b.start).collect();
    add_fork(&mut asm, &starts);
    let finished: Vec<_> = blocks
        .iter()
        .enumerate()
        .map(|(i, b)| (b.finished, instances[i] as u32))
        .collect();
    let (end_place, _) = add_join(&mut asm, &finished);

    let roles = std::mem::take(&mut asm.roles);
    let net = asm
        .builder
        .build()
        .expect("translation emits structurally valid nets");

    // The desired final marking MF: p_end plus every resource restored.
    let mut final_marking = Marking::empty(net.place_count());
    final_marking.set(end_place, 1);
    for &p in &processor_places {
        final_marking.set(p, 1);
    }
    for &p in bus_places.values() {
        final_marking.set(p, 1);
    }
    for &p in &lock_places {
        final_marking.set(p, 1);
    }

    let miss_places: Vec<PlaceId> = blocks.iter().map(|b| b.miss).collect();
    let task_transitions = blocks
        .iter()
        .map(|b| TaskTransitions {
            phase: b.t_phase,
            arrival: b.t_arrival,
            release: b.t_release,
            grant: b.t_grant,
            compute: b.t_compute,
            finish: b.t_finish,
            deadline_check: b.t_check,
            deadline_miss: b.t_miss,
        })
        .collect();

    // Partial-order-reduction precompute: the structural conflict matrix,
    // extended so that transitions of one task are mutually dependent
    // (they are program-ordered — a reduction must never commute them),
    // plus the memoized bookkeeping-priority bitmask.
    let mut deps = DependencyMatrix::from_net(&net);
    let mut by_task: Vec<Vec<ezrt_tpn::TransitionId>> = vec![Vec::new(); spec.task_count()];
    for (i, role) in roles.iter().enumerate() {
        if let Some(task) = role.task() {
            by_task[task.index()].push(ezrt_tpn::TransitionId::from_index(i));
        }
    }
    for members in &by_task {
        for (i, &a) in members.iter().enumerate() {
            for &b in &members[i + 1..] {
                deps.mark_dependent(a, b);
            }
        }
    }
    let mut bookkeeping = vec![0u64; net.transition_count().div_ceil(64).max(1)];
    let mut urgent = vec![0u64; net.transition_count().div_ceil(64).max(1)];
    for (t, transition) in net.transitions() {
        if Priority(transition.priority()).is_bookkeeping() {
            ezrt_tpn::por::set_bit(&mut bookkeeping, t.index());
            // The urgent cascades sleep-set maintenance reorders past are
            // the forced [0, 0] bookkeeping firings; exact timed sources
            // (arrivals) are bookkeeping too, but they advance time and
            // thus never ride inside a cascade.
            if transition.interval() == ezrt_tpn::TimeInterval::exact(0) {
                ezrt_tpn::por::set_bit(&mut urgent, t.index());
            }
        }
    }
    deps.build_sleep_closure(&net, &urgent);
    // The firings that can mark a deadline miss: the producers of the
    // miss places.
    let mut miss_writers = vec![0u64; net.transition_count().div_ceil(64).max(1)];
    for &p in &miss_places {
        for &t in net.producers(p) {
            ezrt_tpn::por::set_bit(&mut miss_writers, t.index());
        }
    }

    TaskNet {
        net,
        spec: spec.clone(),
        roles,
        miss_places,
        final_marking,
        end_place,
        processor_places,
        task_transitions,
        instances,
        deps,
        bookkeeping,
        miss_writers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::roles::TransitionRole;
    use ezrt_spec::corpus::{figure3_spec, figure4_spec, mine_pump, small_control};
    use ezrt_spec::SpecBuilder;
    use ezrt_tpn::analysis;

    /// Only a task's deadline-miss transition outputs into a miss place,
    /// so those are exactly the firings the miss check runs after.
    #[test]
    fn miss_writers_are_the_deadline_miss_transitions() {
        for spec in [mine_pump(), figure3_spec(), figure4_spec(), small_control()] {
            let tasknet = translate(&spec);
            let mut expected = vec![0u64; tasknet.miss_writers.len()];
            for (task, _) in spec.tasks() {
                let miss = tasknet.transitions_of(task).deadline_miss;
                ezrt_tpn::por::set_bit(&mut expected, miss.index());
            }
            assert_eq!(tasknet.miss_writers, expected, "{}", spec.name());
        }
    }

    #[test]
    fn mine_pump_net_has_expected_shape() {
        let tasknet = translate(&mine_pump());
        let net = tasknet.net();
        // 10 tasks × 8 places (st, wr, wg, wc, wf, wpc, wd, dm, f = 9 for
        // NP plus wa) + fork/join/proc: sanity-check the magnitude rather
        // than an exact constant.
        assert!(net.place_count() >= 90, "got {}", net.place_count());
        assert!(
            net.transition_count() >= 80,
            "got {}",
            net.transition_count()
        );
        // Every task contributes exactly one miss place.
        assert_eq!(tasknet.miss_places().len(), 10);
        // The net is structurally clean.
        assert!(analysis::source_transitions(net).is_empty());
        assert!(analysis::isolated_places(net).is_empty());
        assert!(analysis::structurally_dead_transitions(net).is_empty());
    }

    #[test]
    fn mine_pump_minimum_firing_count() {
        let tasknet = translate(&mine_pump());
        // 782 instances × 5 lifecycle firings (t_r, t_g, t_c, t_f, t_pc)
        // + 782 arrival firings (t_ph + t_a's) + fork + join.
        assert_eq!(tasknet.minimum_firing_count(), 782 * 5 + 782 + 2);
    }

    #[test]
    fn processor_invariant_holds_for_mine_pump() {
        let tasknet = translate(&mine_pump());
        let net = tasknet.net();
        // pproc + every task's computing place carries exactly one token.
        let mut component = vec![(
            tasknet.processor_place(ezrt_spec::ProcessorId::from_index(0)),
            1i64,
        )];
        for (id, _) in tasknet.spec().tasks() {
            let grant = tasknet.transitions_of(id).grant;
            // The computing place is t_g's only output.
            let (computing, _) = net.post_set(grant)[0];
            component.push((computing, 1));
        }
        assert!(analysis::is_place_invariant(net, &component));
        assert_eq!(analysis::invariant_value(net, &component), 1);
    }

    #[test]
    fn figure3_precedence_structure() {
        let tasknet = translate(&figure3_spec());
        let net = tasknet.net();
        // Release windows from the figure: [0, 85] and [0, 130].
        assert_eq!(
            net.transition(net.transition_id("tr0_T1").unwrap())
                .interval()
                .to_string(),
            "[0, 85]"
        );
        assert_eq!(
            net.transition(net.transition_id("tr1_T2").unwrap())
                .interval()
                .to_string(),
            "[0, 130]"
        );
        // No arrival transitions: one instance each within P_S = 250.
        assert!(net.transition_id("ta0_T1").is_none());
        // The precedence stage exists with the right role.
        let tprec = net.transition_id("tprec_0_1").expect("precedence stage");
        assert!(matches!(
            tasknet.role(tprec),
            TransitionRole::PrecedenceGrant { .. }
        ));
        // Deadline-watch transitions carry [100,100] and [150,150].
        assert_eq!(
            net.transition(net.transition_id("td0_T1").unwrap())
                .interval()
                .to_string(),
            "[100, 100]"
        );
        assert_eq!(
            net.transition(net.transition_id("td1_T2").unwrap())
                .interval()
                .to_string(),
            "[150, 150]"
        );
    }

    #[test]
    fn figure4_exclusion_structure() {
        let tasknet = translate(&figure4_spec());
        let net = tasknet.net();
        // Preemptive unit-step computations.
        for name in ["tc0_T0", "tc1_T2"] {
            assert_eq!(
                net.transition(net.transition_id(name).unwrap())
                    .interval()
                    .to_string(),
                "[1, 1]"
            );
        }
        // Budget weights 10 and 20 — the weights visible in Fig. 4.
        let tr0 = net.transition_id("tr0_T0").unwrap();
        let tr2 = net.transition_id("tr1_T2").unwrap();
        assert!(net.post_set(tr0).iter().any(|&(_, w)| w == 10));
        assert!(net.post_set(tr2).iter().any(|&(_, w)| w == 20));
        // One shared lock place, initially marked.
        let lock = net.place_id("pexcl_0_1").expect("lock place");
        assert_eq!(net.place(lock).initial_tokens(), 1);
        assert_eq!(net.consumers(lock).len(), 2, "both acquire stages");
        assert_eq!(net.producers(lock).len(), 2, "both finish transitions");
    }

    #[test]
    fn stages_chain_in_canonical_order() {
        // A task with both a predecessor and an exclusion: the precedence
        // stage must come before the lock stage.
        let spec = SpecBuilder::new("chain-order")
            .task("pred", |t| t.computation(1).deadline(10).period(20))
            .task("succ", |t| t.computation(1).deadline(20).period(20))
            .task("other", |t| t.computation(1).deadline(20).period(20))
            .precedes("pred", "succ")
            .excludes("succ", "other")
            .build()
            .unwrap();
        let tasknet = translate(&spec);
        let net = tasknet.net();
        let succ_release = tasknet
            .transitions_of(spec.task_id("succ").unwrap())
            .release;
        // Release feeds the precedence entry, not the lock entry.
        let (first_entry, _) = net.post_set(succ_release)[0];
        assert!(net.place(first_entry).name().starts_with("pwp_"));
        // The precedence stage feeds the exclusion entry.
        let tprec = net.transition_id("tprec_0_1").unwrap();
        let (second_entry, _) = net.post_set(tprec)[0];
        assert!(net.place(second_entry).name().starts_with("pwe_"));
    }

    #[test]
    fn final_marking_contains_resources_only() {
        let tasknet = translate(&small_control());
        let mf = tasknet.final_marking();
        // p_end + cpu0 + one exclusion lock.
        assert_eq!(mf.total_tokens(), 3);
        assert!(tasknet.is_final(mf));
        assert!(!tasknet.is_final(tasknet.net().initial_marking()));
    }

    #[test]
    fn roles_cover_every_transition() {
        let tasknet = translate(&small_control());
        for (t, _) in tasknet.net().transitions() {
            // role() panics on out-of-range; being callable for every id
            // means the role map is complete.
            let _ = tasknet.role(t);
        }
        // Spot-check role/task mapping.
        let sense = tasknet.spec().task_id("sense").unwrap();
        let tr = tasknet.transitions_of(sense).release;
        assert_eq!(tasknet.role(tr), TransitionRole::Release(sense));
        assert_eq!(tasknet.task_of(tr), Some(sense));
    }

    #[test]
    fn miss_detection_queries() {
        let tasknet = translate(&small_control());
        let mut marking = tasknet.net().initial_marking().clone();
        assert!(!tasknet.has_deadline_miss(&marking));
        assert!(tasknet.missed_tasks(&marking).is_empty());
        marking.set(tasknet.miss_places()[2], 1);
        assert!(tasknet.has_deadline_miss(&marking));
        assert_eq!(
            tasknet.missed_tasks(&marking),
            vec![ezrt_spec::TaskId::from_index(2)]
        );
    }

    #[test]
    fn multiprocessor_specs_get_one_resource_place_each() {
        let spec = SpecBuilder::new("dual")
            .task("a", |t| {
                t.computation(1).deadline(5).period(10).on_processor("p0")
            })
            .task("b", |t| {
                t.computation(1).deadline(5).period(10).on_processor("p1")
            })
            .build()
            .unwrap();
        let tasknet = translate(&spec);
        let net = tasknet.net();
        // cpu0 is the implicit default plus p0/p1 (tasks referenced both).
        assert!(net.place_id("pproc_p0").is_some());
        assert!(net.place_id("pproc_p1").is_some());
        // Each task's grant consumes its own processor.
        let a = spec.task_id("a").unwrap();
        let ga = tasknet.transitions_of(a).grant;
        let pa = tasknet.processor_place(spec.task(a).processor());
        assert!(net.pre_set(ga).iter().any(|&(p, _)| p == pa));
    }

    #[test]
    fn message_pipeline_is_translated() {
        let spec = SpecBuilder::new("msg")
            .task("tx", |t| t.computation(1).deadline(10).period(20))
            .task("rx", |t| t.computation(1).deadline(20).period(20))
            .message("m", "tx", "rx", "can0", 0, 3)
            .build()
            .unwrap();
        let tasknet = translate(&spec);
        let net = tasknet.net();
        assert!(net.place_id("pbus_can0").is_some());
        let tmt = net.transition_id("tmt0_m").unwrap();
        assert_eq!(net.transition(tmt).interval().to_string(), "[3, 3]");
        assert!(matches!(tasknet.role(tmt), TransitionRole::BusTransfer(_)));
        // MF restores the bus token.
        let bus = net.place_id("pbus_can0").unwrap();
        assert_eq!(tasknet.final_marking().tokens(bus), 1);
    }

    #[test]
    fn compute_transitions_carry_task_code() {
        let tasknet = translate(&mine_pump());
        let net = tasknet.net();
        for (id, task) in tasknet.spec().tasks() {
            let tc = tasknet.transitions_of(id).compute;
            assert_eq!(
                net.transition(tc).code(),
                task.code().map(|c| c.content()),
                "CS binding for {}",
                task.name()
            );
        }
    }

    #[test]
    fn minimum_firing_count_includes_bus_firings() {
        let spec = SpecBuilder::new("msg-count")
            .task("tx", |t| t.computation(1).deadline(10).period(10))
            .task("rx", |t| t.computation(1).deadline(10).period(10))
            .message("m", "tx", "rx", "can0", 0, 1)
            .build()
            .unwrap();
        let tasknet = translate(&spec);
        // Hyperperiod 10 → 1 instance each. Per NP instance: t_ph + t_r +
        // t_g + t_c + t_f + t_pc = 6; rx additionally passes its receive
        // stage (+1); the message adds grant + transfer (+2); fork + join.
        assert_eq!(tasknet.minimum_firing_count(), 6 + 7 + 2 + 2);
    }

    #[test]
    fn phase_offsets_reach_the_phase_transition() {
        let spec = SpecBuilder::new("phased")
            .task("late", |t| t.phase(7).computation(1).deadline(5).period(10))
            .build()
            .unwrap();
        let tasknet = translate(&spec);
        let net = tasknet.net();
        let late = spec.task_id("late").unwrap();
        let tph = tasknet.transitions_of(late).phase;
        assert_eq!(net.transition(tph).interval().to_string(), "[7, 7]");
    }
}
