//! Independent schedule validation.
//!
//! [`check`] re-verifies a reconstructed [`Timeline`] directly against
//! the *specification* — deliberately not against the Petri net — so a
//! bug in the translation or the search cannot silently validate itself.
//! The property-based test suite feeds every synthesized schedule through
//! this checker.

use crate::timeline::Timeline;
use ezrt_spec::{EzSpec, SchedulingMethod, TaskId, Time};
use std::fmt;

/// A violation of the specification by a timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleViolation {
    /// An instance did not receive exactly its WCET of processor time.
    WrongExecutionTime {
        /// The offending task.
        task: String,
        /// The 0-based instance.
        instance: u64,
        /// Time actually received.
        executed: Time,
        /// The WCET it should have received.
        required: Time,
    },
    /// An instance started before its arrival plus release offset.
    StartedTooEarly {
        /// The offending task.
        task: String,
        /// The 0-based instance.
        instance: u64,
        /// Observed start.
        start: Time,
        /// Earliest legal start.
        earliest: Time,
    },
    /// An instance completed after its absolute deadline.
    DeadlineMissed {
        /// The offending task.
        task: String,
        /// The 0-based instance.
        instance: u64,
        /// Observed completion.
        completion: Time,
        /// The absolute deadline.
        deadline: Time,
    },
    /// A non-preemptive instance executed in more than one slice.
    FragmentedNonPreemptive {
        /// The offending task.
        task: String,
        /// The 0-based instance.
        instance: u64,
        /// Number of slices observed.
        slices: usize,
    },
    /// Two slices overlap on the same processor.
    ProcessorOverlap {
        /// First involved task.
        first: String,
        /// Second involved task.
        second: String,
        /// Time at which both are scheduled.
        at: Time,
    },
    /// A successor instance started before its predecessor completed.
    PrecedenceViolated {
        /// The predecessor task.
        predecessor: String,
        /// The successor task.
        successor: String,
        /// The 0-based instance.
        instance: u64,
    },
    /// The execution windows of two mutually exclusive instances
    /// interleaved.
    ExclusionViolated {
        /// First task of the pair.
        first: String,
        /// Second task of the pair.
        second: String,
    },
    /// A message receiver started before the message could have been
    /// delivered.
    MessageTooEarly {
        /// The message name.
        message: String,
        /// The 0-based instance.
        instance: u64,
        /// The receiver's start.
        start: Time,
        /// Earliest possible delivery.
        delivered: Time,
    },
}

impl fmt::Display for ScheduleViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleViolation::WrongExecutionTime {
                task,
                instance,
                executed,
                required,
            } => write!(
                f,
                "{task}#{instance} executed {executed} of {required} time units"
            ),
            ScheduleViolation::StartedTooEarly {
                task,
                instance,
                start,
                earliest,
            } => write!(
                f,
                "{task}#{instance} started at {start}, earliest legal {earliest}"
            ),
            ScheduleViolation::DeadlineMissed {
                task,
                instance,
                completion,
                deadline,
            } => write!(
                f,
                "{task}#{instance} completed at {completion}, deadline {deadline}"
            ),
            ScheduleViolation::FragmentedNonPreemptive {
                task,
                instance,
                slices,
            } => write!(
                f,
                "non-preemptive {task}#{instance} split into {slices} slices"
            ),
            ScheduleViolation::ProcessorOverlap { first, second, at } => {
                write!(f, "{first} and {second} overlap on the processor at {at}")
            }
            ScheduleViolation::PrecedenceViolated {
                predecessor,
                successor,
                instance,
            } => write!(
                f,
                "{successor}#{instance} started before {predecessor}#{instance} finished"
            ),
            ScheduleViolation::ExclusionViolated { first, second } => {
                write!(f, "exclusion between {first} and {second} violated")
            }
            ScheduleViolation::MessageTooEarly {
                message,
                instance,
                start,
                delivered,
            } => write!(
                f,
                "message {message}#{instance}: receiver started at {start}, delivery at {delivered}"
            ),
        }
    }
}

/// Checks `timeline` against `spec`, returning every violation found
/// (empty means the schedule is valid). Traced as one `validate` span.
pub fn check(spec: &EzSpec, timeline: &Timeline) -> Vec<ScheduleViolation> {
    let _span = ezrt_obs::span("validate");
    let mut violations = Vec::new();
    check_instances(spec, timeline, &mut violations);
    check_processor_overlap(spec, timeline, &mut violations);
    check_precedence(spec, timeline, &mut violations);
    check_exclusion(spec, timeline, &mut violations);
    check_messages(spec, timeline, &mut violations);
    violations
}

fn name(spec: &EzSpec, task: TaskId) -> String {
    spec.task(task).name().to_owned()
}

fn check_instances(spec: &EzSpec, timeline: &Timeline, out: &mut Vec<ScheduleViolation>) {
    for (task, info) in spec.tasks() {
        let timing = info.timing();
        for instance in 0..spec.instances_of(task) {
            let arrival = timing.phase + instance * timing.period;
            let executed = timeline.instance_execution(task, instance);
            if executed != timing.computation {
                out.push(ScheduleViolation::WrongExecutionTime {
                    task: name(spec, task),
                    instance,
                    executed,
                    required: timing.computation,
                });
                continue;
            }
            let start = timeline
                .instance_start(task, instance)
                .expect("executed instances have a start");
            let completion = timeline
                .instance_completion(task, instance)
                .expect("executed instances have a completion");
            if start < arrival + timing.release {
                out.push(ScheduleViolation::StartedTooEarly {
                    task: name(spec, task),
                    instance,
                    start,
                    earliest: arrival + timing.release,
                });
            }
            if completion > arrival + timing.deadline {
                out.push(ScheduleViolation::DeadlineMissed {
                    task: name(spec, task),
                    instance,
                    completion,
                    deadline: arrival + timing.deadline,
                });
            }
            if info.method() == SchedulingMethod::NonPreemptive {
                let slices = timeline.instance_slice_count(task, instance);
                if slices != 1 {
                    out.push(ScheduleViolation::FragmentedNonPreemptive {
                        task: name(spec, task),
                        instance,
                        slices,
                    });
                }
            }
        }
    }
}

fn check_processor_overlap(spec: &EzSpec, timeline: &Timeline, out: &mut Vec<ScheduleViolation>) {
    let slices = timeline.slices();
    for (i, a) in slices.iter().enumerate() {
        for b in &slices[i + 1..] {
            if b.start >= a.end {
                break; // slices are sorted by start; no later b overlaps a
            }
            if a.processor == b.processor && b.start < a.end && a.start < b.end {
                out.push(ScheduleViolation::ProcessorOverlap {
                    first: name(spec, a.task),
                    second: name(spec, b.task),
                    at: b.start.max(a.start),
                });
            }
        }
    }
}

fn check_precedence(spec: &EzSpec, timeline: &Timeline, out: &mut Vec<ScheduleViolation>) {
    for &(pred, succ) in spec.precedences() {
        let instances = spec.instances_of(pred).min(spec.instances_of(succ));
        for instance in 0..instances {
            let (Some(done), Some(start)) = (
                timeline.instance_completion(pred, instance),
                timeline.instance_start(succ, instance),
            ) else {
                continue; // missing executions reported elsewhere
            };
            if start < done {
                out.push(ScheduleViolation::PrecedenceViolated {
                    predecessor: name(spec, pred),
                    successor: name(spec, succ),
                    instance,
                });
            }
        }
    }
}

fn check_exclusion(spec: &EzSpec, timeline: &Timeline, out: &mut Vec<ScheduleViolation>) {
    for &(a, b) in spec.exclusions() {
        // The execution window of an instance spans first start to final
        // completion; exclusion demands the windows never interleave.
        let windows = |task: TaskId| -> Vec<(Time, Time)> {
            (0..spec.instances_of(task))
                .filter_map(|k| {
                    Some((
                        timeline.instance_start(task, k)?,
                        timeline.instance_completion(task, k)?,
                    ))
                })
                .collect()
        };
        let wa = windows(a);
        let wb = windows(b);
        let violated = wa
            .iter()
            .any(|&(sa, ea)| wb.iter().any(|&(sb, eb)| sa < eb && sb < ea));
        if violated {
            out.push(ScheduleViolation::ExclusionViolated {
                first: name(spec, a),
                second: name(spec, b),
            });
        }
    }
}

fn check_messages(spec: &EzSpec, timeline: &Timeline, out: &mut Vec<ScheduleViolation>) {
    for (_, message) in spec.messages() {
        let sender = message.sender();
        let receiver = message.receiver();
        let instances = spec.instances_of(sender).min(spec.instances_of(receiver));
        for instance in 0..instances {
            let (Some(sent), Some(start)) = (
                timeline.instance_completion(sender, instance),
                timeline.instance_start(receiver, instance),
            ) else {
                continue;
            };
            let delivered = sent + message.grant_bus() + message.communication();
            if start < delivered {
                out.push(ScheduleViolation::MessageTooEarly {
                    message: message.name().to_owned(),
                    instance,
                    start,
                    delivered,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{synthesize, SchedulerConfig, Slice, Timeline};
    use ezrt_compose::translate;
    use ezrt_spec::corpus::{figure3_spec, figure4_spec, figure8_spec, small_control};
    use ezrt_spec::SpecBuilder;

    fn checked(spec: &EzSpec) -> Vec<ScheduleViolation> {
        let tasknet = translate(spec);
        let synthesis = synthesize(&tasknet, &SchedulerConfig::default()).expect("feasible");
        let timeline = Timeline::from_schedule(&tasknet, &synthesis.schedule);
        check(spec, &timeline)
    }

    #[test]
    fn synthesized_schedules_pass_validation() {
        for spec in [
            figure3_spec(),
            figure4_spec(),
            figure8_spec(),
            small_control(),
        ] {
            let violations = checked(&spec);
            assert!(
                violations.is_empty(),
                "{}: {:?}",
                spec.name(),
                violations
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn empty_timeline_reports_missing_execution() {
        let spec = small_control();
        let empty = {
            // A timeline with no slices: reconstruct from an empty schedule.
            let tasknet = translate(&spec);
            Timeline::from_schedule(&tasknet, &crate::FeasibleSchedule::new_for_tests(vec![]))
        };
        let violations = check(&spec, &empty);
        let wrong_exec = violations
            .iter()
            .filter(|v| matches!(v, ScheduleViolation::WrongExecutionTime { .. }))
            .count();
        assert_eq!(wrong_exec as u64, spec.total_instances());
    }

    /// A slice of `task`'s `instance` on the task's own processor.
    fn slice(spec: &EzSpec, task: &str, instance: u64, start: Time, end: Time) -> Slice {
        let task = spec.task_id(task).expect("fixture task");
        Slice {
            task,
            instance,
            processor: spec.task(task).processor(),
            start,
            end,
            resumed: false,
        }
    }

    /// `slice`, marked as resuming an earlier slice of its instance.
    fn resumed(spec: &EzSpec, task: &str, instance: u64, start: Time, end: Time) -> Slice {
        Slice {
            resumed: true,
            ..slice(spec, task, instance, start, end)
        }
    }

    /// Checks hand-built `slices` against `spec`.
    fn fixture(spec: &EzSpec, slices: Vec<Slice>) -> Vec<ScheduleViolation> {
        check(spec, &Timeline::from_slices(slices, spec.hyperperiod()))
    }

    #[test]
    fn a_start_before_the_release_is_reported() {
        let spec = SpecBuilder::new("early")
            .task("a", |t| t.release(2).computation(2).deadline(8).period(10))
            .build()
            .unwrap();
        assert_eq!(
            fixture(&spec, vec![slice(&spec, "a", 0, 1, 3)]),
            vec![ScheduleViolation::StartedTooEarly {
                task: "a".into(),
                instance: 0,
                start: 1,
                earliest: 2,
            }]
        );
    }

    #[test]
    fn a_completion_after_the_deadline_is_reported() {
        // The second instance of `a` (arrival 10, deadline 14) ends at
        // 15; the first is on time.
        let spec = SpecBuilder::new("late")
            .task("a", |t| t.computation(2).deadline(4).period(10))
            .task("b", |t| t.computation(1).deadline(20).period(20))
            .build()
            .unwrap();
        let slices = vec![
            slice(&spec, "a", 0, 0, 2),
            slice(&spec, "b", 0, 2, 3),
            slice(&spec, "a", 1, 13, 15),
        ];
        assert_eq!(
            fixture(&spec, slices),
            vec![ScheduleViolation::DeadlineMissed {
                task: "a".into(),
                instance: 1,
                completion: 15,
                deadline: 14,
            }]
        );
    }

    #[test]
    fn a_split_non_preemptive_instance_is_reported() {
        let spec = SpecBuilder::new("split")
            .task("a", |t| t.computation(3).deadline(10).period(10))
            .task("b", |t| {
                t.preemptive().computation(3).deadline(10).period(10)
            })
            .build()
            .unwrap();
        // Both run in two slices; only the non-preemptive one is wrong.
        let slices = vec![
            slice(&spec, "a", 0, 0, 1),
            slice(&spec, "b", 0, 1, 2),
            resumed(&spec, "a", 0, 2, 4),
            resumed(&spec, "b", 0, 4, 6),
        ];
        assert_eq!(
            fixture(&spec, slices),
            vec![ScheduleViolation::FragmentedNonPreemptive {
                task: "a".into(),
                instance: 0,
                slices: 2,
            }]
        );
    }

    #[test]
    fn overlapping_slices_on_one_processor_are_reported() {
        // `a` and `b` share the default processor and overlap at 1;
        // `c` runs at the same time on a processor of its own.
        let spec = SpecBuilder::new("overlap")
            .processor("p0")
            .processor("p1")
            .task("a", |t| {
                t.computation(2).deadline(10).period(10).on_processor("p0")
            })
            .task("b", |t| {
                t.computation(2).deadline(10).period(10).on_processor("p0")
            })
            .task("c", |t| {
                t.computation(3).deadline(10).period(10).on_processor("p1")
            })
            .build()
            .unwrap();
        let slices = vec![
            slice(&spec, "a", 0, 0, 2),
            slice(&spec, "b", 0, 1, 3),
            slice(&spec, "c", 0, 0, 3),
        ];
        assert_eq!(
            fixture(&spec, slices),
            vec![ScheduleViolation::ProcessorOverlap {
                first: "a".into(),
                second: "b".into(),
                at: 1,
            }]
        );
    }

    #[test]
    fn a_successor_before_its_predecessor_is_reported() {
        // Instance 0 keeps the order; instance 1 of `b` runs first.
        let spec = SpecBuilder::new("order")
            .task("a", |t| t.computation(2).deadline(10).period(10))
            .task("b", |t| t.computation(2).deadline(10).period(10))
            .task("slow", |t| t.computation(1).deadline(20).period(20))
            .precedes("a", "b")
            .build()
            .unwrap();
        let slices = vec![
            slice(&spec, "a", 0, 0, 2),
            slice(&spec, "b", 0, 2, 4),
            slice(&spec, "slow", 0, 4, 5),
            slice(&spec, "b", 1, 10, 12),
            slice(&spec, "a", 1, 12, 14),
        ];
        assert_eq!(
            fixture(&spec, slices),
            vec![ScheduleViolation::PrecedenceViolated {
                predecessor: "a".into(),
                successor: "b".into(),
                instance: 1,
            }]
        );
    }

    #[test]
    fn interleaved_exclusive_windows_are_reported() {
        // `b` runs inside the window of the preempted `a`.
        let spec = SpecBuilder::new("exclusive")
            .task("a", |t| {
                t.preemptive().computation(2).deadline(10).period(10)
            })
            .task("b", |t| t.computation(2).deadline(10).period(10))
            .excludes("a", "b")
            .build()
            .unwrap();
        let slices = vec![
            slice(&spec, "a", 0, 0, 1),
            slice(&spec, "b", 0, 1, 3),
            resumed(&spec, "a", 0, 3, 4),
        ];
        assert_eq!(
            fixture(&spec, slices),
            vec![ScheduleViolation::ExclusionViolated {
                first: "a".into(),
                second: "b".into(),
            }]
        );
    }

    #[test]
    fn a_receiver_before_the_delivery_is_reported() {
        // Sent at 2, delivered at 2 + 1 + 2 = 5, received at 3.
        let spec = SpecBuilder::new("message")
            .processor("tx")
            .processor("rx")
            .task("a", |t| {
                t.computation(2).deadline(10).period(10).on_processor("tx")
            })
            .task("b", |t| {
                t.computation(2).deadline(10).period(10).on_processor("rx")
            })
            .message("m", "a", "b", "bus", 1, 2)
            .build()
            .unwrap();
        let slices = vec![slice(&spec, "a", 0, 0, 2), slice(&spec, "b", 0, 3, 5)];
        assert_eq!(
            fixture(&spec, slices),
            vec![ScheduleViolation::MessageTooEarly {
                message: "m".into(),
                instance: 0,
                start: 3,
                delivered: 5,
            }]
        );
    }

    #[test]
    fn violation_display_is_informative() {
        let v = ScheduleViolation::DeadlineMissed {
            task: "PMC".into(),
            instance: 3,
            completion: 260,
            deadline: 255,
        };
        assert_eq!(v.to_string(), "PMC#3 completed at 260, deadline 255");
        let v = ScheduleViolation::ExclusionViolated {
            first: "a".into(),
            second: "b".into(),
        };
        assert!(v.to_string().contains("exclusion"));
    }
}
