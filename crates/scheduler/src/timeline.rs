//! Execution timelines: from firing schedules to processor-time slices.
//!
//! A [`Timeline`] is the task-level view of a feasible firing schedule:
//! who executes, on which processor, from when to when, and whether a
//! slice *resumes* a previously preempted instance. It is the input of
//! both the schedule-table code generator (paper Fig. 8) and the
//! dispatcher simulator.

use crate::schedule::FeasibleSchedule;
use ezrt_compose::{TaskNet, TransitionRole};
use ezrt_spec::{ProcessorId, TaskId};
use ezrt_tpn::Time;
use std::fmt::Write as _;

/// A contiguous stretch of processor time given to one task instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slice {
    /// The executing task.
    pub task: TaskId,
    /// The 0-based instance number within the schedule period.
    pub instance: u64,
    /// The processor the slice runs on.
    pub processor: ProcessorId,
    /// Inclusive start time.
    pub start: Time,
    /// Exclusive end time.
    pub end: Time,
    /// Whether this slice resumes an instance that was preempted earlier
    /// (the `true` rows of the paper's Fig. 8 schedule table).
    pub resumed: bool,
}

impl Slice {
    /// The slice's duration.
    pub fn duration(&self) -> Time {
        self.end - self.start
    }
}

/// The task-level execution timeline reconstructed from a feasible
/// firing schedule.
///
/// Besides its slices, a timeline keeps one summary per executed
/// instance, built once on construction, so the per-instance queries
/// ([`instance_start`](Self::instance_start) and its siblings) are a
/// binary search rather than a scan of every slice.
///
/// # Examples
///
/// ```
/// use ezrt_compose::translate;
/// use ezrt_scheduler::{synthesize, SchedulerConfig, Timeline};
/// use ezrt_spec::corpus::small_control;
///
/// # fn main() -> Result<(), ezrt_scheduler::SynthesizeError> {
/// let spec = small_control();
/// let tasknet = translate(&spec);
/// let synthesis = synthesize(&tasknet, &SchedulerConfig::default())?;
/// let timeline = Timeline::from_schedule(&tasknet, &synthesis.schedule);
/// // Every instance of every task executes.
/// assert_eq!(
///     timeline.slices().iter().map(|s| s.duration()).sum::<u64>(),
///     spec.tasks().map(|(id, t)| spec.instances_of(id) * t.timing().computation).sum::<u64>()
/// );
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Timeline {
    slices: Vec<Slice>,
    /// One span per executed instance, sorted by `(task, instance)`: the
    /// index behind the `instance_*` queries.
    spans: Vec<InstanceSpan>,
    hyperperiod: Time,
}

/// The summary of one executed instance's slices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct InstanceSpan {
    task: TaskId,
    instance: u64,
    /// The start of its first slice.
    start: Time,
    /// The end of its last slice.
    end: Time,
    /// Total processor time of its slices.
    executed: Time,
    /// Number of its slices.
    slices: usize,
}

impl InstanceSpan {
    fn of(slice: &Slice) -> Self {
        InstanceSpan {
            task: slice.task,
            instance: slice.instance,
            start: slice.start,
            end: slice.end,
            executed: slice.duration(),
            slices: 1,
        }
    }

    fn key(&self) -> (TaskId, u64) {
        (self.task, self.instance)
    }

    /// Folds `other` into `self` when both summarize the same instance;
    /// returns whether it did.
    fn fold(&mut self, other: &InstanceSpan) -> bool {
        if self.key() != other.key() {
            return false;
        }
        self.start = self.start.min(other.start);
        self.end = self.end.max(other.end);
        self.executed += other.executed;
        self.slices += other.slices;
        true
    }
}

impl Timeline {
    /// Assembles a timeline directly from slices — for schedules computed
    /// by other tools, hand-written fixtures (such as the paper's Fig. 8
    /// table) or tests. Slices are sorted by start time; their contents
    /// are taken verbatim.
    pub fn from_slices(slices: impl IntoIterator<Item = Slice>, hyperperiod: Time) -> Self {
        let mut slices: Vec<Slice> = slices.into_iter().collect();
        slices.sort_by_key(|s| (s.start, s.processor, s.task));
        let mut spans: Vec<InstanceSpan> = slices.iter().map(InstanceSpan::of).collect();
        spans.sort_unstable_by_key(InstanceSpan::key);
        spans.dedup_by(|next, kept| kept.fold(next));
        Timeline {
            slices,
            spans,
            hyperperiod,
        }
    }

    /// Reconstructs the timeline of `schedule` by pairing each processor
    /// grant with the computation firing that ends it, merging contiguous
    /// unit steps of preemptive tasks into maximal slices.
    pub fn from_schedule(tasknet: &TaskNet, schedule: &FeasibleSchedule) -> Self {
        let spec = tasknet.spec();
        let task_count = spec.task_count();
        let mut open_start: Vec<Option<Time>> = vec![None; task_count];
        let mut finished: Vec<u64> = vec![0; task_count];
        let mut raw: Vec<Slice> = Vec::new();

        for firing in schedule.firings() {
            match firing.role {
                TransitionRole::Grant(task) => {
                    let slot = &mut open_start[task.index()];
                    debug_assert!(slot.is_none(), "grant while already executing");
                    *slot = Some(firing.at);
                }
                TransitionRole::Compute(task) => {
                    let start = open_start[task.index()]
                        .take()
                        .expect("computation end without a grant");
                    raw.push(Slice {
                        task,
                        instance: finished[task.index()],
                        processor: spec.task(task).processor(),
                        start,
                        end: firing.at,
                        resumed: false, // fixed up after merging
                    });
                }
                TransitionRole::Finish(task) => {
                    finished[task.index()] += 1;
                }
                _ => {}
            }
        }

        // Merge back-to-back slices of the same instance (consecutive
        // preemptive unit steps with no intervening preemption).
        raw.sort_by_key(|s| (s.task, s.instance, s.start));
        let mut merged: Vec<Slice> = Vec::with_capacity(raw.len());
        for slice in raw {
            match merged.last_mut() {
                Some(last)
                    if last.task == slice.task
                        && last.instance == slice.instance
                        && last.end == slice.start =>
                {
                    last.end = slice.end;
                }
                _ => merged.push(slice),
            }
        }
        // Resumed flags: every slice of an instance after its first. The
        // same pass, still in `(task, instance)` order, builds the index.
        let mut spans: Vec<InstanceSpan> = Vec::with_capacity(merged.len());
        for slice in &mut merged {
            let span = InstanceSpan::of(slice);
            slice.resumed = spans.last_mut().is_some_and(|last| last.fold(&span));
            if !slice.resumed {
                spans.push(span);
            }
        }
        merged.sort_by_key(|s| (s.start, s.processor, s.task));

        Timeline {
            slices: merged,
            spans,
            hyperperiod: spec.hyperperiod(),
        }
    }

    /// All slices, ordered by start time.
    pub fn slices(&self) -> &[Slice] {
        &self.slices
    }

    /// The schedule period the timeline covers.
    pub fn hyperperiod(&self) -> Time {
        self.hyperperiod
    }

    /// The slices of one task.
    pub fn slices_of(&self, task: TaskId) -> impl Iterator<Item = &Slice> {
        self.slices.iter().filter(move |s| s.task == task)
    }

    /// The index entry of `(task, instance)`, if it executed at all.
    fn span(&self, task: TaskId, instance: u64) -> Option<&InstanceSpan> {
        self.spans
            .binary_search_by_key(&(task, instance), InstanceSpan::key)
            .ok()
            .map(|at| &self.spans[at])
    }

    /// The start of the first slice of `(task, instance)`.
    pub fn instance_start(&self, task: TaskId, instance: u64) -> Option<Time> {
        self.span(task, instance).map(|s| s.start)
    }

    /// The end of the last slice of `(task, instance)` — its completion
    /// time.
    pub fn instance_completion(&self, task: TaskId, instance: u64) -> Option<Time> {
        self.span(task, instance).map(|s| s.end)
    }

    /// Total processor time given to `(task, instance)`.
    pub fn instance_execution(&self, task: TaskId, instance: u64) -> Time {
        self.span(task, instance).map_or(0, |s| s.executed)
    }

    /// The number of slices `(task, instance)` executed in: 1 for an
    /// instance that ran uninterrupted, 0 for one that never ran.
    pub fn instance_slice_count(&self, task: TaskId, instance: u64) -> usize {
        self.span(task, instance).map_or(0, |s| s.slices)
    }

    /// Number of preemptions: slices that resume an earlier-started
    /// instance.
    pub fn preemption_count(&self) -> usize {
        self.slices.iter().filter(|s| s.resumed).count()
    }

    /// Renders an ASCII Gantt chart of the window `[from, to)`, one row
    /// per task, one column per time unit. Intended for small windows —
    /// the width is capped at 200 columns.
    pub fn gantt(&self, tasknet: &TaskNet, from: Time, to: Time) -> String {
        let spec = tasknet.spec();
        let to = to.min(from + 200);
        let width = (to - from) as usize;
        let mut out = String::new();
        for (task, info) in spec.tasks() {
            let mut row = vec![b'.'; width];
            for slice in self.slices_of(task) {
                let lo = slice.start.max(from);
                let hi = slice.end.min(to);
                for t in lo..hi {
                    row[(t - from) as usize] = if slice.resumed { b'+' } else { b'#' };
                }
            }
            let _ = writeln!(
                out,
                "{:>10} |{}|",
                info.name(),
                String::from_utf8(row).expect("ascii row")
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{synthesize, SchedulerConfig};
    use ezrt_compose::translate;
    use ezrt_spec::corpus::{figure8_spec, small_control};
    use ezrt_spec::SpecBuilder;

    fn timeline_of(spec: &ezrt_spec::EzSpec) -> (ezrt_compose::TaskNet, Timeline) {
        let tasknet = translate(spec);
        let synthesis = synthesize(&tasknet, &SchedulerConfig::default()).expect("feasible");
        let timeline = Timeline::from_schedule(&tasknet, &synthesis.schedule);
        (tasknet, timeline)
    }

    #[test]
    fn nonpreemptive_instances_have_single_slices() {
        let spec = small_control();
        let (_, timeline) = timeline_of(&spec);
        for (task, info) in spec.tasks() {
            for instance in 0..spec.instances_of(task) {
                let slices: Vec<_> = timeline
                    .slices_of(task)
                    .filter(|s| s.instance == instance)
                    .collect();
                assert_eq!(
                    slices.len(),
                    1,
                    "{} instance {instance} fragmented",
                    info.name()
                );
                assert_eq!(slices[0].duration(), info.timing().computation);
                assert!(!slices[0].resumed);
            }
        }
        assert_eq!(timeline.preemption_count(), 0);
    }

    #[test]
    fn slice_accounting_matches_wcets() {
        let spec = figure8_spec();
        let (_, timeline) = timeline_of(&spec);
        for (task, info) in spec.tasks() {
            for instance in 0..spec.instances_of(task) {
                assert_eq!(
                    timeline.instance_execution(task, instance),
                    info.timing().computation,
                    "{} instance {instance}",
                    info.name()
                );
                let start = timeline.instance_start(task, instance).unwrap();
                let done = timeline.instance_completion(task, instance).unwrap();
                let arrival = info.timing().phase + instance * info.timing().period;
                assert!(start >= arrival, "{} starts before arrival", info.name());
                assert!(
                    done <= arrival + info.timing().deadline,
                    "{} misses its deadline",
                    info.name()
                );
            }
        }
    }

    #[test]
    fn preemptive_set_shows_resumed_slices() {
        let spec = figure8_spec();
        let (_, timeline) = timeline_of(&spec);
        assert!(timeline.preemption_count() > 0, "figure 8 set preempts");
        // Resumed slices follow an earlier slice of the same instance.
        for slice in timeline.slices().iter().filter(|s| s.resumed) {
            let earlier = timeline
                .slices_of(slice.task)
                .filter(|s| s.instance == slice.instance && s.end <= slice.start)
                .count();
            assert!(earlier > 0);
        }
    }

    #[test]
    fn slices_never_overlap_on_a_processor() {
        let spec = figure8_spec();
        let (_, timeline) = timeline_of(&spec);
        let slices = timeline.slices();
        for (i, a) in slices.iter().enumerate() {
            for b in &slices[i + 1..] {
                if a.processor == b.processor {
                    assert!(
                        a.end <= b.start || b.end <= a.start,
                        "overlap: {a:?} vs {b:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn gantt_renders_rows_per_task() {
        let spec = small_control();
        let (tasknet, timeline) = timeline_of(&spec);
        let chart = timeline.gantt(&tasknet, 0, 20);
        assert_eq!(chart.lines().count(), spec.task_count());
        assert!(chart.contains("sense"));
        assert!(chart.contains('#'));
    }

    #[test]
    fn single_task_timeline_is_exact() {
        let spec = SpecBuilder::new("solo")
            .task("only", |t| {
                t.release(2).computation(3).deadline(9).period(10)
            })
            .build()
            .unwrap();
        let (_, timeline) = timeline_of(&spec);
        let task = spec.task_id("only").unwrap();
        assert_eq!(timeline.instance_start(task, 0), Some(2));
        assert_eq!(timeline.instance_completion(task, 0), Some(5));
        assert_eq!(timeline.instance_execution(task, 0), 3);
        assert_eq!(timeline.instance_start(task, 1), None);
    }
}
