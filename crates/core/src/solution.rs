//! The feasible result of a synthesis, and everything derived from it.

use ezrt_codegen::{CodeGenerator, GeneratedSource, ScheduleTable, Target};
use ezrt_compose::TaskNet;
use ezrt_scheduler::validate::ScheduleViolation;
use ezrt_scheduler::{FeasibleSchedule, Timeline};
use ezrt_sim::dispatch::{execute, DispatchConfig};
use ezrt_sim::ExecutionReport;
use ezrt_spec::EzSpec;
use std::sync::OnceLock;

/// A feasible solution: the specification, its translated net and the
/// firing schedule (Def. 3.2) found on it — the one source every
/// artifact of the paper's flow (Fig. 6) is derived from.
///
/// The execution timeline and the Fig. 8 schedule table are
/// deterministic functions of net + schedule. They are derived once, on
/// first use, and shared afterwards: [`Project::synthesize`](crate::Project::synthesize)
/// derives them eagerly; a solution revived from the disk cache derives
/// them on its first artifact render.
#[derive(Debug, Clone)]
pub struct Solution {
    spec: EzSpec,
    tasknet: TaskNet,
    schedule: FeasibleSchedule,
    derived: OnceLock<(Timeline, ScheduleTable)>,
}

impl Solution {
    /// Wraps a feasible `schedule` of `tasknet`, the net translated from
    /// `spec`. Nothing is derived yet.
    pub fn new(spec: EzSpec, tasknet: TaskNet, schedule: FeasibleSchedule) -> Solution {
        Solution {
            spec,
            tasknet,
            schedule,
            derived: OnceLock::new(),
        }
    }

    /// The specification.
    pub fn spec(&self) -> &EzSpec {
        &self.spec
    }

    /// The translated net with its semantic maps.
    pub fn tasknet(&self) -> &TaskNet {
        &self.tasknet
    }

    /// The feasible firing schedule.
    pub fn schedule(&self) -> &FeasibleSchedule {
        &self.schedule
    }

    /// The task-level execution timeline.
    pub fn timeline(&self) -> &Timeline {
        &self.derived().0
    }

    /// The Fig. 8 schedule table (first processor).
    pub fn table(&self) -> &ScheduleTable {
        &self.derived().1
    }

    /// The one derivation of timeline and table, run on first use.
    fn derived(&self) -> &(Timeline, ScheduleTable) {
        self.derived.get_or_init(|| {
            let timeline = Timeline::from_schedule(&self.tasknet, &self.schedule);
            let table = ScheduleTable::from_timeline(&self.spec, &timeline);
            (timeline, table)
        })
    }

    /// Generates the scheduled C code for `target` (paper §4.4.2).
    pub fn generate_code(&self, target: Target) -> GeneratedSource {
        CodeGenerator::new(target).generate(&self.spec, self.table())
    }

    /// Executes the schedule on the simulated dispatcher for
    /// `hyperperiods` schedule periods.
    ///
    /// # Panics
    ///
    /// Panics if `hyperperiods` is zero.
    pub fn execute_for(&self, hyperperiods: u64) -> ExecutionReport {
        execute(
            &self.spec,
            self.timeline(),
            &DispatchConfig {
                hyperperiods,
                ..DispatchConfig::default()
            },
        )
    }

    /// Re-checks the timeline against the specification with the
    /// net-independent validator; empty means valid.
    pub fn validate(&self) -> Vec<ScheduleViolation> {
        ezrt_scheduler::validate::check(&self.spec, self.timeline())
    }

    /// Exports the translated time Petri net as PNML (ISO 15909-2).
    pub fn to_pnml(&self) -> String {
        ezrt_pnml::to_pnml(self.tasknet.net())
    }

    /// ASCII Gantt chart of the window `[from, to)`.
    pub fn gantt(&self, from: u64, to: u64) -> String {
        self.timeline().gantt(&self.tasknet, from, to)
    }
}
