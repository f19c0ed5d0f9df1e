//! The [`Project`] facade and its synthesis [`Outcome`].

use ezrt_codegen::{CodeGenerator, GeneratedSource, ScheduleTable, Target};
use ezrt_compose::{translate, TaskNet};
use ezrt_dsl::ParseDslError;
use ezrt_scheduler::replay::replay;
use ezrt_scheduler::validate::ScheduleViolation;
use ezrt_scheduler::{
    synthesize, synthesize_seeded, FeasibleSchedule, Parallelism, PorLevel, SchedulerConfig,
    SearchStats, Synthesis, SynthesizeError, Timeline,
};
use ezrt_sim::dispatch::{execute, DispatchConfig};
use ezrt_sim::ExecutionReport;
use ezrt_spec::EzSpec;

/// An ezRealtime project: a specification plus the synthesis
/// configuration, with every pipeline stage one method call away.
#[derive(Debug, Clone)]
pub struct Project {
    spec: EzSpec,
    config: SchedulerConfig,
}

impl Project {
    /// Creates a project around a validated specification with the
    /// default scheduler configuration.
    pub fn new(spec: EzSpec) -> Self {
        Project {
            spec,
            config: SchedulerConfig::default(),
        }
    }

    /// Loads a project from an `<rt:ez-spec>` XML document (paper
    /// Fig. 7).
    ///
    /// # Errors
    ///
    /// Returns [`ParseDslError`] when the document is malformed or the
    /// specification fails validation.
    pub fn from_dsl(document: &str) -> Result<Self, ParseDslError> {
        let _span = ezrt_obs::span("parse-dsl");
        Ok(Project::new(ezrt_dsl::from_xml(document)?))
    }

    /// Replaces the scheduler configuration.
    pub fn with_config(mut self, config: SchedulerConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets [`SchedulerConfig::parallelism`] (the CLI's `--jobs`), the
    /// point fan-out width `ezrt sweep` and `/v1/sweep` read. It never
    /// changes a result: every search is sequential.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.config.parallelism = Parallelism::new(jobs);
        self
    }

    /// Sets the partial-order reduction level (the CLI's `--por`).
    /// `Stubborn` — the default — prunes interleavings with stubborn
    /// and sleep sets; `Off` explores every candidate and reproduces the
    /// value-typed reference search byte-for-byte.
    pub fn with_por(mut self, por: PorLevel) -> Self {
        self.config.por = por;
        self
    }

    /// The specification.
    pub fn spec(&self) -> &EzSpec {
        &self.spec
    }

    /// The scheduler configuration.
    pub fn config(&self) -> &SchedulerConfig {
        &self.config
    }

    /// Translates the specification into its time Petri net without
    /// searching — useful for inspection, DOT rendering and PNML export
    /// of unsolved models.
    pub fn translate(&self) -> TaskNet {
        translate(&self.spec)
    }

    /// Canonical byte serialization of the parsed specification plus
    /// the result-relevant scheduler configuration (branch ordering,
    /// delay mode, partial-order reduction, budgets) — the stable
    /// pre-image `ezrt-server` digests into cache keys.
    ///
    /// Two XML documents that parse to the same specification
    /// (whitespace, attribute order) serialize identically, and
    /// [`Parallelism`] is deliberately excluded: the fan-out width never
    /// changes a result.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        crate::canonical::canonical_bytes(&self.spec, &self.config)
    }

    /// Per-task canonical byte slices, in specification order: each
    /// entry is `(task name, sub-digest pre-image)` covering that task's
    /// own timing and attributes plus the shape of its relations with
    /// partners referenced by *name*. The bytes are invariant under task
    /// reordering and XML formatting, and a timing edit on one task
    /// changes exactly that task's entry — so two specs diff
    /// structurally by comparing these slices, no parsing heuristics.
    pub fn task_canonical_bytes(&self) -> Vec<(String, Vec<u8>)> {
        self.spec
            .tasks()
            .map(|(id, task)| {
                (
                    task.name().to_owned(),
                    crate::canonical::task_bytes(&self.spec, id),
                )
            })
            .collect()
    }

    /// Canonical bytes of the specification's *structure* — task set,
    /// relation shape, per-task instance counts and the result-relevant
    /// config — with all timing values elided. Specs that differ only in
    /// task timing share structure bytes; the server's nearest-ancestor
    /// index keys warm-start candidates on the digest of this stream.
    pub fn structure_bytes(&self) -> Vec<u8> {
        crate::canonical::structure_bytes(&self.spec, &self.config)
    }

    /// The names of tasks whose sub-digest pre-image differs between
    /// this project's specification and `prev`, sorted. Tasks present on
    /// only one side count as changed. An empty result means every task
    /// is structurally and temporally identical across the two specs.
    pub fn changed_tasks(&self, prev: &EzSpec) -> Vec<String> {
        let theirs: std::collections::HashMap<&str, Vec<u8>> = prev
            .tasks()
            .map(|(id, task)| (task.name(), crate::canonical::task_bytes(prev, id)))
            .collect();
        let mut changed: Vec<String> = Vec::new();
        let mut matched = 0usize;
        for (id, task) in self.spec.tasks() {
            match theirs.get(task.name()) {
                Some(bytes) => {
                    matched += 1;
                    if *bytes != crate::canonical::task_bytes(&self.spec, id) {
                        changed.push(task.name().to_owned());
                    }
                }
                None => changed.push(task.name().to_owned()),
            }
        }
        // Tasks that exist only in `prev`.
        if matched < theirs.len() {
            for (_, task) in prev.tasks() {
                if self.spec.task_by_name(task.name()).is_none() {
                    changed.push(task.name().to_owned());
                }
            }
        }
        changed.sort();
        changed
    }

    /// Serializes the specification back to the XML DSL.
    pub fn to_dsl(&self) -> String {
        ezrt_dsl::to_xml(&self.spec)
    }

    /// Runs the full synthesis: translation, the pre-runtime search, the
    /// net-level replay oracle, timeline reconstruction and
    /// schedule-table derivation.
    ///
    /// Every result is replayed exactly once, through
    /// [`replay`](ezrt_scheduler::replay::replay), and the verdict is kept
    /// in [`Outcome::replay_ok`].
    ///
    /// # Errors
    ///
    /// Returns [`SynthesizeError`] when no feasible schedule exists or a
    /// search budget is exhausted.
    pub fn synthesize(&self) -> Result<Outcome, SynthesizeError> {
        let _span = ezrt_obs::span("synthesize");
        let tasknet = {
            let _span = ezrt_obs::span("translate");
            translate(&self.spec)
        };
        let synthesis = synthesize(&tasknet, &self.config)?;
        Ok(self.outcome(tasknet, synthesis))
    }

    /// Incremental synthesis warm-started from a prior schedule: `prev`
    /// is handed to the seeded search whole, which first replays it
    /// verbatim (one linear pass, no search machinery) and otherwise
    /// truncates the seed at its first illegal step, re-validates every
    /// replayed firing as an ordinary DFS candidate and searches on from
    /// the replayed frontier. For an unchanged spec the whole schedule
    /// replays and the search visits zero new states; after a small
    /// timing edit the prefix typically covers everything up to the
    /// first genuinely affected firing.
    ///
    /// Sound by construction: seeding only permutes branch order at the
    /// replayed frames, so feasibility, infeasibility and budget
    /// verdicts are the same as cold synthesis would produce. The result
    /// is replayed once, like a cold one: a verbatim hit already *is*
    /// that replay, and a searched result goes through the oracle here.
    ///
    /// # Errors
    ///
    /// Returns [`SynthesizeError`] when no feasible schedule exists or a
    /// search budget is exhausted — the same verdicts cold synthesis
    /// would return.
    pub fn synthesize_incremental(
        &self,
        prev: &FeasibleSchedule,
    ) -> Result<Outcome, SynthesizeError> {
        let _span = ezrt_obs::span("synthesize-incremental");
        let tasknet = {
            let _span = ezrt_obs::span("translate");
            translate(&self.spec)
        };
        let synthesis = synthesize_seeded(&tasknet, &self.config, prev.firings())?;
        Ok(self.outcome(tasknet, synthesis))
    }

    /// Checks a search result with the replay oracle (unless it came out
    /// of a replay) and derives its timeline and schedule table.
    fn outcome(&self, tasknet: TaskNet, synthesis: Synthesis) -> Outcome {
        let replay_ok = synthesis.replayed || replay(&tasknet, &synthesis.schedule).is_ok();
        let _derive = ezrt_obs::span("derive");
        let timeline = Timeline::from_schedule(&tasknet, &synthesis.schedule);
        let table = ScheduleTable::from_timeline(&self.spec, &timeline);
        Outcome {
            spec: self.spec.clone(),
            tasknet,
            schedule: synthesis.schedule,
            stats: synthesis.stats,
            replay_ok,
            timeline,
            table,
        }
    }
}

/// Everything a successful synthesis produces.
#[derive(Debug, Clone)]
pub struct Outcome {
    spec: EzSpec,
    /// The translated net with its semantic maps.
    pub tasknet: TaskNet,
    /// The feasible firing schedule (Def. 3.2).
    pub schedule: FeasibleSchedule,
    /// Search statistics (the §5 numbers).
    pub stats: SearchStats,
    /// Whether the schedule passed the net-level replay oracle (always
    /// true unless the engine has a bug).
    pub replay_ok: bool,
    /// The task-level execution timeline.
    pub timeline: Timeline,
    /// The Fig. 8 schedule table (first processor).
    pub table: ScheduleTable,
}

/// The owned pieces of an [`Outcome`], for layers that rehome them into
/// their own types (the artifact layer's `SynthesisOutcome` keeps the
/// spec and schedule for cache persistence and re-derives the rest).
#[derive(Debug, Clone)]
pub struct OutcomeParts {
    /// The specification the outcome belongs to.
    pub spec: EzSpec,
    /// The translated net with its semantic maps.
    pub tasknet: TaskNet,
    /// The feasible firing schedule.
    pub schedule: FeasibleSchedule,
    /// Search statistics.
    pub stats: SearchStats,
    /// Whether the schedule passed the net-level replay oracle.
    pub replay_ok: bool,
    /// The task-level execution timeline.
    pub timeline: Timeline,
    /// The Fig. 8 schedule table.
    pub table: ScheduleTable,
}

impl Outcome {
    /// The specification the outcome belongs to.
    pub fn spec(&self) -> &EzSpec {
        &self.spec
    }

    /// Decomposes the outcome into its owned parts.
    pub fn into_parts(self) -> OutcomeParts {
        OutcomeParts {
            spec: self.spec,
            tasknet: self.tasknet,
            schedule: self.schedule,
            stats: self.stats,
            replay_ok: self.replay_ok,
            timeline: self.timeline,
            table: self.table,
        }
    }

    /// Generates the scheduled C code for `target` (paper §4.4.2).
    pub fn generate_code(&self, target: Target) -> GeneratedSource {
        CodeGenerator::new(target).generate(&self.spec, &self.table)
    }

    /// Executes the schedule on the simulated dispatcher for one
    /// schedule period.
    pub fn execute(&self) -> ExecutionReport {
        self.execute_for(1)
    }

    /// Executes the schedule for `hyperperiods` schedule periods.
    ///
    /// # Panics
    ///
    /// Panics if `hyperperiods` is zero.
    pub fn execute_for(&self, hyperperiods: u64) -> ExecutionReport {
        execute(
            &self.spec,
            &self.timeline,
            &DispatchConfig {
                hyperperiods,
                ..DispatchConfig::default()
            },
        )
    }

    /// Re-validates the timeline against the specification with the
    /// net-independent checker; empty means valid.
    pub fn validate(&self) -> Vec<ScheduleViolation> {
        ezrt_scheduler::validate::check(&self.spec, &self.timeline)
    }

    /// Exports the synthesized time Petri net as PNML (ISO 15909-2).
    pub fn to_pnml(&self) -> String {
        ezrt_pnml::to_pnml(self.tasknet.net())
    }

    /// Renders the net as Graphviz DOT.
    pub fn to_dot(&self) -> String {
        ezrt_tpn::dot::to_dot(self.tasknet.net())
    }

    /// ASCII Gantt chart of the window `[from, to)`.
    pub fn gantt(&self, from: u64, to: u64) -> String {
        self.timeline.gantt(&self.tasknet, from, to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ezrt_spec::corpus::{mine_pump, small_control};

    #[test]
    fn full_pipeline_on_the_mine_pump() {
        let outcome = Project::new(mine_pump()).synthesize().expect("feasible");
        // §5 shape: visited within a few percent of the forced minimum.
        assert!(outcome.stats.overhead_ratio() < 1.05);
        assert_eq!(outcome.table.entries().len(), 782);
        assert!(outcome.validate().is_empty());
        let report = outcome.execute();
        assert!(report.is_timely());
        assert_eq!(report.max_release_jitter(), 0);
    }

    #[test]
    fn dsl_round_trip_through_project() {
        let project = Project::new(small_control());
        let document = project.to_dsl();
        let reloaded = Project::from_dsl(&document).expect("own dsl reloads");
        assert_eq!(reloaded.spec(), project.spec());
    }

    #[test]
    fn from_dsl_rejects_garbage() {
        assert!(Project::from_dsl("<nonsense/>").is_err());
    }

    #[test]
    fn exports_are_consistent() {
        let outcome = Project::new(small_control()).synthesize().unwrap();
        let pnml = outcome.to_pnml();
        assert!(pnml.contains("<pnml"));
        let reread = ezrt_pnml::from_pnml(&pnml).expect("own pnml rereads");
        assert_eq!(reread.place_count(), outcome.tasknet.net().place_count());
        let dot = outcome.to_dot();
        assert!(dot.starts_with("digraph"));
        let gantt = outcome.gantt(0, 20);
        assert!(gantt.contains('#'));
    }

    #[test]
    fn custom_config_is_used() {
        let config = SchedulerConfig {
            max_states: 1,
            ..SchedulerConfig::default()
        };
        let result = Project::new(small_control())
            .with_config(config)
            .synthesize();
        assert!(matches!(
            result,
            Err(SynthesizeError::StateLimitExceeded { .. })
        ));
    }

    #[test]
    fn jobs_do_not_change_the_synthesis() {
        let sequential = Project::new(small_control()).synthesize().unwrap();
        for jobs in [2, 4] {
            let outcome = Project::new(small_control())
                .with_jobs(jobs)
                .synthesize()
                .expect("feasible");
            assert_eq!(outcome.schedule, sequential.schedule);
            assert_eq!(
                outcome.stats.states_visited,
                sequential.stats.states_visited
            );
            assert!(outcome.validate().is_empty());
            assert!(outcome.execute().is_timely());
        }
    }

    #[test]
    fn with_por_reaches_the_scheduler() {
        let off = Project::new(small_control())
            .with_por(PorLevel::Off)
            .synthesize()
            .expect("feasible");
        let stubborn = Project::new(small_control())
            .synthesize()
            .expect("feasible");
        // Stubborn never explores more than the unreduced search and its
        // schedule still passes the spec-level checker.
        assert!(stubborn.stats.states_visited <= off.stats.states_visited);
        assert!(stubborn.validate().is_empty());
        assert!(off.replay_ok && stubborn.replay_ok);
    }

    #[test]
    fn code_generation_reaches_all_targets() {
        let outcome = Project::new(small_control()).synthesize().unwrap();
        for target in Target::ALL {
            let code = outcome.generate_code(target);
            assert!(code.source.contains("ezrt_dispatch"), "{target}");
        }
    }
}
