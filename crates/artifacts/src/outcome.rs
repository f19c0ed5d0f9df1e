//! The cached unit of work: one synthesis run packaged so that **every**
//! downstream artifact — report JSON, schedule table, generated C,
//! Gantt, PNML — can be rendered from it without re-searching.
//!
//! A [`SynthesisOutcome`] keeps only the *irreducible* results (the
//! parsed spec, the feasible firing schedule, the search counters and
//! the pre-rendered report fields); everything else — the translated
//! net, the execution timeline, the Fig. 8 table — is a deterministic
//! function of spec + schedule and is re-derived lazily on first
//! artifact render (`Solution::derived`). That is what makes the type
//! disk-persistable: the codec serializes spec + schedule, and a
//! decoded outcome renders byte-identical artifacts by construction.

use crate::digest::SpecDigest;
use crate::report::{self, JsonFields};
use ezrt_codegen::ScheduleTable;
use ezrt_compose::{translate, TaskNet};
use ezrt_core::Project;
use ezrt_scheduler::{FeasibleSchedule, SearchStats, Timeline};
use ezrt_spec::EzSpec;
use std::sync::OnceLock;

/// Everything one synthesis run produced, cached under its digest: the
/// feasible solution (when one exists), the search statistics, the
/// replay verdict of the net-semantics oracle, and the pre-rendered
/// flat-JSON report fields every surface serves.
#[derive(Debug)]
pub struct SynthesisOutcome {
    /// The digest this outcome is keyed under.
    pub digest: SpecDigest,
    /// Whether a feasible schedule was found.
    pub feasible: bool,
    /// The synthesis error text when infeasible (`None` when feasible).
    pub error: Option<String>,
    /// The shared flat-JSON field list (`ezrt schedule --json` plus
    /// `spec_digest`); the server appends its `cache` field per
    /// response, so cached bodies stay byte-identical per lookup kind.
    pub fields: JsonFields,
    /// The search counters of the run that produced this outcome.
    pub stats: SearchStats,
    /// `Some(true)` when the schedule replayed cleanly through the
    /// net-semantics oracle ([`ezrt_core::Outcome::replay_ok`]),
    /// `Some(false)` when it did not (a kernel bug), `None` for
    /// infeasible outcomes.
    pub replay_ok: Option<bool>,
    /// The feasible solution — spec + schedule, plus lazily re-derived
    /// net/timeline/table — that schedule-dependent artifacts render
    /// from. `None` for infeasible outcomes.
    pub solution: Option<Solution>,
}

/// A feasible solution: the parsed specification and the firing
/// schedule, with the derived structures (translated net, timeline,
/// schedule table) materialized on first use and shared afterwards.
#[derive(Debug)]
pub struct Solution {
    spec: EzSpec,
    schedule: FeasibleSchedule,
    derived: OnceLock<Derived>,
}

/// Structures deterministically derivable from spec + schedule.
#[derive(Debug)]
pub(crate) struct Derived {
    pub(crate) tasknet: TaskNet,
    pub(crate) timeline: Timeline,
    pub(crate) table: ScheduleTable,
}

impl Solution {
    /// Wraps a spec + schedule pair; derived structures materialize on
    /// first artifact render. This is the decode path of the disk cache.
    pub fn new(spec: EzSpec, schedule: FeasibleSchedule) -> Solution {
        Solution {
            spec,
            schedule,
            derived: OnceLock::new(),
        }
    }

    pub(crate) fn with_derived(
        spec: EzSpec,
        schedule: FeasibleSchedule,
        derived: Derived,
    ) -> Solution {
        let cell = OnceLock::new();
        let _ = cell.set(derived);
        Solution {
            spec,
            schedule,
            derived: cell,
        }
    }

    /// The parsed specification.
    pub fn spec(&self) -> &EzSpec {
        &self.spec
    }

    /// The feasible firing schedule.
    pub fn schedule(&self) -> &FeasibleSchedule {
        &self.schedule
    }

    pub(crate) fn derived(&self) -> &Derived {
        self.derived.get_or_init(|| {
            let tasknet = translate(&self.spec);
            let timeline = Timeline::from_schedule(&tasknet, &self.schedule);
            let table = ScheduleTable::from_timeline(&self.spec, &timeline);
            Derived {
                tasknet,
                timeline,
                table,
            }
        })
    }

    /// The ASCII Gantt chart of the window `[from, to)` — the windowed
    /// variant behind the CLI's explicit `ezrt gantt spec.xml from to`
    /// form (the canonical `gantt` artifact uses the default window).
    pub fn gantt_window(&self, from: u64, to: u64) -> String {
        let derived = self.derived();
        derived.timeline.gantt(&derived.tasknet, from, to)
    }

    /// Re-checks the derived timeline against the specification with
    /// the net-independent validator; empty means valid. This is how a
    /// caller holding only a cached outcome (the CLI's human `schedule`
    /// report, say) can show *which* constraints a nonzero `violations`
    /// count refers to.
    pub fn validate(&self) -> Vec<ezrt_scheduler::validate::ScheduleViolation> {
        ezrt_scheduler::validate::check(&self.spec, &self.derived().timeline)
    }
}

/// Runs the synthesis for `project` and packages the result for the
/// cache: search and its net-level replay verdict, spec-level validation
/// (the `violations` field), rendered JSON fields, and the solution the
/// artifact renderers consume.
pub fn compute_outcome(project: &Project, digest: SpecDigest) -> SynthesisOutcome {
    package(project, digest, project.synthesize())
}

/// [`compute_outcome`] warm-started from an `ancestor` outcome: the
/// ancestor's schedule prefix seeds the search through
/// [`Project::synthesize_incremental`], and
/// [`SearchStats::incr_states_saved`] is filled in from the ancestor's
/// own state count before the report fields render. Ancestors without a
/// feasible solution have nothing to seed with and fall back to a cold
/// [`compute_outcome`].
pub fn compute_outcome_incremental(
    project: &Project,
    digest: SpecDigest,
    ancestor: &SynthesisOutcome,
) -> SynthesisOutcome {
    let Some(prev) = ancestor.solution.as_ref() else {
        return compute_outcome(project, digest);
    };
    let mut result = project.synthesize_incremental(prev.schedule());
    if let Ok(outcome) = result.as_mut() {
        if outcome.stats.incr_seed_hits > 0 {
            outcome.stats.incr_states_saved = ancestor
                .stats
                .states_visited
                .saturating_sub(outcome.stats.states_visited);
        }
    }
    package(project, digest, result)
}

/// Packages a synthesis verdict for the cache. The replay verdict is the
/// one the synthesis already computed; nothing is replayed here.
fn package(
    project: &Project,
    digest: SpecDigest,
    result: Result<ezrt_core::Outcome, ezrt_scheduler::SynthesizeError>,
) -> SynthesisOutcome {
    match result {
        Ok(outcome) => {
            let fields = report::success_fields(&digest, project, &outcome);
            let parts = outcome.into_parts();
            SynthesisOutcome {
                digest,
                feasible: true,
                error: None,
                fields,
                stats: parts.stats.clone(),
                replay_ok: Some(parts.replay_ok),
                solution: Some(Solution::with_derived(
                    parts.spec,
                    parts.schedule,
                    Derived {
                        tasknet: parts.tasknet,
                        timeline: parts.timeline,
                        table: parts.table,
                    },
                )),
            }
        }
        Err(error) => SynthesisOutcome {
            digest,
            feasible: false,
            error: Some(error.to_string()),
            fields: report::failure_fields(&digest, &error),
            stats: error.stats().clone(),
            replay_ok: None,
            solution: None,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::project_digest;
    use ezrt_spec::corpus::small_control;
    use ezrt_spec::SpecBuilder;

    #[test]
    fn compute_outcome_packages_success_and_failure() {
        use ezrt_scheduler::SchedulerConfig;

        let project = Project::new(small_control());
        let digest = project_digest(&project);
        let outcome = compute_outcome(&project, digest);
        assert!(outcome.feasible);
        assert_eq!(outcome.error, None);
        assert_eq!(outcome.replay_ok, Some(true));
        assert!(outcome.solution.is_some());
        assert_eq!(outcome.fields[0], ("feasible", "true".to_owned()));

        let overload = SpecBuilder::new("overload")
            .task("x", |t| t.computation(3).deadline(4).period(4))
            .task("y", |t| t.computation(2).deadline(4).period(4))
            .build()
            .unwrap();
        let project = Project::new(overload);
        let digest = project_digest(&project);
        let outcome = compute_outcome(&project, digest);
        assert!(!outcome.feasible);
        assert!(outcome
            .error
            .as_deref()
            .is_some_and(|e| e.contains("no feasible schedule")));
        assert_eq!(outcome.replay_ok, None);
        assert!(outcome.solution.is_none());
        let config_digest =
            project_digest(&Project::new(small_control()).with_config(SchedulerConfig {
                max_states: 1,
                ..SchedulerConfig::default()
            }));
        assert_ne!(digest, config_digest);
    }

    #[test]
    fn lazily_derived_solution_matches_the_seeded_one() {
        let project = Project::new(small_control());
        let digest = project_digest(&project);
        let computed = compute_outcome(&project, digest);
        let seeded = computed.solution.as_ref().expect("feasible");
        let lazy = Solution::new(seeded.spec().clone(), seeded.schedule().clone());
        assert_eq!(
            seeded.derived().table.to_c_array(),
            lazy.derived().table.to_c_array()
        );
        assert_eq!(seeded.gantt_window(0, 20), lazy.gantt_window(0, 20));
    }
}
