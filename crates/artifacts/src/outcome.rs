//! The cached unit of work: one synthesis run packaged so that **every**
//! downstream artifact — report JSON, schedule table, generated C,
//! Gantt, PNML — can be rendered from it without re-searching.
//!
//! A [`SynthesisOutcome`] holds the search counters, the pre-rendered
//! report fields and the feasible [`Solution`], moved in whole from the
//! synthesis. The codec persists its spec + schedule, and a decoded
//! outcome renders byte-identical artifacts by construction. The
//! rendered bytes themselves can be memoized on the outcome
//! ([`RenderMemo`]), so they live exactly as long as it does.

use crate::digest::SpecDigest;
use crate::kind::ArtifactKind;
use crate::report::{self, JsonFields};
use ezrt_core::{Project, Solution};
use ezrt_scheduler::{SearchStats, SynthesizeError};
use std::sync::{Arc, OnceLock};

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
    /// `false` for a verdict that depends on load rather than on the
    /// spec (a time-budget abort): no cache tier may keep it, so a
    /// later request searches again. A state-budget abort is
    /// deterministic and stays cacheable.
    pub cacheable: bool,
    /// `Some(true)` when the schedule replayed cleanly through the
    /// net-semantics oracle ([`ezrt_core::Outcome::replay_ok`]),
    /// `Some(false)` when it did not (a kernel bug), `None` for
    /// infeasible outcomes.
    pub replay_ok: Option<bool>,
    /// The feasible solution — spec, net and schedule, with its
    /// timeline and table derived once — that schedule-dependent
    /// artifacts render from. `None` for infeasible outcomes.
    pub solution: Option<Solution>,
    /// Artifact bytes already rendered from this outcome. Empty when
    /// packaged or decoded; the serving cache fills it.
    pub rendered: RenderMemo,
}

/// Rendered artifact bytes memoized on the outcome they render: one
/// write-once slot per [`ArtifactKind`]. Rendering is pure, so a filled
/// slot never changes; a racing second render keeps the first bytes.
#[derive(Debug, Default)]
pub struct RenderMemo {
    slots: [OnceLock<Arc<[u8]>>; ArtifactKind::COUNT],
}

impl RenderMemo {
    /// The memoized bytes of `kind`, when it was rendered before.
    pub fn get(&self, kind: ArtifactKind) -> Option<&Arc<[u8]>> {
        self.slots[kind.index()].get()
    }

    /// Memoizes `bytes` as the rendering of `kind`, unless a slot
    /// already holds it.
    pub fn fill(&self, kind: ArtifactKind, bytes: Arc<[u8]>) {
        let _ = self.slots[kind.index()].set(bytes);
    }

    /// How many kinds are memoized, and their bytes in total.
    pub fn footprint(&self) -> (usize, u64) {
        self.slots
            .iter()
            .filter_map(OnceLock::get)
            .fold((0, 0), |(kinds, total), bytes| {
                (kinds + 1, total + bytes.len() as u64)
            })
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
/// one the synthesis already computed; nothing is replayed here. Traced
/// as one `package` span, which holds the report fields' `validate`.
fn package(
    project: &Project,
    digest: SpecDigest,
    result: Result<ezrt_core::Outcome, SynthesizeError>,
) -> SynthesisOutcome {
    let _span = ezrt_obs::span("package");
    match result {
        Ok(outcome) => SynthesisOutcome {
            digest,
            feasible: true,
            error: None,
            fields: report::success_fields(&digest, project, &outcome),
            stats: outcome.stats,
            cacheable: true,
            replay_ok: Some(outcome.replay_ok),
            solution: Some(outcome.solution),
            rendered: RenderMemo::default(),
        },
        Err(error) => SynthesisOutcome {
            digest,
            feasible: false,
            error: Some(error.to_string()),
            fields: report::failure_fields(&digest, &error),
            stats: error.stats().clone(),
            cacheable: !matches!(error, SynthesizeError::TimeLimitExceeded { .. }),
            replay_ok: None,
            solution: None,
            rendered: RenderMemo::default(),
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
}
