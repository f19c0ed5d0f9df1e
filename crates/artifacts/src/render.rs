//! Rendering: `(SynthesisOutcome, ArtifactKind) → bytes`, the one code
//! path behind `ezrt table|codegen|gantt|pnml|schedule --json`, the
//! HTTP artifact endpoints and the batch rows.
//!
//! Rendering is a **pure function** of the outcome: two calls with the
//! same outcome and kind produce identical bytes, and an outcome that
//! round-trips through the disk-cache codec renders the same bytes as
//! the freshly computed one (the timeline and table are deterministic
//! functions of net + schedule). Each artifact's text comes from one
//! [`Solution`](ezrt_core::Solution) method. The byte formats are
//! exactly what the CLI has always printed, so switching the CLI onto
//! this layer changed no output.

use crate::kind::ArtifactKind;
use crate::outcome::SynthesisOutcome;
use crate::report;
use std::fmt;

/// One rendered artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Artifact {
    /// The kind that was rendered.
    pub kind: ArtifactKind,
    /// The MIME content type (from [`ArtifactKind::content_type`]).
    pub content_type: &'static str,
    /// The rendered bytes. Always valid UTF-8 — every artifact is text.
    pub text: String,
}

/// Why an artifact could not be rendered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RenderError {
    /// The outcome holds no feasible schedule, and the requested kind
    /// needs one (everything except `report-json`).
    Infeasible {
        /// The synthesis error text recorded in the outcome.
        error: Option<String>,
    },
}

impl fmt::Display for RenderError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RenderError::Infeasible { error } => write!(
                f,
                "schedule synthesis failed: {}",
                error.as_deref().unwrap_or("no feasible schedule")
            ),
        }
    }
}

impl std::error::Error for RenderError {}

/// The default Gantt window for a hyperperiod: `[0, min(120, H))`,
/// never empty — the CLI's historical no-argument window.
pub fn default_gantt_window(hyperperiod: u64) -> (u64, u64) {
    (0, 120.min(hyperperiod.max(1)))
}

/// Renders `kind` from `outcome`.
///
/// # Errors
///
/// Returns [`RenderError::Infeasible`] when the kind requires a
/// feasible schedule and the outcome has none. `report-json` always
/// renders (it carries the failure verdict itself).
pub fn render(outcome: &SynthesisOutcome, kind: ArtifactKind) -> Result<Artifact, RenderError> {
    let _span = ezrt_obs::span("render");
    let text = match kind {
        ArtifactKind::ReportJson => {
            let mut text = report::render_pretty(&outcome.fields);
            text.push('\n');
            text
        }
        schedule_kind => {
            let Some(solution) = outcome.solution.as_ref() else {
                return Err(RenderError::Infeasible {
                    error: outcome.error.clone(),
                });
            };
            match schedule_kind {
                ArtifactKind::ReportJson => unreachable!("handled above"),
                ArtifactKind::Table => solution.table().to_c_array(),
                ArtifactKind::Codegen(target) => {
                    let code = solution.generate_code(target);
                    format!(
                        "/* ===== {} ===== */\n{}\n/* ===== {} ===== */\n{}\n",
                        code.header_name, code.header, code.source_name, code.source
                    )
                }
                ArtifactKind::Gantt => {
                    let (from, to) = default_gantt_window(solution.spec().hyperperiod());
                    solution.gantt(from, to)
                }
                ArtifactKind::Pnml => {
                    let mut text = solution.to_pnml();
                    text.push('\n');
                    text
                }
            }
        }
    };
    Ok(Artifact {
        kind,
        content_type: kind.content_type(),
        text,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::project_digest;
    use crate::outcome::compute_outcome;
    use ezrt_core::Project;
    use ezrt_spec::corpus::small_control;
    use ezrt_spec::SpecBuilder;

    fn feasible_outcome() -> SynthesisOutcome {
        let project = Project::new(small_control());
        let digest = project_digest(&project);
        compute_outcome(&project, digest)
    }

    #[test]
    fn rendering_is_pure() {
        let outcome = feasible_outcome();
        for kind in ArtifactKind::ALL {
            let first = render(&outcome, kind).expect("renders");
            let second = render(&outcome, kind).expect("renders");
            assert_eq!(first, second, "{kind}");
            assert!(!first.text.is_empty(), "{kind}");
            assert_eq!(first.content_type, kind.content_type());
        }
    }

    #[test]
    fn rendered_shapes_match_their_kinds() {
        let outcome = feasible_outcome();
        let table = render(&outcome, ArtifactKind::Table).unwrap().text;
        assert!(table.starts_with("struct ScheduleItem scheduleTable"));
        let code = render(&outcome, ArtifactKind::Codegen(ezrt_codegen::Target::I8051))
            .unwrap()
            .text;
        assert!(code.contains("__interrupt(1)"));
        assert!(code.starts_with("/* ===== ezrt_schedule.h ===== */\n"));
        let gantt = render(&outcome, ArtifactKind::Gantt).unwrap().text;
        assert!(gantt.contains('#'));
        let pnml = render(&outcome, ArtifactKind::Pnml).unwrap().text;
        assert!(ezrt_pnml::from_pnml(&pnml).is_ok());
        assert!(pnml.ends_with('\n'));
        let report = render(&outcome, ArtifactKind::ReportJson).unwrap().text;
        assert!(report.starts_with("{\n") && report.ends_with("}\n"));
        assert!(report.contains("\"feasible\": true"));
    }

    #[test]
    fn infeasible_outcomes_render_only_the_report() {
        let overload = SpecBuilder::new("overload")
            .task("x", |t| t.computation(3).deadline(4).period(4))
            .task("y", |t| t.computation(2).deadline(4).period(4))
            .build()
            .unwrap();
        let project = Project::new(overload);
        let outcome = compute_outcome(&project, project_digest(&project));
        let report = render(&outcome, ArtifactKind::ReportJson).expect("report renders");
        assert!(report.text.contains("\"feasible\": false"));
        for kind in ArtifactKind::ALL
            .into_iter()
            .filter(|k| k.requires_schedule())
        {
            let error = render(&outcome, kind).expect_err("needs a schedule");
            assert!(
                error.to_string().contains("no feasible schedule"),
                "{kind}: {error}"
            );
        }
    }

    #[test]
    fn default_gantt_window_is_never_empty() {
        assert_eq!(default_gantt_window(0), (0, 1));
        assert_eq!(default_gantt_window(20), (0, 20));
        assert_eq!(default_gantt_window(2000), (0, 120));
    }
}
