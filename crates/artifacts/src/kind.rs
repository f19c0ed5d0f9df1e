//! Artifact kinds: the closed set of outputs derivable from one
//! synthesis outcome, with a stable textual naming used by the CLI, the
//! HTTP artifact endpoints and the disk cache alike.

use ezrt_codegen::Target;
use std::fmt;

/// One renderable artifact kind.
///
/// The textual form (accepted by [`parse`](Self::parse), produced by
/// [`Display`](fmt::Display)) is the `<kind>` segment of the server's
/// `GET /v1/artifact/<digest>/<kind>` route:
///
/// | text | artifact |
/// |------|----------|
/// | `report-json`       | the `ezrt schedule --json` flat report |
/// | `table`             | the Fig. 8 schedule table as a C array |
/// | `codegen:<target>`  | the generated C translation unit (`codegen` alone means `codegen:posix_sim`) |
/// | `gantt`             | the ASCII timeline over the default window |
/// | `pnml`              | the synthesized net as ISO 15909-2 PNML |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArtifactKind {
    /// The flat-JSON synthesis report (works for infeasible outcomes
    /// too — it carries the `feasible: false` verdict).
    ReportJson,
    /// The schedule table rendered as the paper's Fig. 8 C array.
    Table,
    /// The complete generated C translation unit for one target.
    Codegen(Target),
    /// The ASCII Gantt chart over the canonical default window
    /// (`[0, min(120, hyperperiod))`, the CLI's no-argument window).
    Gantt,
    /// The synthesized time Petri net as PNML.
    Pnml,
}

impl ArtifactKind {
    /// Every kind in its default form, for sweeps and documentation
    /// (code generation is represented by its default target).
    pub const ALL: [ArtifactKind; 5] = [
        ArtifactKind::ReportJson,
        ArtifactKind::Table,
        ArtifactKind::Codegen(Target::PosixSim),
        ArtifactKind::Gantt,
        ArtifactKind::Pnml,
    ];

    /// How many distinct kinds exist: four, plus code generation once
    /// per [`Target`].
    pub const COUNT: usize = 4 + Target::ALL.len();

    /// A dense index in `0..COUNT`, distinct for every kind.
    pub fn index(self) -> usize {
        match self {
            ArtifactKind::ReportJson => 0,
            ArtifactKind::Table => 1,
            ArtifactKind::Gantt => 2,
            ArtifactKind::Pnml => 3,
            ArtifactKind::Codegen(target) => 4 + target as usize,
        }
    }

    /// Parses the textual kind name.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the accepted kinds (and
    /// targets, for `codegen:<target>`) when `text` is not one of them.
    pub fn parse(text: &str) -> Result<ArtifactKind, String> {
        match text {
            "report-json" => Ok(ArtifactKind::ReportJson),
            "table" => Ok(ArtifactKind::Table),
            "gantt" => Ok(ArtifactKind::Gantt),
            "pnml" => Ok(ArtifactKind::Pnml),
            "codegen" => Ok(ArtifactKind::Codegen(Target::PosixSim)),
            _ => {
                if let Some(target) = text.strip_prefix("codegen:") {
                    let target = Target::ALL
                        .into_iter()
                        .find(|t| t.name() == target)
                        .ok_or_else(|| {
                            format!(
                                "unknown target {target:?} (expected one of {})",
                                Target::ALL.map(Target::name).join("|")
                            )
                        })?;
                    return Ok(ArtifactKind::Codegen(target));
                }
                Err(format!(
                    "unknown artifact kind {text:?} (expected report-json|table|codegen[:<target>]|gantt|pnml)"
                ))
            }
        }
    }

    /// The MIME content type the HTTP front end serves this kind under:
    /// the table and generated code are C source, the Gantt chart is
    /// plain text, the report is JSON, the net is XML (PNML).
    pub fn content_type(&self) -> &'static str {
        match self {
            ArtifactKind::ReportJson => "application/json",
            ArtifactKind::Table | ArtifactKind::Codegen(_) => "text/x-csrc; charset=utf-8",
            ArtifactKind::Gantt => "text/plain; charset=utf-8",
            ArtifactKind::Pnml => "application/xml",
        }
    }

    /// Whether rendering this kind requires a feasible schedule.
    /// Only the JSON report can be rendered from an infeasible outcome.
    pub fn requires_schedule(&self) -> bool {
        !matches!(self, ArtifactKind::ReportJson)
    }
}

impl fmt::Display for ArtifactKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactKind::ReportJson => write!(f, "report-json"),
            ArtifactKind::Table => write!(f, "table"),
            ArtifactKind::Codegen(target) => write!(f, "codegen:{}", target.name()),
            ArtifactKind::Gantt => write!(f, "gantt"),
            ArtifactKind::Pnml => write!(f, "pnml"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_through_parse() {
        for kind in ArtifactKind::ALL {
            assert_eq!(ArtifactKind::parse(&kind.to_string()), Ok(kind));
        }
        for target in Target::ALL {
            let kind = ArtifactKind::Codegen(target);
            assert_eq!(ArtifactKind::parse(&kind.to_string()), Ok(kind));
        }
    }

    #[test]
    fn bare_codegen_defaults_to_the_posix_simulator() {
        assert_eq!(
            ArtifactKind::parse("codegen"),
            Ok(ArtifactKind::Codegen(Target::PosixSim))
        );
    }

    #[test]
    fn junk_kinds_and_targets_are_rejected_with_guidance() {
        let error = ArtifactKind::parse("sbom").expect_err("unknown kind");
        assert!(error.contains("report-json|table|codegen"), "{error}");
        let error = ArtifactKind::parse("codegen:z80").expect_err("unknown target");
        assert!(error.contains("unknown target"), "{error}");
        assert!(error.contains("posix_sim"), "{error}");
    }

    #[test]
    fn content_types_are_per_kind() {
        assert_eq!(ArtifactKind::ReportJson.content_type(), "application/json");
        assert_eq!(
            ArtifactKind::Table.content_type(),
            "text/x-csrc; charset=utf-8"
        );
        assert_eq!(
            ArtifactKind::Codegen(Target::I8051).content_type(),
            "text/x-csrc; charset=utf-8"
        );
        assert_eq!(
            ArtifactKind::Gantt.content_type(),
            "text/plain; charset=utf-8"
        );
        assert_eq!(ArtifactKind::Pnml.content_type(), "application/xml");
    }

    #[test]
    fn indices_number_every_kind_once() {
        let mut kinds = ArtifactKind::ALL.to_vec();
        kinds.extend(Target::ALL.map(ArtifactKind::Codegen));
        let mut indices: Vec<usize> = kinds.iter().map(|kind| kind.index()).collect();
        indices.sort_unstable();
        indices.dedup();
        assert_eq!(indices, (0..ArtifactKind::COUNT).collect::<Vec<_>>());
    }

    #[test]
    fn only_the_report_renders_without_a_schedule() {
        for kind in ArtifactKind::ALL {
            assert_eq!(
                kind.requires_schedule(),
                kind != ArtifactKind::ReportJson,
                "{kind}"
            );
        }
    }
}
