//! The CLI compile path, driven through the crates' public API: spec
//! bytes → `Project::from_dsl` → `project_digest` → `compute_outcome` →
//! `render` of every artifact kind. `pipeline` and `proofs` time this
//! path; their traced runs wrap each call in a span and add *probes*:
//! the same spec taken through the layers `compute_outcome` calls
//! internally, one public call at a time, so their cost can be read
//! from outside the program.

use crate::trace::Tracer;
use ezrt_artifacts::{codec, compute_outcome, project_digest, render, ArtifactKind};
use ezrt_artifacts::{SpecDigest, SynthesisOutcome};
use ezrt_codegen::ScheduleTable;
use ezrt_compose::translate;
use ezrt_core::Project;
use ezrt_scheduler::{synthesize, validate, SchedulerConfig, Timeline};

/// What one compile produced.
#[derive(Debug)]
pub struct Compiled {
    pub project: Project,
    pub digest: SpecDigest,
    pub outcome: SynthesisOutcome,
    /// Every kind that rendered (infeasible outcomes render only the
    /// report), with its bytes.
    pub artifacts: Vec<(ArtifactKind, String)>,
}

/// A stable short name per artifact kind, used in metric names.
pub fn kind_name(kind: ArtifactKind) -> &'static str {
    match kind {
        ArtifactKind::ReportJson => "report-json",
        ArtifactKind::Table => "table",
        ArtifactKind::Codegen(_) => "codegen",
        ArtifactKind::Gantt => "gantt",
        ArtifactKind::Pnml => "pnml",
    }
}

fn step<T>(tracer: &mut Option<&mut Tracer>, name: &str, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some(tracer) => tracer.span(name, |_| f()),
        None => f(),
    }
}

/// Runs the compile path on `xml` at `jobs` synthesis workers, with a
/// span around every public call when `tracer` is given.
pub fn compile(
    xml: &str,
    jobs: usize,
    mut tracer: Option<&mut Tracer>,
) -> Result<Compiled, String> {
    let project = step(&mut tracer, "dsl.parse", || Project::from_dsl(xml))
        .map_err(|error| format!("spec does not parse: {error}"))?
        .with_jobs(jobs);
    let digest = step(&mut tracer, "digest", || project_digest(&project));
    let outcome = step(&mut tracer, "artifacts.compute_outcome", || {
        compute_outcome(&project, digest)
    });
    let mut artifacts = Vec::with_capacity(ArtifactKind::ALL.len());
    for kind in ArtifactKind::ALL {
        let name = format!("artifacts.render.{}", kind_name(kind));
        if let Ok(artifact) = step(&mut tracer, &name, || render(&outcome, kind)) {
            artifacts.push((kind, artifact.text));
        }
    }
    Ok(Compiled {
        project,
        digest,
        outcome,
        artifacts,
    })
}

/// FNV-1a 64 over `bytes` — the bench's own hash for recorded artifact
/// digests, independent of the program's digest code.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for &byte in bytes {
        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// A fingerprint of everything deterministic a compile produced: the
/// digest, the verdict and every artifact's bytes except the report,
/// whose wall-time fields differ run to run.
pub fn fingerprint(compiled: &Compiled) -> u64 {
    let mut text = format!("{}:{}", compiled.digest.to_hex(), compiled.outcome.feasible);
    for (kind, bytes) in &compiled.artifacts {
        if *kind != ArtifactKind::ReportJson {
            text.push_str(&format!(
                ":{}:{:016x}",
                kind_name(*kind),
                fnv64(bytes.as_bytes())
            ));
        }
    }
    fnv64(text.as_bytes())
}

/// Takes `compiled`'s spec through the layers inside `compute_outcome`,
/// one public call per span, plus the disk codec. Every probe span sits
/// under one `probe` root so coverage arithmetic can keep them apart
/// from the timed path.
pub fn probe_layers(tracer: &mut Tracer, compiled: &Compiled) {
    let project = &compiled.project;
    let digest = compiled.digest;
    tracer.span("probe", |tracer| {
        let whole = tracer.span("core.synthesize", |_| project.synthesize());
        let spec = project.spec();
        let config = SchedulerConfig {
            parallelism: ezrt_scheduler::Parallelism::new(1),
            ..project.config().clone()
        };
        let tasknet = tracer.span("compose.translate", |_| translate(spec));
        let search = tracer.span("scheduler.search", |_| synthesize(&tasknet, &config));
        if let Ok(synthesis) = &search {
            let timeline = tracer.span("timeline.derive", |_| {
                Timeline::from_schedule(&tasknet, &synthesis.schedule)
            });
            tracer.span("codegen.table", |_| {
                ScheduleTable::from_timeline(spec, &timeline)
            });
            tracer.span("scheduler.validate", |_| validate::check(spec, &timeline));
            let _ = tracer.span("sim.replay", |_| {
                ezrt_sim::replay::replay(&tasknet, &synthesis.schedule)
            });
        }
        tracer.span("artifacts.fields", |_| match &whole {
            Ok(outcome) => ezrt_artifacts::report::success_fields(&digest, project, outcome),
            Err(error) => ezrt_artifacts::report::failure_fields(&digest, error),
        });
        let bytes = tracer.span("artifacts.encode", |_| {
            codec::encode_file(&compiled.outcome)
        });
        let decoded = tracer.span("artifacts.decode", |_| codec::decode_file(&bytes));
        debug_assert!(decoded.is_ok());
    });
}
