//! The ezRealtime **artifact layer**: every output derivable from one
//! synthesis — the flat-JSON report, the Fig. 8 schedule table, the
//! generated C translation unit, the ASCII Gantt chart, the PNML
//! export — rendered as a pure function of `(SynthesisOutcome,
//! ArtifactKind)`.
//!
//! The paper's pipeline (Fig. 6) makes one feasible firing schedule
//! the source of every downstream artifact. This crate is that
//! property turned into an architecture:
//!
//! * [`digest`] — the stable FNV-1a 64+128 spec digest (the
//!   content-address every artifact is keyed under);
//! * [`outcome`] — [`SynthesisOutcome`]: one synthesis run packaged
//!   with its [`ezrt_core::Solution`] (spec, net, schedule, and the
//!   timeline and table derived once) so any artifact can be
//!   re-rendered without re-searching ([`compute_outcome`] produces
//!   it);
//! * [`kind`] — [`ArtifactKind`]: the closed set of artifact kinds and
//!   their stable textual names (`report-json`, `table`,
//!   `codegen:<target>`, `gantt`, `pnml`);
//! * [`render`](mod@render) — [`render()`](render()): the one rendering code path
//!   shared by the CLI (`ezrt table|codegen|gantt|pnml`), the HTTP
//!   artifact endpoints and batch mode, so all surfaces emit
//!   byte-identical artifacts for one digest;
//! * [`report`] — the flat-JSON field rendering shared by `ezrt
//!   schedule --json`, batch rows and `/v1/schedule` bodies;
//! * [`codec`] — the versioned, length-prefixed, checksummed byte
//!   format `ezrt-server`'s disk cache tier persists outcomes in.
//!
//! # Examples
//!
//! ```
//! use ezrt_artifacts::{compute_outcome, project_digest, render, ArtifactKind};
//! use ezrt_core::Project;
//! use ezrt_spec::corpus::small_control;
//!
//! let project = Project::new(small_control());
//! let digest = project_digest(&project);
//! let outcome = compute_outcome(&project, digest);
//!
//! let table = render(&outcome, ArtifactKind::Table).expect("feasible");
//! assert!(table.text.starts_with("struct ScheduleItem scheduleTable"));
//!
//! // Rendering is pure: a decoded disk-cache entry renders the same bytes.
//! let reloaded = ezrt_artifacts::codec::decode_file(&ezrt_artifacts::codec::encode_file(&outcome))
//!     .expect("round-trips");
//! assert_eq!(render(&reloaded, ArtifactKind::Table).unwrap().text, table.text);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod digest;
pub mod kind;
pub mod outcome;
pub mod render;
pub mod report;

pub use digest::{
    format_task_subdigests, project_digest, structure_digest, task_subdigests, SpecDigest,
};
pub use kind::ArtifactKind;
pub use outcome::{compute_outcome, compute_outcome_incremental, RenderMemo, SynthesisOutcome};
pub use render::{default_gantt_window, render, Artifact, RenderError};
