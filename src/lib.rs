//! # ezrealtime — meta-crate
//!
//! Umbrella crate for the ezRealtime workspace, a Rust reproduction of
//! *"ezRealtime: A Domain-Specific Modeling Tool for Embedded Hard Real-Time
//! Software Synthesis"* (Cruz, Barreto, Cordeiro, Maciel — DATE 2008).
//!
//! It re-exports every sub-crate under a stable name so applications can
//! depend on a single crate:
//!
//! * [`spec`] — the specification metamodel (paper Fig. 5): periodic tasks,
//!   timing constraints, PRECEDES/EXCLUDES relations, processors, messages.
//! * [`tpn`] — time Petri nets with priorities and code bindings, and their
//!   timed labelled transition system semantics (paper §3.1).
//! * [`compose`] — the building blocks (paper Figs. 1–4) and the
//!   specification→net translation.
//! * [`scheduler`] — pre-runtime schedule synthesis by depth-first search
//!   with partial-order reduction (paper §4.4.1).
//! * [`codegen`] — scheduled C code generation: schedule table, dispatcher
//!   and timer interrupt handler (paper §4.4.2, Fig. 8).
//! * [`sim`] — discrete-time execution of generated schedules plus online
//!   EDF/RM/DM baselines.
//! * [`dsl`] — the `<rt:ez-spec>` XML language (paper Fig. 7).
//! * [`pnml`] — PNML ISO/IEC 15909-2 interchange (paper §4.1).
//! * [`core`] — the end-to-end [`core::Project`] pipeline (paper Fig. 6)
//!   and [`core::Solution`], the one feasible-result type every artifact
//!   is derived from.
//! * [`artifacts`] — the artifact layer: every output of a synthesis
//!   (report JSON, schedule table, generated C, Gantt, PNML) rendered
//!   as a pure function of one cached outcome, plus the disk-cache
//!   codec.
//! * [`server`] — the synthesis service: canonical spec digests, the
//!   singleflight result cache with its persistent disk tier, the
//!   std-only HTTP front end (`ezrt serve`, keep-alive, artifact
//!   endpoints) and batch fan-out (`ezrt batch`).
//!
//! # Quickstart
//!
//! ```
//! use ezrealtime::core::Project;
//! use ezrealtime::spec::{SpecBuilder, SchedulingMethod};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let spec = SpecBuilder::new("demo")
//!     .task("sensor", |t| t.computation(1).deadline(4).period(5))
//!     .task("actuator", |t| t.computation(2).deadline(5).period(5))
//!     .precedes("sensor", "actuator")
//!     .build()?;
//!
//! let project = Project::new(spec);
//! let outcome = project.synthesize()?;
//!
//! // One solution — spec, net and schedule — is the source of every
//! // artifact: its timeline and schedule table are derived once.
//! let solution = &outcome.solution;
//! assert!(solution.schedule().is_feasible());
//! assert!(solution.validate().is_empty());
//! assert!(solution.table().to_c_array().contains("sensor"));
//! # Ok(())
//! # }
//! ```

pub use ezrt_artifacts as artifacts;
pub use ezrt_codegen as codegen;
pub use ezrt_compose as compose;
pub use ezrt_core as core;
pub use ezrt_dsl as dsl;
pub use ezrt_obs as obs;
pub use ezrt_pnml as pnml;
pub use ezrt_scheduler as scheduler;
pub use ezrt_server as server;
pub use ezrt_sim as sim;
pub use ezrt_spec as spec;
pub use ezrt_tpn as tpn;
pub use ezrt_xml as xml;
