//! The ezRealtime pipeline: specification → time Petri net → feasible
//! schedule → scheduled C code → simulated execution (paper Fig. 6).
//!
//! [`Project`] is the programmatic equivalent of the tool's GUI flow:
//!
//! 1. obtain a specification — built with
//!    [`SpecBuilder`](ezrt_spec::SpecBuilder), taken from
//!    [`corpus`](ezrt_spec::corpus), or loaded from the XML DSL with
//!    [`Project::from_dsl`];
//! 2. [`Project::synthesize`] translates it into the time Petri net
//!    (composition of building blocks), runs the pre-runtime depth-first
//!    search and reconstructs the execution timeline and the Fig. 8
//!    schedule table;
//! 3. the resulting [`Outcome`]'s [`Solution`] (spec, net, schedule;
//!    timeline and table derived once) generates C code for a chosen
//!    [`Target`](ezrt_codegen::Target), executes the schedule on the
//!    simulated dispatcher, re-validates it against the specification,
//!    and exports its Gantt chart and PNML.
//!
//! # Examples
//!
//! ```
//! use ezrt_core::Project;
//! use ezrt_codegen::Target;
//! use ezrt_spec::corpus::small_control;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let project = Project::new(small_control());
//! let outcome = project.synthesize()?;
//!
//! let solution = &outcome.solution;
//! assert!(solution.schedule().is_feasible());
//! assert!(solution.validate().is_empty());
//!
//! let code = solution.generate_code(Target::PosixSim);
//! assert!(code.source.contains("scheduleTable"));
//!
//! let report = solution.execute_for(3);
//! assert!(report.is_timely());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod canonical;
mod project;
mod solution;

pub use project::{Outcome, Project};
pub use solution::Solution;
