//! Discrete-time execution of schedules, plus online scheduling
//! baselines.
//!
//! The paper deploys its generated code on physical microcontrollers;
//! this reproduction substitutes a discrete-time executor
//! ([`dispatch`]) that runs a synthesized
//! [`Timeline`](ezrt_scheduler::Timeline) for any number of schedule
//! periods and measures what the paper promises qualitatively: *timely
//! and predictable* execution — zero deadline misses, zero release
//! jitter, a bounded number of context switches, plus energy accounting
//! from the metamodel's per-task `energy` attribute.
//!
//! The [`online`] module provides the comparison axis the paper leaves
//! implicit: classic *runtime* scheduling (EDF, rate-monotonic and
//! deadline-monotonic, each preemptive and non-preemptive), simulated on
//! the same specifications with the same precedence/exclusion semantics.
//! The benchmark harness uses it to regenerate the pre-runtime-vs-online
//! feasibility and jitter comparisons.
//!
//! The [`mod@replay`] module closes the loop at the net level: it
//! re-exports the scheduler's replay oracle, which re-runs a synthesized
//! firing schedule through the same packed
//! [`Explorer`](ezrt_tpn::reachability::Explorer) kernel the scheduler
//! searched with, re-validating every firing against the TLTS semantics.
//!
//! # Examples
//!
//! ```
//! use ezrt_compose::translate;
//! use ezrt_scheduler::{synthesize, SchedulerConfig, Timeline};
//! use ezrt_sim::dispatch::{DispatchConfig, execute};
//! use ezrt_spec::corpus::small_control;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let spec = small_control();
//! let tasknet = translate(&spec);
//! let synthesis = synthesize(&tasknet, &SchedulerConfig::default())?;
//! let timeline = Timeline::from_schedule(&tasknet, &synthesis.schedule);
//! let report = execute(&spec, &timeline, &DispatchConfig::default());
//! assert_eq!(report.deadline_misses.len(), 0);
//! assert_eq!(report.max_release_jitter(), 0, "pre-runtime schedules are jitter-free");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod dispatch;
pub mod metrics;
pub mod online;
pub mod replay;

pub use dispatch::{execute, DispatchConfig};
pub use metrics::{ExecutionReport, MissRecord, ResponseStats};
pub use online::{simulate_online, OnlinePolicy, OnlineReport};
pub use replay::{replay, ReplayError, ReplayReport};
