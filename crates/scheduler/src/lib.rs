//! Pre-runtime schedule synthesis (paper §4.4.1).
//!
//! The synthesis algorithm is a **depth-first search** over the timed
//! labelled transition system derived from the translated time Petri net.
//! The stop criterion is reaching the explicitly modelled final marking
//! `MF`; any state marking a deadline-miss place is pruned. To keep the
//! state-space growth under control the search applies a partial-order
//! reduction: maximal-priority *bookkeeping* firings (finish, deadline
//! disarm, relation stages, arrivals) are conflict-checked and, when
//! independent, explored in one canonical order instead of all
//! permutations — the role the paper assigns to Lilius-style partial-order
//! state-space pruning.
//!
//! Branching choices (who gets the processor; when to release within
//! `[r, d − c]`) are ordered by an earliest-deadline-first heuristic, so
//! the first depth-first descent already is a plausible schedule and
//! backtracking only repairs local mistakes. On the paper's mine pump
//! case study the search visits a state count within a few percent of the
//! forced minimum, matching the 3 268-vs-3 130 shape reported in §5.
//!
//! ```
//! use ezrt_compose::translate;
//! use ezrt_scheduler::{synthesize, SchedulerConfig};
//! use ezrt_spec::corpus::small_control;
//!
//! # fn main() -> Result<(), ezrt_scheduler::SynthesizeError> {
//! let tasknet = translate(&small_control());
//! let synthesis = synthesize(&tasknet, &SchedulerConfig::default())?;
//! println!(
//!     "feasible: {} firings, {} states searched",
//!     synthesis.schedule.firings().len(),
//!     synthesis.stats.states_visited
//! );
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod error;
mod obs;
pub mod reference;
pub mod replay;
mod schedule;
mod search;
mod stats;
pub mod timeline;
pub mod validate;

pub use config::{BranchOrdering, Parallelism, PorLevel, SchedulerConfig};
pub use error::SynthesizeError;
pub use obs::register_metrics;
pub use reference::synthesize_reference;
pub use schedule::{FeasibleSchedule, ScheduledFiring};
pub use search::{synthesize, synthesize_parallel, synthesize_seeded, Synthesis};
pub use stats::{SearchCounter, SearchStats};
pub use timeline::{Slice, Timeline};
