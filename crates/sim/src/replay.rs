//! Net-level replay of synthesized schedules.
//!
//! [`validate`](ezrt_scheduler::validate) re-checks a timeline against the
//! *specification*; [`replay`] re-checks the firing schedule against the
//! *net semantics* — every firing a member of `FT(s)` with a delay inside
//! `FD_s(t)`, no deadline-miss place marked, the run reaching the final
//! marking `MF` — on the same packed kernel the search drives. The
//! oracle lives in [`ezrt_scheduler::replay`], where it is also the
//! verbatim warm-start path; this module re-exports it next to the
//! simulator.

pub use ezrt_scheduler::replay::{replay, ReplayError, ReplayReport};
