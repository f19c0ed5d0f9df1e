//! Building blocks and net composition: the ezRealtime specification →
//! time Petri net translation (paper §3.3).
//!
//! The translation assembles, for every task, the blocks of Figs. 1 and 2:
//!
//! * a **fork block** starting all tasks (`t_start`, interval `[0,0]`);
//! * a **periodic task arrival block** per task: `t_ph` (interval
//!   `[ph_i, ph_i]`) releases the first instance and deposits the
//!   remaining `N(t_i) − 1` instance tokens, which `t_a` (interval
//!   `[p_i, p_i]`) releases one per period;
//! * a **deadline checking block** per task: every arrival arms a watcher
//!   place; `t_d` (interval `[d_i, d_i]`) fires into a *deadline-miss*
//!   place if the watcher is still armed, while `t_pc` (interval `[0,0]`)
//!   disarms it when the instance completes;
//! * a **task structure block** per task — non-preemptive (Fig. 2(a):
//!   `t_r [r, d−c] → t_g [0,0] → t_c [c,c] → t_f [0,0]`) or preemptive
//!   (Fig. 2(b): the computation is split into `[1,1]` unit steps, each
//!   releasing the processor, with budget/done places of weight `c_i`);
//! * a **processor block** per processor: a single resource place holding
//!   one token, granting mutually exclusive execution;
//! * a **join block** consuming `N(t_i)` finished tokens per task; its
//!   output place marks the desired final marking `MF` (Def. 3.2).
//!
//! Inter-task relations add structure between release and grant
//! (paper §3.3.2): precedence inserts a `t_prec [0,0]` stage consuming a
//! token produced by the predecessor's finish transition (Fig. 3);
//! exclusion inserts a lock-acquire stage per pair sharing a one-token
//! lock place returned at finish (Fig. 4); messages insert a bus-transfer
//! pipeline (grant → transfer over a shared bus resource) feeding a
//! receive stage.
//!
//! The result is a [`TaskNet`]: the net plus the semantic map
//! ([`TransitionRole`]) the scheduler, code generator and benchmarks need
//! to interpret firings as task-level events.
//!
//! # Examples
//!
//! ```
//! use ezrt_spec::corpus::mine_pump;
//! use ezrt_compose::translate;
//!
//! let tasknet = translate(&mine_pump());
//! // 10 tasks, each with arrival, deadline-checking and task structure
//! // blocks, plus fork/join and one processor place.
//! assert!(tasknet.net().place_count() > 80);
//! assert!(!tasknet.is_final(tasknet.net().initial_marking()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blocks;
mod priority;
mod relations;
mod roles;
mod tasknet;
mod translate;

pub use priority::Priority;
pub use roles::TransitionRole;
pub use tasknet::{TaskNet, TaskTransitions};
pub use translate::translate;
