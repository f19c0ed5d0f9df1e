//! Time Petri nets with priorities and code bindings.
//!
//! This crate implements the computational model of the ezRealtime paper
//! (§3.1): a *time Petri net* (TPN) in the sense of Merlin & Faber,
//!
//! > `P = (P, T, F, W, m0, I)`
//!
//! where `P` are places, `T` transitions, `F ⊆ (P×T) ∪ (T×P)` the arcs,
//! `W : F → ℕ` arc weights, `m0` the initial marking and
//! `I : T → ℕ × ℕ` static firing intervals `[EFT(t), LFT(t)]`.
//! The *extended* net `Pa = (P, CS, π)` additionally assigns behavioural
//! source code to transitions (`CS`, a partial function) and a priority
//! (`π : T → ℕ`, smaller value = higher priority).
//!
//! Its semantics is a timed labelled transition system (TLTS) over a
//! **discrete** time model: a state is a pair `(m, c)` of a marking and a
//! clock vector over the enabled transitions; labels are pairs `(t, q)` —
//! transition `t` fires after waiting `q` time units, with `q` drawn from
//! the *firing domain* `FD_s(t) = [DLB(t), min_k DUB(t_k)]`
//! (Definitions 3.1 and 3.2 of the paper, reproduced on [`State`]).
//!
//! The crate deliberately knows nothing about real-time *tasks*; the
//! task-level building blocks live in `ezrt-compose` and the pre-runtime
//! search in `ezrt-scheduler`. What lives here:
//!
//! * [`TimePetriNet`] — net structure, constructed through [`TpnBuilder`];
//! * [`Marking`], [`State`], [`Firing`] — the TLTS semantics;
//! * [`analysis`] — structural queries (conflicts, dead transitions,
//!   invariant-style token conservation checks);
//! * [`reachability`] — bounded state-space exploration;
//! * [`dot`] — Graphviz export for debugging and documentation.
//!
//! # Examples
//!
//! A tiny producer/consumer net: `t_prod` fires exactly every 5 time units
//! and `t_cons` consumes within 2:
//!
//! ```
//! use ezrt_tpn::{TpnBuilder, TimeInterval};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = TpnBuilder::new("producer-consumer");
//! let idle = b.place_with_tokens("idle", 1);
//! let full = b.place("full");
//! let prod = b.transition("t_prod", TimeInterval::exact(5));
//! let cons = b.transition("t_cons", TimeInterval::new(0, 2)?);
//! b.arc_place_to_transition(idle, prod, 1);
//! b.arc_transition_to_place(prod, full, 1);
//! b.arc_place_to_transition(full, cons, 1);
//! b.arc_transition_to_place(cons, idle, 1);
//! let net = b.build()?;
//!
//! let s0 = net.initial_state();
//! let fireable = net.fireable(&s0);
//! assert_eq!(fireable.len(), 1);           // only t_prod is enabled
//! let (s1, _) = net.fire(&s0, prod, 5)?;   // fire at its EFT
//! assert!(net.enabled(s1.marking()).contains(&cons));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod arena;
pub mod dot;
mod error;
mod ids;
mod interval;
pub mod invariants;
mod marking;
mod net;
pub mod por;
pub mod reachability;
mod state;

pub use arena::{StateArena, StateId, StateLayout};
pub use error::{BuildNetError, FireError};
pub use ids::{PlaceId, TransitionId};
pub use interval::{TimeBound, TimeInterval};
pub use marking::Marking;
pub use net::{Place, TimePetriNet, TpnBuilder, Transition};
pub use por::DependencyMatrix;
pub use state::{Firing, State};

/// Discrete model time, in the specification's abstract *task time units*
/// (the paper's mine pump uses milliseconds).
pub type Time = u64;

/// How firing delays are enumerated when generating successors.
///
/// This is the **single shared** delay-enumeration type for every explorer
/// in the workspace: the bounded reachability search
/// ([`reachability::explore`]), the scheduler's synthesis DFS
/// (`ezrt_scheduler`) and the simulator's replay oracle (`ezrt_sim`) all
/// take it, so a configuration travels unchanged across layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DelayMode {
    /// Fire each fireable transition as early as possible (`q = DLB`).
    /// Smallest state space; sufficient for nets whose flexibility lives in
    /// transition *choice* rather than delay (the ezRealtime blocks).
    #[default]
    Earliest,
    /// Fire at both corners of the firing domain (`q = DLB` and
    /// `q = min DUB`) when they differ.
    Corners,
    /// Enumerate every integer delay in the firing domain. Complete for the
    /// discrete-time semantics, exponentially larger.
    Full,
}
