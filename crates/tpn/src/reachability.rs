//! The shared packed explorer of the timed state space.
//!
//! [`Explorer`] is the one state-space kernel the goal-directed
//! depth-first synthesis search in `ezrt-scheduler` drives; its schedule
//! replay oracle, the other TLTS walker, fires straight on the net. Both
//! walk the same TLTS defined by
//! [`TimePetriNet::fire`](crate::TimePetriNet::fire), and both do it
//! through the packed representation of [`arena`](crate::arena): states
//! live interned in a [`StateArena`], successors are written into reusable
//! scratch buffers with [`TimePetriNet::fire_into`], and set membership is
//! integer arithmetic over [`StateId`]s — no heap allocation per successor
//! in the steady state. Walkers carry each state's enabled set (a
//! transition bitmask) beside its id: it is scanned once at the start
//! state ([`Explorer::enabled_into`]) and derived from the parent's set on
//! every firing after that. Likewise a successor's state key is its
//! parent's cached key plus the change the firing returns, so interning
//! never rehashes a whole state.
//!
//! The value-typed [`successors`] function remains as the reference the
//! kernel's property tests compare the packed firings against.

use crate::arena::{ArenaBuffers, StateArena, StateId};
use crate::{DelayMode, Firing, State, Time, TimeBound, TimePetriNet, TransitionId};

/// Expands fireable-set firing domains into concrete labels `(t, q)`
/// under `mode`, appending to `out` in the canonical order: domains order
/// (ascending transition id), then ascending delay — the order of the
/// value-typed [`successors`].
///
/// This is the **single** delay-enumeration implementation behind the
/// scheduler's candidate generation.
pub fn expand_delay_labels(
    mode: DelayMode,
    domains: &[(TransitionId, Time, TimeBound)],
    out: &mut Vec<(TransitionId, Time)>,
) {
    for &(t, dlb, upper) in domains {
        match (mode, upper) {
            (DelayMode::Earliest, _) => out.push((t, dlb)),
            (DelayMode::Corners, TimeBound::Finite(ub)) if ub > dlb => {
                out.push((t, dlb));
                out.push((t, ub));
            }
            (DelayMode::Corners, _) => out.push((t, dlb)),
            (DelayMode::Full, TimeBound::Finite(ub)) => {
                out.extend((dlb..=ub).map(|q| (t, q)));
            }
            (DelayMode::Full, TimeBound::Infinite) => out.push((t, dlb)),
        }
    }
}

/// The shared packed state-space explorer.
///
/// An `Explorer` bundles a net with a [`StateArena`] and the successor
/// buffer the alloc-free firing API needs. Every firing
/// ([`fire`](Self::fire)) interns its result, so a state is stored exactly
/// once no matter how many paths reach it.
///
/// Enabled sets are not interned: the caller keeps each state's set next
/// to its id and passes it in, and every firing hands back the
/// successor's set.
///
/// # Examples
///
/// ```
/// use ezrt_tpn::reachability::Explorer;
/// use ezrt_tpn::{TimeInterval, TpnBuilder};
///
/// # fn main() -> Result<(), ezrt_tpn::BuildNetError> {
/// let mut b = TpnBuilder::new("loop");
/// let a = b.place_with_tokens("a", 1);
/// let t = b.transition("t", TimeInterval::exact(1));
/// b.arc_place_to_transition(a, t, 1);
/// b.arc_transition_to_place(t, a, 1);
/// let net = b.build()?;
///
/// let mut explorer = Explorer::new(&net);
/// let s0 = explorer.intern_initial();
/// let (mut enabled, mut next_enabled) = (Vec::new(), Vec::new());
/// explorer.enabled_into(s0, &mut enabled);
/// let (next, fresh) = explorer.fire(s0, &enabled, t, 1, &mut next_enabled);
/// assert_eq!(next_enabled, enabled, "the loop keeps `t` enabled");
/// assert_eq!(next, s0, "the self-loop dedups back to the initial state");
/// assert!(!fresh);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Explorer<'net> {
    net: &'net TimePetriNet,
    arena: StateArena,
    /// Scratch buffer `fire_into` writes successors into.
    successor: Vec<u32>,
}

impl<'net> Explorer<'net> {
    /// A fresh explorer over `net` with an empty arena.
    pub fn new(net: &'net TimePetriNet) -> Self {
        Self::with_buffers(net, ArenaBuffers::default())
    }

    /// An explorer over `net` whose empty arena reuses `buffers` (see
    /// [`StateArena::with_buffers`]): it explores exactly like
    /// [`new`](Self::new)'s.
    pub fn with_buffers(net: &'net TimePetriNet, buffers: ArenaBuffers) -> Self {
        let layout = net.layout();
        Explorer {
            net,
            arena: StateArena::with_buffers(layout, buffers),
            successor: vec![0; layout.words()],
        }
    }

    /// The arena of states interned so far.
    pub fn arena(&self) -> &StateArena {
        &self.arena
    }

    /// Gives the arena's memory back for [`with_buffers`](Self::with_buffers).
    pub fn into_buffers(self) -> ArenaBuffers {
        self.arena.into_buffers()
    }

    /// Interns the initial state `s0 = (m0, 0⃗)` and returns its id.
    pub fn intern_initial(&mut self) -> StateId {
        self.net.write_initial_packed(&mut self.successor);
        self.arena.intern(&self.successor).0
    }

    /// The packed words of an interned state.
    pub fn state(&self, id: StateId) -> &[u32] {
        self.arena.get(id)
    }

    /// The packed words of the last state this explorer fired into or
    /// interned, read from its own successor buffer: the same words as
    /// [`state`](Self::state) of the id that call returned.
    pub fn successor(&self) -> &[u32] {
        &self.successor
    }

    /// Writes the enabled set of an interned state into `out` — the one
    /// full scan (see [`TimePetriNet::enabled_into`]), for start states
    /// that have no parent set to derive theirs from.
    pub fn enabled_into(&self, id: StateId, out: &mut Vec<u64>) {
        self.net.enabled_into(self.arena.get(id), out);
    }

    /// Fires `t` after `delay` from the interned state `from`, whose
    /// enabled set is `enabled`, interning the successor and writing its
    /// enabled set into `successor_enabled`. Returns the successor's id
    /// and whether it is a fresh state. The successor is interned by
    /// `from`'s cached key plus the key change the firing returns.
    ///
    /// Like [`TimePetriNet::fire_unchecked`], legality of the label is not
    /// re-validated.
    pub fn fire(
        &mut self,
        from: StateId,
        enabled: &[u64],
        t: TransitionId,
        delay: Time,
        successor_enabled: &mut Vec<u64>,
    ) -> (StateId, bool) {
        let key_delta = self.net.fire_into(
            self.arena.get(from),
            enabled,
            t,
            delay,
            &mut self.successor,
            successor_enabled,
        );
        let key = self.arena.key(from).wrapping_add(key_delta);
        self.arena.intern_keyed(&self.successor, key)
    }
}

/// Enumerates the successor firings of `state` under `mode` through the
/// boundary value types: the reference the packed firings are checked
/// against.
///
/// Every returned `(firing, successor)` pair is legal with respect to
/// `FT(s)` and `FD_s(t)`; the list is empty exactly when the state is a
/// deadlock (nothing enabled) — with the caveat that an enabled transition
/// always yields at least one candidate under the paper's fireable-set
/// definition.
pub fn successors(net: &TimePetriNet, state: &State, mode: DelayMode) -> Vec<(Firing, State)> {
    let mut out = Vec::new();
    let min_dub = net.min_dynamic_upper_bound(state);
    for t in net.fireable(state) {
        let (dlb, _) = net
            .firing_domain(state, t)
            .expect("fireable transitions are enabled");
        let delays: Vec<Time> = match (mode, min_dub) {
            (DelayMode::Earliest, _) => vec![dlb],
            (DelayMode::Corners, TimeBound::Finite(ub)) if ub > dlb => vec![dlb, ub],
            (DelayMode::Corners, _) => vec![dlb],
            (DelayMode::Full, TimeBound::Finite(ub)) => (dlb..=ub).collect(),
            (DelayMode::Full, TimeBound::Infinite) => vec![dlb],
        };
        for q in delays {
            let next = net.fire_unchecked(state, t, q);
            out.push((Firing::new(t, q), next));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClockBounds, TimeInterval, TpnBuilder};

    /// A diamond: start branches to two independent chains that rejoin.
    fn diamond() -> TimePetriNet {
        let mut b = TpnBuilder::new("diamond");
        let start = b.place_with_tokens("start", 1);
        let left = b.place("left");
        let right = b.place("right");
        let done = b.place("done");
        let tl = b.transition("tl", TimeInterval::immediate());
        let tr = b.transition("tr", TimeInterval::immediate());
        let jl = b.transition("jl", TimeInterval::exact(1));
        let jr = b.transition("jr", TimeInterval::exact(2));
        b.arc_place_to_transition(start, tl, 1);
        b.arc_place_to_transition(start, tr, 1);
        b.arc_transition_to_place(tl, left, 1);
        b.arc_transition_to_place(tr, right, 1);
        b.arc_place_to_transition(left, jl, 1);
        b.arc_place_to_transition(right, jr, 1);
        b.arc_transition_to_place(jl, done, 1);
        b.arc_transition_to_place(jr, done, 1);
        b.build().unwrap()
    }

    #[test]
    fn full_delay_mode_enumerates_domain() {
        let mut b = TpnBuilder::new("window");
        let p = b.place_with_tokens("p", 1);
        let t = b.transition("t", TimeInterval::new(1, 3).unwrap());
        b.arc_place_to_transition(p, t, 1);
        let net = b.build().unwrap();
        let s0 = net.initial_state();
        assert_eq!(successors(&net, &s0, DelayMode::Earliest).len(), 1);
        assert_eq!(successors(&net, &s0, DelayMode::Corners).len(), 2);
        assert_eq!(successors(&net, &s0, DelayMode::Full).len(), 3);
    }

    #[test]
    fn corners_collapse_for_punctual_intervals() {
        let mut b = TpnBuilder::new("punct");
        let p = b.place_with_tokens("p", 1);
        let t = b.transition("t", TimeInterval::exact(5));
        b.arc_place_to_transition(p, t, 1);
        let net = b.build().unwrap();
        assert_eq!(
            successors(&net, &net.initial_state(), DelayMode::Corners).len(),
            1
        );
    }

    #[test]
    fn explorer_edges_match_value_successors() {
        let net = diamond();
        let layout = net.layout();
        let mut explorer = Explorer::new(&net);
        let s0 = explorer.intern_initial();
        let (mut enabled, mut next_enabled) = (Vec::new(), Vec::new());
        let (mut bounds, mut domains) = (ClockBounds::default(), Vec::new());
        explorer.enabled_into(s0, &mut enabled);
        net.clock_bounds_into(explorer.state(s0), &enabled, &mut bounds);
        net.fireable_domains_into(&bounds, &mut domains);
        for mode in [DelayMode::Earliest, DelayMode::Corners, DelayMode::Full] {
            let mut labels = Vec::new();
            expand_delay_labels(mode, &domains, &mut labels);
            let value_edges = successors(&net, &net.initial_state(), mode);
            assert_eq!(labels.len(), value_edges.len());
            for (&(t, q), (firing, next)) in labels.iter().zip(&value_edges) {
                assert_eq!(Firing::new(t, q), *firing);
                let (id, _) = explorer.fire(s0, &enabled, t, q, &mut next_enabled);
                assert_eq!(&layout.unpack(explorer.state(id)), next);
            }
        }
    }

    #[test]
    fn explorer_fire_interns_each_state_once() {
        let net = diamond();
        let mut explorer = Explorer::new(&net);
        let s0 = explorer.intern_initial();
        let (mut enabled, mut left) = (Vec::new(), Vec::new());
        explorer.enabled_into(s0, &mut enabled);
        let tl = net.transition_id("tl").unwrap();
        let (left_a, fresh_a) = explorer.fire(s0, &enabled, tl, 0, &mut left);
        let (left_b, fresh_b) = explorer.fire(s0, &enabled, tl, 0, &mut left);
        assert!(fresh_a);
        assert!(!fresh_b);
        assert_eq!(left_a, left_b);
        assert_eq!(explorer.arena().len(), 2);
    }

    #[test]
    fn explorer_boundary_conversions_round_trip() {
        let net = diamond();
        let layout = net.layout();
        let mut explorer = Explorer::new(&net);
        let s0 = explorer.intern_initial();
        let value = layout.unpack(explorer.state(s0));
        assert_eq!(value, net.initial_state());
        let mut packed = vec![0; layout.words()];
        layout.pack(&value, &mut packed);
        assert_eq!(packed, explorer.state(s0));
        let (mut enabled, mut bounds, mut domains) =
            (Vec::new(), ClockBounds::default(), Vec::new());
        explorer.enabled_into(s0, &mut enabled);
        net.clock_bounds_into(explorer.state(s0), &enabled, &mut bounds);
        net.fireable_domains_into(&bounds, &mut domains);
        let fireable: Vec<_> = domains.iter().map(|&(t, _, _)| t).collect();
        assert_eq!(fireable, net.fireable(&value));
        for &(t, dlb, upper) in &domains {
            assert_eq!(Some((dlb, upper)), net.firing_domain(&value, t));
        }
    }
}
