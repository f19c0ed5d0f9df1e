//! Bounded exploration of the timed state space.
//!
//! This module provides the workspace's **shared packed explorer**
//! ([`Explorer`]) — the one state-space kernel every TLTS walker drives:
//! the generic breadth-first exploration here ([`explore`], used for
//! boundedness checks, deadlock hunting and state counting), the
//! goal-directed depth-first synthesis search in `ezrt-scheduler`, and its
//! schedule replay oracle. All of them walk the same TLTS
//! defined by [`TimePetriNet::fire`](crate::TimePetriNet::fire), and all
//! of them do it through the packed representation of
//! [`arena`](crate::arena): states live interned in a [`StateArena`],
//! successors are generated into reusable scratch buffers with
//! [`TimePetriNet::fire_into`], and set membership is integer arithmetic
//! over [`StateId`]s — no heap allocation per successor in the steady
//! state. Walkers carry each state's enabled set (a transition bitmask)
//! beside its id: it is scanned once at the start state
//! ([`Explorer::enabled_into`]) and derived from the parent's set on every
//! firing after that. Likewise a successor's state key is its parent's
//! cached key plus the change the firing returns, so interning never
//! rehashes a whole state.
//!
//! The value-typed [`successors`] function remains as the ergonomic
//! boundary API for small-scale semantic checks and property tests.

use crate::arena::{ArenaBuffers, StateArena, StateId, StateLayout};
use crate::{ClockBounds, Firing, State, Time, TimeBound, TimePetriNet, TransitionId};
use std::collections::VecDeque;

// The shared delay-enumeration mode lives at the crate root; re-exported
// here because this is where explorers historically picked it up.
pub use crate::DelayMode;

/// Limits that keep an exploration finite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExplorationLimits {
    /// Maximum number of distinct states to visit.
    pub max_states: usize,
    /// Maximum depth (number of firings from the initial state).
    pub max_depth: usize,
}

impl Default for ExplorationLimits {
    fn default() -> Self {
        ExplorationLimits {
            max_states: 100_000,
            max_depth: 100_000,
        }
    }
}

/// Result of a bounded exploration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReachabilityReport {
    /// Number of distinct states visited (including the initial state).
    pub states_visited: usize,
    /// Number of TLTS edges generated.
    pub edges: usize,
    /// Deadlock states encountered (no enabled transition).
    pub deadlocks: usize,
    /// Largest number of tokens observed on any single place.
    pub max_place_tokens: u32,
    /// Whether a limit stopped the exploration before exhaustion.
    pub truncated: bool,
}

/// One generated successor edge: the label, the interned successor state,
/// and whether that state was seen for the first time.
pub type SuccessorEdge = (Firing, StateId, bool);

/// Expands fireable-set firing domains into concrete labels `(t, q)`
/// under `mode`, appending to `out` in the canonical order every explorer
/// uses: domains order (ascending transition id), then ascending delay.
///
/// This is the **single** delay-enumeration implementation behind
/// [`Explorer::successors_into`] and the scheduler's candidate
/// generation, so label order agrees across explorers by construction.
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
/// An `Explorer` bundles a net with a [`StateArena`] and the scratch
/// buffers the alloc-free firing API needs. Successor generation
/// ([`successors_into`](Self::successors_into)) and single firings
/// ([`fire`](Self::fire)) intern their results, so a state is stored
/// exactly once no matter how many paths reach it, and every consumer
/// (DFS, BFS, replay) shares identical TLTS semantics.
///
/// Enabled sets are not interned: the caller keeps each state's set next
/// to its id and passes it in, and every firing hands back the
/// successor's set.
///
/// # Examples
///
/// ```
/// use ezrt_tpn::reachability::Explorer;
/// use ezrt_tpn::{DelayMode, TimeInterval, TpnBuilder};
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
/// let mut enabled = Vec::new();
/// explorer.enabled_into(s0, &mut enabled);
/// let (mut successors, mut sets) = (Vec::new(), Vec::new());
/// explorer.successors_into(s0, &enabled, DelayMode::Earliest, &mut successors, &mut sets);
/// let (firing, next, fresh) = successors[0];
/// assert_eq!(sets, enabled, "the loop keeps `t` enabled");
/// assert_eq!(firing.delay(), 1);
/// assert_eq!(next, s0, "the self-loop dedups back to the initial state");
/// assert!(!fresh);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Explorer<'net> {
    net: &'net TimePetriNet,
    layout: StateLayout,
    arena: StateArena,
    /// Scratch buffer `fire_into` writes successors into.
    successor: Vec<u32>,
    /// Scratch buffer for the successor's enabled set.
    successor_enabled: Vec<u64>,
    /// Scratch buffer for the clock-bounds walk.
    bounds: ClockBounds,
    /// Scratch buffer for the fireable set with firing domains.
    domains: Vec<(TransitionId, Time, TimeBound)>,
    /// Scratch buffer for the expanded labels.
    labels: Vec<(TransitionId, Time)>,
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
            layout,
            arena: StateArena::with_buffers(layout, buffers),
            successor: vec![0; layout.words()],
            successor_enabled: Vec::new(),
            bounds: ClockBounds::default(),
            domains: Vec::new(),
            labels: Vec::new(),
        }
    }

    /// The net being explored.
    pub fn net(&self) -> &'net TimePetriNet {
        self.net
    }

    /// The packed state layout.
    pub fn layout(&self) -> StateLayout {
        self.layout
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

    /// Unpacks an interned state into the boundary [`State`] value type.
    pub fn unpack(&self, id: StateId) -> State {
        self.layout.unpack(self.arena.get(id))
    }

    /// Interns a boundary [`State`] value (one packing per call; use the
    /// packed entry points for hot loops).
    pub fn intern_state(&mut self, state: &State) -> (StateId, bool) {
        self.layout.pack(state, &mut self.successor);
        self.arena.intern(&self.successor)
    }

    /// Writes the enabled set of an interned state into `out` — the one
    /// full scan (see [`TimePetriNet::enabled_into`]), for start states
    /// that have no parent set to derive theirs from.
    pub fn enabled_into(&self, id: StateId, out: &mut Vec<u64>) {
        self.net.enabled_into(self.arena.get(id), out);
    }

    /// Computes the fireable set of an interned state, whose enabled set
    /// is `enabled`, together with the firing domains, `(t, DLB(t),
    /// min DUB)` triples: one [`TimePetriNet::clock_bounds_into`] walk,
    /// then [`TimePetriNet::fireable_domains_into`].
    pub fn fireable_domains_into(
        &mut self,
        id: StateId,
        enabled: &[u64],
        out: &mut Vec<(TransitionId, Time, TimeBound)>,
    ) {
        self.net
            .clock_bounds_into(self.arena.get(id), enabled, &mut self.bounds);
        self.net.fireable_domains_into(&self.bounds, out);
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

    /// Enumerates the successor edges of an interned state, whose enabled
    /// set is `enabled`, under `mode` into the caller's reusable buffer
    /// (cleared first). The successors' enabled sets go to `sets`
    /// (cleared first), back to back in edge order, `enabled.len()` words
    /// each.
    ///
    /// Every edge is legal with respect to `FT(s)` and `FD_s(t)`; the
    /// buffer is left empty exactly when the state is a deadlock. Edge
    /// order matches the value-typed [`successors`]: ascending transition
    /// id, then ascending delay.
    pub fn successors_into(
        &mut self,
        id: StateId,
        enabled: &[u64],
        mode: DelayMode,
        out: &mut Vec<SuccessorEdge>,
        sets: &mut Vec<u64>,
    ) {
        out.clear();
        sets.clear();
        let mut domains = std::mem::take(&mut self.domains);
        let mut labels = std::mem::take(&mut self.labels);
        let mut successor_enabled = std::mem::take(&mut self.successor_enabled);
        self.fireable_domains_into(id, enabled, &mut domains);
        labels.clear();
        expand_delay_labels(mode, &domains, &mut labels);
        for &(t, q) in &labels {
            let (next, fresh) = self.fire(id, enabled, t, q, &mut successor_enabled);
            out.push((Firing::new(t, q), next, fresh));
            sets.extend_from_slice(&successor_enabled);
        }
        self.domains = domains;
        self.labels = labels;
        self.successor_enabled = successor_enabled;
    }
}

/// Enumerates the successor firings of `state` under `mode` through the
/// boundary value types.
///
/// Every returned `(firing, successor)` pair is legal with respect to
/// `FT(s)` and `FD_s(t)`; the list is empty exactly when the state is a
/// deadlock (nothing enabled) — with the caveat that an enabled transition
/// always yields at least one candidate under the paper's fireable-set
/// definition. Hot loops should prefer [`Explorer::successors_into`],
/// which allocates nothing per successor.
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

/// Breadth-first exploration of the reachable timed state space from the
/// initial state, bounded by `limits`, on the packed kernel.
///
/// # Examples
///
/// ```
/// use ezrt_tpn::{TpnBuilder, TimeInterval};
/// use ezrt_tpn::reachability::{explore, DelayMode, ExplorationLimits};
///
/// # fn main() -> Result<(), ezrt_tpn::BuildNetError> {
/// let mut b = TpnBuilder::new("loop");
/// let a = b.place_with_tokens("a", 1);
/// let t = b.transition("t", TimeInterval::exact(1));
/// b.arc_place_to_transition(a, t, 1);
/// b.arc_transition_to_place(t, a, 1);
/// let net = b.build()?;
/// let report = explore(&net, DelayMode::Earliest, ExplorationLimits::default());
/// assert_eq!(report.states_visited, 1, "self-loop returns to the same state");
/// assert_eq!(report.deadlocks, 0);
/// # Ok(())
/// # }
/// ```
pub fn explore(
    net: &TimePetriNet,
    mode: DelayMode,
    limits: ExplorationLimits,
) -> ReachabilityReport {
    let _span = ezrt_obs::span("explore");
    let mut explorer = Explorer::new(net);
    let mut queue: VecDeque<(StateId, usize)> = VecDeque::new();
    // The queued states' enabled sets, back to back in queue order.
    let mut queued_sets: VecDeque<u64> = VecDeque::new();
    let (mut enabled, mut edges, mut sets) = (Vec::new(), Vec::new(), Vec::new());
    let mut report = ReachabilityReport {
        states_visited: 0,
        edges: 0,
        deadlocks: 0,
        max_place_tokens: 0,
        truncated: false,
    };

    let s0 = explorer.intern_initial();
    track_tokens(&mut report, &explorer, s0);
    explorer.enabled_into(s0, &mut enabled);
    let set_words = enabled.len();
    queue.push_back((s0, 0));
    queued_sets.extend(&enabled);
    report.states_visited = 1;

    while let Some((id, depth)) = queue.pop_front() {
        enabled.clear();
        enabled.extend(queued_sets.drain(..set_words));
        if depth >= limits.max_depth {
            report.truncated = true;
            continue;
        }
        explorer.successors_into(id, &enabled, mode, &mut edges, &mut sets);
        if edges.is_empty() {
            report.deadlocks += 1;
            continue;
        }
        for (&(_, next, fresh), set) in edges.iter().zip(sets.chunks_exact(set_words)) {
            report.edges += 1;
            if !fresh {
                continue;
            }
            if report.states_visited >= limits.max_states {
                report.truncated = true;
                continue;
            }
            track_tokens(&mut report, &explorer, next);
            report.states_visited += 1;
            queue.push_back((next, depth + 1));
            queued_sets.extend(set);
        }
    }
    report
}

fn track_tokens(report: &mut ReachabilityReport, explorer: &Explorer<'_>, id: StateId) {
    let place_count = explorer.layout().place_count();
    for &tokens in &explorer.state(id)[..place_count] {
        report.max_place_tokens = report.max_place_tokens.max(tokens);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TimeInterval, TpnBuilder};

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
    fn explores_branching_state_space() {
        let report = explore(
            &diamond(),
            DelayMode::Earliest,
            ExplorationLimits::default(),
        );
        // s0 -> {left} -> {done} and s0 -> {right} -> {done}; the two
        // `done` states coincide (clocks normalized).
        assert_eq!(report.states_visited, 4);
        assert_eq!(report.deadlocks, 1);
        assert!(!report.truncated);
    }

    #[test]
    fn max_states_limit_truncates() {
        let report = explore(
            &diamond(),
            DelayMode::Earliest,
            ExplorationLimits {
                max_states: 2,
                max_depth: 100,
            },
        );
        assert!(report.truncated);
        assert_eq!(report.states_visited, 2);
    }

    #[test]
    fn depth_limit_truncates() {
        let report = explore(
            &diamond(),
            DelayMode::Earliest,
            ExplorationLimits {
                max_states: 100,
                max_depth: 1,
            },
        );
        assert!(report.truncated);
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
    fn tracks_max_place_tokens() {
        let mut b = TpnBuilder::new("acc");
        let src = b.place_with_tokens("src", 1);
        let acc = b.place("acc");
        let t = b.transition("t", TimeInterval::immediate());
        b.arc_place_to_transition(src, t, 1);
        b.arc_transition_to_place(t, acc, 7);
        let net = b.build().unwrap();
        let report = explore(&net, DelayMode::Earliest, ExplorationLimits::default());
        assert_eq!(report.max_place_tokens, 7);
    }

    #[test]
    fn explorer_edges_match_value_successors() {
        let net = diamond();
        let mut explorer = Explorer::new(&net);
        let s0 = explorer.intern_initial();
        let (mut enabled, mut sets) = (Vec::new(), Vec::new());
        explorer.enabled_into(s0, &mut enabled);
        for mode in [DelayMode::Earliest, DelayMode::Corners, DelayMode::Full] {
            let mut packed_edges = Vec::new();
            explorer.successors_into(s0, &enabled, mode, &mut packed_edges, &mut sets);
            let value_edges = successors(&net, &net.initial_state(), mode);
            assert_eq!(packed_edges.len(), value_edges.len());
            for ((firing_p, next_p, _), (firing_v, next_v)) in packed_edges.iter().zip(&value_edges)
            {
                assert_eq!(firing_p, firing_v);
                assert_eq!(&explorer.unpack(*next_p), next_v);
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
        let mut explorer = Explorer::new(&net);
        let s0 = explorer.intern_initial();
        let value = explorer.unpack(s0);
        assert_eq!(value, net.initial_state());
        assert_eq!(explorer.intern_state(&value), (s0, false));
        let (mut enabled, mut domains) = (Vec::new(), Vec::new());
        explorer.enabled_into(s0, &mut enabled);
        explorer.fireable_domains_into(s0, &enabled, &mut domains);
        let fireable: Vec<_> = domains.iter().map(|&(t, _, _)| t).collect();
        assert_eq!(fireable, net.fireable(&value));
        for &(t, dlb, upper) in &domains {
            assert_eq!(Some((dlb, upper)), net.firing_domain(&value, t));
        }
    }
}
