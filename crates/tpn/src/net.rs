//! Net structure: places, transitions, arcs, and the firing rule.

use crate::arena::{clock_coefficient, place_coefficient, StateLayout};
use crate::error::{BuildNetError, FireError};
use crate::ids::{PlaceId, TransitionId};
use crate::interval::{TimeBound, TimeInterval};
use crate::marking::Marking;
use crate::por::{set_bit, test_bit};
use crate::state::{Firing, State};
use crate::Time;

/// A place of a time Petri net.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Place {
    name: String,
    initial_tokens: u32,
}

impl Place {
    /// The place's unique name (e.g. `pwr_PMC` for "waiting release of PMC").
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Tokens on this place in the initial marking `m0`.
    pub fn initial_tokens(&self) -> u32 {
        self.initial_tokens
    }
}

/// A transition of a time Petri net, extended ezRealtime-style with a
/// priority (`π`, smaller = higher priority) and an optional behavioural
/// source-code binding (`CS`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transition {
    name: String,
    interval: TimeInterval,
    priority: u32,
    code: Option<String>,
}

impl Transition {
    /// The transition's unique name (e.g. `tc_PMC` for "computation of PMC").
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The static firing interval `I(t) = [EFT, LFT]`.
    pub fn interval(&self) -> TimeInterval {
        self.interval
    }

    /// The priority `π(t)`; smaller values win conflicts.
    pub fn priority(&self) -> u32 {
        self.priority
    }

    /// The behavioural source code assigned by the partial function `CS`,
    /// if any. In the ezRealtime translation only computation transitions
    /// carry code.
    pub fn code(&self) -> Option<&str> {
        self.code.as_deref()
    }
}

/// Default priority for transitions that do not take part in prioritized
/// conflicts.
pub(crate) const DEFAULT_PRIORITY: u32 = 100;

/// Incremental builder for [`TimePetriNet`].
///
/// The ezRealtime building-block composition (paper §3.3) is implemented in
/// `ezrt-compose` as a sequence of builder operations; the builder therefore
/// exposes enough surgery (arc merging, code updates, lookup by name) for
/// the block functions to work on a single growing net.
///
/// # Examples
///
/// ```
/// use ezrt_tpn::{TpnBuilder, TimeInterval};
///
/// # fn main() -> Result<(), ezrt_tpn::BuildNetError> {
/// let mut b = TpnBuilder::new("tiny");
/// let p = b.place_with_tokens("start", 1);
/// let t = b.transition("go", TimeInterval::immediate());
/// b.arc_place_to_transition(p, t, 1);
/// let net = b.build()?;
/// assert_eq!(net.place_count(), 1);
/// assert_eq!(net.transition_count(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct TpnBuilder {
    name: String,
    places: Vec<Place>,
    transitions: Vec<Transition>,
    /// Pre-sets per transition: `(place, weight)`.
    pre: Vec<Vec<(PlaceId, u32)>>,
    /// Post-sets per transition: `(place, weight)`.
    post: Vec<Vec<(PlaceId, u32)>>,
}

impl TpnBuilder {
    /// Creates an empty builder for a net called `name`.
    pub fn new(name: impl Into<String>) -> Self {
        TpnBuilder {
            name: name.into(),
            ..TpnBuilder::default()
        }
    }

    /// The net name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds an initially empty place.
    pub fn place(&mut self, name: impl Into<String>) -> PlaceId {
        self.place_with_tokens(name, 0)
    }

    /// Adds a place carrying `tokens` in the initial marking.
    pub fn place_with_tokens(&mut self, name: impl Into<String>, tokens: u32) -> PlaceId {
        let id = PlaceId::from_index(self.places.len());
        self.places.push(Place {
            name: name.into(),
            initial_tokens: tokens,
        });
        id
    }

    /// Adds a transition with default priority and no code binding.
    pub fn transition(&mut self, name: impl Into<String>, interval: TimeInterval) -> TransitionId {
        self.transition_full(name, interval, DEFAULT_PRIORITY, None)
    }

    /// Adds a transition with explicit priority and optional code binding.
    pub fn transition_full(
        &mut self,
        name: impl Into<String>,
        interval: TimeInterval,
        priority: u32,
        code: Option<String>,
    ) -> TransitionId {
        let id = TransitionId::from_index(self.transitions.len());
        self.transitions.push(Transition {
            name: name.into(),
            interval,
            priority,
            code,
        });
        self.pre.push(Vec::new());
        self.post.push(Vec::new());
        id
    }

    /// Adds (or merges into an existing) input arc `place → transition`.
    ///
    /// Repeated calls for the same pair accumulate weight, which is how a
    /// building block "strengthens" an arc.
    pub fn arc_place_to_transition(
        &mut self,
        place: PlaceId,
        transition: TransitionId,
        weight: u32,
    ) {
        merge_arc(&mut self.pre[transition.index()], place, weight);
    }

    /// Adds (or merges into an existing) output arc `transition → place`.
    pub fn arc_transition_to_place(
        &mut self,
        transition: TransitionId,
        place: PlaceId,
        weight: u32,
    ) {
        merge_arc(&mut self.post[transition.index()], place, weight);
    }

    /// Looks up a place id by name.
    pub fn place_id(&self, name: &str) -> Option<PlaceId> {
        self.places
            .iter()
            .position(|p| p.name == name)
            .map(PlaceId::from_index)
    }

    /// Looks up a transition id by name.
    pub fn transition_id(&self, name: &str) -> Option<TransitionId> {
        self.transitions
            .iter()
            .position(|t| t.name == name)
            .map(TransitionId::from_index)
    }

    /// Attaches (or replaces) the code binding of an existing transition.
    pub fn set_code(&mut self, transition: TransitionId, code: impl Into<String>) {
        self.transitions[transition.index()].code = Some(code.into());
    }

    /// Number of places added so far.
    pub fn place_count(&self) -> usize {
        self.places.len()
    }

    /// Number of transitions added so far.
    pub fn transition_count(&self) -> usize {
        self.transitions.len()
    }

    /// Validates the accumulated structure and freezes it into an immutable
    /// [`TimePetriNet`].
    ///
    /// # Errors
    ///
    /// Returns [`BuildNetError`] on duplicate place/transition names, arcs
    /// with zero weight, or a transition-free net.
    pub fn build(self) -> Result<TimePetriNet, BuildNetError> {
        if self.transitions.is_empty() {
            return Err(BuildNetError::NoTransitions);
        }
        let mut seen = std::collections::HashSet::new();
        for p in &self.places {
            if !seen.insert(p.name.as_str()) {
                return Err(BuildNetError::DuplicatePlaceName(p.name.clone()));
            }
        }
        let mut seen = std::collections::HashSet::new();
        for t in &self.transitions {
            if !seen.insert(t.name.as_str()) {
                return Err(BuildNetError::DuplicateTransitionName(t.name.clone()));
            }
        }
        for (ti, arcs) in self.pre.iter().chain(self.post.iter()).enumerate() {
            for &(p, w) in arcs {
                if p.index() >= self.places.len() {
                    return Err(BuildNetError::UnknownPlace(p));
                }
                if w == 0 {
                    return Err(BuildNetError::ZeroWeightArc {
                        place: p,
                        transition: TransitionId::from_index(ti % self.transitions.len()),
                    });
                }
            }
        }

        let mut consumers = vec![Vec::new(); self.places.len()];
        let mut producers = vec![Vec::new(); self.places.len()];
        for (ti, arcs) in self.pre.iter().enumerate() {
            for &(p, _) in arcs {
                consumers[p.index()].push(TransitionId::from_index(ti));
            }
        }
        for (ti, arcs) in self.post.iter().enumerate() {
            for &(p, _) in arcs {
                producers[p.index()].push(TransitionId::from_index(ti));
            }
        }

        // Firing `t` changes tokens only on pre(t) ∪ post(t), so only the
        // consumers of those places can change enabledness.
        let affected = self
            .pre
            .iter()
            .zip(&self.post)
            .map(|(pre, post)| {
                let mut touched: Vec<TransitionId> = pre
                    .iter()
                    .chain(post)
                    .flat_map(|&(p, _)| consumers[p.index()].iter().copied())
                    .collect();
                touched.sort_unstable();
                touched.dedup();
                touched
            })
            .collect();

        let place_coefficients: Vec<u64> = (0..self.places.len()).map(place_coefficient).collect();
        let weigh =
            |&(p, w): &(PlaceId, u32)| place_coefficients[p.index()].wrapping_mul(u64::from(w));
        let kernel = self
            .transitions
            .iter()
            .zip(self.pre.iter().zip(&self.post))
            .enumerate()
            .map(|(k, (transition, (pre, post)))| {
                let gained = post.iter().map(weigh).fold(0u64, u64::wrapping_add);
                let lost = pre.iter().map(weigh).fold(0u64, u64::wrapping_add);
                KernelTransition {
                    eft: transition.interval.eft(),
                    lft: transition.interval.lft().finite(),
                    priority: transition.priority,
                    clock_coefficient: clock_coefficient(k),
                    token_delta: gained.wrapping_sub(lost),
                }
            })
            .collect();

        let initial = Marking::from_vec(self.places.iter().map(|p| p.initial_tokens).collect());
        Ok(TimePetriNet {
            name: self.name,
            places: self.places,
            transitions: self.transitions,
            pre: self.pre,
            post: self.post,
            consumers,
            producers,
            affected,
            kernel,
            initial,
        })
    }
}

fn merge_arc(arcs: &mut Vec<(PlaceId, u32)>, place: PlaceId, weight: u32) {
    if let Some(slot) = arcs.iter_mut().find(|(p, _)| *p == place) {
        slot.1 += weight;
    } else {
        arcs.push((place, weight));
    }
}

/// An immutable time Petri net `P = (P, T, F, W, m0, I)` extended with
/// priorities and code bindings (`Pa = (P, CS, π)`).
///
/// All semantic queries — enabledness, fireability (`FT(s)`), firing domains
/// (`FD_s(t)`) and the firing rule (Def. 3.1) — are methods on this type;
/// see [`State`] for the state representation.
#[derive(Debug, Clone)]
pub struct TimePetriNet {
    name: String,
    places: Vec<Place>,
    transitions: Vec<Transition>,
    pre: Vec<Vec<(PlaceId, u32)>>,
    post: Vec<Vec<(PlaceId, u32)>>,
    consumers: Vec<Vec<TransitionId>>,
    producers: Vec<Vec<TransitionId>>,
    /// Per transition `t`: the consumers of every place in
    /// `pre(t) ∪ post(t)`, ascending — the only transitions whose
    /// enabledness firing `t` can change.
    affected: Vec<Vec<TransitionId>>,
    /// Per transition: what the packed kernel reads of it on every walk
    /// and firing, in one dense record.
    kernel: Vec<KernelTransition>,
    initial: Marking,
}

/// The per-transition constants of the packed kernel: the static firing
/// interval and priority, unpacked for the clock-bounds walk, and the
/// transition's terms in the state key (see [`StateLayout::state_key`]).
#[derive(Debug, Clone, Copy)]
struct KernelTransition {
    eft: Time,
    /// The latest firing time; `None` for `∞`.
    lft: Option<Time>,
    priority: u32,
    /// The coefficient `a_t` of the transition's clock in a state's key.
    clock_coefficient: u64,
    /// The change the transition's token flow makes to a state's key.
    token_delta: u64,
}

impl TimePetriNet {
    /// The net name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of places `|P|`.
    pub fn place_count(&self) -> usize {
        self.places.len()
    }

    /// Number of transitions `|T|`.
    pub fn transition_count(&self) -> usize {
        self.transitions.len()
    }

    /// Accesses a place.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn place(&self, id: PlaceId) -> &Place {
        &self.places[id.index()]
    }

    /// Accesses a transition.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn transition(&self, id: TransitionId) -> &Transition {
        &self.transitions[id.index()]
    }

    /// Iterates over `(id, place)` pairs.
    pub fn places(&self) -> impl Iterator<Item = (PlaceId, &Place)> {
        self.places
            .iter()
            .enumerate()
            .map(|(i, p)| (PlaceId::from_index(i), p))
    }

    /// Iterates over `(id, transition)` pairs.
    pub fn transitions(&self) -> impl Iterator<Item = (TransitionId, &Transition)> {
        self.transitions
            .iter()
            .enumerate()
            .map(|(i, t)| (TransitionId::from_index(i), t))
    }

    /// Looks up a place id by name.
    pub fn place_id(&self, name: &str) -> Option<PlaceId> {
        self.places
            .iter()
            .position(|p| p.name == name)
            .map(PlaceId::from_index)
    }

    /// Looks up a transition id by name.
    pub fn transition_id(&self, name: &str) -> Option<TransitionId> {
        self.transitions
            .iter()
            .position(|t| t.name == name)
            .map(TransitionId::from_index)
    }

    /// The pre-set of `t`: input `(place, weight)` pairs.
    pub fn pre_set(&self, t: TransitionId) -> &[(PlaceId, u32)] {
        &self.pre[t.index()]
    }

    /// The post-set of `t`: output `(place, weight)` pairs.
    pub fn post_set(&self, t: TransitionId) -> &[(PlaceId, u32)] {
        &self.post[t.index()]
    }

    /// Transitions that consume from `p`.
    pub fn consumers(&self, p: PlaceId) -> &[TransitionId] {
        &self.consumers[p.index()]
    }

    /// Transitions that produce into `p`.
    pub fn producers(&self, p: PlaceId) -> &[TransitionId] {
        &self.producers[p.index()]
    }

    /// The initial marking `m0`.
    pub fn initial_marking(&self) -> &Marking {
        &self.initial
    }

    /// The initial TLTS state `s0 = (m0, 0⃗)`.
    pub fn initial_state(&self) -> State {
        State::new(self.initial.clone(), vec![0; self.transitions.len()])
    }

    /// Whether `t` is enabled in marking `m` (every input place covered).
    pub fn is_enabled(&self, m: &Marking, t: TransitionId) -> bool {
        self.pre[t.index()].iter().all(|&(p, w)| m.covers(p, w))
    }

    /// The enabled set `ET(m)` in ascending transition order.
    pub fn enabled(&self, m: &Marking) -> Vec<TransitionId> {
        (0..self.transitions.len())
            .map(TransitionId::from_index)
            .filter(|&t| self.is_enabled(m, t))
            .collect()
    }

    /// `min_{t_k ∈ ET(m)} DUB(t_k)`: the latest instant to which time may
    /// advance before *some* enabled transition becomes overdue. Returns
    /// [`TimeBound::Infinite`] when nothing is enabled or no enabled
    /// transition has a finite latest firing time.
    pub fn min_dynamic_upper_bound(&self, state: &State) -> TimeBound {
        let mut min = TimeBound::Infinite;
        for t in self.enabled(state.marking()) {
            let dub = self.transitions[t.index()]
                .interval
                .dynamic_upper_bound(state.clock(t));
            min = min.min(dub);
        }
        min
    }

    /// The fireable set `FT(s)` of the paper:
    ///
    /// ```text
    /// FT(s) = { tᵢ ∈ ET(m) | π(tᵢ) = min π(tₖ)  ∧  DLB(tᵢ) ≤ min DUB(tₖ), ∀tₖ ∈ ET(m) }
    /// ```
    ///
    /// i.e. among the enabled transitions that can still fire no later than
    /// the earliest urgency deadline (`DLB ≤ min DUB`), keep those of
    /// minimal (= highest) priority.
    pub fn fireable(&self, state: &State) -> Vec<TransitionId> {
        let min_dub = self.min_dynamic_upper_bound(state);
        let mut candidates: Vec<TransitionId> = self
            .enabled(state.marking())
            .into_iter()
            .filter(|&t| {
                let dlb = self.transitions[t.index()]
                    .interval
                    .dynamic_lower_bound(state.clock(t));
                TimeBound::Finite(dlb) <= min_dub
            })
            .collect();
        let best = candidates
            .iter()
            .map(|&t| self.transitions[t.index()].priority)
            .min();
        if let Some(best) = best {
            candidates.retain(|&t| self.transitions[t.index()].priority == best);
        }
        candidates
    }

    /// The firing domain `FD_s(t) = [DLB(t), min_k DUB(t_k)]`, or `None`
    /// when `t` is not enabled in `s`.
    pub fn firing_domain(&self, state: &State, t: TransitionId) -> Option<(Time, TimeBound)> {
        if !self.is_enabled(state.marking(), t) {
            return None;
        }
        let dlb = self.transitions[t.index()]
            .interval
            .dynamic_lower_bound(state.clock(t));
        Some((dlb, self.min_dynamic_upper_bound(state)))
    }

    /// Fires transition `t` after waiting `delay` time units, producing the
    /// successor state per Definition 3.1 of the paper:
    ///
    /// 1. `m' (p) = m(p) − W(p,t) + W(t,p)` for every place `p`;
    /// 2. for every `t_k ∈ ET(m')`: the clock is reset to `0` if `t_k = t`
    ///    or `t_k` is newly enabled (`t_k ∈ ET(m') − ET(m)`), and advanced
    ///    to `c(t_k) + delay` otherwise. Disabled transitions' clocks are
    ///    normalized to `0` so states compare structurally.
    ///
    /// # Errors
    ///
    /// * [`FireError::NotEnabled`] — `t` has an uncovered input place;
    /// * [`FireError::NotFireable`] — `t` is enabled but excluded from
    ///   `FT(s)` by priority or urgency;
    /// * [`FireError::DelayOutOfDomain`] — `delay ∉ FD_s(t)`.
    pub fn fire(
        &self,
        state: &State,
        t: TransitionId,
        delay: Time,
    ) -> Result<(State, Firing), FireError> {
        if !self.is_enabled(state.marking(), t) {
            return Err(FireError::NotEnabled(t));
        }
        if !self.fireable(state).contains(&t) {
            return Err(FireError::NotFireable(t));
        }
        let (dlb, upper) = self
            .firing_domain(state, t)
            .expect("enabled transition has a firing domain");
        if delay < dlb || TimeBound::Finite(delay) > upper {
            return Err(FireError::DelayOutOfDomain {
                transition: t,
                delay,
                lower: dlb,
                upper,
            });
        }
        Ok((self.fire_unchecked(state, t, delay), Firing::new(t, delay)))
    }

    /// The firing rule without fireability/domain validation. Used by the
    /// schedule-synthesis search, which enumerates only legal firings.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not enabled (token removal underflows).
    pub fn fire_unchecked(&self, state: &State, t: TransitionId, delay: Time) -> State {
        let mut marking = state.marking().clone();
        for &(p, w) in &self.pre[t.index()] {
            marking.remove(p, w);
        }
        for &(p, w) in &self.post[t.index()] {
            marking.add(p, w);
        }

        let mut clocks = vec![0; self.transitions.len()];
        for (k, clock) in clocks.iter_mut().enumerate() {
            let tk = TransitionId::from_index(k);
            if !self.is_enabled(&marking, tk) {
                continue; // disabled ⇒ normalized clock 0
            }
            if tk == t || !self.is_enabled(state.marking(), tk) {
                *clock = 0; // fired or newly enabled
            } else {
                *clock = state.clock(tk) + delay; // persistent
            }
        }
        State::new(marking, clocks)
    }
}

/// The packed state kernel: the same TLTS semantics as the value-typed
/// methods above, but operating on contiguous `u32` slices (see
/// [`StateLayout`]) with caller-provided scratch buffers, so exploration
/// inner loops perform no heap allocation per successor.
impl TimePetriNet {
    /// The packed encoding layout of this net's states.
    pub fn layout(&self) -> StateLayout {
        StateLayout::of(self)
    }

    /// Writes the packed initial state `s0 = (m0, 0⃗)` into `dst`.
    ///
    /// # Panics
    ///
    /// Panics if `dst.len() != self.layout().words()`.
    pub fn write_initial_packed(&self, dst: &mut [u32]) {
        assert_eq!(
            dst.len(),
            self.layout().words(),
            "destination length mismatch"
        );
        dst[..self.places.len()].copy_from_slice(self.initial.as_slice());
        dst[self.places.len()..].fill(0);
    }

    /// Whether `t` is enabled in the packed `state` (only the token prefix
    /// is read, so any slice whose first `place_count` words are a marking
    /// works).
    #[inline]
    pub(crate) fn is_enabled_packed(&self, state: &[u32], t: TransitionId) -> bool {
        self.pre[t.index()]
            .iter()
            .all(|&(p, w)| state[p.index()] >= w)
    }

    /// Writes the enabled set `ET(m)` of the packed `state` into `out` as
    /// a transition bitmask (bit `k` ⇔ `t_k` enabled; see
    /// [`por::test_bit`](crate::por::test_bit)).
    ///
    /// This is the kernel's only full scan of the transitions. Walkers
    /// call it once per start state and then carry each state's set
    /// through [`fire_into`](Self::fire_into), which derives a
    /// successor's set from its parent's.
    pub fn enabled_into(&self, state: &[u32], out: &mut Vec<u64>) {
        out.clear();
        out.resize(self.transitions.len().div_ceil(64), 0);
        for k in 0..self.transitions.len() {
            if self.is_enabled_packed(state, TransitionId::from_index(k)) {
                set_bit(out, k);
            }
        }
    }

    /// The one walk of a state's clock bounds: writes the dynamic lower
    /// bound `DLB(t)` of every member of `enabled`, the state's enabled
    /// set (from [`enabled_into`](Self::enabled_into) or
    /// [`fire_into`](Self::fire_into)), together with `min DUB` over them
    /// and the transitions that hold it, into the caller's reusable
    /// `out`. [`fireable_domains_into`](Self::fireable_domains_into)
    /// reads `FT(s)` off it. Neither walker runs it per step: the
    /// scheduler's DFS carries its bounds from frame to frame and the
    /// replay tests one label with
    /// [`fireable_domain`](Self::fireable_domain). It is the debug oracle
    /// both are checked against.
    pub fn clock_bounds_into(&self, state: &[u32], enabled: &[u64], out: &mut ClockBounds) {
        let places = self.places.len();
        out.lower.clear();
        out.holders.clear();
        out.holders.resize(enabled.len(), 0);
        // The finite `min DUB` so far; `None` while it is `∞`.
        let mut min_dub: Option<Time> = None;
        for (w, &word) in enabled.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let k = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let at = places + 2 * k;
                let clock = Time::from(state[at]) | (Time::from(state[at + 1]) << 32);
                let kernel = &self.kernel[k];
                out.lower.push((
                    TransitionId::from_index(k),
                    kernel.eft.saturating_sub(clock),
                ));
                let Some(lft) = kernel.lft else { continue };
                let dub = lft.saturating_sub(clock);
                if min_dub.is_none_or(|min| dub < min) {
                    min_dub = Some(dub);
                    out.holders.fill(0);
                }
                if min_dub == Some(dub) {
                    out.holders[w] |= 1u64 << (k % 64);
                }
            }
        }
        out.min_dub = min_dub;
    }

    /// The static firing bounds and priority of `t` as the packed kernel
    /// reads them: `(EFT(t), LFT(t), π(t))`, with `None` for an infinite
    /// `LFT`. Walkers that carry clock bounds from state to state read
    /// them here instead of unpacking [`Transition::interval`].
    #[inline]
    pub fn firing_bounds(&self, t: TransitionId) -> (Time, Option<Time>, u32) {
        let kernel = &self.kernel[t.index()];
        (kernel.eft, kernel.lft, kernel.priority)
    }

    /// The fireable set `FT(s)` *together with* the shared firing domains
    /// — `(t, DLB(t), min_k DUB(t_k))` triples — of the state whose
    /// [`clock_bounds_into`](Self::clock_bounds_into) walk is `bounds`,
    /// into the caller's reusable buffer. The domain's upper bound is the
    /// same `min DUB` for every fireable transition.
    pub fn fireable_domains_into(
        &self,
        bounds: &ClockBounds,
        out: &mut Vec<(TransitionId, Time, TimeBound)>,
    ) {
        out.clear();
        // Urgency filter (`DLB ≤ min DUB`), then the minimal (= highest)
        // priority class.
        let (upper, ceiling) = (bounds.min_dub(), bounds.min_dub.unwrap_or(Time::MAX));
        let mut best_priority = u32::MAX;
        for &(t, dlb) in &bounds.lower {
            if dlb <= ceiling {
                best_priority = best_priority.min(self.kernel[t.index()].priority);
            }
        }
        for &(t, dlb) in &bounds.lower {
            if dlb <= ceiling && self.kernel[t.index()].priority == best_priority {
                out.push((t, dlb, upper));
            }
        }
    }

    /// Packed counterpart of [`fireable`](Self::fireable) and
    /// [`firing_domain`](Self::firing_domain) for one transition: the
    /// firing domain `FD_s(t) = (DLB(t), min DUB)` of `t` in the packed
    /// `state`, whose enabled set is `enabled`, when `t ∈ FT(s)`, and
    /// `None` otherwise (disabled, cut by urgency or by priority, or not
    /// a transition of this net). What
    /// [`fireable_domains_into`](Self::fireable_domains_into) writes for
    /// `t`, without building the rest of `FT(s)`.
    ///
    /// Two passes over `ET(s)` read only the kernel record and the
    /// enabled clocks, and allocate nothing: the first takes `min DUB`
    /// over the members with a finite `LFT`; once `t` passes the urgency
    /// filter (`DLB(t) ≤ min DUB`), the second looks for an
    /// urgency-eligible member of higher priority (smaller `π`).
    pub fn fireable_domain(
        &self,
        state: &[u32],
        enabled: &[u64],
        t: TransitionId,
    ) -> Option<(Time, TimeBound)> {
        // A transition the net does not have has no bit in `enabled`.
        if !test_bit(enabled, t.index()) {
            return None;
        }
        let places = self.places.len();
        let clock = |k: usize| {
            let at = places + 2 * k;
            Time::from(state[at]) | (Time::from(state[at + 1]) << 32)
        };
        let mut min_dub: Option<Time> = None;
        for (w, &word) in enabled.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let k = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if let Some(lft) = self.kernel[k].lft {
                    let dub = lft.saturating_sub(clock(k));
                    min_dub = Some(min_dub.map_or(dub, |min| min.min(dub)));
                }
            }
        }
        let ceiling = min_dub.unwrap_or(Time::MAX);
        let own = &self.kernel[t.index()];
        let dlb = own.eft.saturating_sub(clock(t.index()));
        if dlb > ceiling {
            return None;
        }
        for (w, &word) in enabled.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let k = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let kernel = &self.kernel[k];
                if kernel.priority < own.priority && kernel.eft.saturating_sub(clock(k)) <= ceiling
                {
                    return None;
                }
            }
        }
        Some((dlb, min_dub.map_or(TimeBound::Infinite, TimeBound::Finite)))
    }

    /// Packed counterpart of [`fire_unchecked`](Self::fire_unchecked):
    /// fires `t` after `delay` time units from the packed `src` state,
    /// whose enabled set is `src_enabled`, into the caller's `dst` scratch
    /// buffer, and writes the successor's enabled set into `dst_enabled`.
    /// Returns the change of the state key (see
    /// [`StateLayout::state_key`]): the successor's key is `src`'s plus
    /// the returned value (mod 2⁶⁴). Allocates nothing once `dst_enabled`
    /// has its size.
    ///
    /// The work scales with what the firing changes. The successor's set
    /// is the parent's with only the transitions next to
    /// `pre(t) ∪ post(t)` re-tested; every other transition's input
    /// places kept their tokens. Debug builds cross-check it against
    /// [`enabled_into`](Self::enabled_into). The parent's words are
    /// copied and only the clocks of `src`'s enabled transitions are
    /// rewritten: every other clock is zero in both states. The key
    /// change is summed in the same loops.
    ///
    /// Like `fire_unchecked`, fireability and the firing domain are *not*
    /// validated — explorers enumerate only legal labels.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not enabled in `src` (token removal underflows) or
    /// the buffer lengths do not match the layout.
    pub fn fire_into(
        &self,
        src: &[u32],
        src_enabled: &[u64],
        t: TransitionId,
        delay: Time,
        dst: &mut [u32],
        dst_enabled: &mut Vec<u64>,
    ) -> u64 {
        let layout = self.layout();
        assert_eq!(src.len(), layout.words(), "source length mismatch");
        assert_eq!(dst.len(), layout.words(), "destination length mismatch");
        dst.copy_from_slice(src);

        // 1. Token flow: m'(p) = m(p) − W(p,t) + W(t,p).
        for &(p, w) in &self.pre[t.index()] {
            let slot = &mut dst[p.index()];
            *slot = slot
                .checked_sub(w)
                .expect("firing a disabled transition (insufficient tokens)");
        }
        for &(p, w) in &self.post[t.index()] {
            let slot = &mut dst[p.index()];
            *slot = slot.checked_add(w).expect("token count overflow");
        }
        let mut key_delta = self.kernel[t.index()].token_delta;

        // 2. ET(m'): the parent's set, re-tested where tokens moved.
        dst_enabled.clear();
        dst_enabled.extend_from_slice(src_enabled);
        for &k in &self.affected[t.index()] {
            let bit = 1u64 << (k.index() % 64);
            if self.is_enabled_packed(dst, k) {
                dst_enabled[k.index() / 64] |= bit;
            } else {
                dst_enabled[k.index() / 64] &= !bit;
            }
        }
        debug_assert_eq!(
            *dst_enabled,
            {
                let mut scanned = Vec::new();
                self.enabled_into(dst, &mut scanned);
                scanned
            },
            "the carried enabled set drifted from a full scan"
        );

        // 3. Clocks of the transitions enabled before: advance by `delay`
        // for the persistent, those still enabled other than `t`; reset
        // the fired and the disabled. Every other clock is zero before
        // (normalization) and stays zero: disabled, or newly enabled. A
        // zero delay leaves the persistent clocks as copied.
        let places = self.places.len();
        let mut persistent_weight = 0u64;
        for (w, (&before, &after)) in src_enabled.iter().zip(dst_enabled.iter()).enumerate() {
            let mut persistent = before & after;
            if w == t.index() / 64 {
                persistent &= !(1u64 << (t.index() % 64));
            }
            let mut reset = before & !persistent;
            if delay == 0 {
                persistent = 0;
            }
            while persistent != 0 {
                let k = w * 64 + persistent.trailing_zeros() as usize;
                persistent &= persistent - 1;
                let at = places + 2 * k;
                let clock = (Time::from(dst[at]) | (Time::from(dst[at + 1]) << 32)) + delay;
                dst[at] = clock as u32;
                dst[at + 1] = (clock >> 32) as u32;
                persistent_weight =
                    persistent_weight.wrapping_add(self.kernel[k].clock_coefficient);
            }
            while reset != 0 {
                let k = w * 64 + reset.trailing_zeros() as usize;
                reset &= reset - 1;
                let at = places + 2 * k;
                let clock = Time::from(dst[at]) | (Time::from(dst[at + 1]) << 32);
                dst[at] = 0;
                dst[at + 1] = 0;
                key_delta =
                    key_delta.wrapping_sub(self.kernel[k].clock_coefficient.wrapping_mul(clock));
            }
        }
        key_delta.wrapping_add(persistent_weight.wrapping_mul(delay))
    }
}

/// One walk of a state's clock bounds (see
/// [`TimePetriNet::clock_bounds_into`]): each enabled transition's dynamic
/// lower bound, the minimum dynamic upper bound `min DUB` over the
/// enabled set, and the transitions holding it. Reused across states, so
/// the walk allocates nothing once its buffers have their size.
#[derive(Debug, Clone, Default)]
pub struct ClockBounds {
    /// `(t, DLB(t))` for every enabled transition, ascending.
    lower: Vec<(TransitionId, Time)>,
    /// `min DUB` when finite; `None` for `∞`.
    min_dub: Option<Time>,
    holders: Vec<u64>,
}

impl ClockBounds {
    /// `min_{t_k ∈ ET(m)} DUB(t_k)`, [`TimeBound::Infinite`] when nothing
    /// enabled has a finite latest firing time.
    pub fn min_dub(&self) -> TimeBound {
        self.min_dub.map_or(TimeBound::Infinite, TimeBound::Finite)
    }

    /// The enabled transitions whose dynamic upper bound is `min DUB`, as
    /// a transition mask; empty (all zero) when `min DUB` is infinite.
    pub fn holders(&self) -> &[u64] {
        &self.holders
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::por::test_bit;

    /// The classic 2-transition conflict: one token, two consumers with
    /// different intervals and priorities.
    fn conflict_net() -> (TimePetriNet, TransitionId, TransitionId) {
        let mut b = TpnBuilder::new("conflict");
        let p = b.place_with_tokens("p", 1);
        let fast = b.transition_full("fast", TimeInterval::new(2, 4).unwrap(), 1, None);
        let slow = b.transition_full("slow", TimeInterval::new(3, 10).unwrap(), 2, None);
        b.arc_place_to_transition(p, fast, 1);
        b.arc_place_to_transition(p, slow, 1);
        (b.build().unwrap(), fast, slow)
    }

    #[test]
    fn builder_rejects_duplicate_names() {
        let mut b = TpnBuilder::new("dup");
        b.place("p");
        b.place("p");
        b.transition("t", TimeInterval::immediate());
        assert!(matches!(
            b.build(),
            Err(BuildNetError::DuplicatePlaceName(_))
        ));

        let mut b = TpnBuilder::new("dup");
        b.transition("t", TimeInterval::immediate());
        b.transition("t", TimeInterval::immediate());
        assert!(matches!(
            b.build(),
            Err(BuildNetError::DuplicateTransitionName(_))
        ));
    }

    #[test]
    fn builder_rejects_empty_net_and_zero_weights() {
        assert!(matches!(
            TpnBuilder::new("empty").build(),
            Err(BuildNetError::NoTransitions)
        ));

        let mut b = TpnBuilder::new("zero");
        let p = b.place("p");
        let t = b.transition("t", TimeInterval::immediate());
        b.arc_place_to_transition(p, t, 0);
        assert!(matches!(
            b.build(),
            Err(BuildNetError::ZeroWeightArc { .. })
        ));
    }

    #[test]
    fn arcs_merge_by_accumulating_weight() {
        let mut b = TpnBuilder::new("merge");
        let p = b.place_with_tokens("p", 5);
        let t = b.transition("t", TimeInterval::immediate());
        b.arc_place_to_transition(p, t, 1);
        b.arc_place_to_transition(p, t, 2);
        let net = b.build().unwrap();
        assert_eq!(net.pre_set(t), &[(p, 3)]);
    }

    #[test]
    fn enabledness_respects_weights() {
        let mut b = TpnBuilder::new("w");
        let p = b.place_with_tokens("p", 1);
        let t = b.transition("t", TimeInterval::immediate());
        b.arc_place_to_transition(p, t, 2);
        let net = b.build().unwrap();
        assert!(!net.is_enabled(net.initial_marking(), t));
    }

    #[test]
    fn fireable_applies_urgency_filter() {
        let (net, fast, _slow) = conflict_net();
        let s0 = net.initial_state();
        // DLB(fast)=2, DLB(slow)=3, min DUB = 4 ⇒ both pass urgency, but
        // priority keeps only `fast`.
        assert_eq!(net.fireable(&s0), vec![fast]);
    }

    #[test]
    fn fireable_filters_by_priority_only_among_candidates() {
        // High-priority transition whose DLB exceeds min DUB must not
        // starve the net: the candidate filter applies first.
        let mut b = TpnBuilder::new("prio");
        let p = b.place_with_tokens("p", 1);
        let urgent = b.transition_full("urgent", TimeInterval::new(0, 1).unwrap(), 5, None);
        let later = b.transition_full("later", TimeInterval::new(4, 9).unwrap(), 1, None);
        b.arc_place_to_transition(p, urgent, 1);
        b.arc_place_to_transition(p, later, 1);
        let net = b.build().unwrap();
        let s0 = net.initial_state();
        // min DUB = 1 (urgent), DLB(later) = 4 > 1 ⇒ later is not a
        // candidate despite its better priority.
        assert_eq!(net.fireable(&s0), vec![urgent]);
    }

    #[test]
    fn firing_domain_matches_definition() {
        let (net, fast, slow) = conflict_net();
        let s0 = net.initial_state();
        assert_eq!(
            net.firing_domain(&s0, fast),
            Some((2, TimeBound::Finite(4)))
        );
        assert_eq!(
            net.firing_domain(&s0, slow),
            Some((3, TimeBound::Finite(4)))
        );
    }

    #[test]
    fn fire_rejects_out_of_domain_delays() {
        let (net, fast, _) = conflict_net();
        let s0 = net.initial_state();
        assert!(matches!(
            net.fire(&s0, fast, 1),
            Err(FireError::DelayOutOfDomain { .. })
        ));
        assert!(matches!(
            net.fire(&s0, fast, 5),
            Err(FireError::DelayOutOfDomain { .. })
        ));
        assert!(net.fire(&s0, fast, 2).is_ok());
        assert!(net.fire(&s0, fast, 4).is_ok());
    }

    #[test]
    fn fire_rejects_lower_priority_conflict_loser() {
        let (net, _, slow) = conflict_net();
        let s0 = net.initial_state();
        assert!(matches!(
            net.fire(&s0, slow, 3),
            Err(FireError::NotFireable(_))
        ));
    }

    #[test]
    fn fire_rejects_disabled_transition() {
        let mut b = TpnBuilder::new("dis");
        let p = b.place("p");
        let t = b.transition("t", TimeInterval::immediate());
        b.arc_place_to_transition(p, t, 1);
        let net = b.build().unwrap();
        assert!(matches!(
            net.fire(&net.initial_state(), t, 0),
            Err(FireError::NotEnabled(_))
        ));
    }

    #[test]
    fn firing_moves_tokens_per_weights() {
        let mut b = TpnBuilder::new("flow");
        let a = b.place_with_tokens("a", 3);
        let c = b.place("c");
        let t = b.transition("t", TimeInterval::immediate());
        b.arc_place_to_transition(a, t, 2);
        b.arc_transition_to_place(t, c, 5);
        let net = b.build().unwrap();
        let (s1, firing) = net.fire(&net.initial_state(), t, 0).unwrap();
        assert_eq!(s1.marking().tokens(a), 1);
        assert_eq!(s1.marking().tokens(c), 5);
        assert_eq!(firing.transition(), t);
        assert_eq!(firing.delay(), 0);
    }

    #[test]
    fn persistent_transition_clock_advances() {
        // Two independent transitions; firing one advances the other's clock.
        let mut b = TpnBuilder::new("persist");
        let pa = b.place_with_tokens("pa", 1);
        let pb = b.place_with_tokens("pb", 1);
        let ta = b.transition("ta", TimeInterval::new(2, 8).unwrap());
        let tb = b.transition("tb", TimeInterval::new(5, 9).unwrap());
        b.arc_place_to_transition(pa, ta, 1);
        b.arc_place_to_transition(pb, tb, 1);
        let net = b.build().unwrap();
        let (s1, _) = net.fire(&net.initial_state(), ta, 3).unwrap();
        assert_eq!(s1.clock(tb), 3, "tb stayed enabled, clock advances by q");
        // After 3 units, DLB(tb) = 5-3 = 2.
        assert_eq!(net.firing_domain(&s1, tb), Some((2, TimeBound::Finite(6))));
    }

    #[test]
    fn fired_transition_clock_resets_when_still_enabled() {
        // Self-loop with multiple tokens: the fired transition stays
        // enabled and must restart from clock zero (Def. 3.1 case t_k = t).
        let mut b = TpnBuilder::new("reset");
        let p = b.place_with_tokens("p", 2);
        let t = b.transition("t", TimeInterval::exact(4));
        b.arc_place_to_transition(p, t, 1);
        let net = b.build().unwrap();
        let (s1, _) = net.fire(&net.initial_state(), t, 4).unwrap();
        assert_eq!(s1.clock(t), 0);
        assert!(net.is_enabled(s1.marking(), t));
    }

    #[test]
    fn newly_enabled_transition_starts_at_zero() {
        let mut b = TpnBuilder::new("fresh");
        let p0 = b.place_with_tokens("p0", 1);
        let p1 = b.place("p1");
        let t0 = b.transition("t0", TimeInterval::exact(3));
        let t1 = b.transition("t1", TimeInterval::exact(7));
        b.arc_place_to_transition(p0, t0, 1);
        b.arc_transition_to_place(t0, p1, 1);
        b.arc_place_to_transition(p1, t1, 1);
        let net = b.build().unwrap();
        let (s1, _) = net.fire(&net.initial_state(), t0, 3).unwrap();
        assert_eq!(s1.clock(t1), 0, "t1 was just enabled");
    }

    #[test]
    fn disabled_transition_clock_is_normalized() {
        let (net, fast, slow) = conflict_net();
        let (s1, _) = net.fire(&net.initial_state(), fast, 2).unwrap();
        assert_eq!(
            s1.clock(slow),
            0,
            "slow lost the conflict; clock normalized"
        );
        assert!(!net.is_enabled(s1.marking(), slow));
    }

    #[test]
    fn name_lookups() {
        let (net, fast, _) = conflict_net();
        assert_eq!(net.transition_id("fast"), Some(fast));
        assert_eq!(net.place_id("p"), Some(PlaceId::from_index(0)));
        assert_eq!(net.transition_id("nope"), None);
        assert_eq!(net.place_id("nope"), None);
    }

    #[test]
    fn consumers_and_producers_indexes() {
        let mut b = TpnBuilder::new("idx");
        let p = b.place_with_tokens("p", 1);
        let q = b.place("q");
        let t = b.transition("t", TimeInterval::immediate());
        b.arc_place_to_transition(p, t, 1);
        b.arc_transition_to_place(t, q, 1);
        let net = b.build().unwrap();
        assert_eq!(net.consumers(p), &[t]);
        assert_eq!(net.producers(q), &[t]);
        assert!(net.consumers(q).is_empty());
    }

    #[test]
    fn packed_ops_agree_with_value_semantics() {
        let (net, fast, slow) = conflict_net();
        let layout = net.layout();
        let mut packed = vec![0u32; layout.words()];
        net.write_initial_packed(&mut packed);
        let s0 = net.initial_state();

        assert!(net.is_enabled_packed(&packed, fast));
        let mut enabled = Vec::new();
        net.enabled_into(&packed, &mut enabled);
        assert_eq!(enabled, vec![0b11], "both conflict partners are enabled");
        let (mut bounds, mut domains) = (ClockBounds::default(), Vec::new());
        net.clock_bounds_into(&packed, &enabled, &mut bounds);
        net.fireable_domains_into(&bounds, &mut domains);
        let (dlb, upper) = net.firing_domain(&s0, fast).unwrap();
        assert_eq!(domains, vec![(fast, dlb, upper)]);
        assert_eq!(net.fireable(&s0), vec![fast]);

        let mut successor = vec![0u32; layout.words()];
        let mut successor_enabled = Vec::new();
        let key_delta = net.fire_into(
            &packed,
            &enabled,
            fast,
            3,
            &mut successor,
            &mut successor_enabled,
        );
        assert_eq!(layout.unpack(&successor), net.fire_unchecked(&s0, fast, 3));
        assert_eq!(
            layout.state_key(&packed).wrapping_add(key_delta),
            layout.state_key(&successor)
        );
        assert!(!test_bit(&successor_enabled, slow.index()));
        assert_eq!(successor_enabled, vec![0]);
    }

    #[test]
    fn fireable_domains_into_reuses_the_buffer() {
        let (net, fast, _) = conflict_net();
        let mut packed = vec![0u32; net.layout().words()];
        net.write_initial_packed(&mut packed);
        let mut enabled = vec![u64::MAX; 3];
        net.enabled_into(&packed, &mut enabled);
        assert_eq!(enabled.len(), 1, "the set is resized to the net");
        let mut bounds = ClockBounds::default();
        net.clock_bounds_into(&packed, &enabled, &mut bounds);
        let mut buffer = vec![(TransitionId::from_index(9), 0, TimeBound::Infinite); 4];
        net.fireable_domains_into(&bounds, &mut buffer);
        assert_eq!(buffer.len(), 1, "buffer is cleared before filling");
        assert_eq!(buffer[0].0, fast);
    }

    #[test]
    fn clock_bounds_name_every_holder_of_the_minimum() {
        // DUB(fast) = 4, DUB(slow) = 10, DUB(twin) = 4: both 4s hold it.
        let mut b = TpnBuilder::new("holders");
        let p = b.place_with_tokens("p", 1);
        let q = b.place_with_tokens("q", 1);
        let r = b.place_with_tokens("r", 1);
        let fast = b.transition("fast", TimeInterval::new(2, 4).unwrap());
        let slow = b.transition("slow", TimeInterval::new(3, 10).unwrap());
        let twin = b.transition("twin", TimeInterval::new(0, 4).unwrap());
        let open = b.transition("open", TimeInterval::at_least(1));
        b.arc_place_to_transition(p, fast, 1);
        b.arc_place_to_transition(q, slow, 1);
        b.arc_place_to_transition(r, twin, 1);
        b.arc_place_to_transition(r, open, 1);
        let net = b.build().unwrap();
        let mut packed = vec![0u32; net.layout().words()];
        net.write_initial_packed(&mut packed);
        let mut enabled = Vec::new();
        net.enabled_into(&packed, &mut enabled);
        let mut bounds = ClockBounds::default();
        net.clock_bounds_into(&packed, &enabled, &mut bounds);
        assert_eq!(bounds.min_dub(), TimeBound::Finite(4));
        assert_eq!(
            bounds.holders(),
            &[(1 << fast.index()) | (1 << twin.index())]
        );
        assert_eq!(bounds.lower, [(fast, 2), (slow, 3), (twin, 0), (open, 1)]);

        // Only the open-ended transition enabled: no finite minimum, and
        // nothing holds it.
        let mut only_open = vec![0u64; enabled.len()];
        set_bit(&mut only_open, open.index());
        net.clock_bounds_into(&packed, &only_open, &mut bounds);
        assert_eq!(bounds.min_dub(), TimeBound::Infinite);
        assert_eq!(bounds.holders(), &[0]);
    }

    #[test]
    fn affected_covers_the_consumers_next_to_a_firing() {
        let mut b = TpnBuilder::new("affected");
        let p = b.place_with_tokens("p", 1);
        let q = b.place("q");
        let r = b.place_with_tokens("r", 1);
        let t = b.transition("t", TimeInterval::immediate());
        let u = b.transition("u", TimeInterval::immediate());
        let v = b.transition("v", TimeInterval::immediate());
        b.arc_place_to_transition(p, t, 1);
        b.arc_transition_to_place(t, q, 1);
        b.arc_place_to_transition(q, u, 1);
        b.arc_place_to_transition(r, v, 1);
        let net = b.build().unwrap();
        assert_eq!(net.affected[t.index()], vec![t, u]);
        assert_eq!(net.affected[u.index()], vec![u]);
        assert_eq!(net.affected[v.index()], vec![v]);
    }

    #[test]
    fn persistent_clock_advances_in_packed_firing() {
        let mut b = TpnBuilder::new("persist-packed");
        let pa = b.place_with_tokens("pa", 1);
        let pb = b.place_with_tokens("pb", 1);
        let ta = b.transition("ta", TimeInterval::new(2, 8).unwrap());
        let tb = b.transition("tb", TimeInterval::new(5, 9).unwrap());
        b.arc_place_to_transition(pa, ta, 1);
        b.arc_place_to_transition(pb, tb, 1);
        let net = b.build().unwrap();
        let layout = net.layout();
        let mut packed = vec![0u32; layout.words()];
        let mut next = vec![0u32; layout.words()];
        let (mut enabled, mut next_enabled) = (Vec::new(), Vec::new());
        net.write_initial_packed(&mut packed);
        net.enabled_into(&packed, &mut enabled);
        let key_delta = net.fire_into(&packed, &enabled, ta, 3, &mut next, &mut next_enabled);
        assert_eq!(
            layout.state_key(&packed).wrapping_add(key_delta),
            layout.state_key(&next)
        );
        assert_eq!(layout.clock(&next, tb), 3, "tb stayed enabled");
        assert_eq!(layout.clock(&next, ta), 0, "ta disabled; normalized");
        assert!(test_bit(&next_enabled, tb.index()) && !test_bit(&next_enabled, ta.index()));
    }

    #[test]
    fn initial_state_has_zero_clocks() {
        let (net, fast, slow) = conflict_net();
        let s0 = net.initial_state();
        assert_eq!(s0.clock(fast), 0);
        assert_eq!(s0.clock(slow), 0);
        assert_eq!(s0.marking(), net.initial_marking());
    }
}
