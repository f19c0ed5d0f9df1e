//! Structural analysis of time Petri nets.
//!
//! These checks operate on the net graph only (no state-space exploration).
//! The translation and invariant tests use them as oracles on composed
//! nets: a net whose structure is already broken (source transitions,
//! isolated places, dead transitions, leaking invariants) can never yield
//! a feasible schedule. The search's own structural-conflict relation is
//! the conflict rows of [`DependencyMatrix`](crate::por::DependencyMatrix).

use crate::{PlaceId, TimePetriNet, TransitionId};

/// Transitions with an empty pre-set. A source transition is enabled in
/// *every* marking and usually indicates a modelling mistake in the
/// ezRealtime context (all block transitions consume something).
pub fn source_transitions(net: &TimePetriNet) -> Vec<TransitionId> {
    net.transitions()
        .filter(|&(t, _)| net.pre_set(t).is_empty())
        .map(|(t, _)| t)
        .collect()
}

/// Places that no transition consumes from or produces into.
pub fn isolated_places(net: &TimePetriNet) -> Vec<PlaceId> {
    net.places()
        .filter(|&(p, _)| net.consumers(p).is_empty() && net.producers(p).is_empty())
        .map(|(p, _)| p)
        .collect()
}

/// Conservatively detects *structurally dead* transitions: transitions with
/// an input place that (a) is under-marked initially and (b) has no
/// producer, so the place can never accumulate the required tokens.
///
/// This is a sound under-approximation — a transition it reports can truly
/// never fire; transitions it does not report may still be dead for
/// behavioural reasons.
pub fn structurally_dead_transitions(net: &TimePetriNet) -> Vec<TransitionId> {
    net.transitions()
        .filter(|&(t, _)| {
            net.pre_set(t)
                .iter()
                .any(|&(p, w)| net.initial_marking().tokens(p) < w && net.producers(p).is_empty())
        })
        .map(|(t, _)| t)
        .collect()
}

/// Checks whether the weighted token sum over `component` is preserved by
/// every transition of the net — a *place invariant* in Petri-net terms.
///
/// The ezRealtime processor block yields such an invariant: the processor
/// place plus all "running" places always hold exactly one token, which is
/// how the model guarantees mutually exclusive processor use.
///
/// # Examples
///
/// ```
/// use ezrt_tpn::{TpnBuilder, TimeInterval, analysis};
///
/// # fn main() -> Result<(), ezrt_tpn::BuildNetError> {
/// let mut b = TpnBuilder::new("inv");
/// let proc_ = b.place_with_tokens("proc", 1);
/// let run = b.place("run");
/// let grab = b.transition("grab", TimeInterval::immediate());
/// let free = b.transition("free", TimeInterval::exact(3));
/// b.arc_place_to_transition(proc_, grab, 1);
/// b.arc_transition_to_place(grab, run, 1);
/// b.arc_place_to_transition(run, free, 1);
/// b.arc_transition_to_place(free, proc_, 1);
/// let net = b.build()?;
/// assert!(analysis::is_place_invariant(&net, &[(proc_, 1), (run, 1)]));
/// # Ok(())
/// # }
/// ```
pub fn is_place_invariant(net: &TimePetriNet, component: &[(PlaceId, i64)]) -> bool {
    let weight_of = |p: PlaceId| -> i64 {
        component
            .iter()
            .find(|(q, _)| *q == p)
            .map(|&(_, w)| w)
            .unwrap_or(0)
    };
    net.transitions().all(|(t, _)| {
        let consumed: i64 = net
            .pre_set(t)
            .iter()
            .map(|&(p, w)| weight_of(p) * i64::from(w))
            .sum();
        let produced: i64 = net
            .post_set(t)
            .iter()
            .map(|&(p, w)| weight_of(p) * i64::from(w))
            .sum();
        consumed == produced
    })
}

/// The weighted token count of `component` under the initial marking —
/// combined with [`is_place_invariant`] this gives the constant value the
/// invariant maintains.
pub fn invariant_value(net: &TimePetriNet, component: &[(PlaceId, i64)]) -> i64 {
    component
        .iter()
        .map(|&(p, w)| w * i64::from(net.initial_marking().tokens(p)))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TimeInterval, TpnBuilder};

    fn cycle_net() -> TimePetriNet {
        let mut b = TpnBuilder::new("cycle");
        let a = b.place_with_tokens("a", 1);
        let c = b.place("c");
        let t0 = b.transition("t0", TimeInterval::immediate());
        let t1 = b.transition("t1", TimeInterval::exact(2));
        b.arc_place_to_transition(a, t0, 1);
        b.arc_transition_to_place(t0, c, 1);
        b.arc_place_to_transition(c, t1, 1);
        b.arc_transition_to_place(t1, a, 1);
        b.build().unwrap()
    }

    #[test]
    fn cycle_net_is_invariant() {
        let net = cycle_net();
        let a = net.place_id("a").unwrap();
        let c = net.place_id("c").unwrap();
        assert!(is_place_invariant(&net, &[(a, 1), (c, 1)]));
        assert_eq!(invariant_value(&net, &[(a, 1), (c, 1)]), 1);
        // An incomplete component is not invariant.
        assert!(!is_place_invariant(&net, &[(a, 1)]));
    }

    #[test]
    fn detects_sources_and_isolated_places() {
        let mut b = TpnBuilder::new("odd");
        let _iso = b.place_with_tokens("iso", 2);
        let p = b.place("p");
        let src = b.transition("src", TimeInterval::exact(1));
        let snk = b.transition("snk", TimeInterval::immediate());
        b.arc_transition_to_place(src, p, 1);
        b.arc_place_to_transition(p, snk, 1);
        let net = b.build().unwrap();
        assert_eq!(source_transitions(&net), vec![src]);
        assert_eq!(isolated_places(&net).len(), 1);
    }

    #[test]
    fn detects_structurally_dead_transitions() {
        let mut b = TpnBuilder::new("dead");
        let starved = b.place("starved"); // empty, no producers
        let t = b.transition("t", TimeInterval::immediate());
        b.arc_place_to_transition(starved, t, 1);
        let net = b.build().unwrap();
        assert_eq!(structurally_dead_transitions(&net), vec![t]);
    }

    #[test]
    fn live_transition_is_not_reported_dead() {
        let net = cycle_net();
        assert!(structurally_dead_transitions(&net).is_empty());
    }
}
