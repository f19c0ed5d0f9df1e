//! Property tests over random time Petri nets: the firing rule must
//! maintain the TLTS invariants of §3.1 regardless of net shape.

use ezrt_tpn::reachability::successors;
use ezrt_tpn::{DelayMode, TimeBound, TimeInterval, TimePetriNet, TpnBuilder};
use proptest::prelude::*;

/// A compact random-net description that is always well-formed.
#[derive(Debug, Clone)]
struct RandomNet {
    place_tokens: Vec<u32>,
    transitions: Vec<RandomTransition>,
}

#[derive(Debug, Clone)]
struct RandomTransition {
    eft: u64,
    width: u64,
    priority: u32,
    inputs: Vec<(usize, u32)>,
    outputs: Vec<(usize, u32)>,
}

fn random_net_strategy() -> impl Strategy<Value = RandomNet> {
    let places = prop::collection::vec(0u32..3, 1..6);
    places.prop_flat_map(|place_tokens| {
        let n = place_tokens.len();
        let transition = (
            0u64..6,
            0u64..4,
            0u32..4,
            prop::collection::vec((0..n, 1u32..3), 0..3),
            prop::collection::vec((0..n, 1u32..3), 0..3),
        )
            .prop_map(|(eft, width, priority, inputs, outputs)| RandomTransition {
                eft,
                width,
                priority,
                inputs,
                outputs,
            });
        prop::collection::vec(transition, 1..6).prop_map(move |transitions| RandomNet {
            place_tokens: place_tokens.clone(),
            transitions,
        })
    })
}

fn build(desc: &RandomNet) -> TimePetriNet {
    let mut b = TpnBuilder::new("random");
    let places: Vec<_> = desc
        .place_tokens
        .iter()
        .enumerate()
        .map(|(i, &tok)| b.place_with_tokens(format!("p{i}"), tok))
        .collect();
    for (i, t) in desc.transitions.iter().enumerate() {
        let interval = TimeInterval::new(t.eft, t.eft + t.width).expect("eft <= lft");
        let id = b.transition_full(format!("t{i}"), interval, t.priority, None);
        for &(p, w) in &t.inputs {
            b.arc_place_to_transition(places[p], id, w);
        }
        for &(p, w) in &t.outputs {
            b.arc_transition_to_place(id, places[p], w);
        }
    }
    b.build().expect("random nets are structurally valid")
}

proptest! {
    /// Fireable transitions are always a subset of enabled transitions.
    #[test]
    fn fireable_subset_of_enabled(desc in random_net_strategy()) {
        let net = build(&desc);
        let state = net.initial_state();
        let enabled = net.enabled(state.marking());
        for t in net.fireable(&state) {
            prop_assert!(enabled.contains(&t));
        }
    }

    /// Walking up to 25 random earliest-firing steps never violates the
    /// state invariants: disabled transitions keep clock zero, enabled
    /// transitions' clocks never exceed their LFT, and token counts follow
    /// the incidence of the fired transitions.
    #[test]
    fn random_walk_maintains_invariants(
        desc in random_net_strategy(),
        choices in prop::collection::vec(any::<prop::sample::Index>(), 25)
    ) {
        let net = build(&desc);
        let mut state = net.initial_state();
        for choice in choices {
            let succs = successors(&net, &state, DelayMode::Earliest);
            if succs.is_empty() {
                break; // deadlock: nothing to check further
            }
            let (firing, next) = succs[choice.index(succs.len())].clone();

            // Token flow must match the incidence of the fired transition.
            for (pid, _) in net.places() {
                let consumed = net.pre_set(firing.transition()).iter()
                    .find(|(p, _)| *p == pid).map(|&(_, w)| w).unwrap_or(0);
                let produced = net.post_set(firing.transition()).iter()
                    .find(|(p, _)| *p == pid).map(|&(_, w)| w).unwrap_or(0);
                let before = i64::from(state.marking().tokens(pid));
                let after = i64::from(next.marking().tokens(pid));
                prop_assert_eq!(after, before - i64::from(consumed) + i64::from(produced));
            }

            // Clock invariants.
            for (t, tr) in net.transitions() {
                let clock = next.clock(t);
                if !net.is_enabled(next.marking(), t) {
                    prop_assert_eq!(clock, 0, "disabled transition has nonzero clock");
                } else {
                    prop_assert!(
                        TimeBound::Finite(clock) <= tr.interval().lft(),
                        "clock {} exceeds LFT {} of {}", clock, tr.interval().lft(), tr.name()
                    );
                }
            }
            state = next;
        }
    }

    /// `fire` with the earliest legal delay agrees with `fire_unchecked`,
    /// and always succeeds for members of the fireable set.
    #[test]
    fn fire_accepts_earliest_delay_for_fireable(desc in random_net_strategy()) {
        let net = build(&desc);
        let state = net.initial_state();
        for t in net.fireable(&state) {
            let (dlb, _) = net.firing_domain(&state, t).expect("fireable is enabled");
            let (next, firing) = net.fire(&state, t, dlb).expect("earliest delay is legal");
            prop_assert_eq!(firing.delay(), dlb);
            prop_assert_eq!(next, net.fire_unchecked(&state, t, dlb));
        }
    }

    /// Firing domains are never empty for fireable transitions:
    /// `DLB(t) <= min DUB` by construction of the candidate filter.
    #[test]
    fn firing_domains_nonempty(desc in random_net_strategy()) {
        let net = build(&desc);
        let state = net.initial_state();
        for t in net.fireable(&state) {
            let (dlb, ub) = net.firing_domain(&state, t).unwrap();
            prop_assert!(TimeBound::Finite(dlb) <= ub);
        }
    }
}
