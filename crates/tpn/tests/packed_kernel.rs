//! Packed-kernel oracles: the packed firing/enumeration API and its
//! one-label fireability test must agree with the value-typed boundary
//! API on arbitrary nets, the enabled sets and state keys it carries from
//! state to state must equal full scans and full recomputations, the
//! delay modes must offer nested label sets,
//! and an arena built on recycled buffers or fed carried keys must behave
//! and account exactly like a fresh one fed full keys.

use ezrt_compose::translate;
use ezrt_spec::corpus::{figure3_spec, figure4_spec, figure8_spec, small_control};
use ezrt_tpn::por::test_bit;
use ezrt_tpn::reachability::{expand_delay_labels, successors, Explorer};
use ezrt_tpn::{
    ClockBounds, DelayMode, Firing, StateArena, StateId, StateLayout, Time, TimeBound,
    TimeInterval, TimePetriNet, TpnBuilder, TransitionId,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::sync::OnceLock;

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
    build_with_open(desc, &[])
}

/// [`build`], with an infinite `LFT` for each transition `i` whose
/// `open[i]` is set.
fn build_with_open(desc: &RandomNet, open: &[bool]) -> TimePetriNet {
    let mut b = TpnBuilder::new("random");
    let places: Vec<_> = desc
        .place_tokens
        .iter()
        .enumerate()
        .map(|(i, &tok)| b.place_with_tokens(format!("p{i}"), tok))
        .collect();
    for (i, t) in desc.transitions.iter().enumerate() {
        let interval = if open.get(i).copied().unwrap_or(false) {
            TimeInterval::at_least(t.eft)
        } else {
            TimeInterval::new(t.eft, t.eft + t.width).expect("eft <= lft")
        };
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

/// The translated corpus nets, built once per test binary.
fn corpus_nets() -> &'static [(String, TimePetriNet)] {
    static NETS: OnceLock<Vec<(String, TimePetriNet)>> = OnceLock::new();
    NETS.get_or_init(|| {
        [
            figure3_spec(),
            figure4_spec(),
            figure8_spec(),
            small_control(),
        ]
        .into_iter()
        .map(|spec| (spec.name().to_owned(), translate(&spec).into_net()))
        .collect()
    })
}

const MODES: [DelayMode; 3] = [DelayMode::Earliest, DelayMode::Corners, DelayMode::Full];

/// The fireable set of a packed state whose enabled set is `enabled`,
/// with its firing domains: the net's clock-bounds walk, then
/// `fireable_domains_into`.
fn domains_of(
    net: &TimePetriNet,
    words: &[u32],
    enabled: &[u64],
) -> Vec<(TransitionId, Time, TimeBound)> {
    let (mut bounds, mut domains) = (ClockBounds::default(), Vec::new());
    net.clock_bounds_into(words, enabled, &mut bounds);
    net.fireable_domains_into(&bounds, &mut domains);
    domains
}

/// Walks `net` from its initial state along `choices`, each step firing
/// the chosen member of `FT(s)` after its `DLB` plus the chosen extra
/// delay (capped at `min DUB`), and checks at every state that
/// `fireable_domain` agrees with the value API for every transition.
/// Returns the number of states checked.
fn fireable_domain_matches_along(
    net: &TimePetriNet,
    choices: &[(prop::sample::Index, u64)],
) -> Result<usize, TestCaseError> {
    let mut words = vec![0u32; net.layout().words()];
    let mut next = words.clone();
    net.write_initial_packed(&mut words);
    let mut state = net.initial_state();
    let (mut enabled, mut next_enabled) = (Vec::new(), Vec::new());
    net.enabled_into(&words, &mut enabled);
    let mut checked = 0;
    for &(choice, extra) in choices {
        let fireable = net.fireable(&state);
        for (t, _) in net.transitions() {
            let expected = if fireable.contains(&t) {
                net.firing_domain(&state, t)
            } else {
                None
            };
            prop_assert_eq!(net.fireable_domain(&words, &enabled, t), expected, "{}", t);
        }
        let foreign = TransitionId::from_index(net.transition_count());
        prop_assert_eq!(net.fireable_domain(&words, &enabled, foreign), None);
        checked += 1;

        let Some(&t) = fireable.get(choice.index(fireable.len().max(1))) else {
            break; // deadlock
        };
        let (dlb, upper) = net.firing_domain(&state, t).expect("fireable ⇒ enabled");
        let delay = match upper {
            TimeBound::Finite(ub) => dlb + extra.min(ub - dlb),
            TimeBound::Infinite => dlb + extra,
        };
        net.fire_into(&words, &enabled, t, delay, &mut next, &mut next_enabled);
        state = net.fire_unchecked(&state, t, delay);
        std::mem::swap(&mut words, &mut next);
        std::mem::swap(&mut enabled, &mut next_enabled);
    }
    Ok(checked)
}

/// The labels `mode` offers from the fireable domains `domains`.
fn labels_of(
    mode: DelayMode,
    domains: &[(TransitionId, Time, TimeBound)],
) -> Vec<(TransitionId, Time)> {
    let mut labels = Vec::new();
    expand_delay_labels(mode, domains, &mut labels);
    labels
}

/// Walks `net` from its initial state along `choices`, each step firing
/// the chosen `Full` label, and checks at every state that the labels
/// nest, Earliest ⊆ Corners ⊆ Full, each a subsequence of the next in
/// the canonical label order. Nested labels at every state give nested
/// reachable spaces, so a DFS under a smaller mode never leaves the
/// space of a larger one. Returns the number of states checked.
fn delay_labels_nest_along(
    net: &TimePetriNet,
    choices: &[prop::sample::Index],
) -> Result<usize, TestCaseError> {
    let is_subsequence = |small: &[(TransitionId, Time)], large: &[(TransitionId, Time)]| {
        let mut large = large.iter();
        small.iter().all(|label| large.any(|l| l == label))
    };
    let mut explorer = Explorer::new(net);
    let mut id = explorer.intern_initial();
    let (mut enabled, mut next_enabled) = (Vec::new(), Vec::new());
    explorer.enabled_into(id, &mut enabled);
    let mut checked = 0;
    for choice in choices {
        let domains = domains_of(net, explorer.state(id), &enabled);
        let [earliest, corners, full] = MODES.map(|mode| labels_of(mode, &domains));
        prop_assert_eq!(
            earliest.len(),
            domains.len(),
            "one earliest label per fireable"
        );
        prop_assert!(
            is_subsequence(&earliest, &corners),
            "earliest {:?} ⊄ corners {:?}",
            earliest,
            corners
        );
        prop_assert!(
            is_subsequence(&corners, &full),
            "corners {:?} ⊄ full {:?}",
            corners,
            full
        );
        checked += 1;
        if full.is_empty() {
            break; // deadlock
        }
        let (t, q) = full[choice.index(full.len())];
        id = explorer.fire(id, &enabled, t, q, &mut next_enabled).0;
        std::mem::swap(&mut enabled, &mut next_enabled);
    }
    Ok(checked)
}

/// The layout of a net with `places` places and `transitions`
/// transitions: `places + 2 · transitions` words per state.
fn layout_of(places: usize, transitions: usize) -> StateLayout {
    let idle = RandomTransition {
        eft: 0,
        width: 0,
        priority: 0,
        inputs: Vec::new(),
        outputs: Vec::new(),
    };
    StateLayout::of(&build(&RandomNet {
        place_tokens: vec![0; places],
        transitions: vec![idle; transitions],
    }))
}

/// `count` packed states of `layout`, drawn from `seed` with every word
/// below `range`, so small ranges repeat states.
fn drawn_states(layout: StateLayout, count: usize, seed: u64, range: u32) -> Vec<Vec<u32>> {
    let mut x = seed | 1;
    let mut word = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x % u64::from(range)) as u32
    };
    (0..count)
        .map(|_| (0..layout.words()).map(|_| word()).collect())
        .collect()
}

/// Interns `states` into a fresh arena and into one built on `dirty`'s
/// buffers, asserting after every intern that both assign the same id
/// and report the same resident bytes, then that both hold the same
/// states. Returns the fresh arena.
fn intern_fresh_and_recycled(
    layout: StateLayout,
    dirty: StateArena,
    states: &[Vec<u32>],
) -> StateArena {
    let mut fresh = StateArena::new(layout);
    let mut recycled = StateArena::with_buffers(layout, dirty.into_buffers());
    assert_eq!(recycled.resident_bytes(), fresh.resident_bytes());
    for (i, state) in states.iter().enumerate() {
        assert_eq!(recycled.intern(state), fresh.intern(state), "intern {i}");
        assert_eq!(
            recycled.resident_bytes(),
            fresh.resident_bytes(),
            "bytes after intern {i}"
        );
    }
    assert_eq!(recycled.len(), fresh.len());
    for id in (0..fresh.len()).map(StateId::from_index) {
        assert_eq!(recycled.get(id), fresh.get(id));
    }
    fresh
}

/// A dirty arena: `count` distinct states of `layout` interned, then
/// abandoned, so its buffers are stale and sized for that run.
fn dirty_arena(layout: StateLayout, count: usize) -> StateArena {
    let mut arena = StateArena::new(layout);
    for state in drawn_states(layout, count, 0xD1E7, u32::MAX) {
        arena.intern(&state);
    }
    arena
}

#[test]
fn recycled_arenas_cover_growth_and_the_small_layout_floor() {
    // Three words per state, under `Vec`'s minimum of four elements: the
    // first intern reserves four slab words, not three.
    let small = layout_of(1, 1);
    assert_eq!(small.words(), 3);
    let one = drawn_states(small, 1, 7, 1000);
    let arena = intern_fresh_and_recycled(small, dirty_arena(layout_of(4, 3), 5_000), &one);
    assert_eq!(arena.resident_bytes(), 4 * 4 + 4 * 8 + 1024 * 4);

    // 3 000 distinct states: the probe table doubles three times (at 717,
    // 1 434 and 2 868 states) and the slab and key cache double past
    // each power of two, on buffers both larger (a 10-word run) and
    // smaller (a 3-word, 100-state run) than this run needs.
    let layout = layout_of(2, 1);
    let states = drawn_states(layout, 3_000, 11, u32::MAX);
    for dirty in [dirty_arena(layout_of(4, 3), 5_000), dirty_arena(small, 100)] {
        let arena = intern_fresh_and_recycled(layout, dirty, &states);
        assert_eq!(arena.len(), 3_000);
        assert_eq!(
            arena.resident_bytes(),
            4 * 4 * 4096 + 8 * 4096 + 4 * 8192,
            "slab and hashes at 4096 entries, table at 8192 slots"
        );
    }
}

/// The probe table's slots hold an id in the bits below the table size
/// and a tag above them, so every growth moves the split. Ids interned
/// on either side of each growth — the 70% load points of the 1024-,
/// 2048-, 4096-, 8192- and 16384-slot tables — must dedup to themselves
/// afterwards, in the smallest (3-word) layout, on fresh and dirty
/// buffers alike, and the table must double exactly at those points.
#[test]
fn ids_straddling_each_table_growth_dedup_to_themselves() {
    let layout = layout_of(1, 1);
    assert_eq!(layout.words(), 3);
    let states: Vec<Vec<u32>> = (0..12_000u32)
        .map(|i| vec![i, i.wrapping_mul(0x9E37_79B9), i % 7])
        .collect();
    let growths = [717usize, 1_434, 2_868, 5_735, 11_469];
    for dirty in [None, Some(dirty_arena(layout_of(4, 3), 5_000))] {
        let mut arena = match dirty {
            Some(dirty) => StateArena::with_buffers(layout, dirty.into_buffers()),
            None => StateArena::new(layout),
        };
        let table_bytes = |arena: &StateArena, len: usize| {
            let reserved = len.next_power_of_two().max(4);
            arena.resident_bytes() - 4 * (3 * len).next_power_of_two().max(4) - 8 * reserved
        };
        let mut slots = 1_024;
        for (i, state) in states.iter().enumerate() {
            assert_eq!(
                arena.intern(state),
                (StateId::from_index(i), true),
                "intern {i}"
            );
            if growths.contains(&(i + 1)) {
                slots *= 2;
            }
            assert_eq!(
                table_bytes(&arena, i + 1),
                4 * slots,
                "table after intern {i}"
            );
        }
        for &growth in &growths {
            for (id, state) in states.iter().enumerate().skip(growth - 3).take(6) {
                let id = StateId::from_index(id);
                assert_eq!(
                    arena.intern(state),
                    (id, false),
                    "{id} next to growth {growth}"
                );
                assert_eq!(arena.get(id), state.as_slice());
            }
        }
        for (i, state) in states.iter().enumerate() {
            assert_eq!(arena.intern(state), (StateId::from_index(i), false));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// An arena built on dirty, oversized (or undersized) recycled
    /// buffers assigns the same ids and reports the same resident bytes
    /// as a fresh arena after every intern, whatever the layouts of the
    /// run that dirtied the buffers and of the run that reuses them.
    #[test]
    fn recycled_arenas_match_fresh_ones(
        dirty_shape in (1usize..5, 1usize..4),
        dirty_count in 0usize..3_000,
        shape in (1usize..4, 1usize..3),
        count in 1usize..2_500,
        range in 2u32..1_000,
        seed in any::<u64>(),
    ) {
        let dirty = dirty_arena(layout_of(dirty_shape.0, dirty_shape.1), dirty_count);
        let layout = layout_of(shape.0, shape.1);
        intern_fresh_and_recycled(layout, dirty, &drawn_states(layout, count, seed, range));
    }

    /// Walking random nets, every label `expand_delay_labels` offers at a
    /// state, fired through the packed explorer, must be exactly the
    /// value API's successor edge, with an identical successor state.
    #[test]
    fn packed_successors_match_value_successors(
        desc in random_net_strategy(),
        choices in prop::collection::vec(any::<prop::sample::Index>(), 12),
    ) {
        let net = build(&desc);
        let layout = net.layout();
        let mut explorer = Explorer::new(&net);
        let mut id = explorer.intern_initial();
        let mut state = net.initial_state();
        let (mut enabled, mut next_enabled) = (Vec::new(), Vec::new());
        explorer.enabled_into(id, &mut enabled);
        for choice in choices {
            let domains = domains_of(&net, explorer.state(id), &enabled);
            let mut full = Vec::new();
            for mode in MODES {
                let labels = labels_of(mode, &domains);
                let value_edges = successors(&net, &state, mode);
                prop_assert_eq!(labels.len(), value_edges.len());
                for (&(t, q), (firing, next)) in labels.iter().zip(&value_edges) {
                    prop_assert_eq!(Firing::new(t, q), *firing);
                    let (next_id, _) = explorer.fire(id, &enabled, t, q, &mut next_enabled);
                    prop_assert_eq!(&layout.unpack(explorer.state(next_id)), next);
                }
                full = labels;
            }
            if full.is_empty() {
                break; // deadlock
            }
            let (t, q) = full[choice.index(full.len())];
            id = explorer.fire(id, &enabled, t, q, &mut next_enabled).0;
            std::mem::swap(&mut enabled, &mut next_enabled);
            state = net.fire_unchecked(&state, t, q);
        }
    }

    /// Earliest ⊆ Corners ⊆ Full at every state along walks of random
    /// nets and of every translated corpus net.
    #[test]
    fn delay_labels_nest_along_walks(
        desc in random_net_strategy(),
        choices in prop::collection::vec(any::<prop::sample::Index>(), 48),
    ) {
        delay_labels_nest_along(&build(&desc), &choices)?;
        for (name, net) in corpus_nets() {
            let checked = delay_labels_nest_along(net, &choices)?;
            prop_assert!(checked > 1, "{}: the walk leaves the initial state", name);
        }
    }

    /// Pack/unpack round trips along random walks: interning is lossless,
    /// and re-interning the repacked words into an arena of their own
    /// assigns every state the explorer's id and freshness.
    #[test]
    fn interning_round_trips_along_walks(
        desc in random_net_strategy(),
        choices in prop::collection::vec(any::<prop::sample::Index>(), 12),
    ) {
        let net = build(&desc);
        let layout = StateLayout::of(&net);
        let mut explorer = Explorer::new(&net);
        let mut mirror = StateArena::new(layout);
        let mut id = explorer.intern_initial();
        let mut fresh = true;
        let (mut enabled, mut next_enabled) = (Vec::new(), Vec::new());
        let mut packed = vec![0u32; layout.words()];
        explorer.enabled_into(id, &mut enabled);
        for choice in choices {
            let value = layout.unpack(explorer.arena().get(id));
            layout.pack(&value, &mut packed);
            prop_assert_eq!(&packed[..], explorer.arena().get(id));
            prop_assert_eq!(mirror.intern(&packed), (id, fresh));

            let labels = labels_of(DelayMode::Earliest, &domains_of(&net, explorer.state(id), &enabled));
            if labels.is_empty() {
                break;
            }
            let (t, q) = labels[choice.index(labels.len())];
            (id, fresh) = explorer.fire(id, &enabled, t, q, &mut next_enabled);
            std::mem::swap(&mut enabled, &mut next_enabled);
        }
    }

    /// Along random walks on random nets, the enabled set `fire_into`
    /// carries from state to state equals a full scan of each state and
    /// the value API's `ET(m)`; the one-pass fireable domains equal
    /// `FT(s)`, `FD_s(t)` and `min DUB`; and every packed successor
    /// equals `fire_unchecked`.
    #[test]
    fn carried_enabled_sets_match_full_scans(
        desc in random_net_strategy(),
        choices in prop::collection::vec((any::<prop::sample::Index>(), 0u64..4), 16),
    ) {
        let net = build(&desc);
        let layout = net.layout();
        let mut words = vec![0u32; layout.words()];
        let mut next = vec![0u32; layout.words()];
        net.write_initial_packed(&mut words);
        let mut state = net.initial_state();
        let (mut enabled, mut next_enabled) = (Vec::new(), Vec::new());
        let (mut scanned, mut bounds, mut domains) =
            (Vec::new(), ClockBounds::default(), Vec::new());
        net.enabled_into(&words, &mut enabled);
        for (choice, extra) in choices {
            net.enabled_into(&words, &mut scanned);
            prop_assert_eq!(&enabled, &scanned);
            let members: Vec<TransitionId> = net
                .transitions()
                .map(|(t, _)| t)
                .filter(|t| test_bit(&enabled, t.index()))
                .collect();
            prop_assert_eq!(&members, &net.enabled(state.marking()));

            net.clock_bounds_into(&words, &enabled, &mut bounds);
            prop_assert_eq!(bounds.min_dub(), net.min_dynamic_upper_bound(&state));
            net.fireable_domains_into(&bounds, &mut domains);
            let fireable: Vec<TransitionId> = domains.iter().map(|&(t, _, _)| t).collect();
            prop_assert_eq!(fireable, net.fireable(&state));
            for &(t, dlb, upper) in &domains {
                prop_assert_eq!(Some((dlb, upper)), net.firing_domain(&state, t));
                prop_assert_eq!(upper, net.min_dynamic_upper_bound(&state));
            }
            for (t, _) in net.transitions() {
                prop_assert_eq!(
                    net.firing_domain(&state, t).is_some(),
                    test_bit(&enabled, t.index())
                );
            }

            if domains.is_empty() {
                break; // deadlock
            }
            let (t, dlb, upper) = domains[choice.index(domains.len())];
            let delay = match upper {
                TimeBound::Finite(ub) => dlb + extra.min(ub - dlb),
                TimeBound::Infinite => dlb + extra,
            };
            let key_delta = net.fire_into(&words, &enabled, t, delay, &mut next, &mut next_enabled);
            state = net.fire_unchecked(&state, t, delay);
            prop_assert_eq!(&layout.unpack(&next), &state);
            prop_assert_eq!(
                layout.state_key(&words).wrapping_add(key_delta),
                layout.state_key(&next),
                "carried key after firing {} at {}", t, delay
            );
            std::mem::swap(&mut words, &mut next);
            std::mem::swap(&mut enabled, &mut next_enabled);
        }
    }
    /// Along random walks on random nets, some with unbounded
    /// transitions, and on every translated corpus net, the packed
    /// one-label test `fireable_domain(state, enabled, t)` equals the
    /// value API's `firing_domain` for every `t ∈ FT(s)` (`fireable`) and
    /// is `None` for every other transition, enabled or not, and for an
    /// id past the net's last transition.
    #[test]
    fn fireable_domain_matches_the_value_api(
        desc in random_net_strategy(),
        open in prop::collection::vec(any::<bool>(), 6),
        choices in prop::collection::vec((any::<prop::sample::Index>(), 0u64..4), 24),
    ) {
        let net = build_with_open(&desc, &open);
        fireable_domain_matches_along(&net, &choices)?;
        for (name, net) in corpus_nets() {
            let checked = fireable_domain_matches_along(net, &choices)?;
            prop_assert!(checked > 1, "{}: the walk leaves the initial state", name);
        }
    }

    /// Along random legal walks on random nets, fanning out to every
    /// corner label of each state, an explorer that interns by carried
    /// keys — on fresh and on dirty recycled buffers — assigns every
    /// successor the id, freshness and resident bytes an arena fed full
    /// `state_key`s assigns it, and caches exactly that full key.
    #[test]
    fn carried_keys_intern_like_full_keys(
        desc in random_net_strategy(),
        dirty_count in 0usize..2_000,
        choices in prop::collection::vec(any::<prop::sample::Index>(), 24),
    ) {
        let net = build(&desc);
        let layout = net.layout();
        let dirty = dirty_arena(layout_of(4, 3), dirty_count);
        let mut explorers = [Explorer::new(&net), Explorer::with_buffers(&net, dirty.into_buffers())];
        let mut full = StateArena::new(layout);
        let mut id = explorers[0].intern_initial();
        prop_assert_eq!(explorers[1].intern_initial(), id);
        prop_assert_eq!(full.intern(explorers[0].state(id)), (id, true));
        let (mut enabled, mut next_enabled) = (Vec::new(), Vec::new());
        explorers[0].enabled_into(id, &mut enabled);
        for choice in choices {
            let labels = labels_of(DelayMode::Corners, &domains_of(&net, explorers[0].state(id), &enabled));
            if labels.is_empty() {
                break; // deadlock
            }
            let mut successors = Vec::new();
            for &(t, q) in &labels {
                let fresh_fire = explorers[0].fire(id, &enabled, t, q, &mut next_enabled);
                let recycled_fire = explorers[1].fire(id, &enabled, t, q, &mut next_enabled);
                let words = explorers[0].state(fresh_fire.0).to_vec();
                prop_assert_eq!(fresh_fire, recycled_fire);
                prop_assert_eq!(full.intern(&words), fresh_fire);
                for explorer in &explorers {
                    prop_assert_eq!(explorer.arena().key(fresh_fire.0), layout.state_key(&words));
                    prop_assert_eq!(explorer.arena().resident_bytes(), full.resident_bytes());
                }
                successors.push((fresh_fire.0, next_enabled.clone()));
            }
            (id, enabled) = successors.swap_remove(choice.index(successors.len()));
        }
    }
}
