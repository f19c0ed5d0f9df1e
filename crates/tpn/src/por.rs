//! Static structural support for partial-order reduction.
//!
//! The scheduler's reduction rules need two queries per explored state:
//! *"which fireable transitions conflict?"* (for collapsing commuting
//! bookkeeping classes) and *"which transitions does a firing depend
//! on?"* (for stubborn-set closure and sleep-set invalidation). Both are
//! purely structural, so this module precomputes them **once per net**
//! into packed `u64` bitset rows — [`DependencyMatrix`] — turning the
//! per-state O(n²) place-overlap scan the search used to run into a few
//! word-AND operations.

use crate::ids::TransitionId;
use crate::net::TimePetriNet;

/// Sets bit `i` in a packed `u64` mask.
#[inline]
pub fn set_bit(mask: &mut [u64], i: usize) {
    mask[i / 64] |= 1u64 << (i % 64);
}

/// Tests bit `i` in a packed `u64` mask (out-of-range bits read as 0).
#[inline]
pub fn test_bit(mask: &[u64], i: usize) -> bool {
    mask.get(i / 64)
        .is_some_and(|word| word & (1u64 << (i % 64)) != 0)
}

/// Precomputed transition-conflict and dependency relations, one packed
/// `u64` bitset row per transition.
///
/// Two relations are maintained:
///
/// * **conflict** — the structural relation the classic reduction rule
///   tests: transitions `a ≠ b` conflict iff they share an input place
///   (firing one can disable the other). The diagonal is clear, so a
///   row ANDed against a fireable-set mask directly answers *"does `a`
///   conflict with any other fireable transition?"*.
/// * **dependency** — the relation stubborn-set closure uses: every
///   conflict pair, plus any extra pairs the builder marks via
///   [`mark_dependent`](Self::mark_dependent) (the task layer marks all
///   transitions of one task as mutually dependent, since they are
///   program-ordered). The diagonal is *set*: a transition depends on
///   itself, so a fired transition never survives into its successor's
///   sleep set.
///
/// A third, coarser relation — **sleep dependency** — serves sleep-set
/// maintenance under priorities. Firing a transition `t` can force an
/// *urgent cascade*: maximal-priority `[0, 0]` bookkeeping successors
/// that preempt every lower-priority class until they have all fired.
/// A sleeping transition's coverage argument reorders it past everything
/// fired since it was put to sleep **and** past those cascades, so the
/// sleep relation must treat `x` and `y` as dependent whenever anything
/// in `{x} ∪ cascade(x)` structurally depends on anything in
/// `{y} ∪ cascade(y)`. [`build_sleep_closure`](Self::build_sleep_closure)
/// precomputes that product once per net; until it runs, the sleep
/// relation conservatively equals the dependency relation.
#[derive(Debug, Clone)]
pub struct DependencyMatrix {
    transitions: usize,
    words: usize,
    conflict: Vec<u64>,
    dep: Vec<u64>,
    sleep_dep: Vec<u64>,
}

impl DependencyMatrix {
    /// Builds the conflict relation of `net` (shared input places) and
    /// seeds the dependency relation with it plus the diagonal.
    pub fn from_net(net: &TimePetriNet) -> Self {
        let transitions = net.transition_count();
        let words = transitions.div_ceil(64).max(1);
        let mut matrix = DependencyMatrix {
            transitions,
            words,
            conflict: vec![0; transitions * words],
            dep: vec![0; transitions * words],
            sleep_dep: Vec::new(),
        };
        for (p, _) in net.places() {
            let consumers = net.consumers(p);
            for (i, &a) in consumers.iter().enumerate() {
                for &b in &consumers[i + 1..] {
                    matrix.mark_conflict(a, b);
                }
            }
        }
        for t in 0..transitions {
            set_bit(&mut matrix.dep[t * words..(t + 1) * words], t);
        }
        matrix
    }

    fn mark_conflict(&mut self, a: TransitionId, b: TransitionId) {
        let words = self.words;
        set_bit(&mut self.conflict[a.index() * words..], b.index());
        set_bit(&mut self.conflict[b.index() * words..], a.index());
        self.mark_dependent(a, b);
    }

    /// Marks `a` and `b` mutually dependent (symmetric; self-marks are
    /// no-ops since the diagonal is already set). Conflict rows are
    /// unaffected — the classic rule keeps its exact structural meaning.
    pub fn mark_dependent(&mut self, a: TransitionId, b: TransitionId) {
        let words = self.words;
        set_bit(&mut self.dep[a.index() * words..], b.index());
        set_bit(&mut self.dep[b.index() * words..], a.index());
    }

    /// Number of transitions the matrix covers.
    pub fn transition_count(&self) -> usize {
        self.transitions
    }

    /// Words per bitset row — the length callers should size their
    /// fireable/sleep masks to.
    pub fn words_per_row(&self) -> usize {
        self.words
    }

    /// The conflict row of `t` (diagonal clear).
    #[inline]
    pub fn conflict_row(&self, t: TransitionId) -> &[u64] {
        &self.conflict[t.index() * self.words..(t.index() + 1) * self.words]
    }

    /// The dependency row of `t` (diagonal set).
    #[inline]
    pub fn dep_row(&self, t: TransitionId) -> &[u64] {
        &self.dep[t.index() * self.words..(t.index() + 1) * self.words]
    }

    /// Whether `a` and `b` conflict (share an input place).
    pub fn conflicts(&self, a: TransitionId, b: TransitionId) -> bool {
        test_bit(self.conflict_row(a), b.index())
    }

    /// Whether `a` and `b` are dependent.
    pub fn dependent(&self, a: TransitionId, b: TransitionId) -> bool {
        test_bit(self.dep_row(a), b.index())
    }

    /// The sleep-dependency row of `t` — the dependency row widened by
    /// the urgent-cascade product (see the type docs). Falls back to the
    /// plain dependency row until
    /// [`build_sleep_closure`](Self::build_sleep_closure) has run.
    #[inline]
    pub fn sleep_dep_row(&self, t: TransitionId) -> &[u64] {
        if self.sleep_dep.is_empty() {
            return self.dep_row(t);
        }
        &self.sleep_dep[t.index() * self.words..(t.index() + 1) * self.words]
    }

    /// Computes the sleep-dependency relation from the structural
    /// dependency relation and the urgent cascades of `net`.
    ///
    /// `urgent` is a packed mask of the transitions whose firing is
    /// forced without letting time pass (maximal-priority `[0, 0]`
    /// bookkeeping). `cascade(t)` is the set of urgent transitions
    /// reachable from `t` through output-place chains that stay urgent —
    /// an overapproximation of everything `t`'s firing can force before
    /// the next free choice or time advance. `x` and `y` become
    /// sleep-dependent iff some member of `{x} ∪ cascade(x)` depends on
    /// some member of `{y} ∪ cascade(y)`.
    ///
    /// Call after all [`mark_dependent`](Self::mark_dependent) marks:
    /// the closure is a product over the *final* dependency rows.
    pub fn build_sleep_closure(&mut self, net: &TimePetriNet, urgent: &[u64]) {
        let (n, words) = (self.transitions, self.words);
        // ext(t) = {t} ∪ cascade(t), one packed row per transition.
        let mut ext: Vec<u64> = vec![0; n * words];
        let mut frontier: Vec<TransitionId> = Vec::new();
        for t in 0..n {
            let row = &mut ext[t * words..(t + 1) * words];
            set_bit(row, t);
            frontier.clear();
            frontier.push(TransitionId::from_index(t));
            while let Some(u) = frontier.pop() {
                for &(p, _) in net.post_set(u) {
                    for &v in net.consumers(p) {
                        if test_bit(urgent, v.index()) && !test_bit(row, v.index()) {
                            set_bit(row, v.index());
                            frontier.push(v);
                        }
                    }
                }
            }
        }
        // touched(x) = ∪ { dep_row(u) : u ∈ ext(x) } — every transition
        // something in x's cascade depends on.
        let mut touched: Vec<u64> = vec![0; n * words];
        for x in 0..n {
            for (word, &bits) in ext[x * words..(x + 1) * words].iter().enumerate() {
                let mut bits = bits;
                while bits != 0 {
                    let u = word * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let dep = &self.dep[u * words..(u + 1) * words];
                    for (w, &d) in dep.iter().enumerate() {
                        touched[x * words + w] |= d;
                    }
                }
            }
        }
        // sdep(x, y) ⇔ touched(x) ∩ ext(y) ≠ ∅ (symmetric because the
        // dependency relation is).
        let mut sleep_dep = vec![0; n * words];
        for x in 0..n {
            for y in x..n {
                let hit = touched[x * words..(x + 1) * words]
                    .iter()
                    .zip(&ext[y * words..(y + 1) * words])
                    .any(|(&a, &b)| a & b != 0);
                if hit {
                    set_bit(&mut sleep_dep[x * words..(x + 1) * words], y);
                    set_bit(&mut sleep_dep[y * words..(y + 1) * words], x);
                }
            }
        }
        self.sleep_dep = sleep_dep;
    }

    /// Approximate resident size of all relations, in bytes.
    pub fn resident_bytes(&self) -> usize {
        (self.conflict.capacity() + self.dep.capacity() + self.sleep_dep.capacity())
            * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TimeInterval, TpnBuilder};

    /// Whether `a` and `b` are sleep-dependent: bit `b` of `a`'s
    /// sleep-dependency row.
    fn sleep_dependent(m: &DependencyMatrix, a: usize, b: usize) -> bool {
        test_bit(m.sleep_dep_row(TransitionId::from_index(a)), b)
    }

    fn diamond_net() -> TimePetriNet {
        // p0 feeds t0 and t1 (conflict); p1 feeds t2 alone; t3 isolated.
        let mut b = TpnBuilder::new("diamond");
        let p0 = b.place_with_tokens("p0", 2);
        let p1 = b.place_with_tokens("p1", 1);
        let p2 = b.place("p2");
        let t0 = b.transition("t0", TimeInterval::exact(0));
        let t1 = b.transition("t1", TimeInterval::exact(0));
        let t2 = b.transition("t2", TimeInterval::exact(0));
        let _t3 = b.transition("t3", TimeInterval::exact(0));
        b.arc_place_to_transition(p0, t0, 1);
        b.arc_place_to_transition(p0, t1, 1);
        b.arc_place_to_transition(p1, t2, 1);
        b.arc_transition_to_place(t0, p2, 1);
        b.arc_transition_to_place(t1, p2, 1);
        b.arc_transition_to_place(t2, p2, 1);
        b.build().expect("valid net")
    }

    #[test]
    fn conflict_rows_mirror_shared_input_places() {
        let net = diamond_net();
        let m = DependencyMatrix::from_net(&net);
        let t = TransitionId::from_index;
        assert!(m.conflicts(t(0), t(1)));
        assert!(m.conflicts(t(1), t(0)));
        assert!(!m.conflicts(t(0), t(2)));
        assert!(!m.conflicts(t(2), t(3)));
        // Diagonal clear in conflict, set in dep.
        assert!(!m.conflicts(t(0), t(0)));
        assert!(m.dependent(t(0), t(0)));
        // Conflicts are dependencies.
        assert!(m.dependent(t(0), t(1)));
        assert!(!m.dependent(t(0), t(3)));
    }

    #[test]
    fn extra_dependencies_do_not_leak_into_conflicts() {
        let net = diamond_net();
        let mut m = DependencyMatrix::from_net(&net);
        let t = TransitionId::from_index;
        m.mark_dependent(t(2), t(3));
        assert!(m.dependent(t(2), t(3)));
        assert!(m.dependent(t(3), t(2)));
        assert!(!m.conflicts(t(2), t(3)));
        assert!(m.resident_bytes() > 0);
        assert_eq!(m.transition_count(), 4);
        assert_eq!(m.words_per_row(), 1);
    }

    #[test]
    fn matrix_agrees_with_the_quadratic_scan() {
        let net = diamond_net();
        let m = DependencyMatrix::from_net(&net);
        for a in 0..net.transition_count() {
            for b in 0..net.transition_count() {
                let (ta, tb) = (TransitionId::from_index(a), TransitionId::from_index(b));
                let shared = a != b
                    && net
                        .pre_set(ta)
                        .iter()
                        .any(|&(p, _)| net.pre_set(tb).iter().any(|&(q, _)| q == p));
                assert_eq!(m.conflicts(ta, tb), shared, "({a}, {b})");
            }
        }
    }

    #[test]
    fn sleep_closure_widens_by_urgent_cascades() {
        // t0 → pa → u (urgent) → pb, where u conflicts with t2 on pb's
        // consumer side; t3 stays isolated.
        let mut b = TpnBuilder::new("cascade");
        let p0 = b.place_with_tokens("p0", 1);
        let p1 = b.place_with_tokens("p1", 1);
        let pa = b.place("pa");
        let pb = b.place_with_tokens("pb", 1);
        let t0 = b.transition("t0", TimeInterval::exact(0));
        let u = b.transition("u", TimeInterval::exact(0));
        let t2 = b.transition("t2", TimeInterval::exact(0));
        let _t3 = b.transition("t3", TimeInterval::exact(0));
        b.arc_place_to_transition(p0, t0, 1);
        b.arc_transition_to_place(t0, pa, 1);
        b.arc_place_to_transition(pa, u, 1);
        b.arc_place_to_transition(pb, u, 1);
        b.arc_place_to_transition(pb, t2, 1);
        b.arc_place_to_transition(p1, t2, 1);
        let net = b.build().expect("valid net");

        let mut m = DependencyMatrix::from_net(&net);
        // Before the closure: t0 and t2 are structurally independent, and
        // the sleep relation falls back to the dependency relation.
        assert!(!m.dependent(TransitionId::from_index(0), TransitionId::from_index(2)));
        assert!(!sleep_dependent(&m, 0, 2));

        // Mark u as urgent: firing t0 can force u, and u conflicts with
        // t2 — so t0 and t2 become sleep-dependent, while t3 does not.
        let mut urgent = vec![0u64; m.words_per_row()];
        set_bit(&mut urgent, 1);
        m.build_sleep_closure(&net, &urgent);
        assert!(sleep_dependent(&m, 0, 2));
        assert!(sleep_dependent(&m, 2, 0));
        assert!(!sleep_dependent(&m, 0, 3));
        // The plain relations are untouched.
        assert!(!m.dependent(TransitionId::from_index(0), TransitionId::from_index(2)));
        assert!(!m.conflicts(TransitionId::from_index(0), TransitionId::from_index(2)));
        // Dependency pairs stay sleep-dependent, and the diagonal is set.
        assert!(sleep_dependent(&m, 0, 1));
        assert!(sleep_dependent(&m, 0, 0));
    }
}
