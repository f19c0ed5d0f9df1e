//! TLTS states and firing labels.

use crate::marking::Marking;
use crate::{Time, TransitionId};
use std::fmt;

/// A state `s = (m, c)` of the timed labelled transition system derived
/// from a time Petri net: a marking plus one enabling clock per transition.
///
/// Clocks of disabled transitions are kept normalized to zero so that
/// structural equality and hashing coincide with TLTS state identity; the
/// firing rule ([`TimePetriNet::fire`](crate::TimePetriNet::fire))
/// maintains this invariant.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct State {
    marking: Marking,
    clocks: Vec<Time>,
}

impl State {
    /// Assembles a state from a marking and a full clock vector.
    pub fn new(marking: Marking, clocks: Vec<Time>) -> Self {
        State { marking, clocks }
    }

    /// The marking component `m`.
    pub fn marking(&self) -> &Marking {
        &self.marking
    }

    /// The enabling clock of transition `t` (zero when disabled).
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range for the net this state belongs to.
    pub fn clock(&self, t: TransitionId) -> Time {
        self.clocks[t.index()]
    }

    /// The full clock vector, indexed by transition.
    pub fn clocks(&self) -> &[Time] {
        &self.clocks
    }
}

impl fmt::Display for State {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, [", self.marking)?;
        let mut first = true;
        for (i, &c) in self.clocks.iter().enumerate() {
            if c > 0 {
                if !first {
                    write!(f, ", ")?;
                }
                first = false;
                write!(f, "t{i}={c}")?;
            }
        }
        write!(f, "])")
    }
}

/// A TLTS label `(t, q)`: transition `t` fired after a delay of `q` time
/// units relative to the previous state.
///
/// # Examples
///
/// ```
/// use ezrt_tpn::{Firing, TransitionId};
///
/// let f = Firing::new(TransitionId::from_index(3), 25);
/// assert_eq!(f.delay(), 25);
/// assert_eq!(f.to_string(), "(t3, 25)");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Firing {
    transition: TransitionId,
    delay: Time,
}

impl Firing {
    /// Creates the label `(transition, delay)`.
    pub fn new(transition: TransitionId, delay: Time) -> Self {
        Firing { transition, delay }
    }

    /// The fired transition.
    pub fn transition(&self) -> TransitionId {
        self.transition
    }

    /// The delay `q` spent in the predecessor state before firing.
    pub fn delay(&self) -> Time {
        self.delay
    }
}

impl fmt::Display for Firing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.transition, self.delay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PlaceId;

    #[test]
    fn state_accessors() {
        let mut m = Marking::empty(2);
        m.set(PlaceId::from_index(0), 1);
        let s = State::new(m.clone(), vec![0, 7]);
        assert_eq!(s.marking(), &m);
        assert_eq!(s.clock(TransitionId::from_index(1)), 7);
        assert_eq!(s.clocks(), [0, 7]);
    }

    #[test]
    fn state_display_shows_nonzero_clocks() {
        let m = Marking::from_vec(vec![1]);
        let s = State::new(m, vec![0, 3]);
        assert_eq!(s.to_string(), "({p0}, [t1=3])");
    }

    #[test]
    fn states_hash_structurally() {
        use std::collections::HashSet;
        let a = State::new(Marking::from_vec(vec![1, 0]), vec![2, 0]);
        let b = State::new(Marking::from_vec(vec![1, 0]), vec![2, 0]);
        let c = State::new(Marking::from_vec(vec![1, 0]), vec![3, 0]);
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
        assert!(!set.contains(&c));
    }

    #[test]
    fn firing_display() {
        let f = Firing::new(TransitionId::from_index(0), 0);
        assert_eq!(f.to_string(), "(t0, 0)");
    }
}
