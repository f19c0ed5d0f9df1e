//! Typed indices for places and transitions.

use std::fmt;

/// Index of a place within a [`TimePetriNet`](crate::TimePetriNet).
///
/// Place ids are dense (`0..place_count`) and stable: composition never
/// reorders existing places.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PlaceId(pub(crate) u32);

/// Index of a transition within a [`TimePetriNet`](crate::TimePetriNet).
///
/// Transition ids are dense (`0..transition_count`) and stable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TransitionId(pub(crate) u32);

impl PlaceId {
    /// The dense index of this place.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds an id from a dense index.
    ///
    /// Callers are responsible for the index being in range for the net the
    /// id will be used with; out-of-range ids surface as panics in accessors.
    pub fn from_index(index: usize) -> Self {
        PlaceId(index as u32)
    }
}

impl TransitionId {
    /// The dense index of this transition.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds an id from a dense index.
    ///
    /// Callers are responsible for the index being in range for the net the
    /// id will be used with; out-of-range ids surface as panics in accessors.
    pub fn from_index(index: usize) -> Self {
        TransitionId(index as u32)
    }
}

impl fmt::Display for PlaceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl fmt::Display for TransitionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_round_trip_indices() {
        assert_eq!(PlaceId::from_index(7).index(), 7);
        assert_eq!(TransitionId::from_index(3).index(), 3);
    }

    #[test]
    fn display_uses_petri_net_conventions() {
        assert_eq!(PlaceId::from_index(2).to_string(), "p2");
        assert_eq!(TransitionId::from_index(5).to_string(), "t5");
    }

    #[test]
    fn ids_are_ordered_by_index() {
        assert!(PlaceId::from_index(1) < PlaceId::from_index(2));
        assert!(TransitionId::from_index(0) < TransitionId::from_index(9));
    }
}
