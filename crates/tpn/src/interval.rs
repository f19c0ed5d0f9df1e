//! Static firing intervals `I(t) = [EFT(t), LFT(t)]`.

use crate::error::BuildNetError;
use crate::Time;
use std::fmt;

/// Upper bound of a firing interval: a finite latest firing time or `∞`.
///
/// The ezRealtime building blocks only produce finite bounds (the paper
/// defines `I : T → ℕ × ℕ`), but general time Petri nets — and PNML files
/// found in the wild — use unbounded intervals, so the net substrate
/// supports them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimeBound {
    /// A finite latest firing time.
    Finite(Time),
    /// No upper bound: the transition is never *forced* to fire.
    Infinite,
}

impl TimeBound {
    /// Returns the finite value, if any.
    pub fn finite(self) -> Option<Time> {
        match self {
            TimeBound::Finite(v) => Some(v),
            TimeBound::Infinite => None,
        }
    }

    /// Whether this bound is `∞`.
    pub fn is_infinite(self) -> bool {
        matches!(self, TimeBound::Infinite)
    }

    /// Saturating subtraction: `self - rhs`, staying at zero for finite
    /// bounds and `∞ - x = ∞`.
    pub fn saturating_sub(self, rhs: Time) -> TimeBound {
        match self {
            TimeBound::Finite(v) => TimeBound::Finite(v.saturating_sub(rhs)),
            TimeBound::Infinite => TimeBound::Infinite,
        }
    }

    /// The minimum of two bounds, treating `∞` as larger than any finite.
    pub fn min(self, other: TimeBound) -> TimeBound {
        match (self, other) {
            (TimeBound::Finite(a), TimeBound::Finite(b)) => TimeBound::Finite(a.min(b)),
            (TimeBound::Finite(a), TimeBound::Infinite) => TimeBound::Finite(a),
            (TimeBound::Infinite, b) => b,
        }
    }
}

impl PartialOrd for TimeBound {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TimeBound {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        use TimeBound::*;
        match (self, other) {
            (Finite(a), Finite(b)) => a.cmp(b),
            (Finite(_), Infinite) => std::cmp::Ordering::Less,
            (Infinite, Finite(_)) => std::cmp::Ordering::Greater,
            (Infinite, Infinite) => std::cmp::Ordering::Equal,
        }
    }
}

impl From<Time> for TimeBound {
    fn from(value: Time) -> Self {
        TimeBound::Finite(value)
    }
}

impl fmt::Display for TimeBound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TimeBound::Finite(v) => write!(f, "{v}"),
            TimeBound::Infinite => write!(f, "inf"),
        }
    }
}

/// A static firing interval `[EFT, LFT]` attached to a transition.
///
/// Once a transition has been continuously enabled for `EFT` time units it
/// *may* fire; it *must* fire (or be disabled by a conflicting firing)
/// before its enabling age exceeds `LFT`.
///
/// # Examples
///
/// ```
/// use ezrt_tpn::{TimeInterval, TimeBound};
///
/// # fn main() -> Result<(), ezrt_tpn::BuildNetError> {
/// let immediate = TimeInterval::immediate();       // [0, 0]
/// let exact = TimeInterval::exact(25);             // [25, 25] (a WCET bound)
/// let window = TimeInterval::new(10, 90)?;         // [10, 90] (release window)
/// let open = TimeInterval::at_least(5);            // [5, inf)
/// assert!(immediate.is_immediate());
/// assert_eq!(exact.eft(), 25);
/// assert_eq!(window.lft(), TimeBound::Finite(90));
/// assert!(open.lft().is_infinite());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimeInterval {
    eft: Time,
    lft: TimeBound,
}

impl TimeInterval {
    /// Creates the interval `[eft, lft]`.
    ///
    /// # Errors
    ///
    /// Returns [`BuildNetError::EmptyInterval`] when `eft > lft`, which
    /// would make the transition unfireable.
    pub fn new(eft: Time, lft: Time) -> Result<Self, BuildNetError> {
        if eft > lft {
            return Err(BuildNetError::EmptyInterval { eft, lft });
        }
        Ok(TimeInterval {
            eft,
            lft: TimeBound::Finite(lft),
        })
    }

    /// The punctual interval `[value, value]` — e.g. a computation time
    /// bound `[c_i, c_i]` in the non-preemptive task structure block.
    pub fn exact(value: Time) -> Self {
        TimeInterval {
            eft: value,
            lft: TimeBound::Finite(value),
        }
    }

    /// The immediate interval `[0, 0]` used by all the "logic" transitions
    /// of the building blocks (fork, grant, finish, …).
    pub fn immediate() -> Self {
        Self::exact(0)
    }

    /// The right-open interval `[eft, ∞)`.
    pub fn at_least(eft: Time) -> Self {
        TimeInterval {
            eft,
            lft: TimeBound::Infinite,
        }
    }

    /// Earliest firing time.
    pub fn eft(&self) -> Time {
        self.eft
    }

    /// Latest firing time.
    pub fn lft(&self) -> TimeBound {
        self.lft
    }

    /// Whether this is the `[0, 0]` interval.
    pub fn is_immediate(&self) -> bool {
        self.eft == 0 && self.lft == TimeBound::Finite(0)
    }

    /// Dynamic lower bound: time that must still elapse before a transition
    /// with this interval and enabling age `clock` may fire
    /// (`DLB(t) = max(0, EFT(t) − c(t))`).
    pub fn dynamic_lower_bound(&self, clock: Time) -> Time {
        self.eft.saturating_sub(clock)
    }

    /// Dynamic upper bound: time after which the transition with enabling
    /// age `clock` becomes urgent (`DUB(t) = LFT(t) − c(t)`).
    ///
    /// Under the strong firing semantics enforced by
    /// [`TimePetriNet::fire`](crate::TimePetriNet::fire), clocks never
    /// exceed `LFT`, so the subtraction cannot underflow in valid runs; a
    /// saturating subtraction is used for robustness anyway.
    pub fn dynamic_upper_bound(&self, clock: Time) -> TimeBound {
        self.lft.saturating_sub(clock)
    }
}

impl fmt::Display for TimeInterval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.eft, self.lft)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_produce_expected_bounds() {
        let w = TimeInterval::new(3, 7).unwrap();
        assert_eq!(w.eft(), 3);
        assert_eq!(w.lft(), TimeBound::Finite(7));
        assert!(!w.is_immediate());

        assert!(TimeInterval::immediate().is_immediate());
        assert_eq!(TimeInterval::exact(4).lft(), TimeBound::Finite(4));
        assert!(TimeInterval::at_least(2).lft().is_infinite());
    }

    #[test]
    fn empty_interval_is_rejected() {
        assert!(matches!(
            TimeInterval::new(5, 4),
            Err(BuildNetError::EmptyInterval { eft: 5, lft: 4 })
        ));
    }

    #[test]
    fn dynamic_bounds_follow_the_paper_definitions() {
        let i = TimeInterval::new(10, 30).unwrap();
        assert_eq!(i.dynamic_lower_bound(0), 10);
        assert_eq!(i.dynamic_lower_bound(4), 6);
        assert_eq!(i.dynamic_lower_bound(10), 0);
        assert_eq!(i.dynamic_lower_bound(25), 0, "DLB clamps at zero");
        assert_eq!(i.dynamic_upper_bound(0), TimeBound::Finite(30));
        assert_eq!(i.dynamic_upper_bound(12), TimeBound::Finite(18));
    }

    #[test]
    fn infinite_upper_bound_behaviour() {
        let i = TimeInterval::at_least(2);
        assert_eq!(i.dynamic_upper_bound(100), TimeBound::Infinite);
        assert_eq!(
            TimeBound::Infinite.min(TimeBound::Finite(9)),
            TimeBound::Finite(9)
        );
        assert_eq!(
            TimeBound::Infinite.min(TimeBound::Infinite),
            TimeBound::Infinite
        );
    }

    #[test]
    fn bound_ordering_treats_infinity_as_top() {
        assert!(TimeBound::Finite(u64::MAX) < TimeBound::Infinite);
        assert_eq!(
            TimeBound::Finite(3).min(TimeBound::Finite(5)),
            TimeBound::Finite(3)
        );
    }

    #[test]
    fn display_formats() {
        assert_eq!(TimeInterval::new(1, 2).unwrap().to_string(), "[1, 2]");
        assert_eq!(TimeInterval::at_least(1).to_string(), "[1, inf]");
    }

    #[test]
    fn bound_conversions() {
        assert_eq!(TimeBound::from(9).finite(), Some(9));
        assert_eq!(TimeBound::Infinite.finite(), None);
    }
}
