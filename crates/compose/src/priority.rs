//! The priority scheme `π : T → ℕ` assigned by the translation.
//!
//! Priorities resolve same-instant conflicts deterministically (smaller
//! value = higher priority, per the paper's `FT(s)` definition). The
//! ordering encodes three rules:
//!
//! 1. *bookkeeping before decisions* — finish/disarm/stage transitions are
//!    `[0,0]` and logically forced, so they outrank the schedulable
//!    decisions (`t_r`, `t_g`, `t_c`);
//! 2. *disarm before miss* — an instance completing exactly at its
//!    deadline is on time, so `t_pc` must beat `t_d`;
//! 3. *miss last* — `t_d` has the lowest priority of all, so a
//!    computation ending exactly at the deadline (`t_c`, then `t_f`,
//!    then `t_pc`) wins the race against the miss transition.

/// Priority levels used by the generated nets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Priority(pub u32);

impl Priority {
    /// `t_start` / `t_end`: structural fork and join.
    pub const FORK_JOIN: Priority = Priority(0);
    /// `t_pc`: deadline-watcher disarm on completion.
    pub const DEADLINE_CHECK: Priority = Priority(1);
    /// `t_f`: task-instance finish bookkeeping.
    pub const FINISH: Priority = Priority(2);
    /// Relation stages: precedence grants, exclusion-lock acquisition,
    /// message receives.
    pub const STAGE: Priority = Priority(3);
    /// Timed sources `t_ph` and `t_a`: forced periodic arrivals.
    pub const SOURCE: Priority = Priority(10);
    /// Scheduling decisions: `t_r`, `t_g`, `t_c` and bus transitions.
    pub const DECISION: Priority = Priority(50);
    /// `t_d`: deadline miss, deliberately last (see rule 3 above).
    pub const MISS: Priority = Priority(200);

    /// The raw value handed to `ezrt_tpn`.
    pub fn value(self) -> u32 {
        self.0
    }

    /// Whether transitions at this priority are *bookkeeping*: logically
    /// forced `[0,0]` steps whose mutual order cannot affect reachable
    /// schedules. The scheduler's partial-order reduction fires these
    /// without branching when they are conflict-free.
    pub fn is_bookkeeping(self) -> bool {
        self <= Priority::SOURCE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_encodes_the_three_rules() {
        assert!(
            Priority::DEADLINE_CHECK < Priority::MISS,
            "disarm before miss"
        );
        assert!(
            Priority::FINISH < Priority::DECISION,
            "bookkeeping before decisions"
        );
        assert!(
            Priority::DECISION < Priority::MISS,
            "computation beats miss at the deadline"
        );
        assert!(Priority::FORK_JOIN < Priority::DEADLINE_CHECK);
        assert!(Priority::STAGE < Priority::SOURCE);
    }

    #[test]
    fn bookkeeping_classification() {
        assert!(Priority::FORK_JOIN.is_bookkeeping());
        assert!(Priority::DEADLINE_CHECK.is_bookkeeping());
        assert!(Priority::FINISH.is_bookkeeping());
        assert!(Priority::STAGE.is_bookkeeping());
        assert!(Priority::SOURCE.is_bookkeeping());
        assert!(!Priority::DECISION.is_bookkeeping());
        assert!(!Priority::MISS.is_bookkeeping());
    }

    #[test]
    fn value_round_trips() {
        assert_eq!(Priority::DECISION.value(), 50);
        assert_eq!(Priority(7).value(), 7);
    }
}
