//! Feasible firing schedules (Def. 3.2).

use ezrt_compose::TransitionRole;
use ezrt_tpn::{Time, TransitionId};
use std::fmt;

/// One firing of a feasible firing schedule: the TLTS label `(t, q)`
/// enriched with the absolute firing time and the transition's semantic
/// role.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledFiring {
    /// The fired transition.
    pub transition: TransitionId,
    /// Its semantic role in the translated net.
    pub role: TransitionRole,
    /// The delay `q` relative to the previous firing.
    pub delay: Time,
    /// The absolute firing time (sum of delays so far).
    pub at: Time,
}

impl fmt::Display for ScheduledFiring {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} @ {}", self.role, self.at)
    }
}

/// A feasible firing schedule: a run
/// `s0 —(t1,q1)→ s1 —(t2,q2)→ … —(tn,qn)→ sn` whose final marking is the
/// desired `MF` (Def. 3.2). Values of this type are only produced by a
/// successful [`synthesize`](crate::synthesize), so they are feasible by
/// construction; an independent re-check lives in
/// [`validate`](crate::validate).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeasibleSchedule {
    firings: Vec<ScheduledFiring>,
}

impl FeasibleSchedule {
    pub(crate) fn new(firings: Vec<ScheduledFiring>) -> Self {
        FeasibleSchedule { firings }
    }

    /// Assembles a schedule from raw firings **without searching**,
    /// bypassing the feasible-by-construction guarantee — the caller
    /// owns the feasibility obligation. The disk-cache decode path
    /// (`ezrt_artifacts::codec`) uses this and then replays the result
    /// through the [`replay`](crate::replay::replay) net-semantics oracle before
    /// trusting it; anything else should get schedules from
    /// [`synthesize`](crate::synthesize).
    pub fn from_firings(firings: Vec<ScheduledFiring>) -> Self {
        FeasibleSchedule { firings }
    }

    /// [`from_firings`](Self::from_firings) under its historical
    /// test-fixture name.
    #[doc(hidden)]
    pub fn new_for_tests(firings: Vec<ScheduledFiring>) -> Self {
        Self::from_firings(firings)
    }

    /// The firings in order.
    pub fn firings(&self) -> &[ScheduledFiring] {
        &self.firings
    }

    /// The absolute time of the last firing — at most the hyper-period.
    pub fn makespan(&self) -> Time {
        self.firings.last().map(|f| f.at).unwrap_or(0)
    }

    /// Always true; present so pipeline code reads naturally
    /// (`outcome.schedule.is_feasible()`) and symmetric with infeasibility
    /// reports.
    pub fn is_feasible(&self) -> bool {
        true
    }

    /// Iterates over the firings with a given role predicate — e.g. all
    /// processor grants.
    pub fn firings_where<'a>(
        &'a self,
        mut predicate: impl FnMut(&TransitionRole) -> bool + 'a,
    ) -> impl Iterator<Item = &'a ScheduledFiring> + 'a {
        self.firings.iter().filter(move |f| predicate(&f.role))
    }
}

impl AsRef<[ScheduledFiring]> for FeasibleSchedule {
    fn as_ref(&self) -> &[ScheduledFiring] {
        &self.firings
    }
}

impl fmt::Display for FeasibleSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "feasible schedule, {} firings:", self.firings.len())?;
        for firing in &self.firings {
            writeln!(f, "  {firing}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ezrt_spec::TaskId;

    fn firing(at: Time, delay: Time, role: TransitionRole, idx: usize) -> ScheduledFiring {
        ScheduledFiring {
            transition: TransitionId::from_index(idx),
            role,
            delay,
            at,
        }
    }

    #[test]
    fn makespan_is_last_firing_time() {
        let task = TaskId::from_index(0);
        let schedule = FeasibleSchedule::new(vec![
            firing(0, 0, TransitionRole::Fork, 0),
            firing(5, 5, TransitionRole::Grant(task), 1),
            firing(9, 4, TransitionRole::Join, 2),
        ]);
        assert_eq!(schedule.makespan(), 9);
        assert!(schedule.is_feasible());
        assert_eq!(schedule.firings().len(), 3);
    }

    #[test]
    fn empty_schedule_has_zero_makespan() {
        assert_eq!(FeasibleSchedule::new(vec![]).makespan(), 0);
    }

    #[test]
    fn role_filtering() {
        let task = TaskId::from_index(1);
        let schedule = FeasibleSchedule::new(vec![
            firing(0, 0, TransitionRole::Fork, 0),
            firing(2, 2, TransitionRole::Grant(task), 1),
            firing(4, 2, TransitionRole::Compute(task), 2),
        ]);
        let grants: Vec<_> = schedule
            .firings_where(|r| matches!(r, TransitionRole::Grant(_)))
            .collect();
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].at, 2);
    }

    #[test]
    fn display_lists_firings() {
        let schedule = FeasibleSchedule::new(vec![firing(0, 0, TransitionRole::Fork, 0)]);
        let text = schedule.to_string();
        assert!(text.contains("1 firings"));
        assert!(text.contains("fork @ 0"));
    }
}
