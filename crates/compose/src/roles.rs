//! Semantic labels mapping net transitions back to task-level events.

use ezrt_spec::{MessageId, TaskId};
use std::fmt;

/// What a transition of a translated net *means* at the specification
/// level. The scheduler uses roles for branch ordering and timeline
/// reconstruction; the code generator turns `Compute` firings into
/// schedule-table entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransitionRole {
    /// `t_start` — the fork block's single transition.
    Fork,
    /// `t_end` — the join block's single transition; firing it reaches the
    /// desired final marking `MF`.
    Join,
    /// `t_ph` — the phase offset of a task's first instance.
    Phase(TaskId),
    /// `t_a` — periodic arrival of the remaining instances.
    Arrival(TaskId),
    /// `t_r` — instance release (interval `[r, d−c]`): the scheduling
    /// window within which the task must start.
    Release(TaskId),
    /// `t_g` — processor grant: execution (or resumption) begins.
    Grant(TaskId),
    /// `t_c` — computation: the whole WCET for non-preemptive tasks, one
    /// time unit for preemptive tasks.
    Compute(TaskId),
    /// `t_f` — instance finish bookkeeping.
    Finish(TaskId),
    /// `t_pc` — deadline-watcher disarm (completion before the deadline).
    DeadlineCheck(TaskId),
    /// `t_d` — deadline miss; any state marked by this transition's output
    /// is pruned by the search.
    DeadlineMiss(TaskId),
    /// `t_prec` — precedence grant: `from`'s finish token admits `to`.
    PrecedenceGrant {
        /// The predecessor task.
        from: TaskId,
        /// The successor task being admitted.
        to: TaskId,
    },
    /// `t_excl` — exclusion-lock acquisition by `task` against `partner`.
    ExclusionAcquire {
        /// The acquiring task.
        task: TaskId,
        /// The exclusion partner the lock is shared with.
        partner: TaskId,
    },
    /// Bus arbitration grant for a message.
    BusGrant(MessageId),
    /// Bus transfer of a message.
    BusTransfer(MessageId),
    /// Message delivery stage on the receiver side.
    MessageReceive {
        /// The delivered message.
        message: MessageId,
        /// The receiving task.
        to: TaskId,
    },
}

impl TransitionRole {
    /// The task this transition belongs to, when it is task-local.
    pub fn task(&self) -> Option<TaskId> {
        match *self {
            TransitionRole::Phase(t)
            | TransitionRole::Arrival(t)
            | TransitionRole::Release(t)
            | TransitionRole::Grant(t)
            | TransitionRole::Compute(t)
            | TransitionRole::Finish(t)
            | TransitionRole::DeadlineCheck(t)
            | TransitionRole::DeadlineMiss(t) => Some(t),
            TransitionRole::ExclusionAcquire { task, .. } => Some(task),
            TransitionRole::PrecedenceGrant { to, .. } => Some(to),
            TransitionRole::MessageReceive { to, .. } => Some(to),
            TransitionRole::Fork
            | TransitionRole::Join
            | TransitionRole::BusGrant(_)
            | TransitionRole::BusTransfer(_) => None,
        }
    }
}

impl fmt::Display for TransitionRole {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransitionRole::Fork => write!(f, "fork"),
            TransitionRole::Join => write!(f, "join"),
            TransitionRole::Phase(t) => write!(f, "phase({t})"),
            TransitionRole::Arrival(t) => write!(f, "arrival({t})"),
            TransitionRole::Release(t) => write!(f, "release({t})"),
            TransitionRole::Grant(t) => write!(f, "grant({t})"),
            TransitionRole::Compute(t) => write!(f, "compute({t})"),
            TransitionRole::Finish(t) => write!(f, "finish({t})"),
            TransitionRole::DeadlineCheck(t) => write!(f, "deadline-check({t})"),
            TransitionRole::DeadlineMiss(t) => write!(f, "deadline-miss({t})"),
            TransitionRole::PrecedenceGrant { from, to } => {
                write!(f, "precedence({from}->{to})")
            }
            TransitionRole::ExclusionAcquire { task, partner } => {
                write!(f, "exclusion({task} vs {partner})")
            }
            TransitionRole::BusGrant(m) => write!(f, "bus-grant({m})"),
            TransitionRole::BusTransfer(m) => write!(f, "bus-transfer({m})"),
            TransitionRole::MessageReceive { message, to } => {
                write!(f, "receive({message}->{to})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tid(i: usize) -> TaskId {
        TaskId::from_index(i)
    }

    #[test]
    fn task_extraction() {
        assert_eq!(TransitionRole::Compute(tid(2)).task(), Some(tid(2)));
        assert_eq!(
            TransitionRole::PrecedenceGrant {
                from: tid(0),
                to: tid(1)
            }
            .task(),
            Some(tid(1)),
            "a precedence stage belongs to the admitted successor"
        );
        assert_eq!(TransitionRole::Fork.task(), None);
        assert_eq!(
            TransitionRole::BusGrant(MessageId::from_index(0)).task(),
            None
        );
    }

    #[test]
    fn display_is_informative() {
        assert_eq!(TransitionRole::Fork.to_string(), "fork");
        assert_eq!(
            TransitionRole::Release(tid(3)).to_string(),
            "release(task3)"
        );
        assert_eq!(
            TransitionRole::ExclusionAcquire {
                task: tid(0),
                partner: tid(1)
            }
            .to_string(),
            "exclusion(task0 vs task1)"
        );
    }
}
