//! [`TaskNet`]: a translated net plus the semantic maps needed to
//! interpret it at the task level.

use crate::roles::TransitionRole;
use ezrt_spec::{EzSpec, ProcessorId, SchedulingMethod, TaskId};
use ezrt_tpn::{DependencyMatrix, Marking, PlaceId, TimePetriNet, TransitionId};

/// The key transitions of one task's blocks, by role.
#[derive(Debug, Clone, Copy)]
pub struct TaskTransitions {
    /// `t_ph` — phase / first arrival.
    pub phase: TransitionId,
    /// `t_a` — subsequent arrivals (absent when the task has a single
    /// instance in the schedule period).
    pub arrival: Option<TransitionId>,
    /// `t_r` — release.
    pub release: TransitionId,
    /// `t_g` — processor grant.
    pub grant: TransitionId,
    /// `t_c` — computation.
    pub compute: TransitionId,
    /// `t_f` — finish.
    pub finish: TransitionId,
    /// `t_pc` — deadline-watcher disarm.
    pub deadline_check: TransitionId,
    /// `t_d` — deadline miss.
    pub deadline_miss: TransitionId,
}

/// A specification translated into a time Petri net, together with the
/// maps the scheduler, simulator and code generator need:
///
/// * the [`TransitionRole`] of every transition;
/// * the deadline-miss places (states marking them are pruned);
/// * the desired final marking `MF` (Def. 3.2);
/// * per-task transition handles and instance counts.
///
/// Produced by [`translate`](crate::translate).
#[derive(Debug, Clone)]
pub struct TaskNet {
    pub(crate) net: TimePetriNet,
    pub(crate) spec: EzSpec,
    pub(crate) roles: Vec<TransitionRole>,
    pub(crate) miss_places: Vec<PlaceId>,
    pub(crate) final_marking: Marking,
    pub(crate) end_place: PlaceId,
    pub(crate) processor_places: Vec<PlaceId>,
    pub(crate) task_transitions: Vec<TaskTransitions>,
    pub(crate) instances: Vec<u64>,
    pub(crate) deps: DependencyMatrix,
    pub(crate) bookkeeping: Vec<u64>,
    /// The transitions whose post-set holds a deadline-miss place, as a
    /// transition mask: the only firings that can mark a miss.
    pub(crate) miss_writers: Vec<u64>,
}

impl TaskNet {
    /// The underlying time Petri net.
    pub fn net(&self) -> &TimePetriNet {
        &self.net
    }

    /// The specification this net was translated from.
    pub fn spec(&self) -> &EzSpec {
        &self.spec
    }

    /// The semantic role of a transition.
    ///
    /// # Panics
    ///
    /// Panics if `t` does not belong to this net.
    pub fn role(&self, t: TransitionId) -> TransitionRole {
        self.roles[t.index()]
    }

    /// The task a transition belongs to, when task-local.
    pub fn task_of(&self, t: TransitionId) -> Option<TaskId> {
        self.role(t).task()
    }

    /// The key transitions of `task`.
    ///
    /// # Panics
    ///
    /// Panics if `task` is out of range.
    pub fn transitions_of(&self, task: TaskId) -> &TaskTransitions {
        &self.task_transitions[task.index()]
    }

    /// Number of instances of `task` in the schedule period.
    pub fn instances_of(&self, task: TaskId) -> u64 {
        self.instances[task.index()]
    }

    /// The precomputed transition conflict/dependency relation: the
    /// structural *share-an-input-place* conflicts of the net, with
    /// same-task transitions additionally marked mutually dependent.
    /// Built once at translation time; the searches' partial-order
    /// reduction queries it with word operations instead of re-scanning
    /// pre-sets per state.
    pub fn deps(&self) -> &DependencyMatrix {
        &self.deps
    }

    /// Whether `t`'s priority class is bookkeeping (memoized bitmask over
    /// [`Priority::is_bookkeeping`](crate::Priority::is_bookkeeping), so
    /// the search's per-state class check is one bit test).
    #[inline]
    pub fn is_bookkeeping_transition(&self, t: TransitionId) -> bool {
        ezrt_tpn::por::test_bit(&self.bookkeeping, t.index())
    }

    /// The deadline-miss places `p_dm` (one per task).
    pub fn miss_places(&self) -> &[PlaceId] {
        &self.miss_places
    }

    /// The desired final marking `MF`: `p_end` plus every resource place
    /// (processors, exclusion locks, buses) holding one token.
    pub fn final_marking(&self) -> &Marking {
        &self.final_marking
    }

    /// The join block's output place `p_end`.
    pub fn end_place(&self) -> PlaceId {
        self.end_place
    }

    /// The resource place of `processor`.
    ///
    /// # Panics
    ///
    /// Panics if `processor` is out of range.
    pub fn processor_place(&self, processor: ProcessorId) -> PlaceId {
        self.processor_places[processor.index()]
    }

    /// Whether `marking` is the desired final marking `MF` —
    /// `m(p_end) = 1` "indicates that a feasible firing schedule
    /// (Def. 3.2) was found".
    pub fn is_final(&self, marking: &Marking) -> bool {
        *marking == self.final_marking
    }

    /// Whether any deadline-miss place is marked; such states are
    /// "undesirable situations when considering hard real-time systems"
    /// and the search prunes them.
    pub fn has_deadline_miss(&self, marking: &Marking) -> bool {
        self.miss_places.iter().any(|&p| marking.tokens(p) > 0)
    }

    /// Packed-kernel counterpart of [`has_deadline_miss`](Self::has_deadline_miss):
    /// reads the token prefix of a packed state slice (see
    /// [`StateLayout`](ezrt_tpn::StateLayout)) without unpacking.
    pub fn has_deadline_miss_packed(&self, state: &[u32]) -> bool {
        self.miss_places.iter().any(|&p| state[p.index()] > 0)
    }

    /// Whether firing `fired` reached the packed `state` with a
    /// deadline-miss place marked, given that the state it fired from
    /// marked none (as every state a search expands does). Only a
    /// transition that outputs into a miss place can mark one, so for
    /// every other firing this reads no place at all. Debug builds
    /// cross-check the answer against the full
    /// [`has_deadline_miss_packed`](Self::has_deadline_miss_packed) scan.
    #[inline]
    pub fn fired_into_miss(&self, fired: TransitionId, state: &[u32]) -> bool {
        let missed = ezrt_tpn::por::test_bit(&self.miss_writers, fired.index())
            && self.has_deadline_miss_packed(state);
        debug_assert_eq!(
            missed,
            self.has_deadline_miss_packed(state),
            "a firing that outputs into no miss place marked one"
        );
        missed
    }

    /// Packed-kernel counterpart of [`is_final`](Self::is_final).
    pub fn is_final_packed(&self, state: &[u32]) -> bool {
        state[..self.final_marking.place_count()] == *self.final_marking.as_slice()
    }

    /// Packed-kernel counterpart of [`missed_tasks`](Self::missed_tasks):
    /// yields the missed tasks without allocating, so the searches'
    /// miss-pruning branches can mark a dense per-task flag directly.
    pub fn missed_tasks_packed_iter<'a>(
        &'a self,
        state: &'a [u32],
    ) -> impl Iterator<Item = TaskId> + 'a {
        self.miss_places
            .iter()
            .enumerate()
            .filter(|&(_, &p)| state[p.index()] > 0)
            .map(|(i, _)| TaskId::from_index(i))
    }

    /// The tasks whose miss place is marked in `marking` — diagnostics
    /// for infeasibility reports.
    pub fn missed_tasks(&self, marking: &Marking) -> Vec<TaskId> {
        self.miss_places
            .iter()
            .enumerate()
            .filter(|&(_, &p)| marking.tokens(p) > 0)
            .map(|(i, _)| TaskId::from_index(i))
            .collect()
    }

    /// The number of firings of a deadline-respecting run from `m0` to
    /// `MF` — every firing on such a run is forced, so this is exact, and
    /// it is this reproduction's analogue of the paper's "minimum number
    /// of states" (which is this count plus one, counting states rather
    /// than edges).
    ///
    /// Per task: one `t_ph`, `N−1` `t_a`, and per instance one `t_r`, one
    /// stage firing per relation stage, one `t_f`, one `t_pc`, plus the
    /// grant/compute firings (1 + 1 non-preemptive, `c + c` preemptive);
    /// messages add two bus firings per instance; plus `t_start` and
    /// `t_end`.
    pub fn minimum_firing_count(&self) -> u64 {
        let mut total = 2; // fork + join
        for (id, task) in self.spec.tasks() {
            let n = self.instances[id.index()];
            let stages = self.spec.predecessors(id).count()
                + self
                    .spec
                    .messages()
                    .filter(|(_, m)| m.receiver() == id)
                    .count()
                + self.spec.exclusion_partners(id).count();
            let grant_compute = match task.method() {
                SchedulingMethod::NonPreemptive => 2,
                SchedulingMethod::Preemptive => 2 * task.timing().computation,
            };
            // t_ph + t_a's…
            total += 1 + (n - 1);
            // …and the per-instance lifecycle.
            total += n * (1 + stages as u64 + grant_compute + 1 + 1);
        }
        for (_, m) in self.spec.messages() {
            // grant + transfer per instance of the (equal-period) pair.
            let n = self.instances[m.sender().index()];
            total += 2 * n;
        }
        total
    }

    /// Consumes the task net, returning the bare time Petri net (for
    /// PNML export, for example).
    pub fn into_net(self) -> TimePetriNet {
        self.net
    }
}
