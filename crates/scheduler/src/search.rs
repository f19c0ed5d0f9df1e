//! The depth-first schedule-synthesis search on the packed state kernel.
//!
//! One DFS core, [`Dfs`], runs every search. Its loop fires a candidate
//! of the top frame, then runs the dead, miss and final checks on the
//! successor, then the child step: the child's sleep set and candidates,
//! pushed as a new frame. States are interned in an [`Explorer`] arena
//! and memoized dead in a bitvector [`DeadSet`] over dense [`StateId`]s.
//! Each frame carries its state's enabled set, which the explorer derives
//! from the parent frame's set on every firing, so no step rescans every
//! transition, and the explorer interns each successor by its parent's
//! cached key plus the firing's key change, so no step rehashes a whole
//! state. The frames also carry their firing bounds ([`Carried`], which
//! holds the enabled sets too): the instant each enabled transition was
//! enabled, and per frame `min DUB`, its holders and the urgency-eligible
//! set. The child step derives the
//! child's bounds from its parent's, touching only the transitions whose
//! enabledness the firing changed, and reads the fireable set `FT(s)`
//! with its firing domains, the sleep-set guard's inputs and the
//! candidates off them; no step re-walks every enabled clock. Debug
//! builds check every push against that full walk
//! ([`TimePetriNet::clock_bounds_into`]). Neither walker runs that walk
//! per step: the replay oracle tests each scheduled label with
//! [`TimePetriNet::fireable_domain`] and is checked against the same
//! walk. On the long, nearly straight descent of a feasible search the
//! child step takes two exact fast paths: a label fired first at a
//! frame, after a delay or under an empty sleep set, gets an empty sleep
//! set without the structural rules, and a state with one awake label
//! skips the partial-order rules, which could only keep it. The unit
//! tests check both against the full rules on every push. Frames pool
//! their vectors across pushes, so in the steady state the loop performs
//! **zero heap allocations per explored successor**. A finished search
//! hands its arena, dead set, frames, carried bounds and path to one
//! process-wide spare slot and the next search starts on them, so
//! back-to-back searches do not map and fault fresh memory each time.
//! The original value-typed search is preserved in
//! [`reference`](crate::reference) and the two are equivalence-tested to
//! return byte-identical schedules.

use crate::config::{BranchOrdering, PorLevel, SchedulerConfig};
use crate::error::SynthesizeError;
use crate::schedule::{FeasibleSchedule, ScheduledFiring};
use crate::stats::SearchStats;
use ezrt_compose::{TaskNet, TransitionRole};
use ezrt_spec::TaskId;
use ezrt_tpn::arena::reserve_amortized;
use ezrt_tpn::por::{set_bit, test_bit};
use ezrt_tpn::reachability::Explorer;
use ezrt_tpn::{
    ArenaBuffers, DependencyMatrix, StateId, Time, TimeBound, TimePetriNet, TransitionId,
};
use std::sync::Mutex;
use std::time::Instant;

/// The result of a successful synthesis: the feasible firing schedule and
/// the search statistics (the numbers §5 of the paper reports).
#[derive(Debug, Clone)]
pub struct Synthesis {
    /// The feasible firing schedule (Def. 3.2).
    pub schedule: FeasibleSchedule,
    /// Search counters.
    pub stats: SearchStats,
    /// Whether `schedule` already passed the net-level
    /// [`replay`](crate::replay::replay) oracle. True on the verbatim
    /// warm-start path of [`synthesize_seeded`], whose result *is* a
    /// replay, so callers that oracle-check every result
    /// (`ezrt_core::Project`) do not replay it again.
    pub replayed: bool,
}

/// One DFS frame. Frames are pooled: popping a frame leaves its vectors
/// allocated for the next push at that depth.
#[derive(Default)]
struct Frame {
    state: StateId,
    /// The state's `min DUB`, `None` for `∞` (see [`Carried`]).
    min_dub: Option<Time>,
    /// Where the entries this frame's push logged in [`Carried::undo`]
    /// start.
    undo: usize,
    candidates: Vec<(TransitionId, Time)>,
    next: usize,
    now: Time,
    /// The sleep set this frame's candidates were generated under
    /// (packed transition mask; empty ⇔ nothing asleep).
    sleep: Vec<u64>,
}

/// How a [`Dfs::run`] ended.
enum Exit {
    /// The final marking was reached; the path is the schedule.
    Feasible,
    /// Every frame was exhausted.
    Exhausted,
    /// The `max_states` budget ran out.
    StateLimit,
    /// The `max_time` budget ran out.
    TimeLimit,
}

/// The DFS core: the state arena and dead-state memo, a frame stack over
/// them with its carried firing bounds, plus the path, the EDF keys, the
/// partial-order scratch and the run's counters.
struct Dfs<'a> {
    tasknet: &'a TaskNet,
    config: &'a SchedulerConfig,
    started: Instant,
    explorer: Explorer<'a>,
    dead: DeadSet,
    /// States visited, as the `max_states` budget sees them.
    states: usize,
    frames: Vec<Frame>,
    /// Frames `0..depth` are active; `depth..frames.len()` are pooled
    /// spares.
    depth: usize,
    /// The firings from `s0` to the top frame's state.
    path: Vec<ScheduledFiring>,
    edf: EdfKeys,
    scratch: PorScratch,
    /// The enabled sets and firing bounds of frames `0..depth`.
    carried: Carried,
    /// The fireable set with its firing domains of the state being
    /// pushed, read off `carried`.
    domains: Vec<(TransitionId, Time, TimeBound)>,
    /// The child-sleep staging buffer: computed against the parent frame,
    /// then swapped into the child (both hot-loop allocation-free).
    child_sleep: Vec<u64>,
    /// The latest successor's enabled set, written by [`Explorer::fire`]
    /// and copied into `carried` when the successor is pushed.
    child_enabled: Vec<u64>,
    ticks: u64,
    /// Backtracks, prunes and deadlocks of this core.
    stats: SearchStats,
    missed: MissedTasks,
}

impl<'a> Dfs<'a> {
    /// A search rooted at the net's initial state, on `memory`: `s0`
    /// interned and counted as visited, its frame scanned, its bounds
    /// walked and its candidates generated.
    fn new(
        tasknet: &'a TaskNet,
        config: &'a SchedulerConfig,
        started: Instant,
        memory: Spare,
    ) -> Self {
        let tasks = tasknet.spec().task_count();
        let net = tasknet.net();
        let mut explorer = Explorer::with_buffers(net, memory.arena);
        let s0 = explorer.intern_initial();
        // Recycled frames are stale. A push overwrites every field of the
        // frame it reuses, but the root is never pushed: reset it here.
        let mut frames = memory.frames;
        if frames.is_empty() {
            frames.push(Frame::default());
        }
        let root = &mut frames[0];
        root.state = s0;
        root.undo = 0;
        root.next = 0;
        root.now = 0;
        root.sleep.clear();
        let mut path = memory.path;
        path.clear();
        let mut dfs = Dfs {
            tasknet,
            config,
            started,
            explorer,
            dead: DeadSet::with_buffer(memory.dead),
            states: 1,
            frames,
            depth: 1,
            path,
            edf: EdfKeys::new(tasknet),
            scratch: PorScratch::new(),
            carried: memory.carried,
            domains: Vec::new(),
            child_sleep: Vec::new(),
            child_enabled: Vec::new(),
            ticks: 0,
            stats: SearchStats::default(),
            missed: MissedTasks::new(tasks),
        };
        let root = &mut dfs.frames[0];
        dfs.explorer.enabled_into(s0, &mut dfs.child_enabled);
        root.min_dub = dfs.carried.root(net, &dfs.child_enabled);
        dfs.carried
            .fireable_into(net, 0, 0, root.min_dub, &mut dfs.domains);
        #[cfg(any(test, debug_assertions))]
        assert_carried_matches_walk(
            net,
            dfs.explorer.state(s0),
            &dfs.child_enabled,
            root.min_dub,
            dfs.carried.holders(0),
            &dfs.domains,
        );
        candidates(
            tasknet,
            &dfs.domains,
            config,
            &dfs.edf,
            &root.sleep,
            &mut dfs.scratch,
            &mut root.candidates,
        );
        dfs
    }

    /// Runs the search from the current stack until it ends.
    fn run(&mut self) -> Exit {
        let engine = crate::obs::engine_metrics();
        loop {
            // Budget checks. The time budget is gated on the loop tick,
            // not on states visited: long pruning streaks (dead-set hits,
            // deadline misses) advance the tick every iteration but may
            // not visit any fresh state, and must still hit the check.
            self.ticks += 1;
            if self.ticks.is_multiple_of(crate::obs::DEPTH_SAMPLE_TICKS) {
                engine.frontier_depth.observe(self.depth as u64);
            }
            if self.states > self.config.max_states {
                return Exit::StateLimit;
            }
            if self.ticks.is_multiple_of(4096) && self.started.elapsed() > self.config.max_time {
                return Exit::TimeLimit;
            }
            if self.depth == 0 {
                return Exit::Exhausted;
            }

            let frame = &mut self.frames[self.depth - 1];
            // Frame exhausted: its state is dead; backtrack.
            if frame.next >= frame.candidates.len() {
                self.dead.insert(frame.state);
                self.pop();
                if let Some(firing) = self.path.pop() {
                    self.edf.unapply(firing.role);
                    self.stats.backtracks += 1;
                }
                continue;
            }

            let (transition, delay) = frame.candidates[frame.next];
            frame.next += 1;
            let now = frame.now + delay;
            let (next, _) = self.explorer.fire(
                frame.state,
                self.carried.enabled(self.depth - 1),
                transition,
                delay,
                &mut self.child_enabled,
            );
            if self.dead.contains(next) {
                self.stats.pruned_dead += 1;
                continue;
            }
            self.states += 1;

            // Every frame's state is miss-free, so only a firing into a
            // miss place can mark one.
            let packed = self.explorer.successor();
            if self.tasknet.fired_into_miss(transition, packed) {
                self.stats.pruned_misses += 1;
                for task in self.tasknet.missed_tasks_packed_iter(packed) {
                    self.missed.record(task);
                }
                self.dead.insert(next);
                continue;
            }
            let firing = ScheduledFiring {
                transition,
                role: self.tasknet.role(transition),
                delay,
                at: now,
            };
            if self.tasknet.is_final_packed(packed) {
                self.path.push(firing);
                return Exit::Feasible;
            }

            let fireable = self.push(firing, next);
            if self.frames[self.depth - 1].candidates.is_empty() {
                // Non-final deadlock, or every candidate asleep (the
                // subtree is covered by a commuting sibling order). Either
                // way the state is exhausted: pop it again and memoize it
                // (the reachable TLTS is acyclic, so a sibling-order
                // induction makes the dead mark sound).
                self.pop();
                self.path.pop();
                self.edf.unapply(firing.role);
                if !fireable {
                    self.stats.deadlocks += 1;
                }
                self.dead.insert(next);
            }
        }
    }

    /// The child step: derives the firing bounds and the sleep set of
    /// `next`, reached by `firing` out of the top frame, whose words are
    /// the explorer's last successor, then pushes its frame with its
    /// candidates and extends the path. Returns whether the child's
    /// `FT(s)` was non-empty (see [`candidates`]).
    fn push(&mut self, firing: ScheduledFiring, next: StateId) -> bool {
        let net = self.tasknet.net();
        let parent = &self.frames[self.depth - 1];
        let undo = self.carried.undo.len();
        let min_dub = self.carried.derive(
            net,
            self.depth,
            parent.min_dub,
            (firing.transition, firing.delay),
            firing.at,
            &self.child_enabled,
        );
        self.carried
            .fireable_into(net, self.depth, firing.at, min_dub, &mut self.domains);
        let holders = self.carried.holders(self.depth);
        #[cfg(any(test, debug_assertions))]
        assert_carried_matches_walk(
            net,
            self.explorer.successor(),
            &self.child_enabled,
            min_dub,
            holders,
            &self.domains,
        );
        child_sleep_into(
            self.tasknet,
            self.config,
            &parent.sleep,
            &parent.candidates[..parent.next - 1],
            (firing.transition, firing.delay),
            (min_dub, holders),
            &mut self.child_sleep,
        );
        #[cfg(test)]
        tests::assert_sleep_fast_path_matches(
            self.tasknet,
            self.config,
            &parent.sleep,
            &parent.candidates[..parent.next - 1],
            (firing.transition, firing.delay),
            (min_dub, holders),
            &self.child_sleep,
        );
        #[cfg(test)]
        tests::assert_guard_matches_floor(
            self.tasknet,
            self.config,
            &parent.sleep,
            &parent.candidates[..parent.next - 1],
            (firing.transition, firing.delay),
            self.explorer.successor(),
            &self.child_enabled,
            &self.child_sleep,
        );

        self.edf.apply(firing.role);
        if self.depth == self.frames.len() {
            self.frames.push(Frame::default());
        }
        let frame = &mut self.frames[self.depth];
        frame.state = next;
        frame.min_dub = min_dub;
        frame.undo = undo;
        frame.next = 0;
        frame.now = firing.at;
        std::mem::swap(&mut frame.sleep, &mut self.child_sleep);
        let fireable = candidates(
            self.tasknet,
            &self.domains,
            self.config,
            &self.edf,
            &frame.sleep,
            &mut self.scratch,
            &mut frame.candidates,
        );
        #[cfg(test)]
        tests::assert_label_fast_path_matches(
            self.tasknet,
            &self.domains,
            self.config,
            &self.edf,
            &frame.sleep,
            &frame.candidates,
        );
        self.path.push(firing);
        self.depth += 1;
        fireable
    }

    /// Pops the top frame, restoring the enabling instants its push
    /// overwrote.
    fn pop(&mut self) {
        self.depth -= 1;
        self.carried.restore(self.frames[self.depth].undo);
    }

    /// Warm start: pushes each seeded firing through the child step, as
    /// long as it is an ordinary candidate of the top frame and its
    /// successor is miss-free, moving it to the front of that frame's
    /// branch order. A firing that fails either check ends the prefix and
    /// leaves its frame untouched, so the continuation from there is
    /// exactly the cold search's; replayed frames keep their remaining
    /// candidates in cold order behind the seed, preserving completeness.
    /// Returns the number of firings replayed.
    fn seed(&mut self, seed: &[ScheduledFiring]) -> usize {
        let mut replayed = 0;
        for firing in seed {
            let frame = &mut self.frames[self.depth - 1];
            let label = (firing.transition, firing.delay);
            let Some(pos) = frame.candidates.iter().position(|&c| c == label) else {
                break;
            };
            let (next, _) = self.explorer.fire(
                frame.state,
                self.carried.enabled(self.depth - 1),
                firing.transition,
                firing.delay,
                &mut self.child_enabled,
            );
            if self
                .tasknet
                .fired_into_miss(firing.transition, self.explorer.successor())
            {
                break;
            }
            // The reached state is never final: the verbatim replay that
            // runs first would have accepted this prefix.
            frame.candidates[..=pos].rotate_right(1);
            frame.next = 1;
            let firing = ScheduledFiring {
                transition: firing.transition,
                role: self.tasknet.role(firing.transition),
                delay: firing.delay,
                at: frame.now + firing.delay,
            };
            self.push(firing, next);
            replayed += 1;
            if self.frames[self.depth - 1].candidates.is_empty() {
                // Replayed into a state with no candidates (possible after
                // an edit): the loop backtracks out of it normally.
                break;
            }
        }
        replayed
    }

    /// The run's counters, with the partial-order skips and the arena
    /// and dead-set sizes folded in.
    fn stats(&self) -> SearchStats {
        SearchStats {
            states_visited: self.states,
            dead_states: self.dead.len(),
            dead_set_bytes: self.dead.resident_bytes() + self.explorer.arena().resident_bytes(),
            por_stubborn_skips: self.scratch.stubborn_skips,
            por_sleep_skips: self.scratch.sleep_skips,
            ..self.stats.clone()
        }
    }

    /// The search's memory, for the next search to reuse.
    fn into_spare(self) -> Spare {
        Spare {
            arena: self.explorer.into_buffers(),
            dead: self.dead.bits,
            frames: self.frames,
            carried: self.carried,
            path: self.path,
        }
    }
}

/// The working memory of a finished search: the arena's slab, key cache
/// and probe table, the dead-set bits, the DFS frames with their inner
/// vectors, the carried firing bounds, and the path. Contents are stale;
/// [`Dfs::new`] resets what it reuses.
#[derive(Default)]
struct Spare {
    arena: ArenaBuffers,
    dead: Vec<u64>,
    frames: Vec<Frame>,
    carried: Carried,
    path: Vec<ScheduledFiring>,
}

/// The one process-wide spare: the memory of a finished search, kept for
/// the next one instead of being returned to the OS. One slot for the
/// whole process, not one per thread, so a pool of service workers keeps
/// at most one idle search's memory.
static SPARE: Mutex<Option<Spare>> = Mutex::new(None);

impl Spare {
    /// Takes the idle spare. Returns empty buffers — the search then
    /// allocates fresh — when there is none or the slot is contended or
    /// poisoned; it never waits and never panics.
    fn take() -> Spare {
        let Ok(mut slot) = SPARE.try_lock() else {
            return Spare::default();
        };
        let spare = slot.take();
        if spare.is_some() {
            crate::obs::engine_metrics().spare_bytes.set(0);
        }
        spare.unwrap_or_default()
    }

    /// Offers this memory to the slot, which keeps the larger of it and
    /// the spare it holds. The other one is freed after the lock is
    /// released; so is this one when the slot is contended or poisoned.
    fn give_back(self) {
        let bytes = self.bytes();
        let Ok(mut slot) = SPARE.try_lock() else {
            return;
        };
        if slot.as_ref().is_some_and(|held| held.bytes() >= bytes) {
            return;
        }
        let _freed = slot.replace(self);
        crate::obs::engine_metrics().spare_bytes.set(bytes as u64);
        drop(slot);
    }

    /// The bytes the buffers hold allocated.
    fn bytes(&self) -> usize {
        let frames: usize = self
            .frames
            .iter()
            .map(|frame| {
                frame.sleep.capacity() * std::mem::size_of::<u64>()
                    + frame.candidates.capacity() * std::mem::size_of::<(TransitionId, Time)>()
            })
            .sum();
        self.arena.capacity_bytes()
            + self.dead.capacity() * std::mem::size_of::<u64>()
            + self.frames.capacity() * std::mem::size_of::<Frame>()
            + frames
            + self.carried.bytes()
            + self.path.capacity() * std::mem::size_of::<ScheduledFiring>()
    }
}

/// A running search that hands its memory to the spare slot when it is
/// dropped: after a verdict, a budget abort, or a panic unwinding
/// through the search.
struct Recycled<'a>(Option<Dfs<'a>>);

impl Drop for Recycled<'_> {
    fn drop(&mut self) {
        if let Some(dfs) = self.0.take() {
            dfs.into_spare().give_back();
        }
    }
}

/// The firing bounds of the active frames, carried from parent to child
/// instead of re-walked for every pushed state: what the fireable set
/// `FT(s)` and the firing domains `FD_s(t)` (paper Def. 3.1) are read off.
///
/// A transition's clock `c(t)` advances with time while `t` stays
/// enabled, so the instant it was enabled, `now − c(t)`, stays fixed, and
/// so do its earliest and latest firing times in absolute time,
/// `E(t) = now − c(t) + EFT(t)` and `L(t) = now − c(t) + LFT(t)`. The
/// carry keeps that instant per transition: `DLB(t) = EFT(t) ∸ c(t)` and
/// `DUB(t) = LFT(t) − c(t)` follow from it exactly, where `E` and `L`
/// themselves could overflow [`Time`] for bounds close to its maximum. An
/// infinite `LFT` is read from the net's kernel record, never encoded as a
/// value. Per frame it keeps `min DUB` ([`Frame::min_dub`]) and, in one
/// flat buffer indexed by depth, the frame's enabled set, the mask of the
/// transitions holding `min DUB` and the mask of the urgency-eligible
/// ones: `DLB ≤ min DUB`, i.e. `E ≤ min L`, which is the condition of
/// `FT(s)` because every reachable clock stays at or below its `LFT`.
///
/// [`derive`](Self::derive) sets up a child's bounds in time proportional
/// to the transitions whose enabledness the firing changed: persistent
/// transitions keep their instant, so while `min L` stays put they keep
/// their holding and their eligibility. The enabled set is walked for the
/// new `min DUB` only when the last holder leaves and no entering
/// transition reaches the old minimum; when `min L` moves, only the
/// transitions whose eligibility the move can flip are re-tested. Every
/// instant a push overwrites is logged in `undo` and restored when the
/// frame pops, so the buffers serve the whole stack.
#[derive(Default)]
struct Carried {
    /// Per transition: the instant it was last enabled. Meaningful for
    /// the transitions enabled in the top frame, and, once `undo` is
    /// replayed, in every frame below it.
    since: Vec<Time>,
    /// `(t, since[t])` for every instant the pushes of the active frames
    /// overwrote; a frame's entries start at its [`Frame::undo`].
    undo: Vec<(TransitionId, Time)>,
    /// Per depth, `3 · words` words: the frame's enabled set `ET(m)`,
    /// the holders of its `min DUB`, then its urgency-eligible
    /// transitions.
    masks: Vec<u64>,
    /// The transitions with a finite `LFT`.
    bounded: Vec<u64>,
    /// The words of one transition mask.
    words: usize,
}

impl Carried {
    /// Resets the carry for a search of `net` and walks the bounds of the
    /// root frame, whose state's enabled set is `enabled`: every clock is
    /// zero at time 0. Returns the root's `min DUB`.
    fn root(&mut self, net: &TimePetriNet, enabled: &[u64]) -> Option<Time> {
        self.words = enabled.len();
        self.since.clear();
        self.since.resize(net.transition_count(), 0);
        self.undo.clear();
        self.masks.clear();
        self.masks.extend_from_slice(enabled);
        self.masks.resize(3 * self.words, 0);
        self.bounded.clear();
        self.bounded.resize(self.words, 0);
        for k in 0..net.transition_count() {
            let t = TransitionId::from_index(k);
            if net.firing_bounds(t).1.is_some() {
                set_bit(&mut self.bounded, k);
            }
        }
        let (holders, eligible) = self.masks[self.words..].split_at_mut(self.words);
        let min_dub = lowest(net, &self.since, 0, (enabled, &self.bounded), holders);
        for (w, &word) in enabled.iter().enumerate() {
            retest(net, &self.since, 0, min_dub, w, word, &mut eligible[w]);
        }
        min_dub
    }

    /// Sets up the frame at `depth`, the child reached by firing `t`
    /// after `delay` out of the frame below, whose `min DUB` is
    /// `parent_min`, at time `now`, with enabled set `enabled`: stores the
    /// set and derives the child's bounds from the parent's. Logs the
    /// instants it overwrites and returns the child's `min DUB`.
    fn derive(
        &mut self,
        net: &TimePetriNet,
        depth: usize,
        parent_min: Option<Time>,
        (t, delay): (TransitionId, Time),
        now: Time,
        enabled: &[u64],
    ) -> Option<Time> {
        let words = self.words;
        let end = (depth + 1) * 3 * words;
        if self.masks.len() < end {
            self.masks.resize(end, 0);
        }
        let (parent, child) = self.masks[(depth - 1) * 3 * words..end].split_at_mut(3 * words);
        let (parent_enabled, parent) = parent.split_at(words);
        let (parent_holders, parent_eligible) = parent.split_at(words);
        let (child_enabled, child) = child.split_at_mut(words);
        let (holders, eligible) = child.split_at_mut(words);
        child_enabled.copy_from_slice(enabled);
        // Persistent: enabled in both states, other than `t`.
        let persistent = |w: usize| {
            let fired = if w == t.index() / 64 {
                1u64 << (t.index() % 64)
            } else {
                0
            };
            parent_enabled[w] & enabled[w] & !fired
        };
        let mut held = false;
        for w in 0..words {
            holders[w] = parent_holders[w] & persistent(w);
            eligible[w] = parent_eligible[w] & persistent(w);
            held |= holders[w] != 0;
        }
        // `min L` as the parent had it, on the child's clock. With a
        // holder left it stands until an entering transition undercuts
        // it. With none left, every persistent transition's `DUB` lies
        // above it: entering ones that reach it settle the minimum, and
        // otherwise only a walk finds it.
        let carried = parent_min.map(|min| min - delay);
        let mut min_dub = if held { carried } else { None };
        // Entering: newly enabled, or `t` itself, at clock 0.
        for w in 0..words {
            let mut entering = enabled[w] & !persistent(w);
            while entering != 0 {
                let k = w * 64 + entering.trailing_zeros() as usize;
                entering &= entering - 1;
                self.undo.push((TransitionId::from_index(k), self.since[k]));
                self.since[k] = now;
                let Some(lft) = net.firing_bounds(TransitionId::from_index(k)).1 else {
                    continue;
                };
                if min_dub.is_none_or(|min| lft < min) {
                    min_dub = Some(lft);
                    holders.fill(0);
                }
                if min_dub == Some(lft) {
                    holders[w] |= 1u64 << (k % 64);
                }
            }
        }
        if !held && below(carried, min_dub) {
            min_dub = lowest(net, &self.since, now, (enabled, &self.bounded), holders);
        }
        // Eligibility: the persistent transitions keep theirs while
        // `min L` stays; when it falls, only eligible ones can drop out,
        // and when it rises, only the others can join. Entering ones are
        // always tested.
        let fell = below(min_dub, carried);
        let rose = below(carried, min_dub);
        for w in 0..words {
            let mut test = enabled[w] & !persistent(w);
            if fell {
                test |= eligible[w];
            } else if rose {
                test |= persistent(w) & !eligible[w];
            }
            retest(net, &self.since, now, min_dub, w, test, &mut eligible[w]);
        }
        min_dub
    }

    /// Writes the fireable set `FT(s)` of the frame at `depth`, at time
    /// `now` with `min DUB` `min_dub`, into `out` with its firing domains:
    /// the eligible set cut to its minimal (= highest) priority class,
    /// each member as `(t, DLB(t), min DUB)`, ascending — what
    /// [`TimePetriNet::fireable_domains_into`] writes from the full walk.
    fn fireable_into(
        &self,
        net: &TimePetriNet,
        depth: usize,
        now: Time,
        min_dub: Option<Time>,
        out: &mut Vec<(TransitionId, Time, TimeBound)>,
    ) {
        out.clear();
        let eligible = &self.masks[(3 * depth + 2) * self.words..(3 * depth + 3) * self.words];
        let upper = min_dub.map_or(TimeBound::Infinite, TimeBound::Finite);
        let mut best = u32::MAX;
        for_each_member(eligible, |t| {
            let (eft, _, priority) = net.firing_bounds(t);
            if priority < best {
                best = priority;
                out.clear();
            }
            if priority == best {
                out.push((t, eft.saturating_sub(now - self.since[t.index()]), upper));
            }
        });
    }

    /// The enabled set `ET(m)` of the frame at `depth`.
    fn enabled(&self, depth: usize) -> &[u64] {
        &self.masks[3 * depth * self.words..(3 * depth + 1) * self.words]
    }

    /// The holders of `min DUB` of the frame at `depth`; all zero when it
    /// is `∞`.
    fn holders(&self, depth: usize) -> &[u64] {
        &self.masks[(3 * depth + 1) * self.words..(3 * depth + 2) * self.words]
    }

    /// Pops a frame whose log starts at `start`: restores the instants
    /// its push overwrote.
    fn restore(&mut self, start: usize) {
        for (t, since) in self.undo.drain(start..) {
            self.since[t.index()] = since;
        }
    }

    /// The bytes the buffers hold allocated.
    fn bytes(&self) -> usize {
        (self.since.capacity() + self.masks.capacity() + self.bounded.capacity())
            * std::mem::size_of::<u64>()
            + self.undo.capacity() * std::mem::size_of::<(TransitionId, Time)>()
    }
}

/// Calls `f` on each member of a transition mask, ascending.
#[inline]
fn for_each_member(mask: &[u64], mut f: impl FnMut(TransitionId)) {
    for (w, &word) in mask.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            f(TransitionId::from_index(
                w * 64 + bits.trailing_zeros() as usize,
            ));
            bits &= bits - 1;
        }
    }
}

/// `min DUB` over `enabled` at time `now`, for enabling instants `since`,
/// with its holders into `holders`: `None` and no holder when nothing
/// enabled has a finite `LFT`.
fn lowest(
    net: &TimePetriNet,
    since: &[Time],
    now: Time,
    (enabled, bounded): (&[u64], &[u64]),
    holders: &mut [u64],
) -> Option<Time> {
    // Two branch-free passes over the members with a finite `LFT`: the
    // minimum, then its holders.
    let dub = |t: TransitionId| {
        let lft = net.firing_bounds(t).1.unwrap_or(Time::MAX);
        lft.saturating_sub(now - since[t.index()])
    };
    let mut min_dub = Time::MAX;
    let mut finite = false;
    for (w, holders) in holders.iter_mut().enumerate() {
        let mut bits = enabled[w] & bounded[w];
        finite |= bits != 0;
        *holders = bits;
        while bits != 0 {
            min_dub = min_dub.min(dub(TransitionId::from_index(
                w * 64 + bits.trailing_zeros() as usize,
            )));
            bits &= bits - 1;
        }
    }
    for (w, holders) in holders.iter_mut().enumerate() {
        let mut bits = *holders;
        while bits != 0 {
            let k = bits.trailing_zeros();
            bits &= bits - 1;
            let other = dub(TransitionId::from_index(w * 64 + k as usize)) != min_dub;
            *holders &= !(u64::from(other) << k);
        }
    }
    finite.then_some(min_dub)
}

/// Whether the bound `a` lies below `b`, `None` standing for `∞`.
fn below(a: Option<Time>, b: Option<Time>) -> bool {
    a.is_some_and(|a| b.is_none_or(|b| a < b))
}

/// Re-tests the transitions of `test`, the members of word `w` of a
/// mask, for urgency eligibility at time `now`, for enabling instants
/// `since`: sets each one's bit of `eligible` iff `DLB ≤ min DUB` (always
/// when `min DUB` is `∞`), and leaves the other bits as they are.
fn retest(
    net: &TimePetriNet,
    since: &[Time],
    now: Time,
    min_dub: Option<Time>,
    w: usize,
    mut test: u64,
    eligible: &mut u64,
) {
    let ceiling = min_dub.unwrap_or(Time::MAX);
    while test != 0 {
        let bit = test.trailing_zeros();
        test &= test - 1;
        let k = w * 64 + bit as usize;
        let dlb = net
            .firing_bounds(TransitionId::from_index(k))
            .0
            .saturating_sub(now - since[k]);
        *eligible = *eligible & !(1u64 << bit) | u64::from(dlb <= ceiling) << bit;
    }
}

/// Checks the bounds carried to a state, whose words are `state` and
/// whose enabled set is `enabled`, against the full walk of its clocks
/// ([`TimePetriNet::clock_bounds_into`], then
/// [`TimePetriNet::fireable_domains_into`]). Debug builds and the unit
/// tests run it on every push.
#[cfg(any(test, debug_assertions))]
fn assert_carried_matches_walk(
    net: &TimePetriNet,
    state: &[u32],
    enabled: &[u64],
    min_dub: Option<Time>,
    holders: &[u64],
    domains: &[(TransitionId, Time, TimeBound)],
) {
    let (mut bounds, mut walked) = (ezrt_tpn::ClockBounds::default(), Vec::new());
    net.clock_bounds_into(state, enabled, &mut bounds);
    net.fireable_domains_into(&bounds, &mut walked);
    assert_eq!(
        min_dub.map_or(TimeBound::Infinite, TimeBound::Finite),
        bounds.min_dub(),
        "carried min DUB drifted from the walk"
    );
    assert_eq!(
        holders,
        bounds.holders(),
        "carried min DUB holders drifted from the walk"
    );
    assert_eq!(
        domains, walked,
        "carried firing domains drifted from the walk"
    );
    #[cfg(test)]
    tests::CARRIED_CHECKS.with(|checks| checks.set(checks.get() + 1));
}

/// Reusable per-search scratch for the partial-order machinery: packed
/// bitmask buffers for the fireable set and the stubborn closure (hoisted
/// out of the per-state hot path), plus the reduction counters the
/// buffers' owner accumulates.
struct PorScratch {
    fireable: Vec<u64>,
    closure: Vec<u64>,
    /// Candidates dropped by stubborn-set reduction.
    stubborn_skips: usize,
    /// Candidates dropped because they were in a frame's sleep set.
    sleep_skips: usize,
}

impl PorScratch {
    fn new() -> Self {
        PorScratch {
            fireable: Vec::new(),
            closure: Vec::new(),
            stubborn_skips: 0,
            sleep_skips: 0,
        }
    }
}

/// A dead-state index over dense [`StateId`]s: one bit per interned state.
#[derive(Debug, Default)]
struct DeadSet {
    bits: Vec<u64>,
    /// The capacity `bits` would have in a fresh set (see
    /// [`reserve_amortized`]); a recycled buffer may hold more.
    reserved: usize,
    len: usize,
}

impl DeadSet {
    /// An empty set that reuses `bits`' allocation.
    fn with_buffer(mut bits: Vec<u64>) -> Self {
        bits.clear();
        DeadSet {
            bits,
            reserved: 0,
            len: 0,
        }
    }

    fn insert(&mut self, id: StateId) {
        let (word, bit) = (id.index() / 64, id.index() % 64);
        if word >= self.bits.len() {
            // Geometric growth: out-of-range inserts arrive in id order
            // almost always, so per-word `resize(word + 1)` would be a
            // reallocation per 64 states; doubling keeps it amortized O(1)
            // and also handles sparse high-id inserts gracefully.
            let grown = (word + 1).max(self.bits.len() * 2);
            reserve_amortized(&mut self.bits, &mut self.reserved, grown);
            self.bits.resize(grown, 0);
        }
        let mask = 1u64 << bit;
        if self.bits[word] & mask == 0 {
            self.bits[word] |= mask;
            self.len += 1;
        }
    }

    fn contains(&self, id: StateId) -> bool {
        let (word, bit) = (id.index() / 64, id.index() % 64);
        self.bits.get(word).is_some_and(|w| w & (1u64 << bit) != 0)
    }

    fn len(&self) -> usize {
        self.len
    }

    /// The bytes a fresh set reserves for the same inserts; a recycled
    /// buffer's extra capacity is not counted.
    fn resident_bytes(&self) -> usize {
        self.reserved * std::mem::size_of::<u64>()
    }
}

/// Dense per-task deadline-miss flags: the diagnostics the infeasibility
/// report needs, tracked without any structural hashing on the hot path
/// (the predecessor was a `HashSet<String>` insert per pruned state).
#[derive(Debug, Clone)]
struct MissedTasks {
    flags: Vec<bool>,
}

impl MissedTasks {
    fn new(tasks: usize) -> Self {
        MissedTasks {
            flags: vec![false; tasks],
        }
    }

    fn record(&mut self, task: TaskId) {
        self.flags[task.index()] = true;
    }

    /// The missed task names, sorted — the shape
    /// [`SynthesizeError::Infeasible`] reports.
    fn sorted_names(&self, tasknet: &TaskNet) -> Vec<String> {
        let mut names: Vec<String> = self
            .flags
            .iter()
            .enumerate()
            .filter(|&(_, &missed)| missed)
            .map(|(i, _)| tasknet.spec().task(TaskId::from_index(i)).name().to_owned())
            .collect();
        names.sort();
        names
    }
}

/// The keys of the EDF branch ordering (see [`sort_labels`]): per
/// transition, what the absolute deadline of the task instance it
/// advances is computed from, tabulated once per search, and the instance
/// counters the DFS maintains along its path.
struct EdfKeys {
    keys: Vec<EdfKey>,
    /// Per task, the releases on the path, then per task the deadline
    /// checks; one last slot, always 0, for transitions of no task.
    instances: Vec<u64>,
    tasks: usize,
}

/// One transition's entry in [`EdfKeys`]: its instance's deadline is
/// `first_deadline + instances[slot] · period`.
#[derive(Clone, Copy)]
struct EdfKey {
    /// The counter of the instances its task has released (release
    /// transitions) or completed (every other task transition).
    slot: usize,
    /// `phase + deadline` of its task; 0 for transitions of no task,
    /// which are bookkeeping and sort first.
    first_deadline: Time,
    period: Time,
    /// Among equal deadlines, progress on started work first: compute
    /// before grant before release before the rest.
    rank: u8,
}

impl EdfKeys {
    fn new(tasknet: &TaskNet) -> Self {
        let tasks = tasknet.spec().task_count();
        let keys = (0..tasknet.net().transition_count())
            .map(|k| {
                let role = tasknet.role(TransitionId::from_index(k));
                let rank = match role {
                    TransitionRole::Compute(_) => 0,
                    TransitionRole::Grant(_) => 1,
                    TransitionRole::Release(_) => 2,
                    _ => 3,
                };
                let Some(task) = role.task() else {
                    return EdfKey {
                        slot: 2 * tasks,
                        first_deadline: 0,
                        period: 0,
                        rank,
                    };
                };
                let timing = tasknet.spec().task(task).timing();
                EdfKey {
                    slot: match role {
                        TransitionRole::Release(_) => task.index(),
                        _ => tasks + task.index(),
                    },
                    first_deadline: timing.phase + timing.deadline,
                    period: timing.period,
                    rank,
                }
            })
            .collect();
        EdfKeys {
            keys,
            instances: vec![0; 2 * tasks + 1],
            tasks,
        }
    }

    /// The counter a firing of `role` advances, if any.
    fn counter(&self, role: TransitionRole) -> Option<usize> {
        match role {
            TransitionRole::Release(task) => Some(task.index()),
            TransitionRole::DeadlineCheck(task) => Some(self.tasks + task.index()),
            _ => None,
        }
    }

    fn apply(&mut self, role: TransitionRole) {
        if let Some(slot) = self.counter(role) {
            self.instances[slot] += 1;
        }
    }

    fn unapply(&mut self, role: TransitionRole) {
        if let Some(slot) = self.counter(role) {
            self.instances[slot] -= 1;
        }
    }

    /// The EDF sort key of the label `(t, q)`: delay, then the deadline of
    /// the instance `t` advances, then the role rank, then the index, so
    /// no two labels tie.
    fn key(&self, (t, q): (TransitionId, Time)) -> (Time, Time, u8, usize) {
        let key = &self.keys[t.index()];
        let deadline = key.first_deadline + self.instances[key.slot] * key.period;
        (q, deadline, key.rank, t.index())
    }
}

/// Synthesizes a pre-runtime schedule for the translated net by
/// depth-first search over its TLTS (paper §4.4.1).
///
/// The search fires only legal labels (members of `FT(s)` with delays in
/// `FD_s(t)`), prunes states marking a deadline-miss place, memoizes
/// exhausted (dead) states, and stops as soon as the desired final
/// marking `MF` is reached.
///
/// # Errors
///
/// * [`SynthesizeError::Infeasible`] — the reachable space was exhausted;
/// * [`SynthesizeError::StateLimitExceeded`] /
///   [`SynthesizeError::TimeLimitExceeded`] — a budget ran out first.
///
/// # Examples
///
/// ```
/// use ezrt_compose::translate;
/// use ezrt_scheduler::{synthesize, SchedulerConfig};
/// use ezrt_spec::corpus::figure3_spec;
///
/// # fn main() -> Result<(), ezrt_scheduler::SynthesizeError> {
/// let synthesis = synthesize(&translate(&figure3_spec()), &SchedulerConfig::default())?;
/// assert!(synthesis.schedule.is_feasible());
/// # Ok(())
/// # }
/// ```
pub fn synthesize(
    tasknet: &TaskNet,
    config: &SchedulerConfig,
) -> Result<Synthesis, SynthesizeError> {
    synthesize_seeded(tasknet, config, &[])
}

/// Forwards to [`synthesize`]: every search is sequential, whatever
/// [`SchedulerConfig::parallelism`] says. The only reader is
/// `perfbench/src/layers.rs::parallel_gate`; this shim goes when that
/// gate's rows are retired.
#[doc(hidden)]
pub fn synthesize_parallel(
    tasknet: &TaskNet,
    config: &SchedulerConfig,
) -> Result<Synthesis, SynthesizeError> {
    synthesize(tasknet, config)
}

/// [`synthesize`] warm-started from a prior schedule's legal prefix.
///
/// The seed is first replayed verbatim through the net-level
/// [`replay`](crate::replay::replay) oracle — raw `FT(s)`/`FD_s(t)`
/// legality, miss-freedom, stop at the final marking — and when the run
/// reaches `MF` (an unchanged or loosened spec) that replay *is* the
/// result: one linear pass, no DFS setup, `incr_replayed` firings, zero
/// visited states and [`Synthesis::replayed`] set. Otherwise the seeded
/// DFS takes over: each seeded firing is accepted only if it is an
/// ordinary member of the current frame's candidate list — the same
/// `FT(s)`/`FD_s(t)` expansion, partial-order reduction and delay-mode
/// filtering a cold search applies — and its successor is re-checked for
/// deadline misses. Accepted firings are moved to the *front* of their
/// frame's branch order and the DFS resumes from the replayed frontier;
/// the rest of each frame is left exactly as a cold search would order
/// it. Seeding therefore only permutes branch order at the replayed
/// frames: the search still covers the same space, so `Infeasible` and
/// budget verdicts remain sound, and a fully rejected seed
/// (`incr_replayed == 0`) runs byte-identically to [`synthesize`].
///
/// On seeded runs [`SearchStats::states_visited`] counts only states the
/// search generated *beyond* the replayed prefix (zero when the seed
/// replays to the final marking), and the `max_states` budget applies to
/// those fresh states.
///
/// # Errors
///
/// The same verdicts as [`synthesize`]: [`SynthesizeError::Infeasible`]
/// or a budget error.
pub fn synthesize_seeded(
    tasknet: &TaskNet,
    config: &SchedulerConfig,
    seed: &[ScheduledFiring],
) -> Result<Synthesis, SynthesizeError> {
    let _span = ezrt_obs::span(if seed.is_empty() {
        "search"
    } else {
        "seeded-search"
    });
    let result = synthesize_local(tasknet, config, seed);
    match &result {
        Ok(synthesis) => crate::obs::record_search(&synthesis.stats),
        Err(error) => crate::obs::record_search(error.stats()),
    }
    result
}

fn synthesize_local(
    tasknet: &TaskNet,
    config: &SchedulerConfig,
    seed: &[ScheduledFiring],
) -> Result<Synthesis, SynthesizeError> {
    let started = Instant::now();

    // Fast path: when the prior schedule still runs through verbatim —
    // the overwhelmingly common case in an edit loop (unchanged spec, or
    // a loosened constraint) — the replay settles it in one linear pass
    // and the DFS machinery is never set up. Any `FT`/`FD`-legal
    // miss-free run to `MF` is a feasible schedule by Def. 3.2: branch
    // ordering and partial-order filters only shape *search* order.
    if !seed.is_empty() {
        if let Ok(report) = crate::replay::replay(tasknet, seed) {
            let mut at = 0;
            let path = seed[..report.firings]
                .iter()
                .map(|firing| {
                    at += firing.delay;
                    ScheduledFiring {
                        role: tasknet.role(firing.transition),
                        at,
                        ..*firing
                    }
                })
                .collect();
            let stats = SearchStats {
                minimum_firings: tasknet.minimum_firing_count(),
                incr_seed_hits: 1,
                incr_replayed: report.firings,
                schedule_length: report.firings,
                elapsed: started.elapsed(),
                ..SearchStats::default()
            };
            return Ok(Synthesis {
                schedule: FeasibleSchedule::new(path),
                stats,
                replayed: true,
            });
        }
    }

    search_on(tasknet, config, seed, started, Spare::take())
}

/// The DFS, cold or seeded, on `memory`. The search's memory goes to the
/// spare slot when it ends, whichever way.
fn search_on(
    tasknet: &TaskNet,
    config: &SchedulerConfig,
    seed: &[ScheduledFiring],
    started: Instant,
    memory: Spare,
) -> Result<Synthesis, SynthesizeError> {
    let mut search = Recycled(Some(Dfs::new(tasknet, config, started, memory)));
    let dfs = search.0.as_mut().expect("taken only on drop");
    let replayed = dfs.seed(seed);
    if replayed > 0 {
        dfs.stats.incr_seed_hits = 1;
        dfs.stats.incr_replayed = replayed;
        // From here on, count only states the search adds on top of the
        // replayed prefix.
        dfs.states = 0;
    }

    let exit = dfs.run();
    let mut stats = Box::new(SearchStats {
        minimum_firings: tasknet.minimum_firing_count(),
        elapsed: started.elapsed(),
        ..dfs.stats()
    });
    match exit {
        Exit::Feasible => {
            stats.schedule_length = dfs.path.len();
            Ok(Synthesis {
                // A copy: the path's buffer stays with the search memory.
                schedule: FeasibleSchedule::new(dfs.path.clone()),
                stats: *stats,
                replayed: false,
            })
        }
        Exit::Exhausted => Err(SynthesizeError::Infeasible {
            stats,
            missed_tasks: dfs.missed.sorted_names(tasknet),
        }),
        Exit::StateLimit => Err(SynthesizeError::StateLimitExceeded { stats }),
        Exit::TimeLimit => Err(SynthesizeError::TimeLimitExceeded { stats }),
    }
}

/// Generates the ordered candidate labels of the state whose fireable set
/// `FT(s)` with its firing domains is `domains` into the caller's
/// reusable buffer: `FT(s)` expanded to `(t, q)` pairs per the delay
/// mode, filtered by the frame's sleep set, reduced by the configured
/// partial-order rule ([`reduce`], skipped when at most one label is
/// awake), and sorted by the branch ordering.
///
/// Returns whether the raw fireable set `FT(s)` was non-empty. No
/// candidates from a non-empty `FT(s)` means every candidate was asleep:
/// the subtree is covered by a commuting sibling order, and the state is
/// exhausted *without* being a deadlock.
#[allow(clippy::too_many_arguments)]
fn candidates(
    tasknet: &TaskNet,
    domains: &[(TransitionId, Time, TimeBound)],
    config: &SchedulerConfig,
    edf: &EdfKeys,
    sleep: &[u64],
    scratch: &mut PorScratch,
    labels: &mut Vec<(TransitionId, Time)>,
) -> bool {
    labels.clear();
    if domains.is_empty() {
        return false;
    }

    ezrt_tpn::reachability::expand_delay_labels(config.delay_mode, domains, labels);
    if config.por == PorLevel::Off {
        sort_labels(config, edf, labels);
        return true;
    }

    // Sleep filtering: a sleeping candidate's delay-0 label replays an
    // interleaving an earlier sibling order of some ancestor frame
    // already covers — skip it outright. Only the delay-0 label is
    // covered (the coverage is pinned to this instant), so later-delay
    // labels of the same transition stay.
    if !sleep.is_empty() {
        let before = labels.len();
        labels.retain(|&(t, q)| q != 0 || !test_bit(sleep, t.index()));
        scratch.sleep_skips += before - labels.len();
    }
    // At most one label left: the rules below can only keep it, and skip
    // nothing.
    if labels.len() > 1 {
        reduce(tasknet, domains, config, edf, scratch, labels);
    }
    true
}

/// The partial-order rules of [`candidates`] on the `labels` left awake,
/// at least one, of the fireable set `domains`: cuts them and puts them
/// in branch order.
fn reduce(
    tasknet: &TaskNet,
    domains: &[(TransitionId, Time, TimeBound)],
    config: &SchedulerConfig,
    edf: &EdfKeys,
    scratch: &mut PorScratch,
    labels: &mut Vec<(TransitionId, Time)>,
) {
    // Partial-order reduction on bookkeeping classes (forced [0,0] or
    // exact timed sources; all members share one delay). Conflict-free
    // classes collapse to the single earliest candidate — firing order
    // cannot affect reachable schedules. A partially conflicting class is
    // cut to a dependency-closed stubborn subset.
    // FT(s) is a single priority class by construction (min-priority
    // retention), so one memoized bit test classifies the whole frame.
    if tasknet.is_bookkeeping_transition(domains[0].0) {
        let deps = tasknet.deps();
        let words = deps.words_per_row();
        scratch.fireable.clear();
        scratch.fireable.resize(words, 0);
        for &(t, _) in labels.iter() {
            set_bit(&mut scratch.fireable, t.index());
        }
        // Word-AND against the conflict rows replaces the predecessor's
        // per-state O(n²) pre-set overlap scan (conflict diagonals are
        // clear, so a row can be tested against the whole live mask).
        let conflict_free = labels.iter().all(|&(t, _)| {
            deps.conflict_row(t)
                .iter()
                .zip(&scratch.fireable)
                .all(|(row, live)| row & live == 0)
        });
        if conflict_free {
            let best = labels
                .iter()
                .copied()
                .min_by_key(|&(t, q)| (q, t.index()))
                .expect("labels is non-empty");
            scratch.stubborn_skips += labels.len() - 1;
            labels.clear();
            labels.push(best);
            return;
        }
        sort_labels(config, edf, labels);
        // Stubborn closure seeded from the first-explored candidate: add
        // every candidate dependent on a member until fixpoint. Candidates
        // outside the closure are independent of every member, so their
        // subtrees commute past the whole set and are reached through it —
        // dropping them here loses nothing. `retain` keeps sorted order,
        // so the first candidate stays first.
        scratch.closure.clear();
        scratch.closure.resize(words, 0);
        set_bit(&mut scratch.closure, labels[0].0.index());
        loop {
            let mut grew = false;
            for &(t, _) in labels.iter() {
                if !test_bit(&scratch.closure, t.index())
                    && deps
                        .dep_row(t)
                        .iter()
                        .zip(&scratch.closure)
                        .any(|(row, member)| row & member != 0)
                {
                    set_bit(&mut scratch.closure, t.index());
                    grew = true;
                }
            }
            if !grew {
                break;
            }
        }
        let before = labels.len();
        labels.retain(|&(t, _)| test_bit(&scratch.closure, t.index()));
        scratch.stubborn_skips += before - labels.len();
        return;
    }

    sort_labels(config, edf, labels);
}

/// Sorts candidate labels by the configured branch ordering. Both keys
/// end in the transition index and labels are distinct, so an unstable
/// sort gives the one order.
fn sort_labels(config: &SchedulerConfig, edf: &EdfKeys, labels: &mut [(TransitionId, Time)]) {
    match config.ordering {
        BranchOrdering::Fifo => labels.sort_unstable_by_key(|&(t, q)| (q, t.index())),
        BranchOrdering::Edf => labels.sort_unstable_by_key(|&label| edf.key(label)),
    }
}

/// Computes the sleep set of the child reached by firing the label
/// `fired` out of a frame, into `out` (cleared and resized to the matrix
/// row width). Applies at the stubborn level only; below it the sleep
/// set is always empty. `floor` is the child's `min DUB` (`None` for `∞`)
/// and the mask of its holders.
///
/// A sleep entry `b` means: *"firing `b` next, at this exact instant, is
/// covered by an earlier sibling order of some ancestor frame"*. Three
/// rules keep that claim true in a timed system with priorities:
///
/// * **Equal-delay additions** — an earlier sibling label `(b, q)` joins
///   the child's sleep only when `q` equals the fired delay: both orders
///   then fire `b` and the fired transition at the same absolute
///   instants, which is what makes the two interleavings converge.
/// * **Zero-delay persistence** — the parent's entries survive only when
///   the fired delay is 0. Every entry is pending at delay 0 and its
///   coverage is pinned to one absolute instant; once time advances,
///   firing it would no longer replay the covered interleaving.
/// * **Cascade-dependency invalidation** — everything in the fired
///   transition's *sleep-dependency* row is removed: not just direct
///   structural dependents, but (via
///   [`DependencyMatrix::build_sleep_closure`]) anything whose urgent
///   `[0, 0]` bookkeeping cascade interferes with the fired transition's
///   cascade. The reordering argument swaps the sleeping transition past
///   the fired one *and* past the bookkeeping firings it forces, so
///   interference at cascade level breaks the swap. `fired` itself is
///   removed by the diagonal.
/// * **Urgency-floor guard** ([`urgency_guard`]) — a surviving entry `b`
///   is dropped unless the child's minimum dynamic upper bound is still
///   held by some enabled transition other than `b` and `b`'s conflict
///   partners. The coverage argument replays the covered segment in a
///   mirror state where `b` has already fired; if pending-`b` was the
///   sole holder of `min DUB`, the mirror's urgency floor rises and
///   admits a higher-priority class that evicts the segment's firings
///   from `FT(s)` — a global coupling through the urgency filter that no
///   structural relation sees, so it is re-checked dynamically against
///   every child state.
///
/// When [`sleeps_nothing`] holds, the structural rules add nothing and
/// the guard has nothing to test, so the set is empty at once.
///
/// [`DependencyMatrix::build_sleep_closure`]: ezrt_tpn::por::DependencyMatrix::build_sleep_closure
fn child_sleep_into(
    tasknet: &TaskNet,
    config: &SchedulerConfig,
    parent_sleep: &[u64],
    earlier: &[(TransitionId, Time)],
    fired: (TransitionId, Time),
    floor: (Option<Time>, &[u64]),
    out: &mut Vec<u64>,
) {
    if sleeps_nothing(parent_sleep, earlier, fired) {
        out.clear();
        return;
    }
    sleep_rules_into(tasknet, config, parent_sleep, earlier, fired, out);
    urgency_guard(out, floor, tasknet.deps());
    if out.iter().all(|&word| word == 0) {
        out.clear();
    }
}

/// Whether the structural rules of [`child_sleep_into`] add nothing to
/// the child of `fired`: with no earlier sibling there is no equal-delay
/// addition, and nothing persists when time advances or nothing sleeps.
fn sleeps_nothing(
    parent_sleep: &[u64],
    earlier: &[(TransitionId, Time)],
    (_, fired_q): (TransitionId, Time),
) -> bool {
    earlier.is_empty() && (fired_q != 0 || parent_sleep.is_empty())
}

/// The structural rules of [`child_sleep_into`]: equal-delay additions,
/// zero-delay persistence and cascade-dependency invalidation, into `out`
/// (cleared; left empty below the stubborn level).
fn sleep_rules_into(
    tasknet: &TaskNet,
    config: &SchedulerConfig,
    parent_sleep: &[u64],
    earlier: &[(TransitionId, Time)],
    fired: (TransitionId, Time),
    out: &mut Vec<u64>,
) {
    out.clear();
    if config.por != PorLevel::Stubborn {
        return;
    }
    let deps = tasknet.deps();
    let (fired_t, fired_q) = fired;
    out.resize(deps.words_per_row(), 0);
    for &(t, q) in earlier {
        if q == fired_q {
            set_bit(out, t.index());
        }
    }
    if fired_q == 0 {
        for (word, inherited) in out.iter_mut().zip(parent_sleep) {
            *word |= inherited;
        }
    }
    for (word, dependent) in out.iter_mut().zip(deps.sleep_dep_row(fired_t)) {
        *word &= !dependent;
    }
}

/// The urgency-floor guard of [`child_sleep_into`] as a word-mask test:
/// keeps a `sleep` entry `b` iff some holder of the child's `min DUB`
/// lies outside `{b} ∪ conflict_row(b)`. When `min DUB` is infinite,
/// removing any transition leaves it infinite, so every entry stays.
fn urgency_guard(
    sleep: &mut [u64],
    (min_dub, holders): (Option<Time>, &[u64]),
    deps: &DependencyMatrix,
) {
    if min_dub.is_none() {
        return;
    }
    for (word, entry) in sleep.iter_mut().enumerate() {
        let mut bits = *entry;
        while bits != 0 {
            let bit = 1u64 << bits.trailing_zeros();
            bits &= bits - 1;
            let b = TransitionId::from_index(word * 64 + bit.trailing_zeros() as usize);
            let held_outside = holders.iter().zip(deps.conflict_row(b)).enumerate().any(
                |(w, (&held, &conflicts))| {
                    let own = if w == word { bit } else { 0 };
                    held & !(conflicts | own) != 0
                },
            );
            if !held_outside {
                *entry &= !bit;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DelayMode;
    use ezrt_compose::translate;
    use ezrt_spec::corpus::{figure3_spec, figure4_spec, figure8_spec, mine_pump, small_control};
    use ezrt_spec::SpecBuilder;
    use ezrt_tpn::{ClockBounds, TimeInterval, TpnBuilder};
    use std::cell::Cell;
    use std::time::Duration;

    thread_local! {
        /// Child steps [`assert_guard_matches_floor`] checked on this
        /// thread, and how many of them had entries for the guard to test.
        static GUARD_CHECKS: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
        /// Frames whose carried bounds [`assert_carried_matches_walk`]
        /// checked on this thread, the root frames included.
        pub(super) static CARRIED_CHECKS: Cell<usize> = const { Cell::new(0) };
        /// Child steps on this thread whose sleep set
        /// ([`assert_sleep_fast_path_matches`]) and whose candidates
        /// ([`assert_label_fast_path_matches`]) took their fast path and
        /// matched the full rules.
        static FAST_PATH_CHECKS: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
    }

    /// Run by [`Dfs::push`] in test builds on every child step: when
    /// [`child_sleep_into`] takes its fast path ([`sleeps_nothing`]), the
    /// child's sleep set `child_sleep` equals the full rules'
    /// ([`sleep_rules_into`], then [`urgency_guard`]).
    pub(super) fn assert_sleep_fast_path_matches(
        tasknet: &TaskNet,
        config: &SchedulerConfig,
        parent_sleep: &[u64],
        earlier: &[(TransitionId, Time)],
        fired: (TransitionId, Time),
        floor: (Option<Time>, &[u64]),
        child_sleep: &[u64],
    ) {
        if !sleeps_nothing(parent_sleep, earlier, fired) {
            return;
        }
        let mut full = Vec::new();
        sleep_rules_into(tasknet, config, parent_sleep, earlier, fired, &mut full);
        urgency_guard(&mut full, floor, tasknet.deps());
        if full.iter().all(|&word| word == 0) {
            full.clear();
        }
        assert_eq!(child_sleep, full, "sleep fast path after {fired:?}");
        FAST_PATH_CHECKS.with(|checks| {
            let (sleeps, labels) = checks.get();
            checks.set((sleeps + 1, labels));
        });
    }

    /// Run by [`Dfs::push`] in test builds on every child step: when
    /// [`candidates`] left one label awake and returned it unreduced, the
    /// partial-order rules ([`reduce`]) keep exactly that label and skip
    /// nothing.
    pub(super) fn assert_label_fast_path_matches(
        tasknet: &TaskNet,
        domains: &[(TransitionId, Time, TimeBound)],
        config: &SchedulerConfig,
        edf: &EdfKeys,
        sleep: &[u64],
        labels: &[(TransitionId, Time)],
    ) {
        if config.por == PorLevel::Off {
            return;
        }
        let mut awake = Vec::new();
        ezrt_tpn::reachability::expand_delay_labels(config.delay_mode, domains, &mut awake);
        awake.retain(|&(t, q)| q != 0 || !test_bit(sleep, t.index()));
        if awake.len() != 1 {
            return;
        }
        let mut scratch = PorScratch::new();
        reduce(tasknet, domains, config, edf, &mut scratch, &mut awake);
        assert_eq!(labels, awake, "one-label fast path");
        assert_eq!(scratch.stubborn_skips, 0, "one-label fast path skipped");
        FAST_PATH_CHECKS.with(|checks| {
            let (sleeps, labels) = checks.get();
            checks.set((sleeps, labels + 1));
        });
    }

    /// Both fast paths of the child step are taken, and checked against
    /// the full rules, on the stubborn searches of the pump, figure 8 and
    /// the near-harmonic instance of
    /// [`stubborn_sleep_respects_urgency_floor`], whose first children
    /// at delay 0 inherit sleep entries.
    #[test]
    fn fast_paths_match_the_full_rules() {
        use ezrt_spec::generate::{family_spec, Family};
        let near_harmonic = family_spec(
            &Family::NearHarmonic {
                tasks: 3,
                base_period: 10,
                utilization: 0.60,
            },
            4042907925473843452,
        );
        let config = SchedulerConfig {
            por: PorLevel::Stubborn,
            ..SchedulerConfig::default()
        };
        for spec in [mine_pump(), figure8_spec(), near_harmonic] {
            FAST_PATH_CHECKS.with(|checks| checks.set((0, 0)));
            synthesize(&translate(&spec), &config).expect("feasible");
            let (sleeps, labels) = FAST_PATH_CHECKS.with(Cell::get);
            assert!(
                sleeps > 0 && labels > 0,
                "{}: {sleeps} sleep, {labels} label fast paths",
                spec.name()
            );
        }
    }

    /// The urgency-floor guard by its definition, O(|sleep| · |enabled|):
    /// drops an entry `b` of `sleep` unless the minimum dynamic upper
    /// bound over the enabled transitions other than `b` and its conflict
    /// partners equals the minimum over all of them, with both read off
    /// the state's clocks.
    fn floor_guard_oracle(
        sleep: &mut [u64],
        net: &TimePetriNet,
        deps: &DependencyMatrix,
        state: &[u32],
        enabled: &[u64],
    ) {
        let layout = net.layout();
        let members = |mask: &[u64]| -> Vec<TransitionId> {
            (0..net.transition_count())
                .filter(|&k| test_bit(mask, k))
                .map(TransitionId::from_index)
                .collect()
        };
        let dubs: Vec<(TransitionId, TimeBound)> = members(enabled)
            .into_iter()
            .map(|t| {
                let interval = net.transition(t).interval();
                (t, interval.dynamic_upper_bound(layout.clock(state, t)))
            })
            .collect();
        let min_dub = dubs
            .iter()
            .map(|&(_, dub)| dub)
            .fold(TimeBound::Infinite, TimeBound::min);
        for b in members(sleep) {
            let conflicts = deps.conflict_row(b);
            let floor = dubs
                .iter()
                .filter(|&&(z, _)| z != b && !test_bit(conflicts, z.index()))
                .map(|&(_, dub)| dub)
                .fold(TimeBound::Infinite, TimeBound::min);
            if floor != min_dub {
                sleep[b.index() / 64] &= !(1u64 << (b.index() % 64));
            }
        }
    }

    /// Run by [`Dfs::push`] in test builds on every child step: the
    /// child's sleep set equals the structural rules followed by the
    /// [`floor_guard_oracle`] on the child's state.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn assert_guard_matches_floor(
        tasknet: &TaskNet,
        config: &SchedulerConfig,
        parent_sleep: &[u64],
        earlier: &[(TransitionId, Time)],
        fired: (TransitionId, Time),
        child_state: &[u32],
        child_enabled: &[u64],
        child_sleep: &[u64],
    ) {
        let mut expected = Vec::new();
        sleep_rules_into(tasknet, config, parent_sleep, earlier, fired, &mut expected);
        let tested = expected.iter().any(|&word| word != 0);
        floor_guard_oracle(
            &mut expected,
            tasknet.net(),
            tasknet.deps(),
            child_state,
            child_enabled,
        );
        if expected.iter().all(|&word| word == 0) {
            expected.clear();
        }
        assert_eq!(child_sleep, expected, "mask guard vs floor after {fired:?}");
        GUARD_CHECKS.with(|checks| {
            let (all, nonempty) = checks.get();
            checks.set((all + 1, nonempty + usize::from(tested)));
        });
    }

    /// The 10-task sweep proof of seed 11, `ezrt_bench::sweep_spec(10, 11)`:
    /// infeasible, 259,655 states at the default configuration.
    fn sweep_proof() -> ezrt_spec::EzSpec {
        use ezrt_spec::generate::{synthetic_spec, WorkloadConfig};
        synthetic_spec(
            &WorkloadConfig {
                tasks: 10,
                total_utilization: 0.55,
                periods: vec![50, 100, 200, 400],
                preemptive_fraction: 0.0,
                precedence_probability: 0.1,
                exclusion_probability: 0.1,
                constrained_deadlines: true,
            },
            11,
        )
    }

    /// The mask guard keeps exactly the entries the O(|sleep|·|enabled|)
    /// floor keeps on every child step of three stubborn searches: the
    /// pump, figure 8 and the 10-task sweep proof of seed 11.
    #[test]
    fn mask_guard_matches_the_floor_oracle_on_every_push() {
        let sweep = sweep_proof();
        let config = SchedulerConfig {
            por: PorLevel::Stubborn,
            ..SchedulerConfig::default()
        };
        GUARD_CHECKS.with(|checks| checks.set((0, 0)));
        for spec in [mine_pump(), figure8_spec(), sweep] {
            let before = GUARD_CHECKS.with(Cell::get).0;
            let _verdict = synthesize(&translate(&spec), &config);
            assert!(GUARD_CHECKS.with(Cell::get).0 > before, "{}", spec.name());
        }
        let (all, tested) = GUARD_CHECKS.with(Cell::get);
        assert!(tested > 0, "{all} child steps, none with sleep entries");
    }

    /// The carried firing bounds equal the full clock walk on every push
    /// ([`assert_carried_matches_walk`]) of the pump, figure 8 and the
    /// sweep proof at both reduction levels in `Earliest` and `Corners`
    /// mode, and of figure 3 and `small_control` in `Full` mode; cold,
    /// and seeded with half of the cold schedule where there is one.
    #[test]
    fn carried_bounds_match_the_walk_on_every_push() {
        let mut runs = Vec::new();
        for spec in [mine_pump(), figure8_spec(), sweep_proof()] {
            for delay_mode in [DelayMode::Earliest, DelayMode::Corners] {
                runs.push((spec.clone(), delay_mode));
            }
        }
        for spec in [figure3_spec(), small_control()] {
            runs.push((spec, DelayMode::Full));
        }
        for (spec, delay_mode) in runs {
            let tasknet = translate(&spec);
            for por in [PorLevel::Stubborn, PorLevel::Off] {
                let config = SchedulerConfig {
                    por,
                    delay_mode,
                    max_states: 300_000,
                    ..SchedulerConfig::default()
                };
                let checked = |seed: &[ScheduledFiring]| {
                    let before = CARRIED_CHECKS.with(Cell::get);
                    let verdict = synthesize_seeded(&tasknet, &config, seed);
                    let pushes = CARRIED_CHECKS.with(Cell::get) - before;
                    assert!(
                        pushes > 1,
                        "{} at {por:?}, {delay_mode:?}, seed of {}: {pushes} checks",
                        spec.name(),
                        seed.len()
                    );
                    verdict
                };
                if let Ok(cold) = checked(&[]) {
                    let firings = cold.schedule.firings();
                    checked(&firings[..firings.len() / 2]).expect("feasible when seeded");
                }
            }
        }
    }

    /// The carried bounds stay exact where absolute firing times overflow
    /// [`Time`]: `far`, enabled at time 3 with `LFT = Time::MAX − 1`, has
    /// `L = 3 + LFT`; `open` has no `LFT`. `tick` fires every 3 and
    /// re-enters itself each time, keeping `far` enabled.
    #[test]
    fn carried_bounds_stay_exact_near_the_largest_time() {
        let mut builder = TpnBuilder::new("far");
        let p = builder.place_with_tokens("p", 1);
        let q = builder.place("q");
        let r = builder.place_with_tokens("r", 1);
        let tick = builder.transition("tick", TimeInterval::exact(3));
        let far = builder.transition("far", TimeInterval::new(0, Time::MAX - 1).unwrap());
        let open = builder.transition("open", TimeInterval::at_least(5));
        builder.arc_place_to_transition(p, tick, 1);
        builder.arc_transition_to_place(tick, p, 1);
        builder.arc_transition_to_place(tick, q, 1);
        builder.arc_place_to_transition(q, far, 1);
        builder.arc_place_to_transition(r, open, 1);
        let net = builder.build().unwrap();
        let mut state = vec![0u32; net.layout().words()];
        net.write_initial_packed(&mut state);
        let mut enabled = Vec::new();
        net.enabled_into(&state, &mut enabled);
        let (mut carried, mut domains) = (Carried::default(), Vec::new());
        let mut min_dub = carried.root(&net, &enabled);
        carried.fireable_into(&net, 0, 0, min_dub, &mut domains);
        assert_carried_matches_walk(
            &net,
            &state,
            &enabled,
            min_dub,
            carried.holders(0),
            &domains,
        );
        let (mut next, mut next_enabled) = (state.clone(), Vec::new());
        for depth in 1..=4 {
            let now = 3 * depth as Time;
            net.fire_into(&state, &enabled, tick, 3, &mut next, &mut next_enabled);
            min_dub = carried.derive(&net, depth, min_dub, (tick, 3), now, &next_enabled);
            carried.fireable_into(&net, depth, now, min_dub, &mut domains);
            let holders = carried.holders(depth);
            assert_carried_matches_walk(&net, &next, &next_enabled, min_dub, holders, &domains);
            std::mem::swap(&mut state, &mut next);
            std::mem::swap(&mut enabled, &mut next_enabled);
        }
        assert_eq!(min_dub, Some(3), "tick holds min DUB throughout");
        assert!(
            domains.iter().any(|&(t, _, _)| t == far),
            "far stays fireable"
        );
        assert!(domains.iter().any(|&(t, _, _)| t == open));
    }

    /// A net for hand-built guard cases: `b` and its conflict partner `c`
    /// share place `p`, and `z` sits alone on `q`; `b` and `c` are due by
    /// 3, `z` by `z_due` (or never).
    fn guard_net(z_due: Option<Time>) -> (TimePetriNet, [TransitionId; 3]) {
        let mut builder = TpnBuilder::new("guard");
        let p = builder.place_with_tokens("p", 1);
        let q = builder.place_with_tokens("q", 1);
        let b = builder.transition("b", TimeInterval::new(0, 3).unwrap());
        let c = builder.transition("c", TimeInterval::new(1, 5).unwrap());
        let z = builder.transition(
            "z",
            z_due.map_or(TimeInterval::at_least(0), |due| {
                TimeInterval::new(0, due).unwrap()
            }),
        );
        builder.arc_place_to_transition(p, b, 1);
        builder.arc_place_to_transition(p, c, 1);
        builder.arc_place_to_transition(q, z, 1);
        (builder.build().unwrap(), [b, c, z])
    }

    /// Runs both guards on `sleep` in the initial state of `net`, whose
    /// clocks may first be advanced by `aged`, and checks they agree.
    fn guarded(
        net: &TimePetriNet,
        aged: &[(TransitionId, Time)],
        sleep: &[TransitionId],
    ) -> Vec<u64> {
        let deps = DependencyMatrix::from_net(net);
        let layout = net.layout();
        let mut state = vec![0u32; layout.words()];
        net.write_initial_packed(&mut state);
        for &(t, clock) in aged {
            layout.set_clock(&mut state, t, clock);
        }
        let mut enabled = Vec::new();
        net.enabled_into(&state, &mut enabled);
        let mut bounds = ClockBounds::default();
        net.clock_bounds_into(&state, &enabled, &mut bounds);
        let mut mask = vec![0u64; deps.words_per_row()];
        for &t in sleep {
            set_bit(&mut mask, t.index());
        }
        let mut oracle = mask.clone();
        urgency_guard(
            &mut mask,
            (bounds.min_dub().finite(), bounds.holders()),
            &deps,
        );
        floor_guard_oracle(&mut oracle, net, &deps, &state, &enabled);
        assert_eq!(mask, oracle, "mask guard vs floor");
        mask
    }

    fn mask_of(ts: &[TransitionId]) -> Vec<u64> {
        let mut mask = vec![0u64; 1];
        for &t in ts {
            set_bit(&mut mask, t.index());
        }
        mask
    }

    #[test]
    fn guard_keeps_every_entry_when_min_dub_is_infinite() {
        // Two open-ended conflict partners: min DUB is ∞, and removing
        // either (with its partner) leaves it ∞, so both may sleep.
        let mut builder = TpnBuilder::new("open");
        let p = builder.place_with_tokens("p", 1);
        let x = builder.transition("x", TimeInterval::at_least(0));
        let y = builder.transition("y", TimeInterval::at_least(2));
        builder.arc_place_to_transition(p, x, 1);
        builder.arc_place_to_transition(p, y, 1);
        let net = builder.build().unwrap();
        assert_eq!(guarded(&net, &[], &[x, y]), mask_of(&[x, y]));
        // Next to a finite holder the open-ended `z` stays too: `b`
        // holds min DUB outside `z`'s (empty) conflict row.
        let (net, [_, _, z]) = guard_net(None);
        assert_eq!(guarded(&net, &[], &[z]), mask_of(&[z]));
    }

    #[test]
    fn guard_drops_the_sole_holder_of_min_dub() {
        // DUB(b) = 3 < DUB(z) = 8 and DUB(c) = 5: `b` alone holds it.
        let (net, [b, _, z]) = guard_net(Some(8));
        assert_eq!(guarded(&net, &[], &[b]), mask_of(&[]));
        assert_eq!(guarded(&net, &[], &[z]), mask_of(&[z]));
        // Aging `z` to DUB 3 makes it a second holder outside `b`'s
        // conflicts, so `b` may sleep.
        assert_eq!(guarded(&net, &[(z, 5)], &[b]), mask_of(&[b]));
    }

    #[test]
    fn guard_drops_an_entry_whose_conflict_partner_is_the_sole_holder() {
        // `c` aged to DUB 2 alone holds min DUB; `c` conflicts with `b`,
        // so sleeping `b` is dropped, while `z` (no conflict) stays.
        let (net, [b, c, z]) = guard_net(Some(8));
        assert_eq!(guarded(&net, &[(c, 3)], &[b, z]), mask_of(&[z]));
        // A holder outside the conflict row rescues `b` again.
        assert_eq!(guarded(&net, &[(c, 3), (z, 6)], &[b]), mask_of(&[b]));
    }

    /// A search's verdict and counters with its wall-clock zeroed: what
    /// must not depend on the memory the search ran on.
    fn settled(result: Result<Synthesis, SynthesizeError>) -> String {
        match result {
            Ok(mut synthesis) => {
                synthesis.stats.elapsed = Duration::ZERO;
                format!("{:?} {:?}", synthesis.schedule, synthesis.stats)
            }
            Err(mut error) => {
                let (SynthesizeError::Infeasible { stats, .. }
                | SynthesizeError::StateLimitExceeded { stats }
                | SynthesizeError::TimeLimitExceeded { stats }) = &mut error;
                stats.elapsed = Duration::ZERO;
                format!("{error:?}")
            }
        }
    }

    /// Search memory left in the worst state a finished search could
    /// leave it: every frame, the root included, with a stale state,
    /// `min DUB`, undo mark, cursor, clock, candidates and a full sleep
    /// set; stale enabling instants, undo log and masks; a stale path;
    /// every dead bit set; and an arena full of foreign states.
    fn dirty_spare() -> Spare {
        let mut arena = ezrt_tpn::StateArena::new(translate(&figure4_spec()).net().layout());
        for i in 0..5_000u32 {
            let mut state = vec![i; arena.layout().words()];
            state[0] = i.rotate_left(13);
            arena.intern(&state);
        }
        let stale = || Frame {
            state: StateId::from_index(4_999),
            min_dub: Some(2),
            undo: 17,
            candidates: vec![(TransitionId::from_index(1), 3); 5],
            next: 2,
            now: 1_000,
            sleep: vec![u64::MAX; 8],
        };
        Spare {
            arena: arena.into_buffers(),
            dead: vec![u64::MAX; 200],
            frames: (0..50).map(|_| stale()).collect(),
            carried: Carried {
                since: vec![Time::MAX; 300],
                undo: vec![(TransitionId::from_index(2), 9); 40],
                masks: vec![u64::MAX; 500],
                bounded: vec![u64::MAX; 5],
                words: 5,
            },
            path: vec![
                ScheduledFiring {
                    transition: TransitionId::from_index(0),
                    role: TransitionRole::Fork,
                    delay: 7,
                    at: 7,
                };
                30
            ],
        }
    }

    /// A search on stale memory — the root frame's sleep set included —
    /// returns exactly what it returns on fresh memory, cold and seeded,
    /// with and without partial-order reduction.
    #[test]
    fn stale_search_memory_changes_nothing() {
        for spec in [mine_pump(), figure8_spec()] {
            let tasknet = translate(&spec);
            for por in [PorLevel::Stubborn, PorLevel::Off] {
                let config = SchedulerConfig {
                    por,
                    ..SchedulerConfig::default()
                };
                let cold = synthesize(&tasknet, &config).expect("feasible");
                let half = &cold.schedule.firings()[..cold.schedule.firings().len() / 2];
                for seed in [&[][..], half] {
                    let run = |memory| {
                        settled(search_on(&tasknet, &config, seed, Instant::now(), memory))
                    };
                    assert_eq!(
                        run(dirty_spare()),
                        run(Spare::default()),
                        "{} at {por:?}, seed of {}",
                        spec.name(),
                        seed.len()
                    );
                }
            }
        }
    }

    /// A poisoned spare slot only costs reuse: searches skip it, allocate
    /// fresh and return what they always did.
    #[test]
    fn a_poisoned_spare_slot_is_skipped() {
        let tasknet = translate(&mine_pump());
        let config = SchedulerConfig::default();
        let before = settled(synthesize(&tasknet, &config));
        let poisoner = std::thread::spawn(|| {
            let _slot = SPARE.lock();
            panic!("poisoning the spare slot on purpose");
        });
        assert!(poisoner.join().is_err());
        assert!(SPARE.is_poisoned());
        assert_eq!(
            Spare::take().bytes(),
            0,
            "a poisoned slot hands out nothing"
        );
        assert_eq!(settled(synthesize(&tasknet, &config)), before);
        assert_eq!(settled(synthesize(&tasknet, &config)), before);
        SPARE.clear_poison();
    }

    fn default_synthesis(spec: &ezrt_spec::EzSpec) -> Synthesis {
        synthesize(&translate(spec), &SchedulerConfig::default()).expect("feasible")
    }

    /// Regression pin for the near-harmonic sleep-soundness bug: the
    /// generalized sleep rules once lost the only feasible schedule of
    /// this spec because the slept compute transition was the sole holder
    /// of the child's minimum dynamic upper bound — firing it first (the
    /// covering order) raised the urgency floor and let the high-priority
    /// arrival timer evict the release class from `FT(s)`. The
    /// urgency-floor guard in [`child_sleep_into`] wakes such entries.
    #[test]
    fn stubborn_sleep_respects_urgency_floor() {
        use ezrt_spec::generate::{family_spec, Family};
        let spec = family_spec(
            &Family::NearHarmonic {
                tasks: 3,
                base_period: 10,
                utilization: 0.60,
            },
            4042907925473843452,
        );
        let tasknet = translate(&spec);
        let synth = |por| {
            let config = SchedulerConfig {
                por,
                max_states: 200_000,
                ..SchedulerConfig::default()
            };
            synthesize(&tasknet, &config)
        };
        let off = synth(PorLevel::Off).expect("off is feasible");
        let stubborn = synth(PorLevel::Stubborn).expect("stubborn must stay feasible");
        assert!(stubborn.stats.states_visited <= off.stats.states_visited);
    }

    #[test]
    fn figure3_precedence_schedule_is_found() {
        let spec = figure3_spec();
        let synthesis = default_synthesis(&spec);
        let schedule = &synthesis.schedule;
        // T1 finishes before T2 is granted (precedence).
        let t1 = spec.task_id("T1").unwrap();
        let t2 = spec.task_id("T2").unwrap();
        let finish_t1 = schedule
            .firings_where(|r| *r == TransitionRole::Finish(t1))
            .next()
            .unwrap()
            .at;
        let grant_t2 = schedule
            .firings_where(|r| *r == TransitionRole::Grant(t2))
            .next()
            .unwrap()
            .at;
        assert!(finish_t1 <= grant_t2);
        // Both deadlines hold: T1 done by 100, T2 by 150.
        assert!(finish_t1 <= 100);
        let finish_t2 = schedule
            .firings_where(|r| *r == TransitionRole::Finish(t2))
            .next()
            .unwrap()
            .at;
        assert!(finish_t2 <= 150);
    }

    #[test]
    fn figure4_exclusion_schedule_serializes_executions() {
        let spec = figure4_spec();
        let synthesis = default_synthesis(&spec);
        let t0 = spec.task_id("T0").unwrap();
        let t2 = spec.task_id("T2").unwrap();
        let span = |task| {
            let first_grant = synthesis
                .schedule
                .firings_where(|r| *r == TransitionRole::Grant(task))
                .next()
                .unwrap()
                .at;
            let finish = synthesis
                .schedule
                .firings_where(|r| *r == TransitionRole::Finish(task))
                .next()
                .unwrap()
                .at;
            (first_grant, finish)
        };
        let (s0, f0) = span(t0);
        let (s2, f2) = span(t2);
        assert!(
            f0 <= s2 || f2 <= s0,
            "exclusion violated: T0 [{s0},{f0}] vs T2 [{s2},{f2}]"
        );
    }

    #[test]
    fn small_control_completes_with_low_overhead() {
        let synthesis = default_synthesis(&small_control());
        assert_eq!(
            synthesis.stats.schedule_length as u64, synthesis.stats.minimum_firings,
            "a schedulable set should be solved on the first descent"
        );
        assert!(synthesis.stats.overhead_ratio() < 1.5);
    }

    #[test]
    fn figure8_preemptive_schedule_has_preemptions() {
        let spec = figure8_spec();
        let synthesis = default_synthesis(&spec);
        // TaskA (c=8) must be preempted: count its grant firings — more
        // grants than instances means resumed execution parts.
        let a = spec.task_id("TaskA").unwrap();
        let grants = synthesis
            .schedule
            .firings_where(|r| *r == TransitionRole::Grant(a))
            .count();
        assert!(grants > 2, "TaskA granted {grants} times");
    }

    #[test]
    fn seeded_search_replays_a_full_seed_without_visiting_states() {
        let tasknet = translate(&small_control());
        let config = SchedulerConfig::default();
        let cold = synthesize(&tasknet, &config).expect("feasible");
        let seeded =
            synthesize_seeded(&tasknet, &config, cold.schedule.firings()).expect("feasible");
        assert_eq!(seeded.schedule, cold.schedule);
        assert_eq!(seeded.stats.states_visited, 0);
        assert_eq!(seeded.stats.incr_seed_hits, 1);
        assert_eq!(seeded.stats.incr_replayed, cold.schedule.firings().len());
    }

    #[test]
    fn seeded_search_with_a_rejected_seed_matches_the_cold_run() {
        let tasknet = translate(&small_control());
        let config = SchedulerConfig::default();
        let cold = synthesize(&tasknet, &config).expect("feasible");
        // A seed whose first step is not a candidate (foreign transition
        // index) is rejected outright: the run must be byte-identical to
        // the cold search, counters included.
        let foreign = vec![ScheduledFiring {
            transition: ezrt_tpn::TransitionId::from_index(tasknet.net().transition_count() + 1),
            role: TransitionRole::Fork,
            delay: 0,
            at: 0,
        }];
        let seeded = synthesize_seeded(&tasknet, &config, &foreign).expect("feasible");
        assert_eq!(seeded.schedule, cold.schedule);
        assert_eq!(seeded.stats.states_visited, cold.stats.states_visited);
        assert_eq!(seeded.stats.backtracks, cold.stats.backtracks);
        assert_eq!(seeded.stats.incr_seed_hits, 0);
        assert_eq!(seeded.stats.incr_replayed, 0);
    }

    #[test]
    fn seeded_search_recovers_from_a_partially_legal_seed() {
        let tasknet = translate(&figure8_spec());
        let config = SchedulerConfig::default();
        let cold = synthesize(&tasknet, &config).expect("feasible");
        // Seed with a strict prefix of the known solution: the search
        // must extend it to a full feasible schedule and explore at most
        // what the cold run explored.
        let half = cold.schedule.firings().len() / 2;
        let seeded = synthesize_seeded(&tasknet, &config, &cold.schedule.firings()[..half])
            .expect("feasible");
        assert_eq!(seeded.schedule, cold.schedule);
        assert_eq!(seeded.stats.incr_seed_hits, 1);
        assert_eq!(seeded.stats.incr_replayed, half);
        assert!(seeded.stats.states_visited <= cold.stats.states_visited);
    }

    #[test]
    fn empty_seed_is_exactly_the_cold_search() {
        let tasknet = translate(&small_control());
        let config = SchedulerConfig::default();
        let cold = synthesize(&tasknet, &config).expect("feasible");
        let seeded = synthesize_seeded(&tasknet, &config, &[]).expect("feasible");
        assert_eq!(seeded.schedule, cold.schedule);
        assert_eq!(seeded.stats.states_visited, cold.stats.states_visited);
        assert_eq!(seeded.stats.incr_seed_hits, 0);
    }

    #[test]
    fn infeasible_sets_are_detected() {
        // Two unit-period tasks with combined WCET above the period.
        let spec = SpecBuilder::new("overload")
            .task("x", |t| t.computation(3).deadline(4).period(4))
            .task("y", |t| t.computation(2).deadline(4).period(4))
            .build()
            .unwrap();
        let err = synthesize(&translate(&spec), &SchedulerConfig::default()).unwrap_err();
        match err {
            SynthesizeError::Infeasible { missed_tasks, .. } => {
                assert!(!missed_tasks.is_empty());
            }
            other => panic!("expected infeasible, got {other}"),
        }
    }

    #[test]
    fn state_limit_aborts_search() {
        let spec = figure8_spec();
        let config = SchedulerConfig {
            max_states: 5,
            ..SchedulerConfig::default()
        };
        let err = synthesize(&translate(&spec), &config).unwrap_err();
        assert!(matches!(err, SynthesizeError::StateLimitExceeded { .. }));
    }

    #[test]
    fn fifo_ordering_also_solves_simple_sets() {
        let spec = figure3_spec();
        let config = SchedulerConfig {
            ordering: BranchOrdering::Fifo,
            ..SchedulerConfig::default()
        };
        let synthesis = synthesize(&translate(&spec), &config).expect("feasible");
        assert!(synthesis.schedule.is_feasible());
    }

    #[test]
    fn disabling_por_still_finds_schedules_with_more_states() {
        let spec = small_control();
        let tasknet = translate(&spec);
        let with = synthesize(&tasknet, &SchedulerConfig::default()).unwrap();
        let without = synthesize(
            &tasknet,
            &SchedulerConfig {
                por: PorLevel::Off,
                ..SchedulerConfig::default()
            },
        )
        .unwrap();
        assert!(without.schedule.is_feasible());
        assert!(
            without.stats.states_visited >= with.stats.states_visited,
            "POR must not increase the state count ({} vs {})",
            without.stats.states_visited,
            with.stats.states_visited
        );
    }

    #[test]
    fn schedule_firing_times_are_monotone_and_within_hyperperiod() {
        let spec = small_control();
        let synthesis = default_synthesis(&spec);
        let mut last = 0;
        for firing in synthesis.schedule.firings() {
            assert!(firing.at >= last);
            last = firing.at;
        }
        assert!(synthesis.schedule.makespan() <= spec.hyperperiod());
    }

    #[test]
    fn corners_delay_mode_explores_procrastinated_releases() {
        let spec = figure3_spec();
        let config = SchedulerConfig {
            delay_mode: DelayMode::Corners,
            ..SchedulerConfig::default()
        };
        let synthesis = synthesize(&translate(&spec), &config).expect("feasible");
        assert!(synthesis.schedule.is_feasible());
    }

    #[test]
    fn stats_report_dedup_structure_sizes() {
        let synthesis = default_synthesis(&small_control());
        assert!(
            synthesis.stats.dead_set_bytes > 0,
            "arena bytes are counted"
        );
        assert!(synthesis.stats.elapsed > std::time::Duration::ZERO);
        assert!(synthesis.stats.states_per_second() > 0.0);
    }

    #[test]
    fn dead_set_bits_round_trip() {
        let mut dead = DeadSet::default();
        assert!(!dead.contains(StateId::from_index(100)));
        dead.insert(StateId::from_index(100));
        dead.insert(StateId::from_index(0));
        dead.insert(StateId::from_index(100));
        assert!(dead.contains(StateId::from_index(100)));
        assert!(dead.contains(StateId::from_index(0)));
        assert!(!dead.contains(StateId::from_index(63)));
        assert_eq!(dead.len(), 2);
        assert!(dead.resident_bytes() >= 16);
    }

    #[test]
    fn dead_set_grows_geometrically_on_sparse_high_ids() {
        let mut dead = DeadSet::default();
        // A sparse spray of high ids: each insert at most doubles the
        // backing words (or jumps straight to the needed word), and every
        // inserted bit stays set.
        let ids = [5usize, 1 << 10, 1 << 16, (1 << 16) + 1, 1 << 20, 7];
        for (i, &id) in ids.iter().enumerate() {
            let before = dead.bits.len();
            dead.insert(StateId::from_index(id));
            let needed = id / 64 + 1;
            assert!(
                dead.bits.len() >= needed,
                "insert {i}: {} words < {needed} needed",
                dead.bits.len()
            );
            assert!(
                dead.bits.len() == before || dead.bits.len() >= needed.max(before * 2),
                "insert {i}: growth {} -> {} is not geometric",
                before,
                dead.bits.len()
            );
        }
        for &id in &ids {
            assert!(dead.contains(StateId::from_index(id)));
        }
        assert_eq!(dead.len(), ids.len());
        assert!(!dead.contains(StateId::from_index(1 << 19)));
    }

    #[test]
    fn missed_tasks_flags_produce_sorted_names() {
        let spec = figure3_spec();
        let tasknet = translate(&spec);
        let mut missed = MissedTasks::new(spec.task_count());
        missed.record(spec.task_id("T2").unwrap());
        missed.record(spec.task_id("T2").unwrap());
        assert_eq!(missed.sorted_names(&tasknet), vec!["T2"]);
        missed.record(spec.task_id("T1").unwrap());
        assert_eq!(missed.sorted_names(&tasknet), vec!["T1", "T2"]);
    }
}
