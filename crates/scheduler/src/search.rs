//! The depth-first schedule-synthesis search on the packed state kernel.
//!
//! One DFS core, [`Dfs`], runs every search. Its loop fires a candidate
//! of the top frame, then runs the dead, miss and final checks on the
//! successor, then the child step: the child's sleep set and candidates,
//! pushed as a new frame. States are interned in an [`Explorer`] arena
//! and memoized dead in a bitvector [`DeadSet`] over dense [`StateId`]s.
//! Each frame carries its state's enabled set, which the explorer derives
//! from the parent frame's set on every firing, so no step rescans every
//! transition. Frames pool their vectors across pushes, so in the steady
//! state the loop performs **zero heap allocations per explored
//! successor**. The original value-typed search is preserved in
//! [`reference`](crate::reference) and the two are equivalence-tested to
//! return byte-identical schedules.

use crate::config::{BranchOrdering, PorLevel, SchedulerConfig};
use crate::error::SynthesizeError;
use crate::schedule::{FeasibleSchedule, ScheduledFiring};
use crate::stats::SearchStats;
use ezrt_compose::{TaskNet, TransitionRole};
use ezrt_spec::TaskId;
use ezrt_tpn::por::{iter_bits, set_bit, test_bit};
use ezrt_tpn::reachability::Explorer;
use ezrt_tpn::{StateId, Time, TimeBound, TransitionId};
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
    /// The state's enabled set `ET(m)` (packed transition mask), derived
    /// from the parent frame's by [`Explorer::fire`].
    enabled: Vec<u64>,
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
/// them, plus the path, the EDF instance counters, the partial-order
/// scratch and the run's counters.
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
    counters: InstanceCounters,
    scratch: PorScratch,
    domains: Vec<(TransitionId, Time, TimeBound)>,
    /// The child-sleep staging buffer: computed against the parent frame,
    /// then swapped into the child (both hot-loop allocation-free).
    child_sleep: Vec<u64>,
    /// The latest successor's enabled set, staged the same way.
    child_enabled: Vec<u64>,
    ticks: u64,
    /// Backtracks, prunes and deadlocks of this core.
    stats: SearchStats,
    missed: MissedTasks,
}

impl<'a> Dfs<'a> {
    /// A search rooted at the net's initial state: `s0` interned and
    /// counted as visited, its frame scanned and its candidates generated.
    fn new(tasknet: &'a TaskNet, config: &'a SchedulerConfig, started: Instant) -> Self {
        let tasks = tasknet.spec().task_count();
        let mut explorer = Explorer::new(tasknet.net());
        let s0 = explorer.intern_initial();
        let mut dfs = Dfs {
            tasknet,
            config,
            started,
            explorer,
            dead: DeadSet::default(),
            states: 1,
            frames: vec![Frame {
                state: s0,
                ..Frame::default()
            }],
            depth: 1,
            path: Vec::new(),
            counters: InstanceCounters::new(tasks),
            scratch: PorScratch::new(),
            domains: Vec::new(),
            child_sleep: Vec::new(),
            child_enabled: Vec::new(),
            ticks: 0,
            stats: SearchStats::default(),
            missed: MissedTasks::new(tasks),
        };
        let root = &mut dfs.frames[0];
        dfs.explorer.enabled_into(s0, &mut root.enabled);
        candidates(
            tasknet,
            dfs.explorer.state(s0),
            &root.enabled,
            config,
            &dfs.counters,
            &root.sleep,
            &mut dfs.scratch,
            &mut dfs.domains,
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
                self.depth -= 1;
                if let Some(firing) = self.path.pop() {
                    self.counters.unapply(firing.role);
                    self.stats.backtracks += 1;
                }
                continue;
            }

            let (transition, delay) = frame.candidates[frame.next];
            frame.next += 1;
            let now = frame.now + delay;
            let (next, _) = self.explorer.fire(
                frame.state,
                &frame.enabled,
                transition,
                delay,
                &mut self.child_enabled,
            );
            if self.dead.contains(next) {
                self.stats.pruned_dead += 1;
                continue;
            }
            self.states += 1;

            let packed = self.explorer.state(next);
            if self.tasknet.has_deadline_miss_packed(packed) {
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
                self.depth -= 1;
                self.path.pop();
                self.counters.unapply(firing.role);
                if !fireable {
                    self.stats.deadlocks += 1;
                }
                self.dead.insert(next);
            }
        }
    }

    /// The child step: computes the sleep set of `next`, reached by
    /// `firing` out of the top frame, then pushes its frame with its
    /// candidates and extends the path. Returns whether the child's
    /// `FT(s)` was non-empty (see [`candidates`]).
    fn push(&mut self, firing: ScheduledFiring, next: StateId) -> bool {
        let parent = &self.frames[self.depth - 1];
        child_sleep_into(
            self.tasknet,
            self.config,
            &parent.sleep,
            &parent.candidates[..parent.next - 1],
            (firing.transition, firing.delay),
            self.explorer.state(next),
            &self.child_enabled,
            &mut self.scratch,
            &mut self.child_sleep,
        );

        self.counters.apply(firing.role);
        if self.depth == self.frames.len() {
            self.frames.push(Frame::default());
        }
        let frame = &mut self.frames[self.depth];
        frame.state = next;
        frame.next = 0;
        frame.now = firing.at;
        std::mem::swap(&mut frame.sleep, &mut self.child_sleep);
        std::mem::swap(&mut frame.enabled, &mut self.child_enabled);
        let fireable = candidates(
            self.tasknet,
            self.explorer.state(next),
            &frame.enabled,
            self.config,
            &self.counters,
            &frame.sleep,
            &mut self.scratch,
            &mut self.domains,
            &mut frame.candidates,
        );
        self.path.push(firing);
        self.depth += 1;
        fireable
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
                &frame.enabled,
                firing.transition,
                firing.delay,
                &mut self.child_enabled,
            );
            if self
                .tasknet
                .has_deadline_miss_packed(self.explorer.state(next))
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
}

/// Reusable per-search scratch for the partial-order machinery: packed
/// bitmask buffers for the fireable set and the stubborn closure (hoisted
/// out of the per-state hot path), plus the reduction counters the
/// buffers' owner accumulates.
struct PorScratch {
    fireable: Vec<u64>,
    closure: Vec<u64>,
    /// Enabled `(transition, dynamic upper bound)` pairs of the child
    /// state, for the urgency-floor guard in [`child_sleep_into`].
    dubs: Vec<(TransitionId, TimeBound)>,
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
            dubs: Vec::new(),
            stubborn_skips: 0,
            sleep_skips: 0,
        }
    }
}

/// A dead-state index over dense [`StateId`]s: one bit per interned state.
#[derive(Debug, Default)]
struct DeadSet {
    bits: Vec<u64>,
    len: usize,
}

impl DeadSet {
    fn insert(&mut self, id: StateId) {
        let (word, bit) = (id.index() / 64, id.index() % 64);
        if word >= self.bits.len() {
            // Geometric growth: out-of-range inserts arrive in id order
            // almost always, so per-word `resize(word + 1)` would be a
            // reallocation per 64 states; doubling keeps it amortized O(1)
            // and also handles sparse high-id inserts gracefully.
            let grown = (word + 1).max(self.bits.len() * 2);
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

    fn resident_bytes(&self) -> usize {
        self.bits.capacity() * std::mem::size_of::<u64>()
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

/// Per-task counters maintained along the DFS path, used by the EDF
/// branch-ordering heuristic to compute the absolute deadline of the
/// instance a candidate transition advances.
pub(crate) struct InstanceCounters {
    releases: Vec<u64>,
    completed: Vec<u64>,
}

impl InstanceCounters {
    pub(crate) fn new(tasks: usize) -> Self {
        InstanceCounters {
            releases: vec![0; tasks],
            completed: vec![0; tasks],
        }
    }

    pub(crate) fn apply(&mut self, role: TransitionRole) {
        match role {
            TransitionRole::Release(t) => self.releases[t.index()] += 1,
            TransitionRole::DeadlineCheck(t) => self.completed[t.index()] += 1,
            _ => {}
        }
    }

    pub(crate) fn unapply(&mut self, role: TransitionRole) {
        match role {
            TransitionRole::Release(t) => self.releases[t.index()] -= 1,
            TransitionRole::DeadlineCheck(t) => self.completed[t.index()] -= 1,
            _ => {}
        }
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
    let minimum_firings = tasknet.minimum_firing_count();

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
                minimum_firings,
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

    let mut dfs = Dfs::new(tasknet, config, started);
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
        minimum_firings,
        elapsed: started.elapsed(),
        ..dfs.stats()
    });
    match exit {
        Exit::Feasible => {
            stats.schedule_length = dfs.path.len();
            Ok(Synthesis {
                schedule: FeasibleSchedule::new(std::mem::take(&mut dfs.path)),
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

/// Generates the ordered candidate labels of a packed state, whose
/// enabled set is `enabled`, into the caller's reusable buffer: the
/// fireable set `FT(s)`, expanded to `(t, q)` pairs per the delay mode,
/// filtered by the frame's sleep set, reduced by the configured
/// partial-order rule, and sorted by the branch ordering.
///
/// Returns whether the raw fireable set `FT(s)` was non-empty. No
/// candidates from a non-empty `FT(s)` means every candidate was asleep:
/// the subtree is covered by a commuting sibling order, and the state is
/// exhausted *without* being a deadlock.
#[allow(clippy::too_many_arguments)]
fn candidates(
    tasknet: &TaskNet,
    state: &[u32],
    enabled: &[u64],
    config: &SchedulerConfig,
    counters: &InstanceCounters,
    sleep: &[u64],
    scratch: &mut PorScratch,
    domains: &mut Vec<(TransitionId, Time, TimeBound)>,
    labels: &mut Vec<(TransitionId, Time)>,
) -> bool {
    labels.clear();
    let net = tasknet.net();
    net.fireable_domains_into(state, enabled, domains);
    if domains.is_empty() {
        return false;
    }

    ezrt_tpn::reachability::expand_delay_labels(config.delay_mode, domains, labels);
    if config.por == PorLevel::Off {
        sort_labels(tasknet, config, counters, labels);
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
        if labels.is_empty() {
            return true;
        }
    }

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
            return true;
        }
        sort_labels(tasknet, config, counters, labels);
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
        return true;
    }

    sort_labels(tasknet, config, counters, labels);
    true
}

/// Sorts candidate labels by the configured branch ordering.
fn sort_labels(
    tasknet: &TaskNet,
    config: &SchedulerConfig,
    counters: &InstanceCounters,
    labels: &mut [(TransitionId, Time)],
) {
    match config.ordering {
        BranchOrdering::Fifo => {
            labels.sort_by_key(|&(t, q)| (q, t.index()));
        }
        BranchOrdering::Edf => {
            labels.sort_by_key(|&(t, q)| {
                (
                    q,
                    instance_deadline(tasknet, t, counters),
                    role_rank(tasknet.role(t)),
                    t.index(),
                )
            });
        }
    }
}

/// Computes the sleep set of the child reached by firing the label
/// `fired` out of a frame, into `out` (cleared and resized to the matrix
/// row width). Applies at the stubborn level only; below it the sleep
/// set is always empty.
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
/// * **Urgency-floor guard** — a surviving entry `b` is dropped unless
///   the child's minimum dynamic upper bound is still held by some
///   enabled transition other than `b` and `b`'s conflict partners. The
///   coverage argument replays the covered segment in a mirror state
///   where `b` has already fired; if pending-`b` was the sole holder of
///   `min DUB`, the mirror's urgency floor rises and admits a
///   higher-priority class that evicts the segment's firings from
///   `FT(s)` — a global coupling through the urgency filter that no
///   structural relation sees, so it is re-checked dynamically against
///   every child state.
///
/// [`DependencyMatrix::build_sleep_closure`]: ezrt_tpn::por::DependencyMatrix::build_sleep_closure
#[allow(clippy::too_many_arguments)]
fn child_sleep_into(
    tasknet: &TaskNet,
    config: &SchedulerConfig,
    parent_sleep: &[u64],
    earlier: &[(TransitionId, Time)],
    fired: (TransitionId, Time),
    child_state: &[u32],
    child_enabled: &[u64],
    scratch: &mut PorScratch,
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
    if out.iter().any(|&word| word != 0) {
        // Urgency-floor guard: one walk of the child's enabled set, then
        // a per-entry floor over it with the entry and its conflict
        // partners masked out.
        let net = tasknet.net();
        let layout = net.layout();
        scratch.dubs.clear();
        let mut min_dub = TimeBound::Infinite;
        for k in iter_bits(child_enabled) {
            let t = TransitionId::from_index(k);
            let dub = net
                .transition(t)
                .interval()
                .dynamic_upper_bound(layout.clock(child_state, t));
            min_dub = min_dub.min(dub);
            scratch.dubs.push((t, dub));
        }
        for (word, entry) in out.iter_mut().enumerate() {
            let mut bits = *entry;
            while bits != 0 {
                let b = TransitionId::from_index(word * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
                let conflicts = deps.conflict_row(b);
                let floor = scratch
                    .dubs
                    .iter()
                    .filter(|&&(z, _)| z != b && !test_bit(conflicts, z.index()))
                    .map(|&(_, dub)| dub)
                    .fold(TimeBound::Infinite, TimeBound::min);
                if floor != min_dub {
                    *entry &= !(1u64 << (b.index() % 64));
                }
            }
        }
    }
    if out.iter().all(|&word| word == 0) {
        out.clear();
    }
}

/// The absolute deadline of the task instance `t` advances — the EDF sort
/// key. Non-task transitions sort first (they are bookkeeping).
pub(crate) fn instance_deadline(
    tasknet: &TaskNet,
    t: TransitionId,
    counters: &InstanceCounters,
) -> Time {
    let role = tasknet.role(t);
    let Some(task) = role.task() else { return 0 };
    let timing = tasknet.spec().task(task).timing();
    let instance = match role {
        TransitionRole::Release(_) => counters.releases[task.index()],
        _ => counters.completed[task.index()],
    };
    timing.phase + instance * timing.period + timing.deadline
}

/// Among equal-deadline candidates, make progress on already-started work
/// first (compute before grant before release).
pub(crate) fn role_rank(role: TransitionRole) -> u8 {
    match role {
        TransitionRole::Compute(_) => 0,
        TransitionRole::Grant(_) => 1,
        TransitionRole::Release(_) => 2,
        _ => 3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DelayMode;
    use ezrt_compose::translate;
    use ezrt_spec::corpus::{figure3_spec, figure4_spec, figure8_spec, small_control};
    use ezrt_spec::SpecBuilder;

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
